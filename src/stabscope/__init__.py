"""Exact tools for stability regions of sheaf classes on the plane.

The package computes with exceptional bundles indexed by dyadic
rationals, the boundary curve that separates geometric from collapsed
behavior, exact charge and phase arithmetic, cell classification in a
three-parameter chart, and wall arrangements, all over the rationals
with at most one square root.  Submodules are loaded on first use.
"""

from importlib import import_module

_NAMES = (
    ("surd", "QuadReal Number nsign"),
    ("corekit", "AffPt CharVec Polygon ProjLine Segment collinear cross3 "
     "delta det3 euler_chi format_rational parse_rational point_in_polygon "
     "slope to_fraction"),
    ("exceptional", "DyadicLabel ExcBundle ExcTriple TriplePattern char_of "
     "detect_triple el eplus er is_exceptional_char mutate_left mutate_right "
     "slope_to_label triple_from twist"),
    ("lepotier", "CurveApprox CurveSegment DlpResult ExclusionSegment "
     "GeoAnswer RegionClass Tent build_curve classify_point dlp_exists "
     "geo_contains_segment"),
    ("geometric", "Charge GeneralCharge GLElement HeartPos KernelPoint Phase "
     "PhaseOrder RatComplex ShiftedChar SQCharge StabResult exc_stable_at "
     "heart_position kernel_point normalize_charge phase phase_less z_eval"),
    ("algebraic", "CellLabel CellReport ThetaParams charge_from_params "
     "classify_cell classify_cell_report gl_act gl_inverse mz_polygon "
     "stable_set_pure tr_polygon transport_plus_leg "
     "transport_plus_leg_inverse validate_params"),
    ("walls", "WallLine clip_line wall_line walls_for"),
)
_HOME = {name: module for module, names in _NAMES for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a public name from its home module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
