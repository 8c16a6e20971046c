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
    ("corekit", "AffPt CharVec ProjLine Segment collinear cross3 delta det3 "
     "euler_chi format_rational parse_rational slope to_fraction"),
    ("polygon", "Polygon point_in_polygon"),
    ("exceptional", "DyadicLabel ExcBundle char_of el eplus er "
     "is_exceptional_char slope_to_label twist"),
    ("triples", "ExcTriple TriplePattern detect_triple mutate_left mutate_right "
     "triple_from"),
    ("lepotier", "DlpResult GeoAnswer RegionClass classify_point dlp_exists "
     "geo_contains_segment"),
    ("curve", "CurveApprox CurveSegment ExclusionSegment Tent build_curve"),
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


def _moved(module: str, home: str):
    """A PEP 562 __getattr__ for module, whose public names homed in home moved there.

    Every CLI verb loads corekit and exceptional, and some load lepotier,
    so code that only a few verbs run lives in a home of its own.  The old
    module loads each moved name from there on first use and keeps it, so
    it is the same object from either module.
    """
    names = {name for name, where in _HOME.items() if where == home}

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(f"{__name__}.{home}"), name)
        setattr(import_module(module), name, value)
        return value

    return __getattr__


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
