"""Exact tools for stability regions of sheaf classes on the plane.

The package computes with exceptional bundles indexed by dyadic
rationals, the boundary curve that separates geometric from collapsed
behavior, exact charge and phase arithmetic, cell classification in a
three-parameter chart, and wall arrangements, all over the rationals
with at most one square root.
"""

from .surd import QuadReal, Number, nsign
from .corekit import (AffPt, CharVec, Polygon, ProjLine, RayOrder, Segment,
                      collinear, cross2, cross3, delta, det3, euler_chi,
                      format_rational, parse_rational, point_in_polygon,
                      ray_above, slope, to_fraction, vec)
from .exceptional import (DyadicLabel, ExcBundle, ExcTriple, TriplePattern,
                          char_of, detect_triple, el, eplus, er,
                          is_exceptional_char, mutate_left, mutate_right,
                          slope_to_label, triple_from, twist)
from .lepotier import (CurveApprox, CurveSegment, DlpResult, ExclusionSegment,
                       GeoAnswer, RegionClass, Tent, build_curve,
                       classify_point, delta_safe, dlp_exists, fib,
                       geo_contains_segment, min_rank)
from .geometric import (Charge, GeneralCharge, GLElement, HeartPos,
                        KernelPoint, Phase, PhaseOrder, RatComplex,
                        ShiftedChar, SQCharge, StabResult, exc_stable_at,
                        heart_position, kernel_point, normalize_charge,
                        phase, phase_less, z_eval)
from .algebraic import (CellLabel, CellReport, ThetaParams,
                        charge_from_params, classify_cell,
                        classify_cell_report, gl_act, gl_inverse, mz_polygon,
                        stable_set_pure, tr_polygon, transport_plus_leg,
                        transport_plus_leg_inverse, validate_params)
from .walls import WallLine, clip_line, wall_line, walls_for

__all__ = [
    "QuadReal", "Number", "nsign",
    "AffPt", "CharVec", "Polygon", "ProjLine", "RayOrder", "Segment",
    "collinear", "cross2", "cross3", "delta", "det3", "euler_chi",
    "format_rational", "parse_rational", "point_in_polygon",
    "ray_above", "slope", "to_fraction", "vec",
    "DyadicLabel", "ExcBundle", "ExcTriple", "TriplePattern", "char_of",
    "detect_triple", "el", "eplus", "er", "is_exceptional_char",
    "mutate_left", "mutate_right", "slope_to_label", "triple_from", "twist",
    "CurveApprox", "CurveSegment", "DlpResult", "ExclusionSegment",
    "GeoAnswer", "RegionClass", "Tent", "build_curve", "classify_point",
    "delta_safe", "dlp_exists", "fib", "geo_contains_segment", "min_rank",
    "Charge", "GeneralCharge", "GLElement", "HeartPos", "KernelPoint",
    "Phase", "PhaseOrder", "RatComplex", "ShiftedChar", "SQCharge",
    "StabResult", "exc_stable_at", "heart_position", "kernel_point",
    "normalize_charge", "phase", "phase_less", "z_eval",
    "CellLabel", "CellReport", "ThetaParams", "charge_from_params",
    "classify_cell", "classify_cell_report", "gl_act", "gl_inverse",
    "mz_polygon", "stable_set_pure", "tr_polygon", "transport_plus_leg",
    "transport_plus_leg_inverse", "validate_params",
    "WallLine", "clip_line", "wall_line", "walls_for",
]

__version__ = "0.1.0"
