"""Explicit Kummer-surface arithmetic for genus-2 Jacobians over fields of
any characteristic, with a per-curve formula-synthesis engine validated
against an independent Mumford/Cantor group-law oracle."""

from .field import (
    BinaryField,
    PrimeField,
    RationalField,
    field_from_spec,
)
from .algebra import BIQUADRATIC44, Matrix, MonomialBasis, Poly, QUARTIC4, roots, solve_kernel
from .curve import (
    CurveModel,
    CurvePoint,
    ModelIsomorphism,
    MumfordDivisor,
    char2_normal_form,
    curve_from_text,
    kummer_matrix,
    normal_form_curve,
    rational_weierstrass_points,
    sample_point,
    simplified_model,
    transform,
    transform_pair,
    transform_point,
    validate,
)
from .jacobian import (
    WorkingModel,
    add,
    from_point_pair,
    negate,
    random_divisor,
    to_point_pair,
    working_model,
)
from .kummer import (
    KummerPoint,
    KummerQuartic,
    TwoTorsionData,
    kummer_coords,
    on_surface,
    quartic_from_curve,
    two_torsion_classes,
    zero_class_point,
)
from .synthesis import (
    FormulaSet,
    crosscheck_b_conversion,
    crosscheck_tau_delta,
    deserialize_formula_set,
    fingerprint,
    serialize_formula_set,
    synthesize_bqf,
    synthesize_delta,
    synthesize_formula_set,
    synthesize_w_char2,
    synthesize_w_oddchar,
    transport_forms,
)
from .ladder import LadderContext, bench, ladder, make_context, xadd, xdbl
from .verify import (
    LemmaReport,
    lemma_b_search,
    lemma_delta_search,
    proposition_suites,
)

__version__ = "0.1.0"
