"""Scalar multiplication on the Kummer surface.

Doubling evaluates the four synthesized quartics; differential addition
recovers kappa(P+Q) from x = kappa(P), y = kappa(Q), z = kappa(P-Q) through
the biquadratic forms: with the pivot j the first index with z_j != 0,

    w~_j = z_j * B_jj(x, y),      w~_i = z_j * B_ij(x, y) - B_jj(x, y) * z_i,

which equals z_j^2 * kappa(P+Q) projectively -- no inversions -- and needs
four of the ten forms.  One pivot is enough: B_ij(x, y) = lam * t_ij(w, z)
with w = kappa(P+Q), so the result under any pivot is lam * z_j^2 * w.  It
vanishes only when lam = 0, and then it vanishes under every pivot, so no
other pivot is tried.

The forms are compiled once per context (``algebra.CompiledForms``) and
evaluated from the ten quadratic monomials of their arguments.  The points
``xdbl`` and ``xadd`` return carry these monomials, so a ladder computes
each point's monomials once, as it makes the point, and the doubling and
the addition that consume it share them; a point from elsewhere has its
monomials computed on each use and is never annotated.  Each B_ij is
symmetric in x and y, so ``xadd`` forms the symmetric products s_ab =
q_a(x) q_b(y) + q_b(x) q_a(y) (q_a(x) q_a(y) for a = b) once over the
union of its pivot's four supports and reads each form off them.  On the
reference formula sets a ladder step costs 327 multiplications on
``m61_h2_f5`` (149 for ``xdbl``, 178 for ``xadd``) and 257 on
``c2_general_f`` (81 + 176), from 353 and 290 when each form was summed
over its 100 coefficients.  Every product, the seven that combine the
forms' values in ``xadd`` included, is made by the field's raw-integer
kernels (``Field.pair_products``, ``symmetric_products``, ``dot``,
``dots``), which over GF(p) and tabled GF(2^m) make no ``Field.mul`` call
per product; the context holds no log/exp table.
The ladder keeps the invariant pair (kappa(mP), kappa((m+1)P)) whose
difference is the fixed base point, consuming scalar bits from the top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .algebra import QUADRATIC_MULS, CompiledForms, quadratic_monomials
from .curve import CurveModel
from .errors import AllPivotsFailed, FormulaSetMissing, UnsupportedField, ZeroOutput
from .field import OpCounter
from .jacobian import working_model
from .kummer import KummerPoint, KummerQuartic, quartic_from_curve, zero_class_point
from .synthesis import FormulaSet, fingerprint, oracle_draws

# per pivot j: the key of B_jj, then the key of B_ij for each i != j
_PIVOT_FORMS = [
    [(j + 1, j + 1)] + [(min(i, j) + 1, max(i, j) + 1) for i in range(4) if i != j]
    for j in range(4)
]

# the products of xadd outside the forms, over (z_j, B_jj, the other three
# B_ij, the other three z_i): z_j B_jj, then z_j B_ij and B_jj z_i per i
_COMBINE_PAIRS = [(0, 1), (0, 2), (1, 5), (0, 3), (1, 6), (0, 4), (1, 7)]
_COMBINE_MULS = len(_COMBINE_PAIRS)


@dataclass
class LadderContext:
    """Immutable bundle of a curve, its quartic, its formula set and the
    formula set compiled for evaluation."""

    curve: CurveModel
    quartic: KummerQuartic
    formulas: FormulaSet
    forms: CompiledForms = field(init=False, repr=False)

    def __post_init__(self):
        if self.formulas.fingerprint != fingerprint(self.curve):
            raise FormulaSetMissing(
                "formula set fingerprint does not match the curve"
            )
        self.forms = CompiledForms(self.curve.field, self.formulas.delta, self.formulas.bqf)


def make_context(curve: CurveModel, formulas: FormulaSet) -> LadderContext:
    return LadderContext(curve, quartic_from_curve(curve), formulas)


class _Prepared(KummerPoint):
    """A Kummer point carrying its ten quadratic monomials."""

    __slots__ = ("quad",)

    def __init__(self, F, coords):
        super().__init__(F, coords)
        self.quad = quadratic_monomials(F, self.coords)


def _prepared(F, x: KummerPoint) -> _Prepared:
    return x if isinstance(x, _Prepared) else _Prepared(F, x.coords)


def _quad(F, x: KummerPoint) -> list:
    return x.quad if isinstance(x, _Prepared) else quadratic_monomials(F, x.coords)


def xdbl_muls(ctx: LadderContext) -> int:
    """Multiplications of one ``xdbl`` on a point that carries its
    monomials (a point ``xdbl`` or ``xadd`` returned), from the sparsity of
    the duplication quartics alone."""
    return ctx.forms.quartic_muls() + QUADRATIC_MULS


def xadd_muls(ctx: LadderContext, pivot: int) -> int:
    """Multiplications of one ``xadd`` whose x and y carry their monomials
    and whose difference has its first nonzero coordinate at ``pivot``
    (0-based), from the sparsity of the biquadratic forms alone: the
    symmetric products over the union of the pivot's four supports and one
    product per coefficient (``CompiledForms.biquadratic_muls``), the seven
    that combine the values, and the result's ten quadratic monomials."""
    return ctx.forms.biquadratic_muls(_PIVOT_FORMS[pivot]) + _COMBINE_MULS + QUADRATIC_MULS


def xdbl(ctx: LadderContext, x: KummerPoint) -> KummerPoint:
    F = ctx.curve.field
    coords = ctx.forms.quartic_values(_quad(F, x))
    if all(v == F.zero for v in coords):
        raise ZeroOutput("all duplication quartics vanished on a surface point")
    return _Prepared(F, coords)


def _pseudo_sum(ctx: LadderContext, j: int, qx, qy, zc) -> list:
    """The coordinates w~ of kappa(P+Q) under pivot j."""
    F = ctx.curve.field
    bjj, *bij = ctx.forms.biquadratic_values(_PIVOT_FORMS[j], qx, qy)
    wj, *prods = F.pair_products([zc[j], bjj, *bij, *(zc[i] for i in range(4) if i != j)], _COMBINE_PAIRS)
    w = [F.sub(prods[t], prods[t + 1]) for t in range(0, 6, 2)]
    w.insert(j, wj)
    return w


def xadd(ctx: LadderContext, x: KummerPoint, y: KummerPoint, z: KummerPoint) -> KummerPoint:
    """kappa(P+Q) from kappa(P), kappa(Q) and the difference kappa(P-Q)."""
    F = ctx.curve.field
    zero = F.zero
    zc = z.coords
    j = next(j for j in range(4) if zc[j] != zero)
    w = _pseudo_sum(ctx, j, _quad(F, x), _quad(F, y), zc)
    if all(v == zero for v in w):
        raise AllPivotsFailed("pseudo-addition produced zero, which it then does under every pivot")
    return _Prepared(F, w)


def ladder(ctx: LadderContext, x: KummerPoint, n: int) -> KummerPoint:
    """kappa(n P) from kappa(P) by a double-and-differential-add chain."""
    F = ctx.curve.field
    if n < 0:
        raise ValueError("nonnegative scalars only")
    if n == 0:
        return zero_class_point(F)
    if n == 1:
        return x
    x = _prepared(F, x)  # the base's monomials, once
    r0, r1 = x, xdbl(ctx, x)
    for bit_pos in range(n.bit_length() - 2, -1, -1):
        if (n >> bit_pos) & 1:
            r0, r1 = xadd(ctx, r0, r1, x), xdbl(ctx, r1)
        else:
            r0, r1 = xdbl(ctx, r0), xadd(ctx, r0, r1, x)
    return r0


def bench(ctx: LadderContext, rng, trials: int = 5, bits: int = 40) -> dict:
    """Exact multiplication counts per ladder step plus wall-clock timing.

    Counts are deterministic (the ladder performs one doubling and one
    differential addition per bit regardless of the bit pattern); squarings
    are executed as generic multiplications, so the squaring count tallies
    the explicit squaring calls only.  Inversions per step must be zero.
    Over Q the ladder never rescales and kappa(nP) has about 4.8 n^2 digits
    (see ``verify.RATIONAL_CHAIN_MAX_SUM``), so a ``bits``-bit ladder is out
    of reach there: UnsupportedField.
    """
    if trials < 1:
        raise ValueError(f"bench needs at least one timed trial, got {trials}")
    if ctx.curve.field.order() is None:
        raise UnsupportedField(f"bench times {bits}-bit ladders, out of reach over the rationals")
    from . import field as field_mod

    # a surface point to run on: kappa of a sampled class, with its
    # monomials, as the ladder holds its base and the points it makes
    ((x,),) = oracle_draws(working_model(ctx.curve), rng, 1)
    x = _prepared(ctx.curve.field, x)
    ctr = OpCounter()
    field_mod.Field.counter = ctr
    try:
        x2 = xdbl(ctx, x)
        ctr.reset()
        xdbl(ctx, x)
        dbl_counts = ctr.snapshot()
        ctr.reset()
        xadd(ctx, x, x2, x)
        add_counts = ctr.snapshot()
        ctr.reset()
        n = (1 << bits) | 1
        ladder(ctx, x, n)
        ladder_counts = ctr.snapshot()
    finally:
        field_mod.Field.counter = None
    t0 = time.perf_counter()
    for _ in range(trials):
        ladder(ctx, x, n)
    elapsed = (time.perf_counter() - t0) / trials
    # the ladder is one initial doubling, then one xdbl + xadd per step
    steps = n.bit_length() - 1
    per_step = {k: (ladder_counts[k] - dbl_counts[k]) / steps for k in ("mul", "sqr", "inv")}
    return {
        "xdbl": dbl_counts,
        "xadd": add_counts,
        "ladder_bits": steps,
        "ladder_total": ladder_counts,
        "per_step": per_step,
        "inversions_per_step": per_step["inv"],
        "seconds_per_bit": elapsed / steps,
        "trials": trials,
    }
