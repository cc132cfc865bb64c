"""Scalar multiplication on the Kummer surface.

Doubling evaluates the four synthesized quartics; differential addition
recovers kappa(P+Q) from x = kappa(P), y = kappa(Q), z = kappa(P-Q) through
the biquadratic forms: with a pivot j such that z_j != 0,

    w~_j = z_j * B_jj(x, y),      w~_i = z_j * B_ij(x, y) - B_jj(x, y) * z_i,

which equals z_j^2 * kappa(P+Q) projectively -- no inversions.  The ladder
keeps the invariant pair (kappa(mP), kappa((m+1)P)) whose difference is the
fixed base point, consuming scalar bits from the top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .algebra import quartic_values
from .curve import CurveModel
from .errors import AllPivotsFailed, FormulaSetMissing, ZeroOutput
from .field import OpCounter
from .kummer import KummerPoint, KummerQuartic, quartic_from_curve, zero_class_point
from .synthesis import FormulaSet, _default_sampler, eval_bqf_all, fingerprint, oracle_draws


@dataclass
class LadderContext:
    """Immutable bundle of a curve, its quartic, and its formula set."""

    curve: CurveModel
    quartic: KummerQuartic
    formulas: FormulaSet
    check_pivots: bool = False
    check_surface: bool = False

    def __post_init__(self):
        if self.formulas.fingerprint != fingerprint(self.curve):
            raise FormulaSetMissing(
                "formula set fingerprint does not match the curve"
            )


def make_context(curve: CurveModel, formulas: FormulaSet, **flags) -> LadderContext:
    return LadderContext(curve, quartic_from_curve(curve), formulas, **flags)


def xdbl(ctx: LadderContext, x: KummerPoint) -> KummerPoint:
    F = ctx.curve.field
    coords = quartic_values(F, ctx.formulas.delta, x.coords)
    if all(v == F.zero for v in coords):
        raise ZeroOutput("all duplication quartics vanished on a surface point")
    out = KummerPoint(F, coords)
    if ctx.check_surface:
        from .kummer import on_surface

        assert on_surface(ctx.quartic, out)
    return out


def xadd(ctx: LadderContext, x: KummerPoint, y: KummerPoint, z: KummerPoint) -> KummerPoint:
    """kappa(P+Q) from kappa(P), kappa(Q) and the difference kappa(P-Q)."""
    F = ctx.curve.field
    zero = F.zero
    b = eval_bqf_all(F, ctx.formulas.bqf, x.coords, y.coords)
    zc = z.coords
    results = []
    for j in range(4):
        if zc[j] == zero:
            continue
        bjj = b[(j + 1, j + 1)]
        w = []
        for i in range(4):
            if i == j:
                w.append(F.mul(zc[j], bjj))
            else:
                bij = b[(min(i, j) + 1, max(i, j) + 1)]
                w.append(F.sub(F.mul(zc[j], bij), F.mul(bjj, zc[i])))
        if any(v != zero for v in w):
            results.append(KummerPoint(F, w))
            if not ctx.check_pivots:
                break
    if not results:
        raise AllPivotsFailed("pseudo-addition produced zero under every pivot")
    if ctx.check_pivots:
        first = results[0]
        for other in results[1:]:
            assert first.proportional(other), "pivot results disagree"
    out = results[0]
    if ctx.check_surface:
        from .kummer import on_surface

        assert on_surface(ctx.quartic, out)
    return out


def ladder(ctx: LadderContext, x: KummerPoint, n: int) -> KummerPoint:
    """kappa(n P) from kappa(P) by a double-and-differential-add chain."""
    F = ctx.curve.field
    if n < 0:
        raise ValueError("nonnegative scalars only")
    if n == 0:
        return zero_class_point(F)
    if n == 1:
        return x
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
    """
    from . import field as field_mod
    from .jacobian import working_model

    # a surface point to run on: kappa of a sampled class
    wm = working_model(ctx.curve)
    ((x,),) = oracle_draws(ctx.curve, wm, _default_sampler(wm), rng, 1)
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
