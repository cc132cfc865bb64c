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
over its 100 coefficients.

For a given formula set each step is a fixed sequence of products and
sums, so a context runs it as straight-line code: ``xdbl`` and ``xadd``
under each pivot are each one generated Python function, with every
coefficient and index a constant and no loop.  The program of products
and sums comes from the compiled forms (``quartic_program``,
``biquadratic_program``, ``quadratic_program`` for the result's
monomials), and the field turns it into statements
(``Field.straight_line``): sums of unreduced products over GF(p), log/exp
reads over tabled GF(2^m) with the tables fetched on every call and never
held, and the counted ``mul`` and ``add`` over Q and GF(2^m) with m > 20.
A step does the products the interpreted evaluators do, which the tests
use as its reference, and counts them the same, so the costs above and
``xdbl_muls``/``xadd_muls`` are unchanged.  Compilation is lazy and per
function: ``xdbl`` on its first call, each pivot's ``xadd`` on its first
call, each with its own ``compile``.  On a 2-vCPU Xeon under CPython 3.11
one step compiles in 0.9 to 3.3 ms and all ten of the two reference
curves in 18 ms, while a whole perfbench set-up takes about 36 ms, so
compiling at ``make_context`` would show in set-up time; and a prototype
that compiled each curve's five steps as one unit raised peak RSS from
26.9 to 32.4 MB, where the two steps per curve that a ladder from a base
with nonzero first coordinate runs, compiled one by one, add about
0.25 MB.  Compiling does no field operation, so a counted window that
compiles counts only the steps.
The ladder keeps the invariant pair (kappa(mP), kappa((m+1)P)) whose
difference is the fixed base point, consuming scalar bits from the top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .algebra import QUADRATIC_MULS, CompiledForms, quadratic_monomials, quadratic_program
from .curve import CurveModel
from .errors import AllPivotsFailed, CrossCheckFailed, FormulaSetMissing, UnsupportedField, ZeroOutput
from .field import OpCounter
from .jacobian import working_model
from .kummer import KummerPoint, KummerQuartic, quartic_from_curve, zero_class_point
from .synthesis import FormulaSet, fingerprint, oracle_draws

# per pivot j: the key of B_jj, then the key of B_ij for each i != j
_PIVOT_FORMS = [
    [(j + 1, j + 1)] + [(min(i, j) + 1, max(i, j) + 1) for i in range(4) if i != j]
    for j in range(4)
]

# the products of xadd outside the forms: z_j B_jj, then z_j B_ij and
# B_jj z_i per i != j
_COMBINE_MULS = 7

# the value names of a compiled step: the quadratic monomials of x and y,
# the coordinates of the difference z, the values b of the pivot's four
# forms, and the result w with its quadratic monomials u
_QX, _QY, _U = ([f"{v}{a}" for a in range(10)] for v in "xyu")
_Z, _B, _W = ([f"{v}{i}" for i in range(4)] for v in "zbw")


@dataclass
class LadderContext:
    """A curve, its quartic, its formula set and the formula set compiled
    for evaluation, with the ladder steps compiled from it on first use."""

    curve: CurveModel
    quartic: KummerQuartic
    formulas: FormulaSet
    forms: CompiledForms = field(init=False, repr=False)
    # xdbl under the key None, xadd under its pivot
    steps: dict = field(init=False, repr=False, default_factory=dict)

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


def _made(F, coords: tuple, quad: list) -> _Prepared:
    """The point a compiled step returns, which has checked that its four
    coordinates are not all zero, with their monomials."""
    point = object.__new__(_Prepared)
    point.field, point.coords, point.quad = F, coords, quad
    return point


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


def _compile_step(ctx: LadderContext, pivot):
    """``xdbl`` (pivot None) or ``xadd`` under ``pivot`` as one function of
    straight-line field code, ``step(qx)`` or ``step(qx, qy, zc)``, that
    returns the result with its monomials or raises when it vanishes."""
    F, forms = ctx.curve.field, ctx.forms
    if pivot is None:
        name, args = "xdbl", {"qx": _QX}
        program = forms.quartic_program(_QX, _W)
        error, message = ZeroOutput, "all duplication quartics vanished on a surface point"
    else:
        name, args = f"xadd_pivot{pivot}", {"qx": _QX, "qy": _QY, "zc": _Z}
        others = [i for i in range(4) if i != pivot]
        zj, bjj = _Z[pivot], _B[0]
        # w~_j = z_j B_jj, w~_i = z_j B_ij - B_jj z_i
        program = forms.biquadratic_program(_PIVOT_FORMS[pivot], _QX, _QY, _B) + [(_W[pivot], [(1, zj, bjj)])] + [
            (_W[i], [(1, zj, bij), (-1, bjj, _Z[i])]) for i, bij in zip(others, _B[1:])
        ]
        error, message = AllPivotsFailed, "pseudo-addition produced zero, which it then does under every pivot"
    program += quadratic_program(_W, _U)
    namespace = {"made": _made, "F": F, "Error": error}
    lines = [
        f"def {name}({', '.join(args)}):",
        *(f"{', '.join(names)} = {arg}" for arg, names in args.items()),
        *F.straight_line(program, namespace),
        # a raw zero is falsy in every field kind
        f"if not ({' or '.join(_W)}): raise Error({message!r})",
        f"return made(F, ({', '.join(_W)}), [{', '.join(_U)}])",
    ]
    exec(compile("\n    ".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _step(ctx: LadderContext, pivot):
    """The compiled ``xdbl`` (pivot None) or ``xadd`` under ``pivot``,
    compiled on its first use."""
    step = ctx.steps.get(pivot)
    if step is None:
        step = ctx.steps[pivot] = _compile_step(ctx, pivot)
    return step


def xdbl(ctx: LadderContext, x: KummerPoint) -> KummerPoint:
    return _step(ctx, None)(_quad(ctx.curve.field, x))


def xadd(ctx: LadderContext, x: KummerPoint, y: KummerPoint, z: KummerPoint) -> KummerPoint:
    """kappa(P+Q) from kappa(P), kappa(Q) and the difference kappa(P-Q)."""
    F = ctx.curve.field
    zc, j = z.coords, 0
    while zc[j] == F.zero:
        j += 1
    return _step(ctx, j)(_quad(F, x), _quad(F, y), zc)


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
    per_step = {}
    for k in ("mul", "sqr", "inv"):
        per_step[k], rest = divmod(ladder_counts[k] - dbl_counts[k], steps)
        if rest:
            raise CrossCheckFailed(f"the {k} count is not the same on every ladder step")
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
