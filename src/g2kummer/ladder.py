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

The steps run on the odd-degree working model of the curve (deg f = 5,
h3 = 0), whose forms are sparser.  A context carries the formula set there:
B by ``synthesis.transport_forms`` with the Kummer matrix M of the link
(``curve.kummer_matrix``), and delta re-derived from that B on the model's
quartic (``synthesis._delta_solve``).  ``ladder`` maps its base in by M and
its result out by M^-1, once each; ``xdbl`` and ``xadd`` take and return
points on the curve's own model and map around one step.  A curve with no
rational Weierstrass point, which only a tiny binary field's lift can give
a formula set, runs on its own model (M = 1).  A map costs the same on
every point, so a ladder still counts its first doubling plus one fixed
cost per step.

The forms are compiled (``algebra.CompiledForms``) and evaluated from the
ten quadratic monomials of their arguments.  A step returns its result
with these monomials, so a ladder makes each point's monomials once and
its doubling and addition share them.  Each B_ij is symmetric in x and y,
so ``xadd`` forms the symmetric products s_ab = q_a(x) q_b(y) + q_b(x)
q_a(y) (q_a(x) q_a(y) for a = b) once over the union of its pivot's four
supports and reads each form off them.  On the reference formula sets a
ladder step costs 317 multiplications on ``m61_h2_f5`` (147 for ``xdbl``,
170 for ``xadd``) and 201 on ``c2_general_f`` (79 + 122), where the
curves' own models cost 327 (149 + 178) and 257 (81 + 176).

Each step is a fixed sequence of products and sums, run as one generated
Python function of straight-line code with every coefficient and index a
constant: the program comes from the compiled forms (``quartic_program``,
``biquadratic_program``, ``quadratic_program`` for the result's
monomials) and the field turns it into statements
(``Field.straight_line``): sums of unreduced products over GF(p), log/exp
reads over tabled GF(2^m) with the tables fetched on every call and never
held, and the counted ``mul`` and ``add`` over Q and GF(2^m) with m > 20.
A step does and counts the products the interpreted evaluators do, which
the tests use as its reference (``xdbl_muls``, ``xadd_muls``).  All of it
is built lazily: the working-model forms in the first step a context runs
(about 10 ms on ``c2_general_f``), and each step with its own ``compile``
on its first use (0.9 to 3.3 ms; a 2-vCPU Xeon under CPython 3.11).  A
perfbench set-up takes about 35 ms, so building in ``make_context`` would
show there, and compiling each curve's five steps as one unit raised peak
RSS from 26.9 to 32.4 MB in a prototype.  Set-up and the build run with
``Field.counter`` set aside and compiling does no field operation, so a
counted window counts only the steps and the maps.

The ladder keeps the invariant pair (kappa(mP), kappa((m+1)P)) whose
difference is the fixed base point, consuming scalar bits from the top.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .algebra import QUADRATIC_MULS, CompiledForms, Matrix, quadratic_monomials, quadratic_program
from .curve import CurveModel, kummer_matrix
from .errors import AllPivotsFailed, CrossCheckFailed, FormulaSetMissing, NoRationalWeierstrassPoint, UnsupportedField, ZeroOutput
from .field import Field, OpCounter
from .jacobian import working_model
from .kummer import KummerPoint, KummerQuartic, quartic_from_curve, zero_class_point
from .synthesis import FormulaSet, _delta_solve, fingerprint, oracle_draws, transport_forms

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
    """A curve, its quartic and its formula set; on first use (``_working``)
    also the Kummer matrix ``into`` of the link to the working model, its
    inverse ``out`` and the formula set carried there and compiled for
    evaluation (``forms``), with the ladder steps compiled from it."""

    curve: CurveModel
    quartic: KummerQuartic
    formulas: FormulaSet
    into: Matrix = field(init=False, repr=False, default=None)
    out: Matrix = field(init=False, repr=False, default=None)
    forms: CompiledForms = field(init=False, repr=False, default=None)
    # xdbl under the key None, xadd under its pivot
    steps: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.formulas.fingerprint != fingerprint(self.curve):
            raise FormulaSetMissing(
                "formula set fingerprint does not match the curve"
            )


@contextmanager
def _uncounted():
    """Set-up work, with the field counter set aside."""
    saved, Field.counter = Field.counter, None
    try:
        yield
    finally:
        Field.counter = saved


def make_context(curve: CurveModel, formulas: FormulaSet) -> LadderContext:
    with _uncounted():
        return LadderContext(curve, quartic_from_curve(curve), formulas)


def _working(ctx: LadderContext) -> LadderContext:
    """``ctx`` with its working-model data, built on first use."""
    if ctx.forms is None:
        c, F = ctx.curve, ctx.curve.field
        with _uncounted():
            try:
                wm = working_model(c)
                model, M = wm.model, kummer_matrix(c, wm.link)
            except NoRationalWeierstrassPoint:
                model, M = c, Matrix.identity(F, 4)
            bqf = transport_forms(F, ctx.formulas.bqf, M)
            ctx.forms = CompiledForms(F, _delta_solve(F, bqf, quartic_from_curve(model).vector), bqf)
            ctx.into, ctx.out = M, M.inverse()
    return ctx


def _pivot(F, zc) -> int:
    j = 0
    while zc[j] == F.zero:
        j += 1
    return j


def xdbl_muls(ctx: LadderContext) -> int:
    """Multiplications of one compiled ``xdbl`` step, from the sparsity of
    the working model's duplication quartics alone."""
    return _working(ctx).forms.quartic_muls() + QUADRATIC_MULS


def xadd_muls(ctx: LadderContext, pivot: int) -> int:
    """Multiplications of one compiled ``xadd`` step whose difference has
    its first nonzero working coordinate at ``pivot`` (0-based), from the
    sparsity of the working model's biquadratic forms alone: the symmetric
    products over the union of the pivot's four supports and one product
    per coefficient (``CompiledForms.biquadratic_muls``), the seven that
    combine the values, and the result's ten quadratic monomials."""
    return _working(ctx).forms.biquadratic_muls(_PIVOT_FORMS[pivot]) + _COMBINE_MULS + QUADRATIC_MULS


def _compile_step(ctx: LadderContext, pivot):
    """``xdbl`` (pivot None) or ``xadd`` under ``pivot`` as one function of
    straight-line field code, ``step(qx)`` or ``step(qx, qy, zc)``, that
    returns the result's coordinates and monomials or raises when it
    vanishes."""
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
    namespace = {"Error": error}
    lines = [
        f"def {name}({', '.join(args)}):",
        *(f"{', '.join(names)} = {arg}" for arg, names in args.items()),
        *F.straight_line(program, namespace),
        # a raw zero is falsy in every field kind
        f"if not ({' or '.join(_W)}): raise Error({message!r})",
        f"return ({', '.join(_W)}), [{', '.join(_U)}]",
    ]
    exec(compile("\n    ".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _step(ctx: LadderContext, pivot):
    """The compiled ``xdbl`` (pivot None) or ``xadd`` under ``pivot`` on
    working coordinates, compiled on its first use."""
    step = ctx.steps.get(pivot)
    if step is None:
        step = ctx.steps[pivot] = _compile_step(_working(ctx), pivot)
    return step


def _monomials_in(ctx: LadderContext, x: KummerPoint) -> list:
    return quadratic_monomials(ctx.curve.field, ctx.into.apply(x.coords))


def _out(ctx: LadderContext, coords) -> KummerPoint:
    return KummerPoint(ctx.curve.field, ctx.out.apply(coords))


def xdbl(ctx: LadderContext, x: KummerPoint) -> KummerPoint:
    step = _step(ctx, None)
    return _out(ctx, step(_monomials_in(ctx, x))[0])


def xadd(ctx: LadderContext, x: KummerPoint, y: KummerPoint, z: KummerPoint) -> KummerPoint:
    """kappa(P+Q) from kappa(P), kappa(Q) and the difference kappa(P-Q)."""
    zc = _working(ctx).into.apply(z.coords)
    step = _step(ctx, _pivot(ctx.curve.field, zc))
    return _out(ctx, step(_monomials_in(ctx, x), _monomials_in(ctx, y), zc)[0])


def ladder(ctx: LadderContext, x: KummerPoint, n: int) -> KummerPoint:
    """kappa(n P) from kappa(P) by a double-and-differential-add chain, run
    on working coordinates: (coordinates, monomials) pairs."""
    F = ctx.curve.field
    if n < 0:
        raise ValueError("nonnegative scalars only")
    if n == 0:
        return zero_class_point(F)
    if n == 1:
        return x
    dbl = _step(ctx, None)
    zc = ctx.into.apply(x.coords)
    add = _step(ctx, _pivot(F, zc))
    r0 = (zc, quadratic_monomials(F, zc))
    r1 = dbl(r0[1])
    for bit_pos in range(n.bit_length() - 2, -1, -1):
        if (n >> bit_pos) & 1:
            r0, r1 = add(r0[1], r1[1], zc), dbl(r1[1])
        else:
            r0, r1 = dbl(r0[1]), add(r0[1], r1[1], zc)
    return _out(ctx, r0[0])


def bench(ctx: LadderContext, rng, trials: int = 5, bits: int = 40) -> dict:
    """Exact multiplication counts per ladder step plus wall-clock timing.

    Counts are deterministic (the ladder performs one doubling and one
    differential addition per bit regardless of the bit pattern); squarings
    are executed as generic multiplications, so the squaring count tallies
    the explicit squaring calls only.  Inversions per step must be zero.
    ``xdbl`` and ``xadd`` are the compiled steps on working coordinates,
    the addition with the base as difference, as in the ladder; the
    ladder's first doubling, with the maps in and out, is not spread over
    the steps.  Over Q the ladder never rescales and kappa(nP) has about
    4.8 n^2 digits (see ``verify.RATIONAL_CHAIN_MAX_SUM``), so a
    ``bits``-bit ladder is out of reach there: UnsupportedField.
    """
    if trials < 1:
        raise ValueError(f"bench needs at least one timed trial, got {trials}")
    F = ctx.curve.field
    if F.order() is None:
        raise UnsupportedField(f"bench times {bits}-bit ladders, out of reach over the rationals")

    # a surface point to run on: kappa of a sampled class, with its working
    # coordinates and monomials, as the ladder holds its base
    ((x,),) = oracle_draws(working_model(ctx.curve), rng, 1)
    dbl = _step(ctx, None)
    zc = ctx.into.apply(x.coords)
    add = _step(ctx, _pivot(F, zc))
    qx = quadratic_monomials(F, zc)
    qx2, n = dbl(qx)[1], (1 << bits) | 1
    ctr = OpCounter()
    Field.counter = ctr
    try:
        dbl(qx)
        dbl_counts = ctr.snapshot()
        ctr.reset()
        add(qx, qx2, zc)
        add_counts = ctr.snapshot()
        ctr.reset()
        xdbl(ctx, x)
        first_counts = ctr.snapshot()
        ctr.reset()
        ladder(ctx, x, n)
        ladder_counts = ctr.snapshot()
    finally:
        Field.counter = None
    t0 = time.perf_counter()
    for _ in range(trials):
        ladder(ctx, x, n)
    elapsed = (time.perf_counter() - t0) / trials
    # the ladder is one initial doubling, then one xdbl + xadd per step
    steps = n.bit_length() - 1
    per_step = {}
    for k in ("mul", "sqr", "inv"):
        per_step[k], rest = divmod(ladder_counts[k] - first_counts[k], steps)
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
