import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from g2kummer.algebra import QUADRATIC_MULS, CompiledForms, Poly, eval_quartic, expand_symmetric, quadratic_monomials
from g2kummer.curve import CurveModel, CurvePoint, normal_form_curve, pair_from_points, sample_point
from g2kummer.errors import AllPivotsFailed, FormulaSetMissing, ZeroOutput
from g2kummer.field import BinaryField, PrimeField, RationalField
from g2kummer.jacobian import (
    add,
    from_point_pair,
    negate,
    random_divisor,
    to_point_pair,
    working_model,
)
from g2kummer.kummer import (
    KummerPoint,
    kummer_coords,
    on_surface,
    quartic_from_curve,
    two_torsion_classes,
    zero_class_point,
)
from g2kummer.ladder import _step, bench, ladder, make_context, xadd, xadd_muls, xdbl, xdbl_muls
from g2kummer.synthesis import BQF_INDEX_PAIRS, deserialize_formula_set, synthesize_formula_set, synthesize_w_char2

from .helpers import checked_ladder, eval_biquadratic, interpreted_pseudo_sum, scalar_mul, xadd_every_pivot

F1009 = PrimeField(1009)
B16 = BinaryField(16, 0x1002B)

CURVE = CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1]))


@pytest.fixture(scope="module")
def ctx():
    fs = synthesize_formula_set(CURVE, random.Random(200))
    return make_context(CURVE, fs)


@pytest.fixture(scope="module")
def wm():
    return working_model(CURVE)


def kap(wm, D):
    return kummer_coords(CURVE, to_point_pair(wm, D)).normalized()


def test_fingerprint_mismatch_rejected(ctx):
    other = CurveModel(F1009, Poly.from_ints(F1009, [2, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1]))
    with pytest.raises(FormulaSetMissing):
        make_context(other, ctx.formulas)


def test_xdbl_special_points(ctx, wm):
    z = zero_class_point(F1009)
    assert xdbl(ctx, z).proportional(z)
    rng = random.Random(201)
    for _ in range(100):
        D = random_divisor(wm, rng)
        x = kap(wm, D)
        expect = kap(wm, add(wm, D, D))
        assert xdbl(ctx, x).proportional(expect)


def test_xdbl_kills_two_torsion():
    F = F1009
    h = Poly.from_ints(F, [0, 1])
    g = Poly.from_ints(F, [-1, 0, 1]) * Poly.from_ints(F, [-2, 1]) * Poly.from_ints(F, [-3, 1]) * Poly.from_ints(F, [-5, 1])
    f = (g - h * h).scale(F.inv(F.from_int(4)))
    c = CurveModel(F, f, h)
    fs = synthesize_formula_set(c, random.Random(202))
    cctx = make_context(c, fs)
    for T in two_torsion_classes(c)[:4]:
        img = xdbl(cctx, T.kummer)
        assert img.proportional(zero_class_point(F))


def test_xadd_degenerate_arguments(ctx, wm):
    rng = random.Random(203)
    z = zero_class_point(F1009)
    for _ in range(50):
        D = random_divisor(wm, rng)
        x = kap(wm, D)
        # difference kappa(0): P = Q, so the sum is a doubling
        assert xadd(ctx, x, x, z).proportional(xdbl(ctx, x))
        # Q = 0: P + 0 = P (difference is P itself)
        assert xadd(ctx, x, z, x).proportional(x)


def test_xadd_oracle_triples(ctx, wm):
    rng = random.Random(204)
    from g2kummer.jacobian import negate

    for _ in range(200):
        P, Q = random_divisor(wm, rng), random_divisor(wm, rng)
        x, y = kap(wm, P), kap(wm, Q)
        w = kap(wm, add(wm, P, Q))
        z = kap(wm, add(wm, P, negate(wm, Q)))
        assert xadd(ctx, x, y, z).proportional(w)
        assert xadd_every_pivot(ctx, x, y, z).proportional(w)


def test_ladder_small_scalars(ctx, wm):
    rng = random.Random(205)
    D = random_divisor(wm, rng)
    x = kap(wm, D)
    assert ladder(ctx, x, 0).proportional(zero_class_point(F1009))
    assert ladder(ctx, x, 1).proportional(x)
    assert ladder(ctx, x, 2).proportional(xdbl(ctx, x))


def test_ladder_vs_oracle(ctx, wm):
    rng = random.Random(206)
    for _ in range(25):
        D = random_divisor(wm, rng)
        n = rng.randrange(1, 1 << 30)
        x = kap(wm, D)
        expect = kap(wm, scalar_mul(wm, D, n))
        assert ladder(ctx, x, n).proportional(expect)


def test_ladder_chain_consistency(ctx, wm):
    rng = random.Random(207)
    D = random_divisor(wm, rng)
    x = kap(wm, D)
    for _ in range(50):
        m, n = rng.randrange(1, 1 << 12), rng.randrange(1, 1 << 12)
        km, kn = ladder(ctx, x, m), ladder(ctx, x, n)
        kd = ladder(ctx, x, abs(m - n)) if m != n else zero_class_point(F1009)
        assert xadd(ctx, km, kn, kd).proportional(ladder(ctx, x, m + n))


def test_char2_translation_compatible_with_doubling():
    c = normal_form_curve(B16, "c", 3, 7, 11)
    fs = synthesize_formula_set(c, random.Random(208))
    cctx = make_context(c, fs)
    wmc = working_model(c)
    rng = random.Random(209)
    classes = two_torsion_classes(c)
    assert classes
    for T in classes:
        W = synthesize_w_char2(c, T, fs.bqf)
        for _ in range(30):
            D = random_divisor(wmc, rng)
            x = kummer_coords(c, to_point_pair(wmc, D)).normalized()
            wx = KummerPoint(B16, W.apply(list(x.coords)))
            assert xdbl(cctx, wx).proportional(xdbl(cctx, x))


def test_surface_invariant_in_debug_mode(ctx, wm):
    # checked_ladder asserts that every point of the chain is on the surface
    rng = random.Random(210)
    D = random_divisor(wm, rng)
    x = kap(wm, D)
    q = quartic_from_curve(CURVE)
    out = ladder(ctx, x, 12345)
    assert on_surface(q, out)
    assert out.proportional(checked_ladder(ctx, x, 12345))


def test_bench_deterministic_counts(ctx):
    rep1 = bench(ctx, random.Random(1), trials=1, bits=24)
    rep2 = bench(ctx, random.Random(2), trials=1, bits=24)
    assert rep1["xdbl"] == rep2["xdbl"]
    assert rep1["xadd"] == rep2["xadd"]
    assert rep1["ladder_total"] == rep2["ladder_total"]
    assert rep1["inversions_per_step"] == 0
    assert rep1["ladder_total"]["inv"] == 0
    # exact: (ladder - first doubling) divides evenly over the steps
    assert all(isinstance(v, int) for v in rep1["per_step"].values())
    # one step is one doubling plus one differential addition; the ladder's
    # first doubling is not spread over the steps
    assert rep1["per_step"] == {k: rep1["xdbl"][k] + rep1["xadd"][k] for k in ("mul", "sqr", "inv")}


def test_bench_counts_independent_of_bit_pattern():
    # one doubling and one differential addition per bit, whatever the scalar
    fs = synthesize_formula_set(CURVE, random.Random(200))
    fast = make_context(CURVE, fs)
    from g2kummer import field as field_mod
    from g2kummer.field import OpCounter
    from g2kummer.jacobian import working_model as wmf

    wm = wmf(CURVE)
    rng = random.Random(212)
    x = kummer_coords(CURVE, to_point_pair(wm, random_divisor(wm, rng))).normalized()
    n = 0b1011011101010011
    rev = int(bin(n)[2:][::-1], 2)
    counts = []
    for scalar in (n, rev | (1 << (n.bit_length() - 1))):
        ctr = OpCounter()
        field_mod.Field.counter = ctr
        try:
            ladder(fast, x, scalar)
        finally:
            field_mod.Field.counter = None
        counts.append((ctr.mul, ctr.inv, scalar.bit_length()))
    assert counts[0][2] == counts[1][2]
    assert counts[0][0] == counts[1][0]
    assert counts[0][1] == counts[1][1] == 0


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
M61_FORMULAS = REFERENCE / "m61_h2_f5.kfs"


def _counted(fn):
    """fn()'s result and the multiplications it counted."""
    from g2kummer import field as field_mod
    from g2kummer.field import OpCounter

    ctr = OpCounter()
    field_mod.Field.counter = ctr
    try:
        out = fn()
    finally:
        field_mod.Field.counter = None
    return out, ctr.mul


def _muls(fn):
    return _counted(fn)[1]


def test_evaluation_cost_depends_only_on_the_form():
    fs = deserialize_formula_set(M61_FORMULAS.read_text())
    c = fs.curve
    F = c.field
    fast = make_context(c, fs)
    wm = working_model(c)
    rng = random.Random(213)
    x = kummer_coords(c, to_point_pair(wm, random_divisor(wm, rng))).normalized()
    y = kummer_coords(c, to_point_pair(wm, random_divisor(wm, rng))).normalized()
    assert all(v != F.zero for v in x.coords + y.coords)
    zero = zero_class_point(F)

    def delta_cost(k):
        return _muls(lambda: [eval_quartic(F, d, k.coords) for d in fs.delta])

    def bqf_cost(a, b):
        return _muls(lambda: [eval_biquadratic(F, fs.bqf[p], a.coords, b.coords) for p in BQF_INDEX_PAIRS])

    assert delta_cost(zero) == delta_cost(x)
    assert bqf_cost(zero, zero) == bqf_cost(zero, y) == bqf_cost(x, y)
    assert _muls(lambda: xdbl(fast, zero)) == _muls(lambda: xdbl(fast, x))
    assert _muls(lambda: xadd(fast, x, zero, x)) == _muls(lambda: xadd(fast, x, y, x))


def test_ladder_step_cost_on_m61():
    # one ladder step costs no more than one xdbl (393) plus one xadd (605)
    # did when the evaluators skipped zero monomial values
    fs = deserialize_formula_set(M61_FORMULAS.read_text())
    c = fs.curve
    fast = make_context(c, fs)
    wm = working_model(c)
    x = kummer_coords(c, to_point_pair(wm, random_divisor(wm, random.Random(214)))).normalized()
    n = (1 << 40) | 0b1011
    first = _muls(lambda: xdbl(fast, x))
    total = _muls(lambda: ladder(fast, x, n))
    per_step, rest = divmod(total - first, n.bit_length() - 1)
    assert rest == 0
    assert per_step <= 393 + 605


def _kappa(c, wm, D):
    return kummer_coords(c, to_point_pair(wm, D)).normalized()


# one ladder step, xdbl plus xadd under the first pivot, on the reference
# formula sets
STEP_MULS = {"m61_h2_f5": 327, "c2_general_f": 257}


@pytest.mark.parametrize("name", sorted(STEP_MULS))
def test_static_op_counts_match_counted_muls(name):
    fs = deserialize_formula_set((REFERENCE / f"{name}.kfs").read_text())
    c = fs.curve
    fast = make_context(c, fs)
    wm = working_model(c)
    x = _kappa(c, wm, random_divisor(wm, random.Random(215)))
    assert x.coords[0] != c.field.zero
    x2 = xdbl(fast, x)  # made by the ladder's operations: carries its monomials
    x3 = xadd(fast, x2, x, x)
    assert _muls(lambda: xdbl(fast, x2)) == xdbl_muls(fast)
    assert _muls(lambda: xadd(fast, x2, x3, x)) == xadd_muls(fast, 0)
    # the zero class as difference puts the pivot on the last coordinate
    assert _muls(lambda: xadd(fast, x2, x2, zero_class_point(c.field))) == xadd_muls(fast, 3)
    # every pivot, through the compiled step that xadd_every_pivot runs,
    # which makes the result's monomials: x as difference has no zero
    # coordinate
    assert all(v != c.field.zero for v in x.coords)
    qx, qy = x2.quad, x3.quad
    for j in range(4):
        assert _muls(lambda: _step(fast, j)(qx, qy, x.coords)) == xadd_muls(fast, j)
    # a point from outside has its monomials computed on every use
    assert _muls(lambda: xdbl(fast, x)) == xdbl_muls(fast) + QUADRATIC_MULS
    n = (1 << 40) | 0b1101
    first = _muls(lambda: xdbl(fast, x))
    total = _muls(lambda: ladder(fast, x, n))
    step = xdbl_muls(fast) + xadd_muls(fast, 0)
    assert total - first == (n.bit_length() - 1) * step
    assert step == STEP_MULS[name]


def _nonzero(F, rng):
    while True:
        v = F.random(rng) if F.order() else Fraction(rng.randrange(-20, 21), rng.randrange(1, 10))
        if v != F.zero:
            return v


def _random_forms_context(F, rng):
    """A stand-in ladder context over F with random duplication quartics and
    random symmetric biquadratic forms, about one coefficient in three
    nonzero: the steps and their counts read only the field, the compiled
    forms and the step cache."""

    def sparse(size):
        return [_nonzero(F, rng) if rng.random() < 1 / 3 else F.zero for _ in range(size)]

    forms = CompiledForms(F, [sparse(35) for _ in range(4)], {key: expand_symmetric(F, sparse(55)) for key in BQF_INDEX_PAIRS})
    return SimpleNamespace(curve=SimpleNamespace(field=F), forms=forms, steps={})


def _reference_context(name):
    fs = deserialize_formula_set((REFERENCE / f"{name}.kfs").read_text())
    return make_context(fs.curve, fs)


# the field kinds of the emitted code: GF(p), tabled GF(2^m) on a reference
# formula set and on a small field, and the counted generic operations of
# GF(2^m) with m > 20 and of Q
STEP_CASES = {
    "prime61_reference": lambda _rng: _reference_context("m61_h2_f5"),
    "gf2_16_reference": lambda _rng: _reference_context("c2_general_f"),
    "gf2_4_random": lambda rng: _random_forms_context(BinaryField(4, 0x13), rng),
    "gf2_23_random": lambda rng: _random_forms_context(BinaryField(23, 0x800021), rng),
    "rational_random": lambda rng: _random_forms_context(RationalField(), rng),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_compiled_steps_match_the_interpreted_evaluators(case):
    rng = random.Random(218)
    ctx = STEP_CASES[case](rng)
    F = ctx.curve.field

    def quadruple():
        # each coordinate zero with probability 1/3, so monomials vanish too
        coords = [F.zero if rng.random() < 1 / 3 else _nonzero(F, rng) for _ in range(4)]
        if all(v == F.zero for v in coords):
            coords[rng.randrange(4)] = _nonzero(F, rng)
        return tuple(coords)

    seen = set()
    for trial in range(16):
        x, y = quadruple(), quadruple()
        z = zero_class_point(F).coords if trial == 0 else quadruple()
        qx, qy = quadratic_monomials(F, x), quadratic_monomials(F, y)
        steps = [(None, lambda: ctx.forms.quartic_values(qx), (qx,), ZeroOutput, xdbl_muls(ctx))] + [
            (j, lambda j=j: interpreted_pseudo_sum(ctx, j, qx, qy, z), (qx, qy, z), AllPivotsFailed, xadd_muls(ctx, j))
            for j in range(4)
            if z[j] != F.zero
        ]
        for pivot, interpreted, args, error, muls in steps:
            seen.add(pivot)
            want, counted = _counted(interpreted)
            assert counted + QUADRATIC_MULS == muls
            step = _step(ctx, pivot)
            if all(v == F.zero for v in want):
                with pytest.raises(error):
                    step(*args)
                continue
            got, counted = _counted(lambda: step(*args))
            assert counted == muls
            assert got.coords == tuple(want)
            assert got.quad == quadratic_monomials(F, want)
    assert seen == {None, 0, 1, 2, 3}


@pytest.fixture(scope="module", params=["p1009", "c2_general_f"])
def pivot_case(request, ctx):
    """Odd characteristic and GF(2^16): the curve, its working model and a
    ladder context."""
    if request.param == "p1009":
        return CURVE, working_model(CURVE), ctx
    fs = deserialize_formula_set((REFERENCE / "c2_general_f.kfs").read_text())
    return fs.curve, working_model(fs.curve), make_context(fs.curve, fs)


def _infinite_class(c, wm, rng):
    """A class with kappa_1 = 0: an affine point paired with a point at
    infinity of the curve's own model, which the solve's samples never hold."""
    inf = CurvePoint("infinity", branch=c.branch_values()[0])
    return from_point_pair(wm, pair_from_points(c, sample_point(c, rng), inf))


def test_xadd_off_the_first_pivot_matches_every_pivot_and_the_oracle(pivot_case):
    c, wm, fast = pivot_case
    F = c.field
    rng = random.Random(216)
    seen = set()
    for _ in range(20):
        P = random_divisor(wm, rng)
        for Z in (wm.zero(), _infinite_class(c, wm, rng)):
            Q = add(wm, P, negate(wm, Z))
            x, y, z = _kappa(c, wm, P), _kappa(c, wm, Q), _kappa(c, wm, Z)
            assert z.coords[0] == F.zero
            seen.add(next(j for j, v in enumerate(z.coords) if v != F.zero))
            out = xadd(fast, x, y, z)
            assert out.proportional(xadd_every_pivot(fast, x, y, z))
            assert out.proportional(_kappa(c, wm, add(wm, P, Q)))
    assert seen == {1, 3}


def test_ladder_from_a_base_with_zero_first_coordinate(pivot_case):
    c, wm, fast = pivot_case
    rng = random.Random(217)
    for _ in range(5):
        D = _infinite_class(c, wm, rng)
        x = _kappa(c, wm, D)
        assert x.coords[0] == c.field.zero
        n = rng.randrange(2, 1 << 24)
        out = ladder(fast, x, n)
        assert out.proportional(_kappa(c, wm, scalar_mul(wm, D, n)))
        assert out.proportional(checked_ladder(fast, x, n))


def _reachable_ids(root):
    """ids of the objects reachable from root through instance data,
    containers and the closures and defaults of functions, but not through
    classes, modules or a function's globals, which reach every
    module-level cache."""
    import gc
    import types

    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.BuiltinFunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.MethodType):
            todo.extend([obj.__self__, obj.__func__])
        elif isinstance(obj, types.FunctionType):
            todo.extend([*(obj.__closure__ or ()), obj.__defaults__, obj.__kwdefaults__])
        else:
            todo.extend(gc.get_referents(obj))
    return seen


def test_a_binary_context_keeps_no_reference_to_the_field_tables():
    # the log/exp lists are the field module's cache; a context holding them,
    # or a compiled step's globals, would keep every rebuilt copy alive
    fs = deserialize_formula_set((REFERENCE / "c2_general_f.kfs").read_text())
    c, F = fs.curve, fs.curve.field
    ctx = make_context(c, fs)
    wm = working_model(c)
    x = _kappa(c, wm, random_divisor(wm, random.Random(219)))
    ladder(ctx, x, 12345)
    xadd(ctx, x, x, zero_class_point(F))
    assert set(ctx.steps) == {None, 0, 3}
    tables = F._tables()
    reached = _reachable_ids([ctx, *(step.__globals__ for step in ctx.steps.values())])
    assert not {id(tables), id(tables[0]), id(tables[1])} & reached
    # the walk does find a table that an object or a closure holds
    assert id(tables[0]) in _reachable_ids([ctx, {"held": tables}])
    exp = tables[0]
    assert id(exp) in _reachable_ids(lambda i: exp[i])


def test_make_context_compiles_nothing(monkeypatch):
    # each step is compiled on its first use, on its own: set-up pays for
    # none, and a ladder for the two it runs
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(sys.modules["g2kummer.ladder"], "compile", counting_compile, raising=False)
    fs = deserialize_formula_set((REFERENCE / "c2_general_f.kfs").read_text())
    c = fs.curve
    ctx = make_context(c, fs)
    assert compiled == [] and ctx.steps == {}
    wm = working_model(c)
    x = _kappa(c, wm, random_divisor(wm, random.Random(220)))
    assert x.coords[0] != c.field.zero
    ladder(ctx, x, 12345)
    ladder(ctx, x, 54321)
    assert compiled == ["<xdbl>", "<xadd_pivot0>"]
