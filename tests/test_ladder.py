import ast
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from g2kummer.algebra import QUADRATIC_MULS, CompiledForms, Poly, expand_symmetric, quadratic_monomials, roots
from g2kummer.curve import (
    CurveModel,
    CurvePoint,
    MumfordDivisor,
    normal_form_curve,
    pair_from_points,
    sample_point,
    validate,
)
from g2kummer.errors import AllPivotsFailed, FormulaSetMissing, UnsupportedDivisor, ZeroOutput
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
from g2kummer.ladder import (
    _PIVOT_FORMS,
    _step,
    _working,
    bench,
    ladder,
    make_context,
    xadd,
    xadd_muls,
    xdbl,
    xdbl_muls,
)
from g2kummer.synthesis import (
    BQF_INDEX_PAIRS,
    deserialize_formula_set,
    oracle_draws,
    synthesize_formula_set,
    synthesize_w_char2,
)

from .helpers import checked_ladder, eval_biquadratic, eval_quartic, interpreted_pseudo_sum, scalar_mul, xadd_every_pivot

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
    """fn()'s result and the field operations it counted."""
    from g2kummer import field as field_mod
    from g2kummer.field import OpCounter

    ctr = OpCounter()
    field_mod.Field.counter = ctr
    try:
        out = fn()
    finally:
        field_mod.Field.counter = None
    return out, ctr.snapshot()


def _muls(fn):
    return _counted(fn)[1]["mul"]


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


# one ladder step, xdbl plus xadd under the first pivot, on the working
# models of the reference formula sets
STEP_MULS = {"m61_h2_f5": 317, "c2_general_f": 201}

# the products of the boundary of a public xdbl or xadd: each 4x4 map in or
# out is one dot product of four terms per coordinate
MAP_MULS = 16


@pytest.mark.parametrize("name", sorted(STEP_MULS))
def test_static_op_counts_match_counted_muls(name):
    fs = deserialize_formula_set((REFERENCE / f"{name}.kfs").read_text())
    c = fs.curve
    F = c.field
    fast = make_context(c, fs)
    wm = working_model(c)
    x = _kappa(c, wm, random_divisor(wm, random.Random(215)))
    # the compiled steps on x's working coordinates, with x as difference:
    # it has no zero coordinate there, so every pivot applies
    dbl = _step(fast, None)
    zc = fast.into.apply(x.coords)
    assert all(v != F.zero for v in zc)
    qx = quadratic_monomials(F, zc)
    qx2 = dbl(qx)[1]
    assert _muls(lambda: dbl(qx)) == xdbl_muls(fast)
    for j in range(4):
        assert _muls(lambda: _step(fast, j)(qx, qx2, zc)) == xadd_muls(fast, j)
    # the public xdbl maps in, makes the monomials, runs the step and maps out
    first = _muls(lambda: xdbl(fast, x))
    assert first == MAP_MULS + QUADRATIC_MULS + xdbl_muls(fast) + MAP_MULS
    n = (1 << 40) | 0b1101
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
    """A context on a reference formula set, with its working-model forms."""
    fs = deserialize_formula_set((REFERENCE / f"{name}.kfs").read_text())
    return _working(make_context(fs.curve, fs))


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
            (j, lambda j=j: interpreted_pseudo_sum(ctx.forms, j, qx, qy, z), (qx, qy, z), AllPivotsFailed, xadd_muls(ctx, j))
            for j in range(4)
            if z[j] != F.zero
        ]
        for pivot, interpreted, args, error, muls in steps:
            seen.add(pivot)
            want, counted = _counted(interpreted)
            assert counted["mul"] + QUADRATIC_MULS == muls
            step = _step(ctx, pivot)
            if all(v == F.zero for v in want):
                with pytest.raises(error):
                    step(*args)
                continue
            (coords, quad), counted = _counted(lambda: step(*args))
            assert counted["mul"] == muls
            assert coords == tuple(want)
            assert quad == quadratic_monomials(F, want)
    assert seen == {None, 0, 1, 2, 3}


def test_tabled_straight_line_tests_no_factor_and_reads_each_log_once():
    # over GF(2^16) every product is one exp read, zero factors included:
    # no statement holds a conditional expression, and each value's log is
    # read once
    ctx = _reference_context("c2_general_f")
    F, forms = ctx.curve.field, ctx.forms
    qx, qy, out = ([f"{v}{a}" for a in range(10)] for v in "xyo")
    for program in (forms.quartic_program(qx, out), forms.biquadratic_program(_PIVOT_FORMS[0], qx, qy, out)):
        lines = F.straight_line(program, {})
        assert not any(isinstance(node, ast.IfExp) for line in lines for node in ast.walk(ast.parse(line)))
        logged = Counter(re.findall(r"_log\[(\w+)\]", "\n".join(lines)))
        values = {v for _t, terms in program for _s, a, b in terms for v in (a, b) if isinstance(v, str)}
        assert set(logged) == values and set(logged.values()) == {1}


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
    # the log/exp arrays are the field module's cache; a context holding them,
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
    # set-up builds, compiles and counts nothing; the first step a context
    # runs builds its working-model forms with the field counter set aside,
    # and each step is compiled on its first use, on its own: a ladder
    # compiles the two it runs
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(sys.modules["g2kummer.ladder"], "compile", counting_compile, raising=False)
    fs = deserialize_formula_set((REFERENCE / "c2_general_f.kfs").read_text())
    c = fs.curve
    ctx, counted = _counted(lambda: make_context(c, fs))
    assert counted == {"mul": 0, "sqr": 0, "inv": 0}
    assert compiled == [] and ctx.steps == {} and ctx.forms is None
    wm = working_model(c)
    x = _kappa(c, wm, random_divisor(wm, random.Random(220)))
    n = 12345
    _out, counted = _counted(lambda: ladder(ctx, x, n))
    assert ctx.into.apply(x.coords)[0] != c.field.zero
    assert compiled == ["<xdbl>", "<xadd_pivot0>"]
    # the first ladder's window counts one public xdbl and the steps, and
    # none of the build's products or inversions
    first = _muls(lambda: xdbl(ctx, x))
    step = xdbl_muls(ctx) + xadd_muls(ctx, 0)
    assert counted == {"mul": first + (n.bit_length() - 1) * step, "sqr": 0, "inv": 0}
    ladder(ctx, x, 54321)
    assert compiled == ["<xdbl>", "<xadd_pivot0>"]


def _user_model_reference(fs):
    """xdbl, xadd and the ladder's chain on the curve's own model, by the
    interpreted evaluators (``eval_quartic``, and ``interpreted_pseudo_sum``
    under the first nonzero coordinate of the difference there), on raw
    coordinates: the reference of the working-model steps after the map
    back.  A vanishing step gives zeros, which every later step keeps."""
    F = fs.curve.field
    forms = CompiledForms(F, (), fs.bqf)

    def dbl(x):
        return tuple(eval_quartic(F, d, x) for d in fs.delta)

    def add(x, y, z):
        j = next(i for i, v in enumerate(z) if v != F.zero)
        return tuple(interpreted_pseudo_sum(forms, j, quadratic_monomials(F, x), quadratic_monomials(F, y), z))

    def chain(x, n):
        r0, r1 = x, dbl(x)
        for bit in bin(n)[3:]:
            r0, r1 = (add(r0, r1, x), dbl(r1)) if bit == "1" else (dbl(r0), add(r0, r1, x))
        return r0

    return dbl, add, chain


def _agrees(F, run, want):
    """run() normalized equals the raw coordinates ``want`` normalized, or
    raises a step's vanishing error when ``want`` is zero."""
    if all(v == F.zero for v in want):
        with pytest.raises((ZeroOutput, AllPivotsFailed)):
            run()
        return
    assert run().normalized() == KummerPoint(F, want).normalized()


def _curve_points_kappa(c, rng):
    """kappa of the class of two sampled affine points, on c alone (no
    working model), redrawn while the pair has no Kummer image."""
    while True:
        try:
            return kummer_coords(c, pair_from_points(c, sample_point(c, rng), sample_point(c, rng))).normalized()
        except UnsupportedDivisor:
            continue


def _tiny_binary_case(m, mod, seed):
    """The formula set of a curve over GF(2^m) (m < 13, synthesized on its
    lift) with h3 != 0, the first drawn whose h has a rational root (a
    working model over the field) or, with ``seed`` negative, none (the
    curve's own model)."""
    F = BinaryField(m, mod)
    rng = random.Random(abs(seed))
    while True:
        h = Poly(F, [F.random(rng) for _ in range(3)] + [F.one])
        c = CurveModel(F, Poly(F, [F.random(rng) for _ in range(7)]), h)
        if bool(roots(h)) == (seed >= 0) and validate(c).ok:
            return synthesize_formula_set(c, rng)


EQUIVALENCE_CASES = {
    "gf8_rooted_h": lambda: _tiny_binary_case(3, 0b1011, 221),
    "gf32_no_weierstrass_point": lambda: _tiny_binary_case(5, 0b100101, -222),
    "rational_small": lambda: deserialize_formula_set((REFERENCE / "rational_small.kfs").read_text()),
}


@pytest.mark.parametrize("name", ["m61_h2_f5", "c2_general_f"])
def test_working_model_ladder_equals_the_user_model_reference(name):
    fs = deserialize_formula_set((REFERENCE / f"{name}.kfs").read_text())
    c, F = fs.curve, fs.curve.field
    ctx = make_context(c, fs)
    ref_dbl, ref_add, ref_ladder = _user_model_reference(fs)
    wm = working_model(c)
    rng = random.Random(223)
    x = _kappa(c, wm, random_divisor(wm, rng))
    _agrees(F, lambda: xdbl(ctx, x), ref_dbl(x.coords))
    # 2P + P from the difference P
    x2 = xdbl(ctx, x)
    _agrees(F, lambda: xadd(ctx, x2, x, x), ref_add(x2.coords, x.coords, x.coords))
    for _ in range(16):
        n = rng.getrandbits(256) | (1 << 255)
        _agrees(F, lambda: ladder(ctx, x, n), ref_ladder(x.coords, n))


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_small_field_and_rational_ladders_equal_the_user_model_reference(case):
    fs = EQUIVALENCE_CASES[case]()
    c, F = fs.curve, fs.curve.field
    ctx = make_context(c, fs)
    ref_dbl, ref_add, ref_ladder = _user_model_reference(fs)
    rng = random.Random(224)
    ((x,),) = oracle_draws(working_model(c), rng, 1) if F.order() is None else [(_curve_points_kappa(c, rng),)]
    _agrees(F, lambda: xdbl(ctx, x), ref_dbl(x.coords))
    x2 = xdbl(ctx, x)
    _agrees(F, lambda: xadd(ctx, x2, x, x), ref_add(x2.coords, x.coords, x.coords))
    for n in range(2, 21 if F.order() is None else 64):
        _agrees(F, lambda: ladder(ctx, x, n), ref_ladder(x.coords, n))


def _double_of_x0(c):
    """The class of twice an affine point with x = 0 on c, as Mumford data on
    c: a = x^2, so kappa has k2 = k3 = 0."""
    zero = c.field.zero
    (y, *_rest) = c.field.quad_solve(c.h(zero), c.f(zero))
    return pair_from_points(c, CurvePoint("affine", x=zero, y=y), CurvePoint("affine", x=zero, y=y))


def test_bases_with_different_pivots_on_the_two_models():
    # on c2_general_f the link swaps k1 and k3, so a first coordinate that
    # vanishes on one model need not vanish on the other: the two models
    # then run xadd under different pivots, and the results still agree
    fs = deserialize_formula_set((REFERENCE / "c2_general_f.kfs").read_text())
    c, F = fs.curve, fs.curve.field
    ctx = _working(make_context(c, fs))
    _ref_dbl, ref_add, ref_ladder = _user_model_reference(fs)
    wm = working_model(c)
    rng = random.Random(225)

    def pivot(v):
        return next(i for i, a in enumerate(v) if a != F.zero)

    # a generic class, a class with k1 = 0 on the curve's own model, one with
    # k1 = 0 and one with k2 = k3 = 0 on the working model, and the zero
    # class; the working model has no class with k1 = k2 = 0 but zero, so
    # pivot 2 shows on the curve's own model only
    model_point = sample_point(wm.model, rng)
    classes = [
        random_divisor(wm, rng),
        _infinite_class(c, wm, rng),
        MumfordDivisor(Poly(F, [F.neg(model_point.x), F.one]), Poly.const(F, model_point.y)),
        _double_of_x0(wm.model),
        wm.zero(),
    ]
    pivots = set()
    for D in classes:
        # kappa(D) from the working model's coordinates: twice its point at
        # x = 0 is twice a point at infinity of c, which to_point_pair does
        # not send
        z = KummerPoint(F, ctx.out.apply(kummer_coords(wm.model, D).coords))
        assert on_surface(ctx.quartic, z)
        P = random_divisor(wm, rng)
        Q = add(wm, P, negate(wm, D))
        x, y = _kappa(c, wm, P), _kappa(c, wm, Q)
        pivots.add((pivot(z.coords), pivot(ctx.into.apply(z.coords))))
        _agrees(F, lambda: xadd(ctx, x, y, z), ref_add(x.coords, y.coords, z.coords))
        assert xadd(ctx, x, y, z).proportional(_kappa(c, wm, add(wm, P, Q)))
        if D != wm.zero():
            for n in (2, 3, 1000003, rng.getrandbits(64) | (1 << 63)):
                _agrees(F, lambda: ladder(ctx, z, n), ref_ladder(z.coords, n))
    assert pivots == {(0, 0), (1, 0), (0, 1), (2, 0), (3, 3)}
