import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kummer.algebra import BIQUADRATIC44, Matrix, Poly, QUARTIC4, solve_kernel
from g2kummer.corpus import default_corpus
from g2kummer.curve import CurveModel, kummer_matrix, normal_form_curve
from g2kummer.errors import (
    ExhaustedRetries,
    KernelDimensionUnexpected,
    NotInSubfield,
    SingularCurve,
    UnsupportedDivisor,
    UnsupportedField,
)
from g2kummer.field import BinaryField, PrimeField, RationalField
from g2kummer.jacobian import add, from_point_pair, negate, random_divisor, to_point_pair, working_model
from g2kummer.kummer import KummerPoint, kummer_coords, two_torsion_classes, zero_class_point
from g2kummer.synthesis import (
    BQF_INDEX_PAIRS,
    CONVENTION_TAG,
    DRAW_BOUND,
    FormulaSet,
    _descend,
    binary_embedding,
    binary_extension_of,
    bqf_values,
    crosscheck_b_conversion,
    crosscheck_tau_delta,
    deserialize_formula_set,
    duplication,
    fingerprint,
    oracle_draws,
    serialize_formula_set,
    synthesize_bqf,
    synthesize_delta,
    synthesize_formula_set,
    synthesize_w_char2,
    synthesize_w_oddchar,
    transport_forms,
)

from .helpers import printed_translation, simplified_families

F1009 = PrimeField(1009)
B16 = BinaryField(16, 0x1002B)

CURVE_1009 = CurveModel(
    F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1, 0, 1])
)

_DESIGNATED = QUARTIC4.index[(0, 2, 0, 2)]

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.fixture(scope="module")
def delta_1009(bqf_1009):
    return synthesize_delta(working_model(CURVE_1009), random.Random(100), bqf_1009)


@pytest.fixture(scope="module")
def bqf_1009():
    return synthesize_bqf(working_model(CURVE_1009), random.Random(101))


def test_delta_fixed_point_at_zero_class(delta_1009):
    z = zero_class_point(F1009)
    img = duplication(F1009, delta_1009)(z)
    assert img.proportional(z)


def test_delta_fresh_oracle_samples(delta_1009):
    wm = working_model(CURVE_1009)
    rng = random.Random(102)
    double = duplication(F1009, delta_1009)
    for _ in range(200):
        D = random_divisor(wm, rng)
        x = kummer_coords(CURVE_1009, to_point_pair(wm, D)).normalized()
        d2 = kummer_coords(CURVE_1009, to_point_pair(wm, add(wm, D, D))).normalized()
        assert double(x).proportional(d2)


def test_delta_canonicalization(delta_1009):
    # the designated monomial coefficient is zero in every coordinate and the
    # first nonzero coefficient of the concatenated vector is one
    for blk in delta_1009:
        assert blk[_DESIGNATED] == 0
    flat = [a for blk in delta_1009 for a in blk]
    first = next(a for a in flat if a != 0)
    assert first == 1


def test_bqf_insufficient_samples_raises():
    from g2kummer.synthesis import _bqf_samples, _bqf_solve

    data = _bqf_samples(working_model(CURVE_1009), random.Random(103), 20)
    with pytest.raises(KernelDimensionUnexpected):
        _bqf_solve(F1009, data)


def test_bqf_solve_needs_only_the_symmetric_columns():
    # 120 samples are short of the 199 a 200-column pair kernel needs but
    # enough for the 110 columns of the symmetric basis
    from g2kummer.synthesis import _bqf_samples, _bqf_solve

    data = _bqf_samples(working_model(CURVE_1009), random.Random(114), 300)
    assert _bqf_solve(F1009, data[:120]) == _bqf_solve(F1009, data)


@pytest.mark.parametrize("name", ["m61_h2_f5", "c2_general_f"])
def test_bqf_samples_pair_a_pool_of_classes(name, monkeypatch):
    # 130 samples from about 17 pooled classes, not 260 independent draws,
    # and the forms solved from them are the reference ones
    from g2kummer.corpus import default_corpus
    from g2kummer.synthesis import _bqf_samples, _bqf_solve

    c = dict(default_corpus())[name]
    wm = working_model(c)
    sample = wm.sample
    calls = []

    def counted(rng):
        calls.append(None)
        return sample(rng)

    monkeypatch.setattr(wm, "sample", counted)
    data = _bqf_samples(wm, random.Random(116), 130)
    assert len(data) == 130 and len(calls) <= 30
    fs = deserialize_formula_set((REFERENCE_DIR / f"{name}.kfs").read_text())
    assert _bqf_solve(c.field, data) == fs.bqf


@pytest.mark.parametrize("name", ["m61_h2_f5", "c2_general_f", "rational_small"])
def test_formula_set_matches_reference_file(name):
    # perfbench/make_reference.py writes the reference files with seed 7
    from g2kummer.corpus import default_corpus

    fs = synthesize_formula_set(dict(default_corpus())[name], random.Random(7))
    assert serialize_formula_set(fs) == (REFERENCE_DIR / f"{name}.kfs").read_text()


def test_formula_set_builds_one_working_model(monkeypatch):
    import g2kummer.synthesis as synthesis
    from g2kummer.corpus import default_corpus

    calls = []

    def counted(c):
        calls.append(c)
        return working_model(c)

    monkeypatch.setattr(synthesis, "working_model", counted)
    synthesize_formula_set(dict(default_corpus())["m61_h2_f5"], random.Random(115))
    assert len(calls) == 1
    # over Q each reduction prime builds its own, the curve itself one
    calls.clear()
    synthesize_formula_set(dict(default_corpus())["rational_small"], random.Random(7))
    assert sum(c.field.order() is None for c in calls) == 1


def test_rational_route_retries_a_failed_solve(monkeypatch):
    # a kernel check failing modulo the first reduction prime doubles the
    # samples there, as on the direct route, instead of ending synthesis
    import g2kummer.synthesis as synthesis

    solve, sizes = synthesis._bqf_solve, []

    def first_fails(F, data):
        sizes.append(len(data))
        if len(sizes) == 1:
            raise KernelDimensionUnexpected("injected")
        return solve(F, data)

    monkeypatch.setattr(synthesis, "_bqf_solve", first_fails)
    fs = synthesize_formula_set(dict(default_corpus())["rational_small"], random.Random(7))
    assert serialize_formula_set(fs) == (REFERENCE_DIR / "rational_small.kfs").read_text()
    assert sizes[:2] == [130, 260]


@pytest.mark.parametrize("name", ["m61_h2_f5", "c2_general_f", "rational_small"])
def test_delta_derivation_matches_reference_files(name):
    # the reference formula files were written when duplication still had a
    # linear solve of its own, independent of the biquadratic forms
    from g2kummer.kummer import quartic_from_curve
    from g2kummer.synthesis import _delta_solve

    fs = deserialize_formula_set((REFERENCE_DIR / f"{name}.kfs").read_text())
    assert _delta_solve(fs.curve.field, fs.bqf, quartic_from_curve(fs.curve).vector) == fs.delta


def test_oracle_draws_gives_up_after_bound(monkeypatch):
    wm = working_model(CURVE_1009)
    calls = []

    def sampler(rng):
        calls.append(None)
        return random_divisor(wm, rng)

    def unsupported(D):
        raise UnsupportedDivisor("every class is refused")

    monkeypatch.setattr(wm, "sample", sampler)
    draws = oracle_draws(wm, random.Random(112), 3, unsupported)
    with pytest.raises(ExhaustedRetries):
        list(draws)
    assert len(calls) == DRAW_BOUND * 3


def test_only_the_solve_samples_drop_k1_zero_classes(monkeypatch):
    # the zero class has kappa (0:0:0:1); the fresh checks must still see it
    from g2kummer.synthesis import _bqf_samples, _delta_samples

    wm = working_model(CURVE_1009)
    monkeypatch.setattr(wm, "sample", lambda _rng: wm.zero())
    pairs = _delta_samples(wm, random.Random(113), 2)
    assert [x.coords for x, _d in pairs] == [(0, 0, 0, 1)] * 2
    with pytest.raises(ExhaustedRetries):
        _bqf_samples(wm, random.Random(113), 2)


def test_bqf_identities_and_symmetry(bqf_1009):
    wm = working_model(CURVE_1009)
    rng = random.Random(104)
    F = F1009
    values = bqf_values(F, bqf_1009)
    for _ in range(100):
        P, Q = random_divisor(wm, rng), random_divisor(wm, rng)
        x = kummer_coords(CURVE_1009, to_point_pair(wm, P)).normalized()
        y = kummer_coords(CURVE_1009, to_point_pair(wm, Q)).normalized()
        w = kummer_coords(CURVE_1009, to_point_pair(wm, add(wm, P, Q))).normalized()
        z = kummer_coords(CURVE_1009, to_point_pair(wm, add(wm, P, negate(wm, Q)))).normalized()
        vals = values(x.coords, y.coords)
        lam = None
        for (i, j) in BQF_INDEX_PAIRS:
            a, b = i - 1, j - 1
            t = (
                F.mul(w.coords[a], z.coords[a])
                if i == j
                else F.add(F.mul(w.coords[a], z.coords[b]), F.mul(w.coords[b], z.coords[a]))
            )
            val = vals[(i, j)]
            if lam is None and t != 0:
                lam = F.div(val, t)
            if lam is not None:
                assert val == F.mul(lam, t)
    # argument-swap symmetry at the coefficient level
    for p, vec in bqf_1009.items():
        for idx, (ex, ey) in enumerate(BIQUADRATIC44.exponents):
            assert vec[idx] == vec[BIQUADRATIC44.index[(ey, ex)]]


def test_bqf_identity_anchor(bqf_1009):
    # with y = kappa(0): B_ii(x, y) proportional to x_i^2, B_ij to 2 x_i x_j
    wm = working_model(CURVE_1009)
    rng = random.Random(105)
    F = F1009
    zc = zero_class_point(F).coords
    values = bqf_values(F, bqf_1009)
    for _ in range(100):
        D = random_divisor(wm, rng)
        x = kummer_coords(CURVE_1009, to_point_pair(wm, D)).normalized().coords
        vals = values(x, zc)
        lam = None
        for (i, j) in BQF_INDEX_PAIRS:
            a, b = i - 1, j - 1
            t = F.mul(x[a], x[a]) if i == j else F.mul(F.from_int(2), F.mul(x[a], x[b]))
            val = vals[(i, j)]
            if lam is None and t != 0:
                lam = F.div(val, t)
            if lam is not None:
                assert val == F.mul(lam, t)


def test_bqf_normalization(bqf_1009):
    first = next(a for a in bqf_1009[(1, 1)] if a != 0)
    assert first == 1


def test_w_oddchar_properties():
    F = F1009
    h = Poly.from_ints(F, [0, 1])
    g = Poly.from_ints(F, [-1, 0, 1]) * Poly.from_ints(F, [-2, 1]) * Poly.from_ints(F, [-3, 1]) * Poly.from_ints(F, [-5, 1])
    f = (g - h * h).scale(F.inv(F.from_int(4)))
    c = CurveModel(F, f, h)
    rng = random.Random(106)
    wm = working_model(c)
    bqf = synthesize_bqf(wm, rng)
    classes = two_torsion_classes(c)
    assert len(classes) == 10
    for T in classes:
        W = synthesize_w_oddchar(c, T, bqf)
        W2 = W.mul(W)
        lam = W2.rows[0][0]
        assert lam != 0
        assert all(W2.rows[i][j] == (lam if i == j else 0) for i in range(4) for j in range(4))
        # W * kappa(0) is proportional to kappa(Q)
        img = KummerPoint(F, W.apply([0, 0, 0, 1]))
        assert img.proportional(T.kummer)
        DQ = from_point_pair(wm, T.divisor)
        for _ in range(100):
            D = random_divisor(wm, rng)
            kP = kummer_coords(c, to_point_pair(wm, D))
            kPQ = kummer_coords(c, to_point_pair(wm, add(wm, D, DQ)))
            assert KummerPoint(F, W.apply(list(kP.coords))).proportional(kPQ)


def _interpolated_w(c, T, rng, samples=24):
    """W from W kappa(P) ~ kappa(P + T) on oracle samples: the kernel of the
    cross-multiplied coordinates over the 16 entries, scaled so the first
    nonzero entry is one."""
    F = c.field
    wm = working_model(c)
    DQ = from_point_pair(wm, T.divisor)
    rows = []
    for kx, kd in oracle_draws(wm, rng, samples, lambda D: (D, add(wm, D, DQ))):
        x, d = kx.coords, kd.coords
        r = next(i for i in range(4) if d[i] != F.zero)
        for i in range(4):
            if i != r:
                row = [F.zero] * 16
                for k in range(4):
                    row[4 * i + k] = F.mul(x[k], d[r])
                    row[4 * r + k] = F.neg(F.mul(x[k], d[i]))
                rows.append(row)
    (v,) = solve_kernel(Matrix(F, rows))
    return Matrix(F, [v[4 * i : 4 * i + 4] for i in range(4)])


def test_w_oddchar_equals_the_oracle_interpolation(formula_cache):
    rng = random.Random(109)
    checked = 0
    for name in ("p1009_2tors", "m61_2tors"):
        c, fs = formula_cache.curve(name), formula_cache[name]
        stored = dict(fs.w)
        for T in two_torsion_classes(c):
            W = synthesize_w_oddchar(c, T, fs.bqf)
            assert W == stored[T.label] == _interpolated_w(c, T, rng), (name, T.label)
            checked += 1
    assert checked == 20


def test_w_oddchar_rejects_forms_without_a_pivot_and_characteristic_2(formula_cache):
    c = formula_cache.curve("p1009_2tors")
    T = two_torsion_classes(c)[0]
    zero_forms = {p: (0,) * BIQUADRATIC44.size for p in BQF_INDEX_PAIRS}
    with pytest.raises(KernelDimensionUnexpected):
        synthesize_w_oddchar(c, T, zero_forms)
    c2 = formula_cache.curve("c2_h3_split")
    with pytest.raises(UnsupportedField):
        synthesize_w_oddchar(c2, two_torsion_classes(c2)[0], {})


def _frobenius(c, bqf):
    """The curve and forms with every coefficient squared: the image of c
    and of its biquadratic forms under the Frobenius automorphism, which
    keeps every identity the forms satisfy."""
    F = c.field
    sq = lambda p: Poly(F, [F.sqr(p[i]) for i in range(p.degree + 1)])
    return CurveModel(F, sq(c.f), sq(c.h)), {k: tuple(map(F.sqr, v)) for k, v in bqf.items()}


def test_char2_w_matrix_matches_the_biquadratic_forms(formula_cache):
    # the W read off the forms is the printed matrix on every class of the
    # characteristic-2 corpus, of a GF(8) curve and of every normal-form
    # curve over GF(2) and GF(4) with rational two-torsion (cases b and c;
    # case a has none), the last three with B from the lift; over GF(4) each
    # formula set also serves the curve's Frobenius conjugate
    cases = [(formula_cache.curve(n), formula_cache[n].bqf) for n in formula_cache.names()
             if formula_cache.curve(n).field.characteristic() == 2]
    B8 = BinaryField(3, 0b1011)
    tiny = CurveModel(B8, Poly.from_ints(B8, [0, 1, 0, 1, 0, 1]), Poly.from_ints(B8, [0, 1]))
    cases.append((tiny, synthesize_formula_set(tiny, random.Random(110)).bqf))
    for F in (BinaryField(1, 0b11), BinaryField(2, 0b111)):
        seen = set()
        for case in "bc":
            for f1, f3, f5 in itertools.product(range(F.order()), repeat=3):
                try:
                    c = normal_form_curve(F, case, f1, f3, f5)
                except SingularCurve:
                    continue
                if c in seen:
                    continue
                bqf = synthesize_formula_set(c, random.Random(110)).bqf
                for cc, forms in ((c, bqf), _frobenius(c, bqf)):
                    if cc not in seen:
                        seen.add(cc)
                        cases.append((cc, forms))
    checked = 0
    for c, bqf in cases:
        for T in two_torsion_classes(c):
            assert synthesize_w_char2(c, T, bqf) == printed_translation(c, T)[0], T.label
            checked += 1
    assert checked == 10 + 1 + 2 + 90


def test_w_char2_rejects_forms_that_do_not_factor(formula_cache):
    c, bqf = formula_cache.curve("c2_h3_split"), formula_cache["c2_h3_split"].bqf
    T = two_torsion_classes(c)[0]
    zero_forms = {p: (0,) * BIQUADRATIC44.size for p in BQF_INDEX_PAIRS}
    with pytest.raises(KernelDimensionUnexpected):
        synthesize_w_char2(c, T, zero_forms)
    # B11(., kappa(T)) is a nonzero sum of squares, so as B12 it does not vanish
    with pytest.raises(KernelDimensionUnexpected):
        synthesize_w_char2(c, T, {**bqf, (1, 2): bqf[(1, 1)]})
    with pytest.raises(UnsupportedField):
        synthesize_w_char2(formula_cache.curve("p1009_2tors"), T, bqf)


def test_lifted_gf2_delta_descends():
    B1 = BinaryField(1, 0b10)
    c = normal_form_curve(B1, "a", 0, 0, 1)
    delta = synthesize_formula_set(c, random.Random(107)).delta
    assert all(v in (0, 1) for blk in delta for v in blk)
    # only the formula set lifts: the stage alone refuses the tiny field
    with pytest.raises(UnsupportedField):
        synthesize_bqf(working_model(c), random.Random(107))
    big = binary_extension_of(B1)
    assert big.m == 16
    fwd, back = binary_embedding(B1, big)
    assert fwd[0] == 0 and fwd[1] == 1
    with pytest.raises(NotInSubfield):
        _descend((2,), back)
    with pytest.raises(NotInSubfield):
        binary_embedding(BinaryField(3, 0b1011), big)


def test_binary_embedding_homomorphism():
    B4 = BinaryField(2, 0b111)
    big = binary_extension_of(B4)
    fwd, back = binary_embedding(B4, big)
    for a in range(4):
        for b in range(4):
            assert fwd[B4.mul(a, b)] == big.mul(fwd[a], fwd[b])
            assert fwd[a ^ b] == fwd[a] ^ fwd[b]


def test_small_prime_fields_unsupported():
    F5 = PrimeField(5)
    c = CurveModel(F5, Poly.from_ints(F5, [2, 1, 0, 0, 0, 1]), Poly(F5, []))
    with pytest.raises(UnsupportedField):
        synthesize_formula_set(c, random.Random(0))
    with pytest.raises(UnsupportedField):
        synthesize_bqf(working_model(c), random.Random(0))


def test_determinism_and_round_trip():
    fs1 = synthesize_formula_set(CURVE_1009, random.Random(2024))
    fs2 = synthesize_formula_set(CURVE_1009, random.Random(2024))
    t1, t2 = serialize_formula_set(fs1), serialize_formula_set(fs2)
    assert t1 == t2
    fs3 = deserialize_formula_set(t1)
    assert fs3.delta == fs1.delta and fs3.bqf == fs1.bqf
    assert serialize_formula_set(fs3) == t1
    assert fs1.fingerprint == fingerprint(CURVE_1009)


def test_stale_fingerprint_rejected():
    text = _zero_formula_text()
    tampered = text.replace("f 1,3,0,2,0,1,0", "f 2,3,0,2,0,1,0")
    with pytest.raises(ValueError):
        deserialize_formula_set(tampered)


def _zero_formula_text():
    fs = FormulaSet(CURVE_1009, fingerprint(CURVE_1009),
                    tuple((0,) * 35 for _ in range(4)),
                    {p: (0,) * 100 for p in BQF_INDEX_PAIRS}, [], CONVENTION_TAG)
    return serialize_formula_set(fs)


@pytest.mark.parametrize("extra", [
    "delta0 quartic4 " + ",".join(["1"] * 35),
    "delta5 quartic4 " + ",".join(["1"] * 35),
    "delta quartic4 1",
    "delta4 quartic4 " + ",".join(["1"] * 35),
    "B biquadratic44 1",
    "B5 biquadratic44 1",
    "B21 biquadratic44 " + ",".join(["1"] * 100),
    "B111 biquadratic44 " + ",".join(["1"] * 100),
    "B44 biquadratic44 " + ",".join(["1"] * 100),
])
def test_malformed_formula_keys_rejected(extra):
    # unknown indices and repeated lines; a delta0 line used to overwrite delta4
    text = _zero_formula_text()
    deserialize_formula_set(text)
    with pytest.raises(ValueError):
        deserialize_formula_set(text + extra + "\n")


@pytest.mark.parametrize("dropped", ["field ", "f ", "h "])
def test_formula_file_missing_header_line_rejected(dropped):
    lines = _zero_formula_text().splitlines(True)
    with pytest.raises(ValueError):
        deserialize_formula_set("".join(ln for ln in lines if not ln.startswith(dropped)))


_KEYS = st.text(
    alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_formula_file_with_one_mutated_key(data):
    lines = _zero_formula_text().splitlines()
    formula_lines = [i for i, ln in enumerate(lines) if ln.startswith(("delta", "B"))]
    i = data.draw(st.sampled_from(formula_lines))
    old, _, rest = lines[i].partition(" ")
    new = data.draw(st.one_of(st.sampled_from(["delta0", "delta5", "B", "B5", "B21", "B12", "delta1"]), _KEYS))
    lines[i] = f"{new} {rest}"
    text = "\n".join(lines) + "\n"
    if new == old:
        deserialize_formula_set(text)
    else:
        with pytest.raises(ValueError):
            deserialize_formula_set(text)


REFERENCE_TEXTS = {
    path.stem: path.read_text()
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench" / "reference").glob("*.kfs"))
}


@pytest.mark.parametrize("key", ["field", "f", "h", "convention", "fingerprint", "W"])
def test_formula_file_repeated_line_rejected(key):
    # the last line used to win; a W line repeats when its class label does
    lines = REFERENCE_TEXTS["c2_general_f"].splitlines(True)
    repeat = next(ln for ln in lines if ln.startswith(key + " "))
    if key == "W":
        other = next(ln for ln in lines if ln.startswith("W ") and ln != repeat)
        repeat = " ".join(repeat.split(" ")[:2] + other.split(" ")[2:])
    with pytest.raises(ValueError, match="repeated"):
        deserialize_formula_set("".join(lines + [repeat]))


@pytest.mark.parametrize("name", sorted(REFERENCE_TEXTS))
def test_reference_files_round_trip(name):
    text = REFERENCE_TEXTS[name]
    fs = deserialize_formula_set(text)
    assert serialize_formula_set(fs) == text
    again = deserialize_formula_set(serialize_formula_set(fs))
    assert (again.delta, again.bqf) == (fs.delta, fs.bqf)
    assert [(l, m.rows) for l, m in again.w] == [(l, m.rows) for l, m in fs.w]


def _mutated_file(data, lines):
    """One whole-file mutation of a KFS1 file's lines: a dropped, duplicated,
    moved or truncated line, or the file cut off at any character."""
    kind = data.draw(st.sampled_from(["drop", "duplicate", "move", "truncate line", "truncate file"]))
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    elif kind == "move":
        lines.insert(data.draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    elif kind == "truncate line":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
    else:
        text = "\n".join(lines) + "\n"
        return kind, text[: data.draw(st.integers(0, len(text) - 1))]
    return kind, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_formula_file_whole_file_mutations(data):
    # a mutated file parses or raises ValueError, nothing else; one that
    # parses round-trips, and one that lost or repeated a form is rejected
    name = data.draw(st.sampled_from(sorted(REFERENCE_TEXTS)))
    original = REFERENCE_TEXTS[name].splitlines()
    kind, text = _mutated_file(data, original)
    try:
        fs = deserialize_formula_set(text)
    except ValueError:
        return
    out = serialize_formula_set(fs)
    assert serialize_formula_set(deserialize_formula_set(out)) == out
    if kind in ("drop", "duplicate"):
        def forms(lines):
            return sorted(ln for ln in lines if ln.startswith(("delta", "B")))

        assert forms(text.splitlines()) == forms(original)


def test_crosschecks_pass_odd_char(delta_1009, bqf_1009):
    rng = random.Random(109)
    wm = working_model(CURVE_1009)
    bqf_prime, delta_prime = simplified_families(CURVE_1009, rng)
    rep = crosscheck_tau_delta(wm, rng, 60, delta_1009, delta_prime)
    assert rep["ok"] and rep["points"] == 60
    rep = crosscheck_b_conversion(wm, rng, 60, bqf_1009, bqf_prime)
    assert rep["ok"] and set(rep) == {"ok", "points", "scalar"}


@pytest.mark.parametrize("name", ["c2_general_f", "c2_h3_split", "m61_h3_f6"])
def test_transport_from_the_working_model_gives_the_user_forms(name):
    """The forms synthesized on the working model, transported to the user
    model through the inverse Kummer matrix of the link and scaled so B11
    leads with one, are the user model's forms; characteristic 2 included,
    where the simplified-model cross-checks do not run."""
    c = dict(default_corpus())[name]
    F = c.field
    wm = working_model(c)
    work = synthesize_bqf(working_model(wm.model), random.Random(120))
    forms = transport_forms(F, work, kummer_matrix(c, wm.link).inverse())
    inv = F.inv(next(v for v in forms[(1, 1)] if v != F.zero))
    scaled = {p: tuple(F.mul(inv, v) for v in vec) for p, vec in forms.items()}
    assert scaled == synthesize_bqf(wm, random.Random(121))


def test_crosscheck_h0_degenerates_to_scaling():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 1, 0, 0, 0, 1]), Poly(F1009, []))
    rng = random.Random(110)
    wm = working_model(c)
    bqf = synthesize_bqf(wm, rng)
    delta = synthesize_delta(wm, rng, bqf)
    bqf_prime, delta_prime = simplified_families(c, rng)
    rep = crosscheck_tau_delta(wm, rng, 30, delta, delta_prime)
    assert rep["ok"]
    rep2 = crosscheck_b_conversion(wm, rng, 30, bqf, bqf_prime)
    assert rep2["ok"]


def test_rational_synthesis_modular_route():
    from g2kummer.corpus import default_corpus

    c = dict(default_corpus())["rational_small"]
    rng = random.Random(111)
    wm = working_model(c)
    delta = synthesize_delta(wm, rng, synthesize_bqf(wm, rng))
    double = duplication(RationalField(), delta)
    for _ in range(20):
        D = wm.sample(rng)
        x = kummer_coords(c, to_point_pair(wm, D)).normalized()
        d2 = kummer_coords(c, to_point_pair(wm, add(wm, D, D))).normalized()
        assert double(x).proportional(d2)


def test_lift_route_lifts_once(monkeypatch):
    # the formula set of the GF(2) case-(a) normal form lifts the curve and
    # builds the extension's working model once for the forms and the
    # quartics (twice each when both stages lifted)
    import g2kummer.synthesis as synthesis

    embeddings, models = [], []

    def embedding(sub, big):
        embeddings.append((sub, big))
        return binary_embedding(sub, big)

    def model(c):
        models.append(c)
        return working_model(c)

    monkeypatch.setattr(synthesis, "binary_embedding", embedding)
    monkeypatch.setattr(synthesis, "working_model", model)
    c = normal_form_curve(BinaryField(1, 0b10), "a", 0, 0, 1)
    synthesize_formula_set(c, random.Random(116))
    assert [big.m for _sub, big in embeddings] == [16]
    assert [cm.field.m for cm in models] == [16]


def test_a_formula_set_compiles_each_form_family_once_per_use(monkeypatch):
    # the solve's lambda, the forms' fresh check and the quartics' fresh
    # check each compile their forms once, not once per sample
    import g2kummer.synthesis as synthesis

    built = []

    class Counted(synthesis.CompiledForms):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(synthesis, "CompiledForms", Counted)
    synthesize_formula_set(dict(default_corpus())["m61_h2_f5"], random.Random(117))
    assert len(built) == 3
