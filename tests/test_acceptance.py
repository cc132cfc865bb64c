"""The acceptance gate: every criterion at its stated size, exact arithmetic.

All checks are property- or oracle-based with zero tolerance.  The formula
sets for the corpus are synthesized once per session (shared fixture); each
criterion prints a single PASS line when it holds (run with ``pytest -s`` to
see them)."""

import random
import time

import pytest

from g2kummer.algebra import Poly
from g2kummer.curve import CurveModel, validate
from g2kummer.errors import UnsupportedDivisor
from g2kummer.field import BinaryField, PrimeField
from g2kummer.jacobian import (
    add,
    negate,
    random_divisor,
    to_point_pair,
    from_point_pair,
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
from g2kummer.ladder import bench, ladder, make_context, xadd
from g2kummer.synthesis import (
    BQF_INDEX_PAIRS,
    bqf_values,
    crosscheck_b_conversion,
    crosscheck_tau_delta,
    deserialize_formula_set,
    duplication,
    serialize_formula_set,
    synthesize_formula_set,
)
from g2kummer.verify import lemma_b_search, lemma_delta_search

from .helpers import (
    classical_k0,
    classical_k1,
    kappa_of,
    scalar_mul,
    simplified_families,
    two_torsion_count_check,
)

SEED = 0xACCE97


def _announce(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_surface_membership(corpus):
    t0 = time.time()
    rng = random.Random(SEED + 1)
    total = 0
    for name, c in corpus:
        wm = working_model(c)
        q = quartic_from_curve(c)
        n = 300 if c.field.order() is None else 850
        done = 0
        while done < n:
            try:
                k = kummer_coords(c, to_point_pair(wm, wm.sample(rng)))
            except UnsupportedDivisor:
                continue
            assert on_surface(q, k), (name, k.text())
            done += 1
        total += done
    assert total >= 10_000
    assert len(corpus) >= 12
    _announce(1, f"K(kappa(D)) = 0 on {total} oracle classes over {len(corpus)} curves "
                 f"({time.time()-t0:.0f}s)")


def test_criterion_02_classical_specialization():
    t0 = time.time()
    F = PrimeField(1009)
    rng = random.Random(SEED + 2)
    for _ in range(100):
        f = Poly(F, [F.random(rng) for _ in range(7)])
        c = CurveModel(F, f, Poly(F, []))
        q = quartic_from_curve(c)
        assert {e: v for e, v in q.c1.items() if v != 0} == {
            e: v for e, v in classical_k1(F, f).items() if v != 0
        }
        assert {e: v for e, v in q.c0.items() if v != 0} == {
            e: v for e, v in classical_k0(F, f).items() if v != 0
        }
        assert q.c2 == {(0, 2, 0): 1, (1, 0, 1): F.neg(F.from_int(4))}
    _announce(2, f"h = 0 quartic tables equal the classical ones on 100 random sextics "
                 f"({time.time()-t0:.0f}s)")


def test_criterion_03_duplication(corpus, formula_cache):
    t0 = time.time()
    rng = random.Random(SEED + 3)
    for name, c in corpus:
        fs = formula_cache[name]
        wm = working_model(c)
        double = duplication(c.field, fs.delta)
        done = 0
        while done < 500:
            try:
                D = wm.sample(rng)
                x = kappa_of(c, wm, D)
                d2 = kappa_of(c, wm, add(wm, D, D))
            except UnsupportedDivisor:
                continue
            assert double(x).proportional(d2), name
            done += 1
    _announce(3, f"delta(kappa(P)) ~ kappa(2P) on 500 fresh samples for each of "
                 f"{len(corpus)} curves ({time.time()-t0:.0f}s)")


def test_criterion_04_biquadratic(corpus, formula_cache):
    t0 = time.time()
    rng = random.Random(SEED + 4)
    for name, c in corpus:
        fs = formula_cache[name]
        wm = working_model(c)
        F = c.field
        values = bqf_values(F, fs.bqf)
        done = 0
        while done < 500:
            try:
                P, Q = wm.sample(rng), wm.sample(rng)
                x = kappa_of(c, wm, P)
                y = kappa_of(c, wm, Q)
                w = kappa_of(c, wm, add(wm, P, Q))
                z = kappa_of(c, wm, add(wm, P, negate(wm, Q)))
            except UnsupportedDivisor:
                continue
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
                if lam is None:
                    if t == F.zero:
                        assert val == F.zero, (name, i, j)
                        continue
                    lam = F.div(val, t)
                assert val == F.mul(lam, t), (name, i, j)
            done += 1
    _announce(4, f"all ten biquadratic identities on 500 fresh pairs for each of "
                 f"{len(corpus)} curves ({time.time()-t0:.0f}s)")


def test_criterion_05_conversion_crosschecks(corpus, formula_cache):
    t0 = time.time()
    rng = random.Random(SEED + 5)
    checked = 0
    for name, c in corpus:
        if c.field.characteristic() == 2:
            continue
        fs = formula_cache[name]
        wm = working_model(c)
        bqf_prime, delta_prime = simplified_families(c, rng)
        rep1 = crosscheck_tau_delta(wm, rng, 200, fs.delta, delta_prime)
        assert rep1["ok"], name
        rep2 = crosscheck_b_conversion(wm, rng, 200, fs.bqf, bqf_prime)
        assert rep2["ok"], name
        checked += 1
    assert checked >= 7
    _announce(5, f"model-change conjugation of delta and the printed-style conversion "
                 f"of B hold at 200 points on {checked} odd-characteristic curves "
                 f"({time.time()-t0:.0f}s)")


def test_criterion_06_translation(corpus, formula_cache):
    t0 = time.time()
    rng = random.Random(SEED + 6)
    classes_checked = 0
    for name, c in corpus:
        F = c.field
        if F.order() is None:
            continue
        wm = working_model(c)
        q = quartic_from_curve(c)
        fs = formula_cache[name]
        ws = dict(fs.w)
        for T in two_torsion_classes(c):
            W = ws[T.label]
            W2 = W.mul(W)
            lam = W2.rows[0][0]
            assert lam != F.zero and all(
                W2.rows[i][j] == (lam if i == j else F.zero)
                for i in range(4) for j in range(4)
            ), (name, T.label)
            DQ = from_point_pair(wm, T.divisor)
            assert add(wm, DQ, DQ).is_zero(), (name, T.label)
            done = 0
            while done < 1000:
                try:
                    D = random_divisor(wm, rng)
                    kP = kappa_of(c, wm, D)
                    kPQ = kappa_of(c, wm, add(wm, D, DQ))
                except UnsupportedDivisor:
                    continue
                Wk = KummerPoint(F, W.apply(list(kP.coords)))
                assert Wk.proportional(kPQ), (name, T.label)
                assert on_surface(q, Wk), (name, T.label)
                done += 1
            classes_checked += 1
    assert classes_checked >= 10
    # the rational two-torsion count matches the root structure of h
    B16 = BinaryField(16, 0x1002B)
    rng2 = random.Random(SEED + 60)
    counted = 0
    while counted < 50:
        f = Poly(B16, [B16.random(rng2) for _ in range(7)])
        h = Poly(B16, [B16.random(rng2) for _ in range(4)])
        c = CurveModel(B16, f, h)
        if not validate(c).ok:
            continue
        res = two_torsion_count_check(c)
        assert res["ok"], res
        counted += 1
    _announce(6, f"translation matrices verified on 10^3 samples for each of "
                 f"{classes_checked} torsion classes; two-torsion counts match on "
                 f"{counted} random characteristic-2 curves ({time.time()-t0:.0f}s)")


def test_criterion_07_lemma_searches():
    t0 = time.time()
    B1 = BinaryField(1, 0b10)
    B2 = BinaryField(2, 0b111)
    B3 = BinaryField(3, 0b1011)
    rng = random.Random(SEED + 7)
    delta_jobs = [
        ("a", (0, 0, 1), B1),
        ("b", (1, 0, 1), B1),
        ("a", (2, 3, 1), B2),
        ("b", (1, 2, 3), B2),
        ("c", (2, 0, 1), B2),
        ("a", (3, 2, 5), B3),
    ]
    searched = 0
    for case, coeffs, F in delta_jobs:
        rep = lemma_delta_search(case, coeffs, F, rng)
        assert rep.ok, (case, F.spec_string(), rep.counterexamples[:2])
        searched += rep.search_space
    bq_jobs = [
        ("a", (0, 0, 1), B1),
        ("b", (1, 0, 1), B1),
        ("a", (2, 3, 1), B2),
        ("b", (1, 2, 3), B2),
        ("c", (2, 0, 1), B2),
    ]
    for case, coeffs, F in bq_jobs:
        rep = lemma_b_search(case, coeffs, F, rng)
        assert rep.ok, (case, F.spec_string(), rep.counterexamples[:2])
        searched += rep.search_space
    # the beta gate: case (c) has no valid coefficients over GF(2)
    from g2kummer.errors import SingularCurve

    with pytest.raises(SingularCurve):
        lemma_delta_search("c", (1, 1, 1), B1, rng)
    _announce(7, f"exhaustive duplication and biquadratic lemma searches clean "
                 f"({searched} states, {time.time()-t0:.0f}s)")


def test_criterion_08_ladder_end_to_end(corpus, formula_cache):
    t0 = time.time()
    name = "m61_h2_f5"
    c = dict(corpus)[name]
    fs = formula_cache[name]
    ctx = make_context(c, fs)
    wm = working_model(c)
    rng = random.Random(SEED + 8)
    for _ in range(100):
        D = random_divisor(wm, rng)
        n = rng.randrange(1 << 40)
        x = kappa_of(c, wm, D)
        expect = (
            kappa_of(c, wm, scalar_mul(wm, D, n)) if n else zero_class_point(c.field)
        )
        assert ladder(ctx, x, n).proportional(expect), n
    # oracle-free chain consistency
    D = random_divisor(wm, rng)
    x = kappa_of(c, wm, D)
    for _ in range(1000):
        m, n = rng.randrange(1, 1 << 10), rng.randrange(1, 1 << 10)
        km, kn = ladder(ctx, x, m), ladder(ctx, x, n)
        kd = ladder(ctx, x, abs(m - n)) if m != n else zero_class_point(c.field)
        assert xadd(ctx, km, kn, kd).proportional(ladder(ctx, x, m + n)), (m, n)
    _announce(8, f"ladder matches the oracle on 100 forty-bit scalars and the chain "
                 f"identity on 10^3 scalar pairs ({time.time()-t0:.0f}s)")


def test_criterion_09_determinism_and_persistence(corpus, formula_cache, tmp_path):
    t0 = time.time()
    # byte-identical synthesis for a fixed seed
    c = dict(corpus)["p1009_2tors"]
    fs_a = synthesize_formula_set(c, random.Random(777))
    fs_b = synthesize_formula_set(c, random.Random(777))
    assert serialize_formula_set(fs_a) == serialize_formula_set(fs_b)
    # serialize/deserialize identity on every corpus formula set
    for name, _c in corpus:
        fs = formula_cache[name]
        text = serialize_formula_set(fs)
        fs2 = deserialize_formula_set(text)
        assert fs2.delta == fs.delta
        assert fs2.bqf == fs.bqf
        assert [(l, m.rows) for l, m in fs2.w] == [(l, m.rows) for l, m in fs.w]
        assert serialize_formula_set(fs2) == text
    _announce(9, f"same-seed synthesis is byte-identical and serialization round-trips "
                 f"on all {len(corpus)} formula sets ({time.time()-t0:.0f}s)")


def test_criterion_10_bench_report(corpus, formula_cache):
    t0 = time.time()
    name = "m61_h2_f5"
    c = dict(corpus)[name]
    ctx = make_context(c, formula_cache[name])
    rep1 = bench(ctx, random.Random(1), trials=1, bits=32)
    rep2 = bench(ctx, random.Random(2), trials=1, bits=32)
    assert rep1["xdbl"] == rep2["xdbl"]
    assert rep1["xadd"] == rep2["xadd"]
    assert rep1["ladder_total"] == rep2["ladder_total"]
    assert rep1["inversions_per_step"] == 0
    assert rep1["xdbl"]["inv"] == rep1["xadd"]["inv"] == 0
    assert rep1["xdbl"]["mul"] > 0 and rep1["xadd"]["mul"] > 0
    _announce(10, f"bench reports identical exact counts across runs "
                  f"(xdbl {rep1['xdbl']['mul']}M, xadd {rep1['xadd']['mul']}M, "
                  f"0 inversions/step, {rep1['seconds_per_bit']*1e3:.2f} ms/bit, "
                  f"{time.time()-t0:.0f}s)")
