import random
from fractions import Fraction

import pytest

from g2kummer.algebra import Poly
from g2kummer.curve import (
    CurveModel,
    CurvePoint,
    normal_form_curve,
    pair_from_points,
    sample_point,
    secant,
    validate,
)
from g2kummer.errors import UnsupportedDivisor
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
from g2kummer.synthesis import synthesize_formula_set, synthesize_w_char2

from .helpers import enumerate_divisors, eval_quartic, printed_translation

F7 = PrimeField(7)
F1009 = PrimeField(1009)
B16 = BinaryField(16, 0x1002B)
B8 = BinaryField(3, 0b1011)


# ---------------------------------------------------------------------------
# the quartic coefficient tables
# ---------------------------------------------------------------------------

def test_k0_kappa2_4_coefficient():
    # coefficient of k2^4 in the constant part: -4 f0 f6 - f0 h3^2 - f6 h0^2
    rng = random.Random(1)
    for _ in range(20):
        f = Poly(F1009, [F1009.random(rng) for _ in range(7)])
        h = Poly(F1009, [F1009.random(rng) for _ in range(4)])
        c = CurveModel(F1009, f, h)
        q = quartic_from_curve(c)
        expect = (-4 * f[0] * f[6] - f[0] * h[3] * h[3] - f[6] * h[0] * h[0]) % 1009
        assert q.c0[(0, 4, 0)] == expect


def test_k1_classical_term_h0():
    # with h = 0 the cubic part starts with -4 f0 k1^3
    f = Poly.from_ints(F1009, [3, 1, 4, 1, 5, 9, 2])
    c = CurveModel(F1009, f, Poly(F1009, []))
    q = quartic_from_curve(c)
    assert q.c1[(3, 0, 0)] == (-4 * 3) % 1009


def test_k1_tiny_curve_f_x_h_1():
    # f = x, h = 1 over GF(7): K1 = -2 k1^2 k2 - k1^3, everything else zero
    c = CurveModel(F7, Poly.from_ints(F7, [0, 1]), Poly.from_ints(F7, [1]))
    q = quartic_from_curve(c)
    nonzero = {e: v for e, v in q.c1.items() if v != 0}
    assert nonzero == {(2, 1, 0): (-2) % 7, (3, 0, 0): (-1) % 7}


def test_classical_tables_match_general_with_h0():
    # coefficient-by-coefficient comparison with independently transcribed
    # classical tables for 100 random sextics
    rng = random.Random(2)

    def classical_k1(f):
        return {
            (3, 0, 0): (-4 * f[0]) % 1009,
            (2, 1, 0): (-2 * f[1]) % 1009,
            (2, 0, 1): (-4 * f[2]) % 1009,
            (1, 1, 1): (-2 * f[3]) % 1009,
            (1, 0, 2): (-4 * f[4]) % 1009,
            (0, 1, 2): (-2 * f[5]) % 1009,
            (0, 0, 3): (-4 * f[6]) % 1009,
        }

    def classical_k0(f):
        return {
            (4, 0, 0): (-4 * f[0] * f[2] + f[1] * f[1]) % 1009,
            (3, 1, 0): (-4 * f[0] * f[3]) % 1009,
            (3, 0, 1): (-2 * f[1] * f[3]) % 1009,
            (2, 2, 0): (-4 * f[0] * f[4]) % 1009,
            (2, 1, 1): (4 * f[0] * f[5] - 4 * f[1] * f[4]) % 1009,
            (2, 0, 2): (-4 * f[0] * f[6] + 2 * f[1] * f[5] - 4 * f[2] * f[4] + f[3] * f[3]) % 1009,
            (1, 3, 0): (-4 * f[0] * f[5]) % 1009,
            (1, 2, 1): (8 * f[0] * f[6] - 4 * f[1] * f[5]) % 1009,
            (1, 1, 2): (4 * f[1] * f[6] - 4 * f[2] * f[5]) % 1009,
            (1, 0, 3): (-2 * f[3] * f[5]) % 1009,
            (0, 4, 0): (-4 * f[0] * f[6]) % 1009,
            (0, 3, 1): (-4 * f[1] * f[6]) % 1009,
            (0, 2, 2): (-4 * f[2] * f[6]) % 1009,
            (0, 1, 3): (-4 * f[3] * f[6]) % 1009,
            (0, 0, 4): (-4 * f[4] * f[6] + f[5] * f[5]) % 1009,
        }

    for _ in range(100):
        f = Poly(F1009, [F1009.random(rng) for _ in range(7)])
        c = CurveModel(F1009, f, Poly(F1009, []))
        q = quartic_from_curve(c)
        k1 = {e: v for e, v in q.c1.items() if v != 0}
        assert k1 == {e: v for e, v in classical_k1(f).items() if v != 0}
        k0 = {e: v for e, v in q.c0.items() if v != 0}
        assert k0 == {e: v for e, v in classical_k0(f).items() if v != 0}


# ---------------------------------------------------------------------------
# the coordinate map
# ---------------------------------------------------------------------------

def test_zero_class_and_quartic_vanishing():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 0, 0, 0, 0, 1]), Poly.from_ints(F1009, [1]))
    q = quartic_from_curve(c)
    z = zero_class_point(F1009)
    assert z.coords == (0, 0, 0, 1)
    assert on_surface(q, z)


def test_golden_kappa_seed_42():
    # y^2 + y = x^5 + 1 over GF(1009); pair fixed by seed 42.
    # expected quadruple pinned by direct evaluation of the closed formula.
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 0, 0, 0, 0, 1]), Poly.from_ints(F1009, [1]))
    rng = random.Random(42)
    P1 = sample_point(c, rng)
    P2 = sample_point(c, rng)
    while P2.x == P1.x:
        P2 = sample_point(c, rng)
    assert (P1.x, P1.y, P2.x, P2.y) == (654, 357, 281, 60)
    k = kummer_coords(c, pair_from_points(c, P1, P2)).normalized()
    assert k.coords == (1, 935, 136, 414)


def test_kappa_invariant_under_negation():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1]))
    wm = working_model(c)
    rng = random.Random(3)
    for _ in range(300):
        D = random_divisor(wm, rng)
        k1 = kummer_coords(c, to_point_pair(wm, D))
        k2 = kummer_coords(c, to_point_pair(wm, negate(wm, D)))
        assert k1.proportional(k2)


@pytest.mark.parametrize(
    "field,fints,hints",
    [
        (F1009, [1, 3, 0, 2, 0, 1], [1, 1]),
        (PrimeField((1 << 61) - 1), [2, 5, 1, 3, 0, 1], [1, 0, 1]),
        (B16, [0, 3, 0, 7, 0, 11], [0, 1, 1]),
    ],
    ids=["p1009", "m61", "c2"],
)
def test_on_surface_oracle_samples(field, fints, hints):
    # binary coefficients are raw bit-patterns, prime ones canonical residues
    if field.kind == "binary":
        c = CurveModel(field, Poly(field, fints), Poly(field, hints))
    else:
        c = CurveModel(field, Poly.from_ints(field, fints), Poly.from_ints(field, hints))
    assert validate(c).ok
    wm = working_model(c)
    q = quartic_from_curve(c)
    rng = random.Random(4)
    for _ in range(200):
        D = random_divisor(wm, rng)
        assert on_surface(q, kummer_coords(c, to_point_pair(wm, D)))


def test_off_surface_quadruple_rejected():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1]))
    q = quartic_from_curve(c)
    rng = random.Random(5)
    off = 0
    for _ in range(50):
        pt = KummerPoint(F1009, [F1009.random(rng) or 1 for _ in range(4)])
        val = eval_quartic(F1009, list(q.vector), pt.coords)
        assert on_surface(q, pt) == (val == 0)
        if val != 0:
            off += 1
    assert off > 30


def test_doubled_point_formula_matches_series_expansion():
    """The doubled-point fourth coordinate equals the order-two Taylor
    expansion of the generic numerator along the curve, both over the
    rationals and over a large prime field."""
    QQ = RationalField()

    def series_kappa4(c, x, y):
        # v(t) = y + c1 t + c2 t^2 solved order-by-order from the curve
        F = c.field
        f, h = c.f, c.h
        fp, hp = f.deriv(), h.deriv()
        G = F.add(F.add(y, y), h(x))
        c1 = F.div(F.sub(fp(x), F.mul(hp(x), y)), G)
        # second order: differentiate v' = (f'(u) - h'(u)v)/(2v + h(u))
        fpp, hpp = fp.deriv(), hp.deriv()
        num = F.sub(F.sub(fpp(x), F.mul(hpp(x), y)), F.mul(F.from_int(2), F.mul(hp(x), c1)))
        num = F.sub(num, F.mul(F.from_int(2), F.mul(c1, c1)))
        c2 = F.div(num, F.mul(F.from_int(2), G))
        # N(t) = F0(x, x+t) - 2 y v(t) - h(x) v(t) - h(x+t) y, expanded in t
        # exactly as polynomials; kappa4 = coefficient of t^2
        Rt = lambda *cs: Poly(F, list(cs))
        xt = Rt(x, F.one)  # x + t
        vt = Rt(y, c1, c2)
        xu = Rt(x) * xt  # x * (x+t)
        s1 = Rt(x) + xt
        F0 = (
            Poly.const(F, F.mul(F.from_int(2), f[0]))
            + s1.scale(f[1])
            + xu.scale(F.mul(F.from_int(2), f[2]))
            + (s1 * xu).scale(f[3])
            + (xu * xu).scale(F.mul(F.from_int(2), f[4]))
            + (s1 * xu * xu).scale(f[5])
            + (xu * xu * xu).scale(F.mul(F.from_int(2), f[6]))
        )
        hxt = Poly(F, [])  # exact expansion of h at x + t
        powxt = Poly.const(F, F.one)
        for i in range(4):
            hxt = hxt + powxt.scale(h[i])
            powxt = powxt * xt
        N = F0 - (vt.scale(F.from_int(2)) * Rt(y)) - vt.scale(h(x)) - hxt.scale(y)
        assert N[0] == F.zero and N[1] == F.zero
        return N[2]

    for field, cof in ((QQ, True), (PrimeField((1 << 61) - 1), False)):
        F = field
        rng = random.Random(6)
        if cof:
            from g2kummer.corpus import default_corpus

            c = dict(default_corpus())["rational_small"]
            f, h = c.f, c.h
        else:
            f = Poly(F, [F.random(rng) for _ in range(7)])
            h = Poly(F, [F.random(rng) for _ in range(4)])
            c = CurveModel(F, f, h)
        pts = []
        if cof:
            from g2kummer.errors import NoSolutionCertificate

            for n in range(-12, 13):
                for d in (1, 2):
                    x = Fraction(n, d)
                    try:
                        ys = F.quad_solve(h(x), f(x))
                    except NoSolutionCertificate:
                        continue
                    pts.extend(CurvePoint("affine", x=x, y=y) for y in ys)
        else:
            pts = [sample_point(c, rng) for _ in range(10)]
        checked = 0
        for P in pts:
            G = F.add(F.add(P.y, P.y), h(P.x))
            if G == F.zero:
                continue
            pair = pair_from_points(c, P, P)
            k = kummer_coords(c, pair)
            expect = series_kappa4(c, P.x, P.y)
            assert k.coords[3] == expect
            assert k.coords[:3] == (F.one, F.add(P.x, P.x), F.mul(P.x, P.x))
            checked += 1
        assert checked >= 3


def test_doubled_point_on_surface_and_oracle():
    # doubling a degree-1 divisor through the oracle lands on the doubled
    # Mumford divisor whose coordinates the limit formula must produce
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 0, 0, 2, 0, 1]), Poly(F1009, []))
    wm = working_model(c)
    q = quartic_from_curve(c)
    rng = random.Random(7)
    from g2kummer.jacobian import MumfordDivisor

    hits = 0
    for _ in range(200):
        P = sample_point(wm.model, rng)
        D1 = MumfordDivisor(Poly(F1009, [F1009.neg(P.x), 1]), Poly.const(F1009, P.y))
        D = add(wm, D1, D1)
        if D.degree != 2 or (D.a[1] * D.a[1] - 4 * D.a[0]) % 1009 != 0:
            continue
        k = kummer_coords(c, to_point_pair(wm, D))
        assert on_surface(q, k)
        hits += 1
    assert hits > 50


def test_unsupported_divisors():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 0, 0, 2, 0, 1]), Poly(F1009, []))
    # doubled Weierstrass point: y = 0 on f root
    from g2kummer.algebra import roots

    W = CurvePoint("affine", x=roots(c.f)[0][0], y=0)
    with pytest.raises(UnsupportedDivisor):
        kummer_coords(c, pair_from_points(c, W, W))


def test_kappa_two_to_one_except_two_torsion():
    # exhaustive over a tiny working model: fibers of kappa have size 2 away
    # from the two-torsion classes, size 1 on them
    c = CurveModel(B8, Poly.from_ints(B8, [0, 1, 0, 1, 0, 1]), Poly.from_ints(B8, [0, 1]))
    wm = working_model(c)
    fibers = {}
    for D in enumerate_divisors(wm):
        try:
            k = kummer_coords(c, to_point_pair(wm, D)).normalized()
        except UnsupportedDivisor:
            continue
        fibers.setdefault(k.coords, set()).add(D)
    for k, ds in fibers.items():
        assert len(ds) in (1, 2)
        if len(ds) == 1:
            (D,) = ds
            assert add(wm, D, D).is_zero()
        else:
            D1, D2 = sorted(ds, key=repr)
            assert negate(wm, D1) == D2


# ---------------------------------------------------------------------------
# two-torsion and translation
# ---------------------------------------------------------------------------

def test_two_torsion_char2_counts():
    c = normal_form_curve(B16, "a", 3, 7, 11)  # h = 1: no rational classes
    assert two_torsion_classes(c) == []
    c = normal_form_curve(B16, "c", 3, 7, 11)  # h = x^2 + x
    classes = two_torsion_classes(c)
    tags = sorted(T.case_tag for T in classes)
    assert tags == ["affineAffine", "affineInfinity", "affineInfinity"]


@pytest.mark.parametrize("F", [B8, BinaryField(8, 0x11B), B16], ids=str)
def test_two_torsion_char2_split_pairs_match_the_secant(F):
    # the class of two rational roots x1, x2 of h, built from the quadratic
    # (x + x1)(x + x2) like a conjugate pair, is the secant through
    # (x1, sqrt f(x1)) and (x2, sqrt f(x2))
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        h = Poly.const(F, F.one)
        for _ in range(3):
            h = h * Poly(F, [F.random(rng), F.one])
        c = CurveModel(F, Poly(F, [F.random(rng) for _ in range(7)]), h)
        if not validate(c).ok:
            continue
        for T in two_torsion_classes(c):
            if T.case_tag == "affineAffine" and not T.label.startswith("aa:irr:"):
                x1, x2 = (F.parse(v) for v in T.label[3:].split(","))
                a, b = secant(F, x1, F.sqrt(c.f(x1)), x2, F.sqrt(c.f(x2)))
                assert (T.divisor.a, T.divisor.b) == (a, b)
                checked += 1


@pytest.mark.parametrize("name, degree", [("m61_h2_f5", 5), ("c2_general_f", 3)])
def test_two_torsion_finds_the_roots_once(monkeypatch, name, degree):
    # roots and quadratic factors come from one factorization of g (odd
    # characteristic) or h (characteristic 2); ``roots`` is wrapped wherever
    # it is bound, so a call through an imported name counts too
    import sys

    from g2kummer import algebra
    from g2kummer.corpus import default_corpus

    degrees = []
    inner = algebra.roots

    def counted(p):
        degrees.append(p.degree)
        return inner(p)

    for module in (algebra, sys.modules["g2kummer.kummer"]):
        if getattr(module, "roots", None) is inner:
            monkeypatch.setattr(module, "roots", counted)
    two_torsion_classes(dict(default_corpus())[name])
    assert degrees == [degree]


def test_two_torsion_odd_example():
    # 4f + h^2 = (x^2 - 1) t(x): the class {(1, -h(1)/2), (-1, -h(-1)/2)}
    F = F1009
    h = Poly.from_ints(F, [1, 1])
    g = Poly.from_ints(F, [-1, 0, 1]) * Poly.from_ints(F, [3, 0, 1, 1])
    f = (g - h * h).scale(F.inv(F.from_int(4)))
    c = CurveModel(F, f, h)
    assert validate(c).ok
    classes = two_torsion_classes(c)
    target = None
    inv2 = F.inv(F.from_int(2))
    for T in classes:
        if T.divisor.a == Poly.from_ints(F, [-1, 0, 1]):
            target = T
    assert target is not None
    b = target.divisor.b
    assert b(1) == F.neg(F.mul(inv2, h(1)))
    assert b(F.neg(F.one)) == F.neg(F.mul(inv2, h(F.neg(F.one))))
    # oracle: the class is killed by 2
    wm = working_model(c)
    DQ = from_point_pair(wm, target.divisor)
    assert add(wm, DQ, DQ).is_zero()


def test_w_matrix_entries_and_square():
    c = normal_form_curve(B16, "c", 3, 7, 11)
    rng = random.Random(8)
    wm = working_model(c)
    q = quartic_from_curve(c)
    bqf = synthesize_formula_set(c, random.Random(9)).bqf
    for T in two_torsion_classes(c):
        W = synthesize_w_char2(c, T, bqf)
        _printed, kp = printed_translation(c, T)
        assert W.rows[0][3] == kp[0]  # entry (1,4) = k'_1
        assert W.rows[2][3] == kp[2]  # entry (3,4) = k'_3
        W2 = W.mul(W)
        lam = W2.rows[0][0]
        assert lam != 0
        assert all(W2.rows[i][j] == (lam if i == j else 0) for i in range(4) for j in range(4))
        DQ = from_point_pair(wm, T.divisor)
        for _ in range(100):
            D = random_divisor(wm, rng)
            kP = kummer_coords(c, to_point_pair(wm, D))
            Wk = KummerPoint(B16, W.apply(kP.coords))
            assert on_surface(q, Wk)
            kPQ = kummer_coords(c, to_point_pair(wm, add(wm, D, DQ)))
            assert Wk.proportional(kPQ)
        # translating twice returns to the start; translating zero gives kappa(Q)
        k0 = zero_class_point(B16)
        assert KummerPoint(B16, W.apply(W.apply(kP.coords))).proportional(kP)
        assert KummerPoint(B16, W.apply(k0.coords)).proportional(T.kummer)


def test_char2_w_exhaustive_tiny_field():
    # surface stability of translation over GF(8): every on-surface image
    c = CurveModel(B8, Poly.from_ints(B8, [0, 1, 0, 1, 0, 1]), Poly.from_ints(B8, [0, 1]))
    q = quartic_from_curve(c)
    classes = two_torsion_classes(c)
    assert classes
    bqf = synthesize_formula_set(c, random.Random(10)).bqf
    for T in classes:
        W = synthesize_w_char2(c, T, bqf)
        count = 0
        for a in range(8):
            for b in range(8):
                for d in range(8):
                    for e in range(8):
                        if a == b == d == e == 0:
                            continue
                        pt = (a, b, d, e)
                        if eval_quartic(B8, list(q.vector), pt) != 0:
                            continue
                        img = W.apply(list(pt))
                        if all(v == 0 for v in img):
                            continue
                        assert eval_quartic(B8, list(q.vector), tuple(img)) == 0
                        count += 1
        assert count > 0
