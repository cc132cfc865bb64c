import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kummer.algebra import Matrix, Poly
from g2kummer.corpus import default_corpus
from g2kummer.curve import (
    CurveModel,
    CurvePoint,
    ModelIsomorphism,
    char2_normal_form,
    curve_from_text,
    kummer_matrix,
    normal_form_curve,
    pair_from_points,
    rational_weierstrass_points,
    sample_point,
    simplified_model,
    simplified_rhs,
    transform,
    transform_pair,
    transform_point,
    validate,
)
from g2kummer.errors import CharacteristicTwo, RootsNotRational, SingularCurve, UnsupportedDivisor
from g2kummer.field import BinaryField, PrimeField, RationalField
from g2kummer.jacobian import to_point_pair, working_model
from g2kummer.kummer import KummerPoint, kummer_coords

from .helpers import involution, is_identity

F7 = PrimeField(7)
F1009 = PrimeField(1009)
B2 = BinaryField(2, 0b111)
B8 = BinaryField(3, 0b1011)
B16 = BinaryField(16, 0x1002B)
QQ = RationalField()


def _random_valid_curve(F, rng, deg6=True):
    while True:
        top = [F.random(rng)] if deg6 else []
        f = Poly(F, [F.random(rng) for _ in range(6)] + top)
        h = Poly(F, [F.random(rng) for _ in range(4)])
        c = CurveModel(F, f, h)
        if validate(c).ok:
            return c


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def test_validate_char2_normal_cases():
    c = CurveModel(B16, Poly.from_ints(B16, [0, 0, 0, 0, 0, 1]), Poly.from_ints(B16, [1]))
    assert validate(c).ok  # h = 1, f = x^5
    c = CurveModel(B16, Poly.from_ints(B16, [0, 0, 0, 1]), Poly.from_ints(B16, [0, 1]))
    assert not validate(c).ok  # h = x, f = x^3


def _resultant(p, q):
    """Resultant as the Sylvester determinant (independent oracle)."""
    F = p.field
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    for i in range(n):
        row = [F.zero] * size
        for k in range(m + 1):
            row[i + k] = p[m - k]
        rows.append(row)
    for i in range(m):
        row = [F.zero] * size
        for k in range(n + 1):
            row[i + k] = q[n - k]
        rows.append(row)
    # determinant by Gaussian elimination
    det = F.one
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != F.zero), None)
        if piv is None:
            return F.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        inv = F.inv(rows[col][col])
        for r in range(col + 1, size):
            factor = F.mul(rows[r][col], inv)
            if factor != F.zero:
                rows[r] = [F.sub(a, F.mul(factor, b)) for a, b in zip(rows[r], rows[col])]
    return det


def _discriminant_deg6(g):
    # disc = (-1)^(d(d-1)/2) Res(g, g') / lc(g)
    F = g.field
    d = g.degree
    sign = F.neg(F.one) if d * (d - 1) // 2 % 2 else F.one
    return F.mul(sign, F.mul(_resultant(g, g.deriv()), F.inv(g.coeffs[-1])))


def test_validate_odd_matches_resultant_discriminant():
    # validity of y^2 = g for deg-6 g equals nonvanishing of disc(g)
    rng = random.Random(17)
    agree = 0
    for _ in range(60):
        g = Poly(F7, [F7.random(rng) for _ in range(6)] + [1 + rng.randrange(6)])
        c = CurveModel(F7, g, Poly(F7, []))
        disc = _discriminant_deg6(simplified_rhs(c))
        assert validate(c).ok == (disc != F7.zero)
        agree += 1
    assert agree == 60


def test_validate_example_x6_minus_1():
    c = CurveModel(F7, Poly.from_ints(F7, [-1, 0, 0, 0, 0, 0, 1]), Poly(F7, []))
    assert validate(c).ok
    assert _discriminant_deg6(simplified_rhs(c)) != F7.zero


def test_validate_isomorphism_invariance():
    rng = random.Random(23)
    for _ in range(100):
        f = Poly(F1009, [F1009.random(rng) for _ in range(7)])
        h = Poly(F1009, [F1009.random(rng) for _ in range(4)])
        c = CurveModel(F1009, f, h)
        while True:
            mob = tuple(F1009.random(rng) for _ in range(4))
            if (mob[0] * mob[3] - mob[1] * mob[2]) % 1009:
                break
        iso = ModelIsomorphism(
            F1009, mob, 1 + rng.randrange(1008), Poly(F1009, [F1009.random(rng) for _ in range(4)])
        )
        assert validate(c).ok == validate(transform(c, iso)).ok


# ---------------------------------------------------------------------------
# points, involution, Weierstrass
# ---------------------------------------------------------------------------

def test_sample_point_on_curve_and_deterministic():
    c = _random_valid_curve(F1009, random.Random(3))
    for seed in (1, 2, 3):
        P1 = sample_point(c, random.Random(seed))
        P2 = sample_point(c, random.Random(seed))
        assert P1 == P2
        assert c.on_curve(P1)


def test_sample_point_coverage_gf8():
    c = CurveModel(B8, Poly.from_ints(B8, [0, 1, 0, 1, 0, 1]), Poly.from_ints(B8, [0, 1]))
    assert validate(c).ok
    solvable = {x for x in range(8) if B8.quad_solve(c.h(x), c.f(x))}
    rng = random.Random(0)
    seen = {sample_point(c, rng).x for _ in range(1000)}
    assert seen == solvable


def test_involution():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 0, 0, 0, 0, 1]), Poly(F1009, []))
    P = sample_point(c, random.Random(1))
    assert involution(c, P) == CurvePoint("affine", x=P.x, y=F1009.neg(P.y))
    rng = random.Random(5)
    for _ in range(1000):
        c2 = _random_valid_curve(F1009, rng)
        Q = sample_point(c2, rng)
        assert involution(c2, involution(c2, Q)) == Q


def test_involution_char2_fixed_iff_h_vanishes():
    c = CurveModel(B16, Poly(B16, [0, 3, 0, 7, 0, 11]), Poly(B16, [0, 1, 1]))
    rng = random.Random(9)
    for _ in range(200):
        P = sample_point(c, rng)
        fixed = involution(c, P) == P
        assert fixed == (c.h(P.x) == B16.zero)


def test_weierstrass_points():
    # char 2, h = x^2 + x: affine x-coordinates {0, 1}, plus ramified infinity
    c = normal_form_curve(B16, "c", 3, 7, 11)
    ws = rational_weierstrass_points(c)
    xs = sorted(P.x for P in ws if P.kind == "affine")
    assert xs == [0, 1]
    assert any(P.kind == "infinity" for P in ws)
    assert len(ws) <= 6
    for P in ws:
        assert involution(c, P) == P and c.on_curve(P)
    # odd characteristic, h = 0: a root r of f gives (r, 0)
    x = Poly.x(F1009)
    f = (x - Poly.const(F1009, 5)) * Poly.from_ints(F1009, [1, 1, 0, 0, 1])
    c2 = CurveModel(F1009, f, Poly(F1009, []))
    assert validate(c2).ok
    ws2 = rational_weierstrass_points(c2)
    assert any(P.kind == "affine" and P.x == 5 and P.y == 0 for P in ws2)
    assert len(ws2) <= 6


def test_involution_fixed_points_exhaustive_small_field():
    rng = random.Random(2)
    for _ in range(20):
        f = Poly(B8, [B8.random(rng) for _ in range(7)])
        h = Poly(B8, [B8.random(rng) for _ in range(4)])
        c = CurveModel(B8, f, h)
        if not validate(c).ok:
            continue
        fixed = set()
        for x in range(8):
            for y in B8.quad_solve(c.h(x), c.f(x)):
                P = CurvePoint("affine", x=x, y=y)
                if involution(c, P) == P:
                    fixed.add((x, y))
        ws = {(P.x, P.y) for P in rational_weierstrass_points(c) if P.kind == "affine"}
        assert fixed == ws


# ---------------------------------------------------------------------------
# simplified model and the Kummer coordinate change
# ---------------------------------------------------------------------------

def test_simplified_model():
    c = CurveModel(F7, Poly.from_ints(F7, [0, 0, 0, 0, 0, 1]), Poly.from_ints(F7, [1]))
    cs, iso = simplified_model(c)
    assert cs.h.is_zero()
    assert cs.f == Poly.from_ints(F7, [1, 0, 0, 0, 0, 4])  # y^2 = 4x^5 + 1
    c0 = CurveModel(F1009, Poly.from_ints(F1009, [1, 1, 0, 0, 0, 1]), Poly(F1009, []))
    cs0, _ = simplified_model(c0)
    assert cs0.f == c0.f.scale(F1009.from_int(4))
    rng = random.Random(4)
    for _ in range(5):
        c = _random_valid_curve(F1009, rng)
        cs, iso = simplified_model(c)
        for _ in range(200):
            P = sample_point(c, rng)
            assert cs.on_curve(transform_point(iso, P))
    with pytest.raises(CharacteristicTwo):
        simplified_model(CurveModel(B16, Poly(B16, [0, 1, 0, 0, 0, 1]), Poly(B16, [1])))


def test_simplified_kummer_matrix():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 1, 0, 0, 0, 1]), Poly(F1009, []))
    T = kummer_matrix(c, simplified_model(c)[1])
    assert T == Matrix(F1009, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]])
    # h0 = h2 = 1, h1 = h3 = 0: last row (-2, 0, 0, 4)
    c2 = CurveModel(
        F1009, Poly.from_ints(F1009, [1, 1, 0, 0, 0, 1]), Poly.from_ints(F1009, [1, 0, 1])
    )
    T2 = kummer_matrix(c2, simplified_model(c2)[1])
    assert T2.rows[3] == [1009 - 2, 0, 0, 4]
    prod = T2.mul(T2.inverse())
    assert prod == Matrix.identity(F1009, 4)


def _kappa_proportional(F, M, k, kt):
    return KummerPoint(F, M.apply(list(k.coords))).proportional(kt)


def test_kummer_matrix_through_the_working_model_link():
    """kappa on the working model ~ M kappa on the user model, for M the
    Kummer matrix of the link, on oracle classes of every corpus curve."""
    for name, c in default_corpus():
        wm = working_model(c)
        M = kummer_matrix(c, wm.link)
        rng = random.Random(name)
        want = 20 if c.field.order() is None else 60
        checked = 0
        for _ in range(4 * want):
            D = wm.sample(rng)
            try:
                k_user = kummer_coords(c, to_point_pair(wm, D))
                k_work = kummer_coords(wm.model, D)
            except UnsupportedDivisor:
                continue
            assert _kappa_proportional(c.field, M, k_user, k_work), name
            checked += 1
            if checked == want:
                break
        assert checked == want, name


def _random_iso(F, draw, mobius_c_zero):
    while True:
        a, b, g, d = (draw() for _ in range(4))
        if mobius_c_zero:
            g = F.zero
        try:
            return ModelIsomorphism(F, (a, b, g, d), draw(), Poly(F, [draw() for _ in range(4)]))
        except ValueError:
            continue


@pytest.mark.parametrize("F", [F1009, B16, QQ], ids=str)
def test_kummer_matrix_of_random_isomorphisms(F):
    """kappa on transform(c, iso) ~ M kappa on c, with the pair data carried
    by transform_pair."""
    rng = random.Random(12)
    if F.order() is None:
        c = dict(default_corpus())["rational_small"]
        wm = working_model(c)
        pairs = [to_point_pair(wm, wm.sample(rng)) for _ in range(6)]
        curves = [(c, pairs)] * 8

        def draw():
            return Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
    else:
        curves = []
        for _ in range(30):
            c = _random_valid_curve(F, rng)
            pts = [sample_point(c, rng) for _ in range(8)]
            curves.append((c, [pair_from_points(c, P, Q) for P, Q in zip(pts[::2], pts[1::2])]))

        def draw():
            return F.random(rng)
    kinds = []
    for t, (c, pairs) in enumerate(curves):
        iso = _random_iso(F, draw, mobius_c_zero=t % 2 == 1)
        target = transform(c, iso)
        M = kummer_matrix(c, iso)
        _a, _b, g, d = iso.mobius
        for pair in pairs:
            try:
                kt = kummer_coords(target, transform_pair(target, iso, pair))
            except UnsupportedDivisor:
                continue
            assert _kappa_proportional(F, M, kummer_coords(c, pair), kt)
            kinds.append("c != 0" if g != F.zero else "c = 0, d != 1" if d != F.one else "c = 0, d = 1")
    assert len(kinds) > 3 * len(curves) and {"c != 0", "c = 0, d != 1"} <= set(kinds)


def _split_points(c, rng):
    """Five affine points of c with distinct x."""
    F = c.field
    if F.order() is None:
        # rational_small has rational points at x = -1, 0, 1, 2, 3
        xs = [F.from_int(x) for x in range(-1, 4)]
        return [CurvePoint("affine", x=x, y=F.quad_solve(c.h(x), c.f(x))[-1]) for x in xs]
    pts = {}
    while len(pts) < 5:
        P = sample_point(c, rng)
        pts[P.x] = P
    return list(pts.values())


def _iso_with_row(F, draw, g, d):
    """A random isomorphism whose Moebius matrix has the bottom row (g, d)."""
    while True:
        try:
            return ModelIsomorphism(F, (draw(), draw(), g, d), draw(), Poly(F, [draw() for _ in range(4)]))
        except ValueError:
            continue


@pytest.mark.parametrize("F", [F1009, B16, QQ], ids=str)
def test_transform_pair_of_split_pairs_matches_the_point_route(F):
    """transform_pair carries a pair of rational points to the pair of the
    transported points.  With the Moebius row (c, d) = (1, -x1), the norm of
    w = c*x + d vanishes and x1 goes to infinity: the image is an
    affine-infinity pair and kappa on the target is M kappa."""
    rng = random.Random(18)
    if F.order() is None:
        c = dict(default_corpus())["rational_small"]

        def draw():
            return Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
    else:
        c = _random_valid_curve(F, rng)

        def draw():
            return F.random(rng)
    pts = _split_points(c, rng)
    degrees = []
    for i, P1 in enumerate(pts):
        for P2 in pts[i + 1:]:
            pair = pair_from_points(c, P1, P2)
            for crossing in (False, True):
                g, d = (F.one, F.neg(P1.x)) if crossing else (draw(), draw())
                if not crossing and F.zero in (F.add(F.mul(g, P.x), d) for P in (P1, P2)):
                    continue
                iso = _iso_with_row(F, draw, g, d)
                target = transform(c, iso)
                got = transform_pair(target, iso, pair)
                assert got == pair_from_points(target, transform_point(iso, P1), transform_point(iso, P2))
                assert got.degree == (1 if crossing else 2)
                if crossing:
                    M = kummer_matrix(c, iso)
                    assert _kappa_proportional(F, M, kummer_coords(c, pair), kummer_coords(target, got))
                degrees.append(got.degree)
    assert degrees.count(1) == 10 and degrees.count(2) >= 8


@pytest.mark.parametrize("name", ["m61_h3_f6", "c2_general_f"])
def test_transform_pair_of_a_doubled_point_matches_the_point_route(name):
    """Twice a point crosses the working-model link and unlink by the closed
    form: the image is twice the transported point, with its tangent line,
    and kappa on the far side is M kappa.  A doubled point sent to infinity
    is rejected."""
    c = dict(default_corpus())[name]
    F = c.field
    wm = working_model(c)
    rng = random.Random(21)
    checked = 0
    for src, iso, dst in ((c, wm.link, wm.model), (wm.model, wm.unlink, c)):
        M = kummer_matrix(src, iso)
        for _ in range(20):
            P = sample_point(src, rng)
            Q = transform_point(iso, P)
            if Q.kind == "infinity" or F.add(F.add(P.y, P.y), src.h(P.x)) == F.zero:
                continue
            pair = pair_from_points(src, P, P)
            got = transform_pair(dst, iso, pair)
            assert got == pair_from_points(dst, Q, Q)
            assert _kappa_proportional(F, M, kummer_coords(src, pair), kummer_coords(dst, got))
            checked += 1
    assert checked >= 36
    P = sample_point(c, rng)
    iso = _iso_with_row(F, lambda: F.random(rng), F.one, F.neg(P.x))
    with pytest.raises(UnsupportedDivisor):
        transform_pair(transform(c, iso), iso, pair_from_points(c, P, P))


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def test_transform_identity():
    c = _random_valid_curve(F1009, random.Random(6))
    assert transform(c, ModelIsomorphism.identity(F1009)) == c


def test_transform_yshift_char2_formula():
    # y -> y + u: f becomes f + u h + u^2 in characteristic 2
    rng = random.Random(8)
    for _ in range(30):
        f = Poly(B16, [B16.random(rng) for _ in range(7)])
        h = Poly(B16, [B16.random(rng) for _ in range(4)])
        u = Poly(B16, [B16.random(rng) for _ in range(4)])
        c = CurveModel(B16, f, h)
        iso = ModelIsomorphism(B16, (1, 0, 0, 1), 1, u)
        ct = transform(c, iso)
        assert ct.h == h
        assert ct.f == f + u * h + u * u


def test_transform_point_incidence():
    rng = random.Random(10)
    for _ in range(100):
        c = _random_valid_curve(F1009, rng)
        while True:
            mob = tuple(F1009.random(rng) for _ in range(4))
            if (mob[0] * mob[3] - mob[1] * mob[2]) % 1009:
                break
        iso = ModelIsomorphism(
            F1009, mob, 1 + rng.randrange(1008), Poly(F1009, [F1009.random(rng) for _ in range(4)])
        )
        ct = transform(c, iso)
        for _ in range(10):
            P = sample_point(c, rng)
            assert ct.on_curve(transform_point(iso, P))
        back = transform(ct, iso.inverse())
        assert back == c


def test_char2_normal_form_cases_and_round_trip():
    rng = random.Random(14)
    seen = set()
    tried = 0
    while tried < 400 and len(seen) < 1:
        f = Poly(B16, [B16.random(rng) for _ in range(7)])
        h = Poly(B16, [B16.random(rng) for _ in range(4)])
        c = CurveModel(B16, f, h)
        if not validate(c).ok:
            continue
        tried += 1
        try:
            case, cn, iso = char2_normal_form(c)
        except RootsNotRational:
            continue
        seen.add(case)
        assert cn.h == {"a": Poly.const(B16, 1), "b": Poly.x(B16),
                        "c": Poly(B16, [0, 1, 1])}[case]
        for i in (0, 2, 4, 6):
            assert cn.f[i] == B16.zero
        assert transform(c, iso) == cn
        assert transform(cn, iso.inverse()) == c
        for _ in range(5):
            P = sample_point(c, rng)
            assert cn.on_curve(transform_point(iso, P))
    assert seen


def test_char2_normal_form_identity_case():
    c = normal_form_curve(B16, "a", 0, 0, 1)  # h = 1, f = x^5
    case, cn, iso = char2_normal_form(c)
    assert case == "a" and cn == c and is_identity(iso)


def test_char2_normal_form_gf2_mobius():
    # h = x + 1 over GF(2): one simple root at 1, double root at infinity -> case (b)
    B1 = BinaryField(1, 0b10)
    c = CurveModel(B1, Poly.from_ints(B1, [0, 0, 0, 0, 1, 1]), Poly.from_ints(B1, [1, 1]))
    assert validate(c).ok
    case, cn, iso = char2_normal_form(c)
    assert case == "b"
    assert cn.h == Poly.x(B1)
    # transported points satisfy the normal model (all points of the tiny curve)
    for x in range(2):
        for y in B1.quad_solve(c.h(x), c.f(x)):
            P = CurvePoint("affine", x=x, y=y)
            assert cn.on_curve(transform_point(iso, P))


def test_normal_form_condition_gates():
    with pytest.raises(SingularCurve):
        normal_form_curve(B2, "b", 0, 0, 1)
    B1 = BinaryField(1, 0b10)
    with pytest.raises(SingularCurve):
        normal_form_curve(B1, "c", 1, 1, 1)  # beta = 0 over GF(2)


def test_curve_file_round_trip():
    c = _random_valid_curve(F1009, random.Random(15))
    text = c.curve_file_text()
    assert curve_from_text(text) == c
    B = B16
    cb = CurveModel(B, Poly(B, [0, 3, 0, 7, 0, 11]), Poly(B, [1]))
    assert curve_from_text(cb.curve_file_text()) == cb


@pytest.mark.parametrize("key", ["field", "f", "h"])
def test_curve_file_with_a_repeated_line_rejected(key):
    # the last line used to win, so a file with two h lines read as valid
    lines = ["field prime:p=1009", "f 1,3,0,2,0,1,0", "h 1,1,0,0"]
    curve_from_text("\n".join(lines))
    with pytest.raises(ValueError, match="repeated"):
        curve_from_text("\n".join(lines + [ln for ln in lines if ln.startswith(key + " ")]))


_CURVE_LINES = st.lists(
    st.one_of(
        st.sampled_from([
            "field prime:p=1009", "field binary:m=4,mod=0x13", "field rational", "field prime:q=7",
            "f 1,3,0,2,0,1,0", "f 1,2", "f 1/0,0,0,0,0,1,0", "h 1,1,0,0", "h x,0,0,0", "# note", "",
        ]),
        st.text(max_size=16),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_CURVE_LINES)
def test_curve_parser_raises_only_value_error(lines):
    try:
        c = curve_from_text("\n".join(lines))
    except ValueError:
        return
    assert curve_from_text(c.curve_file_text()) == c


def test_branch_labels_and_infinity_points():
    # split infinity: two branches ordered by the canonical key
    rng = random.Random(16)
    while True:
        c = _random_valid_curve(F1009, rng)
        brs = c.branch_values()
        if len(brs) == 2:
            break
    assert brs[0] < brs[1]
    P, Q = (CurvePoint("infinity", branch=r) for r in brs)
    assert involution(c, P) == Q
    assert c.on_curve(P) and c.on_curve(Q)
