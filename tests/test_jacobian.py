import random

import pytest

from g2kummer.algebra import Poly
from g2kummer.curve import CurveModel, CurvePoint, pair_from_points, sample_point, transform, transform_point, validate
from g2kummer.errors import NoRationalWeierstrassPoint
from g2kummer.field import BinaryField, PrimeField
from g2kummer.jacobian import (
    MumfordDivisor,
    _compose,
    _frequent_add,
    _reduce,
    add,
    from_point_pair,
    negate,
    random_divisor,
    to_point_pair,
    working_model,
)
from g2kummer.synthesis import binary_embedding

from .helpers import enumerate_divisors, is_identity, scalar_mul

F1009 = PrimeField(1009)
B8 = BinaryField(3, 0b1011)


CURVE_1009 = CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1]))
# degree 6, h = 0, with the Weierstrass point x = 1 that the working model
# sends to infinity
DEG6_1009 = CurveModel(
    F1009, Poly.from_ints(F1009, [-1, 1]) * Poly.from_ints(F1009, [3, 1, 0, 2, 0, 1]), Poly(F1009, [])
)


def _wm_1009(seed=0):
    assert validate(CURVE_1009).ok
    return working_model(CURVE_1009)


# ---------------------------------------------------------------------------
# working models
# ---------------------------------------------------------------------------

def test_working_model_identity_cases():
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 0, 0, 2, 0, 1]), Poly(F1009, []))
    wm = working_model(c)
    assert is_identity(wm.link) and wm.model == c
    # characteristic-2 normal form (a): already odd degree, identity link
    B16 = BinaryField(16, 0x1002B)
    ca = CurveModel(B16, Poly(B16, [0, 3, 0, 7, 0, 11]), Poly(B16, [1]))
    wma = working_model(ca)
    assert is_identity(wma.link)
    assert wma.model.f.degree == 5


def test_working_model_transports_points():
    rng = random.Random(2)
    found = 0
    while found < 5:
        f = Poly(F1009, [F1009.random(rng) for _ in range(7)])
        h = Poly(F1009, [F1009.random(rng) for _ in range(4)])
        c = CurveModel(F1009, f, h)
        if not validate(c).ok:
            continue
        try:
            wm = working_model(c)
        except NoRationalWeierstrassPoint:
            continue
        found += 1
        assert wm.model.f.degree == 5 and wm.model.h.is_zero()
        assert validate(wm.model).ok
        for _ in range(200):
            P = sample_point(c, rng)
            from g2kummer.curve import transform_point

            Pw = transform_point(wm.link, P)
            assert wm.model.on_curve(Pw) or Pw.kind == "infinity"


def test_working_model_char2_kills_f6():
    B16 = BinaryField(16, 0x1002B)
    c = CurveModel(B16, Poly(B16, [9, 5, 3, 9, 7, 11, 6]), Poly(B16, [0, 2, 3, 1]))
    assert validate(c).ok
    wm = working_model(c)
    assert wm.model.f.degree == 5
    assert wm.model.h.degree <= 2 and not wm.model.h.is_zero()
    assert validate(wm.model).ok


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def test_identity_and_inverse():
    wm = _wm_1009()
    rng = random.Random(4)
    Z = wm.zero()
    for _ in range(100):
        D = random_divisor(wm, rng)
        assert wm.contains(D)
        assert add(wm, D, Z) == D
        assert add(wm, D, negate(wm, D)) == Z


def test_commutativity_and_associativity():
    wm = _wm_1009()
    rng = random.Random(5)
    for _ in range(1000):
        D1, D2, D3 = (random_divisor(wm, rng) for _ in range(3))
        assert add(wm, D1, D2) == add(wm, D2, D1)
        assert add(wm, add(wm, D1, D2), D3) == add(wm, D1, add(wm, D2, D3))


def test_scalar_mul_laws():
    wm = _wm_1009()
    rng = random.Random(6)
    D = random_divisor(wm, rng)
    assert scalar_mul(wm, D, 0) == wm.zero()
    assert scalar_mul(wm, D, 1) == D
    for _ in range(30):
        m, n = rng.randrange(60), rng.randrange(60)
        assert scalar_mul(wm, D, m + n) == add(wm, scalar_mul(wm, D, m), scalar_mul(wm, D, n))


def test_random_divisor_shape():
    wm = _wm_1009()
    rng = random.Random(7)
    for _ in range(200):
        D = random_divisor(wm, rng)
        assert D.a.degree == 2
        assert D.a.coeffs[-1] == F1009.one
        assert wm.contains(D)


def test_random_divisor_class_coverage_gf8():
    c = CurveModel(B8, Poly.from_ints(B8, [0, 1, 0, 1, 0, 1]), Poly.from_ints(B8, [0, 1]))
    wm = working_model(c)
    weight2 = {D for D in enumerate_divisors(wm) if D.degree == 2}
    rng = random.Random(8)
    seen = set()
    for _ in range(10_000):
        seen.add(random_divisor(wm, rng))
    assert len(seen & weight2) >= 0.9 * len(weight2)


def _cantor(wm, D1, D2):
    return _reduce(wm, *_compose(wm, D1, D2))


@pytest.mark.parametrize(
    "c",
    [
        # characteristic 2 with h2 != 0 and f5 != 1
        CurveModel(BinaryField(2, 0b111), Poly(BinaryField(2, 0b111), [1, 2, 0, 3, 1, 2]),
                   Poly(BinaryField(2, 0b111), [3, 2, 3])),
        CurveModel(B8, Poly(B8, [1, 2, 0, 3, 1, 2]), Poly(B8, [3, 5, 6])),
        # odd characteristic with a non-monic f
        CurveModel(PrimeField(7), Poly.from_ints(PrimeField(7), [4, 0, 3, 1, 0, 4]), Poly(PrimeField(7), [])),
    ],
    ids=["gf4_h2", "gf8_h2", "gf7_f5"],
)
def test_frequent_add_equals_cantor_on_every_pair(c):
    assert validate(c).ok
    wm = working_model(c)
    assert wm.model == c
    divs = enumerate_divisors(wm)
    fast = 0
    for D1 in divs:
        for D2 in divs:
            D = _frequent_add(wm, D1, D2)
            if D is not None:
                fast += 1
                assert D == _cantor(wm, D1, D2), (D1, D2)
                assert add(wm, D1, D2) == D
    assert fast > len(divs) ** 2 // 4


def test_frequent_add_equals_cantor_on_corpus_curves(corpus):
    # random pairs and doublings on every finite corpus curve, and pairs of
    # the rational sampler's classes; generic pairs must take the fast path
    for name, c in corpus:
        wm = working_model(c)
        rng = random.Random(name)
        tried = fast = 0
        for _ in range(12 if c.field.order() is None else 25):
            D1, D2 = wm.sample(rng), wm.sample(rng)
            for X, Y in ((D1, D2), (D1, D1)):
                tried += 1
                D = _frequent_add(wm, X, Y)
                if D is not None:
                    fast += 1
                    assert D == _cantor(wm, X, Y), name
        assert fast >= 0.9 * tried, name


# ---------------------------------------------------------------------------
# transport to the user model
# ---------------------------------------------------------------------------

def test_link_maps_user_model_onto_working_model(corpus):
    # transform_pair is handed these two models instead of rebuilding them
    assert len(corpus) == 13
    for name, c in corpus:
        wm = working_model(c)
        assert transform(c, wm.link) == wm.model, name
        assert transform(wm.model, wm.unlink) == c, name


@pytest.mark.parametrize("name", ["p1009", "p1009_deg6", "c2_general_f"])
def test_to_point_pair_inverse_of_construction(name, corpus):
    c = {"p1009": CURVE_1009, "p1009_deg6": DEG6_1009}.get(name) or dict(corpus)[name]
    wm = working_model(c)
    F = wm.field
    rng = random.Random(9)
    classes = [random_divisor(wm, rng) for _ in range(300)]
    # degree-1 classes [P - oo] and their doubles
    for _ in range(20):
        P = sample_point(wm.model, rng)
        D = MumfordDivisor(Poly(F, [F.neg(P.x), F.one]), Poly.const(F, P.y))
        classes += [D, add(wm, D, D)]
    degrees = set()
    for D in classes:
        pair = to_point_pair(wm, D)
        degrees.add(pair.degree)
        assert pair.degree != 1 or pair.branch is not None
        if pair.degree == 2 and F.sub(F.sqr(pair.a[1]), F.mul(F.from_int(4), pair.a[0])) == F.zero:
            degrees.add("repeated root")
        assert from_point_pair(wm, pair) == D
    assert {2, "repeated root"} <= degrees
    # [P - oo] reaches the user model as P plus its Weierstrass point
    W = transform_point(wm.unlink, CurvePoint("infinity", branch=wm.model.branch_values()[0]))
    assert 1 in degrees or W.kind == "affine"
    assert to_point_pair(wm, wm.zero()).degree == 0


def test_point_pair_round_trip_degree6():
    c = DEG6_1009
    assert validate(c).ok
    wm = working_model(c)
    assert len(wm.model.branch_values()) == 1 and wm.model.f.degree == 5
    W = transform_point(wm.unlink, CurvePoint("infinity", branch=wm.model.branch_values()[0]))
    assert W == CurvePoint("affine", x=1, y=0)
    rng = random.Random(12)
    checked = 0
    for _ in range(40):
        P1, P2 = sample_point(c, rng), sample_point(c, rng)
        if P1.x == P2.x:
            continue
        pair = pair_from_points(c, P1, P2)
        D = from_point_pair(wm, pair)
        assert wm.contains(D)
        assert to_point_pair(wm, D) == pair
        checked += 1
    assert checked >= 30


def test_point_pair_symmetric_functions_rational():
    # conjugate pairs come back as base-field Mumford data
    wm = _wm_1009()
    rng = random.Random(10)
    conj = 0
    for _ in range(2000):
        D = random_divisor(wm, rng)
        pair = to_point_pair(wm, D)
        if pair.degree != 2:
            continue
        a = pair.a
        disc = (a[1] * a[1] - 4 * a[0]) % 1009
        if disc and pow(disc, 504, 1009) == 1008:
            conj += 1
            assert all(isinstance(v, int) for v in a.coeffs + pair.b.coeffs)
        if conj >= 50:
            break
    assert conj >= 50


# ---------------------------------------------------------------------------
# brute-force class group comparison over tiny fields
# ---------------------------------------------------------------------------

class _PrimeExt2:
    """GF(q^2) as a + b*w with w^2 a fixed non-residue (test bookkeeping)."""

    zero = (0, 0)

    def __init__(self, F):
        self.F = F
        self.q = F.p
        self.ns = next(
            n for n in range(2, self.q) if pow(n, (self.q - 1) // 2, self.q) == self.q - 1
        )
        self._sqrt = {}
        for e in self.elements():
            self._sqrt.setdefault(self.mul(e, e), e)

    def elements(self):
        return [(a, b) for a in range(self.q) for b in range(self.q)]

    def embed(self, a):
        return (a, 0)

    def in_base(self, e):
        return e[1] == 0

    def add(self, u, v):
        return ((u[0] + v[0]) % self.q, (u[1] + v[1]) % self.q)

    def sub(self, u, v):
        return ((u[0] - v[0]) % self.q, (u[1] - v[1]) % self.q)

    def mul(self, u, v):
        return (
            (u[0] * v[0] + self.ns * u[1] * v[1]) % self.q,
            (u[0] * v[1] + u[1] * v[0]) % self.q,
        )

    def frob(self, u):
        return (u[0], (-u[1]) % self.q)

    def poly_eval(self, p, x):
        acc = (0, 0)
        for c in reversed(p.coeffs):
            acc = self.add(self.mul(acc, x), self.embed(c))
        return acc

    def quad_solve(self, b, c):
        # y^2 + b y = c over GF(q^2), odd q: complete the square, table sqrt
        inv2 = pow(2, -1, self.q)
        hb = self.mul(b, (inv2, 0))
        disc = self.add(c, self.mul(hb, hb))
        if disc not in self._sqrt:
            return []
        s = self._sqrt[disc]
        out = {self.sub(s, hb), self.sub((0, 0), self.add(s, hb))}
        return sorted(out)


class _BinaryExt2:
    """GF(2^(2m)) with the canonical embedding of GF(2^m) (test bookkeeping)."""

    zero = 0

    def __init__(self, F):
        from g2kummer.field import BinaryField, gf2_poly_is_irreducible

        self.F = F
        self.q = F.order()
        mod = (1 << (2 * F.m)) | 1
        while not gf2_poly_is_irreducible(mod):
            mod += 2
        self.big = BinaryField(2 * F.m, mod)
        self.fwd, self.back = binary_embedding(F, self.big)

    def elements(self):
        return list(range(self.big.order()))

    def embed(self, a):
        return self.fwd[a]

    def in_base(self, e):
        return e in self.back

    def add(self, u, v):
        return u ^ v

    def mul(self, u, v):
        return self.big.mul(u, v)

    def frob(self, u):
        for _ in range(self.F.m):
            u = self.big.sqr(u)
        return u

    def poly_eval(self, p, x):
        acc = 0
        for c in reversed(p.coeffs):
            acc = self.big.add(self.big.mul(acc, x), self.fwd[c])
        return acc

    def quad_solve(self, b, c):
        return self.big.quad_solve(b, c)


def _closed_points(wm, ext):
    """Closed points of the working model: degree-1 rational points, degree-2
    Galois orbits, and the single rational place at infinity."""
    F = wm.field
    q = F.order()
    model = wm.model
    pts = {("inf",): 1}
    orbits = set()
    for x0 in range(q):
        ys = F.quad_solve(model.h(x0), model.f(x0))
        if ys:
            for y0 in ys:
                pts[("1", x0, y0)] = 1
        else:
            xe = ext.embed(x0)
            for ye in ext.quad_solve(ext.poly_eval(model.h, xe), ext.poly_eval(model.f, xe)):
                orbits.add(frozenset({(xe, ye), (ext.frob(xe), ext.frob(ye))}))
    # points with irrational x: enumerate ext elements off the base field
    for xe in ext.elements():
        if ext.in_base(xe):
            continue
        for ye in ext.quad_solve(ext.poly_eval(model.h, xe), ext.poly_eval(model.f, xe)):
            orbits.add(frozenset({(xe, ye), (ext.frob(xe), ext.frob(ye))}))
    for orb in orbits:
        pts[("2", orb)] = 2
    return pts


def _div_x_minus_r(wm, ext, r):
    F = wm.field
    model = wm.model
    vec = {("inf",): -2}
    ys = F.quad_solve(model.h(r), model.f(r))
    if len(ys) == 2:
        vec[("1", r, ys[0])] = 1
        vec[("1", r, ys[1])] = 1
    elif len(ys) == 1:
        vec[("1", r, ys[0])] = 2
    else:
        xe = ext.embed(r)
        ye = ext.quad_solve(ext.poly_eval(model.h, xe), ext.poly_eval(model.f, xe))[0]
        vec[("2", frozenset({(xe, ye), (ext.frob(xe), ext.frob(ye))}))] = 1
    return vec


def _div_quadratic_in_x(wm, ext, q_poly):
    """Divisor vector of an irreducible monic quadratic q(x)."""
    model = wm.model
    vec = {("inf",): -4}
    x1 = next(x for x in ext.elements() if not ext.in_base(x) and ext.poly_eval(q_poly, x) == ext.zero)
    ys = ext.quad_solve(ext.poly_eval(model.h, x1), ext.poly_eval(model.f, x1))
    mult = 2 if len(ys) == 1 else 1
    for y1 in ys:
        orb = frozenset({(x1, y1), (ext.frob(x1), ext.frob(y1))})
        vec[("2", orb)] = vec.get(("2", orb), 0) + mult
    return vec


def _div_y_minus_c(wm, ext, c_poly):
    """Divisor vector of y - c(x), or None when the relation is skipped
    (irreducible cubic content or a Weierstrass ambiguity)."""
    from g2kummer.algebra import roots, roots_and_quadratic_factors

    F = wm.field
    model = wm.model
    N = c_poly * c_poly + c_poly * model.h - model.f
    if N.degree != 5:
        return None
    vec = {("inf",): -5}
    total = 0
    rest = N.monic()
    for r, mult in roots(N):
        y0 = c_poly(r)
        if F.add(F.add(y0, y0), model.h(r)) == F.zero:
            # Weierstrass point: y-c and its involute both vanish to order 1
            # when the root is simple; higher multiplicity splits ambiguously.
            if mult > 1:
                return None
            vec[("1", r, y0)] = vec.get(("1", r, y0), 0) + 1
            total += 1
        else:
            vec[("1", r, y0)] = vec.get(("1", r, y0), 0) + mult
            total += mult
        fac = Poly(F, [F.neg(r), F.one])
        for _ in range(mult):
            rest = rest // fac
    for qf in roots_and_quadratic_factors(N)[1]:
        mult = 0
        probe = N
        while True:
            quot, rem = probe.divrem(qf)
            if not rem.is_zero():
                break
            mult += 1
            probe = quot
        xs = [xe for xe in ext.elements() if ext.poly_eval(qf, xe) == ext.zero]
        xe = xs[0]
        ye = ext.poly_eval(c_poly, xe)
        orb = frozenset({(xe, ye), (ext.frob(xe), ext.frob(ye))})
        vec[("2", orb)] = vec.get(("2", orb), 0) + mult
        total += 2 * mult
        for _ in range(mult):
            rest = rest // qf
    if rest.degree != 0:
        return None  # an irreducible factor of degree >= 3 remains
    assert total == 5
    return vec


def _smith_normal_form(A):
    """(S, V): U A V = S diagonal, V unimodular.

    Column operations are mirrored on V (applied on the right), which is all
    the lattice-membership test needs.  Pivots are chosen with the smallest
    absolute value and neighbours are reduced by remainder to keep the
    integer entries from exploding."""
    A = [row[:] for row in A]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def col_addmul(dst, src, k):
        for r in A:
            r[dst] += k * r[src]
        for r in V:
            r[dst] += k * r[src]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]

    def row_addmul(dst, src, k):
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]

    t = 0
    while t < min(rows, cols):
        piv = None
        best = None
        for i in range(t, rows):
            Ai = A[i]
            for j in range(t, cols):
                v = Ai[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if A[i][t]:
                    k = A[i][t] // A[t][t]
                    if k:
                        row_addmul(i, t, -k)
                    if A[i][t]:
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, cols):
                if A[t][j]:
                    k = A[t][j] // A[t][t]
                    if k:
                        col_addmul(j, t, -k)
                    if A[t][j]:
                        col_swap(t, j)
                        done = False
            if done:
                break
        if A[t][t] < 0:
            col_addmul(t, t, -2)
        t += 1
    return A, V


def _lattice_membership(S, V, t_vec):
    """Is t in the row lattice of A, given U A V = S?"""
    cols = len(V)
    tv = [sum(t_vec[i] * V[i][j] for i in range(cols)) for j in range(cols)]
    rank = 0
    for i in range(min(len(S), cols)):
        if i < len(S) and S[i][i]:
            rank = i + 1
    for j in range(cols):
        if j < rank:
            if tv[j] % S[j][j]:
                return False
        else:
            if tv[j]:
                return False
    return True


@pytest.mark.parametrize("which", ["gf5", "gf8"])
def test_brute_force_class_group(which):
    if which == "gf5":
        F = PrimeField(5)
        c = CurveModel(F, Poly.from_ints(F, [2, 1, 0, 0, 0, 1]), Poly(F, []))
        ext = _PrimeExt2(F)
    else:
        F = B8
        c = CurveModel(F, Poly.from_ints(F, [0, 1, 0, 1, 0, 1]), Poly.from_ints(F, [0, 1]))
        ext = _BinaryExt2(F)
    assert validate(c).ok
    wm = working_model(c)
    assert is_identity(wm.link)
    q = F.order()
    model = wm.model

    # zeta function order from point counts over F_q and F_{q^2}
    n1 = 1 + sum(len(F.quad_solve(model.h(x), model.f(x))) for x in range(q))
    n2 = 1
    for xe in ext.elements():
        n2 += len(ext.quad_solve(ext.poly_eval(model.h, xe), ext.poly_eval(model.f, xe)))
    s1 = q + 1 - n1
    s2 = q * q + 1 - n2
    zeta_order = 1 - s1 + (s1 * s1 - s2) // 2 - q * s1 + q * q

    divisors = enumerate_divisors(wm)
    assert len(divisors) == zeta_order

    # principal relations: x - r and y - c(x) with deg c <= 2
    pts = _closed_points(wm, ext)
    index = {pt: i for i, pt in enumerate(sorted(pts, key=repr))}
    base_pts = [pt for pt in sorted(pts, key=repr) if pt != ("inf",)]
    col = {pt: i for i, pt in enumerate(base_pts)}

    def vec_to_row(vec):
        row = [0] * len(base_pts)
        for pt, m in vec.items():
            if pt != ("inf",):
                row[col[pt]] = m
        return row

    relations = []
    seen_rows = set()
    for r in range(q):
        row = vec_to_row(_div_x_minus_r(wm, ext, r))
        if tuple(row) not in seen_rows:
            seen_rows.add(tuple(row))
            relations.append(row)
    for a1 in range(q):
        for a0 in range(q):
            qpoly = Poly(F, [a0, a1, F.one])
            if F.quad_solve(a1, F.neg(a0)):
                continue  # reducible: covered by the linear relations
            row = vec_to_row(_div_quadratic_in_x(wm, ext, qpoly))
            if tuple(row) not in seen_rows:
                seen_rows.add(tuple(row))
                relations.append(row)
    for c0 in range(q):
        for c1 in range(q):
            for c2 in range(q):
                v = _div_y_minus_c(wm, ext, Poly(F, [c0, c1, c2]))
                if v is not None:
                    row = vec_to_row(v)
                    if tuple(row) not in seen_rows:
                        seen_rows.add(tuple(row))
                        relations.append(row)

    S, V = _smith_normal_form(relations)
    rank = sum(1 for i in range(min(len(S), len(base_pts))) if S[i][i])
    assert rank == len(base_pts), "relation lattice must have full rank"
    order = 1
    for i in range(rank):
        order *= abs(S[i][i])
    assert order == zeta_order

    # Cantor sums agree with the relation lattice (independent of Cantor)
    def divisor_vector(D):
        vec = {}
        if D.degree == 0:
            return [0] * len(base_pts)
        if D.degree == 1:
            x0 = F.neg(D.a[0])
            vec[("1", x0, D.b(x0))] = 1
            vec[("inf",)] = -1
        else:
            rsol = F.quad_solve(D.a[1], F.neg(D.a[0]))
            if rsol:
                if len(rsol) == 1:
                    vec[("1", rsol[0], D.b(rsol[0]))] = 2
                else:
                    for r in rsol:
                        key = ("1", r, D.b(r))
                        vec[key] = vec.get(key, 0) + 1
            else:
                xs = [xe for xe in ext.elements()
                      if ext.poly_eval(D.a, xe) == ext.zero]
                xe = next(x for x in xs if not ext.in_base(x))
                ye = ext.poly_eval(D.b, xe)
                vec[("2", frozenset({(xe, ye), (ext.frob(xe), ext.frob(ye))}))] = 1
            vec[("inf",)] = -2
        return vec_to_row(vec)

    rng = random.Random(13)
    pool = divisors if which == "gf5" else [divisors[rng.randrange(len(divisors))] for _ in range(60)]
    checks = 0
    for i in range(len(pool)):
        for j in range(i, min(i + 8, len(pool))):
            D1, D2 = pool[i], pool[j]
            D3 = add(wm, D1, D2)
            t = [a + b - cc for a, b, cc in zip(divisor_vector(D1), divisor_vector(D2), divisor_vector(D3))]
            assert _lattice_membership(S, V, t), (D1, D2, D3)
            checks += 1
    assert checks > 100

    # order of every element divides the group order
    for D in pool[:40]:
        assert scalar_mul(wm, D, zeta_order).is_zero()
