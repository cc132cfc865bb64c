import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kummer import algebra
from g2kummer.algebra import (
    BIQUADRATIC44,
    Matrix,
    Poly,
    QUARTIC4,
    SYMMETRIC_PAIRS,
    expand_symmetric,
    roots,
    roots_and_quadratic_factors,
    solve_kernel,
)
from g2kummer.errors import AsymmetricForm, DivisionByZero, LengthMismatch, UnsupportedField
from g2kummer.field import BinaryField, PrimeField, RationalField

from .helpers import eval_biquadratic, eval_quartic

F7 = PrimeField(7)
F1009 = PrimeField(1009)
B8 = BinaryField(3, 0b1011)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def test_poly_ops_examples():
    x = Poly.x(F7)
    one = Poly.const(F7, 1)
    g = (x * x - one).gcd(x - one)
    assert g == x - one  # monic
    q, r = (x * x * x).divrem(x * x)
    assert q == x and r.is_zero()
    assert (x + one).coeffs == (1, 1)
    assert (x * x).coeffs == (0, 0, 1)


def test_poly_iterates_over_its_coefficients():
    # islice, so that an iterator that never stops fails instead of hanging
    assert list(islice(P(F1009, 1, 2), 5)) == [1, 2]
    assert list(islice(Poly(F1009, [3, 0, 0]), 5)) == [3]
    assert list(islice(Poly(F1009, []), 5)) == []


def test_gcd_squarefree_sextic():
    # fixed random-looking squarefree sextic over GF(1009): gcd(f, f') = 1
    f = P(F1009, 101, 7, 0, 433, 12, 999, 1)
    g = f.gcd(f.deriv())
    assert g.degree == 0


def test_divrem_division_by_zero():
    with pytest.raises(DivisionByZero):
        Poly.x(F7).divrem(Poly(F7, []))


coef = st.integers(min_value=0, max_value=1008)


@given(st.lists(coef, min_size=1, max_size=8), st.lists(coef, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_divrem_property(ac, bc):
    a, b = Poly(F1009, ac), Poly(F1009, bc)
    if b.is_zero():
        return
    q, r = a.divrem(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(st.lists(coef, min_size=1, max_size=6), st.lists(coef, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_xgcd_property(ac, bc):
    a, b = Poly(F1009, ac), Poly(F1009, bc)
    if a.is_zero() and b.is_zero():
        return
    g, s, t = a.xgcd(b)
    assert s * a + t * b == g
    if not a.is_zero():
        assert (a % g).is_zero()


def test_roots_examples():
    x = Poly.x(F7)
    assert roots(x * x - Poly.const(F7, 1)) == [(1, 1), (6, 1)]
    xb = Poly.x(B8)
    assert roots(xb * xb + xb) == [(0, 1), (1, 1)]
    QQ = RationalField()
    xq = Poly.x(QQ)
    half, three = Poly.const(QQ, Fraction(1, 2)), Poly.const(QQ, Fraction(3))
    assert roots(xq * (xq - half) * (xq - half) * (xq + three)) == [(-3, 1), (0, 1), (Fraction(1, 2), 2)]
    assert roots(Poly.const(QQ, QQ.one)) == []
    with pytest.raises(UnsupportedField):
        roots_and_quadratic_factors(xq * xq + Poly.const(QQ, QQ.one))


def test_roots_random_cubics_vs_exhaustive():
    rng = random.Random(31)
    for _ in range(10):
        p = Poly(F1009, [F1009.random(rng) for _ in range(3)] + [1])
        got = dict(roots(p))
        brute = [v for v in range(1009) if p(v) == 0]
        assert sorted(got) == brute


@pytest.mark.parametrize("F", [PrimeField(13), BinaryField(4, 0b10011)],
                         ids=lambda F: F.spec_string())
def test_roots_with_multiplicity_small_fields(F):
    rng = random.Random(F.order())
    x = Poly.x(F)
    for _ in range(20):
        r1, r2 = F.random(rng), F.random(rng)
        p = (x - Poly.const(F, r1)) * (x - Poly.const(F, r1)) * (x - Poly.const(F, r2))
        got = dict(roots(p))
        if r1 == r2:
            assert got == {r1: 3}
        else:
            assert got == {r1: 2, r2: 1}


def _roots_by_scan(p):
    F = p.field
    out = []
    for v in range(F.order()):
        if p(v) != F.zero:
            continue
        mult, rest = 0, p
        factor = Poly(F, [F.neg(v), F.one])
        while True:
            quot, rem = rest.divrem(factor)
            if not rem.is_zero():
                break
            mult, rest = mult + 1, quot
        if mult:
            out.append((v, mult))
    return sorted(out, key=lambda rm: rm[0])


@pytest.mark.parametrize(
    "F",
    [BinaryField(1, 0b11), BinaryField(2, 0b111), PrimeField(3), F7, F1009],
    ids=lambda F: F.spec_string(),
)
def test_roots_match_brute_force_scan(F):
    # equal-degree splitting serves every finite field, the smallest ones too
    rng = random.Random(F.order() + 5)
    x = Poly.x(F)
    for _ in range(40):
        p = Poly(F, [F.random(rng) for _ in range(rng.randrange(1, 6))] + [F.one])
        for _ in range(rng.randrange(4)):
            p = p * (x - Poly.const(F, F.random(rng)))
        assert roots(p) == _roots_by_scan(p)
    if F.order() > 7:
        return
    # every element a root: the splitting must separate all of them
    everything = Poly.const(F, F.one)
    for v in range(F.order()):
        everything = everything * (x - Poly.const(F, v))
    assert roots(everything) == [(v, 1) for v in range(F.order())]


def test_roots_of_split_polynomials_over_gf2_16():
    F = BinaryField(16, 0x1002B)
    rng = random.Random(16)
    x = Poly.x(F)
    for _ in range(20):
        chosen = [F.random(rng) for _ in range(rng.randrange(1, 7))]
        chosen += rng.sample(chosen, rng.randrange(len(chosen)))  # repeated roots
        p = Poly.const(F, F.random(rng) or F.one)
        for r in chosen:
            p = p * (x - Poly.const(F, r))
        expect = sorted({r: chosen.count(r) for r in chosen}.items(), key=lambda rm: rm[0])
        assert roots(p) == expect


def test_irreducible_quadratic_factors():
    x = Poly.x(F7)
    one = Poly.const(F7, 1)
    # x^2 + 1 is irreducible over GF(7) (7 = 3 mod 4); x^2 + x + 1 splits
    p = (x * x - one) * (x * x + one) * (x * x + x + one)
    assert roots_and_quadratic_factors(p)[1] == [x * x + one]
    # over GF(8) two of the three factors are x^2 + 4x + t
    p = Poly(B8, [5, 4, 0, 4, 4, 1, 5, 6, 1])
    assert roots_and_quadratic_factors(p)[1] == [Poly(B8, [1, 4, 1]), Poly(B8, [4, 4, 1]), Poly(B8, [7, 3, 1])]
    assert roots(p) == [(2, 1), (7, 1)]


def _irreducible_quadratics(F):
    """Every monic irreducible quadratic over a small field: no root."""
    q = F.order()
    return [
        f
        for f in (Poly(F, [b, a, F.one]) for a in range(q) for b in range(q))
        if all(f(v) != F.zero for v in range(q))
    ]


@pytest.mark.parametrize(
    "F",
    [BinaryField(1, 0b11), BinaryField(2, 0b111), B8, PrimeField(3), F7],
    ids=lambda F: F.spec_string(),
)
def test_irreducible_quadratic_factors_match_brute_force_scan(F):
    rng = random.Random(F.order() + 17)
    x = Poly.x(F)
    quads = _irreducible_quadratics(F)
    chosen = [rng.sample(quads, rng.randrange(min(4, len(quads)) + 1)) for _ in range(25)]
    if F.characteristic() == 2:
        # factors x^2 + s x + t sharing s: a probe must not see only s
        for s in range(1, F.order()):
            same = [f for f in quads if f[1] == s]
            chosen += [same[:2], same]
    for factors in chosen:
        p = Poly.const(F, F.random(rng) or F.one)
        for f in factors:
            p = p * f
        for _ in range(rng.randrange(5)):  # linear factors, repeats allowed
            p = p * (x - Poly.const(F, F.random(rng)))
        expect = sorted(
            (f for f in quads if (p % f).is_zero()), key=lambda f: f.coeffs
        )
        assert roots_and_quadratic_factors(p)[1] == expect


def _rank(M):
    return algebra._rref(M.field, [list(r) for r in M.rows])[0]


def test_kernel_examples():
    assert solve_kernel(Matrix.identity(F1009, 4)) == []
    assert solve_kernel(Matrix(F1009, [])) == []
    Z = Matrix(F1009, [[0] * 5 for _ in range(3)])
    basis = solve_kernel(Z)
    assert len(basis) == 5
    for v in basis:
        nz = [a for a in v if a != 0]
        assert nz[0] == 1


def test_kernel_planted_200x150():
    rng = random.Random(9)
    p = 1009
    v = [F1009.random(rng) for _ in range(150)]
    while v[-1] == 0:
        v[-1] = F1009.random(rng)
    inv_last = pow(v[-1], -1, p)
    proj = []
    for i in range(149):
        row = [0] * 150
        row[i] = 1
        row[149] = -v[i] * inv_last % p
        proj.append(row)
    C = [[F1009.random(rng) for _ in range(149)] for _ in range(200)]
    M = Matrix(
        F1009,
        [[sum(C[i][k] * proj[k][j] for k in range(149)) % p for j in range(150)] for i in range(200)],
    )
    ker = solve_kernel(M)
    assert len(ker) == 1
    kv = ker[0]
    assert all(sum(M.rows[i][j] * kv[j] for j in range(150)) % p == 0 for i in range(200))
    ratio = kv[0] * pow(v[0], -1, p) % p
    assert all(kv[j] == ratio * v[j] % p for j in range(150))
    assert _rank(M) + len(ker) == 150


def test_kernel_rank_nullity_random():
    rng = random.Random(4)
    for F in (F1009, BinaryField(4, 0b10011)):
        M = Matrix(F, [[F.random(rng) for _ in range(12)] for _ in range(7)])
        ker = solve_kernel(M)
        assert _rank(M) + len(ker) == 12
        for v in ker:
            assert all(a == F.zero for a in M.apply(v))


def test_matrix_inverse():
    rng = random.Random(8)
    while True:
        M = Matrix(F1009, [[F1009.random(rng) for _ in range(4)] for _ in range(4)])
        if _rank(M) == 4:
            break
    assert M.mul(M.inverse()) == Matrix.identity(F1009, 4)


def _gauss_jordan(F, rows, limit_cols):
    """Textbook Gauss-Jordan on a copy, through Field's own operations: each
    pivot row is scaled to a unit pivot and its column cleared from every
    other row at once."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank, pivots = 0, []
    for j in range(ncols if limit_cols is None else limit_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j] != F.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][j])
        prow = rows[rank] = [F.mul(inv, a) for a in rows[rank]]
        for i, row in enumerate(rows):
            c = row[j]
            if i != rank and c != F.zero:
                rows[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(row, prow)]
        pivots.append(j)
        rank += 1
    return rank, pivots, rows


def _random_system(F, rng, nrows, ncols, rank):
    """An nrows x ncols matrix of rank at most ``rank``: a product of random
    nrows x rank and rank x ncols factors."""
    def draw():
        if F.order() is None:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return F.random(rng)

    left = [[draw() for _ in range(rank)] for _ in range(nrows)]
    right = [[draw() for _ in range(ncols)] for _ in range(rank)]
    out = []
    for lrow in left:
        row = []
        for j in range(ncols):
            acc = F.zero
            for a, rrow in zip(lrow, right):
                acc = F.add(acc, F.mul(a, rrow[j]))
            row.append(acc)
        out.append(row)
    return out, draw


def _is_reduced(F, a):
    if F.kind == "prime":
        return type(a) is int and 0 <= a < F.p
    if F.kind == "binary":
        return type(a) is int and 0 <= a < 1 << F.m
    return isinstance(a, Fraction)


@pytest.mark.parametrize(
    "F",
    [
        F1009,
        PrimeField(2**61 - 1),
        BinaryField(16, 0x1002B),
        B8,
        BinaryField(23, (1 << 23) | (1 << 5) | 1),  # beyond the log/exp tables
        BinaryField(1, 0b11),
        BinaryField(2, 0b111),
        BinaryField(32, (1 << 32) | 0x8D),
        BinaryField(63, (1 << 63) | 0b11),  # 126-bit lanes
        RationalField(),
    ],
    ids=lambda F: F.spec_string(),
)
def test_rref_matches_gauss_jordan(F):
    rng = random.Random(f"rref/{F.spec_string()}")
    shapes = [(0, 0), (1, 1), (1, 7), (7, 1), (4, 4), (6, 9), (9, 6), (12, 12), (15, 10)]
    consistent = inconsistent = 0
    for nrows, ncols in shapes * 4:
        k = rng.randrange(min(nrows, ncols) + 1)
        rows, draw = _random_system(F, rng, nrows, ncols, k)
        limit = None
        if ncols > 1 and rng.random() < 0.5:
            # augmented: the product's own trailing columns as right-hand
            # sides, or arbitrary ones
            limit = rng.randrange(1, ncols)
            if rng.random() < 0.5:
                for row in rows:
                    row[limit:] = [draw() for _ in range(ncols - limit)]
        expect_rank, expect_pivots, expect = _gauss_jordan(F, rows, limit)
        got = [list(r) for r in rows]
        rank, pivots = algebra._rref(F, got, limit)
        assert (rank, pivots) == (expect_rank, expect_pivots)
        assert got[:rank] == expect[:rank]
        for r, j in enumerate(pivots):
            assert [row[j] for row in got] == [F.one if i == r else F.zero for i in range(nrows)]
        assert all(_is_reduced(F, a) for row in got for a in row)
        pcols = ncols if limit is None else limit
        assert all(a == F.zero for row in got[rank:] for a in row[:pcols])
        residual = [any(a != F.zero for a in row) for row in got[rank:]]
        assert residual == [any(a != F.zero for a in row) for row in expect[rank:]]
        if limit is not None:
            # consistent exactly when the right-hand sides add no rank
            full_rank = _gauss_jordan(F, rows, None)[0]
            assert any(residual) == (full_rank > rank)
            consistent += not any(residual)
            inconsistent += any(residual)
    assert consistent and inconsistent
    if F.kind == "binary":
        # every entry 2^m - 1, and the same off a unit diagonal, where each
        # update multiplies 2^m - 1 by 2^m - 1: a lane of the full 2m - 1 bits
        top = (1 << F.m) - 1
        for diagonal in (top, F.one):
            rows = [[diagonal if i == j else top for j in range(9)] for i in range(7)]
            for limit in (None, 5):
                got = [list(r) for r in rows]
                rank, pivots = algebra._rref(F, got, limit)
                assert (rank, pivots, got) == _gauss_jordan(F, rows, limit)


def test_rref_of_a_130_by_110_system_over_gf2_16():
    # the pair kernel's shape, with the stage-two system's 55 pivot columns
    F = BinaryField(16, 0x1002B)
    rng = random.Random("rref/130x110")
    rows = [[F.random(rng) for _ in range(110)] for _ in range(130)]
    got = [list(r) for r in rows]
    rank, pivots = algebra._rref(F, got, 55)
    expect_rank, expect_pivots, expect = _gauss_jordan(F, rows, 55)
    assert (rank, pivots, got) == (expect_rank, expect_pivots, expect)
    assert rank == 55


@pytest.mark.parametrize("F", [BinaryField(16, 0x1002B), BinaryField(23, (1 << 23) | (1 << 5) | 1)], ids=str)
def test_rref_over_gf2m_counts_no_field_operations(F):
    from g2kummer import field as field_mod
    from g2kummer.field import OpCounter

    rows, _draw = _random_system(F, random.Random(16), 14, 12, 9)
    ctr = OpCounter()
    field_mod.Field.counter = ctr
    try:
        rank, _pivots = algebra._rref(F, rows, 10)
    finally:
        field_mod.Field.counter = None
    assert rank == 9
    assert ctr.snapshot() == {"mul": 0, "sqr": 0, "inv": 0}


def test_rref_of_an_all_zero_matrix():
    for F in (F1009, B8, RationalField()):
        rows = [[F.zero] * 5 for _ in range(3)]
        assert algebra._rref(F, rows) == (0, [])
        assert rows == [[F.zero] * 5 for _ in range(3)]


def test_basis_shapes_and_order():
    assert QUARTIC4.size == 35
    assert BIQUADRATIC44.size == 100
    assert QUARTIC4.exponents[0] == (4, 0, 0, 0)
    assert QUARTIC4.exponents[-1] == (0, 0, 0, 4)
    # graded-lex: k1 > k2 > k3 > k4, exponent vectors descending
    assert QUARTIC4.exponents.index((3, 1, 0, 0)) == 1
    assert BIQUADRATIC44.exponents[0] == ((2, 0, 0, 0), (2, 0, 0, 0))
    assert BIQUADRATIC44.exponents[1] == ((2, 0, 0, 0), (1, 1, 0, 0))
    assert BIQUADRATIC44.exponents[10] == ((1, 1, 0, 0), (2, 0, 0, 0))


def test_eval_form_examples():
    assert eval_quartic(F1009, [0] * 35, (1, 2, 3, 4)) == 0
    coeffs = [0] * 35
    coeffs[QUARTIC4.index[(0, 0, 0, 4)]] = 1
    assert eval_quartic(F1009, coeffs, (0, 0, 0, 1)) == 1
    with pytest.raises(LengthMismatch):
        eval_quartic(F1009, [1] * 34, (0, 0, 0, 1))


def test_eval_form_vs_naive_oracle():
    rng = random.Random(77)
    cvec = [F1009.random(rng) for _ in range(35)]
    pt = tuple(F1009.random(rng) for _ in range(4))
    naive = 0
    for c, e in zip(cvec, QUARTIC4.exponents):
        t = c
        for idx in range(4):
            t = t * pow(pt[idx], e[idx], 1009) % 1009
        naive = (naive + t) % 1009
    assert eval_quartic(F1009, cvec, pt) == naive
    cb = expand_symmetric(F1009, [F1009.random(rng) for _ in range(55)])
    ptx = tuple(F1009.random(rng) for _ in range(4))
    pty = tuple(F1009.random(rng) for _ in range(4))
    naive = 0
    for c, (ex, ey) in zip(cb, BIQUADRATIC44.exponents):
        t = c
        for idx in range(4):
            t = t * pow(ptx[idx], ex[idx], 1009) % 1009
            t = t * pow(pty[idx], ey[idx], 1009) % 1009
        naive = (naive + t) % 1009
    assert eval_biquadratic(F1009, cb, ptx, pty) == naive


@pytest.mark.parametrize("F", [F1009, BinaryField(16, 0x1002B)], ids=lambda F: F.spec_string())
def test_symmetric_basis_row_matches_expanded_form(F):
    # a symmetric form's value is its 55 coefficients dotted with the sample
    # row, in characteristic 2 as well, and the expansion is symmetric
    rng = random.Random(78)
    for _ in range(20):
        s = [F.random(rng) for _ in range(55)]
        x = tuple(F.random(rng) for _ in range(4))
        y = tuple(F.random(rng) for _ in range(4))
        full = expand_symmetric(F, s)
        dot = F.zero
        for c, m in zip(s, F.symmetric_products(algebra.quadratic_monomials(F, x), algebra.quadratic_monomials(F, y), SYMMETRIC_PAIRS)):
            dot = F.add(dot, F.mul(c, m))
        assert eval_biquadratic(F, full, x, y) == dot == eval_biquadratic(F, full, y, x)


def _naive_monomial(F, point, exps):
    t = F.one
    for v, e in zip(point, exps):
        for _ in range(e):
            t = F.mul(t, v)
    return t


def _naive_quartic(F, coeffs, x):
    acc = F.zero
    for c, e in zip(coeffs, QUARTIC4.exponents):
        acc = F.add(acc, F.mul(c, _naive_monomial(F, x, e)))
    return acc


def _naive_biquadratic(F, coeffs, x, y):
    acc = F.zero
    for c, (ex, ey) in zip(coeffs, BIQUADRATIC44.exponents):
        acc = F.add(acc, F.mul(c, F.mul(_naive_monomial(F, x, ex), _naive_monomial(F, y, ey))))
    return acc


def _random_value(F, rng):
    if F.kind == "rational":
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
    return F.random(rng)


# GF(p) and tabled GF(2^m) take the raw-integer products; GF(2^23) has no
# log/exp tables and Q has no raw integers, so those two take Field's
KERNEL_FIELDS = [
    F1009,
    PrimeField(2**61 - 1),
    B8,
    BinaryField(16, 0x1002B),
    BinaryField(23, (1 << 23) | 0b100001),
    RationalField(),
]


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=lambda F: F.spec_string())
def test_symmetric_products_match_pair_products(F):
    from g2kummer import field as field_mod
    from g2kummer.field import OpCounter

    rng = random.Random(80)
    pairs = [pair for pair in SYMMETRIC_PAIRS if rng.random() < 0.6]
    assert {a == b for a, b in pairs} == {True, False}
    for _ in range(10):
        qx = [_random_value(F, rng) if rng.random() < 0.8 else F.zero for _ in range(10)]
        qy = [_random_value(F, rng) if rng.random() < 0.8 else F.zero for _ in range(10)]
        straight = F.pair_products(qx + qy, [(a, 10 + b) for a, b in pairs])
        swapped = F.pair_products(qx + qy, [(b, 10 + a) for a, b in pairs])
        expected = [u if a == b else F.add(u, v) for (a, b), u, v in zip(pairs, straight, swapped)]
        ctr = OpCounter()
        field_mod.Field.counter = ctr
        try:
            assert F.symmetric_products(qx, qy, pairs) == expected
        finally:
            field_mod.Field.counter = None
        assert ctr.mul == sum(1 if a == b else 2 for a, b in pairs) and ctr.inv == 0


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=lambda F: F.spec_string())
def test_compiled_forms_match_a_dense_evaluation(F):
    from g2kummer import field as field_mod
    from g2kummer.field import OpCounter

    rng = random.Random(79)

    def sparse(n):
        return [_random_value(F, rng) if rng.random() < 0.5 else F.zero for _ in range(n)]

    quartics = [sparse(35) for _ in range(4)]
    biquadratics = {key: expand_symmetric(F, sparse(55)) for key in range(5)}
    biquadratics[5] = [F.zero] * 100
    forms = algebra.CompiledForms(F, quartics, biquadratics)
    asymmetric = list(biquadratics[0])
    asymmetric[10 * 2 + 7] = F.add(asymmetric[10 * 7 + 2], F.one)
    with pytest.raises(AsymmetricForm):
        algebra.CompiledForms(F, biquadratics={0: asymmetric})
    keys = [3, 0, 5, 2]
    zero, one = F.zero, F.one
    points = [tuple(_random_value(F, rng) for _ in range(4)) for _ in range(6)]
    points += [(zero, zero, zero, one), (one, zero, zero, zero), (zero, points[0][1], zero, points[0][3])]
    for x in points:
        for y in points[-4:]:
            ctr = OpCounter()
            field_mod.Field.counter = ctr
            try:
                qx, qy = algebra.quadratic_monomials(F, x), algebra.quadratic_monomials(F, y)
                quartic_vals = forms.quartic_values(qx)
                quartic_muls, ctr.mul = ctr.mul, 0
                biquadratic_vals = forms.biquadratic_values(keys, qx, qy)
            finally:
                field_mod.Field.counter = None
            assert quartic_vals == [_naive_quartic(F, q, x) for q in quartics]
            assert biquadratic_vals == [_naive_biquadratic(F, biquadratics[k], x, y) for k in keys]
            assert quartic_muls == 2 * algebra.QUADRATIC_MULS + forms.quartic_muls()
            assert ctr.mul == forms.biquadratic_muls(keys)
