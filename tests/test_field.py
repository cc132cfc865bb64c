import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kummer.errors import DivisionByZero, NoSolutionCertificate, UnsupportedField
from g2kummer.field import (
    BinaryField,
    PrimeField,
    RationalField,
    _gf2x_inv,
    _gf2x_mulmod,
    field_from_spec,
    gf2_poly_is_irreducible,
)

GF7 = PrimeField(7)
GF4 = BinaryField(2, 0b111)
QQ = RationalField()
SMALL_FIELDS = [
    PrimeField(3),
    PrimeField(7),
    PrimeField(13),
    BinaryField(1, 0b10),
    BinaryField(2, 0b111),
    BinaryField(3, 0b1011),
    BinaryField(4, 0b10011),
]


def test_arith_examples():
    assert GF7.mul(3, 5) == 1
    assert GF4.mul(2, 2) == 3  # t*t = t+1 under t^2 = t+1
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF7.inv(0)
    with pytest.raises(DivisionByZero):
        GF4.inv(0)


def test_quad_solve_examples():
    assert GF7.quad_solve(0, 2) == [3, 4]
    assert GF4.quad_solve(1, 1) == [2, 3]  # {t, t+1}: t^2 + t = 1
    # exhaustive check over all four elements shows c = t has no solution
    assert [y for y in range(4) if GF4.sqr(y) ^ GF4.mul(1, y) == 2] == []
    assert GF4.quad_solve(1, 2) == []


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=lambda F: F.spec_string())
def test_quad_solve_exhaustive_small_fields(F):
    q = F.order()
    for b in range(q):
        for c in range(q):
            got = F.quad_solve(b, c)
            brute = sorted(
                y for y in range(q) if F.add(F.sqr(y), F.mul(b, y)) == c
            )
            assert got == brute, (F, b, c)


@pytest.mark.parametrize("F", [f for f in SMALL_FIELDS if f.kind == "binary"],
                         ids=lambda F: F.spec_string())
def test_binary_squaring_bijection(F):
    q = F.order()
    images = {F.sqr(v) for v in range(q)}
    assert len(images) == q
    for c in range(q):
        sols = F.quad_solve(0, c)
        assert len(sols) == 1
        assert F.sqr(sols[0]) == c


def test_rational_quad_solve():
    # y^2 + y = 6 -> y in {2, -3}
    got = QQ.quad_solve(Fraction(1), Fraction(6))
    assert got == [Fraction(-3), Fraction(2)]
    with pytest.raises(NoSolutionCertificate):
        QQ.quad_solve(Fraction(0), Fraction(2))


def test_random_element_range_and_determinism():
    F = PrimeField(3)
    rng = random.Random(11)
    assert all(F.random(rng) in (0, 1, 2) for _ in range(50))
    B = BinaryField(4, 0b10011)
    r1, r2 = random.Random(5), random.Random(5)
    a = [B.random(r1) for _ in range(20)]
    assert a == [B.random(r2) for _ in range(20)]
    assert all(0 <= v < 16 for v in a)
    with pytest.raises(UnsupportedField):
        QQ.random(rng)


def test_random_element_uniformity_chi_square():
    # 10^4 draws over GF(101): each residue within 5 sigma of the mean
    F = PrimeField(101)
    rng = random.Random(202)
    n = 10_000
    counts = [0] * 101
    for _ in range(n):
        counts[F.random(rng)] += 1
    mean = n / 101
    sigma = (n * (1 / 101) * (1 - 1 / 101)) ** 0.5
    assert all(abs(c - mean) <= 5 * sigma for c in counts)


@pytest.mark.parametrize("F", SMALL_FIELDS + [PrimeField(1009)], ids=lambda F: F.spec_string())
def test_field_axioms_random_triples(F):
    rng = random.Random(F.order())
    for _ in range(1000):
        a, b, c = (F.random(rng) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
        assert F.add(a, F.neg(a)) == F.zero


@given(st.fractions(), st.fractions(), st.fractions())
@settings(max_examples=200, deadline=None)
def test_rational_axioms(a, b, c):
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == 1


def test_spec_string_round_trip():
    for F in SMALL_FIELDS + [QQ, PrimeField((1 << 61) - 1)]:
        assert field_from_spec(F.spec_string()) == F
    F = field_from_spec("binary:m=16,mod=0x1002b")
    assert F.m == 16 and F.mod == 0x1002B


@pytest.mark.parametrize("text", [
    "prime:q=7", "prime:p", "prime:p=7,p=11", "prime:p=7,m=2", "binary:m=4", "binary:mod=0x13",
    "prime:p=x", "prime:", "finite:p=7",
])
def test_malformed_field_spec_is_value_error(text):
    with pytest.raises(ValueError):
        field_from_spec(text)


_SPEC_TEXT = st.one_of(
    st.text(max_size=24),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["prime", "binary"]),
        st.text(alphabet="pmodq=,x0123456789abf ", max_size=24),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_SPEC_TEXT)
def test_field_spec_parser_raises_only_value_error(text):
    try:
        F = field_from_spec(text)
    except ValueError:
        return
    assert field_from_spec(F.spec_string()) == F


def test_rational_zero_denominator_is_value_error():
    with pytest.raises(ValueError):
        QQ.parse("1/0")


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        BinaryField(4, 0b10001)  # x^4 + 1 = (x+1)^4
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(2)


@pytest.mark.parametrize("m,mod", [(1, -3), (2, -0x7), (16, -0x1002B)])
def test_negative_binary_modulus_rejected(m, mod):
    # the bit length of -mod matches m, but a negative int is no bit-pattern
    with pytest.raises(ValueError, match="nonnegative"):
        BinaryField(m, mod)


def test_element_parse_format():
    assert GF7.parse("12") == 5
    B = BinaryField(16, 0x1002B)
    assert B.parse("0x2b") == 0x2B
    assert B.to_str(43) == "0x2b"
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.to_str(Fraction(-7, 3)) == "-7/3"


def test_sqrt_prime_both_residue_classes():
    for p in (1009, (1 << 61) - 1):
        F = PrimeField(p)
        rng = random.Random(p)
        for _ in range(50):
            a = F.random(rng)
            s = F.sqrt(F.sqr(a))
            assert s is not None and F.sqr(s) == F.sqr(a)
        nonresidues = 0
        for _ in range(50):
            a = F.random(rng)
            if a and F.sqrt(a) is None:
                nonresidues += 1
        assert nonresidues > 0


def test_sqrt_prime_equals_the_euler_criterion_then_root():
    # p = 1019 is 3 mod 4 (one exponentiation, then a squaring check);
    # p = 1009 is 1 mod 4 (Tonelli-Shanks)
    for p in (1019, 1009):
        F = PrimeField(p)
        for a in range(p):
            s = F.sqrt(a)
            if a and pow(a, (p - 1) // 2, p) != 1:
                assert s is None
            elif p % 4 == 3:
                assert s == pow(a, (p + 1) // 4, p)
            else:
                assert s * s % p == a


def _half_trace(F, a):
    h = x = a
    for _ in range((F.m - 1) // 2):
        x = F.sqr(F.sqr(x))
        h ^= x
    return h


def _eliminated_root(F, a):
    """The root an F2 elimination of z^2 + z = a on the polynomial basis
    gives: column 0 is zero, so bit 0 stays clear."""
    m = F.m
    cols = [F.sqr(1 << j) ^ (1 << j) for j in range(m)]
    rows = [[sum((cols[j] >> i & 1) << j for j in range(m)), a >> i & 1] for i in range(m)]
    pivot_of, rank = {}, 0
    for j in range(m):
        piv = next((i for i in range(rank, m) if rows[i][0] >> j & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr, prhs = rows[rank]
        for i in range(m):
            if i != rank and rows[i][0] >> j & 1:
                rows[i][0] ^= pr
                rows[i][1] ^= prhs
        pivot_of[j] = rank
        rank += 1
    if any(rows[i][1] for i in range(rank, m)):
        return None
    return sum(1 << j for j, i in pivot_of.items() if rows[i][1])


def test_artin_schreier_brute_force_small_binary_fields():
    # every a of every GF(2^m), m <= 6: no root exactly when there is none,
    # else the half trace (odd m) or the root with bit 0 clear (even m)
    for m in range(1, 7):
        for mod in range(1 << m, 1 << (m + 1)):
            if not gf2_poly_is_irreducible(mod):
                continue
            F = BinaryField(m, mod)
            for a in range(1 << m):
                roots = [z for z in range(1 << m) if F.sqr(z) ^ z == a]
                z = F._artin_schreier_solve(a)
                if not roots:
                    assert z is None
                else:
                    assert z in roots
                    assert z == (_half_trace(F, a) if m % 2 else min(roots))


def test_artin_schreier_matches_elimination_on_gf2_16():
    F = BinaryField(16, 0x1002B)
    rng = random.Random(16)
    for _ in range(500):
        a = F.random(rng)
        assert F._artin_schreier_solve(a) == _eliminated_root(F, a)


@pytest.mark.parametrize(
    "F",
    [BinaryField(1, 0b11), BinaryField(2, 0b111), BinaryField(16, 0x1002B), BinaryField(17, 0x20009)],
    ids=["m1", "m2", "m16", "m17"],
)
def test_packed_tables_agree_with_untabled_arithmetic(F):
    # the two smallest fields and both sides of the 16-bit typecode
    # boundary; every tabled kernel against the untabled product and
    # inverse, with zero factors and zero coefficients
    exp, log = F._tables()
    n = (1 << F.m) - 1
    assert isinstance(exp, array) and isinstance(log, array)
    # two periods of g^i and then zeros; log[0] = 2n, so a log sum with a
    # zero factor lands among the zeros
    assert (len(exp), len(log)) == (4 * n + 1, n + 1)
    assert (exp.itemsize, log.itemsize) == (2 if F.m <= 16 else 4, 4)
    assert sorted(exp[:n]) == list(range(1, n + 1)) and exp[n : 2 * n] == exp[:n]
    assert exp[2 * n :] == array(exp.typecode, [0]) * (2 * n + 1)
    assert log[0] == 2 * n and all(log[exp[i]] == i for i in range(n))
    with pytest.raises(DivisionByZero):
        F.inv(0)

    def mul(a, b):
        return _gf2x_mulmod(a, b, F.mod, F.m)

    rng = random.Random(1617)
    # 1 and the elements whose logs are 0 and n - 1, then random ones
    special = [1, exp[0], exp[n - 1]]
    assert (log[exp[0]], log[exp[n - 1]]) == (0, n - 1)
    xs = special + [F.random(rng) for _ in range(60)]
    ys = special[::-1] + [F.random(rng) for _ in range(60)]
    # 0 * x, x * 0 and 0 * 0 at positions 10, 20 and 11
    xs[10] = ys[20] = xs[11] = ys[11] = 0
    for x, y in zip(xs, ys):
        assert F.mul(x, y) == mul(x, y)
        assert F.sqr(x) == mul(x, x)
        if x:
            assert F.inv(x) == _gf2x_inv(x, F.mod)
    zeros = [(10, 10), (10, 20), (20, 10), (11, 11), (11, 3), (3, 11), (10, 11)]
    pairs = [(rng.randrange(len(xs)), rng.randrange(len(xs))) for _ in range(80)] + [(0, 2), (2, 2), (1, 0)] + zeros
    assert F.pair_products(xs, pairs) == [mul(xs[a], xs[b]) for a, b in pairs]
    assert F.symmetric_products(xs, ys, pairs) == [
        mul(xs[a], ys[a]) if a == b else mul(xs[a], ys[b]) ^ mul(xs[b], ys[a]) for a, b in pairs
    ]
    expected = 0
    for x, y in zip(xs, ys):
        expected ^= mul(x, y)
    assert F.dot(xs, ys) == expected
    coeffs = special + [F.random(rng) or 1 for _ in range(30)] + [0]
    kept = F.stored(coeffs)
    rows = [[(rng.randrange(len(xs)), t) for t in range(k, len(coeffs), 4)] for k in range(4)]
    # the zero coefficient on a zero and on a nonzero value, and 1 on a zero
    rows.append([(10, len(coeffs) - 1), (3, len(coeffs) - 1), (11, 0)])
    stored_rows = [[(a, kept[t]) for a, t in terms] for terms in rows]
    expected = []
    for terms in rows:
        acc = 0
        for a, t in terms:
            acc ^= mul(coeffs[t], xs[a])
        expected.append(acc)
    assert F.dots(stored_rows, xs) == expected


def test_field_element_str():
    assert GF7.to_str(GF7.mul(3, 5)) == "1"
    assert QQ.to_str(QQ.div(QQ.one, QQ.from_int(3))) == "1/3"
