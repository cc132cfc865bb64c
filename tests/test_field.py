import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kummer.errors import DivisionByZero, FieldMismatch, NoSolutionCertificate, UnsupportedField
from g2kummer.field import (
    BinaryField,
    FieldElement,
    PrimeField,
    RationalField,
    arith,
    field_from_spec,
    quad_solve,
    random_element,
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


def test_arith_wrapper_and_mismatch():
    a, b = GF7.el(3), GF7.el(5)
    assert arith(a, b, "mul").value == 1
    assert (a + b).value == 1
    assert (a / b).value == 3 * pow(5, -1, 7) % 7
    with pytest.raises(FieldMismatch):
        arith(a, GF4.el(1), "add")
    with pytest.raises(FieldMismatch):
        a + QQ.el(1)


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


def test_quad_solve_wrapper():
    got = quad_solve(GF7.el(0), GF7.el(2))
    assert {e.value for e in got} == {3, 4}


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
    assert all(random_element(F, rng).value in (0, 1, 2) for _ in range(50))
    B = BinaryField(4, 0b10011)
    a = random_element(B, random.Random(5)), random_element(B, random.Random(5))
    b = random_element(B, random.Random(5)), random_element(B, random.Random(5))
    assert a == b
    with pytest.raises(UnsupportedField):
        random_element(QQ, rng)


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


def test_field_element_str():
    assert str(GF7.el(3) * GF7.el(5)) == "1"
    assert str(QQ.el(1) / QQ.el(3)) == "1/3"
