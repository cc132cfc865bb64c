"""The Kummer surface of a genus-2 Jacobian: coordinates, quartic, torsion.

The coordinate map sends the class of an affine pair {(x, y), (u, v)} to

    (1 : x+u : xu : (F0(x,u) - 2yv - h(x)v - h(u)y) / (x-u)^2),

where F0 is the symmetric biquadratic 2f0 + f1(x+u) + 2f2 xu + f3(x+u)xu +
2f4(xu)^2 + f5(x+u)(xu)^2 + 2f6(xu)^3.  The division is exact on the curve.
Take the pair's Mumford data a = X^2 - s1 X + s2 (s1 = x+u, s2 = xu) and
b = b0 + b1 X with y = b(x), v = b(u), and put R = f - bh - b^2 and
e = s1^2 - s2.  Then, as polynomials over Z, the numerator equals
(x-u)^2 k4 + R(x) + R(u) with

    k4 = b1^2 + b1 (h1 + h2 s1 + h3 e) - (f2 + f3 s1 + f4 s1^2 + f5 s1 e + f6 e^2)

(Cassels-Flynn, Prolegomena, ch. 3, for h = 0).  Since a divides R, the
fourth coordinate is k4 in every characteristic, with no inversion.  Rational
and conjugate pairs go through the same base-field data, and so does twice
a non-Weierstrass point, whose a = (X - x)^2 and whose b is the tangent line.
The image satisfies a quartic K2*k4^2 + K1*k4 + K0 = 0 whose coefficient
tables (in f0..f6, h0..h3) are transcribed below.

The other classes:

- a degree-1 class {(x, y), infinity-branch r} maps to
  (0 : 1 : x : f5 x^2 + 2f6 x^3 - (2y + h(x))r - h3 y), with r = 0 on the
  working model;
- the zero class maps to (0 : 0 : 0 : 1).

Doubled Weierstrass and doubled infinite points are unsupported (callers
resample; the gap has measure zero).

The rational two-torsion classes are listed here with their Kummer points.
Their translation matrices are not: in every characteristic they are read
off the biquadratic forms (``synthesis``), and ``squares_to_scalar`` is the
check each one passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    CompiledForms,
    Matrix,
    Poly,
    QUARTIC4,
    quadratic_monomials,
    roots_and_quadratic_factors,
)
from .curve import CurveModel, MumfordDivisor, simplified_rhs
from .errors import UnsupportedField
from .field import Field


class KummerPoint:
    """Projective quadruple of raw field values, not all zero."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        coords = tuple(coords)
        if len(coords) != 4:
            raise ValueError(f"a Kummer point has four coordinates, got {len(coords)}")
        if all(v == field.zero for v in coords):
            raise ValueError("a Kummer point is a nonzero quadruple")
        self.field = field
        self.coords = coords

    def normalized(self) -> "KummerPoint":
        """Scale so the first nonzero coordinate is one."""
        F = self.field
        for v in self.coords:
            if v != F.zero:
                inv = F.inv(v)
                return KummerPoint(F, [F.mul(inv, w) for w in self.coords])
        raise AssertionError("unreachable")

    def proportional(self, other: "KummerPoint") -> bool:
        F = self.field
        a, b = self.coords, other.coords
        for i in range(4):
            for j in range(i + 1, 4):
                if F.mul(a[i], b[j]) != F.mul(a[j], b[i]):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, KummerPoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return "(" + ":".join(self.field.to_str(v) for v in self.coords) + ")"

    def text(self) -> str:
        return ":".join(self.field.to_str(v) for v in self.coords)


def kummer_point_from_text(F: Field, text: str) -> KummerPoint:
    return KummerPoint(F, [F.parse(tok) for tok in text.split(":")])


def zero_class_point(F: Field) -> KummerPoint:
    return KummerPoint(F, (F.zero, F.zero, F.zero, F.one))


# ---------------------------------------------------------------------------
# The defining quartic
# ---------------------------------------------------------------------------

def _mono(F, *vals):
    r = F.one
    for v in vals:
        r = F.mul(r, v)
    return r


def _lin(F, *terms):
    acc = F.zero
    for t in terms:
        acc = F.add(acc, t)
    return acc


@dataclass(frozen=True)
class KummerQuartic:
    """Per-curve coefficient tables of the quartic K2*k4^2 + K1*k4 + K0.

    ``c2``, ``c1``, ``c0`` map exponent triples (e1, e2, e3) in k1..k3 to raw
    coefficients; ``vector`` is the same quartic over the QUARTIC4 basis,
    and ``compiled`` that vector as a ``CompiledForms``, built on first use.
    """

    curve: CurveModel
    c2: dict
    c1: dict
    c0: dict
    vector: tuple

    @cached_property
    def compiled(self) -> CompiledForms:
        return CompiledForms(self.curve.field, [self.vector])


def quartic_from_curve(c: CurveModel) -> KummerQuartic:
    F = c.field
    f = [c.f[i] for i in range(7)]
    h = [c.h[i] for i in range(4)]
    n = F.neg
    i2, i3, i4, i8 = (F.from_int(k) for k in (2, 3, 4, 8))
    m = lambda *a: _mono(F, *a)
    lin = lambda *t: _lin(F, *t)

    c2 = {(0, 2, 0): F.one, (1, 0, 1): n(i4)}

    c1 = {
        (3, 0, 0): n(F.add(m(i4, f[0]), m(h[0], h[0]))),
        (2, 1, 0): n(F.add(m(i2, f[1]), m(h[0], h[1]))),
        (2, 0, 1): lin(n(m(i4, f[2])), n(m(h[1], h[1])), m(i2, h[0], h[2])),
        (1, 2, 0): n(m(h[0], h[2])),
        (1, 1, 1): lin(n(m(h[1], h[2])), n(m(i2, f[3])), m(i3, h[0], h[3])),
        (1, 0, 2): lin(m(i2, h[1], h[3]), n(m(h[2], h[2])), n(m(i4, f[4]))),
        (0, 3, 0): n(m(h[0], h[3])),
        (0, 2, 1): n(m(h[1], h[3])),
        (0, 1, 2): n(F.add(m(h[2], h[3]), m(i2, f[5]))),
        (0, 0, 3): n(F.add(m(i4, f[6]), m(h[3], h[3]))),
    }

    c0 = {
        (4, 0, 0): lin(n(m(i4, f[0], f[2])), n(m(f[0], h[1], h[1])), m(f[1], f[1]),
                       m(f[1], h[0], h[1]), n(m(f[2], h[0], h[0]))),
        (3, 1, 0): lin(n(m(i4, f[0], f[3])), n(m(i2, f[0], h[1], h[2])),
                       m(f[1], h[0], h[2]), n(m(f[3], h[0], h[0]))),
        (3, 0, 1): lin(m(i2, f[0], h[1], h[3]), n(m(i2, f[1], f[3])), n(m(f[1], h[0], h[3])),
                       n(m(f[1], h[1], h[2])), m(i2, f[2], h[0], h[2]), n(m(f[3], h[0], h[1]))),
        (2, 2, 0): lin(n(m(i4, f[0], f[4])), n(m(i2, f[0], h[1], h[3])), n(m(f[0], h[2], h[2])),
                       m(f[1], h[0], h[3]), n(m(f[4], h[0], h[0]))),
        (2, 1, 1): lin(m(i4, f[0], f[5]), m(i2, f[0], h[2], h[3]), n(m(i4, f[1], f[4])),
                       n(m(f[1], h[1], h[3])), n(m(f[1], h[2], h[2])), m(i2, f[2], h[0], h[3]),
                       m(f[3], h[0], h[2]), n(m(i2, f[4], h[0], h[1])), m(f[5], h[0], h[0])),
        (2, 0, 2): lin(n(m(i4, f[0], f[6])), n(m(f[0], h[3], h[3])), m(i2, f[1], f[5]),
                       m(f[1], h[2], h[3]), n(m(i4, f[2], f[4])), n(m(f[2], h[2], h[2])),
                       m(f[3], f[3]), m(f[3], h[0], h[3]), m(f[3], h[1], h[2]),
                       n(m(f[4], h[1], h[1])), m(f[5], h[0], h[1]), n(m(f[6], h[0], h[0]))),
        (1, 3, 0): lin(n(m(i4, f[0], f[5])), n(m(i2, f[0], h[2], h[3])), n(m(f[5], h[0], h[0]))),
        (1, 2, 1): lin(m(i8, f[0], f[6]), m(i2, f[0], h[3], h[3]), n(m(i4, f[1], f[5])),
                       n(m(i2, f[1], h[2], h[3])), m(f[3], h[0], h[3]),
                       n(m(i2, f[5], h[0], h[1])), m(i2, f[6], h[0], h[0])),
        (1, 1, 2): lin(m(i4, f[1], f[6]), m(f[1], h[3], h[3]), n(m(i4, f[2], f[5])),
                       n(m(i2, f[2], h[2], h[3])), m(f[3], h[1], h[3]), m(i2, f[4], h[0], h[3]),
                       n(m(f[5], h[0], h[2])), n(m(f[5], h[1], h[1])), m(i2, f[6], h[0], h[1])),
        (1, 0, 3): lin(n(m(i2, f[3], f[5])), n(m(f[3], h[2], h[3])), m(i2, f[4], h[1], h[3]),
                       n(m(f[5], h[0], h[3])), n(m(f[5], h[1], h[2])), m(i2, f[6], h[0], h[2])),
        (0, 4, 0): lin(n(m(i4, f[0], f[6])), n(m(f[0], h[3], h[3])), n(m(f[6], h[0], h[0]))),
        (0, 3, 1): lin(n(m(i4, f[1], f[6])), n(m(f[1], h[3], h[3])), n(m(i2, f[6], h[0], h[1]))),
        (0, 2, 2): lin(n(m(i4, f[2], f[6])), n(m(f[2], h[3], h[3])), m(f[5], h[0], h[3]),
                       n(m(i2, f[6], h[0], h[2])), n(m(f[6], h[1], h[1]))),
        (0, 1, 3): lin(n(m(i4, f[3], f[6])), n(m(f[3], h[3], h[3])), m(f[5], h[1], h[3]),
                       n(m(i2, f[6], h[1], h[2]))),
        (0, 0, 4): lin(n(m(i4, f[4], f[6])), n(m(f[4], h[3], h[3])), m(f[5], f[5]),
                       m(f[5], h[2], h[3]), n(m(f[6], h[2], h[2]))),
    }

    vec = [F.zero] * QUARTIC4.size
    for (e1, e2, e3), co in c2.items():
        vec[QUARTIC4.index[(e1, e2, e3, 2)]] = F.add(vec[QUARTIC4.index[(e1, e2, e3, 2)]], co)
    for (e1, e2, e3), co in c1.items():
        vec[QUARTIC4.index[(e1, e2, e3, 1)]] = F.add(vec[QUARTIC4.index[(e1, e2, e3, 1)]], co)
    for (e1, e2, e3), co in c0.items():
        vec[QUARTIC4.index[(e1, e2, e3, 0)]] = F.add(vec[QUARTIC4.index[(e1, e2, e3, 0)]], co)
    return KummerQuartic(c, c2, c1, c0, tuple(vec))


def on_surface(q: KummerQuartic, k: KummerPoint) -> bool:
    F = q.curve.field
    return q.compiled.quartic_values(quadratic_monomials(F, k.coords)) == [F.zero]


# ---------------------------------------------------------------------------
# The coordinate map
# ---------------------------------------------------------------------------

def kummer_coords(c: CurveModel, D: MumfordDivisor) -> KummerPoint:
    """Kummer coordinates of a divisor class given by its Mumford data."""
    F = c.field
    if D.degree == 0:
        return zero_class_point(F)
    if D.degree == 1:
        x, y = F.neg(D.a[0]), D.b[0]
        r = F.zero if D.branch is None else D.branch
        two = F.from_int(2)
        k4 = _lin(
            F,
            _mono(F, c.f[5], x, x),
            _mono(F, two, c.f[6], x, x, x),
            F.neg(_mono(F, F.add(F.add(y, y), c.h(x)), r)),
            F.neg(_mono(F, c.h[3], y)),
        )
        return KummerPoint(F, (F.zero, F.one, x, k4))
    a, b1 = D.a, D.b[1]
    s1, s2 = F.neg(a[1]), a[0]
    f, h = c.f, c.h
    s1sq = F.sqr(s1)
    e = F.sub(s1sq, s2)
    hb = _lin(F, h[1], F.mul(h[2], s1), F.mul(h[3], e))
    fe = _lin(F, f[2], F.mul(f[3], s1), F.mul(f[4], s1sq),
              F.mul(F.mul(f[5], s1), e), F.mul(f[6], F.sqr(e)))
    k4 = F.sub(F.mul(b1, F.add(b1, hb)), fe)
    return KummerPoint(F, (F.one, s1, s2, k4))


# ---------------------------------------------------------------------------
# Two-torsion
# ---------------------------------------------------------------------------

@dataclass
class TwoTorsionData:
    """A rational two-torsion class: its Mumford data, its Kummer point and
    the label that names it in formula files.

    In characteristic 2 the class comes from two distinct Weierstrass points
    {Q1, Q2}: the roots of a monic quadratic factor of h ("affineAffine"),
    or a root of h and the infinite point when h3 = 0 ("affineInfinity").
    In odd characteristic it comes from a monic quadratic factor
    ``divisor.a`` of 4f + h^2.  The translation matrix is read off the
    biquadratic forms at ``kummer`` in every characteristic
    (``synthesis.synthesize_w_char2`` and ``synthesis.synthesize_w_oddchar``).
    """

    case_tag: str  # "affineAffine" | "affineInfinity"
    divisor: MumfordDivisor
    kummer: KummerPoint
    label: str


def two_torsion_classes(c: CurveModel) -> list[TwoTorsionData]:
    """All rational two-torsion classes, each with its Kummer point."""
    F = c.field
    if F.order() is None:
        raise UnsupportedField("two-torsion enumeration needs a finite field")
    if F.characteristic() == 2:
        return _two_torsion_char2(c)
    return _two_torsion_odd(c)


def _two_torsion_char2(c: CurveModel) -> list[TwoTorsionData]:
    F = c.field
    h, f = c.h, c.f
    out = []
    rts, hquads = roots_and_quadratic_factors(h) if h.degree >= 1 else ([], [])
    hroots = [r for r, _m in rts]
    # affine-affine classes: a monic quadratic q | h for each pair of distinct
    # rational roots or conjugate pair of roots of h; with f mod q = c1 x + c0,
    # s1 = x1 + x2 and s2 = x1 x2, the line through (x1, y1), (x2, y2) has
    # b1 s1 = y1 + y2 = sqrt(c1 s1) and b0 s1 = x2 y1 + x1 y2 = sqrt(c1 s1 s2 + c0 s1^2)
    pairs = [(Poly(F, [F.mul(x1, x2), F.add(x1, x2), F.one]), f"aa:{F.to_str(x1)},{F.to_str(x2)}")
             for i, x1 in enumerate(hroots) for x2 in hroots[i + 1:]]
    pairs += [(q, f"aa:irr:{F.to_str(q[0])},{F.to_str(q[1])}") for q in hquads]
    for q, label in pairs:
        s1, s2 = q[1], q[0]
        frem = f % q
        c1, c0 = frem[1], frem[0]
        b1 = F.div(F.sqrt(F.mul(c1, s1)), s1)
        b0 = F.div(F.sqrt(F.add(_mono(F, c1, s2, s1), _mono(F, c0, s1, s1))), s1)
        pair = MumfordDivisor(q, Poly(F, [b0, b1]))
        out.append(TwoTorsionData("affineAffine", pair, kummer_coords(c, pair), label))
    # affine-infinity classes (the infinite point is Weierstrass iff h3 = 0)
    if h[3] == F.zero and not h.is_zero():
        for r in hroots:
            pair = MumfordDivisor(Poly(F, [r, F.one]), Poly.const(F, F.sqrt(f(r))), F.sqrt(f[6]))
            out.append(TwoTorsionData("affineInfinity", pair, kummer_coords(c, pair), f"ai:{F.to_str(r)}"))
    return out


def _two_torsion_odd(c: CurveModel) -> list[TwoTorsionData]:
    F = c.field
    g = simplified_rhs(c)
    half = F.inv(F.from_int(2))
    out = []
    rts, irreducible = roots_and_quadratic_factors(g)
    groots = [r for r, _m in rts]
    quads = []
    for i in range(len(groots)):
        for j in range(i + 1, len(groots)):
            x1, x2 = groots[i], groots[j]
            quads.append(Poly(F, [F.mul(x1, x2), F.neg(F.add(x1, x2)), F.one]))
    quads.extend(irreducible)
    for s in quads:
        pair = MumfordDivisor(s, c.h.scale(F.neg(half)) % s)
        label = "s:" + ",".join(F.to_str(s[i]) for i in range(3))
        out.append(TwoTorsionData("affineAffine", pair, kummer_coords(c, pair), label))
    return out


# ---------------------------------------------------------------------------
# Translation by a two-torsion class
# ---------------------------------------------------------------------------

def squares_to_scalar(W: Matrix) -> bool:
    """Whether W^2 is a nonzero multiple of the identity, as it is for the
    matrix of a translation by a two-torsion class."""
    F = W.field
    W2 = W.mul(W)
    lam = W2.rows[0][0]
    return lam != F.zero and W2 == Matrix.identity(F, W.nrows).scale(lam)
