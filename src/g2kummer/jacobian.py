"""Independent group-law oracle: Mumford arithmetic on an odd-degree model.

The oracle computes on a *working model* with a single rational point at
infinity and deg f = 5 (odd or zero characteristic: h = 0; characteristic 2:
deg h <= 2), where composition-and-reduction provably computes in the full
degree-0 class group.  A ``ModelIsomorphism`` links the user's model to the
working model.  A ``WorkingModel`` holds both models, the link and its
inverse, and draws the random classes that every oracle check runs on
(``WorkingModel.sample``).  A class has one type on both models,
:class:`g2kummer.curve.MumfordDivisor`, and crosses in either direction
through :func:`g2kummer.curve.transform_pair`, which is handed the model on
the far side rather than rebuilding it.  A degree-2 class is transported in
k[x]/(a) whether its two points are rational or conjugate, so no root of a
is taken on the way; a degree-1 class goes point by point, the working
model's infinity to the user's Weierstrass point and back.

``add`` first tries the frequent case on raw coefficients (Lange, AAECC
2005): two degree-2 classes with Res(a1, a2) != 0, or the doubling of a
degree-2 class with Res(a, 2b + h) != 0, whose sum again has degree 2.
That covers almost every sampled pair.  Cantor's composition and reduction
(Math. Comp. 1987) is the fallback for everything else (degree <= 1
classes, D + (-D), shared roots and sums of degree 1) and the reference the
tests check the frequent case against.
"""

from __future__ import annotations

from .algebra import Poly, roots
from .curve import (
    CurveModel,
    CurvePoint,
    ModelIsomorphism,
    MumfordDivisor,
    nonsingular,
    pair_from_points,
    sample_point,
    simplified_model,
    transform,
    transform_pair,
)
from .errors import (
    ExhaustedRetries,
    NoSolutionCertificate,
    NoRationalWeierstrassPoint,
    UnsupportedDivisor,
)
from .field import Field


class WorkingModel:
    """A user model together with its odd-degree oracle model: ``link`` maps
    the user model onto ``model`` and ``unlink`` maps it back.  It is the
    oracle's one handle: ``sample`` draws its classes."""

    def __init__(self, user: CurveModel, model: CurveModel, link: ModelIsomorphism):
        self.user = user
        self.model = model
        self.link = link
        self.unlink = link.inverse()
        self._rational_sample = None

    def sample(self, rng) -> MumfordDivisor:
        """A random class: uniform (``random_divisor``) over a finite field,
        of small height over Q (``small_rational_sampler``, built on first
        use)."""
        if self.field.order() is not None:
            return random_divisor(self, rng)
        if self._rational_sample is None:
            self._rational_sample = small_rational_sampler(self)
        return self._rational_sample(rng)

    @property
    def field(self) -> Field:
        return self.model.field

    def zero(self) -> MumfordDivisor:
        F = self.field
        return MumfordDivisor(Poly.const(F, F.one), Poly(F, []))

    def contains(self, D: MumfordDivisor) -> bool:
        c = self.model
        rem = (D.b * D.b + D.b * c.h - c.f) % D.a
        return rem.is_zero() and D.b.degree < max(D.a.degree, 1)


def working_model(c: CurveModel) -> WorkingModel:
    """Build the oracle model: a rational Weierstrass point goes to infinity.

    The resulting model has deg f = 5 with one (ramified) point at infinity;
    in odd or zero characteristic the model is first simplified to h = 0.
    Raises SingularCurve for a singular c and NoRationalWeierstrassPoint
    when no suitable point exists.
    """
    F = nonsingular(c).field
    if F.characteristic() == 2:
        cur, iso = c, ModelIsomorphism.identity(F)
        if cur.h[3] != F.zero:
            hroots = roots(cur.h)
            if not hroots:
                raise NoRationalWeierstrassPoint(
                    "h has no rational root and h3 != 0"
                )
            r = hroots[0][0]
            mob = ModelIsomorphism(F, (F.zero, F.one, F.one, F.neg(r)), F.one, Poly(F, []))
            cur, iso = transform(cur, mob), iso.compose(mob)
        if cur.f[6] != F.zero:
            shift = ModelIsomorphism(
                F,
                (F.one, F.zero, F.zero, F.one),
                F.one,
                Poly(F, [F.zero, F.zero, F.zero, F.sqrt(cur.f[6])]),
            )
            cur, iso = transform(cur, shift), iso.compose(shift)
        assert cur.f.degree == 5 and cur.h.degree <= 2
        return WorkingModel(c, cur, iso)
    # odd or zero characteristic
    if c.h.is_zero() and c.f.degree == 5:
        return WorkingModel(c, c, ModelIsomorphism.identity(F))
    cur, iso = simplified_model(c)
    if cur.f.degree == 6:
        groots = roots(cur.f)
        if not groots:
            raise NoRationalWeierstrassPoint("4f + h^2 has no rational root")
        r = groots[0][0]
        mob = ModelIsomorphism(F, (F.zero, F.one, F.one, F.neg(r)), F.one, Poly(F, []))
        cur, iso = transform(cur, mob), iso.compose(mob)
    assert cur.f.degree == 5 and cur.h.is_zero()
    return WorkingModel(c, cur, iso)


# ---------------------------------------------------------------------------
# Cantor composition and reduction for y^2 + h y = f
# ---------------------------------------------------------------------------

def _compose(wm: WorkingModel, D1: MumfordDivisor, D2: MumfordDivisor):
    F = wm.field
    f, h = wm.model.f, wm.model.h
    a1, b1 = D1.a, D1.b
    a2, b2 = D2.a, D2.b
    d0, e1, e2 = a1.xgcd(a2)
    ssum = b1 + b2 + h
    d, c1, c2 = d0.xgcd(ssum)
    s1 = c1 * e1
    s2 = c1 * e2
    s3 = c2
    a = (a1 * a2).exact_div(d * d)
    num = s1 * a1 * b2 + s2 * a2 * b1 + s3 * (b1 * b2 + f)
    b = num.exact_div(d) % a
    return a.monic(), b


def _reduce(wm: WorkingModel, a: Poly, b: Poly) -> MumfordDivisor:
    f, h = wm.model.f, wm.model.h
    while a.degree > 2:
        a = (f - b * h - b * b).exact_div(a)
        b = (-h - b) % a
    a = a.monic()
    return MumfordDivisor(a, b % a if a.degree > 0 else Poly(wm.field, []))


def _frequent_add(wm: WorkingModel, D1: MumfordDivisor, D2: MumfordDivisor):
    """D1 + D2 on raw coefficients in the frequent case, or None.

    Both classes have degree 2 and either Res(a1, a2) != 0 (addition) or
    D1 = D2 with Res(a, 2b + h) != 0 (doubling).  Composition then gives
    b = b1 + s*a1 with s linear: the CRT solution of b = b2 mod a2, or the
    Newton lift of b to a root of b^2 + b h - f mod a^2.  When s has an
    x-term, one reduction step ends at degree 2: a' is the monic quotient
    (f - b h - b^2) / (a1 a2), read off the top three coefficients, and
    b' = (-h - b) mod a'.  Otherwise None, and Cantor's general path runs."""
    a1, a2 = D1.a.coeffs, D2.a.coeffs
    if len(a1) != 3 or len(a2) != 3:
        return None
    F = wm.field
    mul, sqr, add_, sub, neg = F.mul, F.sqr, F.add, F.sub, F.neg
    zero = F.zero
    f, h = wm.model.f, wm.model.h
    h0, h1, h2 = h[0], h[1], h[2]
    u0, u1 = a1[0], a1[1]
    v0, v1 = D1.b[0], D1.b[1]
    if a1 == a2:
        if D1.b.coeffs != D2.b.coeffs:
            return None
        # doubling: s (2b + h) = k mod a with k = (f - b h - b^2) / a, whose
        # quotient needs the top four coefficients of f - b h - b^2 only
        p0, p1 = u0, u1
        k3 = f[5]
        u1k3, u0k3 = mul(u1, k3), mul(u0, k3)
        k2 = sub(f[4], u1k3)
        m3 = sub(f[3], mul(v1, h2))
        m2 = sub(sub(f[2], add_(mul(v1, h1), mul(v0, h2))), sqr(v1))
        k1 = sub(m3, add_(mul(u1, k2), u0k3))
        k0 = sub(m2, add_(mul(u1, k1), mul(u0, k2)))
        # w = k mod a
        q0 = sub(k2, u1k3)
        w1 = sub(k1, add_(mul(u1, q0), u0k3))
        w0 = sub(k0, mul(u0, q0))
        z1 = sub(add_(add_(v1, v1), h1), mul(h2, u1))
        z0 = sub(add_(add_(v0, v0), h0), mul(h2, u0))
        A3, A2 = add_(u1, u1), add_(add_(u0, u0), sqr(u1))
    else:
        # addition: s a1 = b2 - b1 mod a2
        p0, p1 = a2[0], a2[1]
        w1, w0 = sub(D2.b[1], v1), sub(D2.b[0], v0)
        z1, z0 = sub(u1, p1), sub(u0, p0)
        A3, A2 = add_(u1, p1), add_(add_(u0, p0), mul(u1, p1))
    # s = w / z mod x^2 + p1 x + p0, through z * (d - z1 x) = r, the resultant
    t, m = mul(z1, p1), mul(z1, p0)
    d = sub(z0, t)
    r = add_(mul(z0, d), mul(z1, m))
    s1 = sub(mul(w1, z0), mul(w0, z1))
    if r == zero or s1 == zero:
        return None
    ir = F.inv(r)
    s1 = mul(s1, ir)
    s0 = mul(add_(mul(w1, m), mul(w0, d)), ir)
    # b = b1 + s a1 = c3 x^3 + c2 x^2 + c1 x + c0
    c3 = s1
    c2 = add_(mul(s1, u1), s0)
    c1 = add_(v1, add_(mul(s1, u0), mul(s0, u1)))
    c0 = add_(v0, mul(s0, u0))
    # the quotient of f - b h - b^2 by a1 a2 = x^4 + A3 x^3 + A2 x^2 + ...
    n6 = neg(sqr(c3))
    c2c3 = mul(c2, c3)
    c1c3 = mul(c1, c3)
    n5 = sub(sub(f[5], mul(c3, h2)), add_(c2c3, c2c3))
    n4 = sub(sub(f[4], add_(mul(c3, h1), mul(c2, h2))), add_(sqr(c2), add_(c1c3, c1c3)))
    e1 = sub(n5, mul(n6, A3))
    e0 = sub(n4, add_(mul(n6, A2), mul(e1, A3)))
    il = F.inv(n6)
    e1, e0 = mul(e1, il), mul(e0, il)
    # b' = (-h - b) mod x^2 + e1 x + e0
    t3 = neg(c3)
    t2 = sub(neg(add_(h2, c2)), mul(t3, e1))
    t1 = sub(sub(neg(add_(h1, c1)), mul(t3, e0)), mul(t2, e1))
    t0 = sub(neg(add_(h0, c0)), mul(t2, e0))
    return MumfordDivisor(Poly(F, [e0, e1, F.one]), Poly(F, [t0, t1]))


def add(wm: WorkingModel, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Divisor-class sum: the frequent case on raw coefficients, otherwise
    composition and at most two reduction steps."""
    D = _frequent_add(wm, D1, D2)
    if D is not None:
        return D
    a, b = _compose(wm, D1, D2)
    return _reduce(wm, a, b)


def negate(wm: WorkingModel, D: MumfordDivisor) -> MumfordDivisor:
    if D.is_zero():
        return D
    return MumfordDivisor(D.a, (-D.b - wm.model.h) % D.a)


def _point_pair_divisor(wm: WorkingModel, rng) -> MumfordDivisor:
    for _ in range(10_000):
        P1 = sample_point(wm.model, rng)
        P2 = sample_point(wm.model, rng)
        if P1.x != P2.x:
            return pair_from_points(wm.model, P1, P2)
    raise ExhaustedRetries("could not sample a generic divisor")


def random_divisor(wm: WorkingModel, rng) -> MumfordDivisor:
    """Weight-2 divisor sampled as the class sum of two point-pair divisors.

    A divisor built from two rational points alone can only reach classes
    whose a-polynomial splits; composing two of them spreads the samples over
    the whole class group (conjugate-pair classes included), which the
    synthesis solves and the distribution checks rely on."""
    for _ in range(10_000):
        D = add(wm, _point_pair_divisor(wm, rng), _point_pair_divisor(wm, rng))
        if D.degree == 2:
            return D
    raise ExhaustedRetries("could not sample a generic divisor")


# ---------------------------------------------------------------------------
# Transport between the user model and the working model
# ---------------------------------------------------------------------------

def to_point_pair(wm: WorkingModel, D: MumfordDivisor) -> MumfordDivisor:
    """The class D on the USER model, its Mumford data carried through
    ``wm.unlink``: working-model infinity becomes the user's Weierstrass
    point, and a conjugate pair stays base-field data."""
    return transform_pair(wm.user, wm.unlink, D)


def from_point_pair(wm: WorkingModel, D: MumfordDivisor) -> MumfordDivisor:
    """The class of user-model Mumford data D on the working model, where
    the one point at infinity needs no branch."""
    wD = transform_pair(wm.model, wm.link, D)
    wD = MumfordDivisor(wD.a, wD.b)
    if not wm.contains(wD):
        raise UnsupportedDivisor("transported pair is not on the working Jacobian")
    return wD


_RATIONAL_XBOUND = 24  # the rational sampler's points have x = n/d, |n| at most this,
_RATIONAL_DENS = (1, 2, 3)  # and d one of these
_RATIONAL_MAX_BASE = 4  # it combines at most this many base divisors,
_RATIONAL_COEFF_BOUND = 4  # each fewer times than this per sample


def small_rational_sampler(wm: WorkingModel):
    """Deterministic divisor sampler over the rationals.

    Searches the working model y^2 = g(x) for points with small rational
    x-coordinates, builds base divisors from point pairs, and samples small
    Cantor combinations of them (keeping coefficient heights bounded).
    Returns a callable ``sample(rng) -> MumfordDivisor``.
    """
    from fractions import Fraction
    from math import gcd

    from .errors import UnsupportedField

    F = wm.field
    if F.order() is not None:
        raise UnsupportedField("this sampler is for rational working models")
    g = wm.model.f
    pts = []
    for d in _RATIONAL_DENS:
        for n in range(-_RATIONAL_XBOUND, _RATIONAL_XBOUND + 1):
            if gcd(n, d) != 1:
                continue
            x = Fraction(n, d)
            try:
                ys = F.quad_solve(F.zero, g(x))
            except NoSolutionCertificate:
                continue
            for y in ys:
                if y != 0:
                    pts.append(CurvePoint("affine", x=x, y=y))
    base = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].x != pts[j].x:
                base.append(pair_from_points(wm.model, pts[i], pts[j]))
                break
        if len(base) >= _RATIONAL_MAX_BASE:
            break
    if len(base) < 2:
        raise UnsupportedField(
            "the rational curve has too few small points for oracle sampling"
        )

    def sample(rng) -> MumfordDivisor:
        for _ in range(64):
            D = wm.zero()
            for B in base:
                for _k in range(rng.randrange(_RATIONAL_COEFF_BOUND)):
                    D = add(wm, D, B)
            if D.degree == 2:
                return D
        raise ExhaustedRetries("rational sampler kept hitting degenerate sums")

    return sample
