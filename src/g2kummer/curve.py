"""Genus-2 models y^2 + h(x) y = f(x), their validity, and model isomorphisms.

A model isomorphism acts on points as

    x_t = (a*x + b) / (c*x + d),      y_t = (e*y + u(x)) / (c*x + d)**3,

with ad - bc != 0, e != 0 and deg u <= 3; this is the full isomorphism group
of such models.  Transforming the model itself gives

    h_t = S3(e*h - 2u) / det**3,      f_t = S6(e**2 f + e*h*u - u**2) / det**6,

where S_d(P) denotes the degree-d homogeneous substitution of the inverse
Moebius map.  Points at infinity are tracked by the limit r of y/x**3 along
the branch, a root of Y**2 + h3*Y = f6; the branch with the smaller canonical
key is labelled "+".
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Matrix, Poly, roots
from .errors import (
    CharacteristicTwo,
    DegreeOverflow,
    ExhaustedRetries,
    RootsNotRational,
    SingularCurve,
    UnsupportedDivisor,
    UnsupportedField,
)
from .field import Field

INFINITY = object()  # marker for the infinite x-value in root bookkeeping


@dataclass(frozen=True)
class CurvePoint:
    """A rational point: affine (x, y), or a branch at infinity."""

    kind: str  # "affine" | "infinity"
    x: object = None
    y: object = None
    branch: object = None  # limit of y/x^3 for infinity points


class CurveModel:
    """Curve y^2 + h(x) y = f(x) with deg f <= 6, deg h <= 3."""

    __slots__ = ("field", "f", "h")

    def __init__(self, field: Field, f: Poly, h: Poly):
        if f.degree > 6 or h.degree > 3:
            raise DegreeOverflow("deg f <= 6 and deg h <= 3 required")
        self.field = field
        self.f = f
        self.h = h

    def __eq__(self, other):
        return (
            isinstance(other, CurveModel)
            and self.field == other.field
            and self.f == other.f
            and self.h == other.h
        )

    def __hash__(self):
        return hash((self.field, self.f, self.h))

    def __repr__(self):
        return f"CurveModel({self.field!r}, f={self.f!r}, h={self.h!r})"

    def on_curve(self, P: CurvePoint) -> bool:
        F = self.field
        if P.kind == "affine":
            lhs = F.add(F.mul(P.y, P.y), F.mul(self.h(P.x), P.y))
            return lhs == self.f(P.x)
        r = P.branch
        lhs = F.add(F.mul(r, r), F.mul(self.h[3], r))
        return lhs == self.f[6]

    def branch_values(self) -> list:
        """Roots of Y^2 + h3*Y = f6, sorted by the canonical key."""
        return self.field.quad_solve(self.h[3], self.f[6])

    def curve_file_text(self) -> str:
        F = self.field
        fline = ",".join(F.to_str(self.f[i]) for i in range(7))
        hline = ",".join(F.to_str(self.h[i]) for i in range(4))
        return f"field {F.spec_string()}\nf {fline}\nh {hline}\n"


def curve_from_text(text: str) -> CurveModel:
    """Parse the line-based curve file format: one field, f and h line each."""
    from .field import field_from_spec

    field = None
    fco = hco = None
    seen = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key in seen:
            raise ValueError(f"repeated curve file line {key!r}")
        seen.add(key)
        if key == "field":
            field = field_from_spec(rest.strip())
        elif key in ("f", "h") and field is None:
            raise ValueError("the field line must come before the f and h lines")
        elif key == "f":
            fco = [field.parse(tok) for tok in rest.split(",")]
        elif key == "h":
            hco = [field.parse(tok) for tok in rest.split(",")]
        else:
            raise ValueError(f"unrecognized curve file line {line!r}")
    if field is None or fco is None or hco is None:
        raise ValueError("curve file needs field, f and h lines")
    if len(fco) != 7 or len(hco) != 4:
        raise ValueError("f takes 7 coefficients and h takes 4")
    return CurveModel(field, Poly(field, fco), Poly(field, hco))


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Validity:
    ok: bool
    reason: str = ""


def validate(c: CurveModel) -> Validity:
    """Nonsingularity of the genus-2 model.

    Odd or zero characteristic: 4f + h^2 must be squarefree of degree 5 or 6.
    Characteristic 2: h != 0, no affine point solves the singularity system
    (h(x) = 0, y^2 = f(x), f'(x) + h'(x) y = 0), and the closure is smooth at
    infinity (h3 != 0 or f5^2 != h2^2 f6).
    """
    F = c.field
    if F.characteristic() == 2:
        if c.h.is_zero():
            return Validity(False, "h = 0 is inseparable in characteristic 2")
        fp = c.f.deriv()
        hp = c.h.deriv()
        witness = fp * fp + hp * hp * c.f
        if witness.is_zero():
            common = c.h.monic()
        else:
            common = c.h.gcd(witness)
        if common.degree > 0:
            return Validity(False, "affine singular point (h and f'^2 + h'^2 f share a root)")
        lhs = F.mul(c.f[5], c.f[5])
        rhs = F.mul(F.mul(c.h[2], c.h[2]), c.f[6])
        if c.h[3] == F.zero and lhs == rhs:
            return Validity(False, "singular at infinity (h3 = 0 and f5^2 = h2^2 f6)")
        return Validity(True)
    g = simplified_rhs(c)
    if g.degree < 5:
        return Validity(False, "deg(4f + h^2) < 5")
    if not g.squarefree():
        return Validity(False, "4f + h^2 has a repeated root")
    return Validity(True)


def nonsingular(c: CurveModel) -> CurveModel:
    """c itself if ``validate`` accepts it, else SingularCurve with the reason."""
    v = validate(c)
    if not v.ok:
        raise SingularCurve(f"invalid curve: {v.reason}")
    return c


def simplified_rhs(c: CurveModel) -> Poly:
    """The polynomial 4f + h^2 (odd or zero characteristic)."""
    F = c.field
    four = Poly.const(F, F.from_int(4))
    return four * c.f + c.h * c.h


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def sample_point(c: CurveModel, rng) -> CurvePoint:
    """Uniform affine x with a solving y; deterministic given the rng."""
    F = c.field
    if F.order() is None:
        raise UnsupportedField("point sampling requires a finite field")
    for _ in range(10_000):
        x = F.random(rng)
        ys = F.quad_solve(c.h(x), c.f(x))
        if not ys:
            continue
        y = ys[rng.randrange(len(ys))]
        return CurvePoint("affine", x=x, y=y)
    raise ExhaustedRetries("no affine point found in 10^4 draws")


def rational_weierstrass_points(c: CurveModel) -> list[CurvePoint]:
    """All rational fixed points of the hyperelliptic involution
    (x, y) -> (x, -y - h(x)), infinity included."""
    F = c.field
    if F.characteristic() == 2:
        out = [CurvePoint("affine", x=r, y=F.sqrt(c.f(r))) for r, _m in roots(c.h)]
        ramified = c.h[3] == F.zero
    else:
        g = simplified_rhs(c)
        half = F.inv(F.from_int(2))
        out = [CurvePoint("affine", x=r, y=F.neg(F.mul(half, c.h(r)))) for r, _m in roots(g)]
        ramified = g.degree == 5
    if ramified:  # the one branch at infinity
        out.append(CurvePoint("infinity", branch=c.branch_values()[0]))
    return out


# ---------------------------------------------------------------------------
# Model isomorphisms
# ---------------------------------------------------------------------------

class ModelIsomorphism:
    """(Moebius, y-scale, y-shift) acting as documented in the module header."""

    __slots__ = ("field", "mobius", "yscale", "yshift")

    def __init__(self, field: Field, mobius, yscale, yshift: Poly):
        a, b, c, d = mobius
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == field.zero:
            raise ValueError("Moebius matrix must be invertible")
        if yscale == field.zero:
            raise ValueError("y-scale must be nonzero")
        if yshift.degree > 3:
            raise DegreeOverflow("y-shift degree must be at most 3")
        self.field = field
        self.mobius = (a, b, c, d)
        self.yscale = yscale
        self.yshift = yshift

    @classmethod
    def identity(cls, field: Field) -> "ModelIsomorphism":
        return cls(field, (field.one, field.zero, field.zero, field.one), field.one, Poly(field, []))

    def det(self):
        a, b, c, d = self.mobius
        F = self.field
        return F.sub(F.mul(a, d), F.mul(b, c))

    def normalized(self) -> "ModelIsomorphism":
        """Scale the Moebius matrix so its first nonzero entry is one."""
        F = self.field
        lam = None
        for v in self.mobius:
            if v != F.zero:
                lam = F.inv(v)
                break
        if lam == F.one:
            return self
        cube = F.mul(F.mul(lam, lam), lam)
        mob = tuple(F.mul(lam, v) for v in self.mobius)
        return ModelIsomorphism(F, mob, F.mul(cube, self.yscale), self.yshift.scale(cube))

    def compose(self, second: "ModelIsomorphism") -> "ModelIsomorphism":
        """The isomorphism ``second after self``."""
        F = self.field
        a1, b1, c1, d1 = self.mobius
        a2, b2, c2, d2 = second.mobius
        mob = (
            F.add(F.mul(a2, a1), F.mul(b2, c1)),
            F.add(F.mul(a2, b1), F.mul(b2, d1)),
            F.add(F.mul(c2, a1), F.mul(d2, c1)),
            F.add(F.mul(c2, b1), F.mul(d2, d1)),
        )
        u12 = self.yshift.scale(second.yscale) + _mobius_substitute(second.yshift, self.mobius, 3)
        return ModelIsomorphism(F, mob, F.mul(second.yscale, self.yscale), u12).normalized()

    def inverse(self) -> "ModelIsomorphism":
        F = self.field
        a, b, c, d = self.mobius
        det = self.det()
        inv_mob = (d, F.neg(b), F.neg(c), a)
        det3 = F.mul(F.mul(det, det), det)
        e_inv = F.mul(det3, F.inv(self.yscale))
        u_inv = _mobius_substitute(self.yshift, inv_mob, 3).scale(
            F.neg(F.inv(self.yscale))
        )
        return ModelIsomorphism(F, inv_mob, e_inv, u_inv).normalized()

def _mobius_substitute(P: Poly, mobius, degree: int) -> Poly:
    """(c*x + d)**degree * P((a*x + b)/(c*x + d)) as a polynomial."""
    F = P.field
    a, b, c, d = mobius
    num = Poly(F, [b, a])
    den = Poly(F, [d, c])
    if P.degree > degree:
        raise DegreeOverflow("substitution degree too small")
    acc = Poly(F, [])
    num_pow = Poly.const(F, F.one)
    den_pows = [Poly.const(F, F.one)]
    for _ in range(degree):
        den_pows.append(den_pows[-1] * den)
    for i in range(degree + 1):
        coeff = P[i]
        if coeff != F.zero:
            acc = acc + (num_pow * den_pows[degree - i]).scale(coeff)
        num_pow = num_pow * num
    return acc


def transform(c: CurveModel, iso: ModelIsomorphism) -> CurveModel:
    """Model satisfied by transformed points: P on C iff iso(P) on transform(C)."""
    F = c.field
    a, b, cc, d = iso.mobius
    inv_mob = (d, F.neg(b), F.neg(cc), a)
    det = iso.det()
    e = iso.yscale
    u = iso.yshift
    two = F.from_int(2)
    ht_num = _mobius_substitute(c.h.scale(e) - u.scale(two), inv_mob, 3)
    e2 = F.mul(e, e)
    ft_num = _mobius_substitute(c.f.scale(e2) + (c.h * u).scale(e) - u * u, inv_mob, 6)
    det3 = F.mul(F.mul(det, det), det)
    det6 = F.mul(det3, det3)
    return CurveModel(F, ft_num.scale(F.inv(det6)), ht_num.scale(F.inv(det3)))


def transform_point(iso: ModelIsomorphism, P: CurvePoint) -> CurvePoint:
    """Transport a point; may move between affine and infinity."""
    F = iso.field
    a, b, g, d = iso.mobius
    e, u = iso.yscale, iso.yshift
    det = iso.det()
    if P.kind == "affine":
        w = F.add(F.mul(g, P.x), d)
        if w != F.zero:
            xt = F.div(F.add(F.mul(a, P.x), b), w)
            w3 = F.mul(F.mul(w, w), w)
            yt = F.div(F.add(F.mul(e, P.y), u(P.x)), w3)
            return CurvePoint("affine", x=xt, y=yt)
        g3 = F.mul(F.mul(g, g), g)
        det3 = F.mul(F.mul(det, det), det)
        r = F.neg(F.div(F.mul(g3, F.add(F.mul(e, P.y), u(P.x))), det3))
        return CurvePoint("infinity", branch=r)
    # source point at infinity
    top = F.add(F.mul(e, P.branch), u[3])
    if g != F.zero:
        g3 = F.mul(F.mul(g, g), g)
        return CurvePoint("affine", x=F.div(a, g), y=F.div(top, g3))
    a3 = F.mul(F.mul(a, a), a)
    return CurvePoint("infinity", branch=F.div(top, a3))


# ---------------------------------------------------------------------------
# Divisor classes as Mumford data (the input of the Kummer coordinate map)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MumfordDivisor:
    """A divisor class on a model as reduced Mumford data (a, b): a monic,
    deg b < deg a, a | b^2 + b h - f.  By degree:

      - 0 (a = 1, b = 0): the zero class;
      - 1 (a = x - x0, b = y0): the affine point (x0, y0) plus a point at
        infinity, on a user model the one with y/x^3 -> ``branch``; on the
        working model, whose infinity is its one ramified point (branch 0,
        as h3 = f6 = 0), ``branch`` is None;
      - 2: two affine points, rational or conjugate, or twice one
        non-Weierstrass point, whose a has a repeated root and whose b is
        the tangent line.
    """

    a: Poly
    b: Poly
    branch: object = None

    @property
    def degree(self) -> int:
        return self.a.degree

    def is_zero(self) -> bool:
        return self.a.degree == 0


def secant(F: Field, x1, y1, x2, y2) -> tuple[Poly, Poly]:
    """Mumford (a, b) of two affine points with distinct x: a = (x - x1)(x - x2)
    and b the line through both points."""
    a = Poly(F, [F.mul(x1, x2), F.neg(F.add(x1, x2)), F.one])
    b1 = F.div(F.sub(y1, y2), F.sub(x1, x2))
    return a, Poly(F, [F.sub(y1, F.mul(b1, x1)), b1])


def pair_from_points(c: CurveModel, P1: CurvePoint, P2: CurvePoint) -> MumfordDivisor:
    """The class of two explicit rational points; twice one affine point
    gives a = (x - x0)^2 and b the tangent line at it."""
    F = c.field
    if P1.kind == "infinity":
        P1, P2 = P2, P1
    if P2.kind == "infinity":
        if P1.kind == "affine":
            return MumfordDivisor(Poly(F, [F.neg(P1.x), F.one]), Poly.const(F, P1.y), P2.branch)
        if P1.branch == P2.branch:
            raise UnsupportedDivisor("doubled infinite point")
    elif P1.x != P2.x:
        return MumfordDivisor(*secant(F, P1.x, P1.y, P2.x, P2.y))
    elif P1.y == P2.y:
        x0, y0 = P1.x, P1.y
        g = F.add(F.add(y0, y0), c.h(x0))
        if g == F.zero:
            raise UnsupportedDivisor("doubled Weierstrass point")
        lam = F.div(F.sub(c.f.deriv()(x0), F.mul(c.h.deriv()(x0), y0)), g)
        a = Poly(F, [F.mul(x0, x0), F.neg(F.add(x0, x0)), F.one])
        return MumfordDivisor(a, Poly(F, [F.sub(y0, F.mul(lam, x0)), lam]))
    # the two branches at infinity, or P and its image, are swapped by the involution
    return MumfordDivisor(Poly.const(F, F.one), Poly(F, []))


# ---------------------------------------------------------------------------
# Divisor transport through an isomorphism
# ---------------------------------------------------------------------------

def transform_pair(target: CurveModel, iso: ModelIsomorphism, D: MumfordDivisor) -> MumfordDivisor:
    """Transport a class through ``iso`` onto ``target``, the model that
    ``iso`` maps onto.

    A degree-1 class goes point by point, its infinite point included.  A
    degree-2 class is transported in R = k[x]/(a), where the class rho of
    x stands for both roots at once (rho^2 = s1 rho - s2), so rational and
    conjugate pairs take the same route and no root of a is computed; a
    repeated root, twice one point, needs no case of its own either.  For
    the Moebius matrix (al, be, ga, de) and w = ga rho + de, the images
    X = (al rho + be) / w and Y = (e b(rho) + u(rho)) / w^3 give
    a_t = x^2 - Tr(X) x + N(X) and b_t the line through (X, Y).  Only when
    N(w) = 0 does a rational root of a, -de/ga, go to infinity; the two
    points are then transported one by one, and a doubled point sent to
    infinity raises UnsupportedDivisor."""
    F = target.field
    if D.degree == 0:
        return D
    if D.degree == 1:
        x0 = F.neg(D.a[0])
        Pa = transform_point(iso, CurvePoint("affine", x=x0, y=D.b[0]))
        Pi = transform_point(iso, CurvePoint("infinity", branch=F.zero if D.branch is None else D.branch))
        return pair_from_points(target, Pa, Pi)
    # degree 2; elements of R are pairs (c0, c1) = c0 + c1 rho
    add, mul = F.add, F.mul
    a, b = D.a, D.b
    s1, s2 = F.neg(a[1]), a[0]
    al, be, ga, de = iso.mobius
    e, u = iso.yscale, iso.yshift

    def rmul(p, q):
        t = mul(p[1], q[1])
        return (F.sub(mul(p[0], q[0]), mul(t, s2)),
                add(add(mul(p[0], q[1]), mul(p[1], q[0])), mul(t, s1)))

    def norm(p):
        return add(mul(p[0], add(p[0], mul(p[1], s1))), mul(mul(p[1], p[1]), s2))

    W2 = norm((de, ga))
    if W2 == F.zero:
        r = F.neg(F.div(de, ga))
        P1 = transform_point(iso, CurvePoint("affine", x=r, y=b(r)))
        r2 = F.sub(s1, r)
        P2 = transform_point(iso, CurvePoint("affine", x=r2, y=b(r2)))
        return pair_from_points(target, P1, P2)
    inv = F.inv(W2)
    winv = (mul(add(de, mul(ga, s1)), inv), F.neg(mul(ga, inv)))
    X = rmul((be, al), winv)
    v = (u[3], F.zero)  # u(rho) by Horner; rho (v0 + v1 rho) = -v1 s2 + (v0 + v1 s1) rho
    for i in (2, 1, 0):
        v = (F.sub(u[i], mul(v[1], s2)), add(v[0], mul(v[1], s1)))
    Y = rmul((add(mul(e, b[0]), v[0]), add(mul(e, b[1]), v[1])), rmul(rmul(winv, winv), winv))
    p = F.div(Y[1], X[1])
    trace = add(add(X[0], X[0]), mul(X[1], s1))
    at = Poly(F, [norm(X), F.neg(trace), F.one])
    return MumfordDivisor(at, Poly(F, [F.sub(Y[0], mul(p, X[0])), p]))


# ---------------------------------------------------------------------------
# The simplified model (odd characteristic); Kummer matrices of isomorphisms
# ---------------------------------------------------------------------------

def simplified_model(c: CurveModel) -> tuple[CurveModel, ModelIsomorphism]:
    """The model y^2 = 4f + h^2 with the isomorphism y -> 2y + h(x)."""
    F = c.field
    if F.characteristic() == 2:
        raise CharacteristicTwo("no simplified model in characteristic 2")
    iso = ModelIsomorphism(F, (F.one, F.zero, F.zero, F.one), F.from_int(2), c.h)
    return transform(c, iso), iso


def kummer_matrix(c: CurveModel, iso: ModelIsomorphism) -> Matrix:
    """The 4x4 matrix M with kappa_t ~ M kappa, for kappa the Kummer
    coordinates on ``c`` and kappa_t those on ``transform(c, iso)``, in any
    characteristic.  ``iso`` is split into steps, each applied to the
    current model:

    - y -> e*y + u(x) fixes k1..k3; row 4 is (2u0u2 - e(h0u2 + h2u0),
      2u0u3 - e(h0u3 + h3u0), 2u1u3 - e(h1u3 + h3u1), e^2);
    - x -> x + t: rows (1,0,0,0), (2t,1,0,0), (t^2,t,1,0) and (f3t - 2f4t^2
      + 4f5t^3 - 8f6t^4, f5t^2 - 4f6t^3, 2f5t - 6f6t^2, 1);
    - x -> lam*x is diag(1, lam, lam^2, lam^-2), and x -> 1/x swaps k1, k3.

    With c != 0 the Moebius map is translate by d/c, scale by c, invert,
    scale by -det/c, translate by a/c; with c = 0 it is scale by a/d,
    translate by b/d, and d^-3 moves into e and u."""
    F = c.field
    zero, one, n, mul, add = F.zero, F.one, F.from_int, F.mul, F.add
    a, b, g, d = iso.mobius
    e, u = iso.yscale, iso.yshift
    if g == zero:
        d3inv = F.inv(mul(mul(d, d), d))
        e, u = mul(e, d3inv), u.scale(d3inv)
        steps = [(F.div(a, d), zero, zero, one), (one, F.div(b, d), zero, one)]
    else:
        steps = [(one, F.div(d, g), zero, one), (g, zero, zero, one), (zero, one, one, zero),
                 (F.neg(F.div(iso.det(), g)), zero, zero, one), (one, F.div(a, g), zero, one)]
    h = c.h
    row4 = [F.sub(mul(n(2), mul(u[i], u[j])), mul(e, add(mul(h[i], u[j]), mul(h[j], u[i]))))
            for i, j in ((0, 2), (0, 3), (1, 3))]
    eye = Matrix.identity(F, 4).rows
    M = Matrix(F, eye[:3] + [row4 + [mul(e, e)]])
    cur = transform(c, ModelIsomorphism(F, (one, zero, zero, one), e, u))
    for mob in steps:
        lam, t, inverts, _ = mob
        if inverts != zero:
            step = [eye[2], eye[1], eye[0], eye[3]]
        elif t == zero:
            l2 = mul(lam, lam)
            step = [[v if k == r else zero for k in range(4)] for r, v in enumerate((one, lam, l2, F.inv(l2)))]
        else:
            f3, f4, f5, f6 = (cur.f[i] for i in range(3, 7))
            s = mul(n(-2), t)  # row 4 in powers of s = -2t
            step = [[one, zero, zero, zero], [add(t, t), one, zero, zero], [mul(t, t), t, one, zero],
                    [mul(t, add(add(f3, mul(s, f4)), mul(mul(s, s), add(f5, mul(s, f6))))),
                     mul(mul(t, t), add(f5, mul(n(2), mul(s, f6)))),
                     mul(t, add(mul(n(2), f5), mul(n(3), mul(s, f6)))), one]]
        M = Matrix(F, step).mul(M)
        cur = transform(cur, ModelIsomorphism(F, mob, one, Poly(F, [])))
    return M


# ---------------------------------------------------------------------------
# Characteristic-2 normal forms
# ---------------------------------------------------------------------------

def _h_projective_roots(c: CurveModel):
    """Distinct roots of the cubic form extending h, with multiplicities.

    Returns a list of (value-or-INFINITY, multiplicity)."""
    F = c.field
    out = list(roots(c.h)) if c.h.degree >= 1 else []
    inf_mult = 3 - c.h.degree
    if inf_mult > 0:
        out.append((INFINITY, inf_mult))
    return out


def _mobius_one_to_infinity(F: Field, rho) -> tuple:
    """Matrix sending rho to infinity."""
    if rho is INFINITY:
        return (F.one, F.zero, F.zero, F.one)
    return (F.zero, F.one, F.one, F.neg(rho))


def _mobius_pair_to_zero_infinity(F: Field, s, d) -> tuple:
    """Matrix sending s to 0 and d to infinity (s != d)."""
    if s is INFINITY:
        return (F.zero, F.one, F.one, F.neg(d))
    if d is INFINITY:
        return (F.one, F.neg(s), F.zero, F.one)
    return (F.one, F.neg(s), F.one, F.neg(d))


def _mobius_triple_to_zero_infinity_one(F: Field, s1, s2, s3) -> tuple:
    """Matrix sending (s1, s2, s3) to (0, infinity, 1); pairwise distinct."""
    if s1 is INFINITY:
        # x -> (s3 - s2)/(x - s2)
        return (F.zero, F.sub(s3, s2), F.one, F.neg(s2))
    if s2 is INFINITY:
        # x -> (x - s1)/(s3 - s1)
        return (F.one, F.neg(s1), F.zero, F.sub(s3, s1))
    if s3 is INFINITY:
        return (F.one, F.neg(s1), F.one, F.neg(s2))
    lam = F.div(F.sub(s3, s2), F.sub(s3, s1))
    return (lam, F.neg(F.mul(lam, s1)), F.one, F.neg(s2))


def char2_normal_form(c: CurveModel) -> tuple[str, CurveModel, ModelIsomorphism]:
    """Reduce a characteristic-2 curve to h in {1, x, x^2 + x} with
    f = f1 x + f3 x^3 + f5 x^5.

    The case is determined by the number of distinct projective roots of the
    cubic form extending h (1, 2, or 3 for cases a, b, c).  Raises
    RootsNotRational when a root or an Artin-Schreier preimage needed for the
    reduction does not lie in the base field, SingularCurve when the case's
    nonsingularity condition fails.
    """
    F = c.field
    if F.characteristic() != 2:
        raise CharacteristicTwo("normal forms are for characteristic 2")
    nonsingular(c)
    rts = _h_projective_roots(c)
    if sum(m for _r, m in rts) != 3:
        raise RootsNotRational("the cubic form extending h does not split over the base field")
    rts.sort(key=lambda rm: (rm[0] is INFINITY, 0 if rm[0] is INFINITY else rm[0]))
    distinct = [r for r, _m in rts]
    n = len(distinct)
    if n == 1:
        case = "a"
        mob = _mobius_one_to_infinity(F, distinct[0])
    elif n == 2:
        case = "b"
        simple = next(r for r, m in rts if m == 1)
        double = next(r for r, m in rts if m == 2)
        mob = _mobius_pair_to_zero_infinity(F, simple, double)
    else:
        case = "c"
        affine_roots = [r for r in distinct if r is not INFINITY]
        if len(affine_roots) == 3:
            r0, rinf, r1 = affine_roots
        else:
            r0, r1 = affine_roots
            rinf = INFINITY
        mob = _mobius_triple_to_zero_infinity_one(F, r0, rinf, r1)
    iso1 = ModelIsomorphism(F, mob, F.one, Poly(F, []))
    c1 = transform(c, iso1)
    # rescale y so that h is monic: exactly 1, x, or x^2 + x
    lead = c1.h[c1.h.degree]
    iso2 = ModelIsomorphism(
        F, (F.one, F.zero, F.zero, F.one), F.inv(lead), Poly(F, [])
    )
    c2 = transform(c1, iso2)
    # y-shift killing the even coefficients of f
    fq = c2.f
    sqrt = F.sqrt
    if case == "a":
        u3 = sqrt(fq[6])
        u2 = sqrt(fq[4])
        u1 = sqrt(F.add(fq[2], u2))
        u0 = F._artin_schreier_solve(fq[0])  # type: ignore[attr-defined]
        if u0 is None:
            raise RootsNotRational("constant-term reduction has no rational preimage")
    elif case == "b":
        u0 = sqrt(fq[0])
        u3 = sqrt(fq[6])
        u2 = sqrt(F.add(fq[4], u3))
        u1 = F._artin_schreier_solve(fq[2])  # type: ignore[attr-defined]
        if u1 is None:
            raise RootsNotRational("x^2 coefficient reduction has no rational preimage")
    else:
        u0 = sqrt(fq[0])
        u3 = sqrt(fq[6])
        u2 = F._artin_schreier_solve(F.add(fq[4], u3))  # type: ignore[attr-defined]
        if u2 is None:
            raise RootsNotRational("x^4 coefficient reduction has no rational preimage")
        u1 = F._artin_schreier_solve(F.add(fq[2], u0))  # type: ignore[attr-defined]
        if u1 is None:
            raise RootsNotRational("x^2 coefficient reduction has no rational preimage")
    iso3 = ModelIsomorphism(F, (F.one, F.zero, F.zero, F.one), F.one, Poly(F, [u0, u1, u2, u3]))
    c3 = transform(c2, iso3)
    if c3 != normal_form_curve(F, case, c3.f[1], c3.f[3], c3.f[5]):
        raise SingularCurve(f"the reduction did not reach a case ({case}) normal form")
    iso = iso1.compose(iso2).compose(iso3)
    return case, c3, iso


def normal_form_beta(F: Field, f1, f3, f5):
    """f1 + f3 + f5 + f1^2 + f3^2 + f5^2, the extra case-(c) invariant."""
    s = F.add(F.add(f1, f3), f5)
    sq = F.add(F.add(F.mul(f1, f1), F.mul(f3, f3)), F.mul(f5, f5))
    return F.add(s, sq)


def normal_form_curve(F: Field, case: str, f1, f3, f5) -> CurveModel:
    """Build the normal-form curve of the given case; raises SingularCurve
    when the case condition fails."""
    h = {
        "a": Poly.const(F, F.one),
        "b": Poly.x(F),
        "c": Poly(F, [F.zero, F.one, F.one]),
    }[case]
    f = Poly(F, [F.zero, f1, F.zero, f3, F.zero, f5])
    c = CurveModel(F, f, h)
    if case == "a" and f5 == F.zero:
        raise SingularCurve("case (a) needs f5 != 0")
    if case == "b" and (f1 == F.zero or f5 == F.zero):
        raise SingularCurve("case (b) needs f1 f5 != 0")
    if case == "c" and (
        f1 == F.zero or f5 == F.zero or normal_form_beta(F, f1, f3, f5) == F.zero
    ):
        raise SingularCurve("case (c) needs f1 f5 (f1+f3+f5+f1^2+f3^2+f5^2) != 0")
    return c
