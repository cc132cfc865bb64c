"""Shared test helpers: independently transcribed classical quartic tables
(the h = 0 specialization) and the paper's printed characteristic-2
translation matrix, the independent oracles that tests compare the library
against, and small conveniences."""

from g2kummer.algebra import (
    CompiledForms,
    Matrix,
    Poly,
    biquadratic_rows,
    quadratic_monomials,
    quadratic_value,
    roots_and_quadratic_factors,
)
from g2kummer.curve import CurvePoint, simplified_model
from g2kummer.jacobian import MumfordDivisor, add, to_point_pair, working_model
from g2kummer.kummer import KummerPoint, kummer_coords, on_surface, two_torsion_classes, zero_class_point
from g2kummer.ladder import _step, _working, xdbl
from g2kummer.synthesis import synthesize_bqf, synthesize_delta


def classical_k1(F, f):
    m = F.mul
    n = F.neg
    i2, i4 = F.from_int(2), F.from_int(4)
    return {
        (3, 0, 0): n(m(i4, f[0])),
        (2, 1, 0): n(m(i2, f[1])),
        (2, 0, 1): n(m(i4, f[2])),
        (1, 1, 1): n(m(i2, f[3])),
        (1, 0, 2): n(m(i4, f[4])),
        (0, 1, 2): n(m(i2, f[5])),
        (0, 0, 3): n(m(i4, f[6])),
    }


def classical_k0(F, f):
    def m(*vals):
        acc = F.one
        for v in vals:
            acc = F.mul(acc, v)
        return acc

    def s(*terms):
        acc = F.zero
        for t in terms:
            acc = F.add(acc, t)
        return acc

    n = F.neg
    c2, c4, c8 = (F.from_int(k) for k in (2, 4, 8))
    return {
        (4, 0, 0): s(n(m(c4, f[0], f[2])), m(f[1], f[1])),
        (3, 1, 0): n(m(c4, f[0], f[3])),
        (3, 0, 1): n(m(c2, f[1], f[3])),
        (2, 2, 0): n(m(c4, f[0], f[4])),
        (2, 1, 1): s(m(c4, f[0], f[5]), n(m(c4, f[1], f[4]))),
        (2, 0, 2): s(n(m(c4, f[0], f[6])), m(c2, f[1], f[5]), n(m(c4, f[2], f[4])), m(f[3], f[3])),
        (1, 3, 0): n(m(c4, f[0], f[5])),
        (1, 2, 1): s(m(c8, f[0], f[6]), n(m(c4, f[1], f[5]))),
        (1, 1, 2): s(m(c4, f[1], f[6]), n(m(c4, f[2], f[5]))),
        (1, 0, 3): n(m(c2, f[3], f[5])),
        (0, 4, 0): n(m(c4, f[0], f[6])),
        (0, 3, 1): n(m(c4, f[1], f[6])),
        (0, 2, 2): n(m(c4, f[2], f[6])),
        (0, 1, 3): n(m(c4, f[3], f[6])),
        (0, 0, 4): s(n(m(c4, f[4], f[6])), m(f[5], f[5])),
    }


def printed_translation(c, T):
    """The paper's printed translation matrix of a characteristic-2
    two-torsion class T, and k' = kappa(T)/k2, its last column.

    T is {Q1, Q2} with h(x) = (x - x1)(x - x2) t(x), or h(x) = (x - x1) t(x)
    when Q2 is the infinite point (h3 = 0); the entries reference only the
    odd coefficients f1, f3, f5 of f, the even ones entering through b'
    and c."""
    F = c.field
    assert F.characteristic() == 2

    def m(*vals):
        acc = F.one
        for v in vals:
            acc = F.mul(acc, v)
        return acc

    def s(*terms):
        acc = F.zero
        for t in terms:
            acc = F.add(acc, t)
        return acc

    a, b = T.divisor.a, T.divisor.b
    t = c.h.exact_div(a)
    t0, t1 = t[0], t[1]
    k = T.kummer.coords
    if T.case_tag == "affineAffine":
        # a = x^2 + s1 x + s2 with s1 = x1 + x2, s2 = x1 x2, and b the line
        # through (x1, y1), (x2, y2); c = y1 y2 / s1 with f mod a = c1 x + c0
        s1, s2 = a[1], a[0]
        kp = tuple(F.div(v, k[1]) for v in k)
        b0 = F.div(b[1], s1)
        b1 = F.div(b[0], s1)
        b2 = s(m(b1, s1), m(b0, s2))
        b3 = s(m(b2, s1), m(b1, s2))
        frem = c.f % a
        c1, c0 = frem[1], frem[0]
        cc = F.div(F.sqrt(s(m(c1, c1, s2), m(c0, c1, s1), m(c0, c0))), s1)
    else:
        # a = x + x1, y1 = b, and r6 = sqrt(f6) the branch at infinity
        x1, y1, r6 = a[0], b[0], T.divisor.branch
        kp = k
        b0, b1 = r6, m(r6, x1)
        b2 = m(b1, x1)
        b3 = s(m(b2, x1), y1)
        cc = m(y1, r6)
    f1, f3, f5 = c.f[1], c.f[3], c.f[5]
    k1, k2, k3, k4 = kp
    w41 = s(m(t0, f1, b0), m(t0, f3, b2), m(t0, t0, cc), m(t1, f1, b1), m(f3, f1, k1))
    w42 = s(m(t0, f5, b3), m(t0, t1, cc), m(t1, f1, b0), m(f1, f5, k2))
    w43 = s(m(t0, f5, b2), m(t1, f3, b1), m(t1, f5, b3), m(t1, t1, cc), m(f3, f5, k3))
    rows = [
        [s(m(t1, b2), k4), s(m(t1, b1), m(f5, k3)), s(m(t1, b0), m(f5, k2)), k1],
        [s(m(t0, b2), m(t1, b3), m(f3, k3)), s(m(t0, b1), m(t1, b2), k4),
         s(m(t0, b0), m(t1, b1), m(f3, k1)), k2],
        [s(m(t0, b3), m(f1, k2)), s(m(t0, b2), m(f1, k1)), s(m(t0, b1), k4), k3],
        [w41, w42, w43, k4],
    ]
    return Matrix(F, rows), kp


def kappa_of(c, wm, D):
    return kummer_coords(c, to_point_pair(wm, D)).normalized()


def eval_quartic(F, coeffs, point):
    """One QUARTIC4 form at the raw quadruple ``point``."""
    return CompiledForms(F, [coeffs]).quartic_values(quadratic_monomials(F, point))[0]


def eval_biquadratic(F, coeffs, x, y):
    """One BIQUADRATIC44 form at the raw quadruples x and y."""
    (row,) = biquadratic_rows(F, [coeffs], x)
    return quadratic_value(F, row, quadratic_monomials(F, y))


def involution(c, P):
    """The hyperelliptic involution (x, y) -> (x, -y - h(x))."""
    F = c.field
    if P.kind == "affine":
        return CurvePoint("affine", x=P.x, y=F.sub(F.neg(P.y), c.h(P.x)))
    return CurvePoint("infinity", branch=F.sub(F.neg(P.branch), c.h[3]))


def is_identity(iso):
    """Whether a ModelIsomorphism is the identity up to its projective scale."""
    F = iso.field
    n = iso.normalized()
    return n.mobius == (F.one, F.zero, F.zero, F.one) and n.yscale == F.one and n.yshift.is_zero()


def scalar_mul(wm, D, n):
    """n*D by double-and-add on the Cantor oracle; n must be nonnegative."""
    if n < 0:
        raise ValueError("nonnegative scalars only")
    acc = wm.zero()
    base = D
    while n:
        if n & 1:
            acc = add(wm, acc, base)
        n >>= 1
        if n:
            base = add(wm, base, base)
    return acc


def enumerate_divisors(wm):
    """All reduced divisors over a tiny finite field (exhaustive)."""
    F = wm.field
    q = F.order()
    if q is None or q > 64:
        raise ValueError("exhaustive enumeration is for tiny fields")
    f, h = wm.model.f, wm.model.h
    out = [wm.zero()]
    elems = list(range(q))
    # degree 1
    for a0 in elems:
        for b0 in elems:
            a = Poly(F, [a0, F.one])
            b = Poly.const(F, b0)
            if ((b * b + b * h - f) % a).is_zero():
                out.append(MumfordDivisor(a, b))
    # degree 2
    for a0 in elems:
        for a1 in elems:
            a = Poly(F, [a0, a1, F.one])
            for b0 in elems:
                for b1 in elems:
                    b = Poly(F, [b0, b1])
                    if ((b * b + b * h - f) % a).is_zero():
                        out.append(MumfordDivisor(a, b))
    return out


def two_torsion_count_check(c):
    """Characteristic-2 sanity: the rational two-torsion count matches the
    Galois-stable pair structure of the cubic form extending h, and the
    geometric count 2^(distinct roots - 1) lies in {1, 2, 4}.

    Distinct roots are counted over the closure: rational roots once each,
    any surviving irreducible factor contributes its degree (for deg <= 3 it
    is automatically squarefree), plus the infinite root when deg h < 3."""
    F = c.field
    rational, quads = roots_and_quadratic_factors(c.h) if c.h.degree >= 1 else ([], [])
    rest_degree = c.h.degree - sum(mult for _r, mult in rational)
    n_closure = len(rational) + rest_degree + (1 if c.h[3] == F.zero else 0)
    geometric = 1 << (n_closure - 1)
    n_rat = len(rational) + (1 if c.h[3] == F.zero else 0)
    pred = n_rat * (n_rat - 1) // 2 + len(quads)
    classes = two_torsion_classes(c)
    return {
        "ok": geometric in (1, 2, 4) and len(classes) == pred,
        "geometric_order": geometric,
        "rational_classes": len(classes),
        "predicted": pred,
    }


def interpreted_pseudo_sum(forms, j, qx, qy, zc):
    """The coordinates w~ of kappa(P+Q) under pivot j, from
    ``CompiledForms.biquadratic_values`` and the counted ``mul`` and
    ``sub``: the interpreted reference of a compiled ``xadd`` step on the
    same forms, w~_j = z_j B_jj and w~_i = z_j B_ij - B_jj z_i."""
    F = forms.field
    others = [i for i in range(4) if i != j]
    keys = [(j + 1, j + 1)] + [(min(i, j) + 1, max(i, j) + 1) for i in others]
    bjj, *bij = forms.biquadratic_values(keys, qx, qy)
    w = [F.sub(F.mul(zc[j], b), F.mul(bjj, zc[i])) for i, b in zip(others, bij)]
    w.insert(j, F.mul(zc[j], bjj))
    return w


def xadd_every_pivot(ctx, x, y, z):
    """kappa(P+Q) as ``ladder.xadd`` computes it, on the working model,
    under every pivot j with z_j != 0 there in turn (a pivot whose result
    vanishes raises): asserts that all are proportional, and returns the
    first, mapped back to the curve's own model."""
    F = ctx.curve.field
    into = _working(ctx).into
    qx, qy = (quadratic_monomials(F, into.apply(p.coords)) for p in (x, y))
    zc = into.apply(z.coords)
    first, *rest = [KummerPoint(F, _step(ctx, j)(qx, qy, zc)[0]) for j in range(4) if zc[j] != F.zero]
    assert all(first.proportional(w) for w in rest), "pivot results disagree"
    return KummerPoint(F, ctx.out.apply(first.coords))


def checked_ladder(ctx, x, n):
    """kappa(nP) by the chain of ``ladder.ladder``, with each addition under
    every pivot (``xadd_every_pivot``) and each point it makes asserted to
    lie on the Kummer surface."""
    if n == 0:
        return zero_class_point(ctx.curve.field)
    r0, r1 = x, xdbl(ctx, x)
    for bit_pos in range(n.bit_length() - 2, -1, -1):
        if (n >> bit_pos) & 1:
            r0, r1 = xadd_every_pivot(ctx, r0, r1, x), xdbl(ctx, r1)
        else:
            r0, r1 = xdbl(ctx, r0), xadd_every_pivot(ctx, r0, r1, x)
        assert on_surface(ctx.quartic, r0) and on_surface(ctx.quartic, r1)
    return r0


def simplified_families(c, rng):
    """The biquadratic forms and duplication quartics of the simplified
    model y^2 = 4f + h^2 of c, synthesized on its own working model, for
    the cross-checks."""
    wm = working_model(simplified_model(c)[0])
    bqf = synthesize_bqf(wm, rng)
    return bqf, synthesize_delta(wm, rng, bqf)
