"""Per-curve reconstruction of the unprinted formula families.

For a fixed curve the ten biquadratic forms are determined (up to the
documented normalization) by their defining identities

    B_ij(K(P), K(Q))       =  lam * (w_i z_j + w_j z_i)   (i < j)
    B_ii(K(P), K(Q))       =  lam * w_i z_i               (diagonal convention)

with w, z Kummer coordinates of P+Q and P-Q.  They are the one sampled
solve: divisor classes drawn from the Cantor oracle give an exact linear
system whose expected kernel dimension and rank are asserted.  Swapping P
and Q fixes w and z, so every B_ij is symmetric in its two arguments and is
solved for over the 55 symmetric pairs of quadratic monomials rather than
all 100 products: a 110-column pair kernel for B11, B12 and about 130
samples.  Every other family is derived from the forms, not interpolated:

    delta(K(P))            ~  (B14, B24, B34, B44)(K(P), K(P))  ~  K(2P),

since with P = Q the difference is the zero class (0:0:0:1); and for Q of
order 2, where P+Q = P-Q, the forms at K(Q) factor as

    B_ij(x, K(Q))          =  mu * (Wx)_i (Wx)_j (2 - delta_ij),

which gives the translation matrix W with K(P+Q) ~ W K(P) in every
characteristic: in odd characteristic from the rows of B_rr and B_ir, in
characteristic 2, where the off-diagonal forms vanish, from the square
terms of B_ii alone.  The forms and the duplication quartics are re-checked
on fresh oracle samples before they are returned; each W is checked to
square to a scalar here and against oracle translations in ``verify``.

Normalizations: adding multiples of the defining quartic to a duplication
coordinate changes nothing on the surface, so each coordinate's coefficient
on the designated monomial k2^2 k4^2 is forced to zero and the first nonzero
coefficient of the concatenated vector is scaled to one.  The biquadratic
family is scaled so the first nonzero coefficient of B_11 is one.

Field routing: ``synthesize_bqf`` and ``synthesize_delta`` take the
working model of the curve they solve for, whose ``sample`` draws every
oracle class.  Large prime and binary fields are solved directly; the
rationals are solved modulo one or more 62-bit primes, then combined by CRT
and rational reconstruction and checked exactly over Q.  Tiny binary fields
have too few generic samples, so ``synthesize_formula_set``, the one place
that lifts, runs both stages on the curve lifted to an extension (degree 16
for GF(2)) and descends the coefficients back.  Every route runs the same
sample-and-solve loop, which doubles its sample count on a failed kernel or
rank check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebra import (
    BIQUADRATIC44,
    SYMMETRIC_PAIRS,
    CompiledForms,
    Matrix,
    Poly,
    QUARTIC4,
    biquadratic_rows,
    expand_symmetric,
    quadratic_form_matrix,
    quadratic_monomials,
    solve_kernel,
    symmetric_square,
    _rref,
)
from .curve import CurveModel, curve_from_text, kummer_matrix, simplified_model, validate
from .errors import (
    CrossCheckFailed,
    ExhaustedRetries,
    KernelDimensionUnexpected,
    NotInSubfield,
    UnsupportedDivisor,
    UnsupportedField,
)
from .field import BinaryField, Field, PrimeField, RationalField, gf2_poly_is_irreducible, is_prime
from .jacobian import WorkingModel, add, negate, to_point_pair, working_model
from .kummer import (
    KummerPoint,
    TwoTorsionData,
    kummer_coords,
    quartic_from_curve,
    squares_to_scalar,
    two_torsion_classes,
)

CONVENTION_TAG = "B_ii=w_i*z_i"

BQF_INDEX_PAIRS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]

_DESIGNATED = QUARTIC4.index[(0, 2, 0, 2)]  # k2^2 k4^2, leading monomial of K2*k4^2


def fingerprint(c: CurveModel) -> str:
    """Hash of field spec, curve coefficients, and the diagonal convention."""
    F = c.field
    text = "|".join(
        [
            F.spec_string(),
            ",".join(F.to_str(c.f[i]) for i in range(7)),
            ",".join(F.to_str(c.h[i]) for i in range(4)),
            CONVENTION_TAG,
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class FormulaSet:
    """Synthesized per-curve formula data, serializable as a KFS1 file."""

    curve: CurveModel
    fingerprint: str
    delta: tuple  # four 35-coefficient vectors over QUARTIC4
    bqf: dict  # (i, j) with i <= j -> 100-coefficient vector over BIQUADRATIC44
    w: list  # (class label, Matrix) pairs
    convention: str = CONVENTION_TAG


# ---------------------------------------------------------------------------
# Oracle sampling
# ---------------------------------------------------------------------------

DRAW_BOUND = 60  # attempts allowed per requested sample before giving up

FRESH_CHECKS = 24  # fresh oracle samples that re-check each synthesized family


def _kappa_of(wm: WorkingModel, D) -> KummerPoint:
    return kummer_coords(wm.user, to_point_pair(wm, D)).normalized()


def oracle_draws(wm: WorkingModel, rng, n, classes=None, arity=1):
    """n tuples of normalized Kummer points of oracle classes, taken on the
    user curve of ``wm``.

    Each attempt draws ``arity`` classes with ``wm.sample`` and takes kappa
    of every class ``classes(*drawn)`` returns (of the drawn classes
    themselves by default).  An attempt is redrawn when one of them has no
    supported Kummer image.  The tuples are generated lazily, so a check
    that stops early draws no further; after DRAW_BOUND * n attempts the
    generator raises ExhaustedRetries."""
    attempts = 0
    done = 0
    while done < n:
        attempts += 1
        if attempts > DRAW_BOUND * n:
            raise ExhaustedRetries(f"oracle sampling gave up after {attempts - 1} draws")
        drawn = [wm.sample(rng) for _ in range(arity)]
        try:
            pts = tuple(_kappa_of(wm, D) for D in (classes(*drawn) if classes else drawn))
        except UnsupportedDivisor:
            continue
        done += 1
        yield pts


def doubling(wm: WorkingModel):
    """Class map D -> (D, 2D) for ``oracle_draws``."""
    return lambda D: (D, add(wm, D, D))


def sum_and_difference(wm: WorkingModel):
    """Class map P, Q -> (P, Q, P+Q, P-Q) for ``oracle_draws`` (arity 2)."""
    return lambda P, Q: (P, Q, add(wm, P, Q), add(wm, P, negate(wm, Q)))


def _delta_samples(wm: WorkingModel, rng, n):
    """Pairs (kappa(P), kappa(2P)), both normalized."""
    return list(oracle_draws(wm, rng, n, doubling(wm)))


def _bqf_samples(wm: WorkingModel, rng, n):
    """n quadruples (x, y, w, z) = kappa of (P, Q, P+Q, P-Q), normalized,
    with k1 != 0 on all four (generic affine classes).

    P and Q are pairs from a growing pool of distinct classes with k1 != 0:
    each newly drawn class Q is paired with every earlier one P, so kappa of
    a class is computed once and a sample costs two additions and two kappa
    (about 17 classes give 130 samples).  Every draw and every pair counts
    as an attempt; after DRAW_BOUND * n attempts ExhaustedRetries is raised.
    The kernel and rank checks of the solve judge whether the samples are
    generic enough; the fresh checks draw independent classes instead."""
    zero = wm.field.zero
    pool, out = [], []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > DRAW_BOUND * n:
            raise ExhaustedRetries(f"oracle sampling gave up after {attempts - 1} attempts")
        Q = wm.sample(rng)
        if any(Q == P for P, _x in pool):
            continue
        try:
            y = _kappa_of(wm, Q).coords
        except UnsupportedDivisor:
            continue
        if y[0] == zero:
            continue
        negQ = negate(wm, Q)
        for P, x in pool:
            if len(out) == n:
                break
            attempts += 1
            try:
                w = _kappa_of(wm, add(wm, P, Q)).coords
                z = _kappa_of(wm, add(wm, P, negQ)).coords
            except UnsupportedDivisor:
                continue
            if w[0] != zero and z[0] != zero:
                out.append((x, y, w, z))
        pool.append((Q, y))
    return out


# ---------------------------------------------------------------------------
# Duplication quartics, derived from the biquadratic forms
# ---------------------------------------------------------------------------

# QUARTIC4 index of x^e y^e' collapsed at y = x, per BIQUADRATIC44 monomial
_COLLAPSED = [
    QUARTIC4.index[tuple(a + b for a, b in zip(ex, ey))] for ex, ey in BIQUADRATIC44.exponents
]


def _delta_solve(F: Field, bqf, quartic_vec):
    """The canonical duplication quartics from the biquadratic forms.

    With P = Q the difference is the zero class (0:0:0:1), so the identity
    gives B_i4(x, x) = lam * kappa(2P)_i for every i (the diagonal B44 by
    the halved convention).  Collapses B14, B24, B34, B44 onto QUARTIC4,
    zeroes each coordinate's designated coefficient with a quartic
    multiple, and scales the first nonzero coefficient to one."""
    zero = F.zero
    blocks = []
    for i in range(1, 5):
        blk = [zero] * 35
        for k, a in zip(_COLLAPSED, bqf[(i, 4)]):
            if a != zero:
                blk[k] = F.add(blk[k], a)
        co = blk[_DESIGNATED]
        if co != zero:
            blk = [F.sub(b, F.mul(co, q)) for b, q in zip(blk, quartic_vec)]
        blocks.append(blk)
    piv = next((a for blk in blocks for a in blk if a != zero), None)
    if piv is None:
        raise CrossCheckFailed("the biquadratic forms give a zero duplication")
    inv = F.inv(piv)
    return tuple(tuple(F.mul(inv, a) for a in blk) for blk in blocks)


def duplication(F: Field, delta):
    """The map k -> delta(k) on Kummer points, with the quartics compiled
    once for all the points it is applied to."""
    forms = CompiledForms(F, delta)
    return lambda k: KummerPoint(F, forms.quartic_values(quadratic_monomials(F, k.coords)))


def _fresh_check_delta(wm: WorkingModel, rng, delta, n):
    double = duplication(wm.field, delta)
    for x, d2 in _delta_samples(wm, rng, n):
        if not double(x).proportional(d2):
            raise CrossCheckFailed(f"duplication self-check failed at {x.text()}")


def synthesize_delta(wm: WorkingModel, rng, bqf):
    """The four duplication quartics of the user curve of ``wm``,
    canonically normalized: derived from its biquadratic forms ``bqf`` and
    re-checked on FRESH_CHECKS fresh oracle samples."""
    delta = _delta_solve(wm.field, bqf, quartic_from_curve(wm.user).vector)
    _fresh_check_delta(wm, rng, delta, FRESH_CHECKS)
    return delta


# ---------------------------------------------------------------------------
# Biquadratic forms
# ---------------------------------------------------------------------------

# Oracle samples for the first biquadratic solve: its (B11, B12) pair kernel
# has 110 columns, and 20 rows beyond that leave a margin.
PAIR_KERNEL_SAMPLES = 130


def _bqf_targets(F: Field, w, z):
    """The ten target values w_i z_j + w_j z_i (i < j) and w_i z_i."""
    out = {}
    for (i, j) in BQF_INDEX_PAIRS:
        a, b = i - 1, j - 1
        if i == j:
            out[(i, j)] = F.mul(w[a], z[a])
        else:
            out[(i, j)] = F.add(F.mul(w[a], z[b]), F.mul(w[b], z[a]))
    return out


def _bqf_solve(F: Field, samples):
    """Stage-one pair kernel for (B11, B12), then simultaneous right-hand
    sides for the remaining eight forms.

    Every B_ij is symmetric under P <-> Q, which fixes both w and z, so the
    unknowns are the 55 coefficients over SYMMETRIC_PAIRS: the pair kernel
    has 110 columns and stage two reduces to rank 55."""
    zero = F.zero
    nsym = len(SYMMETRIC_PAIRS)
    # the samples pair a few pool points, so each point's monomials are made once
    quads = {pt: quadratic_monomials(F, pt) for pt in dict.fromkeys(pt for s in samples for pt in s[:2])}
    monos = [F.symmetric_products(quads[x], quads[y], SYMMETRIC_PAIRS) for (x, y, _w, _z) in samples]
    targets = [_bqf_targets(F, w, z) for (_x, _y, w, z) in samples]
    # stage 1: B11(x,y) * t12 - B12(x,y) * t11 = 0
    stage_one = [(k, nsym) for k in range(nsym)] + [(k, nsym + 1) for k in range(nsym)]
    rows = [F.pair_products(mono + [tg[(1, 2)], F.neg(tg[(1, 1)])], stage_one) for mono, tg in zip(monos, targets)]
    kernel = solve_kernel(Matrix(F, rows))
    if len(kernel) != 1:
        raise KernelDimensionUnexpected(
            f"pair kernel for (B11, B12) has dimension {len(kernel)}, expected 1"
        )
    v = kernel[0]
    c11, c12 = expand_symmetric(F, v[:nsym]), expand_symmetric(F, v[nsym:])
    piv = next((i for i, a in enumerate(c11) if a != zero), None)
    if piv is None:
        raise KernelDimensionUnexpected("B11 came out identically zero")
    inv = F.inv(c11[piv])
    c11_sym = [F.mul(inv, a) for a in v[:nsym]]
    c11 = expand_symmetric(F, c11_sym)
    c12 = [F.mul(inv, a) for a in c12]
    # stage 2: per sample, lam = B11(x,y)/t11, with B11(x,y) read off the
    # sample's symmetric products by one sparse row; solve M c_ij = lam * t_ij
    stored = F.stored(c11_sym)
    b11 = [[(k, stored[k]) for k, c in enumerate(c11_sym) if c != zero]]
    rest = [(i, j) for (i, j) in BQF_INDEX_PAIRS if (i, j) not in ((1, 1), (1, 2))]
    aug = []
    for mono, tg in zip(monos, targets):
        lam = F.div(F.dots(b11, mono)[0], tg[(1, 1)])
        aug.append(mono + [F.mul(lam, tg[p]) for p in rest])
    rank, pivots = _rref(F, aug, nsym)
    if rank != nsym:
        raise KernelDimensionUnexpected(f"monomial matrix rank {rank}, expected {nsym}")
    for i in range(rank, len(aug)):
        if any(a != zero for a in aug[i][nsym:]):
            raise KernelDimensionUnexpected("inconsistent biquadratic system")
    forms = {(1, 1): tuple(c11), (1, 2): tuple(c12)}
    for t, p in enumerate(rest):
        vec = [zero] * nsym
        for rix, col in enumerate(pivots):
            vec[col] = aug[rix][nsym + t]
        forms[p] = tuple(expand_symmetric(F, vec))
    return forms


def bqf_values(F: Field, forms):
    """The map (x, y) -> {(i, j): B_ij(x, y)} over the keys of ``forms``,
    with the forms compiled once for all the argument pairs."""
    compiled = CompiledForms(F, biquadratics=forms)
    keys = list(forms)
    return lambda x, y: dict(
        zip(keys, compiled.biquadratic_values(keys, quadratic_monomials(F, x), quadratic_monomials(F, y)))
    )


def bqf_identity_mismatch(F: Field, values, x, y, w, z):
    """Check B_ij(x, y) = lam * t_ij(w, z) for x, y, w, z the Kummer
    coordinates of P, Q, P+Q, P-Q, with ``values`` the ``bqf_values`` map
    of the forms and one scalar lam fitted on the first nonzero target.
    Returns the first (i, j) that fails, or None."""
    tg = _bqf_targets(F, w, z)
    vals = values(x, y)
    lam = None
    for p in BQF_INDEX_PAIRS:
        if lam is None:
            if tg[p] == F.zero:
                if vals[p] != F.zero:
                    return p
                continue
            lam = F.div(vals[p], tg[p])
        if vals[p] != F.mul(lam, tg[p]):
            return p
    return None


def _fresh_check_bqf(wm: WorkingModel, rng, forms, n):
    F = wm.field
    values = bqf_values(F, forms)
    for x, y, w, z in oracle_draws(wm, rng, n, sum_and_difference(wm), arity=2):
        bad = bqf_identity_mismatch(F, values, x.coords, y.coords, w.coords, z.coords)
        if bad is not None:
            raise CrossCheckFailed(
                f"biquadratic self-check failed: B{bad[0]}{bad[1]} at {x.text()} , {y.text()}"
            )


def _solve_bqf(wm: WorkingModel, rng, check: int):
    """The sample-and-solve loop of every field route: PAIR_KERNEL_SAMPLES
    pool-paired samples, the staged solve and ``check`` fresh samples,
    doubling the sample count, up to four times PAIR_KERNEL_SAMPLES, while a
    kernel or rank check fails."""
    n = PAIR_KERNEL_SAMPLES
    while True:
        data = _bqf_samples(wm, rng, n)
        try:
            forms = _bqf_solve(wm.field, data)
            _fresh_check_bqf(wm, rng, forms, check)
            return forms
        except KernelDimensionUnexpected:
            if n >= 4 * PAIR_KERNEL_SAMPLES:
                raise
            n *= 2


def synthesize_bqf(wm: WorkingModel, rng):
    """The ten biquadratic forms of the user curve of ``wm``, scaled so B11
    starts with coefficient one and re-checked on FRESH_CHECKS fresh oracle
    samples.

    The diagonal forms satisfy B_ii = w_i z_i (halved relative to the i = j
    specialization of the off-diagonal identity), which stays nonzero in
    characteristic 2.  The forms are solved for in the 55-coefficient
    symmetric basis, so the staged solve reaches full rank at about 110
    samples.  Both routes run ``_solve_bqf``: on the curve itself, or modulo
    each reduction prime over Q.  A tiny binary field raises UnsupportedField;
    ``synthesize_formula_set`` lifts it to an extension first."""
    route = _route_field(wm.field)
    if route == "lift":
        raise UnsupportedField("a tiny binary field is solved on its lift (synthesize_formula_set)")
    if route == "modular":
        return _modular_bqf(wm, rng)
    return _solve_bqf(wm, rng, FRESH_CHECKS)


# ---------------------------------------------------------------------------
# Translation matrices, read off the biquadratic forms
# ---------------------------------------------------------------------------

def translation_matrices(c: CurveModel, bqf) -> list:
    """(label, W) for each rational two-torsion class of ``c``, read off its
    biquadratic forms ``bqf``; none over the rationals."""
    F = c.field
    if F.order() is None:
        return []
    derive = synthesize_w_char2 if F.characteristic() == 2 else synthesize_w_oddchar
    return [(T.label, derive(c, T, bqf)) for T in two_torsion_classes(c)]


def synthesize_w_oddchar(c: CurveModel, T: TwoTorsionData, bqf) -> Matrix:
    """Translation matrix for a two-torsion class, read off the biquadratic
    forms ``bqf`` with no sampling.

    T is its own negative, so P + T = P - T and the identity of the forms
    gives B_ij(x, t) = mu (Wx)_i (Wx)_j (2 - delta_ij) as quadratic forms in
    x, for t = kappa(T).  Let S_ij be the symmetric matrix of B_ij(., t) and
    w_i row i of W: then S_rr = mu w_r w_r^T and S_ir = mu (w_i w_r^T +
    w_r w_i^T).  For r, k with S_rr[k][k] = mu w_rk^2 != 0, row r of W is
    S_rr[k] and row i is S_ir[k] - S_ir[k][k] / (2 S_rr[k][k]) * S_rr[k],
    each times mu w_rk.  W is scaled so its first nonzero entry is one and
    asserted to square to a scalar; ``verify`` checks it on oracle samples."""
    F = c.field
    if F.characteristic() == 2:
        raise UnsupportedField("characteristic 2 reads W with synthesize_w_char2")
    zero = F.zero
    rows = biquadratic_rows(F, [bqf[p] for p in BQF_INDEX_PAIRS], T.kummer.coords)
    S = {p: quadratic_form_matrix(F, row) for p, row in zip(BQF_INDEX_PAIRS, rows)}
    pivot = next(((r, k) for r in range(1, 5) for k in range(4) if S[(r, r)][k][k] != zero), None)
    if pivot is None:
        raise KernelDimensionUnexpected(f"no B_rr(., kappa(T)) has a square term at class {T.label}")
    r, k = pivot
    srr = S[(r, r)][k]
    W = []
    for i in range(1, 5):
        if i == r:
            W.append(srr)
            continue
        sir = S[(min(i, r), max(i, r))][k]
        coef = F.div(sir[k], F.add(srr[k], srr[k]))
        W.append([F.sub(a, F.mul(coef, b)) for a, b in zip(sir, srr)])
    lead = next(a for row in W for a in row if a != zero)
    W = Matrix(F, W).scale(F.inv(lead))
    if not squares_to_scalar(W):
        raise KernelDimensionUnexpected("derived translation is not an involution")
    return W


# the quadratic monomial y_k^2 of each coordinate k, as a column of a
# ``biquadratic_rows`` row
_SQUARES = {b: ey.index(2) for b, (_ex, ey) in enumerate(BIQUADRATIC44.exponents[:10]) if 2 in ey}


def synthesize_w_char2(c: CurveModel, T: TwoTorsionData, bqf) -> Matrix:
    """Translation matrix for a two-torsion class in characteristic 2, read
    off the biquadratic forms ``bqf`` with no sampling.

    With 2 = 0 the factorization B_ij(x, t) = mu (Wx)_i (Wx)_j (2 - delta_ij)
    at t = kappa(T) leaves B_ij(., t) = 0 for i != j and B_ii(., t) =
    mu (Wx)_i^2 = sum_k mu w_ik^2 x_k^2, so row i of W, times sqrt(mu), is
    the square roots of the square coefficients of B_ii(., t).  W is scaled
    so that entry (2, 4) is one: its last column is then kappa(T)/k2, with
    k2 != 0 for every class in characteristic 2.  W is asserted to square to
    a scalar; ``verify`` checks it on oracle samples."""
    F = c.field
    if F.characteristic() != 2:
        raise UnsupportedField("odd characteristic reads W with synthesize_w_oddchar")
    zero = F.zero
    rows = biquadratic_rows(F, [bqf[p] for p in BQF_INDEX_PAIRS], T.kummer.coords)
    W = []
    for (i, j), row in zip(BQF_INDEX_PAIRS, rows):
        squares = [zero] * 4
        for b, v in row:
            if v == zero:
                continue
            if i != j or b not in _SQUARES:
                raise KernelDimensionUnexpected(
                    f"B{i}{j}(., kappa(T)) is not a sum of squares at class {T.label}"
                )
            squares[_SQUARES[b]] = F.sqrt(v)
        if i == j:
            W.append(squares)
    if W[1][3] == zero:
        raise KernelDimensionUnexpected(f"B22(., kappa(T)) has no k4^2 term at class {T.label}")
    W = Matrix(F, W).scale(F.inv(W[1][3]))
    if not squares_to_scalar(W):
        raise KernelDimensionUnexpected("derived translation is not an involution")
    return W


# ---------------------------------------------------------------------------
# Field routing: lifting tiny binary fields, modular route for Q
# ---------------------------------------------------------------------------

def _route_field(F: Field) -> str:
    if isinstance(F, RationalField):
        return "modular"
    if isinstance(F, BinaryField) and F.m < 13:
        return "lift"
    if isinstance(F, PrimeField) and F.p < 257:
        raise UnsupportedField(
            "synthesis needs a larger prime field (no odd-prime extension support)"
        )
    return "direct"


def binary_extension_of(F: BinaryField) -> BinaryField:
    """A canonical extension field with at least 2^13 elements (degree 16
    whenever the base degree divides 16, else the smallest admissible
    multiple); the modulus is the first irreducible odd bit-pattern."""
    m = F.m
    if 16 % m == 0:
        target = 16
    else:
        target = m
        while target < 13:
            target += m
    mod = (1 << target) | 1
    while not gf2_poly_is_irreducible(mod):
        mod += 2
    return BinaryField(target, mod)


def binary_embedding(sub: BinaryField, big: BinaryField):
    """Maps (embed, project) between GF(2^k) and a canonical copy inside
    GF(2^m); the image of the subfield generator is the root of the subfield
    modulus with the smallest bit-pattern."""
    from .algebra import roots as poly_roots

    if big.m % sub.m:
        raise NotInSubfield("degree does not divide the extension degree")
    modpoly = Poly(big, [(sub.mod >> i) & 1 for i in range(sub.m + 1)])
    rts = sorted(r for r, _m in poly_roots(modpoly))
    root = rts[0]
    fwd = {}
    for v in range(1 << sub.m):
        acc = big.zero
        for i in range(sub.m - 1, -1, -1):
            acc = big.mul(acc, root)
            if (v >> i) & 1:
                acc ^= big.one
        fwd[v] = acc
    back = {img: v for v, img in fwd.items()}
    return fwd, back


def _lift(c: CurveModel):
    """The curve over the canonical extension of its binary field, with the
    projection back onto the base field."""
    F = c.field
    big = binary_extension_of(F)
    fwd, back = binary_embedding(F, big)
    cl = CurveModel(
        big,
        Poly(big, [fwd[c.f[i]] for i in range(7)]),
        Poly(big, [fwd[c.h[i]] for i in range(4)]),
    )
    return cl, back


def _descend(vec, back) -> tuple:
    """The coefficients of ``vec`` mapped through ``back``, the projection
    onto a subfield; NotInSubfield when one lies outside it."""
    try:
        return tuple(back[v] for v in vec)
    except KeyError:
        raise NotInSubfield("coefficient lies outside the subfield") from None


# -- rationals: solve modulo large primes, reconstruct, verify exactly ------

def _reduction_primes():
    p = (1 << 62) + 1
    out = []
    while len(out) < 8:
        while not is_prime(p):
            p += 2
        out.append(p)
        p += 2
    return out


def _reduce_curve_mod(c: CurveModel, p: int) -> CurveModel | None:
    Fp = PrimeField(p)
    fco, hco = [], []
    for i in range(7):
        q = c.f[i]
        if q.denominator % p == 0:
            return None
        fco.append(q.numerator * pow(q.denominator, -1, p) % p)
    for i in range(4):
        q = c.h[i]
        if q.denominator % p == 0:
            return None
        hco.append(q.numerator * pow(q.denominator, -1, p) % p)
    cm = CurveModel(Fp, Poly(Fp, fco), Poly(Fp, hco))
    return cm if validate(cm).ok else None


def _rational_reconstruct(r: int, M: int) -> Fraction | None:
    from math import gcd

    bound = isqrt(M // 2)
    a0, a1 = M, r % M
    s0, s1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        s0, s1 = s1, s0 - q * s1
    n, d = a1, s1
    if d == 0:
        return None
    if d < 0:
        n, d = -n, -d
    if d > bound or gcd(n, d) != 1:
        return None
    if (n - r * d) % M:
        return None
    return Fraction(n, d)


def _crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> int:
    inv = pow(mod_a, -1, mod_b)
    t = (res_b - res_a) * inv % mod_b
    return res_a + mod_a * t


def _modular_bqf(wm: WorkingModel, rng):
    """The forms over Q: ``_solve_bqf`` modulo each reduction prime with no
    fresh check there, then CRT and rational reconstruction coefficient-wise,
    until a reconstruction passes FRESH_CHECKS fresh samples over Q."""
    residues = modulus = None
    for p in _reduction_primes():
        cm = _reduce_curve_mod(wm.user, p)
        if cm is None:
            continue
        forms = _solve_bqf(working_model(cm), random.Random(rng.randrange(1 << 62)), 0)
        vec = [a for q in BQF_INDEX_PAIRS for a in forms[q]]
        if residues is None:
            residues, modulus = vec, p
        else:
            residues = [_crt(a, modulus, b, p) for a, b in zip(residues, vec)]
            modulus *= p
        recon = [_rational_reconstruct(r, modulus) for r in residues]
        if any(v is None for v in recon):
            continue
        forms = {q: tuple(recon[100 * t : 100 * (t + 1)]) for t, q in enumerate(BQF_INDEX_PAIRS)}
        try:
            _fresh_check_bqf(wm, rng, forms, FRESH_CHECKS)
        except CrossCheckFailed:
            continue
        return forms
    raise KernelDimensionUnexpected("rational reconstruction failed to stabilize")


# ---------------------------------------------------------------------------
# Whole formula sets
# ---------------------------------------------------------------------------

def synthesize_formula_set(c: CurveModel, rng) -> FormulaSet:
    """Synthesize the full formula family of a curve: the biquadratic forms,
    and the duplication quartics and, over finite fields, the two-torsion
    translations derived from them.

    This is the one place a tiny binary field is lifted: both stages run on
    one working model, the curve's own or that of the curve lifted once to
    the extension, and the lifted forms and quartics are descended."""
    F = c.field
    target, back = c, None
    if _route_field(F) == "lift":
        target, back = _lift(c)
    wm = working_model(target)
    big = synthesize_bqf(wm, rng)
    descend = tuple if back is None else (lambda vec: _descend(vec, back))
    bqf = {k: descend(vec) for k, vec in big.items()}
    delta = tuple(map(descend, synthesize_delta(wm, rng, big)))
    return FormulaSet(c, fingerprint(c), delta, bqf, translation_matrices(c, bqf))


# ---------------------------------------------------------------------------
# Serialization (KFS1)
# ---------------------------------------------------------------------------

def serialize_formula_set(fs: FormulaSet) -> str:
    F = fs.curve.field
    ts = F.to_str
    lines = ["KFS1", fs.curve.curve_file_text().rstrip("\n")]
    lines += [f"convention {fs.convention}", f"fingerprint {fs.fingerprint}"]
    for i, blk in enumerate(fs.delta, start=1):
        lines.append(f"delta{i} quartic4 " + ",".join(ts(a) for a in blk))
    for (i, j) in BQF_INDEX_PAIRS:
        lines.append(f"B{i}{j} biquadratic44 " + ",".join(ts(a) for a in fs.bqf[(i, j)]))
    for label, m in fs.w:
        flat = [ts(a) for row in m.rows for a in row]
        lines.append(f"W {label} " + ",".join(flat))
    return "\n".join(lines) + "\n"


_DELTA_KEYS = {f"delta{i}": i - 1 for i in range(1, 5)}
_BQF_KEYS = {f"B{i}{j}": (i, j) for (i, j) in BQF_INDEX_PAIRS}


def deserialize_formula_set(text: str) -> FormulaSet:
    """Parse a KFS1 file; its field, f and h lines are read as a curve file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "KFS1":
        raise ValueError("not a KFS1 formula file")
    header = ("field", "f", "h")
    curve = curve_from_text("\n".join(ln for ln in lines if ln.partition(" ")[0] in header))
    F = curve.field
    convention = fp = None
    delta = [None] * 4
    bqf = {}
    w = []
    seen = set()
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        name = " ".join(ln.split(" ", 2)[:2]) if key == "W" else key  # a W line per class label
        if name in seen:
            raise ValueError(f"repeated KFS1 line {name}")
        seen.add(name)
        if key in header:
            continue
        if key == "convention":
            convention = rest.strip()
        elif key == "fingerprint":
            fp = rest.strip()
        elif key in _DELTA_KEYS:
            basis, _, csv = rest.partition(" ")
            if basis != "quartic4":
                raise ValueError("duplication coordinates use the quartic4 basis")
            vec = tuple(F.parse(t) for t in csv.split(","))
            if len(vec) != 35:
                raise ValueError("quartic4 vectors have 35 coefficients")
            delta[_DELTA_KEYS[key]] = vec
        elif key in _BQF_KEYS:
            basis, _, csv = rest.partition(" ")
            if basis != "biquadratic44":
                raise ValueError("biquadratic forms use the biquadratic44 basis")
            vec = tuple(F.parse(t) for t in csv.split(","))
            if len(vec) != 100:
                raise ValueError("biquadratic44 vectors have 100 coefficients")
            if any(vec[10 * a + b] != vec[10 * b + a] for a, b in SYMMETRIC_PAIRS):
                raise ValueError(f"{key} is not symmetric in its two arguments")
            bqf[_BQF_KEYS[key]] = vec
        elif key == "W":
            label, _, csv = rest.partition(" ")
            vals = [F.parse(t) for t in csv.split(",")]
            if len(vals) != 16:
                raise ValueError("translation matrices are 4x4")
            w.append((label, Matrix(F, [vals[4 * i : 4 * (i + 1)] for i in range(4)])))
        else:
            raise ValueError(f"unrecognized KFS1 line {ln!r}")
    if convention != CONVENTION_TAG:
        raise ValueError(f"unknown diagonal convention {convention!r}")
    if fp != fingerprint(curve):
        raise ValueError("stale formula file: fingerprint mismatch")
    if any(d is None for d in delta) or len(bqf) != 10:
        raise ValueError("incomplete formula file")
    return FormulaSet(curve, fp, tuple(delta), bqf, w, convention)


# ---------------------------------------------------------------------------
# Form transport between models, and the cross-checks through it
# ---------------------------------------------------------------------------

def transport_forms(F: Field, bqf, M: Matrix) -> dict:
    """The biquadratic forms of a target model from those ``bqf`` of a
    source model, where kappa_target ~ M kappa_source (``kummer_matrix``).

    With w_t = M w and z_t = M z, each target t_ij(w_t, z_t) combines the
    source t_ab(w, z): for i < j with M_ia M_jb + M_ja M_ib (a < b) and
    2 M_ia M_ja (a = b), for i = j with M_ia M_ib and M_ia^2, which is column
    ij of symmetric_square(M^T).  Nothing is halved, so characteristic 2
    works.  Both arguments of each combined form are then substituted by
    N = M^-1: on its 10x10 coefficient matrix C (x-monomials by y-monomials)
    that is C' = R^T C R with R = symmetric_square(N)."""
    S = symmetric_square(F, list(zip(*M.rows))).rows
    R = symmetric_square(F, M.inverse().rows)
    Rt = Matrix(F, list(zip(*R.rows)))
    out = {}
    for col, p in enumerate(BQF_INDEX_PAIRS):
        comb = [F.zero] * BIQUADRATIC44.size
        for row, q in zip(S, BQF_INDEX_PAIRS):
            if row[col] != F.zero:
                comb = [F.add(acc, F.mul(row[col], v)) for acc, v in zip(comb, bqf[q])]
        C = Rt.mul(Matrix(F, [comb[10 * r : 10 * r + 10] for r in range(10)]).mul(R))
        out[p] = tuple(v for r in C.rows for v in r)
    return out


def crosscheck_tau_delta(wm: WorkingModel, rng, npoints: int, delta, delta_prime) -> dict:
    """Conjugation consistency of duplication with the model change.

    ``delta`` is the duplication of the user curve of ``wm`` and
    ``delta_prime`` that of its simplified model y^2 = 4f + h^2.  Checks
    T(delta(k)) = const * delta'(T(k)) at ``npoints`` surface points drawn
    with ``wm``, with T the Kummer matrix of the model change and one
    constant across all points and coordinates."""
    c = wm.user
    F = c.field
    if F.characteristic() == 2:
        raise UnsupportedField("the simplified model needs odd characteristic")
    _csimp, iso = simplified_model(c)
    T = kummer_matrix(c, iso)
    double, double_prime = duplication(F, delta), duplication(F, delta_prime)
    ratio = None
    for (k,) in oracle_draws(wm, rng, npoints):
        lhs = T.apply(list(double(k).coords))
        rhs = double_prime(KummerPoint(F, T.apply(list(k.coords)))).coords
        piv = next((i for i in range(4) if rhs[i] != F.zero), None)
        if piv is None:
            raise CrossCheckFailed("simplified-model duplication vanished")
        r = F.div(lhs[piv], rhs[piv])
        if ratio is None:
            ratio = r
        if r != ratio or any(lhs[i] != F.mul(ratio, rhs[i]) for i in range(4)):
            raise CrossCheckFailed("duplication does not commute with the model change")
    return {"ok": True, "points": npoints, "ratio": F.to_str(ratio)}


def crosscheck_b_conversion(wm: WorkingModel, rng, npoints: int, bqf, bqf_prime) -> dict:
    """The biquadratic forms ``bqf_prime`` of the simplified model
    y^2 = 4f + h^2, transported back to the user curve of ``wm``, against
    that curve's own forms ``bqf``.

    The two families are synthesized independently, one on each model.
    ``bqf_prime`` is transported once, through the inverse of the Kummer
    matrix of the model change, and one scalar must fit all ten entries at
    every sampled argument pair, drawn as in ``crosscheck_tau_delta``."""
    c = wm.user
    F = c.field
    if F.characteristic() == 2:
        raise UnsupportedField("the simplified model needs odd characteristic")
    _csimp, iso = simplified_model(c)
    back = bqf_values(F, transport_forms(F, bqf_prime, kummer_matrix(c, iso).inverse()))
    own = bqf_values(F, bqf)
    scalar = None
    for checked, (kx, ky) in enumerate(oracle_draws(wm, rng, npoints, arity=2)):
        conv = back(kx.coords, ky.coords)
        vals = own(kx.coords, ky.coords)
        for (i, j) in BQF_INDEX_PAIRS:
            if scalar is None and conv[(i, j)] != F.zero:
                scalar = F.div(vals[(i, j)], conv[(i, j)])
            if vals[(i, j)] != F.mul(F.zero if scalar is None else scalar, conv[(i, j)]):
                raise CrossCheckFailed(f"conversion failed at entry B{i}{j} after {checked} points")
    return {"ok": True, "points": npoints, "scalar": F.to_str(scalar)}
