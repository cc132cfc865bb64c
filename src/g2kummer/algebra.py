"""Univariate polynomials, exact dense linear algebra, and form bases.

Polynomials are dense coefficient lists (lowest degree first, raw field
values, no trailing zeros).  Matrices are row-major lists of raw values.
Two fixed monomial bases are defined:

- ``QUARTIC4``: the 35 monomials of total degree 4 in k1..k4, graded-lex
  with k1 > k2 > k3 > k4;
- ``BIQUADRATIC44``: the 100 products of a degree-2 monomial in x1..x4 and a
  degree-2 monomial in y1..y4, x-block-major, each block graded-lex.
  Biquadratic forms must be symmetric in x and y; they are solved for and
  evaluated over ``SYMMETRIC_PAIRS``, the 55 pairs a <= b of quadratic
  monomials, and expanded back.

The same orderings are used by formula synthesis and serialization.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt, lcm

from .errors import AsymmetricForm, DivisionByZero, LengthMismatch, UnsupportedField
from .field import Field


class Poly:
    """Dense univariate polynomial over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        while coeffs and coeffs[-1] == field.zero:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, [field.from_int(c) for c in ints])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [field.zero, field.one])

    @classmethod
    def const(cls, field: Field, c) -> "Poly":
        return cls(field, [c])

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [
            f"{self.field.to_str(c)}*x^{i}" for i, c in enumerate(self.coeffs) if c != self.field.zero
        ]
        return "Poly(" + " + ".join(terms) + ")"

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, [F.add(self[i], other[i]) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, [F.sub(self[i], other[i]) for i in range(n)])

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly(F, [])
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == F.zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b != F.zero:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        F = self.field
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(F, []), self
        inv_lc = F.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        db = other.degree
        quot = [F.zero] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == F.zero:
                continue
            q = F.mul(c, inv_lc)
            quot[i - db] = q
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] = F.sub(rem[i - db + j], F.mul(q, b))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        if a.is_zero() and b.is_zero():
            raise DivisionByZero("gcd(0, 0)")
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(g, s, t) with s*self + t*other = g, g monic."""
        F = self.field
        r0, r1 = self, other
        s0, s1 = Poly.const(F, F.one), Poly(F, [])
        t0, t1 = Poly(F, []), Poly.const(F, F.one)
        while not r1.is_zero():
            q, r = r0.divrem(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            raise DivisionByZero("xgcd(0, 0)")
        inv = F.inv(r0.coeffs[-1])
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divrem(other)
        if not r.is_zero():
            raise DivisionByZero("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def deriv(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(F.from_int(i), self.coeffs[i]))
        return Poly(F, out)

    def __call__(self, x):
        """Evaluate at a raw field value (Horner)."""
        F = self.field
        y = F.zero
        for c in reversed(self.coeffs):
            y = F.add(F.mul(y, x), c)
        return y

    def squarefree(self) -> bool:
        d = self.deriv()
        if d.is_zero():
            return self.degree <= 0
        return self.gcd(d).degree == 0


# ---------------------------------------------------------------------------
# Root finding over finite fields
# ---------------------------------------------------------------------------

def _pow_poly_mod(base: Poly, n: int, mod: Poly) -> Poly:
    """base**n mod ``mod`` by square-and-multiply."""
    F = base.field
    r = Poly.const(F, F.one)
    b = base % mod
    while n:
        if n & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        n >>= 1
    return r


def _equal_degree_split(p: Poly, d: int) -> list[Poly]:
    """The factors of p, a monic product of distinct monic irreducible
    polynomials of degree d over a finite field, by Cantor-Zassenhaus
    splitting.

    Each probe is a random a with deg a < deg p.  In odd characteristic
    gcd(p, a^((q^d - 1)/2) - 1) collects the factors modulo which a is a
    nonzero square; in characteristic 2 (q = 2^m) gcd(p, sum_{i < dm}
    a^(2^i) mod p) collects those modulo which a has absolute trace zero.
    Each factor falls on either side about half the time, independently, so
    a probe splits p with probability about one half or better, whatever
    the factors.  The probes are seeded from p's coefficients, so the
    factors come back in a deterministic order."""
    F = p.field
    n = p.degree
    if n <= d:
        return [p] if n == d else []
    q = F.order()
    rng = random.Random(hash(p.coeffs) & 0xFFFFFFFF)
    one = Poly.const(F, F.one)
    while True:
        a = Poly(F, [F.random(rng) for _ in range(n)])
        if F.characteristic() != 2:
            t = _pow_poly_mod(a, (q**d - 1) // 2, p) - one
        else:
            t = acc = a
            for _ in range(d * (q.bit_length() - 1) - 1):
                acc = (acc * acc) % p
                t = t + acc
        g = t.gcd(p)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d) + _equal_degree_split(p // g, d)


def roots(p: Poly) -> list[tuple[object, int]]:
    """All roots of p in its base field, with their multiplicities, sorted
    by value.

    Over a finite field gcd(p, x^q - x) is the product of the distinct
    linear factors of p, which ``_equal_degree_split`` separates; over Q
    the rational-root theorem bounds the candidates.  Repeated division
    counts each root.  Raises ValueError for the zero polynomial."""
    F = p.field
    q = F.order()
    if p.is_zero():
        raise ValueError("root finding needs a nonzero polynomial")
    if q is None:
        linear = [Poly(F, [F.neg(r), F.one]) for r in _rational_root_candidates(p) if p(r) == F.zero]
    else:
        x = Poly.x(F)
        linear = _equal_degree_split((_pow_poly_mod(x, q, p) - x).gcd(p), 1)
    out = []
    for factor in linear:
        mult, rest = 0, p
        while True:
            quot, rem = rest.divrem(factor)
            if not rem.is_zero():
                break
            mult, rest = mult + 1, quot
        out.append((F.neg(factor[0]), mult))
    return sorted(out, key=lambda rm: rm[0])


def _rational_root_candidates(p: Poly) -> set:
    """Zero and every +-a/b with a dividing the lowest nonzero and b the
    leading coefficient of p cleared of denominators: by the rational-root
    theorem, a superset of the rational roots of p."""
    den = lcm(*(co.denominator for co in p.coeffs))
    ints = [abs(int(co * den)) for co in p.coeffs if co]

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small]

    cands = {Fraction(s * a, b) for a in divisors(ints[0]) for b in divisors(ints[-1]) for s in (1, -1)}
    return cands | {Fraction(0)}


def roots_and_quadratic_factors(p: Poly) -> tuple[list[tuple[object, int]], list[Poly]]:
    """``roots(p)``, and the distinct monic irreducible quadratic factors of
    p over its finite base field, each once whatever its multiplicity, sorted
    by coefficients; the roots are found once.

    With the linear factors divided out, gcd(x^(q^2) - x, rest) is the
    product of the distinct irreducible quadratic factors, which
    ``_equal_degree_split`` separates.  Raises UnsupportedField over Q."""
    F = p.field
    if F.order() is None:
        raise UnsupportedField("quadratic factors need a finite field")
    rts = roots(p)
    rest = p.monic()
    for r, mult in rts:
        factor = Poly(F, [F.neg(r), F.one])
        for _ in range(mult):
            rest = rest // factor
    x = Poly.x(F)
    quads = (_pow_poly_mod(x, F.order() ** 2, rest) - x).gcd(rest)
    return rts, sorted(_equal_degree_split(quads, 2), key=lambda f: f.coeffs)


# ---------------------------------------------------------------------------
# Dense matrices and kernels
# ---------------------------------------------------------------------------

class Matrix:
    """Dense matrix of raw field values."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def mul(self, other: "Matrix") -> "Matrix":
        F = self.field
        if self.ncols != other.nrows:
            raise LengthMismatch("matrix shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix(F, [[F.dot(row, col) for col in cols] for row in self.rows])

    def apply(self, vec) -> list:
        F = self.field
        if len(vec) != self.ncols:
            raise LengthMismatch("vector length mismatch")
        return [F.dot(row, vec) for row in self.rows]

    def scale(self, c) -> "Matrix":
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in row] for row in self.rows])

    def inverse(self) -> "Matrix":
        F = self.field
        n = self.nrows
        if n != self.ncols:
            raise LengthMismatch("inverse of non-square matrix")
        eye = Matrix.identity(F, n).rows
        aug = [list(r) + e for r, e in zip(self.rows, eye)]
        rank, _ = _rref(F, aug, n)
        if rank < n:
            raise DivisionByZero("singular matrix")
        return Matrix(F, [row[n:] for row in aug])


def _rref(F: Field, rows: list[list], limit_cols: int | None = None) -> tuple[int, list[int]]:
    """In-place reduced row echelon form; returns (rank, pivot columns).

    Only columns below ``limit_cols`` are eligible as pivots (the remaining
    columns ride along, e.g. an augmented right-hand side).

    Forward elimination clears each unit pivot's column from the rows below
    it only, so every pivot row is zero left of its pivot; back-substitution
    then clears the pivot columns from the rows above, bottom pivot first.
    Rows are held as ``F.row_ops`` stores them, reduced as pivot rows and
    when written back.  The rows beyond the rank come out zero below
    ``limit_cols``, the rest being a residual that is zero exactly when the
    augmented system is consistent.
    """
    ncols = len(rows[0]) if rows else 0
    pack, entry, pivot_row, eliminator, unpack = F.row_ops(ncols)
    work = [pack(r) for r in rows]
    pivots = []

    def clear(prow, j, back, targets):
        eliminate = eliminator(prow, j, back)
        for i in targets:
            c = entry(work[i], j)
            if c:
                work[i] = eliminate(work[i], c)

    for j in range(ncols if limit_cols is None else limit_cols):
        rank = len(pivots)
        if rank == len(work):
            break
        for i in range(rank, len(work)):
            c = entry(work[i], j)
            if c:
                break
        else:
            continue
        work[i], work[rank] = work[rank], pivot_row(work[i], j, c)
        clear(work[rank], j, False, range(rank + 1, len(work)))
        pivots.append(j)
    for k in range(len(pivots) - 1, -1, -1):
        work[k] = pivot_row(work[k], pivots[k], None)
        clear(work[k], pivots[k], True, range(k))
    rows[:] = map(unpack, work)
    return len(pivots), pivots


def solve_kernel(M: Matrix) -> list[list]:
    """Basis of the right kernel of M, each vector scaled so its first
    nonzero coordinate is one."""
    F = M.field
    rows = [list(r) for r in M.rows]
    rank, pivots = _rref(F, rows)
    pivot_set = set(pivots)
    free = [j for j in range(M.ncols) if j not in pivot_set]
    basis = []
    for fj in free:
        v = [F.zero] * M.ncols
        v[fj] = F.one
        for i, pj in enumerate(pivots):
            v[pj] = F.neg(rows[i][fj])
        # scale so the first nonzero coordinate is 1
        for c in v:
            if c != F.zero:
                inv = F.inv(c)
                v = [F.mul(inv, a) for a in v]
                break
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Monomial bases
# ---------------------------------------------------------------------------

def _graded_lex_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree ``degree``, lex-descending in the
    first variable, then the second, and so on."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    out.sort(reverse=True)
    return out


class MonomialBasis:
    """A fixed, documented monomial ordering shared by synthesis and files."""

    def __init__(self, name: str, exponents: list[tuple]):
        self.name = name
        self.exponents = exponents
        self.size = len(exponents)
        self.index = {e: i for i, e in enumerate(exponents)}

    def __repr__(self):
        return f"MonomialBasis({self.name}, {self.size})"


QUARTIC4 = MonomialBasis("quartic4", _graded_lex_exponents(4, 4))

_DEG2 = _graded_lex_exponents(4, 2)
BIQUADRATIC44 = MonomialBasis(
    "biquadratic44", [(ex, ey) for ex in _DEG2 for ey in _DEG2]
)


# each quadratic monomial as the pair of variables it multiplies
_QUADRATIC_VARS = [tuple(v for v in range(4) for _ in range(e[v])) for e in _DEG2]
# each quartic monomial as one product of two quadratic monomials
_QUARTIC_FACTORS = [
    next(
        (a, b)
        for a in range(10)
        for b in range(a, 10)
        if tuple(u + v for u, v in zip(_DEG2[a], _DEG2[b])) == e
    )
    for e in QUARTIC4.exponents
]
QUADRATIC_MULS = len(_QUADRATIC_VARS)


def quadratic_monomials(F: Field, point) -> list:
    """The ten quadratic monomials of a quadruple of raw values, in the
    order of a BIQUADRATIC44 block: one multiplication each."""
    return F.pair_products(point, _QUADRATIC_VARS)


def quadratic_program(point, out) -> list:
    """The program (``Field.straight_line``) assigning the ten quadratic
    monomials of the values named ``point`` to the names ``out``."""
    return [(o, [(1, point[u], point[v])]) for o, (u, v) in zip(out, _QUADRATIC_VARS)]


def symmetric_square(F: Field, A) -> Matrix:
    """The 10x10 R with q(A X) = R q(X), for A the rows of a 4x4 matrix."""
    add, mul = F.add, F.mul
    return Matrix(F, [[mul(A[u][s], A[v][s]) if s == t else add(mul(A[u][s], A[v][t]), mul(A[u][t], A[v][s]))
                       for s, t in _QUADRATIC_VARS] for u, v in _QUADRATIC_VARS])


class CompiledForms:
    """Forms over QUARTIC4 and BIQUADRATIC44 reduced to their nonzero
    coefficients, evaluated from the quadratic monomials of their arguments.

    A quartic form sums over the quartic monomials it uses, each computed
    once per point as one product of two quadratic monomials.  A
    biquadratic form must be symmetric in its two arguments (AsymmetricForm
    otherwise) and is kept over SYMMETRIC_PAIRS: its value at (x, y) is the
    sum of c_ab s_ab, where s_ab is ``F.symmetric_products`` of the
    quadratic monomials of x and y.  For each list of forms evaluated
    together, the s_ab over the union of their supports are computed once;
    that union is worked out on the list's first evaluation and kept.  For
    ``biquadratic_rows`` a form also keeps one sparse row per quadratic
    monomial of y.  Only zero coefficients are skipped, never values that
    happen to vanish, so an evaluation costs a number of multiplications
    fixed by the sparsity alone (``quartic_muls``, ``biquadratic_muls``).
    Each coefficient is kept as ``F.stored`` gives it, for ``F.dots``."""

    def __init__(self, F: Field, quartics=(), biquadratics=None):
        zero = F.zero
        self.field = F
        if any(len(coeffs) != QUARTIC4.size for coeffs in quartics):
            raise LengthMismatch("quartic coefficient vector must have 35 entries")
        used = sorted({k for coeffs in quartics for k, c in enumerate(coeffs) if c != zero})
        self.quartic_pairs = [_QUARTIC_FACTORS[k] for k in used]
        self.quartics = [
            [(t, kept[k]) for t, k in enumerate(used) if coeffs[k] != zero]
            for coeffs, kept in zip(quartics, map(F.stored, quartics))
        ]
        self.biquadratics, self.symmetric, self._unions = {}, {}, {}
        for key, coeffs in (biquadratics or {}).items():
            if len(coeffs) != BIQUADRATIC44.size:
                raise LengthMismatch("biquadratic coefficient vector must have 100 entries")
            if any(coeffs[10 * a + b] != coeffs[10 * b + a] for a, b in SYMMETRIC_PAIRS):
                raise AsymmetricForm(f"biquadratic form {key!r} is not symmetric in its two arguments")
            kept = F.stored(coeffs)
            rows = [(b, [(a, kept[10 * a + b]) for a in range(10) if coeffs[10 * a + b] != zero]) for b in range(10)]
            rows = [(b, terms) for b, terms in rows if terms]
            self.biquadratics[key] = ([b for b, _t in rows], [terms for _b, terms in rows])
            self.symmetric[key] = [(k, kept[10 * a + b]) for k, (a, b) in enumerate(SYMMETRIC_PAIRS) if coeffs[10 * a + b] != zero]

    def quartic_values(self, quad) -> list:
        """The quartic forms at the point whose quadratic monomials are
        ``quad``."""
        F = self.field
        return F.dots(self.quartics, F.pair_products(quad, self.quartic_pairs))

    def biquadratic_rows(self, keys, qx) -> list:
        """Substitute x into the biquadratic forms named by ``keys``: per
        form, the (b, coefficient) pairs of the quadratic form in y that
        remains."""
        F = self.field
        return [list(zip(bs, F.dots(rows, qx))) for bs, rows in (self.biquadratics[k] for k in keys)]

    def _union(self, keys) -> tuple:
        """The pairs of the union of the supports of the forms ``keys``, and
        each form as (position in that union, coefficient) terms."""
        keys = tuple(keys)
        union = self._unions.get(keys)
        if union is None:
            support = sorted({k for key in keys for k, _c in self.symmetric[key]})
            at = {k: t for t, k in enumerate(support)}
            union = self._unions[keys] = (
                [SYMMETRIC_PAIRS[k] for k in support],
                [[(at[k], c) for k, c in self.symmetric[key]] for key in keys],
            )
        return union

    def biquadratic_values(self, keys, qx, qy) -> list:
        """The biquadratic forms named by ``keys`` at the argument pair whose
        quadratic monomials are ``qx`` and ``qy``."""
        F = self.field
        pairs, forms = self._union(keys)
        return F.dots(forms, F.symmetric_products(qx, qy, pairs))

    def quartic_program(self, quad, out) -> list:
        """The program (``Field.straight_line``) assigning the quartic forms
        at the point whose quadratic monomials are named ``quad`` to the
        names ``out``, with the quartic monomials named m0, m1, ...: the
        products and sums of ``quartic_values``, one statement each."""
        m = [f"m{t}" for t in range(len(self.quartic_pairs))]
        return [(m[t], [(1, quad[a], quad[b])]) for t, (a, b) in enumerate(self.quartic_pairs)] + [
            (o, [(1, c, m[t]) for t, c in terms]) for o, terms in zip(out, self.quartics)
        ]

    def biquadratic_program(self, keys, qx, qy, out) -> list:
        """The program (``Field.straight_line``) assigning the biquadratic
        forms named by ``keys`` at the argument pair whose quadratic
        monomials are named ``qx`` and ``qy`` to the names ``out``, with the
        symmetric products named s0, s1, ...: the products and sums of
        ``biquadratic_values``, one statement each."""
        pairs, forms = self._union(keys)
        s = [f"s{t}" for t in range(len(pairs))]
        return [
            (s[t], [(1, qx[a], qy[a])] if a == b else [(1, qx[a], qy[b]), (1, qx[b], qy[a])])
            for t, (a, b) in enumerate(pairs)
        ] + [(o, [(1, c, s[t]) for t, c in terms]) for o, terms in zip(out, forms)]

    def quartic_muls(self) -> int:
        """Multiplications of one ``quartic_values`` call."""
        return len(self.quartic_pairs) + sum(map(len, self.quartics))

    def biquadratic_muls(self, keys) -> int:
        """Multiplications of one ``biquadratic_values`` call on ``keys``:
        one per diagonal pair of the union and two per other pair, then one
        per coefficient."""
        pairs, forms = self._union(keys)
        return sum(1 if a == b else 2 for a, b in pairs) + sum(map(len, forms))


def biquadratic_rows(F: Field, forms, x) -> list[list]:
    """Substitute x into BIQUADRATIC44 forms: per form, the (b, coefficient)
    pairs of the quadratic form in y that remains."""
    keys = range(len(forms))
    compiled = CompiledForms(F, biquadratics=dict(zip(keys, forms)))
    return compiled.biquadratic_rows(keys, quadratic_monomials(F, x))


def quadratic_value(F: Field, row, qy) -> object:
    """Value of a quadratic form, given by its (b, coefficient) pairs from
    ``biquadratic_rows``, at the point whose quadratic monomials are
    ``qy``."""
    return F.dot([c for _b, c in row], [qy[b] for b, _c in row])


def quadratic_form_matrix(F: Field, row) -> list[list]:
    """The symmetric 4x4 matrix S with Q(y) = y^T S y of a quadratic form
    given by its (b, coefficient) pairs from ``biquadratic_rows``.  Each
    cross coefficient is halved between S[u][v] and S[v][u], so the
    characteristic must be odd."""
    half = F.inv(F.from_int(2))
    S = [[F.zero] * 4 for _ in range(4)]
    for b, c in row:
        u, v = _QUADRATIC_VARS[b]
        if u == v:
            S[u][u] = c
        else:
            S[u][v] = S[v][u] = F.mul(half, c)
    return S


# one coefficient per unordered pair of quadratic monomials
SYMMETRIC_PAIRS = [(a, b) for a in range(10) for b in range(a, 10)]


def expand_symmetric(F: Field, coeffs) -> list:
    """The BIQUADRATIC44 vector of a symmetric form given by its 55
    coefficients over SYMMETRIC_PAIRS."""
    full = [F.zero] * BIQUADRATIC44.size
    for (a, b), c in zip(SYMMETRIC_PAIRS, coeffs):
        full[10 * a + b] = full[10 * b + a] = c
    return full
