"""Exact arithmetic in the coefficient fields.

Three field kinds are supported:

- odd prime fields GF(p) with p an odd prime below 2**64 (raw values are
  ints in [0, p)),
- binary fields GF(2**m), 1 <= m <= 63, in polynomial basis (raw values are
  bit-patterns of degree < m polynomials over GF(2)),
- arbitrary-precision rationals (raw values are ``fractions.Fraction``).

All arithmetic works on raw values through a ``Field`` object.  Randomness
is always drawn from an explicit ``random.Random`` passed by the caller.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import isqrt

from .errors import (
    DivisionByZero,
    NoSolutionCertificate,
    UnsupportedField,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on int bit-patterns (used by BinaryField)
# ---------------------------------------------------------------------------

def _gf2x_mulmod(a: int, b: int, mod: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= mod
    return r


def _gf2x_mod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= mod << (da - dm)
        da = a.bit_length() - 1
    return a


def _gf2x_inv(a: int, mod: int) -> int:
    """The reduced inverse of a nonzero reduced a modulo an irreducible mod."""
    u, v, g1, g2 = a, mod, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


@cache
def _reduction_tables(m: int, mod: int) -> list[list[int]]:
    """Byte tables of b * x^(m + 8k) mod f, for the bytes above bit m - 1."""
    return [[_gf2x_mod(b << m + 8 * k, mod) for b in range(256)] for k in range((m + 6) // 8)]


def _gf2x_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2x_mod(a, b)
    return a


def gf2_poly_is_irreducible(mod: int) -> bool:
    """Rabin test for a polynomial over GF(2) given as a bit-pattern."""
    m = mod.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True
    # x^(2^m) == x mod f, and gcd(x^(2^(m/q)) - x, f) = 1 for prime q | m.
    def x_pow_pow2(k: int) -> int:
        r = 2  # the polynomial x
        for _ in range(k):
            r = _gf2x_mulmod(r, r, mod, m)
        return r

    if x_pow_pow2(m) != 2:
        return False
    return all(_gf2x_gcd(x_pow_pow2(m // p) ^ 2, mod) == 1 for p in _prime_factors(m))


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


# ---------------------------------------------------------------------------
# Field objects
# ---------------------------------------------------------------------------

class OpCounter:
    """Mutable multiplication/squaring/inversion counter for benchmarks."""

    __slots__ = ("mul", "sqr", "inv")

    def __init__(self):
        self.reset()

    def reset(self):
        self.mul = self.sqr = self.inv = 0

    def snapshot(self) -> dict:
        return {"mul": self.mul, "sqr": self.sqr, "inv": self.inv}


class Field:
    """Base class of the three field kinds.  Each subclass defines ``kind``,
    ``zero`` and ``one`` and the raw-value operations ``add``, ``sub``,
    ``neg``, ``mul``, ``inv``, ``from_int`` (the image of an integer),
    ``characteristic``, ``sqrt`` (one square root, or None for a
    non-square), ``quad_solve(b, c)`` (all y with y**2 + b*y = c, sorted
    canonically), ``to_str``, ``parse`` and ``spec_string``."""

    kind: str
    counter: OpCounter | None = None

    def sqr(self, a):
        return self.mul(a, a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def order(self) -> int | None:
        """Field size, or None for the rationals."""
        return None

    def random(self, rng):
        raise UnsupportedField(f"no uniform sampling over {self.kind}")

    def __repr__(self):
        return self.spec_string()

    # -- raw-integer kernels ---------------------------------------------
    # Every form evaluation, sample row and row reduction makes its products
    # here.  These versions use the counted operations; GF(p) and tabled
    # GF(2^m) override them to work on the raw integers and count their own
    # products.  The log/exp tables are fetched per call: a kept reference
    # would outlive a rebuild of the cache.

    def _count(self, muls: int):
        if self.counter is not None:
            self.counter.mul += muls

    def pair_products(self, values, pairs) -> list:
        """values[a] * values[b] for each index pair (a, b)."""
        mul = self.mul
        return [mul(values[a], values[b]) for a, b in pairs]

    def symmetric_products(self, qx, qy, pairs) -> list:
        """qx[a] * qy[a] for each pair (a, a) and qx[a] * qy[b] + qx[b] *
        qy[a] for each pair (a, b) with a != b: one product, or two."""
        mul, add = self.mul, self.add
        return [mul(qx[a], qy[a]) if a == b else add(mul(qx[a], qy[b]), mul(qx[b], qy[a])) for a, b in pairs]

    def dot(self, xs, ys):
        """The sum of xs[i] * ys[i]."""
        return reduce(self.add, map(self.mul, xs, ys), self.zero)

    def stored(self, coeffs) -> list:
        """The coefficients as ``dots`` reads them."""
        return list(coeffs)

    def dots(self, rows, values) -> list:
        """Per row of (a, c) terms, the sum of c * values[a], with each c as
        ``stored`` keeps it."""
        return [self.dot([c for _a, c in terms], [values[a] for a, _c in terms]) for terms in rows]

    def row_ops(self, ncols: int):
        """The steps of ``algebra._rref`` on stored rows: ``pack(row)``,
        ``entry(stored, j)`` (as a field value), ``pivot_row(stored, j, c)``
        (reduced, and times 1/c unless c is None), ``eliminator(prow, j,
        back)`` (the update (stored, c) -> stored - c*prow) and ``unpack``.

        Here a row is a list of field values, updated with the counted
        operations from column j on, or only at the pivot row's nonzero
        columns in back-substitution."""
        zero, mul, sub = self.zero, self.mul, self.sub

        def pivot_row(row, j, c):
            if c is None:
                return row
            inv = self.inv(c)
            return [zero] * j + [mul(inv, a) for a in row[j:]]

        def eliminator(prow, j, back):
            if back:
                terms = [(t, prow[t]) for t in range(j + 1, ncols) if prow[t]]

                def backward(row, c):
                    row[j] = zero
                    for t, b in terms:
                        row[t] = sub(row[t], mul(c, b))
                    return row

                return backward
            tail = prow[j:]

            def forward(row, c):
                row[j:] = [sub(a, mul(c, b)) for a, b in zip(row[j:], tail)]
                return row

            return forward

        return list, (lambda row, j: row[j]), pivot_row, eliminator, list

    # -- straight-line code ----------------------------------------------
    # A program is a list of (target, terms): the target is assigned the sum
    # of its terms (sign, a, b), each sign * a * b with sign +1 or -1, b a
    # value name and a a value name or a coefficient as ``stored`` keeps it;
    # a target with no terms is zero.  A target that the terms read only as
    # the factor of a coefficient is an intermediate, which a field may keep
    # unreduced: the reader of the statements reads only the other targets.
    # Value names are identifiers that do not begin with an underscore, which
    # the emitted code keeps for its own.

    def straight_line(self, program, namespace) -> list:
        """Python statements assigning each target of ``program`` in turn,
        with the objects they read bound in ``namespace``: one counted
        ``mul`` per term, as the generic kernels make them."""
        namespace.update(_mul=self.mul, _add=self.add, _sub=self.sub, _zero=self.zero)
        lines = []
        for target, terms in program:
            lines.append(f"{target} = _zero")
            for sign, a, b in terms:
                if not isinstance(a, str):
                    name = f"_c{len(namespace)}"
                    namespace[name], a = a, name
                lines.append(f"{target} = {'_add' if sign > 0 else '_sub'}({target}, _mul({a}, {b}))")
        return lines


@dataclass(frozen=True, repr=False)
class PrimeField(Field):
    p: int
    kind = "prime"

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0 or self.p >= 1 << 64:
            raise ValueError("prime field modulus must be an odd prime below 2**64")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    zero = 0
    one = 1

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        if self.counter is not None:
            self.counter.mul += 1
        return a * b % self.p

    def sqr(self, a):
        if self.counter is not None:
            self.counter.sqr += 1
        return a * a % self.p

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self.counter is not None:
            self.counter.inv += 1
        return pow(a, -1, self.p)

    def from_int(self, n: int):
        return n % self.p

    def characteristic(self):
        return self.p

    def order(self):
        return self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def sqrt(self, a):
        p = self.p
        if a == 0:
            return 0
        if p % 4 == 3:
            # a^((p+1)/4) squares to a exactly when a is a square
            r = pow(a, (p + 1) // 4, p)
            return r if r * r % p == a else None
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        # Tonelli-Shanks
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def quad_solve(self, b, c):
        # y^2 + b y = c  <=>  (y + b/2)^2 = c + b^2/4
        half = (self.p + 1) // 2
        hb = b * half % self.p
        disc = (c + hb * hb) % self.p
        s = self.sqrt(disc)
        if s is None:
            return []
        y0 = (s - hb) % self.p
        y1 = (-s - hb) % self.p
        return sorted({y0, y1})

    def to_str(self, a):
        return str(a)

    def parse(self, text):
        return int(text, 0) % self.p

    def spec_string(self):
        return f"prime:p={self.p}"

    # unreduced sums of products, reduced once per sum
    def pair_products(self, values, pairs):
        self._count(len(pairs))
        p = self.p
        return [values[a] * values[b] % p for a, b in pairs]

    def symmetric_products(self, qx, qy, pairs):
        if self.counter is not None:
            self.counter.mul += sum(1 if a == b else 2 for a, b in pairs)
        p = self.p
        return [qx[a] * qy[a] % p if a == b else (qx[a] * qy[b] + qx[b] * qy[a]) % p for a, b in pairs]

    def dot(self, xs, ys):
        self._count(len(xs))
        return sum(map(operator.mul, xs, ys)) % self.p

    def dots(self, rows, values):
        self._count(sum(map(len, rows)))
        p, out = self.p, []
        for terms in rows:
            acc = 0
            for a, c in terms:
                acc += c * values[a]
            out.append(acc % p)
        return out

    def row_ops(self, ncols):
        """As ``Field.row_ops``, with entries kept unreduced (a - c*b): they
        are reduced when read, in pivot rows and when written back.  A row
        update is one call, with no field operation."""
        p = self.p

        def reduced(row):
            return [a % p for a in row]

        def pivot_row(row, j, c):
            if c is None:
                return reduced(row)
            inv = pow(c, -1, p)
            return [0] * j + [inv * a % p for a in row[j:]]

        def eliminator(prow, j, back):
            if back:
                terms = [(t, prow[t]) for t in range(j + 1, ncols) if prow[t]]

                def backward(row, c):
                    row[j] = 0
                    for t, b in terms:
                        row[t] -= c * b
                    return row

                return backward
            tail = prow[j:]

            def forward(row, c):
                row[j:] = [a - c * b for a, b in zip(row[j:], tail)]
                return row

            return forward

        return list, (lambda row, j: row[j] % p), pivot_row, eliminator, reduced

    def straight_line(self, program, namespace):
        """As ``Field.straight_line``: each target one sum of unreduced
        products, with its coefficients as literals, reduced once unless it
        is an intermediate (the sums that read it are reduced); the products
        are counted once, on entry."""
        namespace["_count"] = self._count
        lines = [f"_count({sum(len(terms) for _t, terms in program)})"]
        intermediate = {}
        for _target, terms in program:
            for _sign, a, b in terms:
                coefficient = not isinstance(a, str)
                intermediate[b] = intermediate.get(b, True) and coefficient
                if not coefficient:
                    intermediate[a] = False
        for target, terms in program:
            expr = "".join(f"{'-' if sign < 0 else '+'}{a}*{b}" for sign, a, b in terms).lstrip("+") or "0"
            lines.append(f"{target} = {expr}" if intermediate.get(target) else f"{target} = ({expr}) % {self.p}")
        return lines


_BINARY_TABLES: dict[tuple[int, int], tuple[list, list]] = {}
_TABLE_LIMIT = 20  # log/exp tables kept for m <= 20
_ARTIN_SCHREIER_TABLES: dict[tuple[int, int], tuple[int, list]] = {}


@dataclass(frozen=True, repr=False)
class BinaryField(Field):
    m: int
    mod: int  # bit-pattern of the irreducible modulus, degree exactly m

    kind = "binary"

    def __post_init__(self):
        if not (1 <= self.m <= 63):
            raise ValueError("binary extension degree must be in [1, 63]")
        if self.mod.bit_length() - 1 != self.m:
            raise ValueError("modulus degree does not match m")
        if not gf2_poly_is_irreducible(self.mod):
            raise ValueError(f"modulus {hex(self.mod)} is reducible over GF(2)")

    zero = 0
    one = 1

    def _tables(self):
        key = (self.m, self.mod)
        tabs = _BINARY_TABLES.get(key)
        if tabs is None and self.m <= _TABLE_LIMIT:
            if self.m == 1:
                tabs = ([1], [0, 0])
                _BINARY_TABLES[key] = tabs
                return tabs
            n = (1 << self.m) - 1
            exp = [0] * n
            log = [0] * (n + 1)
            # the first multiplicative generator: g^(n/q) != 1 for each prime q | n
            g = 2
            while any(self._pow_nolog(g, n // q) == 1 for q in _prime_factors(n)):
                g += 1
            x = 1
            for i in range(n):
                exp[i] = x
                log[x] = i
                x = _gf2x_mulmod(x, g, self.mod, self.m)
            tabs = (exp, log)
            _BINARY_TABLES[key] = tabs
        return tabs

    def _pow_nolog(self, a: int, n: int) -> int:
        r, b = 1, a
        while n:
            if n & 1:
                r = _gf2x_mulmod(r, b, self.mod, self.m)
            b = _gf2x_mulmod(b, b, self.mod, self.m)
            n >>= 1
        return r

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        if self.counter is not None:
            self.counter.mul += 1
        if a == 0 or b == 0:
            return 0
        tabs = _BINARY_TABLES.get((self.m, self.mod)) or self._tables()
        if tabs is not None:
            exp, log = tabs
            return exp[log[a] + log[b] - len(exp)]
        return _gf2x_mulmod(a, b, self.mod, self.m)

    def sqr(self, a):
        if self.counter is not None:
            self.counter.sqr += 1
        if a == 0:
            return 0
        tabs = _BINARY_TABLES.get((self.m, self.mod)) or self._tables()
        if tabs is not None:
            exp, log = tabs
            return exp[2 * log[a] - len(exp)]
        return _gf2x_mulmod(a, a, self.mod, self.m)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self.counter is not None:
            self.counter.inv += 1
        tabs = _BINARY_TABLES.get((self.m, self.mod)) or self._tables()
        if tabs is not None:
            exp, log = tabs
            return exp[-log[a]]
        return _gf2x_inv(a, self.mod)

    def from_int(self, n: int):
        return n & 1

    def characteristic(self):
        return 2

    def order(self):
        return 1 << self.m

    def random(self, rng):
        return rng.randrange(1 << self.m)

    def sqrt(self, a):
        # squaring is a bijection; the inverse is a^(2^(m-1))
        r = a
        for _ in range(self.m - 1):
            r = self.sqr(r)
        return r

    def _artin_schreier_tables(self):
        """The trace mask and byte tables of ``_artin_schreier_solve``,
        built once per (m, mod) with uncounted arithmetic.

        z -> z^2 + z is GF(2)-linear with kernel {0, 1}; its image is the
        trace-zero hyperplane, and Tr(a) = parity(a & mask).  Reducing the
        images of the basis monomials to echelon form, each with a
        preimage, gives one root per pivot bit; on a trace-zero a the root
        is the XOR of the roots of its pivot bits, read a byte at a time.
        Each pivot root is fixed up by 1 so that the root is the one the
        eliminating solver returned: the half trace for odd m, the one with
        bit 0 clear for even m."""
        key = (self.m, self.mod)
        tabs = _ARTIN_SCHREIER_TABLES.get(key)
        if tabs is not None:
            return tabs
        m, mod = self.m, self.mod

        def sq(z):
            return _gf2x_mulmod(z, z, mod, m)

        def trace(z):
            t = z
            for _ in range(m - 1):
                z = sq(z)
                t ^= z
            return t

        def half_trace_bit0(z):
            h = z
            for _ in range((m - 1) // 2):
                z = sq(sq(z))
                h ^= z
            return h & 1

        mask = sum(trace(1 << i) << i for i in range(m))
        basis = {}  # pivot bit -> (image vector, preimage), fully reduced
        for j in range(m):
            v, z = sq(1 << j) ^ (1 << j), 1 << j
            for piv, (bv, bz) in basis.items():
                if v >> piv & 1:
                    v, z = v ^ bv, z ^ bz
            if not v:
                continue
            piv = v.bit_length() - 1
            for q, (bv, bz) in basis.items():
                if bv >> piv & 1:
                    basis[q] = (bv ^ v, bz ^ z)
            basis[piv] = (v, z)
        roots = [0] * m
        for piv, (v, z) in basis.items():
            want = half_trace_bit0(v) if m % 2 else 0
            roots[piv] = z ^ (z & 1) ^ want
        chunks = []
        for lo in range(0, m, 8):
            table = [0] * 256
            for byte in range(1, 256):
                low = (byte & -byte).bit_length() - 1
                table[byte] = table[byte & (byte - 1)] ^ (roots[lo + low] if lo + low < m else 0)
            chunks.append(table)
        tabs = (mask, chunks)
        _ARTIN_SCHREIER_TABLES[key] = tabs
        return tabs

    def _artin_schreier_solve(self, a):
        """One z with z^2 + z = a, or None; valid for every m.  The root is
        the half trace of a for odd m and the one with bit 0 clear for even
        m (the other root is z + 1)."""
        mask, chunks = self._artin_schreier_tables()
        if (a & mask).bit_count() & 1:
            return None
        z = 0
        for table in chunks:
            z ^= table[a & 255]
            a >>= 8
        return z

    def quad_solve(self, b, c):
        if b == 0:
            return [self.sqrt(c)]
        # substitute y = b z:  z^2 + z = c / b^2
        d = self.mul(c, self.inv(self.sqr(b)))
        z = self._artin_schreier_solve(d)
        if z is None:
            return []
        y0 = self.mul(b, z)
        y1 = y0 ^ b
        return sorted({y0, y1})

    def to_str(self, a):
        return hex(a)

    def parse(self, text):
        v = int(text, 0)
        if v >> self.m:
            raise ValueError("bit-pattern exceeds field degree")
        return v

    def spec_string(self):
        return f"binary:m={self.m},mod={hex(self.mod)}"

    # With tables (m <= 20) logarithms are added: exp has n = 2^m - 1 entries,
    # so the index s - n of a log sum s in [0, 2n) wraps when negative, and a
    # stored coefficient c is log c - n.
    def pair_products(self, values, pairs):
        tabs = self._tables()
        if tabs is None:
            return super().pair_products(values, pairs)
        self._count(len(pairs))
        exp, log = tabs
        n = len(exp)
        logs = [log[v] if v else None for v in values]
        return [0 if logs[a] is None or logs[b] is None else exp[logs[a] + logs[b] - n] for a, b in pairs]

    def symmetric_products(self, qx, qy, pairs):
        tabs = self._tables()
        if tabs is None:
            return super().symmetric_products(qx, qy, pairs)
        if self.counter is not None:
            self.counter.mul += sum(1 if a == b else 2 for a, b in pairs)
        exp, log = tabs
        n = len(exp)
        lx = [log[v] - n if v else None for v in qx]
        ly = [log[v] if v else None for v in qy]
        out = []
        for a, b in pairs:
            s = 0 if lx[a] is None or ly[b] is None else exp[lx[a] + ly[b]]
            if a != b and lx[b] is not None and ly[a] is not None:
                s ^= exp[lx[b] + ly[a]]
            out.append(s)
        return out

    def dot(self, xs, ys):
        tabs = self._tables()
        if tabs is None:
            return super().dot(xs, ys)
        self._count(len(xs))
        exp, log = tabs
        n = len(exp)
        return reduce(operator.xor, [exp[log[x] + log[y] - n] for x, y in zip(xs, ys) if x and y], 0)

    def stored(self, coeffs):
        tabs = self._tables()
        if tabs is None:
            return super().stored(coeffs)
        exp, log = tabs
        return [log[c] - len(exp) for c in coeffs]

    def dots(self, rows, values):
        tabs = self._tables()
        if tabs is None:
            return super().dots(rows, values)
        self._count(sum(map(len, rows)))
        exp, log = tabs
        logs = [log[v] if v else None for v in values]
        out = []
        for terms in rows:
            acc = 0
            for a, lc in terms:
                if logs[a] is not None:
                    acc ^= exp[lc + logs[a]]
            out.append(acc)
        return out

    def straight_line(self, program, namespace):
        """As ``Field.straight_line``: with tables, each product one exp
        read at the sum of its factors' logs, skipped when a factor is zero,
        and counted once, on entry.  The tables are fetched on every run of
        the statements, never bound.  A value's log is read before its first
        use as a factor, also when the value is zero (log[0] is never used:
        a product reads it only when every factor is nonzero)."""
        if self.m > _TABLE_LIMIT:
            return super().straight_line(program, namespace)
        n = (1 << self.m) - 1
        namespace.update(_count=self._count, _tables=self._tables)
        lines = [f"_count({sum(len(terms) for _t, terms in program)})", "_exp, _log = _tables()"]
        logged = set()

        def log(name, stored):
            # a left factor's log as ``stored`` keeps a coefficient's, log - n
            key = f"_s{name}" if stored else f"_l{name}"
            if key not in logged:
                logged.add(key)
                lines.append(f"{key} = _log[{name}]" + (f" - {n}" if stored else ""))
            return key

        for target, terms in program:
            reads = []
            for _sign, a, b in terms:
                lb = log(b, False)
                if isinstance(a, str):
                    reads.append((b if a == b else f"{a} and {b}", f"{log(a, True)} + {lb}"))
                else:
                    reads.append((b, f"{a} + {lb}"))
            lines.append(f"{target} = " + (" ^ ".join(f"(_exp[{index}] if {guard} else 0)" for guard, index in reads) or "0"))
        return lines

    def row_ops(self, ncols):
        """As ``Field.row_ops``, for every m, with no field operation.  A row
        is one int, entry j in the w-bit lane at bit j*w (w = 2m in whole
        bytes).  An update is a carry-less product of the reduced c and
        pivot row, four bits of c at a time, so lanes stay under 2m - 1
        bits; entries are reduced by byte tables when read, rows one bit
        position at a time (f times a bit in every lane has no carries)."""
        m, mod, size = self.m, self.mod, (self.m + 3) // 4  # 2m bits in whole bytes
        w, tables = 8 * size, _reduction_tables(m, mod)
        lane, low, ones = (1 << w) - 1, (1 << m) - 1, ((1 << w * ncols) - 1) // ((1 << w) - 1)

        def entry(row, j):
            a = row >> w * j & lane
            r = a & low
            a >>= m
            for tab in tables:
                r ^= tab[a & 255]
                a >>= 8
            return r

        def reduced(row):
            for t in range(2 * m - 2, m - 1, -1):
                high = row >> t & ones
                if high:
                    row ^= high * mod << t - m
            return row

        def eliminator(prow, j, back):
            multiples = [0, prow]
            for d in range(2, 16):
                multiples.append(multiples[d >> 1] << 1 ^ multiples[d & 1])

            def eliminate(row, c):
                s = 0
                while c:
                    row, c, s = row ^ multiples[c & 15] << s, c >> 4, s + 4
                return row

            return eliminate

        def pivot_row(row, j, c):
            row = reduced(row)
            return row if c is None else reduced(eliminator(row, j, False)(0, _gf2x_inv(c, mod)))

        def pack(row):
            return int.from_bytes(b"".join([a.to_bytes(size, "little") for a in row]), "little")

        def unpack(row):
            raw = reduced(row).to_bytes(size * ncols, "little")
            return [int.from_bytes(raw[t : t + size], "little") for t in range(0, len(raw), size)]

        return pack, entry, pivot_row, eliminator, unpack


@dataclass(frozen=True, repr=False)
class RationalField(Field):
    kind = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        if self.counter is not None:
            self.counter.mul += 1
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self.counter is not None:
            self.counter.inv += 1
        return 1 / a

    def from_int(self, n: int):
        return Fraction(n)

    def characteristic(self):
        return 0

    def sqrt(self, a):
        if a < 0:
            return None
        n, d = a.numerator, a.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn != n or rd * rd != d:
            return None
        return Fraction(rn, rd)

    def quad_solve(self, b, c):
        disc = b * b + 4 * c
        s = self.sqrt(disc)
        if s is None:
            raise NoSolutionCertificate(
                "discriminant is not an exact rational square"
            )
        return sorted({(-b + s) / 2, (-b - s) / 2})

    def to_str(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def parse(self, text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"rational {text!r} has a zero denominator") from None

    def spec_string(self):
        return "rational"


def field_from_spec(text: str) -> Field:
    """Parse the field spec syntax: prime:p=1009, binary:m=16,mod=0x1002b, rational."""
    text = text.strip()
    if text == "rational":
        return RationalField()
    if text.startswith("prime:"):
        (p,) = _spec_params(text, ("p",))
        return PrimeField(p)
    if text.startswith("binary:"):
        m, mod = _spec_params(text, ("m", "mod"))
        return BinaryField(m, mod)
    raise ValueError(f"unrecognized field spec {text!r}")


def _spec_params(text: str, keys: tuple) -> list[int]:
    """The integer values of ``keys`` in a spec "kind:k1=v1,k2=v2", which
    must name exactly those keys, each once."""
    items = [kv.partition("=") for kv in text.partition(":")[2].split(",")]
    found = {k.strip(): v for k, _, v in items}
    if len(items) != len(keys) or set(found) != set(keys):
        raise ValueError(f"field spec {text!r} needs exactly " + ",".join(f"{k}=<int>" for k in keys))
    return [int(found[k], 0) for k in keys]
