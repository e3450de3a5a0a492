"""Exact linear algebra over the rationals.

Everything an averaging formula needs: fraction-free determinants,
exact characteristic polynomials, compound (exterior-power) matrices,
and eigenvalue classification relative to the unit circle.  Scalars are
``fractions.Fraction`` at every interface; products, gcds, squarefree
splits and Sturm chains scale their operands to integers once and run
on Python ints inside.  Floating point enters only in the final numeric
isolation of roots, and every count that feeds a sign decision is
certified by exact Sturm-chain arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AmbiguousClassification

Rational = Fraction


# Error messages quote a bad value up to this many characters.
_ECHO_CHARS = 64


def _echo(v) -> str:
    """repr of a bad value, cut to a fixed prefix plus the value's
    length, so that the message stays short whatever the input."""
    text = repr(v)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(str(v))} characters)"


def as_rational(x) -> Fraction:
    """Coerce int, 'p/q' string, or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {_echo(x)} as a rational number")


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


class Polynomial:
    """Univariate polynomial with Fraction coefficients.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the slots
        return Polynomial, (self.coeffs,)

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                           for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Polynomial()
        a, s = _integer_coeffs(self)
        b, t = _integer_coeffs(other)
        return Polynomial(_over(_int_poly_mul(a, b), s * t))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        lead = d[-1]
        for k in range(len(rem) - len(d), -1, -1):
            c = rem[k + len(d) - 1] / lead
            if c != 0:
                q[k] = c
                for j, dj in enumerate(d):
                    rem[k + j] -= c * dj
        return Polynomial(q), Polynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("division is not exact")
        return q

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, (int, Fraction)) else float(c))
        return acc if self.coeffs else (Fraction(0) if isinstance(x, (int, Fraction)) else 0.0)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def reversed_poly(self) -> "Polynomial":
        """z^deg * p(1/z); constant term of the result is p's leading one."""
        return Polynomial(tuple(reversed(self.coeffs)))

    def compose_scale(self, c) -> "Polynomial":
        """p(c*z) for a rational scalar c."""
        c = as_rational(c)
        return Polynomial([a * c**i for i, a in enumerate(self.coeffs)])

    def shift_down(self, k: int) -> "Polynomial":
        """Divide by z^k; requires the low-order coefficients to vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ArithmeticError("not divisible by z^k")
        return Polynomial(self.coeffs[k:])

    def float_coeffs_desc(self) -> list[float]:
        return [float(c) for c in reversed(self.coeffs)]

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))


def _over(ints, den: int) -> list[Fraction]:
    """The Fractions x / den, one per integer x."""
    if den == 1:
        return [Fraction(x) for x in ints]
    return [Fraction(x, den) for x in ints]


def _integer_coeffs(p: Polynomial) -> tuple[list[int], int]:
    """Integer coefficients c and a denominator s > 0 with p = c / s."""
    s = math.lcm(1, *(x.denominator for x in p.coeffs))
    return [x.numerator * (s // x.denominator) for x in p.coeffs], s


def _monic(c: list[int]) -> Polynomial:
    """The monic Polynomial proportional to the integer polynomial c."""
    return Polynomial(_over(c, c[-1]) if c else ())


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero integer polynomials, one inner product per
    output coefficient."""
    n = len(b)
    rb = b[::-1]
    return [sum(map(operator.mul, a[max(0, k - n + 1):k + 1],
                    rb[max(0, n - 1 - k):]))
            for k in range(len(a) + n - 1)]


def _int_derivative(c: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(c)][1:]


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _primitive(c: list[int]) -> list[int]:
    """c divided by its (positive) content; the sign is kept."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a on division by nonzero b over Q, times a positive
    integer.  Each elimination step scales by |lc(b)|, never by lc(b),
    so the result has the sign of the Fraction remainder."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    mult, sgn = abs(lead), (1 if lead > 0 else -1)
    while len(r) > d:
        c = r.pop()
        if c == 0:
            continue
        c *= sgn
        k = len(r) - d
        if mult != 1:
            r = [mult * x for x in r]
        for j in range(d):
            r[k + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_exact_div(a, b) -> list[int]:
    """a / b for integer polynomials with b primitive and dividing a over
    Q; by Gauss's lemma the quotient is integral."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    q = [0] * max(0, len(r) - d)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + d], lead)
        if rem:
            raise ArithmeticError("division is not exact")
        q[k] = c
        if c:
            for j in range(d):
                r[k + j] -= c * b[j]
    if any(r[:d]):
        raise ArithmeticError("division is not exact")
    return q


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Q of two integer polynomials, by the primitive
    remainder sequence; its sign is not normalised."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _primitive(a)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals."""
    return _monic(_int_gcd(_integer_coeffs(a)[0], _integer_coeffs(b)[0]))


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: return [(s_i, i)] with p = lead * prod s_i^i,
    each s_i squarefree and pairwise coprime (trivial factors omitted).
    It runs on the primitive integer multiple of p: every gcd is
    primitive, so every division stays integral."""
    if p.degree < 1:
        return []
    a = _primitive(_integer_coeffs(p)[0])
    da = _int_derivative(a)
    g = _int_gcd(a, da)
    if len(g) == 1:
        return [(p.monic(), 1)]
    out = []
    c = _int_exact_div(a, g)
    d = _int_sub(_int_exact_div(da, g), _int_derivative(c))
    i = 1
    while len(c) > 1:
        s = _int_gcd(c, d)
        if len(s) > 1:
            out.append((_monic(s), i))
            c, d = _int_exact_div(c, s), _int_exact_div(d, s)
        d = _int_sub(d, _int_derivative(c))
        i += 1
    return out


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(p: Polynomial) -> list[list[int]]:
    """Sturm chain of p on primitive integer polynomials.  Each member is
    a positive multiple of the member of the Fraction chain that it
    stands for, so both give the same signs."""
    a = _primitive(_integer_coeffs(p)[0])
    chain = [a, _int_derivative(a)]
    while len(chain[-1]) > 1:
        rem = _primitive(_prem(chain[-2], chain[-1]))
        if not rem:
            break
        chain.append([-x for x in rem])
    return [q for q in chain if q]


_NEG_INF = object()
_POS_INF = object()


def _sign_at(q: list[int], x) -> int:
    if x is _POS_INF:
        return _sign(q[-1])
    if x is _NEG_INF:
        return _sign(q[-1]) * (-1) ** (len(q) - 1)
    # the sign of q(u/v) * v^deg, v > 0, by Horner on integers
    u, v = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
    acc, vk = 0, 1
    for c in reversed(q):
        acc = acc * u + c * vk
        vk *= v
    return _sign(acc)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Polynomial, lo, hi) -> int:
    """Distinct real roots of squarefree p in (lo, hi]; endpoints may be
    the module-level infinity sentinels.  Endpoints must not be roots."""
    if p.degree < 1:
        return 0
    chain = _sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def _real_roots_outside(p: Polynomial) -> tuple[int, int]:
    """(count of real roots > 1, count of real roots < -1), with
    multiplicity; p must have no root at 0, 1, or -1."""
    gt, lt = 0, 0
    for s, mult in squarefree_decomposition(p):
        gt += mult * count_real_roots(s, Fraction(1), _POS_INF)
        lt += mult * count_real_roots(s, _NEG_INF, Fraction(-1))
    return gt, lt


def _strip_root(p: Polynomial, r: Fraction) -> tuple[Polynomial, int]:
    lin = Polynomial((-r, 1))
    mult = 0
    while not p.is_zero and p(r) == 0:
        p = p.exact_div(lin)
        mult += 1
    return p, mult


def _trace_polynomial(c: Polynomial) -> Polynomial:
    """For palindromic c of even degree 2k, the degree-k polynomial T with
    c(z)/z^k = T(z + 1/z)."""
    k = c.degree // 2
    # B_j(w) = z^j + z^{-j} as a polynomial in w = z + 1/z
    b_prev = Polynomial((2,))
    b_cur = Polynomial.x()
    t = Polynomial((c.coeffs[k],))
    for j in range(1, k + 1):
        t = t + c.coeffs[k + j] * b_cur
        b_prev, b_cur = b_cur, Polynomial.x() * b_cur - b_prev
    return t


def _strip_trivial_roots(p: Polynomial) -> tuple[Polynomial, int, int]:
    """p without its roots 1, -1 and 0, and the multiplicities of 1 and
    of -1."""
    p, m_one = _strip_root(p, Fraction(1))
    p, m_minus = _strip_root(p, Fraction(-1))
    # zero roots are strictly inside the circle
    nz = 0
    while nz < len(p.coeffs) and p.coeffs[nz] == 0:
        nz += 1
    return p.shift_down(nz), m_one, m_minus


def count_unit_modulus_roots(p: Polynomial) -> int:
    """Exact number of roots of p on the unit circle, with multiplicity."""
    if p.degree < 1:
        return 0
    p, m_one, m_minus = _strip_trivial_roots(p.monic())
    total = m_one + m_minus
    if p.degree < 1:
        return total
    c = poly_gcd(p, p.reversed_poly())
    if c.degree == 0:
        return total
    # c collects every unit-circle root (full multiplicity) plus possible
    # reciprocal off-circle pairs; it is palindromic of even degree.
    if c != c.reversed_poly().monic() or c.degree % 2 != 0:
        raise ArithmeticError("reciprocal factor is not palindromic")
    t = _trace_polynomial(c)
    on_circle_pairs = 0
    for s, mult in squarefree_decomposition(t):
        on_circle_pairs += mult * count_real_roots(s, Fraction(-2), Fraction(2))
    return total + 2 * on_circle_pairs


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------


class RationalMatrix:
    """Immutable square matrix over ``fractions.Fraction``.

    Members
    -------
    rows : tuple of tuple of Fraction
    dim : int

    All arithmetic is exact.  Use :meth:`to_float` to hand the matrix to
    numpy for the (clearly marked) numeric steps.
    """

    __slots__ = ("rows", "dim", "_hash")

    def __init__(self, rows):
        rs = tuple(tuple(as_rational(x) for x in row) for row in rows)
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the slots
        return RationalMatrix, (self.rows,)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        # rows never change, so their hash is taken once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.rows))
        return self._hash

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in r] for r in self.rows]})"

    def __add__(self, other):
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return RationalMatrix([[-a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        (a,), s = _integer_form([self])
        (b,), t = _integer_form([other])
        return RationalMatrix([_over(row, s * t) for row in _int_matmul(a, b)])

    def scale(self, c) -> "RationalMatrix":
        c = as_rational(c)
        return RationalMatrix([[c * a for a in r] for r in self.rows])

    def power(self, n: int) -> "RationalMatrix":
        if n < 0:
            return self.inverse().power(-n)
        result = RationalMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.dim))

    @property
    def is_identity(self) -> bool:
        return self == RationalMatrix.identity(self.dim)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.rows for x in r)

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.rows], dtype=float)

    def inverse(self) -> "RationalMatrix":
        n = self.dim
        aug = [list(r) + [Fraction(i == j) for j in range(n)]
               for i, r in enumerate(self.rows)]
        red, pivots = rref(aug, n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return RationalMatrix([row[n:] for row in red])

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Exact basis of the kernel, via reduced row echelon form."""
        n = self.dim
        red, pivots = rref(self.rows, n)
        basis = []
        for fc in (c for c in range(n) if c not in pivots):
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            basis.append(tuple(v))
        return basis


def rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination: the reduced row echelon form of rows and
    its pivot columns.  Only the first ncols columns are eligible as
    pivots; any further columns are carried along, as in an augmented
    matrix."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def det(m: RationalMatrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first so every intermediate value stays
    an exact integer; the scaling is divided back out at the end.
    """
    scale = 1
    a = []
    for row in m.rows:
        l = math.lcm(*(x.denominator for x in row))
        scale *= l
        a.append([int(x * l) for x in row])
    return Fraction(_bareiss_det(a), scale)


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every intermediate value is an exact integer.  The
    rows of a are overwritten."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        tail = top[k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev
                           for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=8)
def char_poly(m: RationalMatrix) -> Polynomial:
    """Monic characteristic polynomial det(zI - M), exactly.

    M is written once as M_int / q; the characteristic polynomial of the
    integer matrix M_int comes from the division-free Berkowitz
    recursion, and its coefficient of z^(dim-k) is divided by q^k.
    """
    (a,), q = _integer_form([m])
    coeffs_desc = _berkowitz(a)
    return Polynomial(tuple(reversed(
        [Fraction(c, q ** k) for k, c in enumerate(coeffs_desc)])))


def _berkowitz(a: list[list[int]]) -> list[int]:
    """Characteristic polynomial of a square integer matrix, highest
    degree first, in integer arithmetic.  Step r borders the leading
    r x r block A_r with row R, column C and corner x; the new
    polynomial is the old one times the Toeplitz column
    (1, -x, -R C, -R A_r C, ..., -R A_r^(r-1) C)."""
    poly = [1]
    for r in range(len(a)):
        block = [a[i][:r] for i in range(r)]
        row, x = a[r][:r], a[r][r]
        v = [a[i][r] for i in range(r)]
        col = [1, -x]
        for _ in range(r):
            col.append(-sum(map(operator.mul, row, v)))
            v = [sum(map(operator.mul, b, v)) for b in block]
        poly = [sum(col[i - j] * poly[j] for j in range(max(0, i - r - 1),
                                                      min(i, r) + 1))
                for i in range(r + 2)]
    return poly


def exterior_power(m: RationalMatrix, i: int) -> RationalMatrix:
    """i-th compound matrix: entries are i x i minors, with row and column
    index subsets ordered lexicographically."""
    n = m.dim
    if not 0 <= i <= n:
        raise ValueError(f"exterior power index {i} out of range for dim {n}")
    if i == 0:
        return RationalMatrix([[Fraction(1)]])
    subsets = list(itertools.combinations(range(n), i))
    out = []
    for rows_s in subsets:
        out_row = []
        for cols_s in subsets:
            sub = RationalMatrix([[m.rows[r][c] for c in cols_s] for r in rows_s])
            out_row.append(det(sub))
        out.append(out_row)
    return RationalMatrix(out)


# --------------------------------------------------------------------------
# integer kernel of the averaging formulas
# --------------------------------------------------------------------------


def _integer_form(mats) -> tuple[list[list[list[int]]], int]:
    """Integer matrices M_int and one common denominator s with
    M = M_int / s for every M in mats."""
    s = math.lcm(1, *(x.denominator for m in mats for row in m.rows for x in row))
    return [[[x.numerator * (s // x.denominator) for x in row] for row in m.rows]
            for m in mats], s


def _int_matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in x]


def _diagonal_blocks(mats, dim: int) -> list[list[int]]:
    """The finest index sets on which every matrix in mats is block
    diagonal: the connected components of the graph that joins i and j
    when some matrix has a nonzero (i, j) entry, each sorted, in order
    of their smallest index."""
    root = list(range(dim))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x and i != j:
                    root[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(dim):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _split(m, blocks) -> list[list[list[int]]]:
    """The diagonal blocks of m on the index sets blocks."""
    return [[[m[i][j] for j in b] for i in b] for b in blocks]


def _scaled_det(u: int, x, v: int, y) -> int:
    """Integer determinant of u*x - v*y for x and y given by their
    diagonal blocks: the product of the block determinants, stopping at
    the first that vanishes.  A 1 x 1 block is its own determinant."""
    out = 1
    for bx, by in zip(x, y):
        if len(bx) == 1:
            out *= u * bx[0][0] - v * by[0][0]
        else:
            out *= _bareiss_det([[u * a - v * b for a, b in zip(rx, ry)]
                                 for rx, ry in zip(bx, by)])
        if not out:
            break
    return out


class _ScaledPowers:
    """n -> (M_int^n, q^n) for M = M_int / q, with M_int^n kept as its
    diagonal blocks on the given index sets; each new iterate costs one
    integer product per block."""

    def __init__(self, m_int: list[list[int]], q: int, blocks):
        self._base, self._q = _split(m_int, blocks), q
        self._powers = [[[[int(i == j) for j in range(len(b))] for i in range(len(b))]
                         for b in blocks]]

    def __call__(self, n: int) -> tuple[list[list[list[int]]], int]:
        while len(self._powers) <= n:
            self._powers.append([_int_matmul(p, b)
                                 for p, b in zip(self._powers[-1], self._base)])
        return self._powers[n], self._q ** n


class AveragingKernel:
    """The determinants that the averaging formulas take over a holonomy
    group, for the iterates of one linear part D, in integer arithmetic.

    Every holonomy element A is converted once to A_int / s, with one
    common s, and D once to D_int / q; D^n is kept as (D_int^n, q^n).
    Each determinant is the integer Bareiss determinant of the matrix
    scaled to integers, and is returned as a numerator over a
    denominator that all holonomy elements share, so that averages can
    be taken exactly.  With a target E, the fixed-point determinants
    det(I - A D^n) become the coincidence ones det(E^n - A D^n).  Both
    lists are kept per n on the instance, so every sequence read from
    one kernel takes each determinant once.

    The holonomy, D and E are found once to be block diagonal on common
    index sets (a dense problem is one block); every product and
    determinant is then taken block by block, and a determinant is the
    product of its block determinants.
    """

    def __init__(self, holonomy, linear: RationalMatrix,
                 target: RationalMatrix | None = None):
        self._dim = linear.dim
        hol, self._s = _integer_form(holonomy)
        (d_int,), q = _integer_form([linear])
        (e_int,), r = _integer_form([linear if target is None else target])
        blocks = _diagonal_blocks(hol + [d_int, e_int], self._dim)
        self._d = _ScaledPowers(d_int, q, blocks)
        self._e = None if target is None else _ScaledPowers(e_int, r, blocks)
        self._hol = [_split(a, blocks) for a in hol]
        ident = [[int(i == j) for j in range(self._dim)] for i in range(self._dim)]
        self._skip = [a == ident for a in hol]           # A_int P is P
        self._fixed: dict[int, tuple[list[int], int]] = {}
        self._shifted: dict[int, tuple[list[int], int]] = {}

    def fixed_point_dets(self, n: int) -> tuple[list[int], int]:
        """Numerators of det(E^n - A D^n), E = I unless a target was
        given, one per holonomy element, and their common denominator.
        The list is shared between callers and must not be changed."""
        if n not in self._fixed:
            p, qn = self._d(n)
            e, rn = self._d(0) if self._e is None else self._e(n)  # I = I_int / 1
            c = self._s * qn             # A D^n = A_int P / c
            dets = [_scaled_det(c, e, rn, p if skip else
                                [_int_matmul(x, y) for x, y in zip(a, p)])
                    for a, skip in zip(self._hol, self._skip)]
            self._fixed[n] = dets, (rn * c) ** self._dim
        return self._fixed[n]

    def shifted_dets(self, n: int) -> tuple[list[int], int]:
        """Numerators of det(A - D^n), one per holonomy element, and
        their common denominator (s q^n)^dim."""
        if n not in self._shifted:
            p, qn = self._d(n)
            self._shifted[n] = ([_scaled_det(qn, a, self._s, p) for a in self._hol],
                                (self._s * qn) ** self._dim)
        return self._shifted[n]


# --------------------------------------------------------------------------
# eigenvalue classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenClassification:
    """Unit-circle bookkeeping for a rational matrix.

    p / n count real eigenvalues > 1 / < -1 (exact, with multiplicity);
    unit_modulus_count is the exact number of eigenvalues on the unit
    circle; expanding_log_product is sum(log |lambda|) over |lambda| > 1
    at working precision; one_in_spectrum says, exactly, whether 1 is
    an eigenvalue.
    """

    p: int
    n: int
    unit_modulus_count: int
    expanding_log_product: float
    one_in_spectrum: bool
    expanding_count: int


def spectral_isolation(m: RationalMatrix, tol: float = 1e-10) -> EigenClassification:
    """The same as classify_eigenvalues; nothing in the package calls it,
    but the benchmark tracer binds this name."""
    return _classify(m, tol)


def classify_eigenvalues(m: RationalMatrix, tol: float = 1e-10) -> EigenClassification:
    """Classify the spectrum of m relative to the unit circle.

    Counts that feed sign decisions (p, n, unit-circle membership) are
    certified exactly from the characteristic polynomial; the numeric
    roots only contribute the expanding modulus product.  Raises
    AmbiguousClassification when the numeric near-circle root count
    cannot be reconciled with the exact one at this tolerance.
    """
    return _classify(m, tol)


@lru_cache(maxsize=8)
def _classify(m: RationalMatrix, tol: float) -> EigenClassification:
    if not 0 < tol < 1:
        raise ValueError("tolerance must be in (0, 1)")
    p = char_poly(m)
    dim = m.dim
    core, m_one, m_minus = _strip_trivial_roots(p)
    unit_exact = m_one + m_minus + count_unit_modulus_roots(core)
    p_count, n_count = _real_roots_outside(core) if core.degree >= 1 else (0, 0)

    roots = list(np.roots(p.float_coeffs_desc())) if dim >= 1 else []
    # The exact count says how many roots sit on the circle; the numeric
    # values only have to tell us which ones, and on which side the rest
    # fall.  Repeated roots perturb like eps^(1/multiplicity), so match
    # by distance and insist on a clean gap before trusting any side.
    roots.sort(key=lambda r: abs(abs(r) - 1.0))
    on, off = roots[:unit_exact], roots[unit_exact:]
    max_on = max((abs(abs(r) - 1.0) for r in on), default=0.0)
    min_off = min((abs(abs(r) - 1.0) for r in off), default=math.inf)
    if max_on > 1e-3 or min_off < max(tol, 10.0 * max_on):
        raise AmbiguousClassification(
            f"cannot separate numeric root moduli from the unit circle: "
            f"{unit_exact} roots lie on it exactly, nearest off-circle "
            f"modulus gap {min_off:.3e}, worst on-circle residue "
            f"{max_on:.3e}; refine the tolerance (tol={tol:g})")
    expanding = [r for r in off if abs(r) > 1.0]
    log_prod = float(sum(math.log(abs(r)) for r in expanding))
    return EigenClassification(
        p=p_count,
        n=n_count,
        unit_modulus_count=unit_exact,
        expanding_log_product=log_prod,
        one_in_spectrum=m_one > 0,
        expanding_count=len(expanding),
    )


def _euler_phi(k: int) -> int:
    result, n, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def max_root_of_unity_order(dim: int) -> int:
    """Largest k such that a k-th primitive root of unity can be an
    eigenvalue of a dim x dim rational matrix (phi(k) <= dim)."""
    return max(k for k in range(1, 2 * dim * dim + 2) if _euler_phi(k) <= dim)


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> tuple[int, ...]:
    """Integer coefficients of the k-th cyclotomic polynomial: z^k - 1
    divided by Phi_d for every proper divisor d of k."""
    p = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            p = _int_exact_div(p, _cyclotomic(d))
    return tuple(p)


def has_root_of_unity_eigenvalue(m: RationalMatrix) -> bool:
    """True iff some eigenvalue is a root of unity, decided exactly: a
    primitive k-th root of unity is an eigenvalue iff the cyclotomic
    polynomial Phi_k divides the characteristic polynomial."""
    p, _ = _integer_coeffs(char_poly(m))
    return any(not _prem(p, _cyclotomic(k))
               for k in range(1, max_root_of_unity_order(m.dim) + 1)
               if _euler_phi(k) <= m.dim)
