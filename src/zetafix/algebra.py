"""Exact linear algebra over the rationals.

Everything an averaging formula needs: fraction-free determinants,
exact characteristic polynomials, compound (exterior-power) matrices,
and eigenvalue classification relative to the unit circle.  A matrix
is stored as one integer form M_int / s, and a polynomial as integer
coefficients over one denominator; products, determinants, elimination,
gcds, squarefree splits, Sturm chains and the spectral kernels read
those forms and run on Python ints, and a scalar result that need not
be an integer is a ``fractions.Fraction``.  Every eigenvalue count is
exact, from Sturm-chain arithmetic; floating point enters only in the
product of the expanding eigenvalue moduli, a float output that decides
nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce

from .errors import OutOfFloatRange


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
    """Univariate polynomial over the rationals, stored only as one
    integer form ints / den: integer coefficients, lowest degree first
    with no trailing zeros (none for the zero polynomial, of degree -1),
    over their least positive common denominator.  Its arithmetic is the
    package's: products, exact division, p(c*z) and evaluation.  coeffs,
    the Fractions, is made anew on each read, for display and __call__.
    Instances are immutable and hashable."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        den = math.lcm(1, *(x.denominator for x in cs))
        self._set([x.numerator * (den // x.denominator) for x in cs], den)

    @classmethod
    def _from_ints(cls, ints, den: int = 1) -> "Polynomial":
        """ints / den for integers ints, lowest degree first, and den != 0."""
        g = math.gcd(den, *ints) * (1 if den > 0 else -1)
        if g != 1:
            ints, den = [x // g for x in ints], den // g
        p = object.__new__(cls)
        p._set(list(ints), den)
        return p

    def _set(self, ints: list, den: int):
        while ints and ints[-1] == 0:
            ints.pop()
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the integer form
        return Polynomial._from_ints, (self.ints, self.den)

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.ints)

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._from_ints([x * other.numerator for x in self.ints],
                                         self.den * other.denominator)
        if self.is_zero or other.is_zero:
            return Polynomial()
        return Polynomial._from_ints(_int_poly_mul(self.ints, other.ints),
                                     self.den * other.den)

    __rmul__ = __mul__

    def exact_div(self, other) -> "Polynomial":
        # A / s over c B / t, B primitive: A / B is integral (Gauss's lemma)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = _primitive(list(other.ints))
        return Polynomial._from_ints(
            [x * other.den for x in _int_exact_div(self.ints, b)],
            self.den * (other.ints[-1] // b[-1]))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, (int, Fraction)) else float(c))
        return acc if self.ints else (Fraction(0) if isinstance(x, (int, Fraction)) else 0.0)

    def compose_scale(self, c) -> "Polynomial":
        """p(c*z) for a rational scalar c = u / v, over den * v^deg."""
        c = as_rational(c)
        u, v, k = c.numerator, c.denominator, max(self.degree, 0)
        return Polynomial._from_ints([a * u ** i * v ** (k - i)
                                      for i, a in enumerate(self.ints)],
                                     self.den * v ** k)

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial._from_ints((1,))


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
    g = _int_gcd(a.ints, b.ints)
    return Polynomial._from_ints(g, g[-1]) if g else Polynomial()


def _int_squarefree(a: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on an integer polynomial a: [(s_i, i)] with
    a = lead * prod s_i^i over Q, each s_i squarefree and pairwise
    coprime (trivial factors omitted).  Every gcd is primitive, so every
    division stays integral."""
    if len(a) < 2:
        return []
    da = _int_derivative(a)
    g = _int_gcd(a, da)
    if len(g) == 1:
        return [(a, 1)]
    out = []
    c = _int_exact_div(a, g)
    d = _int_sub(_int_exact_div(da, g), _int_derivative(c))
    i = 1
    while len(c) > 1:
        s = _int_gcd(c, d)
        if len(s) > 1:
            out.append((s, i))
            c, d = _int_exact_div(c, s), _int_exact_div(d, s)
        d = _int_sub(d, _int_derivative(c))
        i += 1
    return out


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(a: list[int]) -> list[list[int]]:
    """Sturm chain of the integer polynomial a on primitive integer
    polynomials.  Each member is a positive multiple of the member of
    the Fraction chain that it stands for, so both give the same signs."""
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
    """The sign of q at the integer x or at one of the infinities."""
    if x is _POS_INF:
        return _sign(q[-1])
    if x is _NEG_INF:
        return _sign(q[-1]) * (-1) ** (len(q) - 1)
    acc = 0
    for c in reversed(q):
        acc = acc * x + c
    return _sign(acc)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variation_sums(c: list[int], points) -> list[int]:
    """Per point, the sum of mult * (sign variations of the Sturm chain
    of s) over the squarefree factors s^mult of c: differences count the
    real roots of c between points that are not roots, with multiplicity."""
    out = [0] * len(points)
    for s, mult in _int_squarefree(c):
        chain = _sturm_chain(s)
        for i, x in enumerate(points):
            out[i] += mult * _variations(chain, x)
    return out


def _strip_root(c: list[int], r: int) -> tuple[list[int], int]:
    """The nonzero integer polynomial c without its root r = 1 or -1, by
    synthetic division, and the multiplicity of r: c(r) is the plain or
    the alternating coefficient sum."""
    mult = 0
    while not sum(c[::2]) + r * sum(c[1::2]):
        # c = (z - r) q, so q_(k-1) = c_k + r q_k from the top down
        c = list(itertools.accumulate(c[:0:-1], lambda q, x: x + r * q))[::-1]
        mult += 1
    return c, mult


def _trace_polynomial(c: list[int]) -> list[int]:
    """For palindromic integer c of even degree 2k, the degree-k integer
    polynomial T with c(z)/z^k = T(z + 1/z)."""
    k = len(c) // 2
    # B_j(w) = z^j + z^{-j} as a polynomial in w = z + 1/z
    b_prev, b_cur = [2], [0, 1]
    t = [c[k]] + [0] * k
    for j in range(1, k + 1):
        for i, x in enumerate(b_cur):
            t[i] += c[k + j] * x
        b_prev, b_cur = b_cur, _int_sub([0] + b_cur, b_prev)
    return t


def _strip_trivial_roots(c: list[int]) -> tuple[list[int], int, int]:
    """The nonzero integer polynomial c without its roots 1, -1 and 0,
    as a primitive polynomial, and the multiplicities of 1 and of -1."""
    c, m_one = _strip_root(c, 1)
    c, m_minus = _strip_root(c, -1)
    # zero roots are strictly inside the circle
    return _primitive(c[next(i for i, x in enumerate(c) if x):]), m_one, m_minus


def _unit_circle_roots(c: list[int]) -> int:
    """Number of roots on the unit circle, with multiplicity, of the
    integer polynomial c, which has no root 0, 1 or -1."""
    g = _int_gcd(c, c[::-1])
    if len(g) == 1:
        return 0
    # g collects every unit-circle root (full multiplicity) plus possible
    # reciprocal off-circle pairs; it is palindromic of even degree.
    if g != g[::-1] or len(g) % 2 == 0:
        raise ArithmeticError("reciprocal factor is not palindromic")
    # z = e^(i theta) off +-1 is a root exactly when T has the root
    # w = 2 cos(theta) in (-2, 2)
    lo, hi = _variation_sums(_trace_polynomial(g), (-2, 2))
    return 2 * (lo - hi)


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------


class RationalMatrix:
    """Immutable square matrix over the rationals, stored as one integer
    form.

    Members
    -------
    ints : tuple of tuple of int
    den : int
        The matrix is ints / den, with den the least positive common
        denominator of its entries, so equal matrices have equal forms.
    dim : int
    rows : tuple of tuple of Fraction
        The entries as Fractions, made anew on each read, for display
        and the spec echo; only the integer form and its hash are stored.

    The arithmetic is the package's: sums, differences, products, powers,
    the inverse and the kernel, all exact and on the integer form.
    """

    __slots__ = ("ints", "den", "dim", "_hash")

    def __init__(self, rows):
        rs = tuple(tuple(as_rational(x) for x in row) for row in rows)
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        den = math.lcm(1, *(x.denominator for r in rs for x in r))
        self._set(tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                        for r in rs), den)

    @classmethod
    def _from_ints(cls, ints, den: int = 1) -> "RationalMatrix":
        """The matrix ints / den, for square integer rows ints (not
        checked) and an integer den > 0; the form is reduced to lowest
        terms here."""
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(ints))
            if g != 1:
                ints = [[x // g for x in row] for row in ints]
                den //= g
        m = object.__new__(cls)
        m._set(tuple(map(tuple, ints)), den)
        return m

    def _set(self, ints, den):
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "dim", len(ints))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the integer form
        return RationalMatrix._from_ints, (self.ints, self.den)

    @property
    def rows(self) -> tuple:
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self.ints)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._from_ints([[int(i == j) for j in range(n)]
                                          for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        # the form never changes, so its hash is taken once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ints, self.den)))
        return self._hash

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in r] for r in self.rows]})"

    def _combine(self, other, op) -> "RationalMatrix":
        """The entrywise op of self and other, on forms over one common
        denominator."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        (a, b), s = _integer_form([self, other])
        return RationalMatrix._from_ints(
            [list(map(op, r1, r2)) for r1, r2 in zip(a, b)], s)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __matmul__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RationalMatrix._from_ints(_int_matmul(self.ints, other.ints),
                                         self.den * other.den)

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

    def is_integral(self) -> bool:
        return self.den == 1

    def inverse(self) -> "RationalMatrix":
        n = self.dim
        red, pivots = _gauss_jordan([list(r) + [int(i == j) for j in range(n)]
                                     for i, r in enumerate(self.ints)], n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        # row i is p_i (e_i | row i of M_int^-1); M^-1 = den M_int^-1
        s = math.lcm(*(row[i] for i, row in enumerate(red)))
        return RationalMatrix._from_ints(
            [[x * (s // row[i]) * self.den for x in row[n:]]
             for i, row in enumerate(red)], s)

    def nullspace(self) -> list[tuple[int, ...]]:
        """Integer basis of the kernel: per non-pivot column c of the
        reduced row echelon form, the vector that is s > 0 at c and 0 at
        the other non-pivot columns."""
        n = self.dim
        red, pivots = _gauss_jordan(self.ints, n)
        s = math.lcm(1, *(red[r][c] for r, c in enumerate(pivots)))
        basis = []
        for fc in (c for c in range(n) if c not in pivots):
            v = [0] * n
            v[fc] = s
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc] * (s // red[r][pc])
            basis.append(tuple(v))
        return basis


def _gauss_jordan(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows, each kept
    primitive (Bareiss 1968 divides by the last pivot instead): the
    rows, each a multiple of the reduced row echelon form's, and the
    pivot columns.  Only the first ncols columns are eligible as pivots;
    any further ones are carried along, as in an augmented matrix."""
    m = [_primitive(list(r)) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, p = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(c)
    return m, pivots


def det(m: RationalMatrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination.

    The stored integer form M_int / s is eliminated, on a copy, so every
    intermediate value stays an exact integer; s^dim is divided back out
    at the end.
    """
    return Fraction(_bareiss_det([list(r) for r in m.ints]), m.den ** m.dim)


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


def char_poly(m: RationalMatrix) -> Polynomial:
    """Monic characteristic polynomial det(zI - M), exactly.

    M is written once as M_int / q; the characteristic polynomial of the
    integer matrix M_int comes from the division-free Berkowitz
    recursion, and its coefficient c_k of z^(dim-k) is divided by q^k:
    over q^dim it is c_k q^(dim-k).
    """
    q = m.den
    return Polynomial._from_ints([c * q ** j for j, c in
                                  enumerate(reversed(_berkowitz(m.ints)))], q ** m.dim)


def _berkowitz(a: list[list[int]]) -> list[int]:
    """Characteristic polynomial of a square integer matrix, highest
    degree first, in integer arithmetic.  Step r borders the leading
    r x r block A_r with row R, column C and corner x; the new
    polynomial is the old one times the Toeplitz column
    (1, -x, -R C, -R A_r C, ..., -R A_r^(r-1) C).  Sizes 1 to 3 are
    written out: trace, sum of principal 2-minors, determinant.  A
    larger matrix that is block diagonal after a permutation of its
    indices (see _diagonal_blocks) has the product of its blocks'
    polynomials."""
    if len(a) > 3:
        blocks = _diagonal_blocks([a], len(a))
        if len(blocks) > 1:
            return reduce(_int_poly_mul, map(_berkowitz, _split(a, blocks)))
    if len(a) == 1:
        return [1, -a[0][0]]
    if len(a) == 2:
        (p, q), (r, s) = a
        return [1, -p - s, p * s - q * r]
    if len(a) == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        return [1, -p - t - x, p * t - q * s + p * x - r * v + t * x - u * w,
                q * (s * x - u * v) - p * (t * x - u * w) - r * (s * w - t * v)]
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
        return RationalMatrix.identity(1)
    subsets = list(itertools.combinations(range(n), i))
    a = m.ints
    out = []
    for rows_s in subsets:
        out_row = []
        for cols_s in subsets:
            sub = RationalMatrix._from_ints([[a[r][c] for c in cols_s]
                                             for r in rows_s], m.den)
            out_row.append(det(sub))
        out.append(out_row)
    return RationalMatrix(out)


# --------------------------------------------------------------------------
# integer kernel of the averaging formulas
# --------------------------------------------------------------------------


def _integer_form(mats) -> tuple[list[tuple[tuple[int, ...], ...]], int]:
    """Integer matrices M_int, as tuples of rows, and one common
    denominator s with M = M_int / s for every M in mats.  A matrix
    stored over s is returned as it is stored, so callers must not
    change the rows."""
    s = math.lcm(1, *(m.den for m in mats))
    return [m.ints if m.den == s else
            tuple(tuple(x * (s // m.den) for x in row) for row in m.ints)
            for m in mats], s


def _int_matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    """Product of two square integer matrices of one size; sizes 1 to 3
    are written out, larger ones take inner products of rows and
    columns."""
    n = len(x)
    if n == 1:
        return [[x[0][0] * y[0][0]]]
    if n == 2:
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = x
        (j, k, l), (m, o, p), (r, t, w) = y
        return [[a * j + b * m + c * r, a * k + b * o + c * t, a * l + b * p + c * w],
                [d * j + e * m + f * r, d * k + e * o + f * t, d * l + e * p + f * w],
                [g * j + h * m + i * r, g * k + h * o + i * t, g * l + h * p + i * w]]
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
    the first that vanishes.  Blocks of size 1 to 3 are expanded in
    closed form from the entries of x and y; a larger block is scaled to
    one integer matrix and goes through Bareiss."""
    out = 1
    for bx, by in zip(x, y):
        k = len(bx)
        if k == 1:
            out *= u * bx[0][0] - v * by[0][0]
        elif k == 2:
            (a, b), (c, d) = bx
            (e, f), (g, h) = by
            out *= ((u * a - v * e) * (u * d - v * h)
                    - (u * b - v * f) * (u * c - v * g))
        elif k == 3:
            (a, b, c), (d, e, f), (g, h, i) = bx
            (j, l, m), (o, p, r), (t, w, z) = by
            # the entries of u*x - v*y, then the cofactor expansion
            a, b, c = u * a - v * j, u * b - v * l, u * c - v * m
            d, e, f = u * d - v * o, u * e - v * p, u * f - v * r
            g, h, i = u * g - v * t, u * h - v * w, u * i - v * z
            out *= a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        else:
            out *= _bareiss_det([[u * a - v * b for a, b in zip(rx, ry)]
                                 for rx, ry in zip(bx, by)])
        if not out:
            break
    return out


def _block_mul(x, y) -> list[list[list[int]]]:
    """Product of two matrices given by their diagonal blocks."""
    return [_int_matmul(a, b) for a, b in zip(x, y)]


class _ScaledPowers:
    """n -> (M_int^n, q^n) for M = M_int / q, with M_int^n kept by
    diagonal blocks; each new iterate costs one product of blocks."""

    def __init__(self, base, one, q: int):
        self._base, self._q = base, q
        self._powers = [one]

    def __call__(self, n: int):
        while len(self._powers) <= n:
            self._powers.append(_block_mul(self._powers[-1], self._base))
        return self._powers[n], self._q ** n


class AveragingKernel:
    """The determinants that the averaging formulas take over a holonomy
    group, for the iterates of one linear part D, in integer arithmetic.

    Every holonomy element A is converted once to A_int / s, with one
    common s, D to D_int / q and a target E to E_int / r.  Each
    determinant is an integer numerator over a denominator that all
    elements share, so averages are exact; with a target, det(I - A D^n)
    becomes det(E^n - A D^n).  fixed_point_dets(ns) and shifted_dets(ns)
    read iterates n >= 1 in any order, repeats included: a read past the
    end of its kind's table appends every iterate up to the largest it
    names, as one range, and keeps it, so each is taken once.

    The holonomy, D and E are split once into common diagonal blocks,
    which choose the path.
    - Traces: s = q = r = 1 and blocks of size 1 or 2, with no target
      unless all have size 1 (a diagonal problem, whose sequences are its
      running diagonal).  No power of D is formed.  With t = tr D_b and
      delta = det D_b (D_b and 0 for size 1), tau_n = tr(A_b D_b^n) and
      sigma_n = tr(adj(A_b) D_b^n) obey u_n = t u_(n-1) - delta u_(n-2),
      kept once per distinct block.  A 2 x 2 block gives det(I - A_b
      D_b^n) = 1 - tau_n + det(A_b) delta^n and det(A_b - D_b^n) =
      det(A_b) - sigma_n + delta^n, a 1 x 1 block E_b^n - tau_n and A_b -
      sigma_n, all over 1.  The two kinds read different traces, so
      R(f^n) stays a check of N(f^n).  u_n and the powers are tables.
    - Powers (denominators, any other target, or a block of size 3 or
      more): D^n and E^n are kept by blocks, and each determinant is the
      product of its blocks', closed forms to size 3 and Bareiss beyond.
    """

    def __init__(self, holonomy, linear: RationalMatrix,
                 target: RationalMatrix | None = None):
        self._dim = dim = linear.dim
        hol, self._s = _integer_form(holonomy)
        e = linear if target is None else target
        blocks = _diagonal_blocks(hol + [m.ints for m in {linear, e}], dim)
        self._diagonal = len(blocks) == dim
        # entry n of each kind's table is iterate n's
        self._fixed, self._shifted, self._traces = [None], [None], None
        if (max(map(len, blocks)) <= 2 and (target is None or self._diagonal)
                and self._s == linear.den == e.den == 1):
            # per block: size, u_n = t u_(n-1) - delta u_(n-2), and the base
            # of its powers, E_b (1 without a target) or delta; per element,
            # det(A_b) and tau_0, tau_1, sigma_0, sigma_1, shared by equal blocks
            self._rec, self._traces, self._powers, shared = [], [[] for _ in hol], {}, {}
            d = linear.ints
            for i, (j, l) in enumerate((b[0], b[-1]) for b in blocks):
                p, q, r, t = d[j][j], d[j][l], d[l][j], d[l][l]
                self._rec.append((1, p, 0, 1 if target is None else e.ints[j][j]) if j == l
                                 else (2, p + t, p * t - q * r, p * t - q * r))
                for row, a in zip(self._traces, hol):
                    key = i, w, x, y, z = i, a[j][j], a[j][l], a[l][j], a[l][l]
                    if key not in shared:
                        shared[key] = ((w, ([w, w * p], [1, p])) if j == l else
                                       (w * z - x * y, ([w + z, w * p + x * r + y * q + z * t],
                                                        [w + z, z * p - x * r - y * q + w * t])))
                    row.append(shared[key])
            return
        form = partial(_split, blocks=blocks)
        one = [[[int(i == j) for j in range(len(b))] for i in range(len(b))]
               for b in blocks]
        self._d = _ScaledPowers(form(linear.ints), one, linear.den)
        self._e = None if target is None else _ScaledPowers(form(e.ints), one, e.den)
        self._hol = [form(a) for a in hol]
        ident = RationalMatrix.identity(dim).ints
        self._skip = [a == ident for a in hol]           # A_int P is P

    def fixed_point_dets(self, ns) -> list[tuple[list[int], int]]:
        """For each iterate n of ns: the numerators of det(E^n - A D^n),
        E = I unless a target was given, one per holonomy element, and
        their common denominator.  The lists are shared between callers
        and must not be changed."""
        return self._read(self._fixed, False, ns)

    def shifted_dets(self, ns) -> list[tuple[list[int], int]]:
        """For each iterate n of ns: the numerators of det(A - D^n), one
        per holonomy element, and their common denominator (s q^n)^dim."""
        return self._read(self._shifted, True, ns)

    def _read(self, table: list, shifted: bool, ns) -> list:
        if min(ns, default=1) < 1:
            raise ValueError("iterate must be >= 1")
        if (end := max(ns, default=0) + 1) > len(table):
            fill = self._block_dets if self._traces is None else self._trace_dets
            table += fill(range(len(table), end), shifted)
        return (table[ns.start:ns.stop:ns.step] if type(ns) is range
                else list(map(table.__getitem__, ns)))

    def _power(self, base: int, hi: int) -> list[int]:
        """[1, base, ..., base^(hi-1)] or longer, kept on the kernel."""
        p = self._powers.setdefault(base, [1])
        while len(p) < hi:
            p.append(p[-1] * base)
        return p

    def _trace_dets(self, ns: range, shifted: bool) -> list:
        """The entries of the iterates ns, a range, off the tables."""
        lo, hi, factors, columns = ns.start, ns.stop, {}, []
        for row in self._traces:
            fs = []
            for (det_a, seqs), (k, t, delta, base) in zip(row, self._rec):
                f = factors.get(id(seqs))
                if f is None:
                    u = seqs[shifted]
                    a, b = u[-2:]
                    for _ in range(hi - len(u)):
                        a, b = b, t * b - delta * a
                        u.append(b)
                    v, p = u[lo:hi], self._power(base, hi)[lo:hi]
                    if k == 1:
                        f = [det_a - x for x in v] if shifted else list(map(operator.sub, p, v))
                    else:
                        f = ([det_a - x + y for x, y in zip(v, p)] if shifted else
                             [1 - x + det_a * y for x, y in zip(v, p)])
                    factors[id(seqs)] = f
                fs.append(f)
            columns.append(reduce(partial(map, operator.mul), fs))
        return list(zip(map(list, zip(*columns)), itertools.repeat(1)))

    def _block_dets(self, ns, shifted: bool) -> list:
        s, out = self._s, []
        for n in ns:
            p, qn = self._d(n)
            c = s * qn
            if shifted:
                out.append(([_scaled_det(qn, a, s, p) for a in self._hol],
                            c ** self._dim))
                continue
            e, rn = self._d(0) if self._e is None else self._e(n)  # I = I_int / 1
            out.append(([_scaled_det(c, e, rn, p if skip else _block_mul(a, p))
                         for a, skip in zip(self._hol, self._skip)],
                        (rn * c) ** self._dim))
        return out


# --------------------------------------------------------------------------
# eigenvalue classification
# --------------------------------------------------------------------------


class EigenClassification(namedtuple("EigenClassification",
                                     "p n unit_modulus_count one_in_spectrum")):
    """Unit-circle bookkeeping for a rational matrix.

    p / n count real eigenvalues > 1 / < -1 (exact, with multiplicity);
    unit_modulus_count is the exact number of eigenvalues on the unit
    circle; one_in_spectrum says, exactly, whether 1 is an eigenvalue.
    All four come from integer arithmetic on the characteristic
    polynomial, as does root_of_unity_eigenvalue, read from the core
    kept here.  expanding_log_product is sum(log |lambda|) over
    |lambda| > 1 at working precision: the one float, computed from the
    core when it is first read.

    The core (the characteristic polynomial without its roots 1, -1 and
    0) and the number of its roots on the circle are kept beside the
    four counts, outside ==, hash and repr.
    """

    def __new__(cls, p, n, unit_modulus_count, one_in_spectrum,
                _core=(), _core_on_circle=0):
        self = super().__new__(cls, p, n, unit_modulus_count, one_in_spectrum)
        self._core, self._core_on_circle = _core, _core_on_circle
        return self

    def _replace(self, **changes):
        return type(self)(*super()._replace(**changes), self._core,
                          self._core_on_circle)

    @cached_property
    def expanding_log_product(self) -> float:
        # Only the core is rooted numerically: a cluster of exact roots
        # +-1 would cost digits of the expanding roots near it.  The exact
        # count says how many of the core's roots sit on the circle; set
        # aside that many of the numeric roots nearest to it.  A root
        # misplaced by this sort lies within the numeric perturbation of
        # the circle, so it moves the log product by no more than that
        # perturbation.
        roots = sorted(_float_roots(self._core, "the entropy (the expanding "
                                                "log product)"),
                       key=lambda r: abs(abs(r) - 1.0))
        return float(sum(math.log(abs(r)) for r in roots[self._core_on_circle:]
                         if abs(r) > 1.0))

    @cached_property
    def root_of_unity_eigenvalue(self) -> bool:
        """Whether some eigenvalue is a root of unity, decided exactly:
        1 or -1, or for k >= 3 a primitive k-th root, whose cyclotomic
        polynomial Phi_k (degree phi(k)) then divides the core."""
        if self.unit_modulus_count > self._core_on_circle:
            return True
        deg = len(self._core) - 1
        return self._core_on_circle > 0 and any(
            not _prem(self._core, _cyclotomic(k))
            for k in range(3, max_root_of_unity_order(deg) + 1)
            if _euler_phi(k) <= deg)


def spectral_isolation(m: RationalMatrix) -> EigenClassification:
    """The same as classify_eigenvalues; nothing in the package calls it,
    but the benchmark tracer binds this name."""
    return _classify(m)


def classify_eigenvalues(m: RationalMatrix) -> EigenClassification:
    """Classify the spectrum of m relative to the unit circle.

    For m = M_int / q, the integer polynomial det(qz I - M_int) has the
    roots of the characteristic polynomial; its coefficients come once
    from Berkowitz on M_int.  The roots 1, -1 and 0 are divided out
    exactly, the unit-circle roots of the rest are counted from its gcd
    with its reverse, and p and n from one Sturm chain per squarefree
    factor, read at -inf, -1, 1 and +inf.  No count waits on a float:
    the numeric roots only form the expanding modulus product, on first
    use.
    """
    return _classify(m)


@lru_cache(maxsize=8)
def _classify(m: RationalMatrix) -> EigenClassification:
    # det(qz I - M_int): the Berkowitz coefficient c_k of z^(dim-k),
    # times q^(dim-k)
    q = m.den
    coeffs = [c * q ** j for j, c in enumerate(reversed(_berkowitz(m.ints)))]
    core, m_one, m_minus = _strip_trivial_roots(coeffs)
    on_circle = _unit_circle_roots(core)
    below, minus, plus, above = _variation_sums(core, (_NEG_INF, -1, 1, _POS_INF))
    return EigenClassification(plus - above, below - minus,
                               m_one + m_minus + on_circle, m_one > 0,
                               tuple(core), on_circle)


def _float_roots(c, quantity: str):
    """The complex roots of the integer polynomial c in floating point,
    from numpy, the one place the package uses it; numpy is imported on
    the first call, so importing the package does not load it.  numpy
    gets the correctly rounded quotients c_i / lead; one beyond the
    float range raises OutOfFloatRange, naming the quantity.  A linear
    c has the root -(c_0 / c_1), the float that numpy's 1 x 1 companion
    matrix gives, and a constant c none, both without numpy."""
    try:
        if len(c) <= 2:
            return [-(c[0] / c[1])] if len(c) == 2 else []
        floats = [x / c[-1] for x in reversed(c)]
    except OverflowError:
        raise OutOfFloatRange(f"cannot compute {quantity} in floating point: "
                              "its polynomial has a coefficient beyond the "
                              "float range (about 1.8e308)") from None
    import numpy
    return numpy.roots(floats)


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
    """True iff some eigenvalue is a root of unity (decided exactly)."""
    return classify_eigenvalues(m).root_of_unity_eigenvalue
