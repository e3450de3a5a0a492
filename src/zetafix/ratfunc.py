"""Rational functions and exact reconstruction from power sums.

The central operation turns a sequence a_1, a_2, ... into the function
exp(sum a_n z^n / n) and certifies that it is rational within a degree
bound: the series is expanded exactly, a minimal linear recurrence fit
supplies the denominator, and a full extra window of series terms must
be reproduced before the function is accepted.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import (Polynomial, as_rational, poly_gcd,
                      squarefree_decomposition)
from .errors import InsufficientTerms, NotRational, PoleAtPoint


def format_polynomial(p: Polynomial, var: str = "z") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}"
            term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
            term = ("-" if c < 0 else "") + term
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


class RationalFunction:
    """Quotient of two Fraction polynomials in lowest terms.

    The denominator is normalized so its lowest-degree nonzero
    coefficient is 1; for the zeta functions produced here (products of
    factors 1 - lambda*z) that is the constant term.  Instances are
    immutable, and equality is structural equality of the canonical
    form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Polynomial(), Polynomial.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        low = next(c for c in den.coeffs if c != 0)
        if low != 1:
            num = num * (1 / low)
            den = den * (1 / low)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({list(self.num.coeffs)}, {list(self.den.coeffs)})"

    def __str__(self):
        if self.den.degree <= 0:
            return format_polynomial(self.num)
        return f"({format_polynomial(self.num)})/({format_polynomial(self.den)})"

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one())

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant")
        if self.num.is_zero:
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero:
            raise ZeroDivisionError("zero function has no inverse")
        return RationalFunction(self.den, self.num)

    def __pow__(self, k: int):
        if k == 0:
            return RationalFunction.one()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def compose_scale(self, c) -> "RationalFunction":
        """Substitute z -> c*z for a rational scalar c."""
        return RationalFunction(self.num.compose_scale(c), self.den.compose_scale(c))

    def series(self, upto: int) -> list[Fraction]:
        """Taylor coefficients 0..upto; requires a nonzero constant
        denominator term."""
        d = self.den.coeffs
        if not d or d[0] == 0:
            raise ZeroDivisionError("function has a pole at 0")
        n_c = self.num.coeffs
        out = []
        for n in range(upto + 1):
            acc = n_c[n] if n < len(n_c) else Fraction(0)
            for j in range(1, min(n, len(d) - 1) + 1):
                acc -= d[j] * out[n - j]
            out.append(acc / d[0])
        return out

    def eval_exact(self, x) -> Fraction:
        x = as_rational(x)
        dv = self.den(x)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / dv

    def log_derivative_sums(self, upto: int) -> list[Fraction]:
        """Recover a_1..a_upto with self = exp(sum a_n z^n / n):
        a_n = n * [z^n] log(self).  Inverse of zeta_from_terms."""
        f = self.series(upto)
        if f[0] != 1:
            raise ValueError("constant term must be 1")
        a = []
        for n in range(1, upto + 1):
            s = n * f[n] - sum(a[k - 1] * f[n - k] for k in range(1, n))
            a.append(s)
        return a


class SequenceOracle:
    """Deterministic generator n -> a_n (n >= 1), cached, carrying the
    degree bound used for rational reconstruction."""

    def __init__(self, fn, degree_bound: int, name: str = ""):
        if degree_bound < 1:
            raise ValueError("degree_bound must be >= 1")
        self._fn = fn
        self.degree_bound = int(degree_bound)
        self.name = name
        self._cache: dict[int, Fraction] = {}

    def __call__(self, n: int):
        if n < 1:
            raise ValueError("sequence indices start at 1")
        if n not in self._cache:
            self._cache[n] = self._fn(n)
        return self._cache[n]


def min_linear_recurrence(terms) -> Polynomial:
    """Monic characteristic polynomial of the minimal linear recurrence
    satisfied by the whole sequence (Berlekamp-Massey over Q).

    Raises InsufficientTerms unless the window is at least twice the
    detected order, the usual stabilization requirement.
    """
    s = [as_rational(t) for t in terms]
    c = [Fraction(1)]          # connection polynomial, c[0] = 1
    b = [Fraction(1)]
    ell = 0                    # current register length
    m = 1
    bb = Fraction(1)
    for n, sn in enumerate(s):
        d = sn + sum(c[i] * s[n - i] for i in range(1, ell + 1))
        if d == 0:
            m += 1
        elif 2 * ell <= n:
            t_prev = list(c)
            coef = d / bb
            c = c + [Fraction(0)] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] -= coef * bi
            ell = n + 1 - ell
            b = t_prev
            bb = d
            m = 1
        else:
            coef = d / bb
            c = c + [Fraction(0)] * max(0, len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] -= coef * bi
            m += 1
    if 2 * ell > len(s):
        raise InsufficientTerms(
            f"recurrence of order {ell} detected from only {len(s)} terms; "
            f"need at least {2 * ell}")
    # char poly z^ell * C(1/z): s_n = -sum_{i=1..ell} c_i s_{n-i}
    rev = [Fraction(0)] * (ell + 1)
    for i, ci in enumerate(c):
        rev[ell - i] = ci
    return Polynomial(rev)


def _series_times_poly(series: list[Fraction], p: Polynomial, upto: int) -> list[Fraction]:
    out = []
    d = p.coeffs
    for n in range(upto + 1):
        acc = Fraction(0)
        for j, dj in enumerate(d):
            if j > n:
                break
            if dj != 0:
                acc += dj * series[n - j]
        out.append(acc)
    return out


def zeta_from_terms(seq: SequenceOracle, degree_bound: int | None = None) -> RationalFunction:
    """Reconstruct exp(sum a_n z^n / n) as an exact rational function.

    Expands the exponential exactly to index 3B+4, fits a denominator of
    degree <= B through the first 2B+4 coefficients, and then requires
    every remaining product coefficient through 3B+4 to vanish; anything
    less raises NotRational rather than returning a guess.
    """
    b = seq.degree_bound if degree_bound is None else int(degree_bound)
    if b < 1:
        raise ValueError("degree bound must be >= 1")
    top = 3 * b + 4
    a = [as_rational(seq(n)) for n in range(1, top + 1)]
    f = [Fraction(1)]
    for n in range(1, top + 1):
        f.append(sum(a[k - 1] * f[n - k] for k in range(1, n + 1)) / n)

    try:
        cpoly = min_linear_recurrence(f[: 2 * b + 4])
    except InsufficientTerms as e:
        raise NotRational(
            f"no linear recurrence of order <= {b} fits the series: {e}") from e
    order = cpoly.degree
    if order > b:
        raise NotRational(
            f"series requires recurrence order {order}, exceeding the bound {b}")
    den = cpoly.reversed_poly()          # constant term 1 since cpoly is monic
    prod = _series_times_poly(f, den, top)
    for j in range(order, top + 1):
        if prod[j] != 0:
            raise NotRational(
                f"recurrence fit fails at series index {j}; the sequence is "
                f"not rational within degree bound {b}")
    num = Polynomial(prod[:order] if order else prod[:1])
    return RationalFunction(num, den)


def evaluate(rf: RationalFunction, z: complex, pole_tol: float = 1e-12) -> complex:
    """Evaluate at a complex point; PoleAtPoint when the denominator
    magnitude falls below pole_tol."""
    z = complex(z)
    dv = complex(rf.den(z))
    if abs(dv) < pole_tol:
        raise PoleAtPoint(f"denominator magnitude {abs(dv):.3e} at z={z}")
    return complex(rf.num(z)) / dv


def radius_of_convergence(rf: RationalFunction) -> float:
    """Distance from 0 to the nearest pole; inf for polynomials."""
    if rf.den.degree <= 0:
        return math.inf
    # A root of multiplicity k moves by about eps^(1/k) under np.roots,
    # so take the roots of each squarefree factor instead.
    return float(min(abs(r) for s, _ in squarefree_decomposition(rf.den)
                     for r in np.roots(s.float_coeffs_desc())))


def substitute_reciprocal_scale(rf: RationalFunction, d) -> RationalFunction:
    """Exact substitution z -> 1/(d*z) for a nonzero rational d."""
    d = as_rational(d)
    if d == 0:
        raise ValueError("scale must be nonzero")
    k = max(rf.num.degree, rf.den.degree)

    def lift(p: Polynomial) -> Polynomial:
        # p(1/(dz)) * (dz)^k, exactly
        out = [Fraction(0)] * (k + 1)
        for j, c in enumerate(p.coeffs):
            out[k - j] = c * d ** (k - j)
        return Polynomial(out)

    return RationalFunction(lift(rf.num), lift(rf.den))
