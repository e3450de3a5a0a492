"""Rational functions and exact reconstruction from power sums.

The central operation turns a sequence a_1, a_2, ... into the function
exp(sum a_n z^n / n) and certifies that it is rational within a degree
bound: the series is expanded exactly, a minimal linear recurrence fit
supplies the denominator, and a full extra window of series terms must
be reproduced before the function is accepted.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .algebra import (Polynomial, _float_roots, _int_poly_mul,
                      _int_squarefree, _primitive, as_rational, poly_gcd)
from .errors import InsufficientTerms, NotRational


def format_polynomial(p: Polynomial, var: str = "z") -> str:
    """p as text, lowest degree first, e.g. 1+2z-2z^2; a non-integer
    coefficient of a power of var is bracketed, (1/4)z, not 1/4z."""
    parts = []
    for i, c in enumerate(p.ints if p.den == 1 else p.coeffs):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = abs(c)
            mag = "" if mag == 1 else str(mag) if mag.denominator == 1 else f"({mag})"
            term = ("-" if c < 0 else "") + mag + (var if i == 1 else f"{var}^{i}")
        parts.append("+" + term if parts and term[0] != "-" else term)
    return "".join(parts) or "0"


class RationalFunction:
    """Quotient of two Polynomials (integer forms) in lowest terms.

    The denominator is normalized so its lowest-degree nonzero
    coefficient is 1; for the zeta functions produced here (products of
    factors 1 - lambda*z) that is the constant term, and both have
    integer coefficients.  Instances are immutable, and equality is
    structural equality of the canonical form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        self._store(num, den)

    def _store(self, num: Polynomial, den: Polynomial) -> None:
        """Keep the coprime pair num/den in canonical form: a zero
        numerator becomes 0/1, and both are scaled so that the lowest
        nonzero denominator coefficient is 1."""
        if num.is_zero:
            num, den = Polynomial(), Polynomial.one()
        low = next(c for c in den.ints if c != 0)
        if low != den.den:
            # both times den.den / low, the inverse of that coefficient
            num, den = [Polynomial._from_ints([x * den.den for x in p.ints], p.den * low)
                        for p in (num, den)]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the canonical pair
        return _coprime, (self.num, self.den)

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

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero:
            raise ZeroDivisionError("zero function has no inverse")
        return _coprime(self.den, self.num)

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
        num, den = self.num.compose_scale(c), self.den.compose_scale(c)
        if as_rational(c) == 0:
            return RationalFunction(num, den)
        return _coprime(num, den)

class SequenceOracle:
    """Deterministic generator n -> a_n (n >= 1), cached, carrying the
    degree bound (an int >= 1) used for rational reconstruction.

    zeta, if given, maps the oracle to its zeta P/Q certified on the
    window 3B + 4 under the oracle's own bound B (as zeta_from_terms
    does).  It is called the first time zeta is read or a term past the
    window is asked for, and every such term is read off P/Q, never
    made by fn: A = sum a_n z^n has A P Q = z (P'Q - P Q'), of degree
    below the window, so sum_k (PQ)_k a_(j-k) = 0 there (O(deg PQ)
    steps).  A certificate that fails raises on every later read too."""

    def __init__(self, fn, degree_bound: int, name: str = "", zeta=None):
        if degree_bound < 1:
            raise ValueError("degree_bound must be >= 1")
        self._fn = fn
        self.degree_bound = int(degree_bound)
        self.name = name
        self._cache: dict[int, object] = {}     # n -> a_n, as fn returns it
        self._certify = zeta
        self._zeta = self._pq = None    # the zeta once certified; its P Q

    def __call__(self, n: int):
        if n < 1:
            raise ValueError("sequence indices start at 1")
        if n not in self._cache:
            if self._certify is not None and n > 3 * self.degree_bound + 4:
                self._extend(n)
            else:
                self._cache[n] = self._fn(n)
        return self._cache[n]

    @property
    def zeta(self) -> RationalFunction:
        """The certified zeta, built on first read."""
        if self._zeta is None:
            zeta = self._certify(self)
            for n in range(1, 3 * self.degree_bound + 5):
                self(n)                 # the tail recurrence reads them all
            self._zeta = zeta
        return self._zeta

    def _extend(self, n: int) -> None:
        """Fill _cache (1..len(_cache)) through n; PQ is made on first use."""
        if self._pq is None:
            zeta = self.zeta
            w = _int_poly_mul(zeta.num.ints, zeta.den.ints)
            self._pq = w[0], w[1:]
        (w0, rest), cache = self._pq, self._cache
        for j in range(len(cache) + 1, n + 1):
            s = -sum(map(operator.mul, rest, map(cache.__getitem__, range(j - 1, 0, -1))))
            q, r = divmod(s, w0)
            cache[j] = Fraction(s, w0) if r else q


def _coprime(num: Polynomial, den: Polynomial) -> RationalFunction:
    """num/den for a pair known to be coprime, built without a gcd."""
    rf = object.__new__(RationalFunction)
    rf._store(num, den)
    return rf


def _berlekamp_massey(s: list[int]) -> tuple[list[int], int]:
    """Shortest linear recurrence of an integer sequence: its length ell
    and connection polynomial c (ell + 1 integers, c[0] != 0), with
    sum_i c_i s_{n-i} = 0 for ell <= n < len(s).  Fraction-free
    Berlekamp-Massey: each update scales by the previous discrepancy
    instead of dividing by it, then divides out the content.  Over Q the
    result is unique once 2*ell <= len(s); InsufficientTerms otherwise.
    """
    c, b = [1], [1]            # current and previous connection polynomial
    ell, m, bb = 0, 1, 1       # length, shift since b, discrepancy of b
    for n in range(len(s)):
        d = sum(map(operator.mul, c, s[n::-1]))
        if d == 0:
            m += 1
            continue
        new = [bb * x for x in c] + [0] * (m + len(b) - len(c))
        for i, x in enumerate(b, m):
            new[i] -= d * x
        g = math.gcd(*new)
        new = [x // g for x in new]
        if 2 * ell <= n:
            b, bb = c, d
            ell = n + 1 - ell
            m = 1
        else:
            m += 1
        c = new
    if 2 * ell > len(s):
        raise InsufficientTerms(
            f"recurrence of order {ell} detected from only {len(s)} terms; "
            f"need at least {2 * ell}")
    return c, ell


def _exponential(a: list[int | Fraction]) -> tuple[list[int], int]:
    """Integers F_n = scale * f_n for n <= len(a), where
    sum f_n z^n = exp(sum a_n z^n / n).  Under Dold's congruences the
    series lies in 1 + zZ[[z]], so n f_n = sum_k a_k f_{n-k} divides
    exactly and scale is 1.  A term that is not an integer, or a nonzero
    remainder, falls back to Fraction arithmetic scaled by the lcm of
    the denominators.
    """
    if all(x.denominator == 1 for x in a):
        ints = [x.numerator for x in a]
        f = [1]
        for n in range(1, len(a) + 1):
            q, r = divmod(sum(map(operator.mul, ints, reversed(f))), n)
            if r:
                break
            f.append(q)
        else:
            return f, 1
    f = [Fraction(1)]
    for n in range(1, len(a) + 1):
        f.append(sum(map(operator.mul, a, reversed(f))) / n)
    scale = math.lcm(*(x.denominator for x in f))
    return [x.numerator * (scale // x.denominator) for x in f], scale


# Exponents k of the Mersenne primes 2^k - 1 that the modular fit of
# zeta_from_terms tries in turn.  The prime 2^k - 1 lifts a denominator
# whose coefficients are below 2^(k-1) in absolute value; a larger one
# fails the window check there and is fitted modulo the next prime.
_MERSENNE_EXPONENTS = (127, 521, 1279, 2281, 4423)


def _berlekamp_massey_mod(s: list[int], p: int) -> tuple[list[int], int]:
    """Shortest linear recurrence of an integer sequence modulo the prime
    p: its length ell and connection polynomial c with c[0] = 1, lifted
    to the symmetric range -p/2 < c_i < p/2.  The recurrence holds mod p
    only; the caller certifies the lift over the integers."""
    s = [x if -p < x < p else x % p for x in s]
    c, b = [1], [1]            # current polynomial; previous one over its discrepancy
    ell, m = 0, 1              # length, shift since b
    for n in range(len(s)):
        d = sum(map(operator.mul, c, s[n::-1])) % p
        if d == 0:
            m += 1
            continue
        new = c + [0] * (m + len(b) - len(c))
        for i, x in enumerate(b, m):
            new[i] = (new[i] - d * x) % p
        if 2 * ell <= n:
            inv = pow(d, -1, p)
            b = [x * inv % p for x in c]
            ell = n + 1 - ell
            m = 1
        else:
            m += 1
        c = new
    half = p >> 1
    return [x - p if x > half else x for x in c], ell


def _window_product(c: list[int], f: list[int], top: int) -> list[int]:
    """Coefficients 0..top of the series product c * f."""
    return [sum(map(operator.mul, c, f[j::-1])) for j in range(top + 1)]


def _modular_fit(f: list[int], b: int, top: int):
    """(c, order, prod) of zeta_from_terms for an integral series f,
    fitted modulo Mersenne primes and certified over the integers, or
    None when no prime gives a lift that passes the window check."""
    for k in _MERSENNE_EXPONENTS:
        p = (1 << k) - 1
        c, order = _berlekamp_massey_mod(f[: 2 * b + 4], p)
        if order > b:
            return None         # no prime can pass (see zeta_from_terms)
        prod = _window_product(c, f, top)
        if not any(prod[order:]):
            return c, order, prod
        if any(x % p for x in prod[order:]):
            return None         # no prime can pass (see zeta_from_terms)
    return None


def _exact_fit(f: list[int], b: int, top: int):
    """(c, order, prod) of zeta_from_terms by the fraction-free
    Berlekamp-Massey over Q; NotRational when the fit or its window
    check fails."""
    try:
        c, order = _berlekamp_massey(f[: 2 * b + 4])
    except InsufficientTerms as e:
        raise NotRational(
            f"no linear recurrence of order <= {b} fits the series: {e}") from e
    if order > b:
        raise NotRational(
            f"series requires recurrence order {order}, exceeding the bound {b}")
    prod = _window_product(c, f, top)
    for j in range(order, top + 1):
        if prod[j] != 0:
            raise NotRational(
                f"recurrence fit fails at series index {j}; the sequence is "
                f"not rational within degree bound {b}")
    return c, order, prod


def zeta_from_terms(seq: SequenceOracle, degree_bound: int | None = None) -> RationalFunction:
    """Reconstruct exp(sum a_n z^n / n) as an exact rational function.

    Expands the exponential exactly to index 3B+4, fits a denominator of
    degree <= B through the first 2B+4 coefficients, and then requires
    every remaining product coefficient through 3B+4 to vanish; anything
    less raises NotRational rather than returning a guess.  The fitted
    recurrence is minimal, so numerator and denominator are coprime and
    no gcd is taken.

    An integral series f (Dold's congruences) is first fitted modulo the
    Mersenne primes p = 2^k - 1 of _MERSENNE_EXPONENTS in turn:
    Berlekamp-Massey over F_p on the same 2B+4 terms gives c with
    c(0) = 1, lifted to the symmetric range, and the exact integer
    product f*c must vanish from the modular order on through 3B+4,
    with that order at most B.  A lift that passes is the exact answer:

    - c is then an integer recurrence of the window, so the exact
      minimal one, C_Q of order L_Q, has L_Q <= order <= B.  Both
      functions have order <= B and share 2B+4 series coefficients, so
      they are equal, and since P_Q/C_Q is in lowest terms C_Q divides c.
    - By Gauss's lemma C_Q is integral (c is, and c(0) = C_Q(0) = 1), so
      C_Q mod p is a recurrence mod p and the modular order is at most
      L_Q.  The two orders are equal, so c = C_Q: the exact fit returns
      the same lowest-terms function.
    - Conversely, if the exact fit would raise, no lift can pass.

    If some prime's lift passes, it is C_Q, and at every prime p the
    modular fit c_p is then the same function as C_Q mod p: both have
    order <= B and agree on 2B+4 terms mod p.  So c_p has order <= B,
    and f*c_p vanishes modulo p from its order on through 3B+4.  A
    modular order above B, or a product that fails modulo p itself,
    therefore ends the search at once.  A product that vanishes modulo
    p but not over the integers means a coefficient of C_Q too large
    for p, or P_Q and C_Q sharing a factor modulo p (p divides their
    resultant); the next prime is then tried.  When the search ends,
    or the series is not integral, the fraction-free exact fit decides,
    so its errors are the ones raised.  No coefficient bound is assumed
    anywhere: the window check is the certificate.
    """
    b = seq.degree_bound if degree_bound is None else int(degree_bound)
    if b < 1:
        raise ValueError("degree bound must be >= 1")
    top = 3 * b + 4
    f, scale = _exponential([a if isinstance(a, int) else as_rational(a)
                             for a in map(seq, range(1, top + 1))])
    fit = _modular_fit(f, b, top) if scale == 1 else None
    if fit is None:
        fit = _exact_fit(f, b, top)
    c, order, prod = fit
    return _coprime(Polynomial._from_ints(prod[:max(order, 1)], c[0] * scale),
                    Polynomial._from_ints(c, c[0]))


def radius_of_convergence(rf: RationalFunction) -> float:
    """Distance from 0 to the nearest pole; inf for polynomials."""
    if rf.den.degree <= 0:
        return math.inf
    # A root of multiplicity k moves by about eps^(1/k) under a numeric
    # root finder, so take the roots of each squarefree factor instead.
    den = _primitive(list(rf.den.ints))
    return float(min(abs(r) for s, _ in _int_squarefree(den)
                     for r in _float_roots(s, "the radius of convergence")))
