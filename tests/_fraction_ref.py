"""Plain-Fraction references for the tests.

A polynomial is a list of Fractions, lowest degree first, with no
trailing zeros (the zero polynomial is []); a rational function is a
(numerator, denominator) pair of such lists.  Every function takes any
sequence of ints, Fractions or "p/q" strings and returns new lists.
Nothing here imports zetafix: a test that compares the package with
these functions compares it with a separate, schoolbook computation.
"""

from fractions import Fraction
from itertools import zip_longest


def trim(a) -> list:
    out = [Fraction(x) for x in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a, b) -> list:
    return trim(x + y for x, y in zip_longest(trim(a), trim(b), fillvalue=0))


def sub(a, b) -> list:
    return add(a, [-y for y in trim(b)])


def mul(a, b) -> list:
    a, b = trim(a), trim(b)
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def product(*polys) -> list:
    """The product of the polynomials, [1] for none."""
    out = [Fraction(1)]
    for a in polys:
        out = mul(out, a)
    return out


def scale(a, c) -> list:
    """a(c z): coefficient k times c^k."""
    c = Fraction(c)
    return trim(x * c ** k for k, x in enumerate(trim(a)))


def divmod_(a, b) -> tuple:
    """Quotient and remainder of a on division by nonzero b."""
    rem, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= q[k] * y
    return trim(q), trim(rem)


def derivative(a) -> list:
    return trim(i * x for i, x in enumerate(trim(a)))[1:]


def monic(a) -> list:
    a = trim(a)
    return [x / a[-1] for x in a] if a else a


def reverse(a) -> list:
    """z^deg * a(1/z)."""
    return trim(reversed(trim(a)))


def gcd(a, b) -> list:
    """Monic gcd by Euclid's algorithm."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def series(num, den, upto: int) -> list:
    """Taylor coefficients 0..upto of num/den; den(0) must not vanish."""
    num, den = trim(num), trim(den)
    if not den or den[0] == 0:
        raise ZeroDivisionError("function has a pole at 0")
    out = []
    for n in range(upto + 1):
        acc = num[n] if n < len(num) else Fraction(0)
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc / den[0])
    return out


def log_derivative_sums(num, den, upto: int) -> list:
    """a_1..a_upto with num/den = exp(sum a_n z^n / n), that is
    a_n = n [z^n] log(num/den), from the Newton recursion
    n f_n = sum_{k=1}^{n} a_k f_(n-k) on the series f."""
    f = series(num, den, upto)
    if f[0] != 1:
        raise ValueError("constant term must be 1")
    a = []
    for n in range(1, upto + 1):
        a.append(n * f[n] - sum(a[k - 1] * f[n - k] for k in range(1, n)))
    return a


def at(a, x) -> Fraction:
    """The value of a at the rational x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(trim(a)):
        acc = acc * x + c
    return acc


def trace(rows) -> Fraction:
    return sum((Fraction(r[i]) for i, r in enumerate(rows)), Fraction(0))
