"""The plain-Fraction references that other tests compare the package
with, pinned on closed forms."""

from fractions import Fraction

import pytest

import _fraction_ref as ref


def test_series_geometric():
    assert ref.series([1], [1, -1], 5) == [1, 1, 1, 1, 1, 1]


def test_series_requires_unit_at_zero():
    with pytest.raises(ZeroDivisionError):
        ref.series([1], [0, 1], 3)


def test_log_derivative_sums_inverts_exponential():
    # (1+z)/(1-z) = exp(sum (1-(-1)^n) z^n / n)
    assert ref.log_derivative_sums([1, 1], [1, -1], 6) == [2, 0, 2, 0, 2, 0]


def test_division_derivative_and_monic():
    a = [Fraction(1, 2), 0, 3, 2]          # 1/2 + 3z^2 + 2z^3
    b = [1, 1]
    q, r = ref.divmod_(a, b)
    assert ref.add(ref.mul(q, b), r) == ref.trim(a) and len(r) < len(b)
    assert ref.derivative(a) == [0, 6, 6]
    assert ref.derivative([5]) == []
    assert ref.monic([2, 4]) == [Fraction(1, 2), 1]
    assert ref.reverse([1, 2, 3]) == [3, 2, 1]
    assert ref.gcd(ref.mul([-1, 1], [2, 1]), ref.mul([-1, 1], [3, 1])) == [-1, 1]
    assert ref.at(a, Fraction(1, 2)) == Fraction(3, 2)
