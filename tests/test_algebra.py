"""Exact scalar/polynomial/matrix layer: arithmetic identities, Sturm
root counting, unit-circle counts, and eigenvalue classification."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zetafix import (AmbiguousClassification, Polynomial, RationalMatrix,
                     as_rational, char_poly, classify_eigenvalues,
                     count_real_roots, count_unit_modulus_roots, det,
                     exterior_power, has_root_of_unity_eigenvalue,
                     max_root_of_unity_order, poly_gcd,
                     squarefree_decomposition)


def _rand_poly(rng, deg):
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                       for _ in range(deg)] + [1])


def _rand_matrix(rng, dim, lo=-9, hi=9):
    return RationalMatrix([[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                            for _ in range(dim)] for _ in range(dim)])


def _from_roots(roots):
    p = Polynomial([1])
    for r in roots:
        p = p * Polynomial([-Fraction(r), 1])
    return p


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def _poly_at_matrix(p, m):
    acc = RationalMatrix([[Fraction(0)] * m.dim for _ in range(m.dim)])
    ident = RationalMatrix.identity(m.dim)
    for c in reversed(p.coeffs):
        acc = acc @ m + ident.scale(c)
    return acc


class TestRationals:
    def test_as_rational_accepts_int_string_fraction(self):
        assert as_rational(3) == 3
        assert as_rational("5/7") == Fraction(5, 7)
        assert as_rational(Fraction(-2, 4)) == Fraction(-1, 2)

    def test_as_rational_rejects_float(self):
        with pytest.raises(TypeError):
            as_rational(0.5)


class TestPolynomial:
    def test_trailing_zeros_stripped_and_degree(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert Polynomial().degree == -1
        assert Polynomial().is_zero

    def test_ring_identities(self):
        rng = random.Random(1)
        for _ in range(25):
            a = _rand_poly(rng, rng.randint(0, 5))
            b = _rand_poly(rng, rng.randint(1, 4))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree
            assert (a + b) - b == a
            assert a * b == b * a

    def test_difference_of_squares(self):
        one_plus = Polynomial([1, 1])
        one_minus = Polynomial([1, -1])
        assert one_plus * one_minus == Polynomial([1, 0, -1])

    def test_evaluation_and_derivative(self):
        p = Polynomial([3, 0, 2])     # 3 + 2z^2
        assert p(Fraction(1, 2)) == Fraction(7, 2)
        assert p.derivative() == Polynomial([0, 4])

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            Polynomial([1, 1]).exact_div(Polynomial([0, 1]))

    def test_compose_scale_and_reverse(self):
        p = Polynomial([1, 2, 3])
        assert p.compose_scale(-2) == Polynomial([1, -4, 12])
        assert p.reversed_poly() == Polynomial([3, 2, 1])
        assert p.monic().leading() == 1

    def test_gcd_common_factor(self):
        a = _from_roots([1, -2])
        b = _from_roots([1, 3])
        g = poly_gcd(a, b).monic()
        assert g == _from_roots([1])


class TestSquarefree:
    def test_known_multiplicities(self):
        p = _from_roots([1]) * _from_roots([1]) * _from_roots([-2])
        parts = squarefree_decomposition(p)
        rebuilt = Polynomial([1])
        for q, k in parts:
            for _ in range(k):
                rebuilt = rebuilt * q
        assert rebuilt.monic() == p.monic()
        assert sorted(k for q, k in parts if q.degree > 0) == [1, 2]

    def test_random_squarefree_parts_are_coprime_with_derivative(self):
        rng = random.Random(5)
        for _ in range(10):
            base = _rand_poly(rng, rng.randint(1, 3))
            p = base * base * _rand_poly(rng, rng.randint(1, 2))
            for q, _k in squarefree_decomposition(p):
                if q.degree >= 1:
                    assert poly_gcd(q, q.derivative()).degree == 0


class TestSturm:
    def test_counts_match_construction(self):
        p = _from_roots([Fraction(-5, 2), -1, 0, Fraction(1, 3), 2])
        assert count_real_roots(p, -10, 10) == 5
        assert count_real_roots(p, 0, 10) == 2          # 1/3 and 2; 0 excluded
        assert count_real_roots(p, -2, Fraction(1, 2)) == 3

    def test_counts_match_numpy_on_distinct_integer_roots(self):
        rng = random.Random(9)
        for _ in range(15):
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            p = _from_roots(roots)
            lo, hi = Fraction(-13, 2), Fraction(13, 2)
            assert count_real_roots(p, lo, hi) == len(roots)


class TestUnitCircleCount:
    @pytest.mark.parametrize("coeffs,expected", [
        ([-1, 1], 1),                    # z - 1
        ([1, 1], 1),                     # z + 1
        ([1, 0, 1], 2),                  # z^2 + 1
        ([1, 1, 1], 2),                  # z^2 + z + 1
        ([1, -3, 1], 0),                 # reciprocal but off-circle
        ([1, Fraction(-5, 2), 1], 0),    # roots 2 and 1/2
        ([1, -2, 1], 2),                 # (z-1)^2
        ([2, 0, 2], 2),                  # non-monic scaling
    ])
    def test_catalog(self, coeffs, expected):
        assert count_unit_modulus_roots(Polynomial(coeffs)) == expected

    def test_products_add(self):
        on = Polynomial([1, 1, 1])           # two roots on the circle
        off = _from_roots([2, Fraction(-1, 3)])
        assert count_unit_modulus_roots(on * off) == 2
        assert count_unit_modulus_roots(on * on * off) == 4

    def test_mixed_with_reciprocal_noise(self):
        p = Polynomial([1, Fraction(-5, 2), 1]) * Polynomial([1, 0, 1])
        assert count_unit_modulus_roots(p) == 2


class TestMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]])

    def test_det_against_cofactor_and_numpy(self):
        rng = random.Random(3)
        for _ in range(20):
            m = _rand_matrix(rng, rng.randint(1, 4))
            exact = det(m)
            assert exact == _cofactor_det([list(r) for r in m.rows])
            assert abs(float(exact) - np.linalg.det(m.to_float())) < 1e-6

    def test_det_multiplicative(self):
        rng = random.Random(4)
        for _ in range(10):
            a = _rand_matrix(rng, 3)
            b = _rand_matrix(rng, 3)
            assert det(a @ b) == det(a) * det(b)

    def test_inverse_and_negative_powers(self):
        m = RationalMatrix([[2, 1], [1, 1]])
        assert (m @ m.inverse()).is_identity
        assert m.power(-2) == m.inverse() @ m.inverse()
        assert m.power(0).is_identity
        with pytest.raises(ZeroDivisionError):
            RationalMatrix([[1, 1], [1, 1]]).inverse()

    def test_nullspace_exact(self):
        m = RationalMatrix([[1, 2], [2, 4]])
        basis = m.nullspace()
        assert len(basis) == 1
        v = basis[0]
        assert all(sum(m.rows[i][j] * v[j] for j in range(2)) == 0
                   for i in range(2))
        assert RationalMatrix.identity(3).nullspace() == []

    def test_char_poly_cayley_hamilton(self):
        rng = random.Random(6)
        for _ in range(12):
            m = _rand_matrix(rng, rng.randint(1, 4), -4, 4)
            p = char_poly(m)
            assert p.degree == m.dim
            assert p.leading() == 1
            zero = _poly_at_matrix(p, m)
            assert all(x == 0 for row in zero.rows for x in row)

    def test_char_poly_constant_term_is_signed_det(self):
        rng = random.Random(7)
        for _ in range(10):
            m = _rand_matrix(rng, 3, -4, 4)
            p = char_poly(m)
            assert p(Fraction(0)) == (-1) ** m.dim * det(m)


class TestExteriorPower:
    def test_edge_indices(self):
        m = RationalMatrix([[2, 1], [1, 1]])
        assert exterior_power(m, 1) == m
        assert exterior_power(m, 0) == RationalMatrix([[1]])
        assert exterior_power(m, 2) == RationalMatrix([[det(m)]])
        with pytest.raises(ValueError):
            exterior_power(m, 3)

    def test_multiplicative(self):
        rng = random.Random(8)
        for _ in range(8):
            dim = rng.randint(2, 4)
            a = _rand_matrix(rng, dim, -3, 3)
            b = _rand_matrix(rng, dim, -3, 3)
            for i in range(dim + 1):
                assert exterior_power(a @ b, i) == \
                    exterior_power(a, i) @ exterior_power(b, i)

    def test_alternating_trace_identity(self):
        # det(I - M) = sum_i (-1)^i tr Lambda^i M
        rng = random.Random(2)
        for _ in range(10):
            dim = rng.randint(1, 4)
            m = _rand_matrix(rng, dim, -3, 3)
            lhs = det(RationalMatrix.identity(dim) - m)
            rhs = sum((-1) ** i * exterior_power(m, i).trace()
                      for i in range(dim + 1))
            assert lhs == rhs


class TestClassification:
    def test_mixed_spectrum(self):
        cls = classify_eigenvalues(RationalMatrix([[-1, 0], [0, 2]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (1, 0, 1)
        assert abs(cls.expanding_log_product - math.log(2)) < 1e-12
        assert cls.expanding_count == 1

    def test_two_contracting_negatives(self):
        d = RationalMatrix([[-2, 0, 0], [0, -4, -1], [0, 6, 2]])
        cls = classify_eigenvalues(d)
        assert (cls.p, cls.n, cls.unit_modulus_count) == (0, 2, 0)
        assert abs(math.exp(cls.expanding_log_product)
                   - (2 + 2 * math.sqrt(3))) < 1e-9

    def test_hyperbolic(self):
        cls = classify_eigenvalues(RationalMatrix([[2, 1], [1, 1]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (1, 0, 0)
        golden = (3 + math.sqrt(5)) / 2
        assert abs(math.exp(cls.expanding_log_product) - golden) < 1e-9

    def test_rotation_is_all_unit(self):
        cls = classify_eigenvalues(RationalMatrix([[0, -1], [1, 0]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (0, 0, 2)
        assert cls.expanding_log_product == 0.0

    def test_complex_expanding_pair(self):
        cls = classify_eigenvalues(RationalMatrix([[0, -2], [2, 0]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (0, 0, 0)
        assert cls.expanding_count == 2
        assert abs(cls.expanding_log_product - 2 * math.log(2)) < 1e-12

    def test_eigenvalues_at_exactly_plus_minus_one_not_counted(self):
        cls = classify_eigenvalues(
            RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 3]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (1, 0, 2)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            classify_eigenvalues(RationalMatrix([[2]]), tol=2.0)


def _companion(p):
    n = p.degree
    return RationalMatrix([[int(i == j + 1) for j in range(n - 1)]
                           + [-p.coeffs[i]] for i in range(n)])


def _cyclotomic_companions():
    """Companion matrices of the products of at most two of Phi_1..Phi_12
    and four non-cyclotomic polynomials, of degree at most 6, each with
    its polynomial and whether a factor is cyclotomic."""
    cyclo = {}
    for k in range(1, 13):
        p = Polynomial([-1] + [0] * (k - 1) + [1])
        for d in range(1, k):
            if k % d == 0:
                p = p.exact_div(cyclo[d])
        cyclo[k] = p
    others = [Polynomial([-2, 1]), Polynomial([3, 1]),
              Polynomial([1, -3, 1]), Polynomial([2, 1, 1])]
    pool = list(cyclo.values()) + others
    for r in (1, 2):
        for factors in itertools.combinations_with_replacement(pool, r):
            p = math.prod(factors, start=Polynomial.one())
            if p.degree <= 6:
                yield (_companion(p), p,
                       any(f in cyclo.values() for f in factors))


def _random_matrices():
    """60 seeded integer matrices of dimension 1 to 4, entries in -2..2."""
    rng = random.Random(23)
    for _ in range(60):
        dim = rng.randint(1, 4)
        yield RationalMatrix([[rng.randint(-2, 2) for _ in range(dim)]
                              for _ in range(dim)])


class TestRootOfUnity:
    @pytest.mark.parametrize("dim,expected", [(1, 2), (2, 6), (3, 6), (4, 12)])
    def test_max_order(self, dim, expected):
        assert max_root_of_unity_order(dim) == expected

    def test_detection(self):
        assert has_root_of_unity_eigenvalue(RationalMatrix.identity(2))
        assert has_root_of_unity_eigenvalue(RationalMatrix([[-1, 0], [0, 2]]))
        assert has_root_of_unity_eigenvalue(RationalMatrix([[0, -1], [1, 0]]))
        assert not has_root_of_unity_eigenvalue(RationalMatrix([[2, 1], [1, 1]]))
        assert not has_root_of_unity_eigenvalue(RationalMatrix([[2, 0], [0, 3]]))

    def test_fifth_roots_in_dimension_four(self):
        comp = RationalMatrix([[0, 0, 0, -1],
                               [1, 0, 0, -1],
                               [0, 1, 0, -1],
                               [0, 0, 1, -1]])
        assert has_root_of_unity_eigenvalue(comp)

    @staticmethod
    def _by_gcd(m):
        # the definition: gcd(char_poly, z^k - 1) is nontrivial for some k
        p = char_poly(m)
        return any(poly_gcd(p, Polynomial([-1] + [0] * (k - 1) + [1])).degree > 0
                   for k in range(1, max_root_of_unity_order(m.dim) + 1))

    def test_cyclotomic_test_matches_gcd_definition(self):
        seen = 0
        for m, p, cyclotomic in _cyclotomic_companions():
            assert char_poly(m) == p
            assert has_root_of_unity_eigenvalue(m) == self._by_gcd(m)
            assert has_root_of_unity_eigenvalue(m) == cyclotomic
            seen += 1
        assert seen == 96

    def test_cyclotomic_test_on_random_matrices(self):
        found = 0
        for m in _random_matrices():
            assert has_root_of_unity_eigenvalue(m) == self._by_gcd(m)
            found += has_root_of_unity_eigenvalue(m)
        assert 0 < found < 60

    @pytest.mark.parametrize("matrices, count, with_one", [
        pytest.param(lambda: [m for m, _, _ in _cyclotomic_companions()],
                     96, 14, id="cyclotomic"),
        pytest.param(_random_matrices, 60, 9, id="random"),
    ])
    def test_classification_reads_char_poly_exactly(self, matrices, count,
                                                    with_one):
        ms = list(matrices())
        for m in ms:
            cls = classify_eigenvalues(m)
            assert cls.one_in_spectrum == (char_poly(m)(1) == 0)
            assert cls.unit_modulus_count == \
                count_unit_modulus_roots(char_poly(m))
        assert len(ms) == count
        assert sum(classify_eigenvalues(m).one_in_spectrum
                   for m in ms) == with_one
