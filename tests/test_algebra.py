"""Exact scalar/polynomial/matrix layer: arithmetic identities, Sturm
root counting, unit-circle counts, and eigenvalue classification."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from zetafix import algebra
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

    def test_rejected_value_echo_is_capped(self):
        entry = ["1"] * 10000
        with pytest.raises(TypeError) as err:
            RationalMatrix([[entry]])
        message = str(err.value)
        assert len(message) < 200
        assert message.startswith("cannot interpret ['1', '1',")
        assert f"({len(str(entry))} characters)" in message
        with pytest.raises(TypeError, match=r"^cannot interpret 0\.5 as"):
            as_rational(0.5)


class TestCopyAndPickle:
    """Immutable values rebuild through their constructors."""

    @pytest.mark.parametrize("value", [RationalMatrix([[1, "2/3"], [3, 4]]),
                                       Polynomial([1, "-1/2", 3]),
                                       Polynomial([])])
    def test_round_trips(self, value):
        hash(value)
        for other in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert other == value and hash(other) == hash(value)
            assert type(other) is type(value)
            with pytest.raises(AttributeError):
                other.dim = 3


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

    def test_equal_matrices_hash_equal(self):
        rng = random.Random(8)
        for _ in range(10):
            m = _rand_matrix(rng, rng.randint(1, 4))
            same = RationalMatrix([[str(x) for x in r] for r in m.rows])
            assert same == m and same is not m
            assert hash(same) == hash(m) == hash(m) == hash(m.rows)
            assert {m: 1}[same] == 1
        a, b = RationalMatrix([[1, 2], [3, 4]]), RationalMatrix([[1, 2], [3, 5]])
        assert a != b and len({a, b}) == 2
        with pytest.raises(AttributeError):
            a._hash = 0

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


def _char_poly_by_det(m):
    """det(zI - m) at dim + 1 rational points, which fix a polynomial of
    degree dim."""
    ident = RationalMatrix.identity(m.dim)
    points = [Fraction(2 * k - m.dim, 3) for k in range(m.dim + 1)]
    return points, [det(ident.scale(z) - m) for z in points]


def _scalar_plus_nilpotent(rng, dim):
    """c*I + N with N strictly upper triangular, conjugated by a unimodular
    integer matrix so that the nilpotent part is not triangular."""
    c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    m = RationalMatrix([[c if i == j else
                         (Fraction(rng.randint(-3, 3)) if j > i else 0)
                         for j in range(dim)] for i in range(dim)])
    u = RationalMatrix.identity(dim)
    for _ in range(dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        e = [[int(r == s) + (rng.randint(-2, 2) if (r, s) == (i, j) else 0)
              for s in range(dim)] for r in range(dim)]
        u = u @ RationalMatrix(e)
    return c, u @ m @ u.inverse()


class TestCharPolyByValue:
    # Cayley-Hamilton holds for every annihilating monic polynomial of
    # degree dim (for c*I, (z-c)(z-d)^(dim-1) too); the values of
    # det(zI - M) at dim + 1 points fix the characteristic polynomial.

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_seeded_rational_matrices(self, dim):
        rng = random.Random(100 + dim)
        for _ in range(4):
            m = RationalMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(dim)] for _ in range(dim)])
            points, values = _char_poly_by_det(m)
            p = char_poly(m)
            assert p.degree == dim
            assert [p(z) for z in points] == values

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_scalar_plus_nilpotent(self, dim):
        rng = random.Random(200 + dim)
        for _ in range(4):
            c, m = _scalar_plus_nilpotent(rng, dim)
            points, values = _char_poly_by_det(m)
            assert [char_poly(m)(z) for z in points] == values
            assert char_poly(m) == _from_roots([c] * dim)

    def test_scalar_matrix(self):
        c = Fraction(-3, 2)
        m = RationalMatrix.identity(5).scale(c)
        points, values = _char_poly_by_det(m)
        assert [char_poly(m)(z) for z in points] == values
        assert char_poly(m) == _from_roots([c] * 5)


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


# --------------------------------------------------------------------------
# the integer kernels against the Fraction algorithms they replaced
# --------------------------------------------------------------------------


def _ref_gcd(a, b):
    """Monic gcd by the Fraction Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def _ref_squarefree(p):
    """Yun's algorithm on monic Fraction polynomials."""
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    g = _ref_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    out = []
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        s = _ref_gcd(c, d)
        if s.degree > 0:
            out.append((s, i))
        c2 = c.exact_div(s) if s.degree > 0 else c
        d = (d.exact_div(s) if s.degree > 0 else d) - c2.derivative()
        c = c2
        i += 1
    return out


def _ref_sign_at(q, x):
    sign = (q.leading() > 0) - (q.leading() < 0)
    if x is algebra._POS_INF:
        return sign
    if x is algebra._NEG_INF:
        return sign * (-1) ** q.degree
    v = q(x)
    return (v > 0) - (v < 0)


def _ref_count_real_roots(p, lo, hi):
    """Sturm's theorem on the Fraction chain p, p', -rem, ..."""
    if p.degree < 1:
        return 0
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        chain.append(-rem)

    def variations(x):
        signs = [s for s in (_ref_sign_at(q, x) for q in chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def _rand_rational_poly(rng, deg):
    """Degree deg, rational coefficients, leading coefficient of either
    sign and rarely 1."""
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(deg)] + [lead])


def _schoolbook(a, b):
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


_ENDPOINTS = [algebra._NEG_INF, Fraction(-7, 3), -2, Fraction(-1), 0,
              Fraction(1, 2), 1, Fraction(5, 2), algebra._POS_INF]


class TestIntegerKernels:
    def test_product_matches_schoolbook(self):
        rng = random.Random(41)
        for _ in range(60):
            a = _rand_rational_poly(rng, rng.randint(0, 6))
            b = _rand_rational_poly(rng, rng.randint(0, 6))
            assert a * b == _schoolbook(a, b)
        assert Polynomial() * a == Polynomial() == a * Polynomial()

    def test_matrix_product_matches_schoolbook(self):
        rng = random.Random(42)
        for dim in (1, 2, 3, 4):
            for _ in range(5):
                a = _rand_matrix(rng, dim)
                b = RationalMatrix([[Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 7))
                                     for _ in range(dim)] for _ in range(dim)])
                cols = list(zip(*b.rows))
                expected = [[sum((x * y for x, y in zip(row, col)), Fraction(0))
                             for col in cols] for row in a.rows]
                product = a @ b
                assert product.rows == tuple(map(tuple, expected))
                assert all(type(x) is Fraction
                           for row in product.rows for x in row)

    def test_gcd_matches_euclid(self):
        rng = random.Random(43)
        for _ in range(60):
            common = _rand_rational_poly(rng, rng.randint(0, 3))
            a = common * _rand_rational_poly(rng, rng.randint(0, 4))
            b = common * _rand_rational_poly(rng, rng.randint(0, 4))
            g = poly_gcd(a, b)
            assert g == _ref_gcd(a, b)
            assert g.degree >= common.degree
        zero = Polynomial()
        assert poly_gcd(zero, zero) == _ref_gcd(zero, zero) == zero
        assert poly_gcd(zero, a) == _ref_gcd(zero, a) == a.monic()

    def test_squarefree_matches_yun_on_fractions(self):
        rng = random.Random(44)
        for _ in range(40):
            p = _rand_rational_poly(rng, 0)
            for k in (1, 2, 3):
                for _ in range(rng.randint(0, 2)):
                    f = _rand_rational_poly(rng, rng.randint(1, 2))
                    p = math.prod([f] * k, start=p)
            assert squarefree_decomposition(p) == _ref_squarefree(p)

    def test_sturm_counts_match_fraction_chain(self):
        rng = random.Random(45)
        for _ in range(60):
            p = _rand_rational_poly(rng, rng.randint(1, 7))
            for s, _ in squarefree_decomposition(p):
                ends = [x for x in _ENDPOINTS
                        if x in (algebra._NEG_INF, algebra._POS_INF)
                        or s(x) != 0]
                for lo, hi in itertools.combinations(ends, 2):
                    assert count_real_roots(s, lo, hi) == \
                        _ref_count_real_roots(s, lo, hi)

    def test_sturm_chain_member_with_negative_leading_coefficient(self):
        # -(z^3 - 3z + 1) has three real roots near -1.88, 0.35 and 1.53.
        # Its derivative -3z^2 + 3 leads with -3, and the first
        # elimination step of the remainder already clears z^2, so a
        # remainder scaled by lc = -3 instead of |lc| = 3 flips the sign
        # of the next chain member.
        p = Polynomial([-1, 3, 0, -1])
        assert p.derivative().leading() < 0
        cases = [(algebra._NEG_INF, algebra._POS_INF, 3), (-10, 10, 3),
                 (0, 1, 1), (Fraction(-2), Fraction(1, 2), 2),
                 (1, algebra._POS_INF, 1)]
        for lo, hi, expected in cases:
            assert _ref_count_real_roots(p, lo, hi) == expected
            assert count_real_roots(p, lo, hi) == expected
