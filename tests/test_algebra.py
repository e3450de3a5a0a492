"""Exact scalar/polynomial/matrix layer: arithmetic identities, Sturm
root counting, unit-circle counts, and eigenvalue classification."""

import ast
import copy
import importlib
import inspect
import itertools
import math
import pickle
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest

import _fraction_ref as ref
import zetafix
from _corpus import product_instances, random_instances
from conftest import scalar_matrix as _scalar
from zetafix import algebra
from zetafix import (PlusSplit, Polynomial, RationalMatrix, as_rational,
                     char_poly, classify_eigenvalues, compute_plus_split,
                     det, exterior_power, has_root_of_unity_eigenvalue,
                     max_root_of_unity_order, poly_gcd)


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


def _int_poly(p):
    """The Fraction polynomial p as a primitive integer coefficient list,
    the form the integer kernels take."""
    return algebra._primitive(list(p.ints))


def _squarefree(p):
    """Yun's algorithm on integers, its factors made monic Polynomials."""
    return [(Polynomial(ref.monic(s)), k)
            for s, k in algebra._int_squarefree(_int_poly(p))]


def _sturm_count(p, lo, hi):
    """Distinct real roots of squarefree p in (lo, hi], from the integer
    Sturm chain read at integer points or the infinities."""
    chain = algebra._sturm_chain(_int_poly(p))
    return algebra._variations(chain, lo) - algebra._variations(chain, hi)


def _unit_circle_count(p):
    """Roots of p on the unit circle, with multiplicity: the roots 1 and
    -1 divided out and counted, then the rest counted by the kernel."""
    core, m_one, m_minus = algebra._strip_trivial_roots(
        list(p.ints))
    return m_one + m_minus + algebra._unit_circle_roots(core)


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
    acc = _scalar(m.dim, 0)
    for c in reversed(p.coeffs):
        acc = acc @ m + _scalar(m.dim, c)
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
            assert a * b == b * a
            assert list((a * b).coeffs) == ref.mul(a.coeffs, b.coeffs)
            assert (a * b).exact_div(b) == a

    def test_difference_of_squares(self):
        one_plus = Polynomial([1, 1])
        one_minus = Polynomial([1, -1])
        assert one_plus * one_minus == Polynomial([1, 0, -1])

    def test_evaluation_and_derivative(self):
        p = Polynomial([3, 0, 2])     # 3 + 2z^2
        assert p(Fraction(1, 2)) == Fraction(7, 2)
        assert algebra._int_derivative(list(p.ints)) == [0, 4]

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            Polynomial([1, 1]).exact_div(Polynomial([0, 1]))

    def test_compose_scale_and_reverse(self):
        p = Polynomial([1, 2, 3])
        assert p.compose_scale(-2) == Polynomial([1, -4, 12])
        assert p.compose_scale(Fraction(1, 2)) == Polynomial([1, 1, Fraction(3, 4)])

    def test_gcd_common_factor(self):
        a = _from_roots([1, -2])
        b = _from_roots([1, 3])
        assert poly_gcd(a, b) == _from_roots([1])


class TestPolynomialIntegerForm:
    """A Polynomial is stored as ints / den over the least positive
    common denominator; the Fraction coefficients are only a view."""

    SPELLINGS = [
        # 1/2 - 3z + (2/3)z^2
        ([Fraction(1, 2), Fraction(-3), Fraction(2, 3)],
         ["2/4", "-6/2", "4/6"], ([3, -18, 4], 6), ([-6, 36, -8, 0], -12)),
        # 1 - 3z + 2z^2
        ([1, -3, 2], ["1", "-3/1", "4/2"], ([2, -6, 4], 2), ([-1, 3, -2], -1)),
    ]

    @pytest.mark.parametrize("coeffs, strings, form, unreduced", SPELLINGS)
    def test_spellings_share_one_form(self, coeffs, strings, form, unreduced):
        fractions = [Fraction(c) for c in coeffs]
        made = [Polynomial(coeffs), Polynomial(fractions), Polynomial(strings),
                Polynomial._from_ints(*form), Polynomial._from_ints(*unreduced)]
        ints, den = form
        g = math.gcd(den, *ints)
        for p in made:
            assert p == made[0] and hash(p) == hash(made[0])
            assert (p.ints, p.den) == (tuple(x // g for x in ints), den // g)
            assert p.coeffs == tuple(fractions)
            assert all(type(x) is Fraction for x in p.coeffs)

    @pytest.mark.parametrize("p", [Polynomial([Fraction(1, 2), -3, "2/3"]),
                                   Polynomial._from_ints([4, 0, -2], 1),
                                   Polynomial()])
    def test_copies_keep_equality_and_hash(self, p):
        for other in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert other == p and hash(other) == hash(p)
            assert (other.ints, other.den) == (p.ints, p.den)

    @pytest.mark.parametrize("p", [Polynomial._from_ints([1, 3, 0, -2]),
                                   Polynomial._from_ints([3, -1, 4], 6)])
    def test_exact_readers_return_no_float(self, p):
        b = Polynomial._from_ints([2, -3])
        values = [p(2), p(-1), p(0), p * b, (p * b).exact_div(b),
                  p.compose_scale(Fraction(-1, 3))]
        values = [v for x in values for v in (x.coeffs if isinstance(x, Polynomial)
                                               else [x])]
        assert values and not any(isinstance(v, float) for v in values)
        assert p(2) == sum(c * 2 ** i for i, c in enumerate(p.coeffs))
        assert (p * b).exact_div(b) == p

    def test_division_of_integer_forms(self):
        a, b = Polynomial._from_ints([2, 1, -1], 3), Polynomial._from_ints([-4, 4], 5)
        assert (a * b).exact_div(b) == a and (a * b).exact_div(a) == b
        assert (a * b).exact_div(b * Fraction(-7, 2)) == a * Fraction(-2, 7)
        with pytest.raises(ArithmeticError, match="not exact"):
            Polynomial(ref.add((a * b).coeffs, [1])).exact_div(b)
        with pytest.raises(ZeroDivisionError):
            a.exact_div(Polynomial())
        assert Polynomial().exact_div(b).is_zero


class TestSquarefree:
    def test_known_multiplicities(self):
        p = _from_roots([1]) * _from_roots([1]) * _from_roots([-2])
        parts = _squarefree(p)
        rebuilt = Polynomial([1])
        for q, k in parts:
            for _ in range(k):
                rebuilt = rebuilt * q
        assert ref.monic(rebuilt.coeffs) == ref.monic(p.coeffs)
        assert sorted(k for q, k in parts if q.degree > 0) == [1, 2]
        assert parts == _ref_squarefree(p)

    def test_random_squarefree_parts_are_coprime_with_derivative(self):
        rng = random.Random(5)
        for _ in range(10):
            base = _rand_poly(rng, rng.randint(1, 3))
            p = base * base * _rand_poly(rng, rng.randint(1, 2))
            parts = _squarefree(p)
            assert parts == _ref_squarefree(p)
            for q, _k in parts:
                if q.degree >= 1:
                    assert ref.gcd(q.coeffs, ref.derivative(q.coeffs)) == [1]


class TestSturm:
    def test_counts_match_construction(self):
        p = _from_roots([Fraction(-5, 2), -1, 0, Fraction(1, 3), 2])
        for lo, hi, expected in [(-10, 10, 5),
                                 (0, 10, 2),      # 1/3 and 2; 0 excluded
                                 (-2, 1, 3),      # -1, 0 and 1/3
                                 (algebra._NEG_INF, -1, 2),
                                 (2, algebra._POS_INF, 0)]:
            assert _sturm_count(p, lo, hi) == expected
            assert _ref_count_real_roots(p, lo, hi) == expected

    def test_counts_match_numpy_on_distinct_integer_roots(self):
        rng = random.Random(9)
        for _ in range(15):
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            p = _from_roots(roots)
            assert _sturm_count(p, -7, 7) == len(roots)
            assert _sturm_count(p, algebra._NEG_INF, algebra._POS_INF) == \
                len(roots)


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
        p = Polynomial(coeffs)
        assert _unit_circle_count(p) == expected
        assert _ref_count_unit_modulus_roots(p) == expected

    def test_products_add(self):
        on = Polynomial([1, 1, 1])           # two roots on the circle
        off = _from_roots([2, Fraction(-1, 3)])
        assert _unit_circle_count(on * off) == 2
        assert _unit_circle_count(on * on * off) == 4

    def test_mixed_with_reciprocal_noise(self):
        p = Polynomial([1, Fraction(-5, 2), 1]) * Polynomial([1, 0, 1])
        assert _unit_circle_count(p) == 2


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
            floats = np.array([[float(x) for x in r] for r in m.rows])
            assert abs(float(exact) - np.linalg.det(floats)) < 1e-6

    def test_det_multiplicative(self):
        rng = random.Random(4)
        for _ in range(10):
            a = _rand_matrix(rng, 3)
            b = _rand_matrix(rng, 3)
            assert det(a @ b) == det(a) * det(b)

    def test_equal_matrices_hash_equal(self):
        # one matrix built from Fraction rows, from unreduced 'p/q'
        # strings and from unreduced integers over a denominator
        rng = random.Random(8)
        for _ in range(10):
            m = _rand_matrix(rng, rng.randint(1, 4))
            k = rng.randint(2, 5)
            den = k * math.lcm(*(x.denominator for r in m.rows for x in r))
            ints = [[int(x * den) for x in r] for r in m.rows]
            built = [
                RationalMatrix([[Fraction(x) for x in r] for r in m.rows]),
                RationalMatrix([[f"{k * x.numerator}/{k * x.denominator}"
                                 for x in r] for r in m.rows]),
                RationalMatrix._from_ints(ints, den),
            ]
            for same in built:
                assert same == m and same is not m
                assert hash(same) == hash(m) == hash(m)
                assert same.rows == m.rows
                assert {m: 1}[same] == 1
        a, b = RationalMatrix([[1, 2], [3, 4]]), RationalMatrix([[1, 2], [3, 5]])
        assert a != b and len({a, b}) == 2
        with pytest.raises(AttributeError):
            a._hash = 0

    def test_inverse_and_negative_powers(self):
        m = RationalMatrix([[2, 1], [1, 1]])
        assert m @ m.inverse() == RationalMatrix.identity(2)
        assert m.power(-2) == m.inverse() @ m.inverse()
        assert m.power(0) == RationalMatrix.identity(2)
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
            assert p.coeffs[-1] == 1
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
    points = [Fraction(2 * k - m.dim, 3) for k in range(m.dim + 1)]
    return points, [det(_scalar(m.dim, z) - m) for z in points]


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
        m = _scalar(5, c)
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
            rhs = sum((-1) ** i * ref.trace(exterior_power(m, i).rows)
                      for i in range(dim + 1))
            assert lhs == rhs


class TestClassification:
    def test_mixed_spectrum(self):
        cls = classify_eigenvalues(RationalMatrix([[-1, 0], [0, 2]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (1, 0, 1)
        assert abs(cls.expanding_log_product - math.log(2)) < 1e-12

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
        assert abs(cls.expanding_log_product - 2 * math.log(2)) < 1e-12

    def test_eigenvalues_at_exactly_plus_minus_one_not_counted(self):
        cls = classify_eigenvalues(
            RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 3]]))
        assert (cls.p, cls.n, cls.unit_modulus_count) == (1, 0, 2)


# Blocks of known spectrum: (block, p, n, unit-circle count, log of the
# expanding modulus product, whether 1 is an eigenvalue).
def _jordan_block(size, x):
    return [[x if i == j else int(j == i + 1) for j in range(size)]
            for i in range(size)]


def _random_block(rng):
    kind = rng.choice(["jordan+1", "jordan-1", "rotation", "real", "pair"])
    if kind in ("jordan+1", "jordan-1"):
        size = rng.randint(1, 4)
        return (_jordan_block(size, 1 if kind == "jordan+1" else -1),
                0, 0, size, 0.0, kind == "jordan+1")
    if kind == "rotation":
        # orders 4, 3 and 6, and a rotation of infinite order
        block = rng.choice([[[0, -1], [1, 0]], [[0, -1], [1, -1]],
                            [[1, -1], [1, 0]],
                            [[Fraction(3, 5), Fraction(-4, 5)],
                             [Fraction(4, 5), Fraction(3, 5)]]])
        return block, 0, 0, 2, 0.0, False
    if kind == "real":
        size = rng.randint(1, 2)
        x = rng.choice([2, -2, 3, -3, Fraction(5, 4), Fraction(-3, 2),
                        Fraction(1, 2), Fraction(-4, 5), 0])
        out = abs(x) > 1
        return (_jordan_block(size, x), size * (out and x > 0),
                size * (out and x < 0), 0,
                size * math.log(abs(x)) if out else 0.0, False)
    # a complex pair a +- bi, off the circle
    a, b = rng.choice([(1, 1), (2, 1), (1, -2), (Fraction(1, 2), Fraction(1, 3)),
                       (Fraction(-3, 4), Fraction(1, 2)), (0, 2)])
    r2 = a * a + b * b
    return ([[a, -b], [b, a]], 0, 0, 0,
            math.log(r2) if r2 > 1 else 0.0, False)


def _block_diagonal(blocks):
    dim = sum(len(b) for b in blocks)
    rows = [[0] * dim for _ in range(dim)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    return RationalMatrix(rows)


def _unimodular(rng, dim):
    """A random integer matrix of determinant 1: a product of
    elementary row operations."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i != j:
            c = rng.choice([-1, 1])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return RationalMatrix(rows)


def _conjugated_block_matrix(rng, max_dim=10):
    """A random conjugate of a block-diagonal matrix of dimension at most
    max_dim, with the classification known from its blocks."""
    drawn, dim = [], 0
    target = rng.randint(1, max_dim)
    while dim < target:
        block = _random_block(rng)
        if dim + len(block[0]) <= max_dim:
            drawn.append(block)
            dim += len(block[0])
    blocks, p, n, unit, log_prod, one = zip(*drawn)
    u = _unimodular(rng, dim)
    return (u @ _block_diagonal(blocks) @ u.inverse(),
            (sum(p), sum(n), sum(unit), any(one)), sum(log_prod))


class TestClassificationOfConjugatedBlocks:
    """The counts are exact whatever the spectrum: repeated eigenvalues
    +-1 in Jordan blocks, rotations, and expanding and contracting real
    and complex eigenvalues, hidden by a unimodular change of basis."""

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_and_log_product(self, seed):
        # The log product comes from np.roots on the characteristic
        # polynomial with its exact roots +-1 divided out, so a cluster of
        # up to 8 of them cannot move a nearby expanding root (see
        # test_crowded_spectrum).
        rng = random.Random(seed)
        for _ in range(50):
            m, counts, log_prod = _conjugated_block_matrix(rng)
            cls = classify_eigenvalues(m)
            assert (cls.p, cls.n, cls.unit_modulus_count,
                    cls.one_in_spectrum) == counts
            assert abs(cls.expanding_log_product - log_prod) < 1e-9

    def test_repeated_unit_blocks(self):
        # three Jordan blocks at 1 and two at -1 beside one expanding root
        blocks = [_jordan_block(2, 1), _jordan_block(2, 1), [[1]],
                  _jordan_block(2, -1), [[-1]], [[3]]]
        u = _unimodular(random.Random(7), 9)
        cls = classify_eigenvalues(u @ _block_diagonal(blocks) @ u.inverse())
        assert (cls.p, cls.n, cls.unit_modulus_count,
                cls.one_in_spectrum) == (1, 0, 8, True)
        assert abs(cls.expanding_log_product - math.log(3)) < 1e-9

    def test_crowded_spectrum(self):
        # two Jordan blocks of size 4 at 1 beside the double root 5/4: the
        # counts stay exact, and since the roots 1 are divided out before
        # rooting, the log product keeps its digits (rooting the whole
        # characteristic polynomial put it off by 7e-7)
        blocks = [[[Fraction(5, 4)]], _jordan_block(4, 1), _jordan_block(4, 1),
                  [[Fraction(5, 4)]]]
        u = _unimodular(random.Random(8), 10)
        cls = classify_eigenvalues(u @ _block_diagonal(blocks) @ u.inverse())
        assert (cls.p, cls.n, cls.unit_modulus_count,
                cls.one_in_spectrum) == (2, 0, 8, True)
        assert abs(cls.expanding_log_product - 2 * math.log(1.25)) < 1e-9


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
                _ref_count_unit_modulus_roots(char_poly(m))
        assert len(ms) == count
        assert sum(classify_eigenvalues(m).one_in_spectrum
                   for m in ms) == with_one


# --------------------------------------------------------------------------
# the integer kernels against the Fraction algorithms they replaced
# --------------------------------------------------------------------------


def _coeffs(p):
    """The Fraction coefficient list of a Polynomial or of a list."""
    return ref.trim(p.coeffs if isinstance(p, Polynomial) else p)


def _ref_gcd(a, b):
    """Monic gcd by the Fraction Euclidean algorithm."""
    return Polynomial(ref.gcd(_coeffs(a), _coeffs(b)))


def _ref_squarefree(p):
    """Yun's algorithm on monic Fraction coefficient lists."""
    p = ref.monic(_coeffs(p))
    if len(p) < 2:
        return []
    dp = ref.derivative(p)
    g = ref.gcd(p, dp)
    if len(g) == 1:
        return [(Polynomial(p), 1)]
    out = []
    c = ref.divmod_(p, g)[0]
    d = ref.sub(ref.divmod_(dp, g)[0], ref.derivative(c))
    i = 1
    while len(c) > 1:
        s = ref.gcd(c, d)
        if len(s) > 1:
            out.append((Polynomial(s), i))
            c, d = ref.divmod_(c, s)[0], ref.divmod_(d, s)[0]
        d = ref.sub(d, ref.derivative(c))
        i += 1
    return out


def _ref_sign_at(q, x):
    sign = (q[-1] > 0) - (q[-1] < 0)
    if x is algebra._POS_INF:
        return sign
    if x is algebra._NEG_INF:
        return sign * (-1) ** (len(q) - 1)
    v = ref.at(q, x)
    return (v > 0) - (v < 0)


def _ref_count_real_roots(p, lo, hi):
    """Sturm's theorem on the Fraction chain p, p', -rem, ..."""
    p = _coeffs(p)
    if len(p) < 2:
        return 0
    chain = [p, ref.derivative(p)]
    while len(chain[-1]) > 1:
        rem = ref.divmod_(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-x for x in rem])

    def variations(x):
        signs = [s for s in (_ref_sign_at(q, x) for q in chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def _ref_strip_root(p, r):
    mult = 0
    while p and ref.at(p, r) == 0:
        p = ref.divmod_(p, [-r, 1])[0]
        mult += 1
    return p, mult


def _ref_strip_trivial_roots(p):
    p, m_one = _ref_strip_root(_coeffs(p), Fraction(1))
    p, m_minus = _ref_strip_root(p, Fraction(-1))
    nz = 0
    while nz < len(p) and p[nz] == 0:
        nz += 1
    return p[nz:], m_one, m_minus


def _ref_trace_polynomial(c):
    k = (len(c) - 1) // 2
    w = [0, 1]
    b_prev, b_cur = [2], w
    t = [c[k]]
    for j in range(1, k + 1):
        t = ref.add(t, [c[k + j] * x for x in b_cur])
        b_prev, b_cur = b_cur, ref.sub(ref.mul(w, b_cur), b_prev)
    return t


def _ref_count_unit_modulus_roots(p):
    """Unit-circle roots with multiplicity, on monic Fraction
    polynomials: roots 1, -1 and 0 divided out, then the Sturm count on
    (-2, 2) of the trace polynomial of gcd(p, reversed p)."""
    p = _coeffs(p)
    if len(p) < 2:
        return 0
    p, m_one, m_minus = _ref_strip_trivial_roots(ref.monic(p))
    total = m_one + m_minus
    if len(p) < 2:
        return total
    c = ref.gcd(p, ref.reverse(p))
    if len(c) == 1:
        return total
    assert c == ref.monic(ref.reverse(c)) and len(c) % 2 == 1
    return total + 2 * sum(
        mult * _ref_count_real_roots(s, Fraction(-2), Fraction(2))
        for s, mult in _ref_squarefree(_ref_trace_polynomial(c)))


def _ref_classify(m):
    """(p, n, unit-circle count, one_in_spectrum, expanding log product)
    on the Fraction characteristic polynomial, with its numeric roots
    from the floats of its monic Fraction coefficients."""
    core, m_one, m_minus = _ref_strip_trivial_roots(char_poly(m))
    unit = m_one + m_minus + _ref_count_unit_modulus_roots(core)
    gt = lt = 0
    for s, mult in _ref_squarefree(core):
        gt += mult * _ref_count_real_roots(s, Fraction(1), algebra._POS_INF)
        lt += mult * _ref_count_real_roots(s, algebra._NEG_INF, Fraction(-1))
    roots = sorted(np.roots([float(c) for c in reversed(core)]),
                   key=lambda r: abs(abs(r) - 1.0))
    log_prod = float(sum(math.log(abs(r)) for r in roots[unit - m_one - m_minus:]
                         if abs(r) > 1.0))
    return gt, lt, unit, m_one > 0, log_prod


def _ref_plus_split(spec, mapping):
    """The plus split with char_poly(A D) per holonomy element and its
    roots -1 divided out in Fractions."""
    d = mapping.linear
    p, n, *_ = _ref_classify(d)

    def odd_below_minus_one(poly):
        q, _ = _ref_strip_root(_coeffs(poly), Fraction(-1))
        return (ref.at(q, Fraction(-1)) > 0) != (len(q) % 2 == 1)

    membership = tuple((l, odd_below_minus_one(char_poly(a @ d)) == (n % 2 == 1))
                       for l, a in spec.holonomy)
    return PlusSplit(membership, not all(i for _, i in membership), p, n)


def _ref_has_root_of_unity(m):
    """The scan the classification replaced: every cyclotomic Phi_k with
    phi(k) <= dim tried against the whole characteristic polynomial."""
    p = list(char_poly(m).ints)
    return any(not algebra._prem(p, algebra._cyclotomic(k))
               for k in range(1, max_root_of_unity_order(m.dim) + 1)
               if algebra._euler_phi(k) <= m.dim)


def _assert_classified_as_reference(m):
    """The classification and the root-of-unity decision read from its
    core against the Fraction route and the full cyclotomic scan;
    returns the decision."""
    cls = classify_eigenvalues(m)
    *counts, log_prod = _ref_classify(m)
    assert (cls.p, cls.n, cls.unit_modulus_count,
            cls.one_in_spectrum) == tuple(counts)
    # bit for bit: numpy gets the same correctly rounded quotients
    assert cls.expanding_log_product.hex() == log_prod.hex()
    root_of_unity = _ref_has_root_of_unity(m)
    assert has_root_of_unity_eigenvalue(m) == root_of_unity
    assert cls.root_of_unity_eigenvalue == root_of_unity
    return root_of_unity


def _rand_rational_poly(rng, deg):
    """Degree deg, rational coefficients, leading coefficient of either
    sign and rarely 1."""
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(deg)] + [lead])


# the integer Sturm chains are read at integers and the infinities only
_ENDPOINTS = [algebra._NEG_INF, -3, -2, -1, 0, 1, 2, 3, algebra._POS_INF]


class TestIntegerKernels:
    def test_product_matches_schoolbook(self):
        rng = random.Random(41)
        for _ in range(60):
            a = _rand_rational_poly(rng, rng.randint(0, 6))
            b = _rand_rational_poly(rng, rng.randint(0, 6))
            assert a * b == Polynomial(ref.mul(a.coeffs, b.coeffs))
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

    @staticmethod
    def _int_block(rng, k, bits):
        """A random k x k integer block with entries up to 2^bits in
        modulus; one in three has a zero leading entry, one in six a
        zero first column, and one in six two equal rows."""
        m = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(k)]
             for _ in range(k)]
        shape = rng.randrange(6)
        if shape < 2:
            m[0][0] = 0
        if shape == 2:
            for row in m:
                row[0] = 0
        if shape == 3 and k > 1:
            m[-1] = list(m[0])
        return m

    def test_int_matmul_matches_inner_products(self):
        rng = random.Random(46)
        for k in (1, 2, 3, 4):
            for bits in (3, 200):
                for _ in range(20):
                    x, y = self._int_block(rng, k, bits), self._int_block(rng, k, bits)
                    cols = list(zip(*y))
                    assert algebra._int_matmul(x, y) == [
                        [sum(a * b for a, b in zip(row, col)) for col in cols]
                        for row in x]

    def test_scaled_det_matches_bareiss(self):
        # det(u x - v y) block by block, against Bareiss on the scaled
        # matrix: scalars of both signs and zero, zero leading pivots,
        # 200-bit entries
        rng = random.Random(47)
        for k in (1, 2, 3, 4):
            for bits in (3, 200):
                for _ in range(40):
                    x, y = self._int_block(rng, k, bits), self._int_block(rng, k, bits)
                    if rng.randrange(3) == 0:
                        # u x - v y has a zero leading entry too
                        x[0][0] = y[0][0] = 0
                    u, v = (rng.choice([0, 1, -1, rng.randint(-2 ** bits, 2 ** bits)])
                            for _ in range(2))
                    scaled = [[u * a - v * b for a, b in zip(rx, ry)]
                              for rx, ry in zip(x, y)]
                    assert algebra._scaled_det(u, [x], v, [y]) == \
                        algebra._bareiss_det([list(r) for r in scaled]) == \
                        _cofactor_det(scaled)

    def test_scaled_det_multiplies_blocks(self):
        rng = random.Random(48)
        for _ in range(40):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            x = [self._int_block(rng, k, 20) for k in sizes]
            y = [self._int_block(rng, k, 20) for k in sizes]
            u, v = rng.randint(-5, 5), rng.randint(-5, 5)
            assert algebra._scaled_det(u, x, v, y) == math.prod(
                algebra._scaled_det(u, [bx], v, [by]) for bx, by in zip(x, y))

    def test_berkowitz_closed_forms_are_signed_minor_sums(self):
        # sizes 1 to 3 are written out: the coefficient of z^(k-j) is
        # (-1)^j times the sum of the principal j x j minors
        rng = random.Random(49)
        for k in (1, 2, 3):
            for bits in (3, 200):
                for _ in range(30):
                    a = self._int_block(rng, k, bits)
                    minors = [sum(det(RationalMatrix([[a[r][c] for c in s] for r in s]))
                                  for s in itertools.combinations(range(k), j))
                              for j in range(1, k + 1)]
                    assert algebra._berkowitz(a) == [1] + [
                        (-1) ** j * m for j, m in enumerate(minors, 1)]

    def test_berkowitz_splits_on_diagonal_blocks(self):
        # sizes 4 to 8: block diagonal, then the same with its indices
        # permuted so that the blocks interleave, diagonal, and dense;
        # det(xI - A) by Bareiss at dim + 1 integer points fixes the
        # monic polynomial of degree dim
        rng = random.Random(50)
        for dim in range(4, 9):
            for shape in ("blocks", "diagonal", "dense"):
                for _ in range(8):
                    sizes = {"blocks": [], "diagonal": [1] * dim,
                             "dense": [dim]}[shape]
                    while sum(sizes) < dim:
                        sizes.append(rng.randint(1, min(3, dim - sum(sizes))))
                    a = [[0] * dim for _ in range(dim)]
                    at = 0
                    for k in sizes:
                        for i, row in enumerate(self._int_block(rng, k, 20)):
                            a[at + i][at:at + k] = row
                        at += k
                    perm = rng.sample(range(dim), dim)
                    for m in (a, [[a[i][j] for j in perm] for i in perm]):
                        assert len(algebra._diagonal_blocks([m], dim)) == len(sizes)
                        poly = algebra._berkowitz(m)
                        assert len(poly) == dim + 1 and poly[0] == 1
                        for x in range(-(dim // 2), dim - dim // 2 + 1):
                            value = 0
                            for c in poly:
                                value = value * x + c
                            assert value == algebra._bareiss_det(
                                [[x * (i == j) - v for j, v in enumerate(row)]
                                 for i, row in enumerate(m)])

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
        assert poly_gcd(zero, a) == _ref_gcd(zero, a) == Polynomial(ref.monic(a.coeffs))

    def test_squarefree_matches_yun_on_fractions(self):
        rng = random.Random(44)
        for _ in range(40):
            p = _rand_rational_poly(rng, 0)
            for k in (1, 2, 3):
                for _ in range(rng.randint(0, 2)):
                    f = _rand_rational_poly(rng, rng.randint(1, 2))
                    p = math.prod([f] * k, start=p)
            assert _squarefree(p) == _ref_squarefree(p)

    def test_sturm_counts_match_fraction_chain(self):
        rng = random.Random(45)
        for _ in range(60):
            p = _rand_rational_poly(rng, rng.randint(1, 7))
            for s, _ in _squarefree(p):
                ends = [x for x in _ENDPOINTS
                        if x in (algebra._NEG_INF, algebra._POS_INF)
                        or s(x) != 0]
                for lo, hi in itertools.combinations(ends, 2):
                    assert _sturm_count(s, lo, hi) == \
                        _ref_count_real_roots(s, lo, hi)

    def test_sturm_chain_member_with_negative_leading_coefficient(self):
        # -(z^3 - 3z + 1) has three real roots near -1.88, 0.35 and 1.53.
        # Its derivative -3z^2 + 3 leads with -3, and the first
        # elimination step of the remainder already clears z^2, so a
        # remainder scaled by lc = -3 instead of |lc| = 3 flips the sign
        # of the next chain member.
        p = Polynomial([-1, 3, 0, -1])
        assert ref.derivative(p.coeffs)[-1] < 0
        cases = [(algebra._NEG_INF, algebra._POS_INF, 3), (-10, 10, 3),
                 (0, 1, 1), (-2, 1, 2), (1, algebra._POS_INF, 1)]
        assert algebra._int_derivative(_int_poly(p))[-1] < 0
        for lo, hi, expected in cases:
            assert _ref_count_real_roots(p, lo, hi) == expected
            assert _sturm_count(p, lo, hi) == expected


class TestIntegerSpectralLayer:
    """The classification and the plus split on integer coefficient
    lists give what the Fraction route gives, the log product included,
    and the root-of-unity decision read from the classification's core
    gives what the full cyclotomic scan gives."""

    def test_rational_matrices(self):
        rng = random.Random(49)
        for _ in range(120):
            dim = rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(dim)] for _ in range(dim)]
            # one entry with a prime denominator that does not cancel
            den = rng.choice([2, 3, 5])
            rows[rng.randrange(dim)][rng.randrange(dim)] = Fraction(
                rng.randint(-3, 3) * den + rng.randint(1, den - 1), den)
            m = RationalMatrix(rows)
            assert any(x.denominator > 1 for row in m.rows for x in row)
            _assert_classified_as_reference(m)

    def test_cyclotomic_companions(self):
        seen = 0
        for m, _, cyclotomic in _cyclotomic_companions():
            assert _assert_classified_as_reference(m) == cyclotomic
            seen += 1
        assert seen == 96

    def test_singular_matrices(self):
        # zero roots leave the core; a cyclotomic factor must still be
        # found beside them, and a nilpotent part alone is no root of unity
        rng = random.Random(52)
        cyclo = [m for m, _, c in _cyclotomic_companions() if c and m.dim <= 4]
        found = 0
        for _ in range(60):
            dim = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            # the last row a combination of the others (zero when dim = 1)
            coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
            rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows))
                        for j in range(dim)]
            m = RationalMatrix(rows)
            assert det(m) == 0
            found += _assert_classified_as_reference(m)
            c = rng.choice(cyclo)
            block = _block_diagonal([_jordan_block(rng.randint(1, 3), 0),
                                     [list(r) for r in c.rows]])
            assert _assert_classified_as_reference(block)
        assert 0 < found < 60
        for size in range(1, 5):
            assert not _assert_classified_as_reference(
                RationalMatrix(_jordan_block(size, 0)))

    def test_jordan_blocks_at_plus_minus_one(self):
        rng = random.Random(50)
        for size in range(1, 5):
            for x in (1, -1):
                assert _assert_classified_as_reference(
                    RationalMatrix(_jordan_block(size, x)))
        found = 0
        for _ in range(40):
            m, _, _ = _conjugated_block_matrix(rng, max_dim=8)
            found += _assert_classified_as_reference(m)
        assert 0 < found < 40

    def test_unit_circle_count_on_polynomials(self):
        rng = random.Random(51)
        cyclo = [p for _, p, c in _cyclotomic_companions() if c]
        for _ in range(80):
            p = _rand_rational_poly(rng, rng.randint(0, 4))
            for _ in range(rng.randint(0, 2)):
                p = p * rng.choice(cyclo)
            assert _unit_circle_count(p) == \
                _ref_count_unit_modulus_roots(p)

    @pytest.mark.parametrize("seed", range(3))
    def test_corpus_classifications_and_splits(self, seed):
        instances = random_instances(seed, 40) + [
            product for product, _, _ in product_instances(seed, 15)]
        for spec, mapping in instances:
            _assert_classified_as_reference(mapping.linear)
            assert mapping.spectrum == classify_eigenvalues(mapping.linear)
            assert compute_plus_split(spec, mapping) == \
                _ref_plus_split(spec, mapping)


def _package_modules():
    return [importlib.import_module(f"zetafix.{info.name}")
            for info in pkgutil.iter_modules(zetafix.__path__)]


class TestFloatBoundary:
    """Counts are exact and floats only form the expanding log product, so
    no computation takes a tolerance, and numpy stays in one helper."""

    def test_no_public_callable_takes_tol(self):
        checked = []
        for mod in _package_modules():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not inspect.isclass(obj):
                    checked.append((name, obj))
                elif not issubclass(obj, BaseException):
                    checked.append((name, obj))
                    checked += [(f"{name}.{n}", m) for n, m in vars(obj).items()
                                if inspect.isfunction(m) and not n.startswith("_")]
        assert len(checked) > 90
        for name, fn in checked:
            assert "tol" not in inspect.signature(fn).parameters, name

    def test_only_algebra_float_roots_imports_numpy(self):
        # numpy is imported once, inside the one helper that roots a
        # polynomial numerically, so importing the package leaves it out
        sites = []
        for mod in _package_modules():
            with open(mod.__file__) as f:
                tree = ast.parse(f.read())
            owner = {id(inner): node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "numpy" for n in names):
                    sites.append((mod.__name__, owner.get(id(node))))
        assert sites == [("zetafix.algebra", "_float_roots")]
