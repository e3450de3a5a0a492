"""Averaged fixed-point and coincidence invariants, the sign formula,
the coincidence trichotomy, and the torus periodic-point oracle."""

import math

import pytest

from _corpus import (brute_force_torus_count, isotypic_mixing_instance,
                     random_coincidence_instances, random_instances,
                     random_integer_matrices)
from zetafix import (AffineMapSpec, DegenerateFixedSet, ManifoldSpec,
                     NonIntegralLefschetz, NonIntegralNielsen,
                     NotAGroup, NotBlockCompatible, NotCyclic, RationalMatrix,
                     coincidence_numbers, coincidence_trichotomy,
                     compute_plus_split, cyclic_decomposition,
                     default_degree_bound, det, klein_type, lefschetz,
                     lefschetz_plus, lefschetz_sequence, load_fixture,
                     nielsen, nielsen_from_lefschetz, nielsen_sequence,
                     reidemeister, reidemeister_sequence,
                     torus_periodic_points)
from zetafix.algebra import _diagonal_blocks, _integer_form
from zetafix.errors import AmbiguousClassification, NonInvariantSubspace
from zetafix.invariants import coincidence_table


def _map(rows, label="f"):
    return AffineMapSpec.make(label, rows)


def _fraction_numbers(spec, d, n, e=None):
    """L, N, R of the n-th iterate (coincidence L, N, R with a second
    linear part e) by the averaging formulas in Fraction arithmetic."""
    dn = d.power(n)
    target = RationalMatrix.identity(spec.dimension) if e is None else e.power(n)
    fixed = [det(target - a @ dn) for _, a in spec.holonomy]
    dets = fixed if e is not None else [det(a - dn) for _, a in spec.holonomy]
    r = math.inf if 0 in dets else sum(map(abs, dets)) / spec.order
    return sum(fixed) / spec.order, sum(map(abs, fixed)) / spec.order, r


class TestKleinBottleNumbers:
    def test_lefschetz(self, ex1):
        for n in range(1, 13):
            assert lefschetz(ex1.spec, ex1.mapping, n) == 1 - (-1) ** n

    def test_nielsen(self, ex1):
        for n in range(1, 13):
            assert nielsen(ex1.spec, ex1.mapping, n) == 2 ** n * (1 - (-1) ** n)

    def test_reidemeister(self, ex1):
        for n in range(1, 13):
            expected = 2 ** (n + 1) if n % 2 else math.inf
            assert reidemeister(ex1.spec, ex1.mapping, n) == expected


class TestHeisenbergNumbers:
    def test_first_iterate(self, ex3):
        assert lefschetz(ex3.spec, ex3.mapping) == -3
        assert nielsen(ex3.spec, ex3.mapping) == 6
        assert reidemeister(ex3.spec, ex3.mapping) == 6

    def test_second_iterate(self, ex3):
        assert lefschetz(ex3.spec, ex3.mapping, 2) == -15
        assert nielsen(ex3.spec, ex3.mapping, 2) == 24


class TestArgumentChecks:
    def test_iterate_must_be_positive(self, ex1):
        for fn in (lefschetz, nielsen, reidemeister):
            with pytest.raises(ValueError):
                fn(ex1.spec, ex1.mapping, 0)

    def test_non_integral_average_rejected(self):
        spec = ManifoldSpec.make("frac", 1, [("I", [[1]])])
        half = _map([["1/2"]])
        with pytest.raises(NonIntegralLefschetz):
            lefschetz(spec, half)
        with pytest.raises(NonIntegralNielsen):
            nielsen(spec, half)

    def test_non_integral_average_message(self):
        # det(I - D) = -3/2 on the trivial group: L = -3/2, and
        # |det(I - D)| = |det(A - D)| = 3/2 for N and R
        spec = ManifoldSpec.make("frac", 1, [("I", [[1]])])
        d = _map([["5/2"]])
        with pytest.raises(NonIntegralLefschetz) as err:
            lefschetz(spec, d)
        assert str(err.value) == "holonomy average -3/2 is not an integer"
        with pytest.raises(NonIntegralNielsen) as err:
            nielsen(spec, d)
        assert str(err.value) == "holonomy average 3/2 is not an integer"
        with pytest.raises(NonIntegralNielsen) as err:
            reidemeister(spec, d)
        assert str(err.value) == "holonomy average 3/2 is not an integer"
        with pytest.raises(NonIntegralLefschetz) as err:
            lefschetz(ManifoldSpec.make("frac", 1, [("I", [[1]])]),
                      _map([["1/2"]]))
        assert str(err.value) == "holonomy average 1/2 is not an integer"

    def test_default_degree_bound(self, ex1, ex3, quarter):
        assert default_degree_bound(ex1.spec) == 4
        assert default_degree_bound(ex3.spec) == 8
        assert default_degree_bound(quarter.spec) == 4


class TestSignFormula:
    def test_klein_bottle(self, ex1):
        split = compute_plus_split(ex1.spec, ex1.mapping)
        for k in range(1, 13):
            assert nielsen_from_lefschetz(ex1.spec, ex1.mapping, split, k) == \
                2 ** k * (1 - (-1) ** k)

    def test_heisenberg(self, ex3):
        split = compute_plus_split(ex3.spec, ex3.mapping)
        assert nielsen_from_lefschetz(ex3.spec, ex3.mapping, split, 1) == 6
        assert lefschetz_plus(ex3.spec, ex3.mapping, split, 1) == 3

    def test_fixtures(self, ex1, ex3, cat, identity_torus, quarter):
        for fx in (ex1, ex3, cat, identity_torus, quarter):
            split = compute_plus_split(fx.spec, fx.mapping)
            for k in range(1, 13):
                assert nielsen_from_lefschetz(fx.spec, fx.mapping, split, k) \
                    == nielsen(fx.spec, fx.mapping, k)

    def test_random_corpus(self):
        skipped = 0
        for spec, mapping in random_instances(seed=101, count=60):
            try:
                split = compute_plus_split(spec, mapping)
            except (NonInvariantSubspace, AmbiguousClassification):
                skipped += 1
                continue
            for k in range(1, 9):
                nielsen_from_lefschetz(spec, mapping, split, k)
        assert skipped <= 3


class TestReidemeisterEqualsNielsen:
    def test_random_corpus(self):
        finite = 0
        for spec, mapping in random_instances(seed=202, count=60):
            for n in range(1, 9):
                r = reidemeister(spec, mapping, n)
                if r is not math.inf:
                    finite += 1
                    assert r == nielsen(spec, mapping, n)
        assert finite >= 200


class TestSequences:
    def test_match_single_calls(self, ex3):
        ls = lefschetz_sequence(ex3.spec, ex3.mapping)
        ns = nielsen_sequence(ex3.spec, ex3.mapping)
        rs = reidemeister_sequence(ex3.spec, ex3.mapping)
        for n in range(1, 9):
            assert ls(n) == lefschetz(ex3.spec, ex3.mapping, n)
            assert ns(n) == nielsen(ex3.spec, ex3.mapping, n)
            assert rs(n) == reidemeister(ex3.spec, ex3.mapping, n)

    def test_names_and_bounds(self, ex1):
        ls = lefschetz_sequence(ex1.spec, ex1.mapping)
        assert ls.name == "lefschetz:klein_bottle_ex1:f"
        assert ls.degree_bound == 4
        assert nielsen_sequence(ex1.spec, ex1.mapping, degree_bound=3).degree_bound == 3

    def test_reidemeister_sequence_hits_infinity(self, ex1):
        rs = reidemeister_sequence(ex1.spec, ex1.mapping)
        assert rs(2) == math.inf
        assert rs(3) == 16


class TestIntegerKernel:
    """The integer kernel on rational input, which no shipped example
    reaches: conjugating the holonomy and D = S M S^-1 by a rational S
    changes no determinant of the averaging formulas."""

    S = {2: [["1/2", "1/3"], ["2/5", 3]],
         3: [["1/2", "1/3", 0], [0, "2/5", 1], ["1/7", 0, 3]]}

    def _conjugator(self, dim):
        s = RationalMatrix(self.S[dim])
        s_inv = s.inverse()
        return lambda m: s @ m @ s_inv

    def _conjugate(self, fx):
        conj = self._conjugator(fx.spec.dimension)
        spec = ManifoldSpec(fx.spec.name, fx.spec.dimension,
                            tuple((l, conj(a)) for l, a in fx.spec.holonomy))
        return spec, AffineMapSpec.make(fx.mapping.label, conj(fx.mapping.linear))

    @pytest.mark.parametrize("name", ["klein_bottle_ex1", "heisenberg_ex3",
                                      "quarter_rotation"])
    def test_conjugated_sequences_equal_the_original(self, name):
        fx = load_fixture(name)
        spec, mapping = self._conjugate(fx)
        assert not mapping.linear.is_integral()
        for make in (lefschetz_sequence, nielsen_sequence, reidemeister_sequence):
            ref, seq = make(fx.spec, fx.mapping), make(spec, mapping)
            assert [seq(n) for n in range(1, 13)] == [ref(n) for n in range(1, 13)]
        for n in range(1, 7):
            got = (lefschetz(spec, mapping, n), nielsen(spec, mapping, n),
                   reidemeister(spec, mapping, n))
            assert got == _fraction_numbers(spec, mapping.linear, n)

    def test_conjugated_coincidences_equal_the_original(self, ex3):
        spec, f = self._conjugate(ex3)
        conj = self._conjugator(3)
        g_linear = ex3.mapping.linear.power(2)
        g = AffineMapSpec.make("g", conj(g_linear))
        for n in range(1, 5):
            got = coincidence_numbers(spec, f, g, n)
            assert got == coincidence_numbers(ex3.spec, ex3.mapping,
                                              _map(g_linear, "g"), n)
            assert (got.lefschetz, got.nielsen, got.reidemeister) == \
                _fraction_numbers(spec, f.linear, n, g.linear)


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at:at + len(row)] = row
        at += len(b)
    return RationalMatrix(m)


class TestBlockKernel:
    """The kernel takes each determinant block by block when the
    holonomy, D and the coincidence target share diagonal blocks.  A
    permutation that interleaves the blocks, or a dense conjugation that
    merges them into one, changes no number."""

    HOLONOMY = [("I", _block_diag([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1]])),
                ("A", _block_diag([[0, 1], [1, 0]], [[-1, 0], [0, -1]], [[-1]]))]
    D = _block_diag([[3, 1], [1, 3]], [[2, 1], [1, 1]], [[3]])
    E = _block_diag([[1, 1], [1, 1]], [[1, 1], [1, 2]], [[-2]])
    ORDER = [0, 2, 4, 1, 3]     # sends the blocks to {0, 3}, {1, 4}, {2}
    S = [[1, 0, 2, 0, 0], [0, 1, 0, 1, 0], ["1/2", 0, 1, 0, 3],
         [0, 0, 1, 1, 0], [1, 1, 0, 0, 1]]

    def _problem(self, conj=lambda m: m):
        spec = ManifoldSpec.make("blocks", 5,
                                 [(l, conj(a)) for l, a in self.HOLONOMY])
        return spec, _map(conj(self.D), "f"), _map(conj(self.E), "g")

    def _permuted(self):
        p = RationalMatrix([[int(j == i) for j in range(5)] for i in self.ORDER])
        return self._problem(lambda m: p @ m @ p.inverse())

    def _dense(self):
        s = RationalMatrix(self.S)
        s_inv = s.inverse()
        return self._problem(lambda m: s @ m @ s_inv)

    @staticmethod
    def _blocks(spec, f, g):
        mats = [a for _, a in spec.holonomy] + [f.linear, g.linear]
        ints, _ = _integer_form(mats)
        return _diagonal_blocks(ints, spec.dimension)

    def test_blocks_found(self):
        assert self._blocks(*self._problem()) == [[0, 1], [2, 3], [4]]
        assert self._blocks(*self._permuted()) == [[0, 3], [1, 4], [2]]
        assert self._blocks(*self._dense()) == [[0, 1, 2, 3, 4]]

    def test_sequences_survive_interleaving_and_merging(self):
        ref = self._problem()
        for other in (self._permuted(), self._dense()):
            for make in (lefschetz_sequence, nielsen_sequence,
                         reidemeister_sequence):
                want, got = make(*ref[:2]), make(*other[:2])
                assert [got(n) for n in range(1, 13)] == \
                    [want(n) for n in range(1, 13)]
            assert coincidence_table(*other, 12) == coincidence_table(*ref, 12)

    @pytest.mark.parametrize("which", ["blocks", "permuted", "dense"])
    def test_numbers_equal_the_fraction_formulas(self, which):
        spec, f, g = {"blocks": self._problem, "permuted": self._permuted,
                      "dense": self._dense}[which]()
        for n in range(1, 7):
            assert (lefschetz(spec, f, n), nielsen(spec, f, n),
                    reidemeister(spec, f, n)) == \
                _fraction_numbers(spec, f.linear, n)
            c = coincidence_numbers(spec, f, g, n)
            assert (c.lefschetz, c.nielsen, c.reidemeister) == \
                _fraction_numbers(spec, f.linear, n, g.linear)

    def test_vanishing_block_makes_the_determinant_zero(self):
        # D's third block is 1, so det(I - D^n) vanishes for the identity
        # element whatever the other blocks give
        spec, _, _ = self._problem()
        f = _map(_block_diag([[3, 1], [1, 3]], [[2, 1], [1, 1]], [[1]]))
        for n in range(1, 5):
            assert (lefschetz(spec, f, n), nielsen(spec, f, n),
                    reidemeister(spec, f, n)) == \
                _fraction_numbers(spec, f.linear, n)


class TestKleinTypeFamily:
    @pytest.mark.parametrize("r,q", [(3, 5), (-3, 5), (-1, 5)])
    def test_expanding_family(self, r, q):
        fx = klein_type(r, 0, q)
        for n in range(1, 11):
            assert nielsen(fx.spec, fx.mapping, n) == abs(q ** n * (1 - r ** n))

    def test_degenerate_family(self):
        fx = klein_type(3, 2, 0)
        for n in range(1, 11):
            assert nielsen(fx.spec, fx.mapping, n) == abs(1 - 3 ** n)


class TestTorusOracle:
    def test_cat_map_counts(self, cat):
        d = cat.mapping.linear
        assert torus_periodic_points(d, 1) == 1
        assert torus_periodic_points(d, 2) == 5
        # Fibonacci-flavoured growth: |det(I - D^n)| = L_n - 2 with
        # L_n the Lucas numbers
        assert [torus_periodic_points(d, n) for n in range(1, 7)] == \
            [1, 5, 16, 45, 121, 320]

    def test_brute_force_agreement(self):
        cases = [
            (RationalMatrix([[2]]), 3),
            (RationalMatrix([[-3]]), 2),
            (RationalMatrix([[2, 1], [1, 1]]), 2),
            (RationalMatrix([[0, -1], [1, 0]]), 2),
            (RationalMatrix([[2, 0], [1, 3]]), 1),
            (RationalMatrix([[0, 2], [1, 0]]), 2),
            (RationalMatrix([[2, 0, 0], [0, 0, -1], [1, 1, 0]]), 1),
        ]
        for d, n in cases:
            assert torus_periodic_points(d, n) == brute_force_torus_count(d, n)

    def test_matches_torus_nielsen(self):
        labels = {1: "t1", 2: "t2", 3: "t3"}
        for d in random_integer_matrices(seed=303, count=40):
            spec = ManifoldSpec.make(labels[d.dim], d.dim,
                                     [("I", RationalMatrix.identity(d.dim))])
            mapping = AffineMapSpec.make("f", d)
            for n in range(1, 5):
                try:
                    count = torus_periodic_points(d, n)
                except DegenerateFixedSet:
                    assert nielsen(spec, mapping, n) == 0
                    continue
                assert count == nielsen(spec, mapping, n)

    def test_degenerate(self):
        with pytest.raises(DegenerateFixedSet):
            torus_periodic_points(RationalMatrix.identity(2), 1)

    def test_input_checks(self):
        with pytest.raises(ValueError):
            torus_periodic_points(RationalMatrix([["1/2"]]), 1)
        with pytest.raises(ValueError):
            torus_periodic_points(RationalMatrix([[2]]), 0)


class TestCoincidence:
    def test_halfturn_numbers(self, halfturn):
        c = coincidence_numbers(halfturn.spec, halfturn.mapping,
                                halfturn.mapping2)
        assert (c.lefschetz, c.nielsen, c.reidemeister) == (13, 13, 13)

    def test_iterates(self, halfturn):
        # det(E^n - D^n) = (3^n - 2^n)^2, det(E^n + D^n) = (3^n + 2^n)^2
        c = coincidence_numbers(halfturn.spec, halfturn.mapping,
                                halfturn.mapping2, 2)
        assert c.lefschetz == ((9 - 4) ** 2 + (9 + 4) ** 2) // 2

    def test_identity_second_map_reduces_to_fixed_point_theory(self, ex3, cat):
        for fx in (ex3, cat):
            ident = _map(RationalMatrix.identity(fx.spec.dimension), "id")
            for n in range(1, 7):
                c = coincidence_numbers(fx.spec, fx.mapping, ident, n)
                assert c.lefschetz == lefschetz(fx.spec, fx.mapping, n)
                assert c.nielsen == nielsen(fx.spec, fx.mapping, n)
                assert c.reidemeister == reidemeister(fx.spec, fx.mapping, n)

    def test_non_orientable_nielsen_suppressed(self, ex1):
        ident = _map(RationalMatrix.identity(2), "id")
        c = coincidence_numbers(ex1.spec, ex1.mapping, ident)
        assert c.nielsen is None
        assert c.lefschetz == 2 and c.reidemeister == 4

    def test_infinite_reidemeister(self, halfturn):
        c = coincidence_numbers(halfturn.spec, halfturn.mapping,
                                halfturn.mapping, 1)
        assert c.reidemeister == math.inf
        assert c.lefschetz == c.nielsen == 8

    def test_iterate_check(self, halfturn):
        with pytest.raises(ValueError):
            coincidence_numbers(halfturn.spec, halfturn.mapping,
                                halfturn.mapping2, 0)

    def test_table_equals_single_iterates(self, halfturn, ex1):
        # one kernel for n = 1..8 gives what a kernel per iterate gives
        pairs = [(halfturn.spec, halfturn.mapping, halfturn.mapping2),
                 (halfturn.spec, halfturn.mapping, halfturn.mapping),
                 (ex1.spec, ex1.mapping, _map(RationalMatrix.identity(2), "id"))]
        for spec, f, g in pairs:
            assert coincidence_table(spec, f, g, 8) == [
                coincidence_numbers(spec, f, g, n) for n in range(1, 9)]


class TestCyclicDecomposition:
    def test_quarter_rotation(self, quarter):
        dec = cyclic_decomposition(quarter.spec)
        assert dec.generator_label == "R"
        assert (dec.order, dec.m_triv, dec.k_tau) == (4, 0, 0)
        assert dec.rotation_angles == (pytest.approx(math.pi / 2),)

    def test_halfturn(self, halfturn):
        dec = cyclic_decomposition(halfturn.spec)
        assert (dec.order, dec.m_triv, dec.k_tau) == (2, 0, 2)
        assert dec.rotation_angles == ()

    def test_heisenberg_holonomy(self, ex3):
        dec = cyclic_decomposition(ex3.spec)
        assert (dec.generator_label, dec.m_triv, dec.k_tau) == ("A", 1, 2)

    def test_trivial_group(self, cat):
        dec = cyclic_decomposition(cat.spec)
        assert (dec.order, dec.m_triv, dec.k_tau) == (1, 2, 0)

    def test_klein_four_not_cyclic(self):
        spec = ManifoldSpec.make("v4", 2, [
            ("I", [[1, 0], [0, 1]]), ("J", [[-1, 0], [0, -1]]),
            ("A", [[1, 0], [0, -1]]), ("B", [[-1, 0], [0, 1]])])
        with pytest.raises(NotCyclic):
            cyclic_decomposition(spec)

    def test_non_group_rejected_by_validation(self):
        # the generator comes from the validated group's element orders,
        # so a holonomy that is not closed fails validation first
        spec = ManifoldSpec.make("half_quarter", 2, [
            ("I", [[1, 0], [0, 1]]), ("R", [[0, -1], [1, 0]])])
        with pytest.raises(NotAGroup, match=r"product 'R'\*'R' is not in"):
            cyclic_decomposition(spec)


class TestTrichotomy:
    def test_halfturn_case_two(self, halfturn):
        rep = coincidence_trichotomy(halfturn.spec, halfturn.mapping,
                                     halfturn.mapping2)
        assert rep.case == 2
        assert rep.predicted_nielsen == rep.averaged_nielsen == 13
        assert (rep.det_diff_sign, rep.det_sum_sign) == (1, 1)
        assert (rep.m_triv, rep.k_tau) == (0, 2)

    def test_case_three_subgroup_correction(self):
        # det(E - D) = -3 < 0 < 13 = det(E + D): the sign part forces
        # the index-2 correction N = |L0 - L| = |-3 - 5| = 8
        spec = ManifoldSpec.make("hm2", 2,
                                 [("I", [[1, 0], [0, 1]]),
                                  ("J", [[-1, 0], [0, -1]])])
        rep = coincidence_trichotomy(spec, _map([[6, 0], [0, 2]]),
                                     _map([[7, 0], [0, -1]], "g"))
        assert rep.case == 3
        assert rep.predicted_nielsen == rep.averaged_nielsen == 8
        assert (rep.det_diff_sign, rep.det_sum_sign) == (-1, 1)

    def test_case_three_order_six_holonomy(self):
        # Phi = <g>, g = diag(C6, -1, -1) with C6 of order 6: the index-2
        # subgroup {1, g^2, g^4} takes two steps of the square's powers
        c6 = RationalMatrix([[1, -1], [1, 0]])
        holonomy, p = [], RationalMatrix.identity(2)
        for k in range(6):
            s = (-1) ** k
            holonomy.append((f"g{k}", [list(p.rows[0]) + [0, 0],
                                       list(p.rows[1]) + [0, 0],
                                       [0, 0, s, 0], [0, 0, 0, s]]))
            p = p @ c6
        spec = ManifoldSpec.make("c6", 4, holonomy)
        rep = coincidence_trichotomy(
            spec, _map([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 2]]),
            _map([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 7, 0], [0, 0, 0, -1]], "g"))
        assert rep.case == 3
        assert rep.predicted_nielsen == rep.averaged_nielsen == 104
        assert (rep.m_triv, rep.k_tau) == (0, 2)

    def test_case_one_rotation_holonomy(self, quarter):
        rep = coincidence_trichotomy(quarter.spec, _map([[2, 0], [0, 2]]),
                                     _map([[3, 0], [0, 3]], "g"))
        assert rep.case == 1
        assert rep.predicted_nielsen == rep.averaged_nielsen == 13
        assert (rep.m_triv, rep.k_tau) == (0, 0)

    def test_non_orientable_rejected(self, ex1):
        with pytest.raises(ValueError):
            coincidence_trichotomy(ex1.spec, ex1.mapping, ex1.mapping)

    def test_mixing_linear_part_rejected(self):
        spec, mixing = isotypic_mixing_instance()
        ident = _map(RationalMatrix.identity(4), "g")
        with pytest.raises(NotBlockCompatible):
            coincidence_trichotomy(spec, mixing, ident)

    def test_random_corpus(self):
        cases = set()
        for spec, f, g in random_coincidence_instances(seed=404, count=40):
            rep = coincidence_trichotomy(spec, f, g)
            assert rep.predicted_nielsen == rep.averaged_nielsen
            assert rep.averaged_nielsen == \
                coincidence_numbers(spec, f, g).nielsen
            cases.add(rep.case)
        assert cases == {1, 2, 3}
