"""Averaged fixed-point and coincidence invariants, the sign formula,
the coincidence trichotomy, and the torus periodic-point oracle."""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest

import zetafix.algebra
import zetafix.invariants
import zetafix.manifolds
from _corpus import (brute_force_torus_count, coincidence_product_instances,
                     isotypic_mixing_instance, product_instances,
                     random_coincidence_instances, random_instances,
                     random_integer_matrices, rref)
from conftest import FIXED_POINT_NAMES, log_sums
from zetafix import (AffineMapSpec, DegenerateFixedSet, ManifoldSpec,
                     NielsenFormulaMismatch, NonIntegralLefschetz, NonIntegralNielsen,
                     NotAGroup, NotBlockCompatible, NotCyclic, NotRational,
                     RationalMatrix,
                     coincidence_numbers, coincidence_trichotomy,
                     compute_plus_split, cyclic_decomposition,
                     default_degree_bound, det, exterior_ranks, klein_type,
                     lefschetz,
                     build_report, lefschetz_sequence, load_fixture, nielsen,
                     nielsen_sequence, nielsen_zeta, reidemeister,
                     reidemeister_sequence, torus_periodic_points,
                     TrichotomyMismatch, TrichotomyReport, validate_spec)
from zetafix.algebra import _diagonal_blocks, _integer_form
from zetafix.ratfunc import SequenceOracle


def _map(rows, label="f"):
    return AffineMapSpec.make(label, rows)


def _fraction_numbers(spec, d, n, e=None):
    """L, N, R of the n-th iterate (coincidence L, N, R with a second
    linear part e) by the averaging formulas on whole matrices: one
    RationalMatrix product and det per holonomy element, with Fraction
    averages."""
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
    """The sign formula is checked at zeta level: the log-derivative sums
    of the sign-formula zeta are +-L(f^k), or +-(L(f+^k) - L(f^k)) for a
    proper split, and must be the averaged N(f^k)."""

    @staticmethod
    def _sign_formula_numbers(spec, mapping, upto=12):
        return log_sums(nielsen_zeta(spec, mapping).function, upto)

    def test_klein_bottle(self, ex1):
        assert self._sign_formula_numbers(ex1.spec, ex1.mapping) == \
            [2 ** k * (1 - (-1) ** k) for k in range(1, 13)]

    def test_heisenberg(self, ex3):
        assert self._sign_formula_numbers(ex3.spec, ex3.mapping, 1) == [6]
        # L(f+) = 3: the twisted term L(f+) - L(f) plus L(f) = -3
        ctx = zetafix.invariants.map_context(ex3.spec, ex3.mapping)
        assert ctx.twisted_seq(1) + ctx.l_seq(1) == 3

    def test_fixtures(self):
        for fx in map(load_fixture, FIXED_POINT_NAMES):
            assert self._sign_formula_numbers(fx.spec, fx.mapping) == \
                [nielsen(fx.spec, fx.mapping, k) for k in range(1, 13)]

    def test_random_corpus(self):
        for spec, mapping in random_instances(seed=101, count=60):
            assert self._sign_formula_numbers(spec, mapping) == \
                [nielsen(spec, mapping, k) for k in range(1, 13)]


class TestProductManifolds:
    """On a product, Phi1 x Phi2 acting by A1 (+) A2 with the map
    D1 (+) D2 and all of it conjugated by a unimodular P, each
    det(I - A D^n) and det(A - D^n) is the product of the blocks'
    determinants, and A D has the eigenvalues of A1 D1 and A2 D2."""

    @staticmethod
    def _numbers(spec, mapping):
        return [(lefschetz(spec, mapping, n), nielsen(spec, mapping, n),
                 reidemeister(spec, mapping, n)) for n in range(1, 5)]

    def test_numbers_multiply(self):
        infinite = 0
        for cases in product_instances(0, 30):
            rows = [self._numbers(*c) for c in cases]
            for (l, n, r), (l1, n1, r1), (l2, n2, r2) in zip(*rows):
                assert (l, n) == (l1 * l2, n1 * n2)
                if math.inf in (r1, r2):
                    infinite += 1
                    assert r is math.inf
                else:
                    assert r == r1 * r2
        assert infinite >= 10

    def test_sign_character_multiplies(self):
        # A1 (+) A2 is in the plus part exactly when A1 and A2 are both
        # in or both out of theirs; p and n add up
        proper = both_out = 0
        for cases in product_instances(0, 30):
            split, one, two = (compute_plus_split(*c) for c in cases)
            pairs = list(itertools.product(one.plus_membership,
                                           two.plus_membership))
            assert [inside for _, inside in split.plus_membership] == [
                a == b for (_, a), (_, b) in pairs]
            assert (split.p, split.n) == (one.p + two.p, one.n + two.n)
            proper += split.is_proper
            both_out += sum(not a and not b for (_, a), (_, b) in pairs)
        assert proper >= 10 and both_out >= 3

    def test_nielsen_zeta_meets_the_averages(self):
        for (spec, mapping), _, _ in product_instances(0, 30):
            assert log_sums(nielsen_zeta(spec, mapping).function, 12) \
                == [nielsen(spec, mapping, k) for k in range(1, 13)]

    @pytest.mark.parametrize("seed", range(3))
    def test_ranks_convolve(self, seed):
        # r_i = sum_j r1_j r2_(i-j): the even and odd rank sums multiply
        # like E + O t with t^2 = 1
        for (spec, _), (spec1, _), (spec2, _) in product_instances(seed, 30):
            (e1, o1), (e2, o2) = exterior_ranks(spec1), exterior_ranks(spec2)
            assert exterior_ranks(spec) == (e1 * e2 + o1 * o2,
                                            e1 * o2 + o1 * e2), spec.name

    @pytest.mark.parametrize("seed", range(3))
    def test_coincidence_numbers_multiply(self, seed):
        # det(E^n - A D^n) of a product pair is the blocks' product too
        infinite = 0
        for cases in coincidence_product_instances(seed, 20):
            rows = [[coincidence_numbers(*case, n) for n in range(1, 5)]
                    for case in cases]
            for c, c1, c2 in zip(*rows):
                assert c.lefschetz == c1.lefschetz * c2.lefschetz
                assert c.nielsen == c1.nielsen * c2.nielsen
                if math.inf in (c1.reidemeister, c2.reidemeister):
                    infinite += 1
                    assert c.reidemeister is math.inf
                else:
                    assert c.reidemeister == c1.reidemeister * c2.reidemeister
        assert infinite >= 5


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

    def test_infinite_r_needs_a_vanishing_fixed_point_determinant(
            self, monkeypatch, cat):
        # det(A - D^n) = det(A) det(I - A^-1 D^n): a zero among the
        # det(A - D^n) without one among the det(I - B D^n) is a fault
        orig = zetafix.algebra.AveragingKernel.shifted_dets
        monkeypatch.setattr(zetafix.algebra.AveragingKernel, "shifted_dets",
                            lambda kernel, ns: [([0], den) if n == 3 else (dets, den)
                                                for n, (dets, den) in
                                                zip(ns, orig(kernel, ns))])
        assert reidemeister(cat.spec, cat.mapping, 2) == 5
        with pytest.raises(NielsenFormulaMismatch) as err:
            reidemeister(cat.spec, cat.mapping, 3)
        assert str(err.value) == \
            "R(f^3) is infinite, but no det(I - A D^3) vanishes"

    @pytest.mark.parametrize("fault", [NonIntegralNielsen, NotRational])
    def test_first_mismatch_raised_before_a_later_fault(self, cat, fault):
        # R is compared with N in order: a mismatch at n = 2 is raised
        # though N cannot be read further on, at n = 5 inside the window
        # 3B + 4 = 7 (a non-integral N) or at n = 8 past it, whose
        # certificate fails; without the mismatch, that fault is raised
        kernel = zetafix.manifolds.averaging_kernel(cat.spec, cat.mapping)
        true = zetafix.invariants._nielsen_terms(kernel, 1, 7)

        def oracle(planted):
            def terms(lo, hi):
                if fault is NonIntegralNielsen and lo <= 5 <= hi:
                    raise fault("planted")
                return [v + (n == planted) for n, v in zip(range(lo, hi + 1), true[lo - 1:hi])]

            def certificate(seq):
                raise NotRational("planted")
            return SequenceOracle.from_ranges(terms, 1, zeta=certificate)

        with pytest.raises(NielsenFormulaMismatch) as err:
            zetafix.invariants._reidemeister_terms(kernel, oracle(2), 1, 8)
        assert str(err.value) == f"R(f^2) = {true[1]} differs from N(f^2) = {true[1] + 1}"
        with pytest.raises(fault):
            zetafix.invariants._reidemeister_terms(kernel, oracle(None), 1, 8)

    def test_infinite_r_with_a_vanishing_fixed_point_determinant(self, ex1):
        kernel = zetafix.manifolds.averaging_kernel(ex1.spec, ex1.mapping)
        for n in range(1, 9):
            zero = 0 in kernel.shifted_dets([n])[0][0]
            assert zero == (0 in kernel.fixed_point_dets([n])[0][0]) == (n % 2 == 0)
            assert (reidemeister(ex1.spec, ex1.mapping, n) == math.inf) == zero


class TestContextLifetime:
    """No oracle refers back to its context, so a context the memo
    drops is freed by reference counting, kernel and zetas with it."""

    def test_evicted_context_freed_at_once(self, ex3, cat):
        build_report(ex3)
        ref = weakref.ref(zetafix.invariants.map_context(ex3.spec, ex3.mapping))
        gc.disable()
        try:
            zetafix.invariants.map_context(cat.spec, cat.mapping)
            assert ref() is None
        finally:
            gc.enable()

    def test_reports_leave_no_cyclic_garbage(self):
        fixtures = [load_fixture(name) for name in
                    FIXED_POINT_NAMES + ("halfturn_coincidence",)]
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for fx in fixtures:
                build_report(fx)
            zetafix.invariants.map_context.cache_clear()
            zetafix.manifolds.averaging_kernel.cache_clear()
            gc.collect()
            found = sorted({type(o).__qualname__ for o in gc.garbage
                            if type(o).__module__.startswith("zetafix")})
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert found == []


class TestLazyPlusSplit:
    """The plus split is decided once per problem, when its context is
    built, and a report reads it there."""

    @pytest.fixture
    def split_calls(self, monkeypatch):
        calls = []
        real = zetafix.manifolds.compute_plus_split

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(zetafix.manifolds, "compute_plus_split", counting)
        monkeypatch.setattr(zetafix.invariants, "compute_plus_split", counting)
        return calls

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_context_is_built_whole(self, name, split_calls):
        fx = load_fixture(name)
        ctx = zetafix.invariants.MapContext(fx.spec, fx.mapping)
        assert len(split_calls) == 1
        assert type(ctx.n_seq.degree_bound) is int
        assert ctx.r_seq.degree_bound == ctx.n_seq.degree_bound
        assert (ctx.twisted_seq is None) == (not ctx.split.is_proper)

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_report_takes_one_split(self, name, split_calls):
        build_report(load_fixture(name))
        assert len(split_calls) == 1


class TestSequences:
    def test_match_single_calls(self, ex3):
        ls = lefschetz_sequence(ex3.spec, ex3.mapping)
        ns = nielsen_sequence(ex3.spec, ex3.mapping)
        rs = reidemeister_sequence(ex3.spec, ex3.mapping)
        for n in range(1, 9):
            assert ls(n) == lefschetz(ex3.spec, ex3.mapping, n)
            assert ns(n) == nielsen(ex3.spec, ex3.mapping, n)
            assert rs(n) == reidemeister(ex3.spec, ex3.mapping, n)

    def test_public_sequences_are_the_context_oracles(self, ex3):
        ctx = zetafix.invariants.map_context(ex3.spec, ex3.mapping)
        for make, attr in ((lefschetz_sequence, "l_seq"),
                           (nielsen_sequence, "n_seq"),
                           (reidemeister_sequence, "r_seq")):
            assert make(ex3.spec, ex3.mapping) is getattr(ctx, attr)

    def test_names_and_bounds(self, ex1):
        ls = lefschetz_sequence(ex1.spec, ex1.mapping)
        assert ls.name == "lefschetz:klein_bottle_ex1:f"
        # r = (1, 1, 0) over {I, diag(1, -1)}: max(E, O + 1) = 2, not 2^2
        assert ls.degree_bound == 2

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


class TestIdentitySkip:
    """The kernel forms no product it can do without.  A fixed-point
    problem whose blocks all have size 1 or 2 takes the traces path (a
    diagonal one with 1 x 1 blocks): it writes out the recurrences'
    initial terms, keeps one pair of sequences per distinct block of the
    holonomy, and calls _int_matmul neither when it is built nor while
    it fills any range of iterates.  On the powers path,
    which a dense coincidence target forces (one block), the identity's
    A_int D^n is D^n itself on integral holonomy: the product is taken
    for every other element and skipped for the identity alone."""

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_only_the_identity_product_is_skipped(self, monkeypatch, name):
        fx = load_fixture(name)
        hol = [a for _, a in fx.spec.holonomy]
        assert all(a.is_integral() for a in hol)
        ints, _ = _integer_form(hol + [fx.mapping.linear])
        blocks = _diagonal_blocks(ints, fx.spec.dimension)
        diagonal = len(blocks) == fx.spec.dimension
        assert diagonal or max(map(len, blocks)) <= 2
        products = []
        orig = zetafix.algebra._int_matmul
        monkeypatch.setattr(zetafix.algebra, "_int_matmul",
                            lambda x, y: products.append(x) or orig(x, y))
        kernel = zetafix.algebra.AveragingKernel(hol, fx.mapping.linear)
        assert kernel._diagonal == diagonal and kernel._traces is not None
        distinct = {(i, str(x)) for a in ints[:-1]
                    for i, x in enumerate(zetafix.algebra._split(a, blocks))}
        shared = {id(seqs) for row in kernel._traces for _, seqs in row}
        assert len(shared) == len(distinct) >= len(blocks)
        assert products == []
        for ns in (range(1, 5), [7, 9], range(5, 41)):
            kernel.fixed_point_dets(ns)
            kernel.shifted_dets(ns)
        assert products == []

        dim = fx.spec.dimension
        dense = RationalMatrix([[1 + (i == j) for j in range(dim)] for i in range(dim)])
        kernel = zetafix.algebra.AveragingKernel(hol, fx.mapping.linear, dense)
        assert kernel._traces is None and not kernel._diagonal
        identity = validate_spec(fx.spec).identity
        assert kernel._skip == [l == identity for l in fx.spec.labels()]
        for n in range(1, 5):
            kernel._d(n)            # the new powers of D and E, one product each
            kernel._e(n)
            products.clear()
            kernel.fixed_point_dets([n])
            assert len(products) == len(hol) - 1


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at:at + len(row)] = row
        at += len(b)
    return RationalMatrix(m)


def _diagonal(*entries):
    return RationalMatrix([[x if i == j else 0 for j in range(len(entries))]
                           for i, x in enumerate(entries)])


# The sign matrices of determinant 1 in dim 3 (a Klein four-group), and
# diagonal linear parts: a plain one, one with the factor 1 - a_2 * 1
# that vanishes for half the holonomy, and two with denominators.  The
# coincidence target is diagonal too.
DIAGONAL_HOLONOMY = [("I", _diagonal(1, 1, 1)), ("A", _diagonal(1, -1, -1)),
                     ("B", _diagonal(-1, 1, -1)), ("C", _diagonal(-1, -1, 1))]
DIAGONAL_MAPS = {"plain": _diagonal(2, -3, 3),
                 "vanishing": _diagonal(2, 1, -3),
                 "denominator": _diagonal("1/2", 4, 3),
                 "fractions": _diagonal(3, "-1/3", "5/2")}
DIAGONAL_TARGET = _diagonal(1, 2, -1)
# a dense integer matrix of determinant 1
UNIMODULAR = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]


def _diagonal_problem(which, conj=lambda m: m):
    spec = ManifoldSpec.make("diagonal", 3,
                             [(l, conj(a)) for l, a in DIAGONAL_HOLONOMY])
    return (spec, _map(conj(DIAGONAL_MAPS[which]), "f"),
            _map(conj(DIAGONAL_TARGET), "g"))


def _dense_conjugate(which):
    s = RationalMatrix(UNIMODULAR)
    s_inv = s.inverse()
    return _diagonal_problem(which, lambda m: s @ m @ s_inv)


def _public_numbers(spec, f, n, g=None):
    """L, N, R of the public entry points, each value an int or
    math.inf, or the message of the typed error that a non-integral
    average raises."""
    if g is not None:
        try:
            return tuple(coincidence_numbers(spec, f, g, n))
        except (NonIntegralLefschetz, NonIntegralNielsen) as err:
            return (str(err),)
    out = []
    for number in (lefschetz, nielsen, reidemeister):
        try:
            out.append(number(spec, f, n))
        except (NonIntegralLefschetz, NonIntegralNielsen) as err:
            out.append(str(err))
    return tuple(out)


def _expected_numbers(spec, d, n, e=None):
    """_fraction_numbers, with each non-integral average given as the
    message of the typed error it raises; coincidence numbers raise at
    the first, L before N."""
    values = _fraction_numbers(spec, d, n, e)
    out = tuple(v if v == math.inf or v.denominator == 1 else
                f"holonomy average {v} is not an integer" for v in values)
    if e is not None:
        return next(((v,) for v in out if isinstance(v, str)), values)
    return out


class TestDiagonalKernel:
    """A problem whose holonomy, D and coincidence target are all
    diagonal takes the kernel's diagonal path: each determinant is one
    product of scalars.  Its numbers are those of the Fraction formulas
    on whole matrices, denominators and vanishing factors included."""

    @pytest.mark.parametrize("which", sorted(DIAGONAL_MAPS))
    def test_diagonal_path_taken(self, which):
        spec, f, g = _diagonal_problem(which)
        for maps in ((f,), (f, g)):
            assert zetafix.manifolds.averaging_kernel(spec, *maps)._diagonal

    @pytest.mark.parametrize("which", sorted(DIAGONAL_MAPS))
    def test_numbers_equal_the_fraction_formulas(self, which):
        spec, f, _ = _diagonal_problem(which)
        for n in range(1, 9):
            assert _public_numbers(spec, f, n) == \
                _expected_numbers(spec, f.linear, n)

    @pytest.mark.parametrize("which", sorted(DIAGONAL_MAPS))
    def test_coincidence_numbers_equal_the_fraction_formulas(self, which):
        spec, f, g = _diagonal_problem(which)
        for n in range(1, 9):
            assert _public_numbers(spec, f, n, g) == \
                _expected_numbers(spec, f.linear, n, g.linear)

    def test_vanishing_factor(self):
        # det(I - A D^n) and det(A - D^n) vanish for I and B, whose second
        # entry is 1, at every n: R is infinite, L and N are not
        spec, f, _ = _diagonal_problem("vanishing")
        kernel = zetafix.manifolds.averaging_kernel(spec, f)
        for n in range(1, 9):
            for dets in (kernel.fixed_point_dets([n])[0][0],
                         kernel.shifted_dets([n])[0][0]):
                assert [v == 0 for v in dets] == [True, False, True, False]
            assert reidemeister(spec, f, n) == math.inf

    def test_denominators_reach_the_common_denominator(self):
        # D = diag(1/2, 4, 3): det(I - D^n) over (2^n)^3, as for a block
        spec, f, _ = _diagonal_problem("denominator")
        kernel = zetafix.manifolds.averaging_kernel(spec, f)
        for n, (dets, den) in enumerate(kernel.fixed_point_dets(range(1, 9)), 1):
            assert den == 2 ** (3 * n)
            assert Fraction(dets[0], den) == (1 - Fraction(1, 2 ** n)) * \
                (1 - 4 ** n) * (1 - 3 ** n)


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
            assert [coincidence_numbers(*other, n) for n in range(1, 13)] == \
                [coincidence_numbers(*ref, n) for n in range(1, 13)]

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

    @pytest.mark.parametrize("which", sorted(DIAGONAL_MAPS))
    def test_dense_conjugate_of_a_diagonal_problem(self, which):
        # a dense unimodular conjugation merges the diagonal into one
        # block, so the block path gives the same sequences as the
        # diagonal path
        diagonal, dense = _diagonal_problem(which), _dense_conjugate(which)
        assert self._blocks(*dense) == [[0, 1, 2]]
        assert not zetafix.manifolds.averaging_kernel(*dense[:2])._diagonal
        for n in range(1, 9):
            assert _public_numbers(*dense[:2], n) == \
                _public_numbers(*diagonal[:2], n)
            assert _public_numbers(*dense[:2], n, dense[2]) == \
                _public_numbers(*diagonal[:2], n, diagonal[2])

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
    @staticmethod
    def _plant_nielsen(monkeypatch, k):
        # +1 on the averaged N(f^k, g^k) of every range read
        orig = zetafix.invariants._coincidence_terms
        monkeypatch.setattr(
            zetafix.invariants, "_coincidence_terms",
            lambda kernel, lo, hi, orientable: [
                c._replace(nielsen=c.nielsen + 1) if n == k and orientable else c
                for n, c in enumerate(orig(kernel, lo, hi, orientable), lo)])

    def test_api_numbers_are_checked_by_the_trichotomy(self, monkeypatch, halfturn):
        pair = (halfturn.spec, halfturn.mapping, halfturn.mapping2)
        before = [coincidence_numbers(*pair, n) for n in (1, 2, 3)]
        self._plant_nielsen(monkeypatch, 3)
        assert [coincidence_numbers(*pair, n) for n in (1, 2)] == before[:2]
        with pytest.raises(TrichotomyMismatch, match=r"^case 2 predicts "
                           r"N\(f\^3, g\^3\) = 793 but averaging gives 794$"):
            coincidence_numbers(*pair, 3)

    def test_api_numbers_where_the_trichotomy_does_not_apply(self, monkeypatch, ex1):
        # non-orientable (the Klein bottle) and non-cyclic (a Klein
        # four-group) pairs return the averages as they are, planted
        # fault included: there is no second route to check them with
        ident = _map(RationalMatrix.identity(2), "id")
        spec, f, g = _diagonal_problem("plain")
        pairs = [(ex1.spec, ex1.mapping, ident), (spec, f, g)]
        with pytest.raises(NotCyclic):
            cyclic_decomposition(spec)
        before = [coincidence_numbers(*pair, 3) for pair in pairs]
        self._plant_nielsen(monkeypatch, 3)
        after = [coincidence_numbers(*pair, 3) for pair in pairs]
        assert after[0] == before[0]            # N is not defined: None
        assert after[1] == before[1]._replace(nielsen=before[1].nielsen + 1)

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

    def test_one_absolute_average_per_iterate(self, halfturn, ex1,
                                              monkeypatch):
        # count the |det| averages, the only ones that raise
        # NonIntegralNielsen
        calls = []
        real = zetafix.invariants._average
        monkeypatch.setattr(zetafix.invariants, "_average",
                            lambda dets, den, err: calls.append(err) or real(dets, den, err))
        ident = _map(RationalMatrix.identity(2), "id")
        pairs = [
            # orientable, finite R: N and R share the average
            ((halfturn.spec, halfturn.mapping, halfturn.mapping2), [1, 2, 3]),
            # orientable, infinite R: the average is N's alone
            ((halfturn.spec, halfturn.mapping, halfturn.mapping), [1, 2, 3]),
            # non-orientable, finite R: averaged for R only
            ((ex1.spec, ex1.mapping, ident), [1, 3]),
        ]
        for (spec, f, g), iterates in pairs:
            for n in iterates:
                calls.clear()
                coincidence_numbers(spec, f, g, n)
                assert calls.count(NonIntegralNielsen) == 1
        # non-orientable, infinite R: nothing to average
        calls.clear()
        c = coincidence_numbers(ex1.spec, ex1.mapping, ident, 2)
        assert c.reidemeister == math.inf and c.nielsen is None
        assert NonIntegralNielsen not in calls


class TestCyclicDecomposition:
    def test_quarter_rotation(self, quarter):
        dec = cyclic_decomposition(quarter.spec)
        assert dec.generator_label == "R"
        assert (dec.order, dec.m_triv, dec.k_tau) == (4, 0, 0)
        assert len(dec.rotation) == 2

    def test_halfturn(self, halfturn):
        dec = cyclic_decomposition(halfturn.spec)
        assert (dec.order, dec.m_triv, dec.k_tau) == (2, 0, 2)
        assert len(dec.rotation) == 0

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

    def test_half_average_equals_the_subgroup_spec(self, monkeypatch):
        # In case 3, L_0 is read from the pair's kernel over the indices
        # of the index-2 subgroup; the reference builds that subgroup as
        # a spec of its own and averages over it.
        seen = []
        orig = zetafix.invariants._lefschetz_terms

        def recorded(kernel, lo, hi, members=None):
            values = orig(kernel, lo, hi, members)
            if members is not None:     # L itself is read here too
                seen.extend(values)
            return values

        monkeypatch.setattr(zetafix.invariants, "_lefschetz_terms", recorded)
        checked = set()
        for spec, f, g in random_coincidence_instances(seed=404, count=40):
            seen.clear()
            if coincidence_trichotomy(spec, f, g).case != 3:
                continue
            group = validate_spec(spec)
            gen = cyclic_decomposition(spec).generator_label
            square = group.products[gen, gen]
            half = [group.identity]
            while (p := group.products[half[-1], square]) != group.identity:
                half.append(p)
            sub = ManifoldSpec(spec.name + "0", spec.dimension,
                               tuple((l, spec.matrix(l)) for l in half))
            assert seen == [coincidence_numbers(sub, f, g, 1).lefschetz]
            checked.add(spec.order)
        assert checked == {2, 4}

    def test_random_corpus(self):
        cases = set()
        for spec, f, g in random_coincidence_instances(seed=404, count=40):
            rep = coincidence_trichotomy(spec, f, g)
            assert rep.predicted_nielsen == rep.averaged_nielsen
            assert rep.averaged_nielsen == \
                coincidence_numbers(spec, f, g).nielsen
            cases.add(rep.case)
        assert cases == {1, 2, 3}


def _fraction_decomposition(spec):
    """The trivial, sign and rotation bases of cyclic_decomposition, by
    Gauss-Jordan elimination in Fractions: a kernel vector is 1 at its
    non-pivot column, and the rotation part takes the pivot columns of
    A^2 - I itself."""
    group = validate_spec(spec)
    gen = next((l for l, o in group.element_orders if o == spec.order), None)
    if gen is None:
        raise NotCyclic(f"holonomy of {spec.name!r} has no generator")
    n = spec.dimension
    ident = RationalMatrix.identity(n)

    def kernel(m):
        red, pivots = rref(m.rows, n)
        basis = []
        for fc in (c for c in range(n) if c not in pivots):
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            basis.append(tuple(v))
        return basis

    a0 = spec.matrix(gen)
    square = spec.matrix(group.products[gen, gen]) - ident
    rot = [tuple(col) for c, col in enumerate(zip(*square.rows))
           if c in rref(square.rows, n)[1]]
    parts = kernel(a0 - ident), kernel(a0 + ident), rot
    filled = sum(map(len, parts))
    if filled != n:
        raise NotCyclic(f"decomposition of {gen!r} does not fill the space "
                        f"(got {filled} columns for dimension {n})")
    return parts


def _fraction_trichotomy(spec, f, g):
    """(case, det_diff_sign, det_sum_sign, m_triv, k_tau) of
    coincidence_trichotomy from the Fraction decomposition, the inverse
    of its basis by Gauss-Jordan on [B | I], and B^-1 M B in Fractions;
    the case is read from the two signs alone."""
    triv, tau, rot = _fraction_decomposition(spec)
    n, mt, kt = spec.dimension, len(triv), len(tau)
    basis = [list(r) for r in zip(*(triv + tau + rot))]
    red, _ = rref([r + [Fraction(i == j) for j in range(n)]
                   for i, r in enumerate(basis)], n)
    binv = [r[n:] for r in red]
    piece = [0] * mt + [1] * kt + [2] * len(rot)

    def mul(x, y):
        return [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in x]

    def block(d):
        conj = mul(mul(binv, d.rows), basis)
        for i, j in itertools.product(range(n), repeat=2):
            if piece[i] != piece[j] and conj[i][j] != 0:
                raise NotBlockCompatible(
                    f"linear part does not preserve the isotypic "
                    f"pieces (entry {i},{j} nonzero)")
        return [r[mt:mt + kt] for r in conj[mt:mt + kt]]

    d_tau, e_tau = block(f.linear), block(g.linear)
    if kt == 0:
        return 1, 0, 0, mt, kt
    signs = [(x > 0) - (x < 0) for x in (
        det(RationalMatrix([[e - s * d for e, d in zip(er, dr)]
                            for er, dr in zip(e_tau, d_tau)]))
        for s in (1, -1))]
    return (2 if signs[0] * signs[1] >= 0 else 3), *signs, mt, kt


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotCyclic, NotBlockCompatible) as e:
        return type(e).__name__, str(e)


def _trichotomy_problems():
    halfturn = load_fixture("halfturn_coincidence")
    spec, mixing = isotypic_mixing_instance()
    ident = _map(RationalMatrix.identity(4), "g")
    return ([(halfturn.spec, halfturn.mapping, halfturn.mapping2),
             (spec, mixing, ident), (spec, ident, mixing)]
            + random_coincidence_instances(seed=404, count=40)
            + [product for product, _, _ in coincidence_product_instances(0, 20)])


class TestFractionFreeTrichotomy:
    """The integer decomposition and conjugation against the Fraction
    Gauss-Jordan route they replaced."""

    def test_same_case_signs_and_dimensions_or_error(self):
        seen = set()
        for spec, f, g in _trichotomy_problems():
            want = _outcome(_fraction_trichotomy, spec, f, g)
            rep = _outcome(coincidence_trichotomy, spec, f, g)
            # an error outcome is a (name, message) pair, a report is a
            # TrichotomyReport (itself a named tuple)
            got = (rep.case, rep.det_diff_sign, rep.det_sum_sign, rep.m_triv,
                   rep.k_tau) if isinstance(rep, TrichotomyReport) else rep
            assert got == want, spec.name
            seen.add(got[0])
        assert seen == {1, 2, 3, "NotCyclic", "NotBlockCompatible"}

    def test_bases_are_positive_integer_multiples(self):
        checked = 0
        for spec, _, _ in _trichotomy_problems():
            try:
                want = _fraction_decomposition(spec)
            except NotCyclic:
                continue
            dec = cyclic_decomposition(spec)
            for got, ref in zip((dec.trivial, dec.sign, dec.rotation), want):
                assert len(got) == len(ref)
                for u, v in zip(got, ref):
                    assert all(type(x) is int for x in u)
                    c = next(Fraction(x, 1) / y for x, y in zip(u, v) if y)
                    assert c > 0 and list(u) == [c * y for y in v]
            checked += 1
        assert checked > 40
