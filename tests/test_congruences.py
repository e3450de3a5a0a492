"""Gauss, Euler, and Dold divisibility laws for counting sequences."""

import math
import random

import pytest

from _corpus import random_instances
from conftest import FIXED_POINT_NAMES
from zetafix import (AffineMapSpec, InfinityInSequence, ManifoldSpec,
                     SequenceOracle, builtin_fixtures, check_dold_lefschetz,
                     check_euler, check_gauss, lefschetz_sequence,
                     load_fixture, mobius, nielsen_sequence,
                     reidemeister_sequence, sol_r_sequence)
from zetafix.congruences import CongruenceReport


def _seq(fn, name="s"):
    return SequenceOracle(fn, 4, name=name)


class TestMobius:
    def test_table(self):
        expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
        assert [mobius(n) for n in range(1, 17)] == expected

    def test_divisor_sum_identity(self):
        # sum_{d|n} mu(d) is 1 at n = 1 and 0 beyond
        for n in range(1, 1001):
            total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
            assert total == (1 if n == 1 else 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            mobius(0)


class TestGauss:
    def test_power_sequences_pass(self):
        for a in (2, 3, 5, -2):
            rep = check_gauss(_seq(lambda n, a=a: a ** n), 30)
            assert rep.passed
            assert rep.checked_range == tuple(range(1, 31))
            assert rep.skipped == ()

    def test_sol_sequences_pass(self):
        for r in (2, 3):
            assert check_gauss(sol_r_sequence(r).oracle(), 30).passed

    def test_heisenberg_reidemeister_passes(self, ex3):
        rep = check_gauss(reidemeister_sequence(ex3.spec, ex3.mapping), 30)
        assert rep.passed and rep.skipped == ()

    def test_linear_sequence_fails(self):
        rep = check_gauss(_seq(lambda n: n), 6)
        assert not rep.passed
        assert rep.violations[0] == (2, 1)    # a_2 - a_1 = 1, odd

    def test_residues_reduced(self):
        rep = check_gauss(_seq(lambda n: 1 if n == 1 else 0), 8)
        for n, residue in rep.violations:
            assert 0 <= residue < n

    def test_infinite_terms_skipped(self, ex1):
        rep = check_gauss(reidemeister_sequence(ex1.spec, ex1.mapping), 9)
        # even iterates are infinite, and their divisors poison the odd
        # multiples too once n/d lands on an even number
        assert rep.skipped == (2, 4, 6, 8)
        assert set(rep.checked_range) == {1, 3, 5, 7, 9}
        assert rep.passed

    def test_infinite_term_with_zero_mobius_weight_still_skips(self):
        # a_1 is a divisor term of every n, with weight mu(n), which is 0
        # for n = 4, 8, 9, 12, ...; the law assumes finite counts, so
        # every n is skipped all the same
        rep = check_gauss(_seq(lambda n: math.inf if n == 1 else 2 ** n), 12)
        assert rep.skipped == tuple(range(1, 13))
        assert rep.checked_range == () and rep.passed

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            check_gauss(_seq(lambda n: n), 0)


def _ref_divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _ref_check_gauss(seq, n_max, kind="Gauss"):
    """The divisor-sum Gauss check, one divisor list per n: the
    reference the sieve in check_gauss must agree with."""
    checked, violations, skipped = [], [], []
    a = [None] + [seq(m) for m in range(1, n_max + 1)]
    for n in range(1, n_max + 1):
        terms = [(mobius(d), a[n // d]) for d in _ref_divisors(n)]
        if any(t == math.inf for _, t in terms):
            skipped.append(n)
            continue
        checked.append(n)
        residue = sum(m * t for m, t in terms) % n
        if residue != 0:
            violations.append((n, int(residue)))
    return CongruenceReport(kind, tuple(checked), tuple(violations),
                            tuple(skipped))


class TestSieveMatchesDivisorSums:
    """check_gauss sums all n together by a Moebius sieve; every report
    must equal the one of the per-n divisor sums."""

    def test_random_sequences(self):
        rng = random.Random(2121)
        for _ in range(2000):
            n_max = rng.randint(1, 120)
            terms = [math.inf if rng.random() < 0.05
                     else rng.randint(-10 ** 6, 10 ** 6)
                     for _ in range(n_max)]
            seq = _seq(lambda n, t=terms: t[n - 1])
            assert check_gauss(seq, n_max) == _ref_check_gauss(seq, n_max)

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_fixture_sequences(self, name):
        fx = load_fixture(name)
        for make in (lefschetz_sequence, nielsen_sequence,
                     reidemeister_sequence):
            seq = make(fx.spec, fx.mapping)
            for n_max in (30, 1000):
                assert check_gauss(seq, n_max, kind="K") == \
                    _ref_check_gauss(seq, n_max, kind="K")

    def test_sol_and_circle_sequences(self):
        circle = nielsen_sequence(ManifoldSpec.make("circle", 1, [("I", [[1]])]),
                                  AffineMapSpec.make("f", [[-1]]))
        for seq in (sol_r_sequence(2).oracle(), circle):
            for n_max in (30, 120, 1000):
                assert check_gauss(seq, n_max) == _ref_check_gauss(seq, n_max)


class TestEuler:
    def test_matches_gauss_at_prime_powers(self):
        seqs = [lambda n: 2 ** n + 3 ** n, lambda n: (-2) ** n + n ** 0]
        for fn in seqs:
            for p, r_max in ((2, 4), (3, 3), (5, 2)):
                rep = check_euler(_seq(fn), p, r_max)
                assert rep.passed
                assert rep.checked_range == tuple((p, r) for r in range(1, r_max + 1))

    def test_euler_equivalent_to_gauss_on_prime_powers(self):
        # at n = p^r the Gauss sum telescopes to a_{p^r} - a_{p^(r-1)}
        fn = lambda n: 4 ** n - 7 * (n % 3 == 0)
        gauss = check_gauss(_seq(fn), 32)
        euler = check_euler(_seq(fn), 2, 5)
        gauss_points = {n for n, _ in gauss.violations}
        euler_points = {p ** r for (p, r), _ in euler.violations}
        assert euler_points == {n for n in gauss_points
                                if n in {2, 4, 8, 16, 32}}

    def test_violation_detected(self):
        rep = check_euler(_seq(lambda n: n), 2, 3)
        assert ((2, 1), 1) in rep.violations

    def test_infinite_term_raises(self, ex1):
        seq = reidemeister_sequence(ex1.spec, ex1.mapping)
        with pytest.raises(InfinityInSequence) as e:
            check_euler(seq, 2, 2)
        assert e.value.index == 2

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            check_euler(_seq(lambda n: n), 4, 2)
        with pytest.raises(ValueError):
            check_euler(_seq(lambda n: n), 2, 0)


class TestDold:
    def test_all_spec_fixtures(self):
        for name, fx in builtin_fixtures().items():
            if not hasattr(fx, "spec"):
                continue
            rep = check_dold_lefschetz(fx.spec, fx.mapping, 30)
            assert rep.passed, (name, rep.violations)
            assert rep.kind == "Dold"

    def test_random_corpus(self):
        for spec, mapping in random_instances(seed=606, count=40):
            assert check_dold_lefschetz(spec, mapping, 12).passed


class TestCircleDegreeMinusOne:
    """Nielsen numbers of a degree -1 circle map: N(f^n) is 2 for odd n
    and 0 for even n.  The full divisor sum telescopes to zero at every
    n, so the Gauss law holds across the whole range."""

    @staticmethod
    def _sequence():
        return _seq(lambda n: 2 if n % 2 else 0, name="circle_deg_-1")

    def test_passes_everywhere(self):
        rep = check_gauss(self._sequence(), 120)
        assert rep.passed
        assert rep.violations == ()

    def test_n90_divisor_sum_is_zero(self):
        # the point n = 90 looks alarming if the divisor d = 10 is
        # dropped (the truncated sum gives -2); the complete sum is 0
        seq = self._sequence()
        full = sum(mobius(d) * seq(90 // d)
                   for d in (1, 2, 3, 5, 6, 9, 10, 15, 18, 30, 45, 90))
        assert full == 0
        truncated = sum(mobius(d) * seq(90 // d)
                        for d in (1, 2, 3, 5, 6, 9, 15, 18, 30, 45, 90))
        assert truncated == -2
