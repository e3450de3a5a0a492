"""Rational functions and exact reconstruction of exp(sum a_n z^n / n)."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _fraction_ref as ref
import zetafix.ratfunc
from _corpus import (dense_torus, ladder_instances, product_instances,
                     random_instances)
from conftest import FIXED_POINT_NAMES, log_sums
from zetafix import (InsufficientTerms, NielsenFormulaMismatch, NotRational,
                     OutOfFloatRange, Polynomial, RationalFunction,
                     SequenceOracle, builtin_fixtures,
                     format_polynomial, load_fixture, radius_of_convergence,
                     zeta_from_terms)
from zetafix.algebra import _int_squarefree, _primitive
from zetafix.invariants import (MapContext, _lefschetz_at, _sign_formula_zeta,
                                 map_context)
from zetafix.manifolds import PlusSplit
from zetafix.ratfunc import _MERSENNE_EXPONENTS, _berlekamp_massey


def _oracle(fn, bound, name="test"):
    return SequenceOracle(fn, bound, name=name)


class TestFormatting:
    @pytest.mark.parametrize("coeffs,text", [
        ([], "0"),
        ([1], "1"),
        ([1, 2, -2], "1+2z-2z^2"),
        ([1, -4, -8], "1-4z-8z^2"),
        ([0, 1], "z"),
        ([0, -1, 0, 1], "-z+z^3"),
        ([Fraction(1, 2)], "1/2"),
        # a non-integer coefficient of a power of z is bracketed
        ([Fraction(1, 2), Fraction(1, 4)], "1/2+(1/4)z"),
        ([0, 0, Fraction(-3, 2)], "-(3/2)z^2"),
        ([Fraction(-1, 2), 1, Fraction(-3), Fraction(5, 7)],
         "-1/2+z-3z^2+(5/7)z^3"),
    ])
    def test_polynomial_strings(self, coeffs, text):
        assert format_polynomial(Polynomial(coeffs)) == text

    def test_function_string(self):
        f = RationalFunction([1, 2], [1, -2])
        assert str(f) == "(1+2z)/(1-2z)"
        assert str(RationalFunction([1, 1])) == "1+z"

    def test_non_integer_function_string(self):
        f = RationalFunction([1, Fraction(-1, 2)], [2, -3])
        assert str(f) == "(1/2-(1/4)z)/(1-(3/2)z)"


class TestNormalization:
    def test_common_factor_cancelled(self):
        f = RationalFunction(Polynomial([1, 1]) * Polynomial([1, -1]),
                             Polynomial([1, 1]) * Polynomial([1, -2]))
        assert f == RationalFunction([1, -1], [1, -2])

    def test_denominator_low_coefficient_normalized_to_one(self):
        f = RationalFunction([2, 2], [2, -4])
        assert f.den.coeffs[0] == 1
        assert f == RationalFunction([1, 1], [1, -2])

    @pytest.mark.parametrize("num, den", [
        ([1, 2], [-2, 4]),                              # negative lowest
        ([3, Fraction(1, 2)], [0, Fraction(3, 4), 5]),  # lowest is z's
        ([Fraction(2, 3)], [Fraction(-5, 7), 1]),
    ])
    def test_denominator_lowest_coefficient_made_one(self, num, den):
        f = RationalFunction(num, den)
        low = next(Fraction(c) for c in den if c != 0)
        assert f.num == Polynomial([Fraction(c) / low for c in num])
        assert f.den == Polynomial([Fraction(c) / low for c in den])
        assert next(c for c in f.den.ints if c) == f.den.den

    def test_copies_keep_equality_and_hash(self):
        f = RationalFunction([1, Fraction(-1, 2)], [2, -3])
        for other in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert other == f and hash(other) == hash(f)

    def test_exact_readers_return_no_float(self):
        f = RationalFunction([1, -3], [2, -4, 10])       # den made 1-2z+5z^2
        g = RationalFunction([1], [1, -3])
        values = [c for h in (f, g, f * g, f ** -2, f.compose_scale(Fraction(1, 3)))
                  for p in (h.num, h.den) for c in p.coeffs]
        assert values and all(type(c) is Fraction for c in values)
        assert f.den.coeffs == (1, -2, 5)
        assert f.num.coeffs == (Fraction(1, 2), Fraction(-3, 2))
        assert log_sums(g, 8) == [3 ** n for n in range(1, 9)]

    def test_zero_numerator_collapses(self):
        f = RationalFunction([0], [1, 5])
        assert f.num.is_zero and f.den == Polynomial([1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction([1], [0])

    def test_immutability(self):
        f = RationalFunction([1], [1, -1])
        with pytest.raises(AttributeError):
            f.num = Polynomial([2])


class TestArithmetic:
    def test_field_operations(self):
        f = RationalFunction([1, 1], [1, -1])
        g = RationalFunction([1], [1, -2])
        assert (f * g) * g.inverse() == f
        assert f * f.inverse() == RationalFunction.one()
        assert f ** 3 == f * f * f
        assert f ** -2 == (f.inverse()) * (f.inverse())
        assert f ** 0 == RationalFunction.one()

    def test_compose_scale(self):
        f = RationalFunction([1, 1], [1, -1])
        g = f.compose_scale(-1)
        assert g == RationalFunction([1, -1], [1, 1])


class TestSequenceOracle:
    def test_caches_and_validates(self):
        calls = []

        def fn(n):
            calls.append(n)
            return n * n

        seq = _oracle(fn, 3)
        assert seq(4) == 16
        assert seq(4) == 16
        assert calls == [4]
        with pytest.raises(ValueError):
            seq(0)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match=r"^degree_bound must be >= 1$"):
            SequenceOracle(lambda n: n, bound)


class TestMinLinearRecurrence:
    """The fraction-free Berlekamp-Massey: the order, and the connection
    polynomial c with sum_i c_i s_(n-i) = 0, up to a constant factor."""

    @staticmethod
    def _monic(c):
        return [Fraction(x, c[0]) for x in c]

    def test_fibonacci(self):
        fib = [1, 1, 2, 3, 5, 8, 13, 21]
        # a_n = a_{n-1} + a_{n-2}: connection polynomial 1 - z - z^2
        c, order = _berlekamp_massey(fib)
        assert order == 2 and self._monic(c) == [1, -1, -1]

    def test_geometric(self):
        c, order = _berlekamp_massey([3, 6, 12, 24])
        assert order == 1 and self._monic(c) == [1, -2]

    def test_zero_sequence(self):
        assert _berlekamp_massey([0, 0, 0, 0]) == ([1], 0)

    def test_insufficient_window(self):
        # order-3 recurrence visible only from >= 6 terms
        with pytest.raises(InsufficientTerms):
            _berlekamp_massey([1, 2, 4, 9, 20])


class TestZetaFromTerms:
    def test_alternating_doubling(self):
        seq = _oracle(lambda n: 2 ** n * (1 - (-1) ** n), 4)
        assert zeta_from_terms(seq) == RationalFunction([1, 2], [1, -2])

    def test_sol_sequence(self):
        seq = _oracle(lambda n: 2 ** n - 1, 4)
        assert zeta_from_terms(seq) == RationalFunction([1, -1], [1, -2])

    def test_constant_sequence(self):
        seq = _oracle(lambda n: 2, 4)
        assert zeta_from_terms(seq) == RationalFunction([1, -2, 1], [1]).inverse()

    def test_zero_sequence_gives_one(self):
        seq = _oracle(lambda n: 0, 4)
        assert zeta_from_terms(seq) == RationalFunction.one()

    def test_round_trip_of_random_functions(self):
        rng = random.Random(17)
        for _ in range(12):
            num = Polynomial([1] + [rng.randint(-3, 3)
                                    for _ in range(rng.randint(0, 3))])
            den = Polynomial([1] + [rng.randint(-3, 3)
                                    for _ in range(rng.randint(0, 3))])
            f = RationalFunction(num, den)
            # the series recurrence has order max(deg den, deg num + 1)
            b = max(f.den.degree, f.num.degree + 1, 1)
            sums = log_sums(f, 3 * b + 4)
            seq = _oracle(lambda n, s=sums: s[n - 1], b)
            assert zeta_from_terms(seq) == f

    @settings(max_examples=60)
    @given(st.lists(st.integers(-4, 4), max_size=3),
           st.lists(st.integers(-4, 4), max_size=3),
           st.lists(st.integers(-3, 3), max_size=2))
    def test_round_trip_of_integer_functions(self, p, q, g):
        # P(0) = Q(0) = 1 puts the series in 1 + zZ[[z]], so the
        # exponential is rebuilt on integers; a shared factor G must
        # cancel exactly as the gcd cancels it
        shared = Polynomial([1] + g)
        f = RationalFunction(Polynomial([1] + p) * shared,
                             Polynomial([1] + q) * shared)
        b = max(f.den.degree, f.num.degree + 1, 1)
        sums = log_sums(f, 3 * b + 4)
        assert all(a.denominator == 1 for a in sums)
        seq = _oracle(lambda n: sums[n - 1], b)
        assert zeta_from_terms(seq) == f

    def test_fraction_terms(self):
        # exp(sum (z/2)^n / n) = 1/(1 - z/2) has no integer series
        seq = _oracle(lambda n: Fraction(1, 2 ** n), 2)
        assert zeta_from_terms(seq) == RationalFunction([1], [1, Fraction(-1, 2)])

    def test_sequence_breaking_dolds_congruence(self):
        # a_1 = 1, a_n = 0 after: exp(z), whose series 1/n! is not integral
        seq = _oracle(lambda n: int(n == 1), 6)
        with pytest.raises(NotRational):
            zeta_from_terms(seq)

    def test_not_rational_for_polynomial_growth(self):
        # exp(z/(1-z)) is not rational
        seq = _oracle(lambda n: n, 6)
        with pytest.raises(NotRational):
            zeta_from_terms(seq)

    def test_not_rational_when_bound_too_small(self):
        seq = _oracle(lambda n: 2 ** n * (1 - (-1) ** n), 1)
        with pytest.raises(NotRational):
            zeta_from_terms(seq)

    def test_bound_override_validated(self):
        seq = _oracle(lambda n: 0, 4)
        with pytest.raises(ValueError):
            zeta_from_terms(seq, degree_bound=0)

    def test_positional_none_reads_the_oracle_bound(self):
        # bench/tracer.py wraps zeta_from_terms and passes its second
        # argument on positionally, None when the caller gave none
        seq = _oracle(lambda n: 2 ** n * (1 - (-1) ** n), 2)
        assert zeta_from_terms(seq, None) == RationalFunction([1, 2], [1, -2])


def _spy(monkeypatch, name) -> list:
    """The argument tuples of every call to zetafix.ratfunc.<name>."""
    calls = []
    orig = getattr(zetafix.ratfunc, name)

    def spy(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(zetafix.ratfunc, name, spy)
    return calls


def _outcome(seq):
    """zeta_from_terms(seq), or the type and message of what it raises."""
    try:
        return zeta_from_terms(seq)
    except Exception as e:
        return type(e), str(e)


def _exact_outcome(monkeypatch, seq):
    """_outcome(seq) with the modular fit switched off."""
    with monkeypatch.context() as m:
        m.setattr(zetafix.ratfunc, "_modular_fit", lambda *args: None)
        return _outcome(seq)


def _context_sequences(spec, mapping) -> list:
    ctx = map_context(spec, mapping)
    seqs = [ctx.l_seq, ctx.n_seq, ctx.r_seq]
    return seqs + [ctx.twisted_seq] if ctx.split.is_proper else seqs


def _tail_perturbed(f: RationalFunction, b: int, k: int) -> list[int]:
    """Sums a_1..a_{3b+4} of the integral series of f with 1 added to
    its coefficient of z^k; they stay integers."""
    top = 3 * b + 4
    g = [int(x) for x in ref.series(f.num.coeffs, f.den.coeffs, top)]
    g[k] += 1
    a = []
    for n in range(1, top + 1):
        a.append(n * g[n] - sum(a[j - 1] * g[n - j] for j in range(1, n)))
    return a


class TestModularFit:
    """The denominator is fitted modulo Mersenne primes and certified by
    the exact window check; the result is the exact route's, and every
    error still comes from the exact route."""

    def _assert_routes_agree(self, monkeypatch, seqs):
        for seq in seqs:
            # a window that reads a sibling past the sibling's own window
            # certifies the sibling's zeta: let that happen before counting
            _outcome(seq)
        fits = []
        orig = zetafix.ratfunc._modular_fit
        monkeypatch.setattr(zetafix.ratfunc, "_modular_fit",
                            lambda *args: fits.append(orig(*args)) or fits[-1])
        rebuilt = 0
        for seq in seqs:
            fast = _outcome(seq)
            assert fast == _exact_outcome(monkeypatch, seq), seq.name
            rebuilt += isinstance(fast, RationalFunction)
        # every function returned was carried by the modular fit
        assert rebuilt and sum(fit is not None for fit in fits) == rebuilt

    @pytest.mark.parametrize("seed", range(3))
    def test_ladder_agrees_with_the_exact_route(self, monkeypatch, seed):
        self._assert_routes_agree(monkeypatch, [
            seq for spec, f in ladder_instances(seed)
            for seq in _context_sequences(spec, f)])

    @pytest.mark.parametrize("seed", range(5))
    def test_corpus_agrees_with_the_exact_route(self, monkeypatch, seed):
        self._assert_routes_agree(monkeypatch, [
            seq for spec, f in random_instances(seed, 15)
            for seq in _context_sequences(spec, f)])

    def test_fixtures_agree_with_the_exact_route(self, monkeypatch):
        seqs = []
        for fx in builtin_fixtures().values():
            if hasattr(fx, "oracle"):
                seqs.append(fx.oracle())
            else:
                seqs += _context_sequences(fx.spec, fx.mapping)
        self._assert_routes_agree(monkeypatch, seqs)

    @pytest.mark.parametrize("dim", [6, 7])
    def test_dense_tori_agree_with_the_exact_route(self, monkeypatch, dim):
        spec, f = dense_torus(dim, 1)
        self._assert_routes_agree(monkeypatch, [map_context(spec, f).l_seq])

    def test_dense_torus_escalates_past_the_first_prime(self, monkeypatch):
        # the degree-64 denominator of the dense T^7 zeta has 251-bit
        # coefficients: 2^127 - 1 cannot lift them, 2^521 - 1 can
        calls = _spy(monkeypatch, "_berlekamp_massey_mod")
        spec, f = dense_torus(7, 1)
        zeta = zeta_from_terms(map_context(spec, f).l_seq)
        assert [p.bit_length() for _, p in calls] == [127, 521]
        assert max(abs(c) for c in zeta.den.coeffs).numerator.bit_length() == 251

    @pytest.mark.parametrize("rung", range(len(_MERSENNE_EXPONENTS) + 1))
    def test_escalation_through_the_prime_ladder(self, monkeypatch, rung):
        # 1/(1 - N z) with N just past what the primes before this rung
        # lift; past the last prime the exact route returns it
        bits = ([1] + list(_MERSENNE_EXPONENTS))[rung] + 2
        big = 2 ** bits + 1
        calls = _spy(monkeypatch, "_berlekamp_massey_mod")
        exact = _spy(monkeypatch, "_exact_fit")
        seq = _oracle(lambda n: big ** n, 1)
        assert zeta_from_terms(seq) == RationalFunction([1], [1, -big])
        assert [p.bit_length() for _, p in calls] == \
            list(_MERSENNE_EXPONENTS[:rung + 1])
        assert len(exact) == (rung == len(_MERSENNE_EXPONENTS))

    def test_fraction_terms_take_the_exact_route(self, monkeypatch):
        modular = _spy(monkeypatch, "_modular_fit")
        exact = _spy(monkeypatch, "_exact_fit")
        seq = _oracle(lambda n: Fraction(1, 2 ** n), 2)
        assert zeta_from_terms(seq) == RationalFunction([1], [1, Fraction(-1, 2)])
        assert (len(modular), len(exact)) == (0, 1)

    @pytest.mark.parametrize("fn, bound, message", [
        # exp(z) and exp(z/(1-z)): Dold's congruences fail, no integral series
        (lambda n: int(n == 1), 6,
         "series requires recurrence order 8, exceeding the bound 6"),
        (lambda n: n, 6,
         "series requires recurrence order 8, exceeding the bound 6"),
    ])
    def test_dold_breaking_terms_take_the_exact_route(self, monkeypatch, fn,
                                                      bound, message):
        modular = _spy(monkeypatch, "_modular_fit")
        with pytest.raises(NotRational) as e:
            zeta_from_terms(_oracle(fn, bound))
        assert str(e.value) == message
        assert modular == []

    def test_order_over_the_bound_stops_at_the_first_prime(self, monkeypatch):
        # sum of divisors: exp(sum sigma(n) z^n / n) = prod 1/(1 - z^k),
        # the integral partition series, which is not rational
        calls = _spy(monkeypatch, "_berlekamp_massey_mod")
        seq = _oracle(lambda n: sum(d for d in range(1, n + 1) if n % d == 0), 3)
        with pytest.raises(NotRational,
                           match=r"^series requires recurrence order 5, "
                                 r"exceeding the bound 3$"):
            zeta_from_terms(seq)
        assert [p.bit_length() for _, p in calls] == [127]

    def test_failed_window_check_reaches_the_exact_message(self, monkeypatch):
        # the fit window is intact, so the first prime fits the true
        # denominator, whose check fails where the series was perturbed,
        # modulo p too: no later prime can pass, and the exact fit raises
        f = RationalFunction([1, 2, -2], [1, -4, -8])
        b = 3
        calls = _spy(monkeypatch, "_berlekamp_massey_mod")
        for k in range(2 * b + 4, 3 * b + 5):
            calls.clear()
            seq = _oracle(lambda n, a=_tail_perturbed(f, b, k): a[n - 1], b)
            with pytest.raises(NotRational) as e:
                zeta_from_terms(seq)
            assert str(e.value) == (
                f"recurrence fit fails at series index {k}; the sequence is "
                f"not rational within degree bound {b}")
            assert [p.bit_length() for _, p in calls] == [127]

    @pytest.mark.parametrize("seed", range(3))
    def test_ladder_rebuilds_need_no_exact_fit(self, monkeypatch, seed):
        def refuse(s):
            raise AssertionError("the exact Berlekamp-Massey was reached")

        monkeypatch.setattr(zetafix.ratfunc, "_berlekamp_massey", refuse)
        twisted = 0
        for spec, f in ladder_instances(seed):
            ctx = map_context(spec, f)
            assert ctx.l_zeta.function.den.degree >= 1
            if ctx.split.is_proper:
                zeta_from_terms(ctx.twisted_seq)
                twisted += 1
        assert twisted == 8


def _random_zeta(rng) -> RationalFunction:
    num = Polynomial([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
    den = Polynomial([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
    return RationalFunction(num, den)


def _rebuild_failure(seq) -> int | None:
    """The series index at which zeta_from_terms(seq) reports that its
    fit fails, or None when it returns."""
    try:
        zeta_from_terms(seq)
    except NotRational as e:
        return int(str(e).split("series index ")[1].split(";")[0])
    return None


def _certify(n_seq, source, sigma, eps, formula) -> RationalFunction:
    """The sign-formula certificate of MapContext.n_zeta on a split with
    sigma = (-1)^n and eps = (-1)^(p+n), where the substitution and
    inversion of source's zeta are made to return formula."""
    n = (1 - sigma) // 2
    split = PlusSplit((), False, n + (1 - eps) // 2, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(RationalFunction, "compose_scale",
                  lambda self, c: formula if eps == 1 else formula.inverse())
        return _sign_formula_zeta(source, split, n_seq)


def _accepts(n_seq, source, sigma, eps, formula) -> bool:
    """Whether the sign-formula certificate of MapContext.n_zeta passes."""
    try:
        _certify(n_seq, source, sigma, eps, formula)
    except NielsenFormulaMismatch:
        return False
    return True


def _rebuilds_to(seq, f) -> bool:
    try:
        return zeta_from_terms(seq) == f
    except NotRational:
        return False


def _sign_formula(f, sigma, eps):
    g = f.compose_scale(sigma)
    return g if eps == 1 else g.inverse()


class TestVerifyZeta:
    """The termwise certificate of MapContext.n_zeta accepts exactly when
    zeta_from_terms(n_seq) would return the sign-formula zeta: the source
    S is certified for its sequence s, and n_seq is read against
    eps sigma^n s(n), past s's window through s's tail.  A term that
    fails it fails where the rebuild's window check fails first."""

    @staticmethod
    def _source(f, b):
        sums = log_sums(f, 3 * b + 4)
        seq = SequenceOracle(lambda n, s=sums: s[n - 1], b, name="source",
                             zeta=zeta_from_terms)
        assert seq.zeta == f
        return seq

    @staticmethod
    def _signed(source, sigma, eps, b, k=None, delta=0):
        """eps sigma^n s(n), moved by delta at n = k, with bound b."""
        return _oracle(lambda n: eps * sigma ** n * source(n) + delta * (n == k), b)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_rebuild(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            f, g = _random_zeta(rng), _random_zeta(rng)
            b = max(f.den.degree, f.num.degree + 1, 1)
            source = self._source(f, b)
            for sigma, eps in itertools.product((1, -1), repeat=2):
                formula = _sign_formula(f, sigma, eps)
                seq = self._signed(source, sigma, eps, b + 1)
                assert _accepts(seq, source, sigma, eps, formula)
                assert _rebuilds_to(seq, formula)
                assert _accepts(seq, source, sigma, eps, g) == \
                    _rebuilds_to(seq, g) == (g == formula)

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_series_fail_at_the_same_index(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(4):
            f = _random_zeta(rng)
            b = max(f.den.degree, f.num.degree + 1, 1)
            source = self._source(f, b)
            sigma, eps = rng.choice((1, -1)), rng.choice((1, -1))
            formula = _sign_formula(f, sigma, eps)
            top = 3 * (b + 1) + 4
            for k in range(2 * (b + 1) + 5, top + 1):
                seq = self._signed(source, sigma, eps, b + 1, k,
                                   rng.choice([-2, -1, 1, 2]))
                with pytest.raises(NielsenFormulaMismatch, match=rf"^N\(f\^{k}\) = "):
                    _certify(seq, source, sigma, eps, formula)
                assert _rebuild_failure(seq) == k

    def test_perturbed_anywhere_fails_with_the_rebuild(self):
        # a term in N's window, past the source's window too, fails both;
        # one past N's window neither
        rng = random.Random(99)
        for _ in range(12):
            f = _random_zeta(rng)
            b = max(f.den.degree, f.num.degree + 1, 1)
            source = self._source(f, b)
            sigma, eps = rng.choice((1, -1)), rng.choice((1, -1))
            formula = _sign_formula(f, sigma, eps)
            top = 3 * (b + 1) + 4
            for k in range(1, top + 4):
                seq = self._signed(source, sigma, eps, b + 1, k,
                                   rng.choice([-2, -1, 1, 2]))
                assert _accepts(seq, source, sigma, eps, formula) == \
                    _rebuilds_to(seq, formula) == (k > top)

    def test_order_over_the_bound_fails(self):
        f = RationalFunction([1, 2], [1, -2])      # order 2
        source = self._source(f, 2)
        for bound, ok in ((2, True), (1, False)):
            seq = _oracle(lambda n: source(n), bound)
            assert _accepts(seq, source, 1, 1, f) == _rebuilds_to(seq, f) == ok

    def test_a_faulty_transform_fails(self):
        # the stored forms are compared directly: a formula that skipped
        # the substitution z -> -z or the inversion is refused although
        # every term check would pass for the true formula
        f = RationalFunction([1, 2, -2], [1, -4, -8])
        source = self._source(f, 3)
        for sigma, eps in ((-1, 1), (1, -1), (-1, -1)):
            seq = self._signed(source, sigma, eps, 4)
            assert _accepts(seq, source, sigma, eps, _sign_formula(f, sigma, eps))
            assert not _accepts(seq, source, sigma, eps, f)

    def test_constant_term_must_be_one(self):
        f = RationalFunction([1, 2], [1, -2])
        source = self._source(f, 2)
        seq = self._signed(source, 1, 1, 2)
        for wrong in (RationalFunction([2, 4], [1, -2]), RationalFunction([0], [1])):
            assert not _accepts(seq, source, 1, 1, wrong)
            assert not _rebuilds_to(seq, wrong)

    def test_fraction_terms(self):
        f = RationalFunction([1], [1, Fraction(-1, 2)])
        source = self._source(f, 1)
        assert [source(n) for n in (1, 9, 20)] == [Fraction(1, 2 ** n) for n in (1, 9, 20)]
        seq = self._signed(source, -1, 1, 2)
        assert _accepts(seq, source, -1, 1, _sign_formula(f, -1, 1))
        assert _rebuilds_to(seq, RationalFunction([1], [1, Fraction(1, 2)]))
        assert not _accepts(seq, source, -1, 1, RationalFunction([1], [1, Fraction(1, 3)]))

    def test_contexts_accept_what_the_rebuild_returns(self):
        # on the corpus and the fixed-point fixtures the certificate
        # accepts, and a direct rebuild of N on a fresh context returns
        # the same function
        problems = (random_instances(0, 120)
                    + [prod for prod, _, _ in product_instances(0, 30)]
                    + [(fx.spec, fx.mapping) for fx in
                       map(load_fixture, FIXED_POINT_NAMES)])
        for spec, f in problems:
            formula = MapContext(spec, f).n_zeta.function
            assert zeta_from_terms(MapContext(spec, f).n_seq) == formula, spec.name


class TestSeriesTail:
    """Past its window an oracle with a zeta returns the zeta's log
    coefficients, certifying the zeta on the first read that needs it;
    fn is never asked for such a term."""

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_tail_is_the_zeta_series(self, name):
        fx = load_fixture(name)
        ctx = MapContext(fx.spec, fx.mapping)
        for seq, zeta in ((ctx.l_seq, ctx.l_zeta), (ctx.n_seq, ctx.n_zeta)):
            sums = log_sums(zeta.function, 200)
            assert [seq(n) for n in range(1, 201)] == sums
            assert all(type(seq(n)) is int for n in range(1, 201))
            assert sorted(seq._cache) == list(range(1, 201))
        # and it is the determinant average too
        assert [ctx.l_seq(n) for n in range(1, 41)] == \
            [_lefschetz_at(ctx.kernel, n) for n in range(1, 41)]

    def test_first_read_past_the_window_certifies(self):
        # a fresh oracle asked for term 31 first reads its window 1..10,
        # certifies the zeta on it, and reads 11..31 off the zeta; fn's
        # wrong value at 31 is never made
        f = RationalFunction([1, 2], [1, -2])
        sums = log_sums(f, 40)
        made = []
        seq = SequenceOracle(lambda n: made.append(n) or sums[n - 1] + (n == 31), 2,
                             zeta=zeta_from_terms)
        assert seq(31) == sums[30]
        assert made == list(range(1, 11))
        assert seq.zeta == f and sorted(seq._cache) == list(range(1, 32))
        assert [seq(n) for n in range(1, 41)] == sums

    def test_failed_certificate_raises_every_time(self):
        # a fault in the window fails the rebuild; the oracle keeps no
        # zeta and no term past its window, so each later read fails too
        sums = log_sums(RationalFunction([1, 2], [1, -2]), 40)
        seq = SequenceOracle(lambda n: sums[n - 1] + (n == 9), 2, zeta=zeta_from_terms)
        for read in (lambda: seq(31), lambda: seq.zeta, lambda: seq(11)):
            with pytest.raises(NotRational, match="series index 9;"):
                read()
        assert sorted(seq._cache) == list(range(1, 11))

    def test_without_a_zeta_fn_makes_every_term(self):
        made = []
        seq = SequenceOracle(lambda n: made.append(n) or n, 1)
        assert seq(50) == 50 and made == [50]


class TestAnalytic:
    def test_radius(self):
        assert radius_of_convergence(RationalFunction([1, 2], [1, -2])) == \
            pytest.approx(0.5)
        assert radius_of_convergence(RationalFunction([1, 1])) == math.inf
        two_poles = RationalFunction([1], Polynomial([1, -3, 1]))
        golden = (3 - math.sqrt(5)) / 2
        assert radius_of_convergence(two_poles) == pytest.approx(golden)

    def test_radius_with_repeated_poles(self):
        # The degree-32 Nielsen zeta denominator of
        # D = diag(-3, 2, -2, -3, -3, -2): (1 - lam z)^mult.  np.roots on
        # the whole polynomial put the simple nearest pole 1/216 off by
        # about 3e-6 relative, because of the sixfold poles around it.
        poles = ((216, 1), (54, 1), (-54, 2), (36, 6), (-36, 3), (24, 3),
                 (-9, 3), (6, 3), (-6, 6), (4, 2), (-4, 1), (-1, 1))
        den = Polynomial.one()
        for lam, mult in poles:
            for _ in range(mult):
                den = den * Polynomial([1, -lam])
        assert den.degree == 32
        r = radius_of_convergence(RationalFunction([1], den))
        assert abs(r * 216 - 1) < 1e-12
        # a fivefold nearest pole
        den = Polynomial([1, 3])
        for _ in range(5):
            den = den * Polynomial([1, -4])
        assert abs(radius_of_convergence(RationalFunction([1], den)) - 0.25) < 1e-12

    def test_radius_from_integer_factors_matches_monic_fractions(self):
        # numpy gets c_i / lead of each primitive integer Yun factor,
        # correctly rounded, so the radius is the one that the floats of
        # the monic Fraction factors give, bit for bit
        rng = random.Random(52)
        for _ in range(40):
            den = Polynomial([1])
            for _ in range(rng.randint(1, 4)):
                factor = Polynomial([1] + [Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 7))
                                           for _ in range(rng.randint(1, 2))])
                den = math.prod([factor] * rng.randint(1, 3), start=den)
            if den.degree < 1:
                continue
            monic = [ref.monic(s) for s, _ in
                     _int_squarefree(_primitive(list(den.ints)))]
            roots = [np.roots([float(c) for c in reversed(s)]) for s in monic]
            expected = float(min(abs(r) for rs in roots for r in rs))
            assert radius_of_convergence(RationalFunction([1], den)) == expected

    def test_radius_beyond_the_float_range(self):
        # the pole 10^400 has no float
        with pytest.raises(OutOfFloatRange, match="radius of convergence"):
            radius_of_convergence(RationalFunction([1], [10 ** 400, -1]))
