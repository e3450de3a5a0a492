"""Acceptance gate: one test per numbered criterion, each printing a
single pass/fail line.  Every equality is exact unless a tolerance is
stated in the criterion itself."""

import math
import random
from fractions import Fraction

import pytest

import _fraction_ref as ref
from _corpus import random_coincidence_instances, random_instances, \
    random_integer_matrices
from conftest import FIXED_POINT_NAMES, log_sums, scalar_matrix
from zetafix import (AffineMapSpec, ManifoldSpec, Polynomial, RationalFunction,
                     RationalMatrix, SequenceOracle, ZetaUndefined,
                     asymptotic_nielsen, build_report, char_poly, check_gauss,
                     check_dold_lefschetz, coincidence_trichotomy, det,
                     entropy_lower_bound, exterior_power, klein_type,
                     lefschetz, lefschetz_sequence, lefschetz_zeta,
                     load_fixture, nielsen, nielsen_sequence, nielsen_zeta,
                     radius_report, reidemeister, reidemeister_sequence,
                     reidemeister_zeta, sol_r_sequence, torus_periodic_points,
                     zeta_from_terms)
from zetafix.errors import DegenerateFixedSet

_CORPUS = None


def corpus():
    """One shared 200-instance randomized corpus (dim <= 3, holonomy
    order <= 4, integer entries in [-3, 3])."""
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = random_instances(seed=20260817, count=200)
    return _CORPUS


def report(line: str) -> None:
    print(line)


def test_criterion_01_klein_bottle_catalog(ex1):
    spec, mapping = ex1.spec, ex1.mapping
    for n in range(1, 13):
        assert lefschetz(spec, mapping, n) == 1 - (-1) ** n
        assert nielsen(spec, mapping, n) == 2 ** n * (1 - (-1) ** n)
        expected_r = 2 ** (n + 1) if n % 2 else math.inf
        assert reidemeister(spec, mapping, n) == expected_r
    assert lefschetz_zeta(spec, mapping).function == \
        RationalFunction([1, 1], [1, -1])
    assert nielsen_zeta(spec, mapping).function == \
        RationalFunction([1, 2], [1, -2])
    with pytest.raises(ZetaUndefined):
        reidemeister_zeta(spec, mapping)
    doc = build_report(ex1)
    assert doc["zetas"][2] == {
        "which": "Reidemeister", "defined": False,
        "reason": "R(f^2) is infinite (holonomy element 'I')"}
    report("criterion 01 (Klein bottle numbers and zetas, exact): PASS")


def test_criterion_02_heisenberg_quotient(ex3):
    from zetafix import verify_functional_equation
    spec, mapping = ex3.spec, ex3.mapping
    golden = RationalFunction([1, 2, -2], [1, -4, -8])
    nz = nielsen_zeta(spec, mapping)
    rz = reidemeister_zeta(spec, mapping)
    assert nz.function == golden
    assert rz.function == golden
    assert nielsen(spec, mapping) == 6
    assert lefschetz(spec, mapping) == -3
    fe = verify_functional_equation(spec, mapping, nz)
    assert fe.holds
    assert fe.epsilon == 4 == det(mapping.linear)
    assert fe.case == "plus-proper"
    assert spec.dimension == 3
    report("criterion 02 (Heisenberg-quotient zeta and functional "
           "equation, exact): PASS")


def test_criterion_03_asymptotics(ex1, ex3):
    assert asymptotic_nielsen(ex1.spec, ex1.mapping) == pytest.approx(2.0,
                                                                      abs=1e-9)
    nz1 = nielsen_zeta(ex1.spec, ex1.mapping)
    assert radius_report(ex1.spec, ex1.mapping, nz1) == pytest.approx(
        0.5, abs=1e-9)
    assert entropy_lower_bound(ex1.spec, ex1.mapping) == pytest.approx(
        math.log(2.0), abs=1e-9)
    nz3 = nielsen_zeta(ex3.spec, ex3.mapping)
    r = radius_report(ex3.spec, ex3.mapping, nz3)
    assert r == pytest.approx((math.sqrt(3.0) - 1.0) / 4.0, abs=1e-9)
    growth = asymptotic_nielsen(ex3.spec, ex3.mapping)
    assert r * growth == pytest.approx(1.0, abs=1e-6)
    report("criterion 03 (growth rate, entropy, zeta radius): PASS")


def test_criterion_04_klein_bottle_family():
    table = {(3, 5): 15.0, (-3, 5): 15.0, (3, 0): 3.0, (-1, 5): 5.0}
    for (r, q), expected_growth in table.items():
        fx = klein_type(r, 1, q)
        for n in range(1, 11):
            expected = abs(q ** n * (1 - r ** n)) if q else abs(1 - r ** n)
            assert nielsen(fx.spec, fx.mapping, n) == expected, (r, q, n)
        assert asymptotic_nielsen(fx.spec, fx.mapping) == pytest.approx(
            expected_growth, abs=1e-9), (r, q)
    report("criterion 04 (Klein-bottle map family, exact numbers and "
           "growth): PASS")


def test_criterion_05_sign_formula_equals_averaging():
    # the log-derivative sums of the sign-formula zeta are
    # (-1)^(p+(k+1)n) L(f^k), or that sign times L(f+^k) - L(f^k) for a
    # proper split: they must be the averaged N(f^k)
    fixtures = [(fx.spec, fx.mapping)
                for fx in map(load_fixture, FIXED_POINT_NAMES)]
    checked = 0
    for spec, mapping in fixtures + corpus():
        assert log_sums(nielsen_zeta(spec, mapping).function, 12) == \
            [nielsen(spec, mapping, k) for k in range(1, 13)]
        checked += 12
    report(f"criterion 05 (sign formula == averaging on {checked} "
           f"iterate checks, exact): PASS")


def test_criterion_06_reidemeister_equals_nielsen_when_finite():
    finite = 0
    for spec, mapping in corpus():
        for n in range(1, 13):
            r = reidemeister(spec, mapping, n)
            if r is not math.inf:
                assert r == nielsen(spec, mapping, n)
                finite += 1
    assert finite >= 500
    report(f"criterion 06 (finite R == N on {finite} iterate checks, "
           "exact): PASS")


def test_criterion_07_divisibility_laws(ex3):
    rep = check_gauss(reidemeister_sequence(ex3.spec, ex3.mapping), 30)
    assert rep.passed and not rep.skipped
    assert check_gauss(sol_r_sequence(2).oracle(), 30).passed
    for name in FIXED_POINT_NAMES:
        fx = load_fixture(name)
        assert check_dold_lefschetz(fx.spec, fx.mapping, 30).passed, name
    report("criterion 07 (Gauss and Dold congruence laws hold): PASS")


def test_criterion_07_circle_degree_minus_one_claimed_violation():
    """A degree -1 circle map has N(f^n) = 2 for odd n and 0 for even n.
    It has been claimed that this sequence violates the divisor-sum law
    at n = 90 with residue -2 (i.e. 88 mod 90).  The claim drops the
    divisor d = 10: the complete sum at n = 90 is 0, and the sequence
    is 1^n - (-1)^n, a difference of trace sequences, so the law holds
    at every n.  The test asserts the refutation; a positive control
    shows that a real -2 at n = 90 would be reported in that form."""
    def circle(n):
        return 2 if n % 2 else 0

    seq = SequenceOracle(circle, 2, name="circle_deg_-1")
    rep = check_gauss(seq, 120)
    assert rep.violations == ()
    assert 90 in rep.checked_range

    # the divisor sum at n = 90 = 2 * 3^2 * 5, with Moebius values
    # written out rather than taken from the library
    mu_90 = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 9: 0, 10: 1, 15: 1,
             18: 0, 30: -1, 45: 0, 90: 0}
    assert sorted(mu_90) == [d for d in range(1, 91) if 90 % d == 0]
    assert sum(m * circle(90 // d) for d, m in mu_90.items()) == 0
    truncated = sum(m * circle(90 // d) for d, m in mu_90.items() if d != 10)
    assert truncated == -2 and truncated % 90 == 88

    # positive control: lower the term at 90 by 2 and the check must
    # report exactly the claimed residue there, and nothing else
    lowered = SequenceOracle(lambda n: circle(n) - (2 if n == 90 else 0), 2,
                             name="circle_deg_-1_lowered_at_90")
    assert check_gauss(lowered, 120).violations == ((90, 88),)

    # the hand-written sequence is the library's Nielsen sequence of the
    # map z -> z^-1 on the circle (trivial holonomy, D = [[-1]])
    spec = ManifoldSpec.make("circle", 1, [("I", [[1]])])
    lib = nielsen_sequence(spec, AffineMapSpec.make("f", [[-1]]))
    assert [lib(n) for n in range(1, 121)] == \
        [circle(n) for n in range(1, 121)]
    assert check_gauss(lib, 120).violations == ()

    report("criterion 07 (claimed divisor-sum violation at n = 90 for the "
           "degree -1 circle map refuted: full sum 0, -2 only without "
           "d = 10): PASS")


def test_criterion_08_torus_periodic_point_oracle():
    checked = 0
    for d in random_integer_matrices(seed=80808, count=100):
        spec = ManifoldSpec.make("t", d.dim,
                                 [("I", RationalMatrix.identity(d.dim))])
        mapping = AffineMapSpec.make("f", d)
        for n in range(1, 7):
            try:
                count = torus_periodic_points(d, n)
            except DegenerateFixedSet:
                continue
            assert count == nielsen(spec, mapping, n)
            checked += 1
    assert checked >= 300
    report(f"criterion 08 (periodic-point count == Nielsen number on "
           f"{checked} torus checks, exact): PASS")


def test_criterion_09_coincidence_trichotomy(halfturn):
    rep = coincidence_trichotomy(halfturn.spec, halfturn.mapping,
                                 halfturn.mapping2)
    assert rep.predicted_nielsen == rep.averaged_nielsen == 13
    spec = ManifoldSpec.make("hm2", 2, [("I", [[1, 0], [0, 1]]),
                                        ("J", [[-1, 0], [0, -1]])])
    rep = coincidence_trichotomy(spec,
                                 AffineMapSpec.make("f", [[6, 0], [0, 2]]),
                                 AffineMapSpec.make("g", [[7, 0], [0, -1]]))
    assert rep.case == 3
    assert rep.predicted_nielsen == rep.averaged_nielsen == 8
    for spec, f, g in random_coincidence_instances(seed=90909, count=100):
        rep = coincidence_trichotomy(spec, f, g)
        assert rep.predicted_nielsen == rep.averaged_nielsen
    report("criterion 09 (trichotomy prediction == averaging on the two "
           "worked examples and 100 random instances, exact): PASS")


def _exp_series(terms, top):
    """exp(sum_{n>=1} a_n z^n / n) to order top, exactly."""
    a = [Fraction(t) for t in terms]
    f = [Fraction(1)]
    for n in range(1, top + 1):
        f.append(sum(a[k - 1] * f[n - k] for k in range(1, n + 1)) / n)
    return f


def test_criterion_10_property_suite():
    rng = random.Random(1001)

    # exterior powers are multiplicative in every degree
    for _ in range(20):
        dim = rng.randint(2, 4)
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(dim)]
                            for _ in range(dim)])
        b = RationalMatrix([[rng.randint(-3, 3) for _ in range(dim)]
                            for _ in range(dim)])
        for i in range(dim + 1):
            assert exterior_power(a @ b, i) == \
                exterior_power(a, i) @ exterior_power(b, i)
        # Cayley-Hamilton: the characteristic polynomial annihilates
        p = char_poly(a)
        zero = scalar_matrix(dim, 0)
        acc = zero
        for c in reversed(p.coeffs):
            acc = acc @ a + scalar_matrix(dim, c)
        assert acc == zero
        # alternating trace identity
        ident = RationalMatrix.identity(dim)
        assert det(ident - a) == sum(
            (-1) ** i * ref.trace(exterior_power(a, i).rows)
            for i in range(dim + 1))

    # zeta reconstruction round-trips random rational functions
    for _ in range(20):
        num = Polynomial([1] + [rng.randint(-3, 3)
                                for _ in range(rng.randint(0, 3))])
        den = Polynomial([1] + [rng.randint(-3, 3)
                                for _ in range(rng.randint(0, 3))])
        f = RationalFunction(num, den)
        bound = max(f.den.degree, f.num.degree + 1, 1)
        sums = log_sums(f, 3 * bound + 4)
        seq = SequenceOracle(lambda n, s=sums: s[n - 1], bound, name="rt")
        assert zeta_from_terms(seq) == f

    # every emitted zeta agrees with the exponential of its own
    # sequence through 3 |Phi| 2^dim + 4 terms, well past the 3B + 4
    # that reconstruction itself checks with B = 2^dim
    zeta_checks = 0
    for name in FIXED_POINT_NAMES:
        fx = load_fixture(name)
        spec, mapping = fx.spec, fx.mapping
        top = 3 * spec.order * 2 ** spec.dimension + 4
        emitted = [(lefschetz_zeta(spec, mapping),
                    lefschetz_sequence(spec, mapping)),
                   (nielsen_zeta(spec, mapping),
                    nielsen_sequence(spec, mapping)),
                   (nielsen_zeta(spec, mapping),    # ArtinMazur shares N_f
                    nielsen_sequence(spec, mapping))]
        try:
            emitted.append((reidemeister_zeta(spec, mapping),
                            reidemeister_sequence(spec, mapping)))
        except ZetaUndefined:
            pass
        for zeta, seq in emitted:
            terms = [seq(n) for n in range(1, top + 1)]
            f = zeta.function
            assert ref.series(f.num.coeffs, f.den.coeffs, top) == \
                _exp_series(terms, top), \
                (name, zeta.which)
            zeta_checks += 1
    report(f"criterion 10 (algebra property suite and {zeta_checks} "
           "series-consistency checks, exact): PASS")
