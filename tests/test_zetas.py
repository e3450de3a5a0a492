"""Zeta reconstruction, the functional equation, asymptotics, and
torsion special values."""

import math
from fractions import Fraction

import pytest

import _fraction_ref as ref
import zetafix.invariants
import zetafix.manifolds
from _corpus import (dense_torus, isotypic_mixing_instance, ladder_instances,
                     random_instances, random_integer_matrices)
from conftest import FIXED_POINT_NAMES
from zetafix import (AffineMapSpec, Construction, ManifoldSpec,
                     NielsenFormulaMismatch, NonAcyclicBundle,
                     NotConstantRatio, NotRational, Polynomial,
                     RadiusMismatch, RationalFunction, RationalMatrix,
                     SequenceOracle, ZetaResult, ZetaUndefined, artin_mazur_zeta,
                     asymptotic_nielsen, build_report, char_poly,
                     default_degree_bound, det,
                     entropy_lower_bound,
                     exterior_power, is_virtually_unipotent, lefschetz,
                     lefschetz_zeta, load_fixture, nielsen_zeta, radius_report,
                     reidemeister_zeta, render_human, torsion_special_value,
                     verify_functional_equation)
from zetafix.errors import DimensionMismatch, NonInvariantSubspace
from zetafix.ratfunc import zeta_from_terms
from zetafix.invariants import MapContext, map_context

GOLDEN_NIELSEN = {
    "klein_bottle_ex1": RationalFunction([1, 2], [1, -2]),
    "heisenberg_ex3": RationalFunction([1, 2, -2], [1, -4, -8]),
    "torus_cat_map": RationalFunction([1, -2, 1], [1, -3, 1]),
    "identity_torus": RationalFunction.one(),
    "quarter_rotation": RationalFunction([1], [1, -2, 1]),
    "halfturn_coincidence": RationalFunction([1], Polynomial([1, -1]) *
                                             Polynomial([1, -4])),
}

GOLDEN_LEFSCHETZ = {
    "klein_bottle_ex1": RationalFunction([1, 1], [1, -1]),
    "heisenberg_ex3": RationalFunction([1, -4], [1, -1]),
    "torus_cat_map": RationalFunction([1, -3, 1], [1, -2, 1]),
    "identity_torus": RationalFunction.one(),
    "quarter_rotation": RationalFunction([1], [1, -2, 1]),
    "halfturn_coincidence": RationalFunction([1], Polynomial([1, -1]) *
                                             Polynomial([1, -4])),
}


@pytest.fixture(params=sorted(GOLDEN_NIELSEN))
def named(request):
    from zetafix import load_fixture
    return request.param, load_fixture(request.param)


class TestGoldenZetas:
    def test_lefschetz(self, named):
        name, fx = named
        assert lefschetz_zeta(fx.spec, fx.mapping).function == \
            GOLDEN_LEFSCHETZ[name]

    def test_nielsen(self, named):
        name, fx = named
        assert nielsen_zeta(fx.spec, fx.mapping).function == \
            GOLDEN_NIELSEN[name]

    def test_artin_mazur_matches_nielsen(self, named):
        name, fx = named
        am = artin_mazur_zeta(fx.spec, fx.mapping)
        assert am.which == "ArtinMazur"
        assert am.function == GOLDEN_NIELSEN[name]

    def test_string_forms(self, ex1, ex3):
        assert str(nielsen_zeta(ex1.spec, ex1.mapping).function) == \
            "(1+2z)/(1-2z)"
        assert str(nielsen_zeta(ex3.spec, ex3.mapping).function) == \
            "(1+2z-2z^2)/(1-4z-8z^2)"
        assert str(lefschetz_zeta(ex1.spec, ex1.mapping).function) == \
            "(1+z)/(1-z)"

    def test_construction_metadata(self, ex1, ex3, cat):
        c = nielsen_zeta(ex1.spec, ex1.mapping).construction
        assert (c.kind, c.case, c.p, c.n) == ("sign-formula", "plus-proper", 1, 0)
        c = nielsen_zeta(ex3.spec, ex3.mapping).construction
        assert (c.kind, c.case, c.p, c.n) == ("sign-formula", "plus-proper", 0, 2)
        c = nielsen_zeta(cat.spec, cat.mapping).construction
        assert (c.kind, c.case, c.p, c.n) == ("sign-formula", "plus-equal", 1, 0)
        assert lefschetz_zeta(cat.spec, cat.mapping).construction.kind == "direct"


class TestArtinMazurHypothesis:
    """artin_mazur_zeta is the Nielsen zeta relabelled, which is the
    Artin-Mazur zeta where the Reidemeister zeta is defined.  On
    klein_bottle_ex1 it is not: the identity's det(I - D^2) vanishes,
    and the lift (x, y) -> (x, 4y) of f^2 fixes the line y = 0.  The
    report still prints the Nielsen zeta on the ArtinMazur line."""

    def test_klein_bottle_has_a_circle_of_fixed_points(self, ex1):
        d = ex1.mapping.linear
        assert d == RationalMatrix([[-1, 0], [0, 2]])
        identity = RationalMatrix.identity(2)
        assert det(identity - d.power(2)) == 0
        assert (identity - d.power(2)).nullspace() == [(1, 0)]
        kernel = zetafix.manifolds.averaging_kernel(ex1.spec, ex1.mapping)
        labels = ex1.spec.labels()
        assert kernel.fixed_point_dets(2)[0][labels.index("I")] == 0
        with pytest.raises(ZetaUndefined):
            reidemeister_zeta(ex1.spec, ex1.mapping)
        text = render_human(build_report(ex1)).splitlines()
        assert text[8] == ("ArtinMazur zeta: (1+2z)/(1-2z)   "
                           "[sign-formula (plus-proper, p=1, n=0)]")
        assert artin_mazur_zeta(ex1.spec, ex1.mapping).function == \
            nielsen_zeta(ex1.spec, ex1.mapping).function


class TestReidemeisterZeta:
    def test_defined_cases_equal_nielsen(self, ex3, cat, halfturn):
        for fx in (ex3, cat, halfturn):
            rz = reidemeister_zeta(fx.spec, fx.mapping)
            assert rz.which == "Reidemeister"
            assert rz.function == nielsen_zeta(fx.spec, fx.mapping).function

    def test_undefined_with_witness(self, ex1, quarter, identity_torus):
        with pytest.raises(ZetaUndefined) as e:
            reidemeister_zeta(ex1.spec, ex1.mapping)
        assert (e.value.witness_n, e.value.witness_label) == (2, "I")
        assert e.value.status == "undefined"
        with pytest.raises(ZetaUndefined) as e:
            reidemeister_zeta(quarter.spec, quarter.mapping)
        assert (e.value.witness_n, e.value.witness_label) == (1, "R3")
        with pytest.raises(ZetaUndefined):
            reidemeister_zeta(identity_torus.spec, identity_torus.mapping)

    def test_rotation_witnesses_on_default_scan(self):
        spec = ManifoldSpec.make("t2", 2, [("I", [[1, 0], [0, 1]])])
        for d, n in (([[0, -1], [1, 0]], 4), ([[1, -1], [1, 0]], 6)):
            with pytest.raises(ZetaUndefined) as e:
                reidemeister_zeta(spec, AffineMapSpec.make("f", d))
            assert e.value.status == "undefined"
            assert (e.value.witness_n, e.value.witness_label) == (n, "I")

    def test_independent_sequence_reconstruction(self, ex3, cat):
        # rebuild R_f from its own sequence (the det(A - D^n) route)
        # rather than through the Nielsen shortcut
        from zetafix import reidemeister_sequence, zeta_from_terms
        for fx in (ex3, cat):
            direct = zeta_from_terms(reidemeister_sequence(fx.spec, fx.mapping))
            assert direct == reidemeister_zeta(fx.spec, fx.mapping).function


class TestExteriorProductOracle:
    @staticmethod
    def _product_formula(d: RationalMatrix) -> RationalFunction:
        out = RationalFunction.one()
        for i in range(d.dim + 1):
            factor = RationalFunction(
                ref.reverse(char_poly(exterior_power(d, i)).coeffs))
            out = out * (factor if i % 2 else factor.inverse())
        return out

    def test_trivial_holonomy_fixtures(self, cat, identity_torus):
        for fx in (cat, identity_torus):
            assert lefschetz_zeta(fx.spec, fx.mapping).function == \
                self._product_formula(fx.mapping.linear)

    def test_random_torus_maps(self):
        for d in random_integer_matrices(seed=505, count=24):
            spec = ManifoldSpec.make("t", d.dim,
                                     [("I", RationalMatrix.identity(d.dim))])
            mapping = AffineMapSpec.make("f", d)
            assert lefschetz_zeta(spec, mapping).function == \
                self._product_formula(d)

    @pytest.mark.parametrize("dim", [6, 7])
    def test_dense_torus_maps(self, dim):
        # The zetas are rebuilt modulo a Mersenne prime and certified by
        # the window check.  Their denominators have 119-bit (T^6) and
        # 251-bit (T^7) coefficients, so T^7 needs the second prime.
        # The T^6 map is the dense map whose report still raises
        # RadiusMismatch; lefschetz_zeta does not take the radius.
        if dim == 6:
            d = RationalMatrix([[-2, 2, 0, 2, 2, -1], [0, -2, -2, 0, 1, 2],
                                [-2, 0, 1, 0, 2, -1], [2, 1, 1, 2, 0, -2],
                                [2, -2, -2, 1, -2, 2], [1, 0, -1, 0, -2, -1]])
            spec = ManifoldSpec.make("t6", 6, [("I", RationalMatrix.identity(6))])
            mapping = AffineMapSpec.make("f", d)
        else:
            spec, mapping = dense_torus(dim, 1)
        zeta = lefschetz_zeta(spec, mapping).function
        assert zeta.den.degree == 2 ** (dim - 1)
        assert zeta == self._product_formula(mapping.linear)


def _proper_splits(cases):
    """The map contexts of the cases whose plus split is proper."""
    out = []
    for spec, mapping in cases:
        ctx = map_context(spec, mapping)
        try:
            if ctx.split.is_proper:
                out.append(ctx)
        except NonInvariantSubspace:
            pass
    return out


def _plant(monkeypatch, name, k):
    """Add 1 at n = k to invariants._lefschetz_at (over the whole
    holonomy only) or _nielsen_at; a context built afterwards reads it."""
    orig = getattr(zetafix.invariants, name)

    def planted(kernel, n, *members):
        return orig(kernel, n, *members) + (n == k and not any(members))

    monkeypatch.setattr(zetafix.invariants, name, planted)


def _raised(fn):
    try:
        fn()
    except Exception as e:
        return type(e), str(e)
    return None


class TestNielsenVerification:
    """n_zeta certifies the sign-formula zeta term by term against the
    Nielsen sequence, never rebuilding that series, and raises
    NielsenFormulaMismatch exactly where the rebuild would not return
    the formula."""

    NAMES = ["klein_bottle_ex1", "heisenberg_ex3", "torus_cat_map"]

    @staticmethod
    def _context(name):
        fx = load_fixture(name)
        return MapContext(fx.spec, fx.mapping)

    @pytest.mark.parametrize("name", NAMES)
    def test_series_perturbed_past_the_fit(self, monkeypatch, name):
        b = self._context(name).n_seq.degree_bound
        for k in (2 * b + 5, 3 * b + 4):
            n_k = self._context(name).n_seq(k)
            with monkeypatch.context() as m:
                _plant(m, "_nielsen_at", k)
                ctx = self._context(name)
                with pytest.raises(NotRational, match=f"series index {k};"):
                    zeta_from_terms(ctx.n_seq)
                assert _raised(lambda: ctx.n_zeta) == (NielsenFormulaMismatch, (
                    f"N(f^{k}) = {n_k + 1} differs from the sign formula's {n_k}"))

    @pytest.mark.parametrize("name", NAMES)
    def test_another_rational_series(self, monkeypatch, name):
        # the Lefschetz series rebuilds fine but is not the Nielsen one
        monkeypatch.setattr(zetafix.invariants, "_nielsen_at",
                            zetafix.invariants._lefschetz_at)
        ctx = self._context(name)
        assert zeta_from_terms(ctx.l_seq) != GOLDEN_NIELSEN[name]
        err = _raised(lambda: ctx.n_zeta)
        assert err[0] is NielsenFormulaMismatch
        assert "differs from the sign formula's" in err[1]

    def test_error_precedence(self, monkeypatch):
        # Errors are raised where the work fails: the rebuild the sign
        # formula reads (twisted for a proper split, Lefschetz otherwise)
        # is raised as itself even when the Nielsen series would fail
        # too, and otherwise the first Nielsen term that breaks the
        # formula is named.
        for name, rebuilt in (("heisenberg_ex3", "twisted_seq"),
                              ("torus_cat_map", "l_seq")):
            b = self._context(name).n_seq.degree_bound
            with monkeypatch.context() as m:
                _plant(m, "_lefschetz_at", 2 * b + 6)
                _plant(m, "_nielsen_at", 2 * b + 5)
                ctx = self._context(name)
                want = _raised(lambda: zeta_from_terms(getattr(ctx, rebuilt)))
                assert want is not None and want[0] is NotRational, name
                assert _raised(lambda: ctx.n_zeta) == want, name
            with monkeypatch.context() as m:
                _plant(m, "_nielsen_at", 2 * b + 5)
                err = _raised(lambda: self._context(name).n_zeta)
            assert err[0] is NielsenFormulaMismatch, name
            assert err[1].startswith(f"N(f^{2 * b + 5}) = "), name

    def test_failed_certificate_fails_again(self, monkeypatch):
        # the shared context keeps no zeta from a failed certificate, so
        # asking again, or for a term past the window, fails the same way
        fx = load_fixture("klein_bottle_ex1")
        zetafix.invariants.map_context.cache_clear()
        _plant(monkeypatch, "_nielsen_at", 9)
        for ask in (lambda: nielsen_zeta(fx.spec, fx.mapping),
                    lambda: nielsen_zeta(fx.spec, fx.mapping),
                    lambda: zetafix.nielsen(fx.spec, fx.mapping, 20)):
            with pytest.raises(NielsenFormulaMismatch, match=r"^N\(f\^9\) = "):
                ask()
        n_seq = map_context(fx.spec, fx.mapping).n_seq
        assert max(n_seq._cache) <= 3 * n_seq.degree_bound + 4 == 10
        zetafix.invariants.map_context.cache_clear()

    def test_compose_scale_ignoring_sigma_raises(self, monkeypatch):
        # D = diag(-2, 3) on T^2 has n = 1, so sigma = -1; a substitution
        # that ignores sigma leaves every term check passing, and only
        # the comparison of the stored forms sees it
        spec = ManifoldSpec.make("t2", 2, [("I", [[1, 0], [0, 1]])])
        f = AffineMapSpec.make("f", [[-2, 0], [0, 3]])
        assert MapContext(spec, f).split.n == 1
        monkeypatch.setattr(RationalFunction, "compose_scale", lambda self, c: self)
        with pytest.raises(NielsenFormulaMismatch, match=r"is not .*\(\(-1\)z\)\^1"):
            MapContext(spec, f).n_zeta

    def test_inverse_as_identity_raises(self, monkeypatch):
        # klein_bottle_ex1 has eps = (-1)^(p+n) = -1
        monkeypatch.setattr(RationalFunction, "inverse", lambda self: self)
        with pytest.raises(NielsenFormulaMismatch, match=r"is not .*\^-1"):
            self._context("klein_bottle_ex1").n_zeta

    def test_n_past_the_source_window_is_checked(self, monkeypatch):
        # quarter_rotation reads its source L through n = 3 B_L + 4 = 10
        # from determinants, and the certificate reads N through
        # 3 B_N + 4 = 13: N(f^k) for k in 11..13 is compared with L's tail
        ctx = self._context("quarter_rotation")
        b_l, b_n = ctx.l_seq.degree_bound, ctx.n_seq.degree_bound
        assert not ctx.split.is_proper and 3 * b_l + 4 < 3 * b_n + 4
        orig = zetafix.invariants._nielsen_at
        for k in range(3 * b_l + 5, 3 * b_n + 5):
            monkeypatch.setattr(zetafix.invariants, "_nielsen_at",
                                lambda kernel, n, k=k: orig(kernel, n) + (n == k))
            with pytest.raises(NielsenFormulaMismatch, match=rf"^N\(f\^{k}\) = "):
                self._context("quarter_rotation").n_zeta

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_verified_zeta_equals_the_rebuild(self, name):
        ctx = self._context(name)
        assert ctx.n_zeta.function == zeta_from_terms(ctx.n_seq)


def _plus_part(ctx) -> ManifoldSpec:
    """The plus part of a context's split as a spec of its own, which
    gets a kernel of its own."""
    holonomy = ctx.spec.holonomy
    return ManifoldSpec(ctx.spec.name + "+", ctx.spec.dimension,
                        tuple(holonomy[i] for i in ctx.split.plus_indices()))


class TestPlusCoverAverage:
    # The context averages its own determinants over the plus indices;
    # the plus part as a spec of its own shares no determinant with it.

    @staticmethod
    def _agree(ctx):
        sub = _plus_part(ctx)
        for n in range(1, 3 * 2 ** ctx.spec.dimension + 5):
            assert ctx.twisted_seq(n) + ctx.l_seq(n) == \
                lefschetz(sub, ctx.mapping, n), (ctx.spec.name, n)

    def test_fixtures(self):
        fixtures = [load_fixture(name) for name in FIXED_POINT_NAMES]
        contexts = _proper_splits((fx.spec, fx.mapping) for fx in fixtures)
        assert len(contexts) >= 3
        for ctx in contexts:
            self._agree(ctx)

    def test_acceptance_corpus(self):
        contexts = _proper_splits(random_instances(seed=20260817, count=200))
        assert len(contexts) >= 40
        for ctx in contexts:
            self._agree(ctx)


def _order(rf: RationalFunction) -> int:
    """The length of the linear recurrence of rf's series."""
    return max(rf.den.degree, rf.num.degree + 1)


def _fixture_cases():
    return [(fx.spec, fx.mapping)
            for fx in map(load_fixture, FIXED_POINT_NAMES)]


class TestDegreeBounds:
    """Each sequence's degree bound is at least the order of the zeta it
    feeds, found by rebuilding with the 2^dim cap instead."""

    @staticmethod
    def _check(spec, mapping):
        ctx = map_context(spec, mapping)
        cap = default_degree_bound(spec)
        seqs = [ctx.l_seq, ctx.n_seq]
        if ctx.split.is_proper:
            plus = map_context(_plus_part(ctx), mapping)
            seqs += [plus.l_seq, ctx.twisted_seq]
        for seq in seqs:
            assert seq.degree_bound <= cap
            assert _order(zeta_from_terms(seq, cap)) <= seq.degree_bound, \
                (spec.name, seq.name)
        assert ctx.n_zeta.function == zeta_from_terms(ctx.n_seq, cap)
        assert ctx.r_seq.degree_bound == ctx.n_seq.degree_bound
        return ctx

    def test_fixtures(self):
        for spec, mapping in _fixture_cases() + [isotypic_mixing_instance()]:
            self._check(spec, mapping)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ladder_lefschetz_bound_is_the_order(self, seed):
        for spec, mapping in ladder_instances(seed):
            ctx = self._check(spec, mapping)
            assert _order(ctx.l_zeta.function) == ctx.l_seq.degree_bound

    def test_ladder_bounds_below_the_cap(self):
        # d6_o1: r_i = C(6, i), so E = O = 32 and B = 33 against 2^6
        bounds = {spec.name: map_context(spec, f).l_seq.degree_bound
                  for spec, f in ladder_instances(0)}
        assert bounds["ladder_d6_o1"] == 33
        assert bounds["ladder_d5_o2"] == 9
        assert bounds["ladder_d3_o8"] == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_acceptance_corpus(self, seed):
        for spec, mapping in random_instances(seed=seed, count=200):
            self._check(spec, mapping)


class TestTwistedRebuild:
    """The twisted zeta rebuilt from L(f+^n) - L(f^n) is the quotient
    L_f+ / L_f of the two Lefschetz zetas, each rebuilt on its own (L_f+
    in the context of the plus part as a spec)."""

    @staticmethod
    def _agree(ctx):
        lplus = map_context(_plus_part(ctx), ctx.mapping).l_zeta.function
        lef = ctx.l_zeta.function
        quotient = RationalFunction(lplus.num * lef.den, lplus.den * lef.num)
        assert zeta_from_terms(ctx.twisted_seq) == quotient, ctx.spec.name

    def test_fixtures(self):
        contexts = _proper_splits(_fixture_cases())
        assert len(contexts) >= 3
        for ctx in contexts:
            self._agree(ctx)

    @pytest.mark.parametrize("seed", range(5))
    def test_acceptance_corpus(self, seed):
        contexts = _proper_splits(random_instances(seed=seed, count=200))
        assert len(contexts) >= 30
        for ctx in contexts:
            self._agree(ctx)


class TestFunctionalEquation:
    def test_heisenberg(self, ex3):
        nz = nielsen_zeta(ex3.spec, ex3.mapping)
        fe = verify_functional_equation(ex3.spec, ex3.mapping, nz)
        assert fe.holds
        assert fe.epsilon == 4 and fe.degree_d == 4
        assert fe.case == "plus-proper"

    def test_heisenberg_lefschetz(self, ex3):
        lz = lefschetz_zeta(ex3.spec, ex3.mapping)
        fe = verify_functional_equation(ex3.spec, ex3.mapping, lz)
        assert fe.epsilon == 4

    def test_cat_map(self, cat):
        nz = nielsen_zeta(cat.spec, cat.mapping)
        fe = verify_functional_equation(cat.spec, cat.mapping, nz)
        assert fe.holds and fe.epsilon == 1 and fe.degree_d == 1
        assert fe.case == "plus-equal"
        assert abs(fe.epsilon) == 1    # degree-one maps force |epsilon| = 1

    def test_identity(self, identity_torus):
        nz = nielsen_zeta(identity_torus.spec, identity_torus.mapping)
        fe = verify_functional_equation(identity_torus.spec,
                                        identity_torus.mapping, nz)
        assert fe.holds and fe.epsilon == 1

    def test_non_orientable_rejected(self, ex1):
        nz = nielsen_zeta(ex1.spec, ex1.mapping)
        with pytest.raises(ValueError):
            verify_functional_equation(ex1.spec, ex1.mapping, nz)

    def test_degree_zero_rejected(self):
        spec = ManifoldSpec.make("t1", 1, [("I", [[1]])])
        flat = AffineMapSpec.make("f", [[0]])
        nz = nielsen_zeta(spec, flat)
        with pytest.raises(ValueError):
            verify_functional_equation(spec, flat, nz)

    @pytest.mark.parametrize("rows, error", [
        # singular and incompatible with the quarter rotation R: no A'
        # gives D R = A' D
        ([[1, 0], [0, 0]], NonInvariantSubspace),
        # singular and of the wrong size
        ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], DimensionMismatch),
    ])
    def test_map_checked_before_its_degree(self, quarter, rows, error):
        lz = lefschetz_zeta(quarter.spec, quarter.mapping)
        with pytest.raises(error):
            verify_functional_equation(quarter.spec,
                                       AffineMapSpec.make("f", rows), lz)

    def test_unrealizable_holonomy_leaves_power_of_z(self, quarter, halfturn):
        # holonomy with no free realization (a genuine orbifold
        # quotient) leaves z^2 in the ratio; this must be reported, not
        # silently normalized away
        for fx in (quarter, halfturn):
            nz = nielsen_zeta(fx.spec, fx.mapping)
            with pytest.raises(NotConstantRatio):
                verify_functional_equation(fx.spec, fx.mapping, nz)


class TestFunctionalEquationIntegerRoute:
    """verify_functional_equation compares integer coefficient lists;
    the Fraction route (substitute z -> 1/(dz), divide by
    zeta^((-1)^m)) must give the same constant, or the same message."""

    @staticmethod
    def _reciprocal(function, d):
        """function(1/(dz)) on Fraction polynomials: numerator and
        denominator each become (dz)^k p(1/(dz)), k the larger degree,
        that is z^(k - deg p) times p reversed, then z -> dz."""
        k = max(function.num.degree, function.den.degree)

        def lift(p):
            shift = Polynomial([0] * (k - p.degree) + [1])
            return (shift * Polynomial(ref.reverse(p.coeffs))).compose_scale(d)

        return RationalFunction(lift(function.num), lift(function.den))

    def _fraction_route(self, fx, function):
        d = det(fx.mapping.linear)
        m = fx.spec.dimension
        g = self._reciprocal(function, d)
        h = function ** ((-1) ** m)
        top, bottom = g.num * h.den, g.den * h.num
        c = top.coeffs[-1] / bottom.coeffs[-1]
        if top != bottom * c:
            return (f"zeta(1/(dz)) / zeta(z)^((-1)^{m}) is "
                    f"{RationalFunction(top, bottom)}, not a constant")
        return c

    def _functions(self, fx):
        d = det(fx.mapping.linear)
        a = Fraction(1, 3)
        yield lefschetz_zeta(fx.spec, fx.mapping).function
        yield nielsen_zeta(fx.spec, fx.mapping).function
        # f(1/(dz)) f(z) = a^2/d for odd m, with fractional coefficients
        yield RationalFunction([1, -a], [1, -d / a])
        yield RationalFunction([1, -d / a], [1, -a])
        yield RationalFunction([1, Fraction(-1, 3), Fraction(1, 5)],
                               [1, Fraction(2, 7)])
        yield RationalFunction([1, 2], [1, Fraction(-5, 4), 3])

    @pytest.mark.parametrize("name", ["heisenberg_ex3", "torus_cat_map",
                                      "identity_torus"])
    def test_matches_fraction_route(self, name):
        fx = load_fixture(name)
        for function in self._functions(fx):
            expected = self._fraction_route(fx, function)
            zeta = ZetaResult("Lefschetz", function, Construction("direct"))
            if isinstance(expected, str):
                with pytest.raises(NotConstantRatio) as e:
                    verify_functional_equation(fx.spec, fx.mapping, zeta)
                assert str(e.value) == expected
            else:
                fe = verify_functional_equation(fx.spec, fx.mapping, zeta)
                assert fe.epsilon == expected
                assert type(fe.epsilon) is Fraction


class TestAsymptotics:
    def test_klein_bottle(self, ex1):
        assert asymptotic_nielsen(ex1.spec, ex1.mapping) == pytest.approx(2.0)
        assert entropy_lower_bound(ex1.spec, ex1.mapping) == \
            pytest.approx(math.log(2.0))
        nz = nielsen_zeta(ex1.spec, ex1.mapping)
        assert radius_report(ex1.spec, ex1.mapping, nz) == pytest.approx(0.5)

    def test_heisenberg(self, ex3):
        growth = 2 * (1 + math.sqrt(3.0))
        assert asymptotic_nielsen(ex3.spec, ex3.mapping) == \
            pytest.approx(growth, abs=1e-9)
        nz = nielsen_zeta(ex3.spec, ex3.mapping)
        r = radius_report(ex3.spec, ex3.mapping, nz)
        assert r == pytest.approx((math.sqrt(3.0) - 1) / 4, abs=1e-9)
        assert r * growth == pytest.approx(1.0, abs=1e-6)

    def test_cat_map(self, cat):
        growth = (3 + math.sqrt(5.0)) / 2
        assert asymptotic_nielsen(cat.spec, cat.mapping) == pytest.approx(growth)
        assert entropy_lower_bound(cat.spec, cat.mapping) == \
            pytest.approx(math.log(growth))
        nz = nielsen_zeta(cat.spec, cat.mapping)
        assert radius_report(cat.spec, cat.mapping, nz) == \
            pytest.approx((3 - math.sqrt(5.0)) / 2)

    def test_no_expansion(self, quarter):
        assert asymptotic_nielsen(quarter.spec, quarter.mapping) == 1.0
        assert entropy_lower_bound(quarter.spec, quarter.mapping) == 0.0
        nz = nielsen_zeta(quarter.spec, quarter.mapping)
        assert radius_report(quarter.spec, quarter.mapping, nz) == 1.0

    def test_eigenvalue_one_suppresses_check(self, identity_torus):
        spec, mapping = identity_torus.spec, identity_torus.mapping
        with pytest.warns(UserWarning):
            assert asymptotic_nielsen(spec, mapping) == 1.0
        nz = nielsen_zeta(spec, mapping)
        with pytest.warns(UserWarning):
            assert radius_report(spec, mapping, nz) == math.inf

    def test_radius_mismatch_detected(self, ex1):
        fake = ZetaResult("Nielsen", RationalFunction([1], [1, -4]),
                          Construction("direct"))
        with pytest.raises(RadiusMismatch):
            radius_report(ex1.spec, ex1.mapping, fake)

    def test_lefschetz_radius_unchecked(self, ex1):
        lz = lefschetz_zeta(ex1.spec, ex1.mapping)
        assert radius_report(ex1.spec, ex1.mapping, lz) == pytest.approx(1.0)


class TestTorsionValues:
    def test_klein_bottle_values(self, ex1):
        nz = nielsen_zeta(ex1.spec, ex1.mapping)
        # N_f(-1) = -1/3 and N_f(1) = -3
        assert torsion_special_value(nz, -1.0) == pytest.approx(3.0)
        assert torsion_special_value(nz, 1.0) == pytest.approx(1 / 3)

    def test_pole_and_zero_rejected(self, ex1):
        lz = lefschetz_zeta(ex1.spec, ex1.mapping)
        with pytest.raises(NonAcyclicBundle):
            torsion_special_value(lz, 1.0)     # pole of (1+z)/(1-z)
        with pytest.raises(NonAcyclicBundle):
            torsion_special_value(lz, -1.0)    # zero

    def test_exact_at_plus_minus_one(self):
        # L_f(-1) = 1 / (-19999999999998) and N_f(-1) is its inverse: far
        # from a zero or pole, though the coefficients are of size 1e13
        spec = ManifoldSpec.make("t2", 2, [("I", [[1, 0], [0, 1]])])
        f = AffineMapSpec.make("f", [[10 ** 13, 1], [10 ** 13, 0]])
        lz, nz = lefschetz_zeta(spec, f), nielsen_zeta(spec, f)
        assert torsion_special_value(lz, -1.0) == 19999999999998.0
        assert torsion_special_value(nz, -1.0) == 5.0000000000005e-14

    def test_off_circle_rejected(self, ex1):
        nz = nielsen_zeta(ex1.spec, ex1.mapping)
        with pytest.raises(ValueError):
            torsion_special_value(nz, 0.5)

    def test_pair_value(self, ex1):
        nz = nielsen_zeta(ex1.spec, ex1.mapping)
        lz = lefschetz_zeta(ex1.spec, ex1.mapping)
        # both have unit modulus at i, so the relative torsion is 1
        assert torsion_special_value(nz, 1j, zeta_plus=lz) == pytest.approx(1.0)
        assert torsion_special_value(nz, 1j) == pytest.approx(1.0)


class TestVirtuallyUnipotent:
    def test_nielsen_equals_lefschetz_zeta(self, identity_torus, quarter):
        for fx in (identity_torus, quarter):
            assert is_virtually_unipotent(fx.spec, fx.mapping)
            assert nielsen_zeta(fx.spec, fx.mapping).function == \
                lefschetz_zeta(fx.spec, fx.mapping).function
