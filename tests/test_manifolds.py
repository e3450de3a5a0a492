"""Holonomy validation, the orientation split, and zeta definedness."""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import zetafix.manifolds
import zetafix.zetas
from _corpus import (CYCLIC_ORIENTABLE, GROUPS, compatible,
                     isotypic_mixing_instance, random_instances, rref)
from conftest import FIXED_POINT_NAMES, _record_calls, scalar_matrix
from zetafix import (AffineMapSpec, DimensionMismatch, ManifoldSpec, NotAGroup,
                     NonInvariantSubspace, Polynomial, RationalMatrix,
                     build_report, builtin_fixtures, char_poly,
                     coincidence_numbers, compute_plus_split,
                     ensure_compatible, exterior_power, exterior_ranks,
                     is_virtually_unipotent, klein_type, load_fixture,
                     max_root_of_unity_order, reidemeister_zeta_defined,
                     sol_r_sequence, validate_spec)
from zetafix.algebra import AveragingKernel


def _spec(dim, holonomy, name="m"):
    return ManifoldSpec.make(name, dim, holonomy)


def _expanding_dim(d):
    """The number of eigenvalues of d outside the unit circle, from numpy.
    For integer matrices of size <= 3 every such modulus is at least 1.15
    (the smallest Mahler measure of degree <= 3 is 1.32), and roots on the
    circle move by far less than 0.05 numerically."""
    assert d.is_integral() and d.dim <= 3
    values = np.linalg.eigvals(np.array([[float(x) for x in r] for r in d.rows]))
    return int(np.sum(np.abs(values) > 1.05))


class TestValidate:
    def test_all_builtin_specs_validate(self):
        for name, fx in builtin_fixtures().items():
            if hasattr(fx, "spec"):
                validate_spec(fx.spec)

    def test_orientability_flags(self, ex1, ex3, cat, halfturn, quarter):
        assert not ex1.spec.orientable
        assert ex3.spec.orientable
        assert cat.spec.orientable
        assert halfturn.spec.orientable
        assert quarter.spec.orientable

    def test_element_orders(self, ex1, quarter):
        rep = validate_spec(ex1.spec)
        assert dict(rep.element_orders) == {"I": 1, "A": 2}
        rep = validate_spec(quarter.spec)
        assert dict(rep.element_orders) == {"I": 1, "R": 4, "R2": 2, "R3": 4}

    def test_empty_holonomy(self):
        with pytest.raises(NotAGroup, match="^holonomy is empty$"):
            validate_spec(_spec(2, []))

    def test_missing_identity(self):
        with pytest.raises(NotAGroup,
                           match="^holonomy does not contain the identity$"):
            validate_spec(_spec(2, [("A", [[-1, 0], [0, -1]])]))

    def test_not_closed(self):
        with pytest.raises(
                NotAGroup,
                match=re.escape("product 'R'*'R' is not in the holonomy")):
            validate_spec(_spec(2, [("I", [[1, 0], [0, 1]]),
                                    ("R", [[0, -1], [1, 0]])]))

    def test_duplicate_label(self):
        with pytest.raises(NotAGroup, match="^duplicate holonomy labels$"):
            validate_spec(_spec(1, [("I", [[1]]), ("I", [[-1]])]))

    def test_duplicate_matrix(self):
        with pytest.raises(NotAGroup,
                           match="^elements 'I' and 'J' share a matrix$"):
            validate_spec(_spec(1, [("I", [[1]]), ("J", [[1]])]))

    def test_singular_element(self):
        with pytest.raises(NotAGroup, match="^element 'Z' is singular$"):
            validate_spec(_spec(1, [("I", [[1]]), ("Z", [[0]])]))

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatch,
                           match="^dimension must be >= 1$"):
            validate_spec(_spec(0, [("I", [[1]])]))

    def test_wrong_size_element(self):
        with pytest.raises(
                DimensionMismatch,
                match="^holonomy element 'I' is 1x1, expected 2x2$"):
            validate_spec(_spec(2, [("I", [[1]])]))


class TestGroupTable:
    """validate_spec takes the |Phi|^2 closure products once per spec
    object, on the elements' integer forms, and answers inverses and
    orders from the resulting table."""

    @staticmethod
    def _count_products(monkeypatch):
        calls = [0]
        orig = zetafix.manifolds._int_matmul

        def counted(a, b):
            calls[0] += 1
            return orig(a, b)

        monkeypatch.setattr(zetafix.manifolds, "_int_matmul", counted)
        # and no RationalMatrix product at all
        monkeypatch.setattr(RationalMatrix, "__matmul__", None)
        return calls

    @staticmethod
    def _sign_group(dim):
        return _spec(dim, [
            ("".join("+-"[s < 0] for s in signs),
             [[signs[i] if i == j else 0 for j in range(dim)]
              for i in range(dim)])
            for signs in itertools.product((1, -1), repeat=dim)], "signs")

    @pytest.mark.parametrize("which, products", [("quarter", 16),
                                                  ("signs", 64)])
    def test_products_taken_once(self, monkeypatch, quarter, which, products):
        spec = quarter.spec if which == "quarter" else self._sign_group(3)
        spec = ManifoldSpec(spec.name, spec.dimension, spec.holonomy)
        calls = self._count_products(monkeypatch)
        first = validate_spec(spec)
        assert calls[0] == products == spec.order ** 2
        assert validate_spec(spec) is first
        assert calls[0] == products

    def test_equal_spec_object_checked_afresh(self, monkeypatch, quarter):
        # no state outside the spec object: an equal copy is validated again
        validate_spec(quarter.spec)
        copy = ManifoldSpec(quarter.spec.name, quarter.spec.dimension,
                            quarter.spec.holonomy)
        calls = self._count_products(monkeypatch)
        assert validate_spec(copy) == validate_spec(quarter.spec)
        assert calls[0] == 16

    def test_table(self, quarter):
        rep = validate_spec(quarter.spec)
        assert rep.identity == "I"
        assert len(rep.products) == 16
        assert rep.products["R", "R"] == "R2"
        assert rep.products["R", "R3"] == rep.products["R3", "R"] == "I"
        for (a, b), c in rep.products.items():
            assert quarter.spec.matrix(a) @ quarter.spec.matrix(b) == \
                quarter.spec.matrix(c)

    @staticmethod
    def _conjugated(spec, drop=None):
        # P A P^-1 with P = [[1, 1/2], [0, 1]]: entries with denominator 2
        p = RationalMatrix([[1, Fraction(1, 2)], [0, 1]])
        p_inv = RationalMatrix([[1, Fraction(-1, 2)], [0, 1]])
        return _spec(2, [(l, p @ a @ p_inv) for l, a in spec.holonomy
                         if l != drop], "conjugated")

    def test_rational_entries(self, quarter):
        conj = self._conjugated(quarter.spec)
        assert any(x.denominator > 1 for _, a in conj.holonomy
                   for row in a.rows for x in row)
        rep, base = validate_spec(conj), validate_spec(quarter.spec)
        assert rep.identity == base.identity
        assert dict(rep.products) == dict(base.products)
        assert rep.element_orders == base.element_orders
        assert rep.orientable == base.orientable
        assert rep.exterior_traces == base.exterior_traces

    @pytest.mark.parametrize("drop", ["R", "R2", "R3"])
    def test_rational_entries_not_closed(self, quarter, drop):
        with pytest.raises(NotAGroup) as plain:
            validate_spec(_spec(2, [(l, a) for l, a in quarter.spec.holonomy
                                    if l != drop]))
        with pytest.raises(NotAGroup) as conj:
            validate_spec(self._conjugated(quarter.spec, drop))
        assert str(conj.value) == str(plain.value)
        assert re.fullmatch(r"product '\w+'\*'\w+' is not in the holonomy",
                            str(conj.value))
        if drop == "R3":
            assert str(conj.value) == "product 'R'*'R2' is not in the holonomy"

    def test_element_orders_of_sign_group(self):
        rep = validate_spec(self._sign_group(3))
        assert rep.identity == "+++"
        assert dict(rep.element_orders) == {
            l: 1 if l == "+++" else 2 for l in self._sign_group(3).labels()}
        assert not rep.orientable


class TestExteriorRanks:
    """exterior_ranks against the ranks of the averaged exterior powers,
    computed here by row reduction."""

    @staticmethod
    def _by_rref(spec, members=None):
        mats = [a for _, a in spec.holonomy]
        if members is not None:
            mats = [mats[k] for k in members]
        ranks = []
        for i in range(spec.dimension + 1):
            total = exterior_power(mats[0], i)
            for a in mats[1:]:
                total = total + exterior_power(a, i)
            avg = total @ scalar_matrix(total.dim, Fraction(1, len(mats)))
            ranks.append(len(rref(avg.rows, avg.dim)[1]))
        return ranks

    @staticmethod
    def _specs():
        names = FIXED_POINT_NAMES + ("halfturn_coincidence",)
        return ([load_fixture(n).spec for n in names]
                + [spec for spec, _ in GROUPS + CYCLIC_ORIENTABLE]
                + [isotypic_mixing_instance()[0]])

    def test_every_fixture_and_corpus_group(self):
        for spec in self._specs():
            ranks = self._by_rref(spec)
            assert exterior_ranks(spec) == (sum(ranks[0::2]),
                                            sum(ranks[1::2])), spec.name
            assert ranks[0] == 1

    def test_plus_subgroups(self):
        cases = [(fx.spec, fx.mapping)
                 for fx in map(load_fixture, FIXED_POINT_NAMES)]
        proper = 0
        for spec, mapping in cases + random_instances(7, 200):
            split = compute_plus_split(spec, mapping)
            if not split.is_proper:
                continue
            proper += 1
            members = split.plus_indices()
            ranks = self._by_rref(spec, members)
            assert exterior_ranks(spec, members) == (sum(ranks[0::2]),
                                                     sum(ranks[1::2]))
        assert proper >= 30

    def test_a_non_subgroup_has_no_integer_ranks(self, quarter):
        # {I, R, R3}: the averaged trace is 2/3
        members = [quarter.spec.labels().index(l) for l in ("I", "R", "R3")]
        with pytest.raises(NotAGroup, match="trace 2/3"):
            exterior_ranks(quarter.spec, members)


class TestCompatibility:
    def test_dimension_checked(self, ex1):
        with pytest.raises(DimensionMismatch):
            ensure_compatible(ex1.spec, AffineMapSpec.make("f", [[2]]))

    def test_translation_length_checked(self, ex1):
        bad = AffineMapSpec.make("f", ex1.mapping.linear, translation=(1,))
        with pytest.raises(DimensionMismatch):
            ensure_compatible(ex1.spec, bad)

    def test_ok(self, ex3):
        ensure_compatible(ex3.spec, ex3.mapping)

    def test_klein_bottle_shear_rejected(self, ex1):
        # D A = [[2,-1],[0,-3]] is neither D nor A D = [[2,1],[0,-3]]
        bad = AffineMapSpec.make("f", [[2, 1], [0, 3]])
        with pytest.raises(NonInvariantSubspace) as err:
            ensure_compatible(ex1.spec, bad)
        assert str(err.value) == (
            "map 'f' is incompatible with holonomy element 'A': "
            "D*A = A'*D holds for no holonomy element A'")

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_reference(self, seed):
        # random linear parts, mostly incompatible, over the corpus groups
        # (fixed-point and cyclic), plus the compatible corpus draws
        rng = random.Random(seed)
        groups = [g for g, _ in GROUPS + CYCLIC_ORIENTABLE]
        pairs = [(spec, m.linear) for spec, m in random_instances(seed, 40)]
        for _ in range(160):
            spec = rng.choice(groups)
            pairs.append((spec, RationalMatrix(
                [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(spec.dimension)]
                 for _ in range(spec.dimension)])))
        verdicts = set()
        for spec, d in pairs:
            expected = compatible(spec, d)
            verdicts.add(expected)
            mapping = AffineMapSpec.make("f", d)
            if expected:
                ensure_compatible(spec, mapping)
            else:
                with pytest.raises(NonInvariantSubspace):
                    ensure_compatible(spec, mapping)
        assert verdicts == {True, False}

    def test_each_map_of_a_coincidence_checked(self, halfturn):
        spec = _spec(2, [("I", [[1, 0], [0, 1]]), ("A", [[1, 0], [0, -1]])])
        good = AffineMapSpec.make("f", [[2, 0], [0, 3]])
        bad = AffineMapSpec.make("g", [[2, 1], [0, 3]])
        for f, g in ((good, bad), (bad, good)):
            with pytest.raises(NonInvariantSubspace, match="map 'g'"):
                coincidence_numbers(spec, f, g)
        coincidence_numbers(spec, good, good)
        # -I commutes with every D, so the half-turn holonomy takes both
        coincidence_numbers(halfturn.spec, good, bad)


class TestEntryPointsValidate:
    """Every entry point validates the holonomy before it computes: a
    spec built without parsing is checked as parsing would check it."""

    F = AffineMapSpec.make("f", [[2, 0], [0, 3]])
    CALLS = {
        "lefschetz": lambda s, f: zetafix.lefschetz(s, f),
        "nielsen": lambda s, f: zetafix.nielsen(s, f, 2),
        "reidemeister": lambda s, f: zetafix.reidemeister(s, f),
        "lefschetz_sequence": lambda s, f: zetafix.lefschetz_sequence(s, f)(1),
        "nielsen_sequence": lambda s, f: zetafix.nielsen_sequence(s, f)(1),
        "reidemeister_sequence":
            lambda s, f: zetafix.reidemeister_sequence(s, f)(1),
        "coincidence_numbers": lambda s, f: coincidence_numbers(s, f, f),
        "coincidence_trichotomy":
            lambda s, f: zetafix.coincidence_trichotomy(s, f, f),
        "compute_plus_split": compute_plus_split,
        "is_virtually_unipotent": is_virtually_unipotent,
        "reidemeister_zeta_defined": reidemeister_zeta_defined,
        "nielsen_zeta": zetafix.nielsen_zeta,
        "orientable": lambda s, f: s.orientable,
        "asymptotic_nielsen": zetafix.asymptotic_nielsen,
        "entropy_lower_bound": zetafix.entropy_lower_bound,
        "radius_report": lambda s, f: zetafix.radius_report(s, f, zetafix.ZetaResult(
            "Nielsen", zetafix.RationalFunction([1], [1, -6]),
            zetafix.Construction("direct"))),
        "verify_functional_equation":
            lambda s, f: zetafix.verify_functional_equation(s, f, zetafix.ZetaResult(
                "Lefschetz", zetafix.RationalFunction([1]),
                zetafix.Construction("direct"))),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_holonomy_without_identity(self, call):
        # the average over {J} alone reads L = -6
        spec = _spec(2, [("J", [[-1, 0], [0, 1]])])
        with pytest.raises(NotAGroup, match="identity"):
            self.CALLS[call](spec, self.F)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_element_of_the_wrong_size(self, call):
        spec = _spec(2, [("I", [[1, 0], [0, 1]]),
                         ("J", [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])])
        with pytest.raises(DimensionMismatch, match="'J' is 3x3"):
            self.CALLS[call](spec, self.F)

    @pytest.mark.parametrize("call", sorted(set(CALLS) - {"orientable"}))
    def test_incompatible_map(self, call):
        # the Klein-bottle shear: D A = A' D holds for no A' when A is the
        # reflection, and every (spec, map) entry point says so as
        # ensure_compatible does
        spec = _spec(2, [("I", [[1, 0], [0, 1]]), ("A", [[1, 0], [0, -1]])])
        shear = AffineMapSpec.make("f", [[2, 1], [0, 3]])
        with pytest.raises(NonInvariantSubspace) as expected:
            ensure_compatible(spec, shear)
        with pytest.raises(NonInvariantSubspace) as raised:
            self.CALLS[call](spec, shear)
        assert str(raised.value) == str(expected.value)


class TestCompatibilityOncePerMap:
    """Parsing checks each map once, when it builds the problem's kernel;
    the report built from the parsed spec reads that kernel back, and
    every other reader validates through it."""

    @pytest.mark.parametrize("name, maps", [("heisenberg_ex3", 1),
                                            ("halfturn_coincidence", 2)])
    def test_one_check_per_map_in_a_report(self, monkeypatch, name, maps):
        checked = _record_calls(monkeypatch, zetafix.manifolds,
                                "ensure_compatible")
        parsed = load_fixture(name)
        once = [(parsed.spec, m) for m in (parsed.mapping, parsed.mapping2)[:maps]]
        assert checked == once
        build_report(parsed)
        assert checked == once


class TestPlusSplit:
    def test_klein_bottle_split_is_proper(self, ex1):
        s = compute_plus_split(ex1.spec, ex1.mapping)
        assert s.is_proper
        assert s.plus_membership == (("I", True), ("A", False))
        assert s.plus_indices() == [0]
        assert (s.p, s.n) == (1, 0)

    def test_heisenberg_split(self, ex3):
        # A = diag(1,-1,-1) fixes the contracted line and flips one
        # expanding direction, so the split is proper even though A is
        # orientation preserving on the whole space.
        s = compute_plus_split(ex3.spec, ex3.mapping)
        assert s.is_proper
        assert s.plus_membership == (("I", True), ("A", False))
        assert (s.p, s.n) == (0, 2)

    def test_trivial_holonomy(self, cat):
        s = compute_plus_split(cat.spec, cat.mapping)
        assert not s.is_proper and s.plus_indices() == [0]
        assert (s.p, s.n) == (1, 0)

    def test_no_expansion_means_all_plus(self, identity_torus, quarter):
        for fx in (identity_torus, quarter):
            s = compute_plus_split(fx.spec, fx.mapping)
            assert not s.is_proper
            assert (s.p, s.n) == (0, 0)

    def test_fully_expanding_uses_full_determinant(self):
        fx = klein_type(3, 0, 5)
        s = compute_plus_split(fx.spec, fx.mapping)
        assert s.is_proper and not dict(s.plus_membership)["A"]
        assert (s.p, s.n) == (2, 0)

    def test_reflection_can_preserve_expanding_orientation(self):
        # D = [[3,0],[2,0]]: expanding line only; A flips the contracted
        # axis, so it is orientation preserving on the expanding side.
        fx = klein_type(3, 1, 0)
        s = compute_plus_split(fx.spec, fx.mapping)
        assert not s.is_proper
        assert dict(s.plus_membership)["A"]
        assert (s.p, s.n) == (1, 0)

    def test_mixed_spectrum_reflection(self):
        fx = klein_type(-1, 0, 5)
        s = compute_plus_split(fx.spec, fx.mapping)
        assert s.is_proper and not dict(s.plus_membership)["A"]
        assert (s.p, s.n) == (1, 0)

    def test_incompatible_holonomy_detected(self):
        spec = _spec(2, [("I", [[1, 0], [0, 1]]), ("A", [[1, 0], [0, -1]])])
        cat = AffineMapSpec.make("f", [[2, 1], [1, 1]])
        with pytest.raises(NonInvariantSubspace):
            compute_plus_split(spec, cat)

    def test_eigenvalue_minus_one_of_a_d_stripped(self):
        # A D = diag(-3, -1, -1): the root -1 (twice) decides nothing, and
        # the root -3 against n = 0 puts A outside the plus part; A flips
        # the expanding axis
        spec = _spec(3, [("I", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         ("A", [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])])
        s = compute_plus_split(spec, AffineMapSpec.make(
            "f", [[3, 0, 0], [0, -1, 0], [0, 0, -1]]))
        assert s.plus_indices() == [0] and s.is_proper
        assert (s.p, s.n) == (1, 0)
        # D = diag(-3, -1, -1): now A D = diag(3, -1, -1) has no root
        # below -1 and n = 1, so A is again outside
        s = compute_plus_split(spec, AffineMapSpec.make(
            "f", [[-3, 0, 0], [0, -1, 0], [0, 0, -1]]))
        assert s.plus_indices() == [0]
        assert (s.p, s.n) == (0, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_sign_law_of_the_fixed_point_determinants(self, seed):
        # the split's second route: for compatible D every nonzero
        # det(I - A D^n) has sign (-1)^(k + n n') eps_A, where k is the
        # expanding dimension, n' = split.n and eps_A = +1 exactly on the
        # plus part
        cases = random_instances(seed, 200)
        if seed == 0:
            cases += [(fx.spec, fx.mapping)
                      for fx in builtin_fixtures().values()
                      if hasattr(fx, "spec")]
            cases += [(fx.spec, fx.mapping) for fx in (
                klein_type(3, 1, 0), klein_type(3, 0, 5), klein_type(-1, 0, 5))]
        nonzero = 0
        for spec, mapping in cases:
            split = compute_plus_split(spec, mapping)
            k = _expanding_dim(mapping.linear)
            kernel = AveragingKernel([a for _, a in spec.holonomy],
                                     mapping.linear)
            # denominators > 0
            for n, (dets, _) in enumerate(kernel.fixed_point_dets(range(1, 4)), 1):
                for (_, inside), v in zip(split.plus_membership, dets):
                    if v:
                        nonzero += 1
                        sign = (-1) ** (k + n * split.n)
                        assert (v > 0) == (sign == (1 if inside else -1))
        assert nonzero > 1000


class TestVirtuallyUnipotent:
    def test_flags(self, ex1, ex3, cat, identity_torus, quarter):
        assert is_virtually_unipotent(identity_torus.spec, identity_torus.mapping)
        assert is_virtually_unipotent(quarter.spec, quarter.mapping)
        assert not is_virtually_unipotent(ex1.spec, ex1.mapping)
        assert not is_virtually_unipotent(ex3.spec, ex3.mapping)
        assert not is_virtually_unipotent(cat.spec, cat.mapping)


class TestZetaDefinedness:
    def test_defined_without_unit_root(self, ex3, cat):
        assert reidemeister_zeta_defined(ex3.spec, ex3.mapping).status == "defined"
        assert reidemeister_zeta_defined(cat.spec, cat.mapping).status == "defined"

    def test_klein_bottle_witness(self, ex1):
        d = reidemeister_zeta_defined(ex1.spec, ex1.mapping)
        assert (d.status, d.witness_n, d.witness_label) == ("undefined", 2, "I")

    def test_identity_witness(self, identity_torus):
        d = reidemeister_zeta_defined(identity_torus.spec, identity_torus.mapping)
        assert (d.status, d.witness_n) == ("undefined", 1)

    def test_rotation_witness(self, quarter):
        d = reidemeister_zeta_defined(quarter.spec, quarter.mapping)
        assert (d.status, d.witness_n, d.witness_label) == ("undefined", 1, "R3")

    def test_default_scan_finds_rotation_witnesses(self):
        spec = _spec(2, [("I", [[1, 0], [0, 1]])])
        for d, n in (([[0, -1], [1, 0]], 4), ([[1, -1], [1, 0]], 6)):
            got = reidemeister_zeta_defined(spec, AffineMapSpec.make("f", d))
            assert (got.status, got.witness_n, got.witness_label) == \
                ("undefined", n, "I")

    def test_scan_without_identity_is_not_a_group(self):
        # -1 is an eigenvalue of D, but no element A of this (invalid)
        # holonomy makes det(I - A D^n) vanish
        spec = _spec(2, [("R", [[0, -1], [1, 0]])])
        minus = AffineMapSpec.make("f", [[-1, 0], [0, -1]])
        with pytest.raises(NotAGroup):
            reidemeister_zeta_defined(spec, minus)

    def test_scan_reaches_the_largest_root_of_unity_order(self):
        # The companion matrix of the 66th cyclotomic polynomial (degree
        # 20) has only primitive 66th roots of unity as eigenvalues, so
        # det(I - D^n) first vanishes at n = 66 = max_root_of_unity_order(20).
        cyclo = {}
        for k in (1, 2, 3, 6, 11, 22, 33, 66):
            q = Polynomial([-1] + [0] * (k - 1) + [1])
            for j, c in cyclo.items():
                if k % j == 0:
                    q = q.exact_div(c)
            cyclo[k] = q
        phi = cyclo[66]
        assert phi.degree == 20 and max_root_of_unity_order(20) == 66
        rows = [[0] * 20 for _ in range(20)]
        for i in range(1, 20):
            rows[i][i - 1] = 1
        for i in range(20):
            rows[i][19] = -phi.coeffs[i]
        d = RationalMatrix(rows)
        assert char_poly(d) == phi
        spec = _spec(20, [("I", RationalMatrix.identity(20))])
        got = reidemeister_zeta_defined(spec, AffineMapSpec.make("f", d))
        assert (got.status, got.witness_n, got.witness_label) == \
            ("undefined", 66, "I")


class TestFixtureCatalog:
    def test_names(self):
        names = list(builtin_fixtures())
        assert names == ["klein_bottle_ex1", "heisenberg_ex3", "torus_cat_map",
                         "identity_torus", "klein_type_3_5", "klein_type_3_0",
                         "halfturn_coincidence", "quarter_rotation",
                         "sol_r_2", "sol_r_3"]

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            load_fixture("nope")

    def test_klein_type_shape(self):
        from zetafix import RationalMatrix
        fx = klein_type(3, 0, 5)
        assert fx.spec.labels() == ["I", "A"]
        assert fx.mapping.linear == RationalMatrix([[3, 0], [0, 5]])
        fx0 = klein_type(3, 2, 0)
        assert fx0.mapping.linear == RationalMatrix([[3, 0], [4, 0]])

    def test_sol_sequence(self):
        seq = sol_r_sequence(2).oracle()
        assert [seq(n) for n in (1, 2, 3, 4)] == [1, 3, 7, 15]
        assert sol_r_sequence(-2).oracle()(2) == 3
        with pytest.raises(ValueError):
            sol_r_sequence(1)

    def test_coincidence_fixture_flag(self, halfturn, ex1):
        assert halfturn.is_coincidence
        assert not ex1.is_coincidence
        assert halfturn.mapping2.label == "g"
