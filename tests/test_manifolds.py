"""Holonomy validation, the orientation split, and zeta definedness."""

import pytest

from zetafix import (AffineMapSpec, DimensionMismatch, ManifoldSpec, NotAGroup,
                     NonInvariantSubspace, Polynomial, RationalMatrix,
                     builtin_fixtures, char_poly, compute_plus_split,
                     ensure_compatible, is_virtually_unipotent, klein_type,
                     load_fixture, max_root_of_unity_order,
                     plus_subgroup_spec, reidemeister_zeta_defined,
                     sol_r_sequence, validate_spec)


def _spec(dim, holonomy, name="m"):
    return ManifoldSpec.make(name, dim, holonomy)


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
        with pytest.raises(NotAGroup):
            validate_spec(_spec(2, []))

    def test_missing_identity(self):
        with pytest.raises(NotAGroup):
            validate_spec(_spec(2, [("A", [[-1, 0], [0, -1]])]))

    def test_not_closed(self):
        with pytest.raises(NotAGroup):
            validate_spec(_spec(2, [("I", [[1, 0], [0, 1]]),
                                    ("R", [[0, -1], [1, 0]])]))

    def test_duplicate_label(self):
        with pytest.raises(NotAGroup):
            validate_spec(_spec(1, [("I", [[1]]), ("I", [[-1]])]))

    def test_duplicate_matrix(self):
        with pytest.raises(NotAGroup):
            validate_spec(_spec(1, [("I", [[1]]), ("J", [[1]])]))

    def test_singular_element(self):
        with pytest.raises(NotAGroup):
            validate_spec(_spec(1, [("I", [[1]]), ("Z", [[0]])]))

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            validate_spec(_spec(0, [("I", [[1]])]))

    def test_wrong_size_element(self):
        with pytest.raises(DimensionMismatch):
            validate_spec(_spec(2, [("I", [[1]])]))


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


class TestPlusSplit:
    def test_klein_bottle_split_is_proper(self, ex1):
        s = compute_plus_split(ex1.spec, ex1.mapping)
        assert s.is_proper
        assert s.member("I") and not s.member("A")
        assert s.plus_labels() == ["I"]
        assert (s.p, s.n, s.expanding_dim) == (1, 0, 1)

    def test_heisenberg_split(self, ex3):
        # A = diag(1,-1,-1) fixes the contracted line and flips one
        # expanding direction, so the split is proper even though A is
        # orientation preserving on the whole space.
        s = compute_plus_split(ex3.spec, ex3.mapping)
        assert s.is_proper
        assert s.member("I") and not s.member("A")
        assert (s.p, s.n, s.expanding_dim) == (0, 2, 2)

    def test_trivial_holonomy(self, cat):
        s = compute_plus_split(cat.spec, cat.mapping)
        assert not s.is_proper and s.plus_labels() == ["I"]
        assert (s.p, s.n, s.expanding_dim) == (1, 0, 1)

    def test_no_expansion_means_all_plus(self, identity_torus, quarter):
        for fx in (identity_torus, quarter):
            s = compute_plus_split(fx.spec, fx.mapping)
            assert not s.is_proper
            assert s.expanding_dim == 0

    def test_fully_expanding_uses_full_determinant(self):
        fx = klein_type(3, 0, 5)
        s = compute_plus_split(fx.spec, fx.mapping)
        assert s.is_proper and not s.member("A")
        assert (s.p, s.n, s.expanding_dim) == (2, 0, 2)

    def test_reflection_can_preserve_expanding_orientation(self):
        # D = [[3,0],[2,0]]: expanding line only; A flips the contracted
        # axis, so it is orientation preserving on the expanding side.
        fx = klein_type(3, 1, 0)
        s = compute_plus_split(fx.spec, fx.mapping)
        assert not s.is_proper
        assert s.member("A")
        assert (s.p, s.n, s.expanding_dim) == (1, 0, 1)

    def test_mixed_spectrum_reflection(self):
        fx = klein_type(-1, 0, 5)
        s = compute_plus_split(fx.spec, fx.mapping)
        assert s.is_proper and not s.member("A")
        assert (s.p, s.n, s.expanding_dim) == (1, 0, 1)

    def test_incompatible_holonomy_detected(self):
        spec = _spec(2, [("I", [[1, 0], [0, 1]]), ("A", [[1, 0], [0, -1]])])
        cat = AffineMapSpec.make("f", [[2, 1], [1, 1]])
        with pytest.raises(NonInvariantSubspace):
            compute_plus_split(spec, cat)

    def test_member_unknown_label(self, ex1):
        s = compute_plus_split(ex1.spec, ex1.mapping)
        with pytest.raises(KeyError):
            s.member("nope")


class TestPlusSubgroup:
    def test_proper_split_keeps_plus_part(self, ex1):
        s = compute_plus_split(ex1.spec, ex1.mapping)
        sub = plus_subgroup_spec(ex1.spec, s)
        assert sub.labels() == ["I"]
        assert sub.name == ex1.spec.name + "+"
        assert sub.dimension == ex1.spec.dimension
        validate_spec(sub)

    def test_heisenberg_plus_cover_is_torus(self, ex3):
        s = compute_plus_split(ex3.spec, ex3.mapping)
        assert plus_subgroup_spec(ex3.spec, s).labels() == ["I"]

    def test_non_proper_split_is_identity(self, cat):
        s = compute_plus_split(cat.spec, cat.mapping)
        assert plus_subgroup_spec(cat.spec, s) is cat.spec


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
