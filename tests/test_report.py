"""Report document assembly and its human rendering."""

import json
import math
import sys
from dataclasses import replace

import pytest

import zetafix.algebra
import zetafix.manifolds
import zetafix.ratfunc
import zetafix.zetas
from _corpus import isotypic_mixing_instance
from conftest import FIXED_POINT_NAMES
from zetafix import (AffineMapSpec, ManifoldSpec, ParsedSpec, RationalMatrix,
                     asymptotics_entry, build_report, congruence_entries,
                     has_root_of_unity_eigenvalue, load_fixture,
                     max_root_of_unity_order, nielsen_zeta, parse_spec_data,
                     render_human, serialize_spec)
from zetafix.report import CONGRUENCE_N_MAX

FIXED_POINT_KEYS = ["schema", "input", "validation", "numbers", "zetas",
                    "functional_equation", "asymptotics", "congruences",
                    "diagnostics"]


class TestStructure:
    def test_fixed_point_document_keys(self, ex3):
        doc = build_report(ex3)
        assert list(doc) == FIXED_POINT_KEYS

    def test_coincidence_document_keys(self, halfturn):
        doc = build_report(halfturn)
        assert list(doc) == ["schema", "input", "validation",
                             "coincidence_numbers", "trichotomy"]

    def test_input_echo_rebuilds_spec(self, ex3, halfturn):
        for fx in (ex3, halfturn):
            doc = build_report(fx)
            assert doc["input"] == serialize_spec(fx)
            assert parse_spec_data(doc["input"]) == fx

    def test_validation_section(self, ex1):
        doc = build_report(ex1)
        assert doc["validation"] == {
            "orientable": False,
            "holonomy_order": 2,
            "element_orders": [["I", 1], ["A", 2]],
        }

    def test_deterministic(self, ex3):
        a = json.dumps(build_report(ex3))
        b = json.dumps(build_report(load_fixture("heisenberg_ex3")))
        assert a == b


def _count_calls(monkeypatch, home, names) -> dict:
    """Replace every binding of home.<name> in the zetafix modules with a
    counting wrapper; returns the live call counts."""
    calls = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items()
               if k.startswith("zetafix") and m is not None]
    for fn_name in names:
        orig = getattr(home, fn_name)

        def counted(*args, _name=fn_name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestSharedContext:
    @pytest.mark.parametrize("name, reconstructions", [
        ("heisenberg_ex3", 2),     # L, L+ (plus-proper split)
        ("torus_cat_map", 1),      # L
    ])
    def test_each_zeta_built_once(self, monkeypatch, name, reconstructions):
        # The Lefschetz zetas are rebuilt from their series; the Nielsen
        # zeta comes from them by the sign formula and its series is only
        # verified, never rebuilt.
        seqs = {"zeta_from_terms": [], "verify_zeta": []}
        modules = [m for k, m in sys.modules.items()
                   if k.startswith("zetafix") and m is not None]
        for fn_name, seen in seqs.items():
            orig = getattr(zetafix.ratfunc, fn_name)

            def recorded(seq, *args, _seen=seen, _orig=orig):
                _seen.append(seq.name.split(":")[0])
                return _orig(seq, *args)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, recorded)
        zetafix.zetas.map_context.cache_clear()
        build_report(load_fixture(name))
        rebuilt = seqs["zeta_from_terms"]
        assert len(rebuilt) == len(set(rebuilt)) == reconstructions
        assert "nielsen" not in rebuilt
        assert seqs["verify_zeta"] == ["nielsen"]

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_one_averaging_kernel(self, monkeypatch, name):
        # the sequences, the plus-cover average and the definedness scan
        # all read the context's kernel
        kernels = []
        init = zetafix.algebra.AveragingKernel.__init__

        def counted(self, *args, **kwargs):
            kernels.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(zetafix.algebra.AveragingKernel, "__init__", counted)
        zetafix.zetas.map_context.cache_clear()
        build_report(load_fixture(name))
        assert len(kernels) == 1

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_each_fixed_point_determinant_once(self, monkeypatch, name):
        # The report asks for iterates 1..CONGRUENCE_N_MAX (the congruence
        # battery), which covers the numbers table, the 3B + 4 terms of
        # each rebuild and the definedness scan; each det(I - A D^n) is
        # taken once for every holonomy element A.
        parsed = load_fixture(name)
        dim = parsed.spec.dimension
        assert CONGRUENCE_N_MAX >= max(3 * 2 ** dim + 4, parsed.options.n_max,
                                       max_root_of_unity_order(dim))
        kernel = zetafix.algebra.AveragingKernel
        scopes = {kernel.fixed_point_dets.__code__: "fixed",
                  kernel.shifted_dets.__code__: "shifted"}
        counts = dict.fromkeys(scopes.values(), 0)
        orig = zetafix.algebra._scaled_det

        def counted(*args):
            frame = sys._getframe(1)
            while frame.f_code not in scopes:
                frame = frame.f_back
            counts[scopes[frame.f_code]] += 1
            return orig(*args)

        monkeypatch.setattr(zetafix.algebra, "_scaled_det", counted)
        zetafix.zetas.map_context.cache_clear()
        build_report(parsed)
        assert counts["fixed"] == parsed.spec.order * CONGRUENCE_N_MAX

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_root_of_unity_scan_runs_once(self, monkeypatch, name):
        # the definedness scan decides it; the diagnostics read the result
        calls = _count_calls(monkeypatch, zetafix.algebra,
                             ("has_root_of_unity_eigenvalue",))
        zetafix.zetas.map_context.cache_clear()
        build_report(load_fixture(name))
        assert calls["has_root_of_unity_eigenvalue"] == 1

    @pytest.mark.parametrize("tolerance", [None, 1e-9])
    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_linear_part_classified_once(self, monkeypatch, name, tolerance):
        # one char_poly of D for the classification, one for the
        # cyclotomic test, and every spectral reader shares one
        # classification; the plus split takes one char_poly(A D) per
        # holonomy element A
        parsed = load_fixture(name)
        if tolerance is not None:
            parsed = replace(parsed, options=replace(parsed.options,
                                                     tolerance=tolerance))
        zetafix.zetas.map_context.cache_clear()
        zetafix.algebra.char_poly.cache_clear()
        zetafix.algebra._classify.cache_clear()
        orig = zetafix.algebra.char_poly
        calls = _count_calls(monkeypatch, zetafix.algebra, ("char_poly",))
        split_args = []
        monkeypatch.setattr(zetafix.manifolds, "char_poly",
                            lambda m: split_args.append(m) or orig(m))
        build_report(parsed)
        assert calls["char_poly"] == 2
        d = parsed.mapping.linear
        assert split_args == [a @ d for _, a in parsed.spec.holonomy]
        assert zetafix.algebra._classify.cache_info().misses == 1

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_zetas_rebuilt_and_compared_without_gcd(self, monkeypatch, name):
        # The minimal recurrence gives lowest terms, the substitutions and
        # the inversion of the sign formula keep them, and the functional
        # equation compares by cross-multiplication.  A proper plus split
        # reduces the quotient L+/L once.  Only a failed check reduces its
        # quotient, to print it: the functional equation of
        # quarter_rotation leaves z^2.
        expected = {"quarter_rotation": ["verify_functional_equation"],
                    "klein_bottle_ex1": ["n_zeta"],
                    "heisenberg_ex3": ["n_zeta"],
                    "klein_type_3_5": ["n_zeta"]}.get(name, [])
        scopes = {zetafix.ratfunc.zeta_from_terms.__code__,
                  zetafix.zetas.MapContext.n_zeta.func.__code__,
                  zetafix.zetas.verify_functional_equation.__code__}
        parsed = load_fixture(name)
        zetafix.zetas.map_context.cache_clear()
        # the plus split classifies D with gcds of its own; take it first
        zetafix.zetas.map_context(parsed.spec, parsed.mapping,
                                  parsed.options.tolerance).split
        gcds = []
        orig = zetafix.algebra.poly_gcd

        def counted(*args):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in scopes:
                    gcds.append(frame.f_code.co_name)
                    break
                frame = frame.f_back
            return orig(*args)

        for mod in [m for k, m in sys.modules.items()
                    if k.startswith("zetafix") and m is not None]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
        build_report(parsed)
        assert gcds == expected


class TestNumbersSection:
    def test_heisenberg(self, ex3):
        num = build_report(ex3)["numbers"]
        assert num["n_max"] == 12
        assert num["lefschetz"][:2] == [-3, -15]
        assert num["nielsen"][:2] == [6, 24]
        assert num["reidemeister"][:2] == [6, 24]

    def test_infinite_entries_serialized(self, ex1):
        num = build_report(ex1)["numbers"]
        assert num["reidemeister"][:4] == [4, "inf", 16, "inf"]
        assert num["nielsen"][:4] == [4, 0, 16, 0]


class TestZetasSection:
    def test_order_and_content(self, ex3):
        zetas = build_report(ex3)["zetas"]
        assert [z["which"] for z in zetas] == \
            ["Lefschetz", "Nielsen", "Reidemeister", "ArtinMazur"]
        lz, nz, rz, az = zetas
        assert lz["function"] == "(1-4z)/(1-z)"
        assert nz["function"] == rz["function"] == az["function"] == \
            "(1+2z-2z^2)/(1-4z-8z^2)"
        assert nz["construction"] == {"kind": "sign-formula",
                                      "case": "plus-proper", "p": 0, "n": 2}
        assert nz["numerator"] == ["1", "2", "-2"]
        assert nz["denominator"] == ["1", "-4", "-8"]

    def test_undefined_reidemeister(self, ex1):
        rz = build_report(ex1)["zetas"][2]
        assert rz["which"] == "Reidemeister"
        assert rz["defined"] is False
        assert "R(f^2)" in rz["reason"]


class TestFunctionalEquationSection:
    def test_heisenberg(self, ex3):
        fe = build_report(ex3)["functional_equation"]
        assert fe == {"holds": True, "epsilon": "4", "degree": "4",
                      "case": "plus-proper"}

    def test_skipped_non_orientable(self, ex1):
        fe = build_report(ex1)["functional_equation"]
        assert fe == {"skipped": "non-orientable manifold"}

    def test_failed_for_unrealizable_holonomy(self, quarter):
        fe = build_report(quarter)["functional_equation"]
        assert set(fe) == {"failed"}
        assert "not a constant" in fe["failed"]

    def test_identity(self, identity_torus):
        fe = build_report(identity_torus)["functional_equation"]
        assert fe["holds"] is True and fe["epsilon"] == "1"


class TestAsymptoticsSection:
    def test_klein_bottle(self, ex1):
        asym = build_report(ex1)["asymptotics"]
        assert asym["n_infinity"] == "2"
        assert asym["entropy"] == format(math.log(2.0), ".15g")
        assert asym["radius"] == "0.5"
        assert asym["radius_check"].startswith("ok")

    def test_suppressed_when_one_in_spectrum(self, identity_torus):
        asym = build_report(identity_torus)["asymptotics"]
        assert asym["radius"] == "inf"
        assert asym["radius_check"].startswith("suppressed")

    def test_entry_helper_matches_report(self, ex3):
        nz = nielsen_zeta(ex3.spec, ex3.mapping)
        assert asymptotics_entry(ex3.spec, ex3.mapping, nz) == \
            build_report(ex3)["asymptotics"]


class TestCongruencesSection:
    def test_battery_shape(self, ex3):
        cong = build_report(ex3)["congruences"]
        assert [(c["kind"], c["sequence"]) for c in cong] == [
            ("Dold", "lefschetz"), ("Gauss", "nielsen"),
            ("Gauss", "reidemeister"), ("Euler", "lefschetz"),
            ("Euler", "lefschetz")]
        assert all(c["passed"] for c in cong)
        assert (cong[3]["p"], cong[3]["r_max"]) == (2, 3)
        assert (cong[4]["p"], cong[4]["r_max"]) == (3, 2)

    def test_skipped_iterates_recorded(self, ex1):
        cong = build_report(ex1)["congruences"]
        rei = cong[2]
        assert rei["sequence"] == "reidemeister"
        assert rei["skipped"] == list(range(2, 31, 2))
        assert rei["passed"]

    def test_entries_helper_matches_report(self, ex3):
        assert congruence_entries(ex3.spec, ex3.mapping) == \
            build_report(ex3)["congruences"]


class TestDiagnosticsSection:
    def test_defined_case(self, ex3):
        diag = build_report(ex3)["diagnostics"]
        assert diag["reidemeister_zeta"] == "defined"
        assert diag["root_of_unity_eigenvalue"] is False
        assert diag["virtually_unipotent"] is False
        assert diag["one_in_spectrum"] is False
        assert "finite Reidemeister number" in diag["note"]

    def test_degree_one_note(self, cat):
        diag = build_report(cat)["diagnostics"]
        assert "infra-nilmanifold" in diag["note"]

    def test_undefined_case(self, ex1):
        diag = build_report(ex1)["diagnostics"]
        assert diag["reidemeister_zeta"].startswith("undefined: R(f^2)")
        assert diag["root_of_unity_eigenvalue"] is True
        assert "root-of-unity" in diag["note"]

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_root_of_unity_flag_matches_spectrum(self, name):
        parsed = load_fixture(name)
        diag = build_report(parsed)["diagnostics"]
        assert diag["root_of_unity_eigenvalue"] is \
            has_root_of_unity_eigenvalue(parsed.mapping.linear)

    def test_unipotent_flags(self, quarter):
        diag = build_report(quarter)["diagnostics"]
        assert diag["virtually_unipotent"] is True
        assert diag["one_in_spectrum"] is False


class TestCoincidenceSections:
    def test_halfturn(self, halfturn):
        doc = build_report(halfturn)
        num = doc["coincidence_numbers"]
        assert num["lefschetz"][0] == 13
        assert num["nielsen"][0] == 13
        assert num["reidemeister"][0] == 13
        assert doc["trichotomy"] == {
            "case": 2, "nielsen": 13, "det_diff_sign": 1, "det_sum_sign": 1,
            "trivial_dim": 0, "sign_dim": 2}

    def test_non_orientable_pair(self, ex1):
        ident = AffineMapSpec.make("g", RationalMatrix.identity(2))
        parsed = ParsedSpec(ex1.spec, ex1.mapping, ident, ex1.options)
        doc = build_report(parsed)
        assert doc["coincidence_numbers"]["nielsen"] == \
            ["not defined (non-orientable)"]
        assert doc["trichotomy"] == {"skipped": "non-orientable manifold"}

    def test_not_cyclic_skip(self):
        spec = ManifoldSpec.make("v4z", 3, [
            ("I", RationalMatrix.identity(3)),
            ("A", [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
            ("B", [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            ("AB", [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])])
        ident = RationalMatrix.identity(3)
        parsed = ParsedSpec(spec, AffineMapSpec.make("f", ident),
                            AffineMapSpec.make("g", ident))
        doc = build_report(parsed)
        assert doc["trichotomy"] == {"skipped": "holonomy is not cyclic"}

    def test_block_compatibility_skip(self):
        spec, mixing = isotypic_mixing_instance()
        ident = AffineMapSpec.make("g", RationalMatrix.identity(4))
        doc = build_report(ParsedSpec(spec, mixing, ident))
        assert doc["trichotomy"]["skipped"].startswith("not block compatible")


class TestHumanRendering:
    def test_heisenberg_lines(self, ex3):
        text = render_human(build_report(ex3))
        assert text.startswith(
            "spec: heisenberg_ex3 (dimension 3, holonomy order 2, orientable)\n")
        assert "invariants (n = 1..12):" in text
        assert "  L: -3, -15" in text
        assert "Nielsen zeta: (1+2z-2z^2)/(1-4z-8z^2)   " \
               "[sign-formula (plus-proper, p=0, n=2)]" in text
        assert "functional equation: holds, epsilon = 4, degree = 4, " \
               "case = plus-proper" in text
        assert "congruence Dold on lefschetz (n<=30): pass" in text
        assert "congruence Euler on lefschetz (p=2, r<=3): pass" in text
        assert text.endswith("\n")

    def test_klein_bottle_lines(self, ex1):
        text = render_human(build_report(ex1))
        assert "non-orientable" in text.splitlines()[0]
        assert "Reidemeister zeta: undefined (R(f^2) is infinite" in text
        assert "functional equation: skipped (non-orientable manifold)" in text
        assert "(skipped n with infinite terms:" in text

    def test_quarter_rotation_lines(self, quarter):
        text = render_human(build_report(quarter))
        assert "functional equation: does not hold (" in text

    def test_coincidence_lines(self, halfturn):
        text = render_human(build_report(halfturn))
        assert "invariants (n = 1..12) for the pair (f, g):" in text
        assert "trichotomy: case 2, N(f,g) = 13, signs (1, 1), " \
               "trivial/sign dims (0, 2)" in text
        assert "diagnostics" not in text

    def test_diagnostics_lines(self, cat):
        text = render_human(build_report(cat))
        assert "diagnostics:" in text
        assert "  Reidemeister zeta: defined" in text
        assert "  root-of-unity eigenvalue: no" in text
        assert "  virtually unipotent: no" in text
