"""Report document assembly and its human rendering."""

import ast
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import zetafix.algebra
import zetafix.congruences
import zetafix.invariants
import zetafix.manifolds
import zetafix.ratfunc
import zetafix.report
import zetafix.zetas
from _corpus import (isotypic_mixing_instance, ladder_instances,
                     random_coincidence_instances)
from conftest import FIXED_POINT_NAMES, _record_calls
from zetafix import (AffineMapSpec, ManifoldSpec, NotConstantRatio,
                     ParsedSpec, Polynomial, RationalMatrix, asymptotic_nielsen,
                     asymptotics_entry, build_report, coincidence_numbers,
                     coincidence_trichotomy, compute_plus_split,
                     congruence_entries, entropy_lower_bound,
                     has_root_of_unity_eigenvalue, is_virtually_unipotent,
                     lefschetz, lefschetz_sequence, load_fixture,
                     nielsen, nielsen_sequence,
                     nielsen_zeta, parse_spec_data, radius_report,
                     reidemeister, reidemeister_sequence,
                     reidemeister_zeta_defined, render_human, serialize_spec,
                     verify_functional_equation)
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


def _count_kernels(monkeypatch) -> list:
    """The averaging kernels constructed from now on, as a live list."""
    kernels = []
    init = zetafix.algebra.AveragingKernel.__init__

    def counted(self, *args, **kwargs):
        kernels.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zetafix.algebra.AveragingKernel, "__init__", counted)
    return kernels


class TestSharedContext:
    @pytest.mark.parametrize("name, reconstructions", [
        ("heisenberg_ex3", 2),     # L, L+/L (plus-proper split)
        ("torus_cat_map", 1),      # L
        ("quarter_rotation", 1),   # L, whose window is below N's
    ])
    def test_each_zeta_built_once(self, monkeypatch, name, reconstructions):
        # The Lefschetz zeta, and for a proper split the twisted zeta, are
        # rebuilt from their series; the Nielsen zeta comes from them by
        # the sign formula and is never rebuilt.  Its certificate reads
        # the source's terms past the source's window off the source's
        # certified zeta, as the numbers table reads every term past a
        # window, so no term of the source is computed past its window.
        calls = _record_calls(monkeypatch, zetafix.ratfunc, "zeta_from_terms")
        parsed = load_fixture(name)
        ctx = zetafix.invariants.map_context(parsed.spec, parsed.mapping)
        source = ctx.twisted_seq if ctx.split.is_proper else ctx.l_seq
        made = []
        monkeypatch.setattr(source, "_fn",
                            lambda n, fn=source._fn: made.append(n) or fn(n))
        build_report(parsed)
        rebuilt = [args[0].name.split(":")[0] for args in calls]
        assert len(rebuilt) == len(set(rebuilt)) == reconstructions
        assert "nielsen" not in rebuilt
        top = 3 * source.degree_bound + 4
        assert made == list(range(1, top + 1))
        if name == "quarter_rotation":
            # the certificate reads L(f^13) off L's tail
            assert 3 * ctx.n_seq.degree_bound + 4 == 13 > top

    @pytest.mark.parametrize("name", ["klein_bottle_ex1", "heisenberg_ex3",
                                      "klein_type_3_5"])
    def test_api_nielsen_zeta_rebuilds_only_the_twisted_zeta(
            self, monkeypatch, name):
        # a proper split's sign formula reads the twisted zeta alone; the
        # Lefschetz zeta is rebuilt only to report its own failure
        parsed = load_fixture(name)
        calls = _record_calls(monkeypatch, zetafix.ratfunc, "zeta_from_terms")
        nielsen_zeta(parsed.spec, parsed.mapping)
        assert [args[0].name.split(":")[0] for args in calls] == \
            ["lefschetz-twisted"]

    def test_api_nielsen_zeta_with_a_longer_twisted_window(self, monkeypatch):
        # on ladder_d3_o8 the twisted window runs past L's own; its terms
        # read L(f^n) off the kernel, so L's zeta is not certified
        spec, f = next((s, m) for s, m in ladder_instances(0)
                       if s.name == "ladder_d3_o8")
        calls = _record_calls(monkeypatch, zetafix.ratfunc, "zeta_from_terms")
        nielsen_zeta(spec, f)
        assert [args[0].name.split(":")[0] for args in calls] == \
            ["lefschetz-twisted"]
        ctx = zetafix.invariants.map_context(spec, f)
        assert ctx.twisted_seq.degree_bound > ctx.l_seq.degree_bound

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_one_averaging_kernel(self, monkeypatch, name):
        # the sequences, the plus-cover average and the definedness scan
        # all read the context's kernel
        kernels = _count_kernels(monkeypatch)
        build_report(load_fixture(name))
        assert len(kernels) == 1

    def test_one_kernel_per_coincidence_report(self, monkeypatch):
        # The numbers table and the trichotomy (L, and in case 3 the
        # average L_0 over the index-2 subgroup) read the pair's kernel;
        # no subgroup spec is built or validated.
        kernels = _count_kernels(monkeypatch)
        checked = _record_calls(monkeypatch, zetafix.manifolds, "_check_group")
        parsed_pairs = [load_fixture("halfturn_coincidence")] + [
            ParsedSpec(spec, f, g)
            for spec, f, g in random_coincidence_instances(seed=404, count=40)]
        cases = set()
        for parsed in parsed_pairs:
            zetafix.manifolds.averaging_kernel.cache_clear()
            kernels.clear()
            checked.clear()
            cases.add(build_report(parsed)["trichotomy"].get("case"))
            assert len(kernels) == 1
            assert all(spec == parsed.spec for spec, in checked)
        assert cases == {1, 2, 3}

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES + ("halfturn_coincidence",))
    def test_no_holonomy_determinant_after_parsing(self, monkeypatch, name):
        # parsing validated the holonomy and decided its orientability;
        # the report reads that decision instead of taking det(A) again.
        # A fixed-point report takes det(D); a coincidence report takes no
        # det at all, since the trichotomy reads its tau determinants on
        # integer forms.
        parsed = load_fixture(name)
        taken = _record_calls(monkeypatch, zetafix.algebra, "det")
        build_report(parsed)
        assert bool(taken) != parsed.is_coincidence
        assert not any(m is a for m, in taken for _, a in parsed.spec.holonomy)

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_report_and_api_calls_share_one_kernel(self, monkeypatch, name):
        # parsing builds the kernel, and everything after reads it back
        kernels = _count_kernels(monkeypatch)
        parsed = load_fixture(name)
        spec, f = parsed.spec, parsed.mapping
        build_report(parsed)
        for n in range(1, CONGRUENCE_N_MAX + 1):
            lefschetz(spec, f, n), nielsen(spec, f, n), reidemeister(spec, f, n)
        for make in (lefschetz_sequence, nielsen_sequence,
                     reidemeister_sequence):
            make(spec, f)(CONGRUENCE_N_MAX)
        reidemeister_zeta_defined(spec, f)
        assert len(kernels) == 1

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_sequences_bounded_by_the_report_split(self, monkeypatch, name):
        # the N and R sequences take their degree bound from the plus
        # split, which the report has already decided
        parsed = load_fixture(name)
        decided = _record_calls(monkeypatch, zetafix.manifolds,
                                "_odd_roots_below_minus_one")
        zetafix.invariants.map_context.cache_clear()
        build_report(parsed)
        # the report decides the split, one parity per holonomy element
        assert len(decided) == parsed.spec.order
        decided.clear()
        for make in (nielsen_sequence, reidemeister_sequence):
            make(parsed.spec, parsed.mapping)
        assert decided == []

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_public_sequences_reuse_the_report_values(self, monkeypatch, name):
        # the public sequences and numbers read the report's oracles,
        # which already hold every value through n = CONGRUENCE_N_MAX: no
        # determinant is read again, let alone averaged
        parsed = load_fixture(name)
        build_report(parsed)
        reads = []
        for method in ("fixed_point_dets", "shifted_dets"):
            orig = getattr(zetafix.algebra.AveragingKernel, method)
            monkeypatch.setattr(
                zetafix.algebra.AveragingKernel, method,
                lambda kernel, n, orig=orig: reads.append(n) or orig(kernel, n))
        for make in (lefschetz_sequence, nielsen_sequence, reidemeister_sequence):
            seq = make(parsed.spec, parsed.mapping)
            for n in range(1, CONGRUENCE_N_MAX + 1):
                seq(n)
        for number in (lefschetz, nielsen, reidemeister):
            for n in range(1, CONGRUENCE_N_MAX + 1):
                number(parsed.spec, parsed.mapping, n)
        assert reads == []

    @pytest.mark.parametrize("name", ["klein_bottle_ex1", "heisenberg_ex3",
                                      "klein_type_3_5"])
    def test_plus_ranks_taken_once(self, monkeypatch, name):
        # the N, R and twisted bounds of a proper split share one (E, O),
        # so the ranks over the plus subgroup are taken once
        parsed = load_fixture(name)
        calls = _record_calls(monkeypatch, zetafix.manifolds, "exterior_ranks")
        build_report(parsed)
        assert zetafix.invariants.map_context(
            parsed.spec, parsed.mapping).split.is_proper
        assert len([c for c in calls if len(c) > 1]) == 1

    def test_coincidence_report_and_api_calls_share_one_kernel(
            self, monkeypatch, halfturn):
        kernels = _count_kernels(monkeypatch)
        build_report(halfturn)
        args = halfturn.spec, halfturn.mapping, halfturn.mapping2
        for n in range(1, CONGRUENCE_N_MAX + 1):
            coincidence_numbers(*args, n)
        coincidence_trichotomy(*args)
        assert len(kernels) == 1

    def test_one_kernel_construction_site(self):
        # every entry point takes its kernel from manifolds.averaging_kernel
        sites = []
        for path in sorted(Path(zetafix.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            functions = [n for n in ast.walk(tree)
                         if isinstance(n, ast.FunctionDef)]
            for call in ast.walk(tree):
                if isinstance(call, ast.Call) and "AveragingKernel" in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None)):
                    inner = min((f for f in functions
                                 if f.lineno <= call.lineno <= f.end_lineno),
                                key=lambda f: f.end_lineno - f.lineno,
                                default=None)
                    sites.append((path.stem, inner and inner.name))
        assert sites == [("manifolds", "averaging_kernel")]

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_each_fixed_point_determinant_once(self, monkeypatch, name):
        # Iterates past every rebuild window are read off the certified
        # zetas, the numbers table's included, so determinants are taken
        # only up to the largest iterate that still needs them: each
        # window (L, N and the twisted zeta of a proper split) and the
        # definedness scan's witness, and every iterate with an infinite
        # R(f^n), whose vanishing det(A - D^n) is matched against them.
        # Each det(I - A D^n) is taken once for every holonomy element A,
        # on the diagonal path or on the block path.
        parsed = load_fixture(name)
        kernel = zetafix.algebra.AveragingKernel
        scopes = {kernel.fixed_point_dets.__code__: "fixed",
                  kernel.shifted_dets.__code__: "shifted"}
        counts = dict.fromkeys(scopes.values(), 0)

        def counted(orig):
            def det(*args):
                frame = sys._getframe(1)
                while frame.f_code not in scopes:
                    frame = frame.f_back
                counts[scopes[frame.f_code]] += 1
                return orig(*args)
            return det

        for path in ("_scaled_det", "_diagonal_det"):
            monkeypatch.setattr(zetafix.algebra, path,
                                counted(getattr(zetafix.algebra, path)))
        build_report(parsed)
        ctx = zetafix.invariants.map_context(parsed.spec, parsed.mapping)
        seqs = [ctx.l_seq, ctx.n_seq] + ([ctx.twisted_seq] if ctx.split.is_proper else [])
        top = max([3 * seq.degree_bound + 4 for seq in seqs]
                  + [ctx.definedness.witness_n or 0])
        assert top < CONGRUENCE_N_MAX
        iterates = set(range(1, top + 1)) | {
            n for n in range(1, CONGRUENCE_N_MAX + 1) if ctx.r_seq(n) == math.inf}
        assert counts["fixed"] == parsed.spec.order * len(iterates)

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_root_of_unity_scan_runs_once(self, monkeypatch, name):
        # the definedness scan decides it from the classification of D,
        # trying each cyclotomic Phi_k (k >= 3) at most once against the
        # core, and only when the core has unit-circle roots; the
        # diagnostics read the result
        parsed = load_fixture(name)
        calls = _record_calls(monkeypatch, zetafix.algebra, "_prem")
        doc = build_report(parsed)
        cyclotomic = [zetafix.algebra._cyclotomic(k) for k in range(1, 13)]
        tried = [(a, b) for a, b in calls if b in cyclotomic]
        spectrum = parsed.mapping.spectrum
        assert all(a == spectrum._core for a, _ in tried)
        assert len(set(b for _, b in tried)) == len(tried)
        assert bool(tried) == (name == "quarter_rotation")
        assert doc["diagnostics"]["root_of_unity_eigenvalue"] == \
            spectrum.root_of_unity_eigenvalue

    @pytest.mark.parametrize("tolerance", [None, 1e-9])
    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_linear_part_classified_once(self, monkeypatch, name, tolerance):
        # one classification of D, which the map keeps and every
        # spectral reader (the cyclotomic test included) reads; it takes
        # D's integer Berkowitz coefficients, never the Fraction
        # char_poly.  The plus split runs one integer Berkowitz per
        # holonomy element A, on the integer form of A D
        parsed = load_fixture(name)
        if tolerance is not None:
            parsed = parsed._replace(
                options=parsed.options._replace(tolerance=tolerance))
        calls = _record_calls(monkeypatch, zetafix.algebra, "char_poly")
        classified = _record_calls(monkeypatch, zetafix.algebra,
                                   "classify_eigenvalues")
        split, orig = [], zetafix.manifolds._berkowitz
        monkeypatch.setattr(zetafix.manifolds, "_berkowitz",
                            lambda a: split.append(a) or orig(a))
        build_report(parsed)
        d = parsed.mapping.linear
        assert calls == []
        assert classified == [(d,)]
        assert split == [zetafix.algebra._integer_form([a @ d])[0][0]
                         for _, a in parsed.spec.holonomy]

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_spectral_readers_after_a_report_recompute_nothing(
            self, monkeypatch, name):
        # a report checks compatibility once, when parsing builds the
        # problem's kernel, and classifies D once; afterwards every
        # (spec, map) reader reads the map's classification and validates
        # through the problem's memos, so it classifies nothing and checks
        # nothing again
        classified = _record_calls(monkeypatch, zetafix.algebra,
                                   "classify_eigenvalues")
        checked = _record_calls(monkeypatch, zetafix.manifolds,
                                "ensure_compatible")
        parsed = load_fixture(name)
        spec, f = parsed.spec, parsed.mapping
        build_report(parsed)
        assert classified == [(f.linear,)]
        assert checked == [(spec, f)]
        classified.clear()
        checked.clear()
        nz = nielsen_zeta(spec, f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            asymptotic_nielsen(spec, f)
            entropy_lower_bound(spec, f)
            radius_report(spec, f, nz)
        try:
            verify_functional_equation(spec, f, nz)
        except (ValueError, NotConstantRatio):
            pass        # non-orientable, degree 0, or not a constant ratio
        compute_plus_split(spec, f)
        is_virtually_unipotent(spec, f)
        reidemeister_zeta_defined(spec, f)
        assert classified == []
        assert checked == []

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_nielsen_type_entry_built_once(self, monkeypatch, name):
        # the Reidemeister and Artin-Mazur entries copy the Nielsen entry,
        # key order included, with "which" replaced
        built = _record_calls(monkeypatch, zetafix.report, "_zeta_entry")
        zetas = build_report(load_fixture(name))["zetas"]
        assert sorted(result.which for result, in built) == \
            ["Lefschetz", "Nielsen"]
        copies = [e for e in zetas[2:] if e["defined"]]
        assert [e["which"] for e in copies][-1] == "ArtinMazur"
        for entry in copies:
            assert list(entry.items()) == list(
                dict(zetas[1], which=entry["which"]).items())

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_zetas_rebuilt_and_compared_without_gcd(self, monkeypatch, name):
        # The minimal recurrence gives lowest terms, the substitutions and
        # the inversion of the sign formula keep them, and the functional
        # equation compares by cross-multiplication.  A proper plus split
        # rebuilds the twisted zeta L+/L from its own sequence, so it too
        # comes in lowest terms (TestTwistedRebuild checks it against the
        # reduced quotient).  Only a failed check reduces its quotient, to
        # print it: the functional equation of quarter_rotation leaves z^2.
        expected = {"quarter_rotation": ["verify_functional_equation"]
                    }.get(name, [])
        scopes = {zetafix.ratfunc.zeta_from_terms.__code__,
                  zetafix.invariants.MapContext.n_zeta.func.__code__,
                  zetafix.zetas.verify_functional_equation.__code__}
        parsed = load_fixture(name)
        # the plus split classifies D with gcds of its own; take it first
        zetafix.invariants.map_context(parsed.spec, parsed.mapping).split
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


class TestIntegerInput:
    """A spec whose matrices are all integers is read, checked and
    reported from integer forms alone: of its matrices, of every matrix
    and polynomial made from them, and of its zetas."""

    @pytest.mark.parametrize("name",
                             FIXED_POINT_NAMES + ("halfturn_coincidence",))
    def test_report_never_makes_the_fraction_view_of_its_input(
            self, monkeypatch, name):
        # nor of any other matrix (rows) or polynomial (coeffs)
        parsed = load_fixture(name)
        viewed = []
        for cls, attr in ((RationalMatrix, "rows"), (Polynomial, "coeffs")):
            view = getattr(cls, attr)
            monkeypatch.setattr(cls, attr, property(
                lambda x, view=view: viewed.append(x) or view.__get__(x)))
        build_report(parsed)
        assert viewed == []

    @pytest.mark.parametrize("name",
                             FIXED_POINT_NAMES + ("halfturn_coincidence",))
    def test_zeta_and_coincidence_layers_build_no_fraction(
            self, monkeypatch, name):
        # A Fraction is charged to the innermost of these functions on the
        # stack; det, which returns one, takes the degree det(D) of a map.
        # The trichotomy reads its tau determinants on integer forms.
        scopes = {f.__code__: f.__name__ for f in (
            zetafix.ratfunc.zeta_from_terms, zetafix.report._zeta_entry,
            zetafix.invariants.cyclic_decomposition,
            zetafix.invariants._Trichotomy.__init__,
            zetafix.invariants._Trichotomy.at, zetafix.algebra.det)}
        parsed = load_fixture(name)
        made = []
        new = Fraction.__new__

        def recorded(cls, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in scopes:
                frame = frame.f_back
            if frame is not None:
                made.append(scopes[frame.f_code])
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", recorded)
        build_report(parsed)
        assert set(made) <= {"det"}

    @pytest.mark.parametrize("name", FIXED_POINT_NAMES)
    def test_plus_split_products_build_no_fraction(self, monkeypatch, name):
        parsed = load_fixture(name)
        spec, f = parsed.spec, parsed.mapping
        # the kernel and the classification of D come first
        zetafix.manifolds.averaging_kernel(spec, f)
        f.spectrum
        products, made = [], []
        matmul, new = RationalMatrix.__matmul__, Fraction.__new__
        with monkeypatch.context() as patch:
            patch.setattr(RationalMatrix, "__matmul__",
                          lambda a, b: products.append(b) or matmul(a, b))
            patch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                          made.append(a) or new(cls, *a, **k))
            compute_plus_split(spec, f)
        assert products == [f.linear] * spec.order
        assert made == []


class TestDegreeBoundWindow:
    def test_torus_lefschetz_read_through_its_own_window(self, monkeypatch):
        # T^6 with trivial holonomy: r_i = C(6, i), so E = O = 32 and the
        # Lefschetz zeta has order at most 33.  Its rebuild reads
        # 3 * 33 + 4 = 103 terms; a bound of 2^6 would read 196.
        spec = ManifoldSpec.make("t6", 6, [("I", RationalMatrix.identity(6))])
        d = [[(2, -3, 3, -2, 2, 3)[i] if i == j else 0 for j in range(6)]
             for i in range(6)]
        read = []
        orig = zetafix.invariants._lefschetz_at
        monkeypatch.setattr(zetafix.invariants, "_lefschetz_at",
                            lambda kernel, n, **kw: read.append(n)
                            or orig(kernel, n, **kw))
        build_report(ParsedSpec(spec, AffineMapSpec.make("f", d)))
        assert max(read) == 3 * 33 + 4


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

    @pytest.mark.parametrize("name, sieved", [
        ("heisenberg_ex3", ["lefschetz", "nielsen"]),     # every R finite
        ("klein_bottle_ex1", ["lefschetz", "nielsen", "reidemeister"]),
    ])
    def test_reidemeister_sieve_only_with_an_infinite_term(
            self, monkeypatch, name, sieved):
        # every finite R(f^n) is checked equal to N(f^n) as it is read,
        # so with no infinite term the Reidemeister entry reuses N's sieve
        parsed = load_fixture(name)
        calls = _record_calls(monkeypatch, zetafix.congruences, "check_gauss")
        entries = congruence_entries(parsed.spec, parsed.mapping)
        assert [args[0].name.split(":")[0] for args in calls] == sieved
        ctx = zetafix.invariants.map_context(parsed.spec, parsed.mapping)
        assert entries[2] == zetafix.report._congruence_entry(
            zetafix.congruences.check_gauss(ctx.r_seq, CONGRUENCE_N_MAX),
            "reidemeister", n_max=CONGRUENCE_N_MAX)


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
