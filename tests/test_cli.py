"""Command-line behaviour: exit codes, output formats, golden reports."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import zetafix
import zetafix.algebra
import zetafix.invariants
import zetafix.report
from conftest import _record_calls, write_spec
from zetafix import (NielsenFormulaMismatch, build_report, builtin_fixtures,
                     load_fixture)
from zetafix.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run_main(capsys, "validate", "heisenberg_ex3")
        assert code == 0 and err == ""
        assert out == ("OK: heisenberg_ex3: dimension 3, holonomy order 2, "
                       "orientable\n")

    def test_unknown_fixture(self, capsys):
        code, out, err = run_main(capsys, "report", "nope")
        assert code == 2
        assert "neither a spec file nor a builtin fixture" in err

    @pytest.mark.parametrize("target, parses", [
        ("torus_cat_map", 1), ("sol_r_2", 0), ("nope", 0)])
    def test_only_the_named_builtin_is_parsed(self, capsys, monkeypatch,
                                              target, parses):
        calls = _record_calls(monkeypatch, zetafix.specio, "parse_spec_data")
        code, out, err = run_main(capsys, "validate", target)
        assert len(calls) == parses
        if target == "nope":
            assert code == 2 and out == ""
            assert err == (
                "error: InvalidSpecFile: 'nope' is neither a spec file nor a "
                "builtin fixture (builtins: klein_bottle_ex1, heisenberg_ex3, "
                "torus_cat_map, identity_torus, klein_type_3_5, klein_type_3_0, "
                "halfturn_coincidence, quarter_rotation, sol_r_2, sol_r_3)\n")
        else:
            assert code == 0 and err == ""

    def test_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_main(capsys, "validate", str(bad))
        assert code == 2 and "not valid JSON" in err

    def test_malformed_field(self, capsys, tmp_path):
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("identity_torus.json").read_text())
        spec["map"]["translation"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_main(capsys, "report", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "map.translation" in err
        assert "Traceback" not in err

    def test_non_string_label(self, capsys, tmp_path):
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("torus_cat_map.json").read_text())
        spec["map"]["label"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_main(capsys, "report", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "map.label" in err
        assert "Traceback" not in err

    def test_incompatible_linear_part(self, capsys, tmp_path):
        # the Klein bottle with D = [[2,1],[0,3]]: D A = A' D for no A'
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("klein_bottle_ex1.json").read_text())
        spec["map"]["D"] = [[2, 1], [0, 3]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        for command in ("validate", "report"):
            code, out, err = run_main(capsys, command, str(bad))
            assert code == 2 and out == ""
            assert err.startswith("error: NonInvariantSubspace: map 'f' is "
                                  "incompatible with holonomy element 'A'")

    @pytest.mark.parametrize("options", ["false", "[]", "null"])
    def test_options_not_an_object(self, capsys, tmp_path, options):
        # a falsy non-object options block is refused; null means defaults
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("torus_cat_map.json").read_text())
        spec["options"] = "__VALUE__"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec).replace('"__VALUE__"', options))
        code, out, err = run_main(capsys, "validate", str(bad))
        if options == "null":
            assert code == 0 and err == ""
        else:
            assert code == 2 and out == ""
            assert err == "error: InvalidSpecFile: options must be an object\n"

    @pytest.mark.parametrize("path, value, field", [
        (("options", "tolerance"), "1" + "0" * 400, "options.tolerance"),
        (("options", "n_max"), "9" * 5000, "options.n_max"),
        (("options", "degree_bound_override"), "0",
         "options.degree_bound_override"),
        (("map", "D"), '[["1e9999999", 0], [0, 1]]', "map.D"),
        (("map", "D"), '[["0.5", 0], [0, 1]]', "map.D"),
    ])
    def test_malformed_number(self, capsys, tmp_path, path, value, field):
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("torus_cat_map.json").read_text())
        section, key = path
        spec.setdefault(section, {})[key] = "__VALUE__"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec).replace('"__VALUE__"', value))
        for command in ("validate", "report"):
            code, out, err = run_main(capsys, command, str(bad))
            assert code == 2 and out == ""
            assert err.startswith("error: InvalidSpecFile: " + field)
            assert "Traceback" not in err

    @pytest.mark.parametrize("n_max", [1001, 10 ** 6])
    def test_n_max_over_the_ceiling(self, capsys, tmp_path, n_max):
        # one check for the spec option and the flag; nothing is computed
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("torus_cat_map.json").read_text())
        spec["options"] = {"n_max": n_max}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        for command in ("validate", "numbers", "report"):
            code, out, err = run_main(capsys, command, str(bad))
            assert (code, out) == (2, "")
            assert err == ("error: InvalidSpecFile: options.n_max must be "
                           "<= 1000\n")
        for command, target in [("numbers", "torus_cat_map"),
                                ("numbers", "sol_r_2"),
                                ("congruences", "torus_cat_map"),
                                ("coincidence", "halfturn_coincidence")]:
            code, out, err = run_main(capsys, command, target,
                                      "--max-n", str(n_max))
            assert (code, out) == (2, "")
            assert err == "error: InvalidSpecFile: --max-n must be <= 1000\n"

    @pytest.mark.parametrize("command, spec, flag, value", [
        (command, spec, "--max-n", value)
        for command, spec in [("numbers", "heisenberg_ex3"),
                              ("coincidence", "halfturn_coincidence"),
                              ("numbers", "sol_r_2")]
        for value in ("-3", "0", "x")
    ] + [
        # there is no eigenvalue tolerance: --tol is an unknown option
        # whatever its value
        (command, "heisenberg_ex3", "--tol", value)
        for command in ("numbers", "validate", "report")
        for value in ("5", "-1", "0", "1", "nan", "inf", "x")
    ])
    def test_out_of_range_flag(self, capsys, command, spec, flag, value):
        with pytest.raises(SystemExit) as info:
            main([command, spec, flag, value])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert (f"unrecognized arguments: {flag} {value}" if flag == "--tol"
                else f"argument {flag}") in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, spec, flag, value", [
        (command, "heisenberg_ex3", "--max-n", "5")
        for command in ("validate", "zeta", "entropy", "report")
    ] + [
        (command, spec, "--which", "R")
        for command, spec in [("validate", "heisenberg_ex3"),
                              ("numbers", "heisenberg_ex3"),
                              ("congruences", "heisenberg_ex3"),
                              ("entropy", "heisenberg_ex3"),
                              ("coincidence", "halfturn_coincidence"),
                              ("report", "heisenberg_ex3")]
    ])
    def test_flag_the_command_ignores(self, capsys, command, spec, flag, value):
        # only numbers, congruences and coincidence read --max-n, only
        # zeta reads --which
        with pytest.raises(SystemExit) as info:
            main([command, spec, flag, value])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert "Traceback" not in captured.err

    def test_unreadable_path(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "validate", str(tmp_path))
        assert code == 2 and err.startswith("error:")

    def test_undefined_zeta(self, capsys):
        code, _, err = run_main(capsys, "zeta", "klein_bottle_ex1",
                                "--which", "R")
        assert code == 3
        assert err.startswith("undefined: R(f^2) is infinite")

    def test_cross_check_failure(self, capsys, monkeypatch):
        import zetafix.cli as cli_mod

        def boom(*a, **k):
            raise NielsenFormulaMismatch("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "nielsen_zeta", boom)
        code, _, err = run_main(capsys, "zeta", "heisenberg_ex3")
        assert code == 4
        assert err.startswith("cross-check failed: NielsenFormulaMismatch")

    def test_zeta_rejects_a_coincidence_spec(self, capsys):
        # like entropy and congruences: a pair spec has no map zeta
        for which in ([], ["--which", "L"], ["--format", "json"]):
            code, out, err = run_main(capsys, "zeta", "halfturn_coincidence",
                                      *which)
            assert (code, out) == (2, ""), which
            assert err == ("error: InvalidSpecFile: zeta applies to "
                           "single-map specs\n")

    def test_wrong_command_for_target(self, capsys):
        for argv in (("report", "sol_r_2"),
                     ("entropy", "halfturn_coincidence"),
                     ("coincidence", "heisenberg_ex3"),
                     ("congruences", "halfturn_coincidence")):
            code, _, err = run_main(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error:"), argv


def _plant_shifted(monkeypatch, n, fault):
    """Replace the det(A - D^n) list of iterate n by fault(dets, den), for
    every reader of the kernel's range path."""
    orig = zetafix.algebra.AveragingKernel.shifted_dets

    def shifted_dets(self, ns):
        return [(fault(dets, den), den) if m == n else (dets, den)
                for m, (dets, den) in zip(ns, orig(self, ns))]

    monkeypatch.setattr(zetafix.algebra.AveragingKernel, "shifted_dets", shifted_dets)


def _skew_shifted(monkeypatch, n):
    # one det(A - D^n) moved by |Phi| times the common denominator: the
    # average stays an integer and grows by one
    def skew(dets, den):
        step = den * len(dets) * (1 if dets[0] >= 0 else -1)
        return [dets[0] + step] + dets[1:]
    _plant_shifted(monkeypatch, n, skew)


class TestReidemeisterCrossCheck:
    """Every finite R(f^n), averaged from det(A - D^n), is compared with
    N(f^n), averaged from det(I - A D^n)."""

    @pytest.fixture
    def skewed(self, monkeypatch):
        # one det(A - D^2) moved by |Phi| times the common denominator:
        # the average stays an integer, one larger than N(f^2) = 24
        _skew_shifted(monkeypatch, 2)

    def test_report_raises(self, skewed, ex3):
        with pytest.raises(NielsenFormulaMismatch,
                           match=r"R\(f\^2\) = 25 differs from N\(f\^2\) = 24"):
            build_report(ex3)
        with pytest.raises(NielsenFormulaMismatch):
            zetafix.reidemeister(ex3.spec, ex3.mapping, 2)

    def test_cli_exits_4(self, skewed, capsys):
        code, out, err = run_main(capsys, "report", "heisenberg_ex3")
        assert (code, out) == (4, "")
        assert err == ("cross-check failed: NielsenFormulaMismatch: "
                       "R(f^2) = 25 differs from N(f^2) = 24\n")

    def test_infinite_r_without_a_fixed_point_zero_exits_4(self, monkeypatch,
                                                           capsys):
        # one nonzero det(A - D) set to 0 would print R(f) = inf beside
        # N(f) = 1, though no det(I - A D) vanishes
        _plant_shifted(monkeypatch, 1, lambda dets, den: [0] + dets[1:])
        code, out, err = run_main(capsys, "report", "torus_cat_map")
        assert (code, out) == (4, "")
        assert err == ("cross-check failed: NielsenFormulaMismatch: "
                       "R(f^1) is infinite, but no det(I - A D^1) vanishes\n")


class TestTermsPastTheWindow:
    """Terms past a rebuild window are read off the certified zeta, never
    made from determinants, and a failed certificate fails every time."""

    @pytest.fixture
    def planted(self, monkeypatch):
        # add d to one term of L (members is None) or N: 22 is 0 mod 11
        # and mod 22, so the congruences to n = 30 do not see it
        def plant(name, k, d=22):
            orig = getattr(zetafix.invariants, name)

            def faulty(kernel, lo, hi, *members):
                return [v + d * (n == k and not members) for n, v in
                        enumerate(orig(kernel, lo, hi, *members), lo)]

            monkeypatch.setattr(zetafix.invariants, name, faulty)
        return plant

    @pytest.mark.parametrize("name, k", [
        # klein_bottle_ex1 has window 10; its report's table reads L and
        # N to 12, R(f^12) is infinite, and only N(f^11) meets R
        ("_lefschetz_terms", 11), ("_nielsen_terms", 11), ("_nielsen_terms", 12)])
    def test_planted_fault_past_the_window_is_never_made(
            self, planted, capsys, name, k):
        runs = [("report", "klein_bottle_ex1", "--format", "json"),
                ("numbers", "klein_bottle_ex1")]
        want = [run_main(capsys, *argv) for argv in runs]
        assert [code for code, _, _ in want] == [0, 0]
        zetafix.invariants.map_context.cache_clear()
        planted(name, k)
        for argv, expected in zip(runs, want):
            assert run_main(capsys, *argv) == expected
        assert json.loads(want[0][1])["numbers"]["lefschetz"][10] == 2

    def test_failed_certificate_exits_4_every_time(self, planted, capsys):
        # a fault in the Nielsen window fails the sign formula's check; a
        # second command in the same process meets the same failure
        planted("_nielsen_terms", 9, 1)
        zetafix.invariants.map_context.cache_clear()
        for argv in (("report", "klein_bottle_ex1"), ("report", "klein_bottle_ex1"),
                     ("numbers", "klein_bottle_ex1", "--max-n", "20")):
            code, out, err = run_main(capsys, *argv)
            assert (code, out) == (4, ""), argv
            assert err == ("cross-check failed: NielsenFormulaMismatch: "
                           "N(f^9) = 1025 differs from the sign formula's 1024\n"), argv
        zetafix.invariants.map_context.cache_clear()

    def test_reidemeister_skew_past_the_window(self, monkeypatch):
        # R(f^20) from det(A - D^n) is still compared with N(f^20), which
        # is now read off the certified Nielsen zeta
        ex3 = zetafix.load_fixture("heisenberg_ex3")
        ctx = zetafix.invariants.map_context(ex3.spec, ex3.mapping)
        assert 3 * ctx.n_seq.degree_bound + 4 < 20 <= 30
        _skew_shifted(monkeypatch, 20)
        with pytest.raises(NielsenFormulaMismatch, match=r"R\(f\^20\) = \d+ differs"):
            build_report(ex3)

    def test_numbers_to_200_through_the_zetas(self, capsys):
        # the same table as the determinant route gave (sha256 of its
        # output), every term past the windows read off the zetas
        code, out, _ = run_main(capsys, "numbers", "torus_cat_map", "--max-n", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d0323c4edb5f71e5c67530b03e29a89a177e4b2f693ce4582ce4efdae21ddcb2")
        fx = zetafix.load_fixture("torus_cat_map")
        ctx = zetafix.invariants.map_context(fx.spec, fx.mapping)
        assert ctx.l_seq._zeta is not None and ctx.n_seq._zeta is not None
        # L(f^n) = det(I - D^n) = 2 - tr(D^n) for D = [[2, 1], [1, 1]]
        a, b, c = 2, 1, 1               # D^n = [[a, b], [b, c]]
        lefschetz = []
        for _ in range(200):
            lefschetz.append(2 - a - c)
            a, b, c = 2 * a + b, a + b, b + c
        assert out.splitlines()[1] == "L: " + ", ".join(map(str, lefschetz))


class TestCoincidenceIterates:
    """Every printed coincidence N row is checked against the
    trichotomy's prediction, by each command that prints one."""

    @pytest.mark.parametrize("argv", [("report",), ("numbers",), ("coincidence",),
                                      ("numbers", "--max-n", "3")])
    def test_planted_iterate_exits_4(self, monkeypatch, capsys, argv):
        orig = zetafix.invariants._coincidence_terms

        def planted(kernel, lo, hi, orientable):
            return [c._replace(nielsen=c.nielsen + 1) if n == 3 else c
                    for n, c in enumerate(orig(kernel, lo, hi, orientable), lo)]

        # the report reads the pair's rows through its own binding
        for module in (zetafix.invariants, zetafix.report):
            monkeypatch.setattr(module, "_coincidence_terms", planted)
        code, out, err = run_main(capsys, argv[0], "halfturn_coincidence", *argv[1:])
        assert (code, out) == (4, "")
        assert err == ("cross-check failed: TrichotomyMismatch: case 2 predicts "
                       "N(f^3, g^3) = 793 but averaging gives 794\n")


class TestCommands:
    def test_numbers_human(self, capsys):
        code, out, _ = run_main(capsys, "numbers", "klein_bottle_ex1",
                                "--max-n", "4")
        assert code == 0
        assert out == ("klein_bottle_ex1, n = 1..4\n"
                       "L: 2, 0, 2, 0\n"
                       "N: 4, 0, 16, 0\n"
                       "R: 4, inf, 16, inf\n")

    def test_numbers_json(self, capsys):
        code, out, _ = run_main(capsys, "numbers", "klein_bottle_ex1",
                                "--max-n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "name": "klein_bottle_ex1", "n_max": 3,
            "lefschetz": [2, 0, 2], "nielsen": [4, 0, 16],
            "reidemeister": [4, "inf", 16]}

    def test_numbers_non_orientable_pair(self, capsys, tmp_path, ex1):
        from zetafix import AffineMapSpec, ParsedSpec
        path = tmp_path / "klein_pair.json"
        ident = AffineMapSpec.make("g", [[1, 0], [0, 1]])
        write_spec(ParsedSpec(ex1.spec, ex1.mapping, ident, ex1.options), path)
        code, out, _ = run_main(capsys, "numbers", str(path), "--max-n", "3")
        assert code == 0
        assert out == ("klein_bottle_ex1, pair (f, g), n = 1..3\n"
                       "L: 2, 0, 2\n"
                       "N: not defined (non-orientable)\n"
                       "R: 4, inf, 16\n")

    @pytest.mark.parametrize("name", [n for n, fx in builtin_fixtures().items()
                                      if hasattr(fx, "spec")])
    def test_numbers_json_matches_report(self, capsys, name):
        code, out, _ = run_main(capsys, "numbers", name, "--format", "json")
        assert code == 0
        doc = build_report(load_fixture(name))
        section = doc.get("numbers") or doc["coincidence_numbers"]
        assert json.loads(out) == {"name": name, **section}

    def test_numbers_sequence_fixture(self, capsys):
        code, out, _ = run_main(capsys, "numbers", "sol_r_2", "--max-n", "5")
        assert code == 0
        assert out == "sol_r_2, n = 1..5\na: 1, 3, 7, 15, 31\n"

    def test_zeta_variants(self, capsys):
        expectations = {
            "L": "Lefschetz zeta of heisenberg_ex3: (1-4z)/(1-z)   [direct]",
            "N": ("Nielsen zeta of heisenberg_ex3: (1+2z-2z^2)/(1-4z-8z^2)   "
                  "[sign-formula (plus-proper, p=0, n=2)]"),
            "R": ("Reidemeister zeta of heisenberg_ex3: (1+2z-2z^2)/"
                  "(1-4z-8z^2)   [sign-formula (plus-proper, p=0, n=2)]"),
            "AM": ("ArtinMazur zeta of heisenberg_ex3: (1+2z-2z^2)/"
                   "(1-4z-8z^2)   [sign-formula (plus-proper, p=0, n=2)]"),
        }
        for which, line in expectations.items():
            code, out, _ = run_main(capsys, "zeta", "heisenberg_ex3",
                                    "--which", which)
            assert code == 0 and out == line + "\n"

    def test_zeta_defaults_to_nielsen(self, capsys):
        code, out, _ = run_main(capsys, "zeta", "klein_bottle_ex1")
        assert code == 0
        assert "Nielsen zeta of klein_bottle_ex1: (1+2z)/(1-2z)" in out

    def test_zeta_of_sequence_fixture(self, capsys):
        code, out, _ = run_main(capsys, "zeta", "sol_r_2")
        assert code == 0
        assert out == "zeta of sol_r_2: (1-z)/(1-2z)\n"
        code, out, _ = run_main(capsys, "zeta", "sol_r_3")
        assert code == 0
        assert out == "zeta of sol_r_3: (1-z)/(1-3z)\n"

    def test_congruences_sequence(self, capsys):
        code, out, _ = run_main(capsys, "congruences", "sol_r_2",
                                "--max-n", "12")
        assert code == 0
        assert out == "Gauss on sol_r_2 (n<=12): pass\n"

    def test_congruences_spec(self, capsys):
        code, out, _ = run_main(capsys, "congruences", "heisenberg_ex3",
                                "--max-n", "10")
        assert code == 0
        assert out.splitlines() == [
            "Dold on lefschetz (n<=10): pass",
            "Gauss on nielsen (n<=10): pass",
            "Gauss on reidemeister (n<=10): pass",
            "Euler on lefschetz (p=2, r<=3): pass",
            "Euler on lefschetz (p=3, r<=2): pass"]

    def test_entropy(self, capsys):
        code, out, _ = run_main(capsys, "entropy", "klein_bottle_ex1")
        assert code == 0
        assert out == ("klein_bottle_ex1: N_infinity = 2, entropy = "
                       "0.693147180559945, radius = 0.5\n"
                       "radius check: ok: radius * growth rate = 1 "
                       "within 1e-6\n")

    def test_coincidence(self, capsys):
        code, out, _ = run_main(capsys, "coincidence", "halfturn_coincidence",
                                "--max-n", "3")
        assert code == 0
        assert out == ("halfturn_coincidence, pair (f, g), n = 1..3\n"
                       "L: 13, 97, 793\n"
                       "N: 13, 97, 793\n"
                       "R: 13, 97, 793\n"
                       "trichotomy: case 2, N(f,g) = 13, signs (1, 1)\n")

    def test_validate_spec_file(self, capsys, tmp_path, ex3):
        path = tmp_path / "h.json"
        write_spec(ex3, path)
        code, out, _ = run_main(capsys, "validate", str(path))
        assert code == 0 and out.startswith("OK: heisenberg_ex3")

    def test_validate_sequence_fixture(self, capsys):
        code, out, _ = run_main(capsys, "validate", "sol_r_3")
        assert code == 0 and out == "OK: sol_r_3 (sequence fixture)\n"

    def test_report_json_matches_library(self, capsys):
        code, out, _ = run_main(capsys, "report", "torus_cat_map",
                                "--format", "json")
        assert code == 0
        assert json.loads(out) == build_report(load_fixture("torus_cat_map"))

    def test_tolerance_override(self, capsys, tmp_path):
        # options.tolerance is echoed and read by nothing else: every
        # value gives the same report but for the echo
        spec = json.loads(resources.files("zetafix.data")
                          .joinpath("heisenberg_ex3.json").read_text())
        docs = []
        for tol in (1e-10, 1e-3, 0.9):
            spec["options"]["tolerance"] = tol
            path = tmp_path / f"ex3_{tol}.json"
            path.write_text(json.dumps(spec))
            code, out, _ = run_main(capsys, "report", str(path),
                                    "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["input"]["options"].pop("tolerance") == tol
            docs.append(doc)
        assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize("name", ["heisenberg_ex3", "klein_bottle_ex1",
                                  "halfturn_coincidence"])
class TestGoldenReports:
    def test_human(self, capsys, name):
        code, out, _ = run_main(capsys, "report", name)
        assert code == 0
        assert out == (GOLDEN / f"report_{name}.txt").read_text()

    def test_json(self, capsys, name):
        code, out, _ = run_main(capsys, "report", name, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"report_{name}.json").read_text()


def _run_python(*argv):
    """python with argv in a child that imports the same package as these
    tests, installed or not."""
    env = dict(os.environ)
    src = str(Path(zetafix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env)


def _run_module(*argv):
    """python -m zetafix.cli in a child (see _run_python)."""
    return _run_python("-m", "zetafix.cli", *argv)


class TestSubprocess:
    def test_module_runs_and_is_deterministic(self):
        argv = ("report", "heisenberg_ex3", "--format", "json")
        first = _run_module(*argv)
        second = _run_module(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout == \
            (GOLDEN / "report_heisenberg_ex3.json").read_text()

    def test_deeply_nested_json(self, tmp_path):
        # the decoder gives up on the nesting with a RecursionError
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "]" * 200000)
        proc = _run_module("report", str(bad))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: InvalidSpecFile: not valid JSON")
        assert "Traceback" not in proc.stderr

    def test_exit_code_crosses_process_boundary(self):
        proc = _run_module("zeta", "quarter_rotation", "--which", "R")
        assert proc.returncode == 3
        assert proc.stderr.startswith("undefined: R(f^1) is infinite")

    @pytest.mark.parametrize("module", ["zetafix", "zetafix.cli"])
    def test_import_leaves_dataclasses_and_inspect_unloaded(self, module):
        # the result records are named tuples: start-up generates no
        # dataclass methods and loads neither dataclasses nor the inspect
        # module it pulls in
        proc = _run_python(
            "-c",
            f"import sys, {module}\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n")
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    @pytest.mark.parametrize("exact_call", [
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['numbers', 'heisenberg_ex3'])",
        "nielsen(ex3.spec, ex3.mapping, 1)",
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['report', 'identity_torus'])",
    ], ids=["cli-numbers", "nielsen", "cli-report-identity-torus"])
    def test_exact_answers_leave_numpy_unloaded(self, exact_call):
        # the sign formula's counts and the plus split are exact, so only
        # a float output, here the report's asymptotics, loads numpy; the
        # identity torus's D = I leaves no expanding root to find, so its
        # whole report needs none
        proc = _run_python(
            "-c",
            "import contextlib, io, sys\n"
            "from zetafix import build_report, load_fixture, nielsen\n"
            "from zetafix.cli import main\n"
            "ex3 = load_fixture('heisenberg_ex3')\n"
            f"{exact_call}\n"
            "print('numpy' in sys.modules)\n"
            "build_report(ex3)\n"
            "print('numpy' in sys.modules)\n")
        assert (proc.returncode, proc.stdout) == (0, "False\nTrue\n")


def _torus_spec(name: str, d: list) -> dict:
    """A spec of the torus T^dim (trivial holonomy) with linear part d."""
    dim = len(d)
    return {"schema": 1, "name": name, "dimension": dim,
            "holonomy": [{"label": "I", "matrix": _jordan(dim, 1, 0)}],
            "map": {"label": "f", "D": d}}


def _jordan(dim: int, eigenvalue: int, off: int = 1) -> list:
    """eigenvalue on the diagonal and off on the superdiagonal."""
    return [[eigenvalue if i == j else off * (j == i + 1) for j in range(dim)]
            for i in range(dim)]


class TestUnitSpectrum:
    """Every eigenvalue of D exactly on the unit circle, with multiplicity
    up to 7: the counts are exact, so the report needs no numeric
    separation of the roots from the circle."""

    @pytest.mark.parametrize("dim", [6, 7])
    @pytest.mark.parametrize("kind, eigenvalue, off", [
        ("identity", 1, 0), ("minus-identity", -1, 0), ("jordan", 1, 1)])
    def test_report(self, capsys, tmp_path, dim, kind, eigenvalue, off):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_torus_spec(
            f"T{dim}_{kind}", _jordan(dim, eigenvalue, off))))
        code, out, err = run_main(capsys, "report", str(path))
        assert code == 0 and err == ""
        assert "entropy = 0, " in out
        assert "  virtually unipotent: yes\n" in out


class TestBeyondFloatRange:
    """T^2 with D = diag(10^160, 10^160): every exact answer exists, but
    the characteristic polynomial has the coefficient 10^320, beyond the
    float range, so the float outputs cannot be formed."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_torus_spec(
            "T2_huge", _jordan(2, 10 ** 160, 0))))
        return path

    def test_numbers_succeed(self, capsys, path):
        code, out, err = run_main(capsys, "numbers", str(path))
        assert code == 0 and err == ""
        # L(f) = det(I - D) = (1 - 10^160)^2 = N(f) = R(f)
        for row in "LNR":
            assert f"{row}: {(10 ** 160 - 1) ** 2}, " in out

    @pytest.mark.parametrize("which", ["N", "R"])
    def test_zeta_succeeds(self, capsys, path, which):
        code, out, err = run_main(capsys, "zeta", str(path), "--which", which)
        d = 10 ** 160
        assert code == 0 and err == ""
        assert out.endswith(f": (1-{2 * d}z+{d * d}z^2)/(1-{d * d + 1}z+"
                            f"{d * d}z^2)   [sign-formula (plus-equal, "
                            "p=2, n=0)]\n")

    @pytest.mark.parametrize("command", ["report", "entropy"])
    def test_float_outputs_raise_a_typed_error(self, capsys, path, command):
        code, out, err = run_main(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: OutOfFloatRange: cannot compute the "
                              "entropy (the expanding log product) in "
                              "floating point")
        assert "Traceback" not in err
