"""Command-line behaviour: exit codes, output formats, golden reports."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import zetafix
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

    @pytest.mark.parametrize("command, spec, flag, value", [
        (command, spec, "--max-n", value)
        for command, spec in [("numbers", "heisenberg_ex3"),
                              ("coincidence", "halfturn_coincidence"),
                              ("numbers", "sol_r_2")]
        for value in ("-3", "0", "x")
    ] + [
        (command, "heisenberg_ex3", "--tol", value)
        for command in ("numbers", "validate", "report")
        for value in ("5", "-1", "0", "1", "nan", "inf", "x")
    ])
    def test_out_of_range_flag(self, capsys, command, spec, flag, value):
        with pytest.raises(SystemExit) as info:
            main([command, spec, flag, value])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert f"argument {flag}" in captured.err
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

    def test_wrong_command_for_target(self, capsys):
        for argv in (("report", "sol_r_2"),
                     ("entropy", "halfturn_coincidence"),
                     ("coincidence", "heisenberg_ex3"),
                     ("congruences", "halfturn_coincidence")):
            code, _, err = run_main(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error:"), argv


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
        from zetafix import AffineMapSpec, ParsedSpec, write_spec_file
        path = tmp_path / "klein_pair.json"
        ident = AffineMapSpec.make("g", [[1, 0], [0, 1]])
        write_spec_file(ParsedSpec(ex1.spec, ex1.mapping, ident, ex1.options),
                        path)
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
        from zetafix import write_spec_file
        path = tmp_path / "h.json"
        write_spec_file(ex3, path)
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

    def test_tolerance_override(self, capsys):
        code, _, _ = run_main(capsys, "report", "heisenberg_ex3",
                              "--tol", "1e-9")
        assert code == 0


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


def _run_module(*argv):
    """python -m zetafix.cli in a child that imports the same package as
    these tests, installed or not."""
    env = dict(os.environ)
    src = str(Path(zetafix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "zetafix.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestSubprocess:
    def test_module_runs_and_is_deterministic(self):
        argv = ("report", "heisenberg_ex3", "--format", "json")
        first = _run_module(*argv)
        second = _run_module(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout == \
            (GOLDEN / "report_heisenberg_ex3.json").read_text()

    def test_exit_code_crosses_process_boundary(self):
        proc = _run_module("zeta", "quarter_rotation", "--which", "R")
        assert proc.returncode == 3
        assert proc.stderr.startswith("undefined: R(f^1) is infinite")
