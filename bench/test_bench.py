"""The benchmark's own tests: python3 -m pytest -q bench"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402
import zetafix     # noqa: E402
import zetafix.algebra  # noqa: E402
import zetafix.cli  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args) -> tuple:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _report(case: dict):
    doc = zetafix.build_report(zetafix.parse_spec_data(case["spec"]))
    return ("ok", doc, json.dumps(doc, indent=2), zetafix.render_human(doc))


# --------------------------------------------------------------------------
# smoke runs: every named metric, with its unit
# --------------------------------------------------------------------------


def test_untraced_smoke_run_emits_every_end_to_end_metric():
    out, result = _run("--workload", "fixtures", "--seed", "3",
                       "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 8
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac  0.0000 ratio (0/8)" in out


def test_traced_smoke_run_emits_every_per_layer_metric():
    _, result = _run("--workload", "fixtures", "--seed", "3",
                     "--seconds", "0", "--trace", "1")
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert len(want) <= 128
    metrics = result["metrics"]
    assert metrics["report.build_report.calls"]["value"] == 1.0
    assert metrics["zetas.nielsen_zeta.calls"]["value"] > 0
    assert metrics["algebra.exterior_power.calls"]["value"] == 0.0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "fixtures", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --------------------------------------------------------------------------
# the checker counts a wrong number as a failure
# --------------------------------------------------------------------------


def test_altered_fixture_report_is_a_failure():
    case = next(c for c in workloads.fixture_cases(ROOT, 0)
                if c["id"] == "heisenberg_ex3")
    checker = checks.Checker("fixtures", ROOT)
    outcome = _report(case)
    assert checker(case, outcome) is None
    doc = copy.deepcopy(outcome[1])
    doc["numbers"]["nielsen"][3] += 1
    bad = ("ok", doc, json.dumps(doc, indent=2), zetafix.render_human(doc))
    assert checker(case, bad) is not None


def test_altered_digest_fixture_is_a_failure():
    case = next(c for c in workloads.fixture_cases(ROOT, 0)
                if c["id"] == "torus_cat_map")
    checker = checks.Checker("fixtures", ROOT)
    outcome = _report(case)
    assert checker(case, outcome) is None
    doc = copy.deepcopy(outcome[1])
    doc["numbers"]["lefschetz"][0] -= 1
    bad = ("ok", doc, json.dumps(doc, indent=2), zetafix.render_human(doc))
    assert checker(case, bad) is not None


def test_altered_ladder_number_is_a_failure():
    case = workloads.ladder_cases(0)[0]          # dim 2, trivial holonomy
    outcome = _report(case)
    assert checks.check_ladder(case, outcome) is None
    doc = copy.deepcopy(outcome[1])
    doc["numbers"]["lefschetz"][5] += 1
    assert checks.check_ladder(case, ("ok", doc, "", "")) is not None
    doc = copy.deepcopy(outcome[1])
    doc["zetas"][0]["numerator"][-1] = "7"
    assert checks.check_ladder(case, ("ok", doc, "", "")) is not None


def test_corpus_checks():
    cases = workloads.corpus_cases(0)[:25]
    fixed = next(c for c in cases if c["kind"] == "fixed" and "t2" in c["id"])
    outcome = _report(fixed)
    assert checks.check_fixed(fixed, outcome) is None
    doc = copy.deepcopy(outcome[1])
    doc["numbers"]["nielsen"][0] += 1
    assert checks.check_fixed(fixed, ("ok", doc, "", "")) is not None
    doc = copy.deepcopy(outcome[1])
    del doc["zetas"]
    assert checks.check_fixed(fixed, ("ok", doc, "", "")) is not None
    for which in checks.ALWAYS_DEFINED:
        doc = copy.deepcopy(outcome[1])
        next(z for z in doc["zetas"] if z["which"] == which)["defined"] = False
        assert checks.check_fixed(fixed, ("ok", doc, "", "")) is not None
    for case in cases:
        if case["kind"] != "reject" or case["error"] == "NonInvariantSubspace":
            continue
        with pytest.raises(zetafix.ZetafixError) as info:
            zetafix.parse_spec_data(json.loads(json.dumps(case["spec"])))
        assert checks.check_reject(case, ("error", info.value)) is None
        assert checks.check_reject(case, ("error", ValueError("x"))) is not None
        assert checks.check_reject(case, outcome) is not None


def test_only_the_seed_defects_are_known():
    cases = workloads.corpus_cases(0)[:25]
    bad = next(c for c in cases if c["id"].endswith(":incompatible"))
    accepted = _report(bad)
    assert checks.check_reject(bad, accepted) is not None
    assert checks.is_known_defect("corpus", bad, accepted)
    # a crash or a wrong typed error on the same spec is a real failure
    for error in (ValueError("x"), zetafix.NotAGroup("x")):
        assert checks.check_reject(bad, ("error", error)) is not None
        assert not checks.is_known_defect("corpus", bad, ("error", error))
    rung = next(c for c in workloads.ladder_cases(0) if c["id"] == "ladder_d6_o1")
    assert checks.is_known_defect(
        "ladder", rung, ("error", zetafix.RadiusMismatch("x")))
    assert not checks.is_known_defect("ladder", rung, ("error", ValueError()))


def test_log_derivative_sums_of_a_known_zeta():
    # (1 - z) / (1 - 3z) has a_n = 3^n - 1
    entry = {"numerator": ["1", "-1"], "denominator": ["1", "-3"]}
    assert checks.log_derivative_sums(entry, 5) == [3 ** n - 1 for n in range(1, 6)]


def test_ladder_oracle_matches_library():
    case = workloads.ladder_cases(4)[2]          # dim 2, order 4
    parsed = zetafix.parse_spec_data(case["spec"])
    ls, ns = checks.ladder_oracle(case["d"], case["signs"], 4)
    assert ls == [zetafix.lefschetz(parsed.spec, parsed.mapping, n) for n in range(1, 5)]
    assert ns == [zetafix.nielsen(parsed.spec, parsed.mapping, n) for n in range(1, 5)]


# --------------------------------------------------------------------------
# the tracer patches every binding and restores all of them
# --------------------------------------------------------------------------

# Module namespaces that bind algebra.det at import time.
DET_BINDINGS = {"zetafix", "zetafix.algebra", "zetafix.invariants",
                "zetafix.report", "zetafix.zetas"}


def _bound_in(fn) -> set:
    return {name for name, mod in sys.modules.items()
            if (name == "zetafix" or name.startswith("zetafix."))
            and any(v is fn for v in vars(mod).values())}


def test_tracer_patches_every_binding_and_restores_them():
    det = zetafix.algebra.det
    lefschetz = zetafix.invariants.lefschetz
    matmul = zetafix.algebra.RationalMatrix.__matmul__
    oracle_call = zetafix.SequenceOracle.__call__
    assert _bound_in(det) == DET_BINDINGS
    assert "zetafix.cli" in _bound_in(lefschetz)
    t = tracer.Tracer()
    patched = t.install()
    try:
        assert _bound_in(det) == set()
        assert _bound_in(lefschetz) == set()
        assert zetafix.cli.lefschetz is not lefschetz
        det_bindings = [(ns, attr) for ns, attr, orig in t.patched if orig is det]
        assert len(det_bindings) == len(DET_BINDINGS)
        fixed = workloads.ladder_cases(0)[0]
        t.request = 0
        zetafix.build_report(zetafix.parse_spec_data(fixed["spec"]))
    finally:
        t.uninstall()
    assert patched > len(DET_BINDINGS)
    assert t.patched == []
    assert _bound_in(det) == DET_BINDINGS
    assert zetafix.cli.lefschetz is lefschetz
    assert zetafix.algebra.RationalMatrix.__matmul__ is matmul
    assert zetafix.SequenceOracle.__call__ is oracle_call
    agg = t.aggregate()
    assert agg["report.build_report"]["calls"] == 1
    assert agg["algebra.det"]["calls"] > 0
    assert agg["algebra.matmul"]["calls"] > 0
    assert t.lookups > 0 and agg[tracer.ORACLE_SPAN]["calls"] > 0
    # self times partition the root spans' time
    roots = sum(t.span_end[i] - t.span_start[i]
                for i in range(len(t.span_start)) if t.span_parent[i] == -1)
    total_self = sum(row["self_s"] for row in agg.values())
    assert total_self == pytest.approx(roots, rel=1e-6)


# --------------------------------------------------------------------------
# the seed decides the inputs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("make", [workloads.ladder_cases,
                                  workloads.corpus_cases])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    def specs(seed):
        return json.dumps([c["spec"] for c in make(seed)])
    assert specs(5) == specs(5)
    assert specs(5) != specs(6)


def test_ladder_shape():
    cases = workloads.ladder_cases(0)
    assert len(cases) == 13
    for case in cases:
        dim, order = len(case["d"]), len(case["signs"])
        assert order * 2 ** dim <= 64
        assert sorted(abs(x) for x in case["d"]) == sorted(
            [3] * ((dim + 1) // 2) + [2] * (dim // 2))
