"""The benchmark's tracer patches zetafix from outside by name.  Deleting
or renaming a traced function or method breaks `bench/run.py --trace 1`
only at run time, so pin every name it patches here, and the module
bindings that the benchmark's own tests assert."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import zetafix
import zetafix.algebra
import zetafix.cli
import zetafix.invariants
import zetafix.manifolds

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # executed from its source text, so no bytecode is written under bench/
    mod = types.ModuleType("bench_tracer")
    mod.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"),
         mod.__dict__)
    return mod


def test_traced_functions_exist(tracer):
    for mod_name, fns in tracer.TRACED.items():
        mod = importlib.import_module(f"zetafix.{mod_name}")
        for fn_name in fns:
            assert callable(getattr(mod, fn_name, None)), \
                f"zetafix.{mod_name}.{fn_name}"


def test_traced_methods_exist(tracer):
    targets = [(mod, cls, attr) for _, mod, cls, attr in tracer.TRACED_METHODS]
    for mod_name, cls_name, attr in targets + [tracer.ORACLE]:
        cls = getattr(importlib.import_module(f"zetafix.{mod_name}"), cls_name)
        assert attr in cls.__dict__, f"zetafix.{mod_name}.{cls_name}.{attr}"


def _bench_det_bindings() -> set:
    # read from the source text, so no bytecode is written under bench/
    tree = ast.parse((BENCH / "test_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "DET_BINDINGS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/test_bench.py defines no DET_BINDINGS")


def test_det_bound_where_the_benchmark_expects():
    det = zetafix.algebra.det
    bound = {name for name, mod in sys.modules.items()
             if (name == "zetafix" or name.startswith("zetafix."))
             and mod is not None
             and any(v is det for v in vars(mod).values())}
    assert bound == _bench_det_bindings()


def test_traced_report_smoke_run(tracer):
    # one report per builtin fixture with the tracer installed, as
    # bench/run.py --trace 1 runs them
    zetafix.invariants.map_context.cache_clear()
    zetafix.manifolds.averaging_kernel.cache_clear()
    t = tracer.Tracer()
    t.install()
    try:
        for request, fx in enumerate(zetafix.builtin_fixtures().values()):
            if hasattr(fx, "spec"):
                t.request = request
                zetafix.build_report(fx)
    finally:
        t.uninstall()
    agg = t.aggregate()
    assert agg[tracer.ORACLE_SPAN]["calls"] > 0 and t.lookups > 0
    assert agg["algebra.matmul"]["calls"] > 0
    assert agg["ratfunc.zeta_from_terms"]["calls"] > 0 and t.reconstructions > 0
    # bench/run.py reads numpy's version after its timed loop
    assert "numpy" in sys.modules


def test_cli_binds_lefschetz():
    assert zetafix.cli.lefschetz is zetafix.invariants.lefschetz
