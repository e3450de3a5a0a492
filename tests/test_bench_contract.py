"""The benchmark's tracer patches zetafix from outside by name.  Deleting
or renaming a traced function or method breaks `bench/run.py --trace 1`
only at run time, so pin every name it patches here."""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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

