"""Outside-in tracer: wraps zetafix's public functions without editing them.

``from .algebra import det`` copies the function object into the
importing module, so patching ``zetafix.algebra.det`` alone misses most
calls.  ``Tracer.install`` therefore replaces every binding of a traced
function in every loaded ``zetafix`` module (the package namespace and
``zetafix.cli`` included), wraps three methods on their classes, and
``uninstall`` puts every original back.

Each wrapped call records one span: name, start, end, parent span and the
request id (the spec being run).  Spans live in flat arrays until the run
ends.  A span's self time is its duration minus the time covered by its
direct children; calls are single-threaded and nested, so the children
never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

TRACED = {
    "specio": ("parse_spec_data", "serialize_spec"),
    "manifolds": ("validate_spec", "compute_plus_split",
                  "reidemeister_zeta_defined", "is_virtually_unipotent"),
    "invariants": ("lefschetz", "nielsen", "reidemeister",
                   "lefschetz_sequence", "nielsen_sequence",
                   "reidemeister_sequence", "coincidence_numbers",
                   "coincidence_trichotomy", "cyclic_decomposition"),
    "algebra": ("det", "char_poly", "exterior_power", "classify_eigenvalues",
                "spectral_isolation", "has_root_of_unity_eigenvalue"),
    "ratfunc": ("zeta_from_terms", "radius_of_convergence"),
    "zetas": ("lefschetz_zeta", "nielsen_zeta", "artin_mazur_zeta",
              "verify_functional_equation", "asymptotic_nielsen",
              "radius_report"),
    "congruences": ("check_gauss", "check_euler", "check_dold_lefschetz"),
    "report": ("build_report", "render_human", "congruence_entries",
               "asymptotics_entry"),
}

# (span name, module, class, attribute)
TRACED_METHODS = (
    ("algebra.matmul", "algebra", "RationalMatrix", "__matmul__"),
    ("algebra.power", "algebra", "RationalMatrix", "power"),
)
ORACLE = ("ratfunc", "SequenceOracle", "__call__")
ORACLE_SPAN = "ratfunc.oracle.eval"

# Span names that also report total (inclusive) time.
TOTAL_TIME = {"report.build_report", "ratfunc.zeta_from_terms"} | {
    f"zetas.{fn}" for fn in TRACED["zetas"]}

# Functions that some workload never reaches at the seed: their self time
# would read 0.0 on every run there, so only their call counts are metrics.
COUNT_ONLY = {"algebra.exterior_power", "invariants.coincidence_numbers",
              "invariants.coincidence_trichotomy",
              "invariants.cyclic_decomposition"}


def span_names() -> list:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [name for name, *_ in TRACED_METHODS]


def metric_names() -> list:
    """Per-layer metric names and units, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "calls/spec"))
        if name not in COUNT_ONLY:
            out.append((f"{name}.self_ms", "ms/spec"))
        if name in TOTAL_TIME:
            out.append((f"{name}.total_ms", "ms/spec"))
    out += [
        ("ratfunc.oracle.evals", "calls/spec"),
        ("ratfunc.oracle.lookups", "calls/spec"),
        ("ratfunc.oracle.eval_ms", "ms/spec"),
        ("ratfunc.terms_requested", "terms/spec"),
        ("ratfunc.degree_bound", "degree/spec"),
        ("ratfunc.degree_found", "degree/spec"),
        ("ratfunc.useful_term_ratio", "ratio"),
    ]
    return out


class Tracer:
    """Install with ``install()``, set ``request`` before each spec, and
    ``uninstall()`` when done (also on error)."""

    def __init__(self):
        self.names = span_names() + [ORACLE_SPAN]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self._stack: list = []
        self.request = -1
        self.lookups = 0
        self.reconstructions = 0
        self.terms_requested = 0
        self.degree_bound = 0
        self.degree_found = 0
        self.patched: list = []      # (namespace, attribute, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _drop_last(self) -> None:
        """Discard the most recent span, which must have no children."""
        self._stack.pop()
        for arr in (self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_request):
            arr.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name_id[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        if name == "ratfunc.zeta_from_terms":
            return self._count_terms(traced)
        return traced

    def _count_terms(self, traced):
        tracer = self

        @functools.wraps(traced)
        def counted(seq, degree_bound=None):
            b = seq.degree_bound if degree_bound is None else int(degree_bound)
            rf = traced(seq, degree_bound)
            tracer.reconstructions += 1
            tracer.terms_requested += 3 * b + 4
            tracer.degree_bound += b
            tracer.degree_found += max(rf.num.degree, rf.den.degree, 0)
            return rf
        return counted

    def _wrap_oracle(self, call):
        name_id = self._name_id[ORACLE_SPAN]
        tracer = self

        @functools.wraps(call)
        def traced(oracle, n):
            before = len(oracle._cache)
            idx = tracer._open(name_id)
            try:
                value = call(oracle, n)
            except BaseException:
                tracer._close(idx)
                raise
            if len(oracle._cache) > before:
                tracer._close(idx)
            else:
                # a cache hit opens no child span, so idx is the last one
                tracer._drop_last()
                tracer.lookups += 1
            return value
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> int:
        """Patch every binding; returns how many were replaced."""
        import zetafix.cli  # noqa: F401  (loads the package; cli is patched too)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "zetafix" or k.startswith("zetafix."))]
        try:
            for mod_name, fns in TRACED.items():
                home = sys.modules[f"zetafix.{mod_name}"]
                for fn_name in fns:
                    orig = getattr(home, fn_name)
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self.patched.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)
            for name, mod_name, cls_name, attr in TRACED_METHODS:
                cls = getattr(sys.modules[f"zetafix.{mod_name}"], cls_name)
                orig = cls.__dict__[attr]
                self.patched.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
            mod_name, cls_name, attr = ORACLE
            cls = getattr(sys.modules[f"zetafix.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            self.patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap_oracle(orig))
        except BaseException:
            self.uninstall()
            raise
        return len(self.patched)

    def uninstall(self) -> None:
        while self.patched:
            target, attr, orig = self.patched.pop()
            setattr(target, attr, orig)

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, self seconds and total seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def metrics(self, specs: int) -> dict:
        """Per-layer metrics, each per traced spec."""
        agg = self.aggregate()
        per = 1.0 / max(specs, 1)
        values = {}
        for name in span_names():
            row = agg[name]
            values[f"{name}.calls"] = row["calls"] * per
            values[f"{name}.self_ms"] = row["self_s"] * 1000 * per
            values[f"{name}.total_ms"] = row["total_s"] * 1000 * per
        oracle = agg[ORACLE_SPAN]
        values["ratfunc.oracle.evals"] = oracle["calls"] * per
        values["ratfunc.oracle.lookups"] = self.lookups * per
        values["ratfunc.oracle.eval_ms"] = oracle["total_s"] * 1000 * per
        values["ratfunc.terms_requested"] = self.terms_requested * per
        values["ratfunc.degree_bound"] = self.degree_bound * per
        values["ratfunc.degree_found"] = self.degree_found * per
        values["ratfunc.useful_term_ratio"] = (
            (2 * self.degree_found + 4 * self.reconstructions)
            / self.terms_requested if self.terms_requested else 0.0)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in metric_names()}

    def write(self, path, request_ids: list) -> None:
        """All spans as gzipped JSON columns; times relative to the first."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        doc = {
            "names": self.names,
            "requests": request_ids,
            "span_name": list(self.span_name),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.span_end],
            "parent": list(self.span_parent),
            "request": list(self.span_request),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
