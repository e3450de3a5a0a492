"""Digests over the full reports of fixed samples of generated
problems: the JSON document and the human text of each, or the typed
error it raises.  One sample is of fixed-point problems, one of
coincidence pairs, and one is the benchmark's ladder and corpus cases at
seed 0, read from bench/workloads.py.  Any change in output, however
small, changes a digest; a change that means to alter output re-records
it here."""

import hashlib
import json

from _corpus import (bench_cases, coincidence_product_instances, product_instances,
                     random_coincidence_instances, random_instances)
from zetafix import ParsedSpec, build_report, parse_spec_data, render_human
from zetafix.errors import ZetafixError

# sha256 of the reports below
DIGEST = "ef64a464c7fa47323e614055290ae63249daa9e56126a663f8982c20c7b64baf"
COINCIDENCE_DIGEST = \
    "3a34c701a3a87c0540029ced8ebbaf4f3523d3df454e18cc661e07e6f2fb5ad8"
BENCH_DIGEST = "630169a3d705ed02e95603faf3096f1ee5f2760f4a58ed29c911bdbaecbc710c"


def _problems():
    yield from random_instances(0, 40)
    yield from (product for product, _, _ in product_instances(0, 10))


def _coincidence_problems():
    yield from random_coincidence_instances(0, 40)
    yield from (product for product, _, _ in coincidence_product_instances(0, 10))


def _report_text(parse) -> str:
    """The report of parse(), a ParsedSpec, or the typed error that
    either step raises."""
    try:
        doc = build_report(parse())
    except ZetafixError as e:
        return f"{type(e).__name__}: {e}\n"
    return json.dumps(doc, indent=2) + "\n" + render_human(doc) + "\n"


def test_reports_of_the_generated_sample_are_unchanged():
    h = hashlib.sha256()
    count = 0
    for spec, mapping in _problems():
        h.update(_report_text(lambda: ParsedSpec(spec, mapping)).encode())
        count += 1
    assert count == 50
    assert h.hexdigest() == DIGEST


def test_coincidence_reports_of_the_generated_sample_are_unchanged():
    # the cyclic decomposition and the trichotomy's conjugation feed these
    h = hashlib.sha256()
    count = 0
    for spec, f, g in _coincidence_problems():
        h.update(_report_text(lambda: ParsedSpec(spec, f, g)).encode())
        count += 1
    assert count == 50
    assert h.hexdigest() == COINCIDENCE_DIGEST


def _bench_digest() -> tuple[str, int]:
    """sha256 over the reports of the ladder and corpus cases at seed 0,
    each parsed from its JSON text as the benchmark does, and their
    count."""
    h = hashlib.sha256()
    cases = bench_cases("ladder", 0) + bench_cases("corpus", 0)
    for case in cases:
        text = json.dumps(case["spec"])
        h.update(_report_text(lambda: parse_spec_data(json.loads(text))).encode())
    return h.hexdigest(), len(cases)


def test_reports_of_the_benchmark_cases_are_unchanged():
    # tier-1 does not collect bench/, so this pins the bytes of the
    # reports that the benchmark times
    assert _bench_digest() == (BENCH_DIGEST, 213)
