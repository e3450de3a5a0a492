"""One digest over the full reports of a fixed sample of generated
problems: the JSON document and the human text of each, or the typed
error it raises.  Any change in output, however small, changes the
digest; a change that means to alter output re-records it here."""

import hashlib
import json

from _corpus import product_instances, random_instances
from zetafix import ParsedSpec, build_report, render_human
from zetafix.errors import ZetafixError

# sha256 of the reports below
DIGEST = "ef64a464c7fa47323e614055290ae63249daa9e56126a663f8982c20c7b64baf"


def _problems():
    yield from random_instances(0, 40)
    yield from (product for product, _, _ in product_instances(0, 10))


def _report_text(spec, mapping) -> str:
    try:
        doc = build_report(ParsedSpec(spec, mapping))
    except ZetafixError as e:
        return f"{type(e).__name__}: {e}\n"
    return json.dumps(doc, indent=2) + "\n" + render_human(doc) + "\n"


def test_reports_of_the_generated_sample_are_unchanged():
    h = hashlib.sha256()
    count = 0
    for spec, mapping in _problems():
        h.update(_report_text(spec, mapping).encode())
        count += 1
    assert count == 50
    assert h.hexdigest() == DIGEST
