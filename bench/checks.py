"""Correctness oracles for benchmark outputs.

Each check takes one case and the outcome of its timed operation and
returns ``None`` when the output is right, or a one-line reason.  The
oracles use plain integers and ``fractions.Fraction``; none of them
calls into zetafix.

An outcome is ``("ok", doc, json_text, human_text)`` or
``("error", exception)``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_FIXTURES = ("klein_bottle_ex1", "heisenberg_ex3", "halfturn_coincidence")
DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Failures the seed really has.  They count in ``failed`` like any other
# failure; ``correct`` stays true only while every failure is one of these.
KNOWN_DEFECTS = (
    {"workload": "ladder", "case": "ladder_d6_o1", "error": "RadiusMismatch",
     "why": "radius_of_convergence runs np.roots on a degree-32 denominator "
            "with repeated roots; radius * growth misses 1 by more than 1e-6"},
    {"workload": "corpus", "case_suffix": ":incompatible", "accepted": True,
     "why": "linear parts incompatible with the holonomy are accepted "
            "instead of raising NonInvariantSubspace"},
)


def is_known_defect(workload: str, case: dict, outcome) -> bool:
    for known in KNOWN_DEFECTS:
        if known["workload"] != workload:
            continue
        if "case" in known and case["id"] != known["case"]:
            continue
        if "case_suffix" in known and not case["id"].endswith(known["case_suffix"]):
            continue
        if "error" in known and not (outcome[0] == "error"
                                     and type(outcome[1]).__name__ == known["error"]):
            continue
        if known.get("accepted") and outcome[0] != "ok":
            continue
        return True
    return False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# exact series
# --------------------------------------------------------------------------


def _rat(s) -> Fraction:
    return Fraction(s) if isinstance(s, int) else Fraction(str(s))


def _log_derivative(poly: list, upto: int) -> list:
    """Coefficients s_1..s_upto of z P'(z) / P(z), P(0) != 0."""
    p = poly + [Fraction(0)] * max(0, upto + 1 - len(poly))
    if p[0] == 0:
        raise ValueError("zero constant term")
    s = [Fraction(0)]
    for n in range(1, upto + 1):
        acc = n * p[n] - sum(p[k] * s[n - k] for k in range(1, n))
        s.append(acc / p[0])
    return s[1:]


def log_derivative_sums(entry: dict, upto: int) -> list:
    """a_1..a_upto with zeta = exp(sum a_n z^n / n), from a report's zeta
    entry (ascending "p/q" coefficient strings)."""
    num = [_rat(c) for c in entry["numerator"]]
    den = [_rat(c) for c in entry["denominator"]]
    return [x - y for x, y in zip(_log_derivative(num, upto),
                                  _log_derivative(den, upto))]


def _zeta_rows(doc: dict) -> dict:
    """Map each defined zeta to the numbers row it must reproduce."""
    target = {"Lefschetz": "lefschetz", "Nielsen": "nielsen",
              "ArtinMazur": "nielsen", "Reidemeister": "reidemeister"}
    return {z["which"]: (z, target[z["which"]])
            for z in doc.get("zetas", ()) if z.get("defined")}


def _check_zetas(doc: dict, rows: dict, upto: int):
    for which, (entry, row) in _zeta_rows(doc).items():
        want = rows[row][:upto]
        got = log_derivative_sums(entry, len(want))
        if got != want:
            return f"{which} zeta log-derivative sums {got[:4]}... != {row} {want[:4]}..."
    return None


# --------------------------------------------------------------------------
# per-workload checks
# --------------------------------------------------------------------------


def check_fixture(case: dict, outcome, expected: dict):
    """The reports must match the expected SHA-256 digests of the JSON
    output (with its final newline, as the CLI prints it) and the human
    rendering."""
    if outcome[0] != "ok":
        return f"raised {type(outcome[1]).__name__}: {outcome[1]}"
    _, _, json_text, human = outcome
    want = expected[case["id"]]
    if sha256(json_text + "\n") != want["json"]:
        return "JSON report differs from the expected one"
    if sha256(human) != want["human"]:
        return "human report differs from the expected one"
    return None


def expected_fixture_digests(root: Path) -> dict:
    """Digests of tests/golden/ for the fixtures that have goldens, and of
    the seed's reports (digests.json) for the others."""
    expected = json.loads(DIGESTS_FILE.read_text())
    golden = root / "tests" / "golden"
    for name in GOLDEN_FIXTURES:
        expected[name] = {
            "json": sha256((golden / f"report_{name}.json").read_text()),
            "human": sha256((golden / f"report_{name}.txt").read_text()),
        }
    return expected


def ladder_oracle(d: list, signs: list, upto: int) -> tuple:
    """L(f^n) and N(f^n) for a diagonal D over a diagonal-sign holonomy:
    the holonomy averages of prod_i (1 - s_i d_i^n), signed and absolute."""
    ls, ns = [], []
    for n in range(1, upto + 1):
        prods = []
        for s in signs:
            p = 1
            for si, di in zip(s, d):
                p *= 1 - si * di ** n
            prods.append(p)
        total, total_abs = sum(prods), sum(abs(p) for p in prods)
        if total % len(signs) or total_abs % len(signs):
            raise ArithmeticError("holonomy average is not an integer")
        ls.append(total // len(signs))
        ns.append(total_abs // len(signs))
    return ls, ns


def check_ladder(case: dict, outcome):
    if outcome[0] != "ok":
        return f"raised {type(outcome[1]).__name__}: {outcome[1]}"
    doc = outcome[1]
    n_max = doc["numbers"]["n_max"]
    ls, ns = ladder_oracle(case["d"], case["signs"], 2 * n_max)
    # every entry of D is +-2 or +-3, so no R(f^n) is infinite and R = N
    want = {"lefschetz": ls, "nielsen": ns, "reidemeister": ns}
    for row, values in want.items():
        if doc["numbers"][row] != values[:n_max]:
            return f"numbers row {row} differs from the integer oracle"
    if len(_zeta_rows(doc)) != 4:
        return "expected four defined zetas"
    return _check_zetas(doc, want, 2 * n_max)


# Zetas the report defines for every fixed-point spec.
ALWAYS_DEFINED = {"Lefschetz", "Nielsen", "ArtinMazur"}


def check_fixed(case: dict, outcome):
    if outcome[0] != "ok":
        return f"raised {type(outcome[1]).__name__}: {outcome[1]}"
    doc = outcome[1]
    missing = ALWAYS_DEFINED - set(_zeta_rows(doc))
    if missing:
        return f"zetas {sorted(missing)} missing or undefined"
    numbers = doc["numbers"]
    reason = _check_zetas(doc, numbers, numbers["n_max"])
    if reason:
        return reason
    dold = [c for c in doc["congruences"] if c["kind"] == "Dold"]
    if not dold or not all(c["passed"] for c in dold):
        return "Dold congruence failed"
    return None


def check_coincidence(case: dict, outcome):
    if outcome[0] != "ok":
        return f"raised {type(outcome[1]).__name__}: {outcome[1]}"
    doc = outcome[1]
    tri = doc.get("trichotomy")
    if tri is None:
        return "no trichotomy section"
    if "case" in tri and tri["nielsen"] != doc["coincidence_numbers"]["nielsen"][0]:
        return "trichotomy Nielsen number differs from N(f, g)"
    return None


def check_reject(case: dict, outcome):
    if outcome[0] == "ok":
        return f"accepted; expected {case['error']}"
    names = [c.__name__ for c in type(outcome[1]).__mro__]
    if case["error"] not in names:
        return f"raised {names[0]}; expected {case['error']}"
    return None


class Checker:
    """Dispatch by case kind; holds the expected fixture digests."""

    def __init__(self, workload: str, root: Path):
        self.expected = (expected_fixture_digests(root)
                         if workload == "fixtures" else {})

    def __call__(self, case: dict, outcome):
        kind = case["kind"]
        if kind == "fixture":
            return check_fixture(case, outcome, self.expected)
        if kind == "ladder":
            return check_ladder(case, outcome)
        if kind == "fixed":
            return check_fixed(case, outcome)
        if kind == "coincidence":
            return check_coincidence(case, outcome)
        if kind == "reject":
            return check_reject(case, outcome)
        raise ValueError(f"unknown case kind {kind!r}")
