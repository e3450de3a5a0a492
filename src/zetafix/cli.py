"""Command-line front end.

Every command takes a spec: either a path to a JSON spec file or the
name of a builtin fixture.  Exit codes: 0 success, 2 validation or
usage failure, 3 a requested zeta function is undefined, 4 an internal
cross-check failed (which on shipped fixtures means a bug, not bad
input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .congruences import check_gauss
from .errors import (InvalidSpecFile, NielsenFormulaMismatch, NotConstantRatio,
                     RadiusMismatch, TrichotomyMismatch, ZetaUndefined,
                     ZetafixError)
from .fixtures import SequenceFixture, builtin_fixtures
# unused here, but bench/test_bench.py checks that zetafix.cli binds it
from .invariants import lefschetz  # noqa: F401
from .manifolds import validate_spec
from .ratfunc import zeta_from_terms
from .report import (_coincidence_numbers_entry, _coincidence_sections,
                     _construction_text, _num, _numbers_entry, _zeta_entry,
                     asymptotics_entry, build_report, congruence_entries,
                     render_human)
from .specio import parse_spec_file
from .zetas import (artin_mazur_zeta, lefschetz_zeta, map_context,
                    nielsen_zeta, reidemeister_zeta)

_WHICH_NAMES = {"L": "Lefschetz", "N": "Nielsen", "R": "Reidemeister",
                "AM": "ArtinMazur"}


def _load(target: str):
    p = Path(target)
    if p.exists():
        return parse_spec_file(p)
    fixtures = builtin_fixtures()
    if target in fixtures:
        return fixtures[target]
    raise InvalidSpecFile(
        f"{target!r} is neither a spec file nor a builtin fixture "
        f"(builtins: {', '.join(fixtures)})")


def _checked(kind, ok, rule: str):
    """An argparse type: kind(text), rejected unless ok holds for it."""
    def convert(text: str):
        try:
            v = kind(text)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return v
    return convert


def _emit(payload: dict, human: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _cmd_validate(target, args) -> int:
    if isinstance(target, SequenceFixture):
        _emit({"ok": True, "name": target.name, "kind": "sequence"},
              f"OK: {target.name} (sequence fixture)", args.format)
        return 0
    rep = validate_spec(target.spec)
    payload = {
        "ok": True,
        "name": target.spec.name,
        "kind": "coincidence" if target.is_coincidence else "map",
        "dimension": target.spec.dimension,
        "holonomy_order": target.spec.order,
        "orientable": rep.orientable,
    }
    human = (f"OK: {target.spec.name}: dimension {target.spec.dimension}, "
             f"holonomy order {target.spec.order}, "
             + ("orientable" if rep.orientable else "non-orientable"))
    _emit(payload, human, args.format)
    return 0


def _seq_table(fix: SequenceFixture, n_max: int):
    oracle = fix.oracle()
    return [_num(oracle(n)) for n in range(1, n_max + 1)]


def _cmd_numbers(target, args) -> int:
    if isinstance(target, SequenceFixture):
        n_max = args.max_n or 12
        vals = _seq_table(target, n_max)
        _emit({"name": target.name, "n_max": n_max, "terms": vals},
              f"{target.name}, n = 1..{n_max}\na: "
              + ", ".join(str(v) for v in vals), args.format)
        return 0
    n_max = args.max_n or target.options.n_max
    spec = target.spec
    if target.is_coincidence:
        num = _coincidence_numbers_entry(target, n_max)
    else:
        ctx = map_context(spec, target.mapping, target.options.tolerance)
        num = _numbers_entry(ctx, n_max)
    _emit({"name": spec.name, **num},
          "\n".join(_numbers_lines(spec.name, num, target.is_coincidence)),
          args.format)
    return 0


def _numbers_lines(name: str, num: dict, pair: bool) -> list[str]:
    """A numbers table as text: a title, then the L, N and R rows."""
    return [f"{name}, {'pair (f, g), ' if pair else ''}n = 1..{num['n_max']}"] + [
        f"{key[0].upper()}: " + ", ".join(str(v) for v in num[key])
        for key in ("lefschetz", "nielsen", "reidemeister")]


def _cmd_zeta(target, args) -> int:
    if isinstance(target, SequenceFixture):
        fn = zeta_from_terms(target.oracle())
        _emit({"name": target.name, "function": str(fn)},
              f"zeta of {target.name}: {fn}", args.format)
        return 0
    which = args.which or "N"
    tol = target.options.tolerance
    ops = {
        "L": lambda: lefschetz_zeta(target.spec, target.mapping),
        "N": lambda: nielsen_zeta(target.spec, target.mapping, tol=tol),
        "R": lambda: reidemeister_zeta(target.spec, target.mapping, tol=tol),
        "AM": lambda: artin_mazur_zeta(target.spec, target.mapping, tol=tol),
    }
    result = ops[which]()
    entry = _zeta_entry(result)
    entry["name"] = target.spec.name
    _emit(entry,
          f"{result.which} zeta of {target.spec.name}: {result.function}   "
          f"[{_construction_text(entry['construction'])}]", args.format)
    return 0


def _cmd_congruences(target, args) -> int:
    n_max = args.max_n or 30
    if isinstance(target, SequenceFixture):
        rep = check_gauss(target.oracle(), n_max)
        entries = [{"kind": rep.kind, "sequence": target.name, "n_max": n_max,
                    "passed": rep.passed,
                    "violations": [[n, r] for n, r in rep.violations],
                    "skipped": list(rep.skipped)}]
    else:
        if target.is_coincidence:
            raise InvalidSpecFile(
                "congruence checks apply to single-map specs")
        entries = congruence_entries(target.spec, target.mapping, n_max)
    lines = []
    for c in entries:
        where = (f"p={c['p']}, r<={c['r_max']}" if c["kind"] == "Euler"
                 else f"n<={c['n_max']}")
        line = (f"{c['kind']} on {c['sequence']} ({where}): "
                + ("pass" if c["passed"] else f"FAIL {c['violations']}"))
        if c["skipped"]:
            line += f" (skipped: {c['skipped']})"
        lines.append(line)
    _emit(entries, "\n".join(lines), args.format)
    return 0


def _cmd_entropy(target, args) -> int:
    if isinstance(target, SequenceFixture) or target.is_coincidence:
        raise InvalidSpecFile("entropy applies to single-map specs")
    nz = nielsen_zeta(target.spec, target.mapping,
                      tol=target.options.tolerance)
    asym = asymptotics_entry(target.spec, target.mapping, nz,
                             tol=target.options.tolerance)
    human = (f"{target.spec.name}: N_infinity = {asym['n_infinity']}, "
             f"entropy = {asym['entropy']}, radius = {asym['radius']}\n"
             f"radius check: {asym['radius_check']}")
    _emit({"name": target.spec.name, **asym}, human, args.format)
    return 0


def _cmd_coincidence(target, args) -> int:
    if isinstance(target, SequenceFixture) or not target.is_coincidence:
        raise InvalidSpecFile("coincidence needs a spec with map and map2")
    if args.max_n:
        target = replace(target,
                         options=replace(target.options, n_max=args.max_n))
    doc = {"input": {"name": target.spec.name,
                     "dimension": target.spec.dimension},
           "validation": {"orientable": target.spec.orientable,
                          "holonomy_order": target.spec.order}}
    doc.update(_coincidence_sections(target))
    num = doc["coincidence_numbers"]
    lines = _numbers_lines(target.spec.name, num, pair=True)
    tri = doc["trichotomy"]
    if "skipped" in tri:
        lines.append(f"trichotomy: skipped ({tri['skipped']})")
    else:
        lines.append(f"trichotomy: case {tri['case']}, N(f,g) = "
                     f"{tri['nielsen']}, signs ({tri['det_diff_sign']}, "
                     f"{tri['det_sum_sign']})")
    _emit(doc, "\n".join(lines), args.format)
    return 0


def _cmd_report(target, args) -> int:
    if isinstance(target, SequenceFixture):
        raise InvalidSpecFile("report applies to spec files, not sequences")
    doc = build_report(target)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(render_human(doc), end="")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "numbers": _cmd_numbers,
    "zeta": _cmd_zeta,
    "congruences": _cmd_congruences,
    "entropy": _cmd_entropy,
    "coincidence": _cmd_coincidence,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetafix",
        description="Exact fixed-point invariants and zeta functions of "
                    "affine-induced maps on infra-nilmanifolds and "
                    "infra-solvmanifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check a spec file's group axioms and compatibility"),
        ("numbers", "Lefschetz/Nielsen/Reidemeister numbers of iterates"),
        ("zeta", "reconstruct a zeta function exactly"),
        ("congruences", "Gauss/Euler/Dold divisibility checks"),
        ("entropy", "asymptotic Nielsen number, entropy, radius"),
        ("coincidence", "coincidence invariants and trichotomy"),
        ("report", "full report for a spec"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a spec JSON or a builtin "
                                    "fixture name")
        p.add_argument("--max-n", default=None, metavar="N",
                       type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                       help="largest iterate to tabulate (>= 1)")
        p.add_argument("--which", choices=("L", "N", "R", "AM"), default=None,
                       help="which zeta function (zeta command)")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--tol", default=None,
                       type=_checked(float, lambda t: 0 < t < 1, "in (0, 1)"),
                       help="eigenvalue classification tolerance, in (0, 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        target = _load(args.spec)
        if args.tol is not None and not isinstance(target, SequenceFixture):
            target = replace(target, options=replace(target.options,
                                                     tolerance=args.tol))
        return _COMMANDS[args.command](target, args)
    except ZetaUndefined as e:
        print(f"undefined: {e}", file=sys.stderr)
        return 3
    except (NielsenFormulaMismatch, TrichotomyMismatch, RadiusMismatch,
            NotConstantRatio) as e:
        print(f"cross-check failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except ZetafixError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
