"""Full report assembly: one deterministic document per spec file.

The document is a plain dict with stable key order, so JSON output is
byte-stable across runs.  Exact values are serialized as integers or
"p/q" strings; only the asymptotics section carries floats, rendered
to 15 significant digits.  The input spec is echoed verbatim so a
report is self-describing and reproducible from its own echo.
"""

from __future__ import annotations

import math
import warnings

from .algebra import det
from .congruences import check_euler, check_gauss
from .errors import (NotBlockCompatible, NotConstantRatio, NotCyclic,
                     ZetaUndefined)
from .invariants import _coincidence_terms, _Trichotomy, map_context
from .manifolds import averaging_kernel, is_virtually_unipotent, validate_spec
from .specio import ParsedSpec, serialize_spec
from .zetas import (artin_mazur_zeta, asymptotic_nielsen, entropy_lower_bound,
                    nielsen_zeta, radius_report, reidemeister_zeta,
                    verify_functional_equation)

CONGRUENCE_N_MAX = 30


def _flt(x: float) -> str:
    return format(float(x), ".15g")


def _num(v):
    return "inf" if v == math.inf else int(v)


def _zeta_entry(result) -> dict:
    c = result.construction
    entry = {"which": result.which, "defined": True,
             "function": str(result.function)}
    for key, p in (("numerator", result.function.num),
                   ("denominator", result.function.den)):
        # integers as stored; str of a Fraction is "p/q", or "p" for q = 1
        entry[key] = list(map(str, p.ints if p.den == 1 else p.coeffs))
    entry["construction"] = {"kind": c.kind}
    if c.kind == "sign-formula":
        entry["construction"].update({"case": c.case, "p": c.p, "n": c.n})
    return entry


def _construction_text(c: dict) -> str:
    """A zeta entry's construction as text: "direct", or the sign
    formula with its case and the counts p and n."""
    return c["kind"] if c["kind"] == "direct" else \
        f"{c['kind']} ({c['case']}, p={c['p']}, n={c['n']})"


def _congruence_entry(rep, sequence: str, **extra) -> dict:
    entry = {"kind": rep.kind, "sequence": sequence}
    entry.update(extra)
    entry["passed"] = rep.passed
    entry["violations"] = [[list(n) if isinstance(n, tuple) else n, r]
                           for n, r in rep.violations]
    entry["skipped"] = list(rep.skipped)
    return entry


def congruence_entries(spec, mapping, n_max: int = CONGRUENCE_N_MAX) -> list:
    """The standard congruence battery for one map: Dold on the
    Lefschetz sequence, Gauss on Nielsen and Reidemeister (infinite
    iterates skipped), Euler at p = 2, 3 on Lefschetz."""
    return _congruence_battery(map_context(spec, mapping), n_max)


def _congruence_battery(ctx, n_max: int = CONGRUENCE_N_MAX) -> list:
    dold = check_gauss(ctx.l_seq, n_max, kind="Dold")
    gauss = check_gauss(ctx.n_seq, n_max)
    # r_seq checks every finite R(f^n) against N(f^n) as it is read, so
    # with no infinite term R's sieve is N's
    if math.inf in ctx.r_seq.terms(n_max):
        r_gauss = check_gauss(ctx.r_seq, n_max)
    else:
        r_gauss = gauss
    return [
        _congruence_entry(dold, "lefschetz", n_max=n_max),
        _congruence_entry(gauss, "nielsen", n_max=n_max),
        _congruence_entry(r_gauss, "reidemeister", n_max=n_max),
        _congruence_entry(check_euler(ctx.l_seq, 2, 3),
                          "lefschetz", p=2, r_max=3),
        _congruence_entry(check_euler(ctx.l_seq, 3, 2),
                          "lefschetz", p=3, r_max=2),
    ]


def asymptotics_entry(spec, mapping, nz) -> dict:
    """Growth rate, entropy, and zeta radius with its cross-check,
    suppressed when 1 is an eigenvalue of the linear part."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        n_inf = asymptotic_nielsen(spec, mapping)
        entropy = entropy_lower_bound(spec, mapping)
        radius = radius_report(spec, mapping, nz)
    radius_check = ("suppressed: 1 is an eigenvalue of the linear part"
                    if mapping.spectrum.one_in_spectrum
                    else "ok: radius * growth rate = 1 within 1e-6")
    return {
        "n_infinity": _flt(n_inf),
        "entropy": _flt(entropy),
        "radius": _flt(radius),
        "radius_check": radius_check,
    }


def _fixed_point_sections(parsed: ParsedSpec) -> dict:
    spec, mapping = parsed.spec, parsed.mapping
    doc: dict = {}

    ctx = map_context(spec, mapping)
    doc["numbers"] = _numbers_entry(ctx, parsed.options.n_max)

    lz = ctx.l_zeta
    nz = nielsen_zeta(spec, mapping)
    az = artin_mazur_zeta(spec, mapping)
    # the R and Artin-Mazur zetas are N_f renamed: copy its entry
    n_entry = _zeta_entry(nz)
    zetas = [_zeta_entry(lz), n_entry]
    try:
        zetas.append(dict(n_entry, which=reidemeister_zeta(spec, mapping).which))
    except ZetaUndefined as e:
        zetas.append({"which": "Reidemeister", "defined": False,
                      "reason": str(e)})
    zetas.append(dict(n_entry, which=az.which))
    doc["zetas"] = zetas

    d = det(mapping.linear)
    if not spec.orientable:
        doc["functional_equation"] = {"skipped": "non-orientable manifold"}
    elif d == 0:
        doc["functional_equation"] = {"skipped": "map degree is zero"}
    else:
        # Holonomy data that is not realizable by a free action (an
        # orbifold-style quotient) can leave a genuine power of z in the
        # ratio; the report records that instead of aborting.
        try:
            fe = verify_functional_equation(spec, mapping, nz)
        except NotConstantRatio as e:
            doc["functional_equation"] = {"failed": str(e)}
        else:
            doc["functional_equation"] = {
                "holds": fe.holds,
                "epsilon": str(fe.epsilon),
                "degree": str(fe.degree_d),
                "case": fe.case,
            }

    doc["asymptotics"] = asymptotics_entry(spec, mapping, nz)

    doc["congruences"] = _congruence_battery(ctx)

    definedness = ctx.definedness
    # the definedness scan finds a witness exactly when D has a
    # root-of-unity eigenvalue
    root_of_unity = definedness.status == "undefined"
    unipotent = is_virtually_unipotent(spec, mapping)
    if definedness.status == "defined":
        rz_text = "defined"
        if abs(d) == 1:
            note = ("every iterate has a finite Reidemeister number; a "
                    "homeomorphism with this property can only live on an "
                    "infra-nilmanifold")
        else:
            note = "every iterate has a finite Reidemeister number"
    else:
        rz_text = (f"undefined: R(f^{definedness.witness_n}) is infinite "
                   f"(holonomy element {definedness.witness_label!r})")
        note = ("Reidemeister zeta undefined; a root-of-unity eigenvalue of "
                "the linear part is present, which forces infinite "
                "Reidemeister numbers along a subsequence")
    doc["diagnostics"] = {
        "reidemeister_zeta": rz_text,
        "root_of_unity_eigenvalue": root_of_unity,
        "virtually_unipotent": unipotent,
        "one_in_spectrum": mapping.spectrum.one_in_spectrum,
        "note": note,
    }
    return doc


def _numbers_entry(ctx, n_max: int) -> dict:
    """The L, N and R rows of one map for n = 1..n_max, read from its
    shared context."""
    rows = [list(map(_num, seq.terms(n_max)))
            for seq in (ctx.l_seq, ctx.n_seq, ctx.r_seq)]
    return {"n_max": n_max, "lefschetz": rows[0], "nielsen": rows[1],
            "reidemeister": rows[2]}


def _coincidence_sections(parsed: ParsedSpec, n_max: int) -> dict:
    """The L, N and R rows of a coincidence pair for n = 1..n_max, read
    as one range from the pair's averaging kernel, and the trichotomy
    record of n = 1.  Where the trichotomy applies, its prediction is
    checked against every N row (see invariants._Trichotomy)."""
    spec, map_f, map_g = parsed.spec, parsed.mapping, parsed.mapping2
    kernel = averaging_kernel(spec, map_f, map_g)
    table = _coincidence_terms(kernel, 1, n_max, spec.orientable)
    doc: dict = {"coincidence_numbers": {
        "n_max": n_max,
        "lefschetz": [c.lefschetz for c in table],
        "nielsen": (["not defined (non-orientable)"] if not spec.orientable
                    else [c.nielsen for c in table]),
        "reidemeister": [_num(c.reidemeister) for c in table],
    }}
    if not spec.orientable:
        doc["trichotomy"] = {"skipped": "non-orientable manifold"}
        return doc
    try:
        checker = _Trichotomy(spec, map_f, map_g, kernel)
    except NotCyclic:
        doc["trichotomy"] = {"skipped": "holonomy is not cyclic"}
        return doc
    except NotBlockCompatible as e:
        doc["trichotomy"] = {"skipped": f"not block compatible: {e}"}
        return doc
    tri = checker.at(1, table[0])
    for n, c in enumerate(table[1:], 2):
        checker.at(n, c)
    doc["trichotomy"] = {
        "case": tri.case,
        "nielsen": tri.predicted_nielsen,
        "det_diff_sign": tri.det_diff_sign,
        "det_sum_sign": tri.det_sum_sign,
        "trivial_dim": tri.m_triv,
        "sign_dim": tri.k_tau,
    }
    return doc


def build_report(parsed: ParsedSpec) -> dict:
    """Assemble the full document for one spec file."""
    validation = validate_spec(parsed.spec)
    doc: dict = {
        "schema": 1,
        "input": serialize_spec(parsed),
        "validation": {
            "orientable": validation.orientable,
            "holonomy_order": parsed.spec.order,
            "element_orders": [[l, o] for l, o in validation.element_orders],
        },
    }
    if parsed.is_coincidence:
        doc.update(_coincidence_sections(parsed, parsed.options.n_max))
    else:
        doc.update(_fixed_point_sections(parsed))
    return doc


# --------------------------------------------------------------------------
# human rendering
# --------------------------------------------------------------------------


# One helper per kind of line, shared by render_human and the CLI
# commands, which lead or indent the same text differently.


def _number_rows(num: dict, indent: str = "") -> list[str]:
    """The L, N and R rows of a numbers entry."""
    return [f"{indent}{key[0].upper()}: " + ", ".join(str(v) for v in num[key])
            for key in ("lefschetz", "nielsen", "reidemeister")]


def _asymptotics_lines(asym: dict, head: str, indent: str = "") -> list[str]:
    """An asymptotics entry as its growth line, led by head, and its
    radius-check line."""
    return [f"{head}: N_infinity = {asym['n_infinity']}, "
            f"entropy = {asym['entropy']}, radius = {asym['radius']}",
            f"{indent}radius check: {asym['radius_check']}"]


def _congruence_line(c: dict, prefix: str = "", skipped: str = "skipped") -> str:
    """A congruence entry, with skipped naming its skipped iterates."""
    where = (f"p={c['p']}, r<={c['r_max']}" if c["kind"] == "Euler"
             else f"n<={c['n_max']}")
    line = (f"{prefix}{c['kind']} on {c['sequence']} ({where}): "
            + ("pass" if c["passed"] else f"FAIL {c['violations']}"))
    if c["skipped"]:
        line += f" ({skipped}: {c['skipped']})"
    return line


def _trichotomy_line(tri: dict, dims: bool = True) -> str:
    """A trichotomy section, with the trivial and sign dimensions when
    dims is set."""
    if "skipped" in tri:
        return f"trichotomy: skipped ({tri['skipped']})"
    line = (f"trichotomy: case {tri['case']}, N(f,g) = {tri['nielsen']}, "
            f"signs ({tri['det_diff_sign']}, {tri['det_sum_sign']})")
    if dims:
        line += f", trivial/sign dims ({tri['trivial_dim']}, {tri['sign_dim']})"
    return line


def render_human(doc: dict) -> str:
    out = [f"spec: {doc['input']['name']} "
           f"(dimension {doc['input']['dimension']}, holonomy order "
           f"{doc['validation']['holonomy_order']}, "
           + ("orientable" if doc["validation"]["orientable"]
              else "non-orientable") + ")"]
    num = doc.get("numbers") or doc.get("coincidence_numbers")
    if num is not None:
        out.append("invariants (n = 1..%d)%s:" % (
            num["n_max"], " for the pair (f, g)" if "coincidence_numbers" in doc
            else ""))
        out += _number_rows(num, "  ")
    for z in doc.get("zetas", ()):
        if z["defined"]:
            out.append(f"{z['which']} zeta: {z['function']}   "
                       f"[{_construction_text(z['construction'])}]")
        else:
            out.append(f"{z['which']} zeta: undefined ({z['reason']})")
    fe = doc.get("functional_equation")
    if fe is not None:
        if "skipped" in fe:
            out.append(f"functional equation: skipped ({fe['skipped']})")
        elif "failed" in fe:
            out.append(f"functional equation: does not hold ({fe['failed']})")
        else:
            out.append(f"functional equation: holds, epsilon = {fe['epsilon']}"
                       f", degree = {fe['degree']}, case = {fe['case']}")
    asym = doc.get("asymptotics")
    if asym is not None:
        out += _asymptotics_lines(asym, "asymptotics", "  ")
    out += [_congruence_line(c, "congruence ", "skipped n with infinite terms")
            for c in doc.get("congruences", ())]
    tri = doc.get("trichotomy")
    if tri is not None:
        out.append(_trichotomy_line(tri))
    diag = doc.get("diagnostics")
    if diag is not None:
        out.append("diagnostics:")
        out.append(f"  Reidemeister zeta: {diag['reidemeister_zeta']}")
        out.append(f"  root-of-unity eigenvalue: "
                   f"{'yes' if diag['root_of_unity_eigenvalue'] else 'no'}")
        out.append(f"  virtually unipotent: "
                   f"{'yes' if diag['virtually_unipotent'] else 'no'}")
        out.append(f"  note: {diag['note']}")
    return "\n".join(out) + "\n"
