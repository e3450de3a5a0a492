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
from fractions import Fraction

from .algebra import classify_eigenvalues, det
from .congruences import check_euler, check_gauss
from .errors import (NotBlockCompatible, NotConstantRatio, NotCyclic,
                     ZetaUndefined)
from .invariants import coincidence_table, coincidence_trichotomy
from .manifolds import is_virtually_unipotent, validate_spec
from .specio import ParsedSpec, serialize_spec
from .zetas import (artin_mazur_zeta, asymptotic_nielsen, entropy_lower_bound,
                    map_context, nielsen_zeta, radius_report,
                    reidemeister_zeta, verify_functional_equation)

CONGRUENCE_N_MAX = 30


def _rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _flt(x: float) -> str:
    return format(float(x), ".15g")


def _num(v):
    return "inf" if v == math.inf else int(v)


def _zeta_entry(result) -> dict:
    c = result.construction
    entry = {
        "which": result.which,
        "defined": True,
        "function": str(result.function),
        "numerator": [_rat(x) for x in result.function.num.coeffs],
        "denominator": [_rat(x) for x in result.function.den.coeffs],
        "construction": {"kind": c.kind},
    }
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
    # the sequences do not depend on the tolerance
    return _congruence_battery(map_context(spec, mapping, 1e-10), n_max)


def _congruence_battery(ctx, n_max: int = CONGRUENCE_N_MAX) -> list:
    return [
        _congruence_entry(check_gauss(ctx.l_seq, n_max, kind="Dold"),
                          "lefschetz", n_max=n_max),
        _congruence_entry(check_gauss(ctx.n_seq, n_max),
                          "nielsen", n_max=n_max),
        _congruence_entry(check_gauss(ctx.r_seq, n_max),
                          "reidemeister", n_max=n_max),
        _congruence_entry(check_euler(ctx.l_seq, 2, 3),
                          "lefschetz", p=2, r_max=3),
        _congruence_entry(check_euler(ctx.l_seq, 3, 2),
                          "lefschetz", p=3, r_max=2),
    ]


def asymptotics_entry(spec, mapping, nz, tol: float = 1e-10) -> dict:
    """Growth rate, entropy, and zeta radius with its cross-check,
    suppressed when 1 is an eigenvalue of the linear part."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        n_inf = asymptotic_nielsen(spec, mapping, tol=tol)
        entropy = entropy_lower_bound(spec, mapping, tol=tol)
        radius = radius_report(spec, mapping, nz, tol=tol)
    radius_check = ("suppressed: 1 is an eigenvalue of the linear part"
                    if classify_eigenvalues(mapping.linear, tol).one_in_spectrum
                    else "ok: radius * growth rate = 1 within 1e-6")
    return {
        "n_infinity": _flt(n_inf),
        "entropy": _flt(entropy),
        "radius": _flt(radius),
        "radius_check": radius_check,
    }


def _fixed_point_sections(parsed: ParsedSpec) -> dict:
    spec, mapping = parsed.spec, parsed.mapping
    opts = parsed.options
    n_max = opts.n_max
    doc: dict = {}

    ctx = map_context(spec, mapping, opts.tolerance)
    doc["numbers"] = _numbers_entry(ctx, n_max)

    lz = ctx.l_zeta
    nz = nielsen_zeta(spec, mapping, tol=opts.tolerance)
    az = artin_mazur_zeta(spec, mapping, tol=opts.tolerance)
    zetas = [_zeta_entry(lz), _zeta_entry(nz)]
    try:
        zetas.append(_zeta_entry(
            reidemeister_zeta(spec, mapping, tol=opts.tolerance)))
    except ZetaUndefined as e:
        zetas.append({"which": "Reidemeister", "defined": False,
                      "reason": str(e)})
    zetas.append(_zeta_entry(az))
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
            fe = verify_functional_equation(spec, mapping, nz,
                                            tol=opts.tolerance)
        except NotConstantRatio as e:
            doc["functional_equation"] = {"failed": str(e)}
        else:
            doc["functional_equation"] = {
                "holds": fe.holds,
                "epsilon": _rat(fe.epsilon),
                "degree": _rat(fe.degree_d),
                "case": fe.case,
            }

    doc["asymptotics"] = asymptotics_entry(spec, mapping, nz,
                                           tol=opts.tolerance)

    doc["congruences"] = _congruence_battery(ctx)

    definedness = ctx.definedness
    # the definedness scan finds a witness exactly when D has a
    # root-of-unity eigenvalue
    root_of_unity = definedness.status == "undefined"
    unipotent = is_virtually_unipotent(spec, mapping, opts.tolerance)
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
        "one_in_spectrum": classify_eigenvalues(
            mapping.linear, opts.tolerance).one_in_spectrum,
        "note": note,
    }
    return doc


def _numbers_entry(ctx, n_max: int) -> dict:
    """The L, N and R rows of one map for n = 1..n_max, read from its
    shared context."""
    rows = [[_num(seq(n)) for n in range(1, n_max + 1)]
            for seq in (ctx.l_seq, ctx.n_seq, ctx.r_seq)]
    return {"n_max": n_max, "lefschetz": rows[0], "nielsen": rows[1],
            "reidemeister": rows[2]}


def _coincidence_numbers_entry(parsed: ParsedSpec, n_max: int) -> dict:
    """The L, N and R rows of a coincidence pair for n = 1..n_max."""
    spec = parsed.spec
    table = coincidence_table(spec, parsed.mapping, parsed.mapping2, n_max)
    return {
        "n_max": n_max,
        "lefschetz": [c.lefschetz for c in table],
        "nielsen": (["not defined (non-orientable)"] if not spec.orientable
                    else [c.nielsen for c in table]),
        "reidemeister": [_num(c.reidemeister) for c in table],
    }


def _coincidence_sections(parsed: ParsedSpec) -> dict:
    spec = parsed.spec
    doc: dict = {"coincidence_numbers": _coincidence_numbers_entry(
        parsed, parsed.options.n_max)}
    if not spec.orientable:
        doc["trichotomy"] = {"skipped": "non-orientable manifold"}
        return doc
    try:
        tri = coincidence_trichotomy(spec, parsed.mapping, parsed.mapping2)
    except NotCyclic:
        doc["trichotomy"] = {"skipped": "holonomy is not cyclic"}
        return doc
    except NotBlockCompatible as e:
        doc["trichotomy"] = {"skipped": f"not block compatible: {e}"}
        return doc
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
        doc.update(_coincidence_sections(parsed))
    else:
        doc.update(_fixed_point_sections(parsed))
    return doc


# --------------------------------------------------------------------------
# human rendering
# --------------------------------------------------------------------------


def _human_numbers(doc: dict, out: list) -> None:
    num = doc.get("numbers") or doc.get("coincidence_numbers")
    if num is None:
        return
    coincidence = "coincidence_numbers" in doc
    out.append("invariants (n = 1..%d)%s:" % (
        num["n_max"], " for the pair (f, g)" if coincidence else ""))
    rows = [("L", num["lefschetz"]),
            ("N", num["nielsen"]),
            ("R", num["reidemeister"])]
    for label, vals in rows:
        out.append(f"  {label}: " + ", ".join(str(v) for v in vals))


def render_human(doc: dict) -> str:
    out = [f"spec: {doc['input']['name']} "
           f"(dimension {doc['input']['dimension']}, holonomy order "
           f"{doc['validation']['holonomy_order']}, "
           + ("orientable" if doc["validation"]["orientable"]
              else "non-orientable") + ")"]
    _human_numbers(doc, out)
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
        out.append(f"asymptotics: N_infinity = {asym['n_infinity']}, "
                   f"entropy = {asym['entropy']}, radius = {asym['radius']}")
        out.append(f"  radius check: {asym['radius_check']}")
    for c in doc.get("congruences", ()):
        where = (f"p={c['p']}, r<={c['r_max']}" if c["kind"] == "Euler"
                 else f"n<={c['n_max']}")
        line = (f"congruence {c['kind']} on {c['sequence']} ({where}): "
                + ("pass" if c["passed"] else f"FAIL {c['violations']}"))
        if c["skipped"]:
            line += f" (skipped n with infinite terms: {c['skipped']})"
        out.append(line)
    tri = doc.get("trichotomy")
    if tri is not None:
        if "skipped" in tri:
            out.append(f"trichotomy: skipped ({tri['skipped']})")
        else:
            out.append(f"trichotomy: case {tri['case']}, N(f,g) = "
                       f"{tri['nielsen']}, signs ({tri['det_diff_sign']}, "
                       f"{tri['det_sum_sign']}), trivial/sign dims "
                       f"({tri['trivial_dim']}, {tri['sign_dim']})")
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
