"""Spec file reading and writing.

A spec file is JSON: a manifold (dimension plus labeled holonomy
matrices), one map (its linear part and optional translation), an
optional second map for coincidence problems, and tolerances.  All
matrix entries are integers or exact "p/q" strings; floats are
rejected so that every downstream computation stays exact.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import _echo, as_rational
from .errors import InvalidSpecFile
from .manifolds import (AffineMapSpec, ManifoldSpec, ensure_compatible,
                        validate_spec)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpecOptions:
    tolerance: float = 1e-10
    n_max: int = 12
    degree_bound_override: int | None = None


@dataclass(frozen=True)
class ParsedSpec:
    """A validated spec file: manifold, map(s), options."""

    spec: ManifoldSpec
    mapping: AffineMapSpec
    mapping2: AffineMapSpec | None = None
    options: SpecOptions = SpecOptions()

    @property
    def is_coincidence(self) -> bool:
        return self.mapping2 is not None


class _OversizedInt:
    """An integer literal longer than the interpreter converts (see
    sys.get_int_max_str_digits); every field rejects it by type."""

    def __init__(self, digits: int):
        self.digits = digits

    def __repr__(self):
        return (f"<integer literal of {self.digits} digits, over the limit "
                f"of {sys.get_int_max_str_digits()}>")


def _int_from_json(text: str):
    try:
        return int(text)
    except ValueError:
        return _OversizedInt(len(text.lstrip("-")))


# The exact forms an entry string may take: Fraction() would also read
# decimals and exponents, and "1e9999999" would build a huge integer.
_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _entry_from_json(v, what: str) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise InvalidSpecFile(
            f"matrix entries must be integers or 'p/q' strings, got {v!r}")
    if not (isinstance(v, int)
            or isinstance(v, str) and _RATIONAL_STRING.fullmatch(v)):
        raise InvalidSpecFile(f"{what} has a bad rational entry {_echo(v)}: "
                              f"not an integer or 'p/q' string")
    try:
        return as_rational(v)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidSpecFile(
            f"{what} has a bad rational entry {_echo(v)}: {e}") from None


def _entry_to_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_from_json(rows, what: str) -> list[list[Fraction]]:
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise InvalidSpecFile(f"{what} must be a list of rows")
    m = [[_entry_from_json(v, what) for v in row] for row in rows]
    if any(len(row) != len(m) for row in m):
        raise InvalidSpecFile(f"{what} must be square")
    return m


def _matrix_to_json(m) -> list:
    return [[_entry_to_json(x) for x in row] for row in m.rows]


def _string(v, what: str) -> str:
    if not isinstance(v, str):
        raise InvalidSpecFile(f"{what} must be a string")
    return v


def _parse_map(obj, what: str) -> AffineMapSpec:
    if not isinstance(obj, dict) or "label" not in obj or "D" not in obj:
        raise InvalidSpecFile(f"{what} needs 'label' and 'D'")
    translation = obj.get("translation")
    if translation is not None:
        if not isinstance(translation, list):
            raise InvalidSpecFile(f"{what}.translation must be a list")
        translation = [_entry_from_json(v, f"{what}.translation")
                       for v in translation]
    return AffineMapSpec.make(_string(obj["label"], f"{what}.label"),
                              _matrix_from_json(obj["D"], f"{what}.D"),
                              translation)


def _option(raw: dict, key: str, default, kinds: tuple, what: str):
    """raw[key] (default if absent), of one of the kinds; true/false are
    not numbers, and null is accepted only where it is the default."""
    v = raw.get(key, default)
    if v is not default and (isinstance(v, bool) or not isinstance(v, kinds)):
        raise InvalidSpecFile(f"options.{key} must be {what}, got {_echo(v)}")
    return v


def parse_spec_data(data: dict) -> ParsedSpec:
    """Build and validate a ParsedSpec from decoded JSON."""
    if not isinstance(data, dict):
        raise InvalidSpecFile("spec file must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise InvalidSpecFile(
            f"unsupported schema {_echo(data.get('schema'))}; expected "
            f"{SCHEMA_VERSION}")
    for field in ("name", "dimension", "holonomy", "map"):
        if field not in data:
            raise InvalidSpecFile(f"missing field {field!r}")
    _string(data["name"], "name")
    if isinstance(data["dimension"], bool) or not isinstance(data["dimension"], int):
        raise InvalidSpecFile("dimension must be an integer")
    holonomy = []
    if not isinstance(data["holonomy"], list):
        raise InvalidSpecFile("holonomy must be a list")
    for item in data["holonomy"]:
        if not isinstance(item, dict) or "label" not in item or "matrix" not in item:
            raise InvalidSpecFile("each holonomy item needs 'label' and 'matrix'")
        holonomy.append((_string(item["label"], "holonomy item label"),
                         _matrix_from_json(item["matrix"], "holonomy matrix")))
    spec = ManifoldSpec.make(data["name"], data["dimension"], holonomy)
    validate_spec(spec)
    mapping = _parse_map(data["map"], "map")
    ensure_compatible(spec, mapping)
    mapping2 = None
    if data.get("map2") is not None:
        mapping2 = _parse_map(data["map2"], "map2")
        ensure_compatible(spec, mapping2)
    raw_opts = data.get("options") or {}
    if not isinstance(raw_opts, dict):
        raise InvalidSpecFile("options must be an object")
    defaults = SpecOptions()
    tolerance = _option(raw_opts, "tolerance", defaults.tolerance,
                        (int, float), "a number")
    n_max = _option(raw_opts, "n_max", defaults.n_max, (int,), "an integer")
    degree_bound = _option(raw_opts, "degree_bound_override",
                           defaults.degree_bound_override, (int,),
                           "an integer or null")
    if n_max < 1:
        raise InvalidSpecFile("options.n_max must be >= 1")
    # compared before float(): an integer too large for a float is simply
    # out of range
    if not 0 < tolerance < 1:
        raise InvalidSpecFile("options.tolerance must be in (0, 1)")
    if degree_bound is not None and degree_bound < 1:
        raise InvalidSpecFile("options.degree_bound_override must be >= 1")
    return ParsedSpec(spec, mapping, mapping2,
                      SpecOptions(float(tolerance), n_max, degree_bound))


def parse_spec_file(path) -> ParsedSpec:
    text = Path(path).read_text()
    try:
        data = json.loads(text, parse_int=_int_from_json)
    except json.JSONDecodeError as e:
        raise InvalidSpecFile(f"not valid JSON: {e}") from None
    return parse_spec_data(data)


def _map_to_json(m: AffineMapSpec) -> dict:
    out = {"label": m.label, "D": _matrix_to_json(m.linear)}
    if m.translation is not None:
        out["translation"] = [_entry_to_json(x) for x in m.translation]
    return out


def serialize_spec(parsed: ParsedSpec) -> dict:
    """Inverse of parse_spec_data, with options written out explicitly
    so the result is deterministic regardless of what the source file
    omitted."""
    data = {
        "schema": SCHEMA_VERSION,
        "name": parsed.spec.name,
        "dimension": parsed.spec.dimension,
        "holonomy": [{"label": l, "matrix": _matrix_to_json(m)}
                     for l, m in parsed.spec.holonomy],
        "map": _map_to_json(parsed.mapping),
    }
    if parsed.mapping2 is not None:
        data["map2"] = _map_to_json(parsed.mapping2)
    data["options"] = {
        "tolerance": parsed.options.tolerance,
        "n_max": parsed.options.n_max,
        "degree_bound_override": parsed.options.degree_bound_override,
    }
    return data


def write_spec_file(parsed: ParsedSpec, path) -> None:
    Path(path).write_text(json.dumps(serialize_spec(parsed), indent=2) + "\n")
