"""Spec file reading and writing.

A spec file is JSON: a manifold (dimension plus labeled holonomy
matrices), one map (its linear part and optional translation), an
optional second map for coincidence problems, and options.  All
matrix entries are integers or exact "p/q" strings; floats are
rejected so that every downstream computation stays exact.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .algebra import RationalMatrix, _echo, as_rational
from .errors import InvalidSpecFile
from .manifolds import (AffineMapSpec, ManifoldSpec, averaging_kernel,
                        validate_spec)

SCHEMA_VERSION = 1

# The largest iterate a table may ask for, through options.n_max or the
# CLI's --max-n.  The numbers of the n-th iterate grow to about n times
# the digits of the first, so the cost of a table grows at least like
# n_max^2; the ceiling keeps it bounded.
N_MAX_CEILING = 1000


def check_n_max(n: int, what: str = "options.n_max") -> None:
    """Check an iterate count from a spec or the command line: outside
    1..N_MAX_CEILING it raises InvalidSpecFile, naming what."""
    if n < 1:
        raise InvalidSpecFile(f"{what} must be >= 1")
    if n > N_MAX_CEILING:
        raise InvalidSpecFile(f"{what} must be <= {N_MAX_CEILING}")


class SpecOptions(namedtuple("SpecOptions",
                             "tolerance n_max degree_bound_override")):
    """Spec options.  tolerance and degree_bound_override are parsed,
    checked and echoed for schema 1, but nothing reads them: every
    eigenvalue count is exact, and the degree bound is derived.

    The checks run on construction and on _replace, so options built by
    a caller are held to the same types and ranges as parsed ones:
    InvalidSpecFile, the types first, then the ranges.  true/false are
    not numbers, and null is accepted only for the override.  tolerance
    is then stored as a float."""

    __slots__ = ()

    def __new__(cls, tolerance=1e-10, n_max=12, degree_bound_override=None):
        return cls._make((tolerance, n_max, degree_bound_override))

    @classmethod
    def _make(cls, values):
        # _replace builds through _make, so the checks live here
        opts = super()._make(values)
        for key, kinds, what in (("tolerance", (int, float, Fraction), "a number"),
                                 ("n_max", (int,), "an integer"),
                                 ("degree_bound_override", (int, type(None)),
                                  "an integer or null")):
            v = getattr(opts, key)
            if isinstance(v, bool) or not isinstance(v, kinds):
                raise InvalidSpecFile(
                    f"options.{key} must be {what}, got {_echo(v)}")
        check_n_max(opts.n_max)
        # compared before float(): an integer too large for a float is
        # simply out of range
        if not 0 < opts.tolerance < 1:
            raise InvalidSpecFile("options.tolerance must be in (0, 1)")
        if opts.degree_bound_override is not None and opts.degree_bound_override < 1:
            raise InvalidSpecFile("options.degree_bound_override must be >= 1")
        return super()._make((float(opts.tolerance), *opts[1:]))


class ParsedSpec(namedtuple("ParsedSpec", "spec mapping mapping2 options",
                            defaults=(None, SpecOptions()))):
    """A validated spec file: manifold (a ManifoldSpec), map(s) (each an
    AffineMapSpec; mapping2 is None unless the spec is a coincidence
    pair), options (SpecOptions)."""

    __slots__ = ()

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
    return int(x) if x.denominator == 1 else str(x)     # str gives "p/q"


def _matrix_from_json(rows, what: str) -> RationalMatrix:
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise InvalidSpecFile(f"{what} must be a list of rows")
    # an all-integer matrix is its own integer form; true and false are
    # not integers here, and take the checked path to their error
    integral = all(type(v) is int for row in rows for v in row)
    if not integral:
        rows = [[_entry_from_json(v, what) for v in row] for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise InvalidSpecFile(f"{what} must be square")
    return RationalMatrix._from_ints(rows) if integral else RationalMatrix(rows)


def _matrix_to_json(m: RationalMatrix) -> list:
    if m.den == 1:
        return [list(row) for row in m.ints]
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
    maps = [_parse_map(data["map"], "map")]
    if data.get("map2") is not None:
        maps.append(_parse_map(data["map2"], "map2"))
    # checks each map, after both are read; a report reads the kernel back
    averaging_kernel(spec, *maps)
    raw_opts = {} if data.get("options") is None else data["options"]
    if not isinstance(raw_opts, dict):
        raise InvalidSpecFile("options must be an object")
    return ParsedSpec(spec, *maps, options=SpecOptions(
        **{key: raw_opts[key] for key in SpecOptions._fields
           if key in raw_opts}))


def parse_spec_file(path) -> ParsedSpec:
    text = Path(path).read_text()
    try:
        data = json.loads(text, parse_int=_int_from_json)
    except json.JSONDecodeError as e:
        raise InvalidSpecFile(f"not valid JSON: {e}") from None
    except RecursionError:
        raise InvalidSpecFile("not valid JSON: nested too deeply") from None
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

