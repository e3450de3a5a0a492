"""Spec file parsing, validation, and round-tripping."""

import contextlib
import copy
import io
import itertools
import json
import pickle
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetafix import (InvalidSpecFile, NonInvariantSubspace, build_report,
                     load_fixture, parse_spec_data, parse_spec_file,
                     serialize_spec, validate_spec, write_spec_file)
from zetafix.cli import main
from zetafix.errors import ZetafixError

FIXTURE_FILES = ("klein_bottle_ex1", "heisenberg_ex3", "torus_cat_map",
                 "identity_torus", "klein_type_3_5", "klein_type_3_0",
                 "halfturn_coincidence", "quarter_rotation")


def _raw(name: str) -> dict:
    text = resources.files("zetafix.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def _minimal(**overrides) -> dict:
    data = {
        "schema": 1,
        "name": "m",
        "dimension": 1,
        "holonomy": [{"label": "I", "matrix": [[1]]}],
        "map": {"label": "f", "D": [[2]]},
    }
    data.update(overrides)
    return data


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_serialize_inverts_parse(self, name):
        data = _raw(name)
        parsed = parse_spec_data(data)
        assert serialize_spec(parsed) == data

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_reparse_is_identical(self, name):
        parsed = parse_spec_data(_raw(name))
        assert parse_spec_data(serialize_spec(parsed)) == parsed

    def test_file_round_trip(self, tmp_path, ex3):
        path = tmp_path / "spec.json"
        write_spec_file(ex3, path)
        assert parse_spec_file(path) == ex3

    def test_fraction_entries_round_trip(self):
        data = _minimal(holonomy=[{"label": "I", "matrix": [[1]]}],
                        map={"label": "f", "D": [["3/2"]],
                             "translation": ["1/3"]})
        parsed = parse_spec_data(data)
        again = serialize_spec(parsed)
        assert again["map"]["D"] == [["3/2"]]
        assert again["map"]["translation"] == ["1/3"]


class TestCopy:
    @pytest.mark.parametrize("name", ["heisenberg_ex3", "halfturn_coincidence"])
    def test_deep_copy_and_pickle(self, name):
        # the group table cached on the spec is rebuilt, not copied
        parsed = load_fixture(name)
        validate_spec(parsed.spec)
        for other in (copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert other == parsed and other.spec is not parsed.spec
            assert validate_spec(other.spec) == validate_spec(parsed.spec)
            assert build_report(other) == build_report(parsed)


class TestParsedShape:
    def test_options_defaults(self):
        parsed = parse_spec_data(_minimal())
        assert parsed.options.tolerance == 1e-10
        assert parsed.options.n_max == 12
        assert parsed.options.degree_bound_override is None
        assert not parsed.is_coincidence

    def test_options_read(self):
        parsed = parse_spec_data(_minimal(options={
            "tolerance": 1e-8, "n_max": 20, "degree_bound_override": 6}))
        assert parsed.options.tolerance == 1e-8
        assert parsed.options.n_max == 20
        assert parsed.options.degree_bound_override == 6

    def test_second_map(self):
        parsed = parse_spec_data(_minimal(map2={"label": "g", "D": [[3]]}))
        assert parsed.is_coincidence
        assert parsed.mapping2.label == "g"

    def test_translation_parsed(self, identity_torus):
        from fractions import Fraction
        assert identity_torus.mapping.translation == \
            (Fraction(1, 3), Fraction(1, 3))


class TestRejection:
    def test_not_an_object(self):
        with pytest.raises(InvalidSpecFile):
            parse_spec_data([1, 2])

    def test_wrong_schema(self):
        with pytest.raises(InvalidSpecFile, match="schema"):
            parse_spec_data(_minimal(schema=2))

    @pytest.mark.parametrize("field", ["name", "dimension", "holonomy", "map"])
    def test_missing_field(self, field):
        data = _minimal()
        del data[field]
        with pytest.raises(InvalidSpecFile, match=field):
            parse_spec_data(data)

    def test_float_entry_rejected(self):
        data = _minimal(map={"label": "f", "D": [[2.0]]})
        with pytest.raises(InvalidSpecFile, match="float|entries"):
            parse_spec_data(data)

    def test_bool_entry_rejected(self):
        data = _minimal(map={"label": "f", "D": [[True]]})
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(data)

    def test_bad_fraction_string(self):
        data = _minimal(map={"label": "f", "D": [["2/0"]]})
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(data)
        data = _minimal(map={"label": "f", "D": [["x"]]})
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(data)

    def test_matrix_shape_rejected(self):
        data = _minimal(map={"label": "f", "D": [2]})
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(data)
        data = _minimal(map={"label": "f", "D": []})
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(data)

    def test_map_needs_label_and_matrix(self):
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(map={"D": [[2]]}))
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(map={"label": "f"}))

    @pytest.mark.parametrize("data", [
        _minimal(schema="1" * 5000),
        _minimal(options={"n_max": ["x"] * 5000}),
        _minimal(options={"tolerance": "0" * 5000}),
    ])
    def test_echo_of_a_bad_value_is_capped(self, data):
        with pytest.raises(InvalidSpecFile) as err:
            parse_spec_data(data)
        assert len(str(err.value)) < 200 and "characters)" in str(err.value)

    @pytest.mark.parametrize("key", ["map", "map2"])
    def test_incompatible_map_rejected(self, key):
        # Klein-bottle holonomy: D A = [[2,-1],[0,-3]] is not A' D for any A'
        data = _raw("halfturn_coincidence")
        data["holonomy"][1]["matrix"] = [[1, 0], [0, -1]]
        data["map"]["D"] = data["map2"]["D"] = [[2, 0], [0, 3]]
        parse_spec_data(data)
        data[key]["D"] = [[2, 1], [0, 3]]
        with pytest.raises(NonInvariantSubspace,
                           match=f"map {data[key]['label']!r}"):
            parse_spec_data(data)

    def test_holonomy_items_checked(self):
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(holonomy=[{"matrix": [[1]]}]))
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(holonomy="I"))

    def test_group_axioms_enforced(self):
        from zetafix import NotAGroup
        with pytest.raises(NotAGroup):
            parse_spec_data(_minimal(
                holonomy=[{"label": "J", "matrix": [[-1]]}]))

    def test_map_dimension_enforced(self):
        from zetafix import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            parse_spec_data(_minimal(map={"label": "f", "D": [[1, 0], [0, 1]]}))

    def test_non_integer_dimension(self):
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(dimension="two"))

    def test_bad_options(self):
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(options={"n_max": 0}))
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(options={"tolerance": -1.0}))
        with pytest.raises(InvalidSpecFile):
            parse_spec_data(_minimal(options=[1]))

    @pytest.mark.parametrize("overrides, field", [
        ({"map": {"label": "f", "D": [[2]], "translation": 5}},
         "map.translation"),
        ({"options": {"n_max": "x"}}, "options.n_max"),
        ({"options": {"n_max": True}}, "options.n_max"),
        ({"options": {"n_max": 2.5}}, "options.n_max"),
        ({"options": {"tolerance": "abc"}}, "options.tolerance"),
        ({"options": {"tolerance": None}}, "options.tolerance"),
        ({"options": {"tolerance": 2.0}}, "options.tolerance"),
        ({"options": {"degree_bound_override": "3"}},
         "options.degree_bound_override"),
        ({"dimension": 2,
          "holonomy": [{"label": "I", "matrix": [[1, 0], [0, 1]]}],
          "map": {"label": "f", "D": [[1, 2], [3]]}}, "map.D"),
        ({"holonomy": [{"label": "I", "matrix": [[1], [1]]}]},
         "holonomy matrix"),
        ({"name": None}, "name"),
        ({"dimension": True}, "dimension"),
        ({"map": {"label": None, "D": [[2]]}}, "map.label"),
        ({"map": {"label": [1, 2], "D": [[2]]}}, "map.label"),
        ({"map2": {"label": {"a": 1}, "D": [[3]]}}, "map2.label"),
        ({"holonomy": [{"label": None, "matrix": [[1]]}]},
         "holonomy item label"),
        ({"holonomy": [{"label": 7, "matrix": [[1]]}]}, "holonomy item label"),
        ({"options": {"tolerance": 10**400}}, "options.tolerance"),
        ({"options": {"degree_bound_override": 0}},
         "options.degree_bound_override"),
        ({"options": {"degree_bound_override": -3}},
         "options.degree_bound_override"),
        ({"map": {"label": "f", "D": [["1e9999999"]]}}, "map.D"),
        ({"map": {"label": "f", "D": [["0.5"]]}}, "map.D"),
        ({"map": {"label": "f", "D": [[2]], "translation": ["1e3"]}},
         "map.translation"),
        ({"holonomy": [{"label": "I", "matrix": [[" 1"]]}]},
         "holonomy matrix"),
    ])
    def test_malformed_field_named(self, overrides, field):
        with pytest.raises(InvalidSpecFile) as info:
            parse_spec_data(_minimal(**overrides))
        assert str(info.value).startswith(field)

    @pytest.mark.parametrize("key, field", [
        ("dimension", "dimension"),
        ("n_max", "options.n_max"),
        ("tolerance", "options.tolerance"),
        ("entry", "map.D"),
    ])
    def test_oversized_integer_literal_named(self, tmp_path, key, field):
        # json.loads would raise a bare ValueError on a literal longer than
        # the interpreter's int conversion limit
        huge = "9" * (sys.get_int_max_str_digits() + 1)
        data = _minimal(options={})
        marker = "__HUGE__"
        if key == "dimension":
            data["dimension"] = marker
        elif key == "entry":
            data["map"]["D"] = [[marker]]
        else:
            data["options"][key] = marker
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data).replace(f'"{marker}"', huge))
        with pytest.raises(InvalidSpecFile) as info:
            parse_spec_file(path)
        assert str(info.value).startswith(field)

    @pytest.mark.parametrize("entry", [
        "9" * 5000,            # digits over the int conversion limit
        "x" * 100_000,         # not a rational string at all
        ["1"] * 10_000,        # not a string or an integer
    ])
    def test_long_bad_entry_quoted_briefly(self, entry):
        with pytest.raises(InvalidSpecFile) as info:
            parse_spec_data(_minimal(map={"label": "f", "D": [[entry]]}))
        message = str(info.value)
        assert message.startswith("map.D has a bad rational entry ")
        assert len(message) < 300
        assert f"({len(str(entry))} characters)" in message

    def test_short_bad_entry_quoted_whole(self):
        with pytest.raises(InvalidSpecFile) as info:
            parse_spec_data(_minimal(map={"label": "f", "D": [["1/x"]]}))
        assert str(info.value) == ("map.D has a bad rational entry '1/x': "
                                   "not an integer or 'p/q' string")

    def test_entry_strings_exact_forms_accepted(self):
        data = _minimal(map={"label": "f", "D": [["-6/4"]],
                             "translation": ["+2"]})
        parsed = parse_spec_data(data)
        assert parsed.mapping.linear.rows == ((Fraction(-3, 2),),)
        assert parsed.mapping.translation == (Fraction(2),)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidSpecFile, match="JSON"):
            parse_spec_file(path)


def _paths(node, path=()):
    """Every path into a decoded JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


# The Klein-bottle reflection group, so that a changed linear part can also
# be incompatible with the holonomy.
_FUZZ_BASE = {**_raw("klein_bottle_ex1"),
              "map2": {"label": "g", "D": [[3, 0], [0, 5]],
                       "translation": [0, "1/2"]}}
# Hypothesis favours the front of a sampled list, and a broken leaf gets
# further through the parser than a broken root: take the top-level fields
# in turn, deepest paths first within each.
_FUZZ_PATHS = [p for group in itertools.zip_longest(*(
    sorted((p for p in _paths(_FUZZ_BASE) if p[:1] == (key,)),
           key=len, reverse=True)
    for key in ("holonomy", "map", "map2", "dimension", "options", "name",
                "schema"))) for p in group if p]
_FUZZ_PATHS.append(())
_DELETE = object()
_small = st.integers(-2, 2)
_json_values = st.one_of(
    # small integers and integer matrices of any shape reach the group,
    # dimension and compatibility checks
    _small,
    st.lists(st.lists(_small, min_size=1, max_size=3), min_size=1, max_size=3),
    st.recursive(
        st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
        | st.floats(allow_nan=False) | st.text(max_size=6)
        | st.sampled_from(["1/2", "2/0", "-3", "x", "1e9", " 1"]),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["label", "D", "matrix", "x"]),
                          inner, max_size=3),
        max_leaves=10))


@st.composite
def _mutated_specs(draw):
    """The base spec with one to three nodes replaced or deleted."""
    spec = copy.deepcopy(_FUZZ_BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_FUZZ_PATHS))
        value = draw(st.just(_DELETE) | _json_values)
        if not path:
            spec = value if value is not _DELETE else {}
            continue
        parent = spec
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue                    # an earlier mutation removed it
        if not isinstance(parent, (dict, list)):
            continue
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return spec


class TestMalformedShapes:
    @settings(max_examples=200, derandomize=True)
    @given(_mutated_specs())
    def test_typed_error_and_exit_two(self, data):
        try:
            parse_spec_data(data)
            expected = 0
        except ZetafixError as e:
            expected = 2
            assert len(str(e)) < 300, str(e)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(data))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["validate", str(path)])
        assert code == expected, err.getvalue()
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
