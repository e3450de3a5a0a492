"""Spec file parsing, validation, and round-tripping."""

import json
import sys
from fractions import Fraction
from importlib import resources

import pytest

from zetafix import (InvalidSpecFile, parse_spec_data, parse_spec_file,
                     serialize_spec, write_spec_file)

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
