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

from conftest import write_spec
from zetafix import (InvalidSpecFile, NonInvariantSubspace, RationalMatrix,
                     build_report, load_fixture, parse_spec_data,
                     parse_spec_file, serialize_spec, validate_spec)
from zetafix.cli import main
from zetafix.errors import ZetafixError
from zetafix.specio import N_MAX_CEILING, SpecOptions, check_n_max

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
        write_spec(ex3, path)
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

    @pytest.mark.parametrize("d", [[[2, 1], [1, 1]], [["1/2", "-2/4"], [3, "7/3"]]])
    def test_copies_rebuild_from_the_integer_form(self, d):
        parsed = parse_spec_data(_minimal(
            dimension=2, holonomy=[{"label": "I", "matrix": [[1, 0], [0, 1]]}],
            map={"label": "f", "D": d}))
        m = parsed.mapping.linear
        assert m.__reduce__()[1] == (m.ints, m.den)
        for other in (copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert other == parsed and hash(other) == hash(parsed)
            copied = other.mapping.linear
            assert copied is not m and copied == m and hash(copied) == hash(m)
            assert (copied.ints, copied.den) == (m.ints, m.den)
            assert copied.rows == m.rows


class TestIntegerForm:
    """A matrix is read into one integer form, whichever way its entries
    are written."""

    SPELLINGS = {
        "ints": [[2, -1, 0], [7, 3, 1], [0, 0, 1]],
        "strings": [["2", "-2/2", "0/5"], ["007", "+3", "6/6"], ["0", "0", "1"]],
        "mixed": [[2, "-1", 0], ["14/2", 3, "1"], [0, 0, 1]],
    }

    @staticmethod
    def _spec(d) -> dict:
        return _minimal(dimension=3,
                        holonomy=[{"label": "I", "matrix": [[1, 0, 0], [0, 1, 0],
                                                            [0, 0, 1]]}],
                        map={"label": "f", "D": d})

    def test_spellings_parse_to_one_matrix_and_echo(self):
        parsed = {k: parse_spec_data(self._spec(d))
                  for k, d in self.SPELLINGS.items()}
        d = parsed["ints"].mapping.linear
        echo = json.dumps(serialize_spec(parsed["ints"]))
        assert d.den == 1
        for other in parsed.values():
            assert other.mapping.linear == d
            assert hash(other.mapping.linear) == hash(d)
            assert json.dumps(serialize_spec(other)) == echo
        assert serialize_spec(parsed["strings"])["map"]["D"] == \
            self.SPELLINGS["ints"]

    def test_rational_entries_echo_in_lowest_terms(self):
        written = [["2/4", "-3"], [6, "2/4"]]
        parsed = parse_spec_data(_minimal(
            dimension=2,
            holonomy=[{"label": "I", "matrix": [[1, 0], [0, 1]]}],
            map={"label": "f", "D": written}))
        d = parsed.mapping.linear
        assert (d.ints, d.den) == (((1, -6), (12, 1)), 2)
        assert serialize_spec(parsed)["map"]["D"] == [["1/2", -3], [6, "1/2"]]
        same = RationalMatrix([[Fraction(1, 2), -3], [6, Fraction(2, 4)]])
        assert d == same and hash(d) == hash(same)

    @pytest.mark.parametrize("entry, message", [
        ("true", "matrix entries must be integers or 'p/q' strings, got True"),
        ("1.5", "matrix entries must be integers or 'p/q' strings, got 1.5"),
        ("9" * (sys.get_int_max_str_digits() + 1),
         f"map.D has a bad rational entry <integer literal of "
         f"{sys.get_int_max_str_digits() + 1} digits, over the limit of "
         f"{sys.get_int_max_str_digits()}>: not an integer or 'p/q' string"),
        ('"1/0"', "map.D has a bad rational entry '1/0': Fraction(1, 0)"),
    ])
    def test_bad_entries_keep_their_messages(self, tmp_path, entry, message):
        self._rejected(tmp_path, f"[[{entry}, 0], [0, 1]]", message)

    @pytest.mark.parametrize("d", ["[[1, 0]]", "[[1, 0], [0]]",
                                   '[["1/2", 0], [0]]'])
    def test_non_square_matrices_keep_their_message(self, tmp_path, d):
        self._rejected(tmp_path, d, "map.D must be square")

    @staticmethod
    def _rejected(tmp_path, d: str, message: str):
        data = _minimal(dimension=2,
                        holonomy=[{"label": "I", "matrix": [[1, 0], [0, 1]]}],
                        map={"label": "f", "D": "__D__"})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data).replace('"__D__"', d))
        with pytest.raises(InvalidSpecFile) as info:
            parse_spec_file(path)
        assert str(info.value) == message
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"error: InvalidSpecFile: {message}\n"


class TestParsedShape:
    def test_options_defaults(self):
        parsed = parse_spec_data(_minimal())
        assert parsed.options.tolerance == 1e-10
        assert parsed.options.n_max == 12
        assert parsed.options.degree_bound_override is None
        assert not parsed.is_coincidence

    def test_null_options_are_the_defaults(self):
        assert parse_spec_data(_minimal(options=None)).options == \
            parse_spec_data(_minimal()).options

    @pytest.mark.parametrize("options", [False, 0, "", [], [1], 5, "x", 1.5,
                                         True])
    def test_options_that_are_not_an_object(self, options):
        # only an absent or null options block means the defaults; a
        # falsy non-object is as wrong as any other
        with pytest.raises(InvalidSpecFile, match="^options must be an object$"):
            parse_spec_data(_minimal(options=options))

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

    @pytest.mark.parametrize("schema", [True, 1.0, "1", None])
    def test_schema_must_be_the_integer_one(self, schema):
        # true and 1.0 compare equal to 1 but are not the integer 1
        with pytest.raises(InvalidSpecFile) as e:
            parse_spec_data(_minimal(schema=schema))
        assert str(e.value) == f"unsupported schema {schema!r}; expected 1"

    def test_misspelt_map2_is_refused(self):
        # "map_2" would otherwise turn the coincidence pair into a
        # fixed-point problem of its first map
        data = _raw("halfturn_coincidence")
        data["map_2"] = data.pop("map2")
        with pytest.raises(InvalidSpecFile) as e:
            parse_spec_data(data)
        assert str(e.value) == "the spec has an unknown key 'map_2'"

    @pytest.mark.parametrize("overrides, message", [
        ({"Schema": 1}, "the spec has an unknown key 'Schema'"),
        ({"map": {"label": "f", "D": [[2]], "translaton": [0]}},
         "map has an unknown key 'translaton'"),
        ({"map2": {"label": "g", "d": [[3]], "D": [[3]]}},
         "map2 has an unknown key 'd'"),
        ({"holonomy": [{"label": "I", "matrix": [[1]], "matrx": [[1]]}]},
         "holonomy item 0 has an unknown key 'matrx'"),
        ({"options": {"nmax": 3}}, "options has an unknown key 'nmax'"),
        ({"options": {"n_max": 3, "x" * 500: 1}},
         "options has an unknown key '" + "x" * 63 + "... (500 characters)"),
    ], ids=["top-level", "map", "map2", "holonomy-item", "options", "long-key"])
    def test_unknown_key_is_refused(self, overrides, message, tmp_path):
        data = _minimal(**overrides)
        with pytest.raises(InvalidSpecFile) as e:
            parse_spec_data(data)
        assert str(e.value) == message
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", str(path)]) == 2
        assert err.getvalue() == f"error: InvalidSpecFile: {message}\n"

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

    def test_both_maps_read_before_either_is_checked(self):
        # The maps are checked against the holonomy when parsing builds the
        # problem's kernel, after both are read: a malformed map2 is
        # reported before an incompatible map.
        data = _raw("halfturn_coincidence")
        data["holonomy"][1]["matrix"] = [[1, 0], [0, -1]]
        data["map"]["D"] = data["map2"]["D"] = [[2, 0], [0, 3]]
        incompatible, malformed = copy.deepcopy(data), copy.deepcopy(data)
        incompatible["map"]["D"] = [[2, 1], [0, 3]]
        malformed["map2"]["D"] = [[2, "x"], [0, 3]]
        with pytest.raises(NonInvariantSubspace) as one:
            parse_spec_data(incompatible)
        assert str(one.value) == (
            "map 'f' is incompatible with holonomy element 'S': D*A = A'*D "
            "holds for no holonomy element A'")
        with pytest.raises(InvalidSpecFile) as other:
            parse_spec_data(malformed)
        assert str(other.value) == ("map2.D has a bad rational entry 'x': "
                                    "not an integer or 'p/q' string")
        with pytest.raises(InvalidSpecFile) as both:
            parse_spec_data(dict(incompatible, map2=malformed["map2"]))
        assert str(both.value) == str(other.value)

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

    def test_n_max_ceiling(self):
        assert N_MAX_CEILING == 1000
        assert parse_spec_data(
            _minimal(options={"n_max": N_MAX_CEILING})).options.n_max == 1000
        for n in (N_MAX_CEILING + 1, 10 ** 6, 10 ** 400):
            with pytest.raises(InvalidSpecFile,
                               match=r"^options\.n_max must be <= 1000$"):
                parse_spec_data(_minimal(options={"n_max": n}))
        check_n_max(N_MAX_CEILING, "--max-n")
        with pytest.raises(InvalidSpecFile, match=r"^--max-n must be >= 1$"):
            check_n_max(0, "--max-n")

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_max": 0}, "options.n_max must be >= 1"),
        ({"n_max": 10 ** 6}, "options.n_max must be <= 1000"),
        ({"tolerance": 2}, "options.tolerance must be in (0, 1)"),
        ({"degree_bound_override": 0},
         "options.degree_bound_override must be >= 1"),
        # the parser's order: n_max, then tolerance, then the override
        ({"n_max": 0, "tolerance": 2, "degree_bound_override": 0},
         "options.n_max must be >= 1"),
        ({"tolerance": 2, "degree_bound_override": 0},
         "options.tolerance must be in (0, 1)"),
    ])
    def test_options_built_by_a_caller_are_range_checked(self, kwargs, message):
        # the same checks and messages as options read from a spec file
        with pytest.raises(InvalidSpecFile) as built:
            SpecOptions(**kwargs)
        with pytest.raises(InvalidSpecFile) as parsed:
            parse_spec_data(_minimal(options=kwargs))
        assert str(built.value) == str(parsed.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_max": 5.0}, "options.n_max must be an integer, got 5.0"),
        ({"n_max": True}, "options.n_max must be an integer, got True"),
        ({"n_max": None}, "options.n_max must be an integer, got None"),
        ({"degree_bound_override": 2.5},
         "options.degree_bound_override must be an integer or null, got 2.5"),
        ({"degree_bound_override": False},
         "options.degree_bound_override must be an integer or null, got False"),
        ({"tolerance": "0.5"}, "options.tolerance must be a number, got '0.5'"),
        ({"tolerance": None}, "options.tolerance must be a number, got None"),
        ({"tolerance": True}, "options.tolerance must be a number, got True"),
        ({"tolerance": "0" * 5000},
         "options.tolerance must be a number, got '" + "0" * 63
         + "... (5000 characters)"),
    ])
    def test_options_built_by_a_caller_are_type_checked(self, kwargs, message):
        # the parser's type checks and messages, not a TypeError later
        with pytest.raises(InvalidSpecFile) as built:
            SpecOptions(**kwargs)
        with pytest.raises(InvalidSpecFile) as parsed:
            parse_spec_data(_minimal(options=kwargs))
        assert str(built.value) == str(parsed.value) == message

    @pytest.mark.parametrize("options, message", [
        ({"tolerance": "abc", "n_max": 0, "degree_bound_override": 2.5},
         "options.tolerance must be a number, got 'abc'"),
        ({"n_max": 0, "tolerance": 2, "degree_bound_override": "x"},
         "options.degree_bound_override must be an integer or null, got 'x'"),
        ({"n_max": 2.5, "tolerance": 0, "degree_bound_override": True},
         "options.n_max must be an integer, got 2.5"),
        ({"n_max": 0, "tolerance": 2, "degree_bound_override": 0},
         "options.n_max must be >= 1"),
    ])
    def test_first_error_of_a_multi_fault_options_block(self, options, message):
        # every type check (tolerance, n_max, override) before every
        # range check (n_max, tolerance, override)
        with pytest.raises(InvalidSpecFile) as parsed:
            parse_spec_data(_minimal(options=options))
        assert str(parsed.value) == message

    def test_options_built_by_a_caller_in_range(self):
        opts = SpecOptions(tolerance=Fraction(1, 2), n_max=N_MAX_CEILING,
                           degree_bound_override=1)
        assert opts.tolerance == 0.5 and isinstance(opts.tolerance, float)
        assert SpecOptions() == SpecOptions(1e-10, 12, None)

    def test_report_refuses_an_empty_table(self):
        parsed = load_fixture("torus_cat_map")
        with pytest.raises(InvalidSpecFile, match=r"^options\.n_max must be >= 1$"):
            build_report(parsed._replace(
                options=parsed.options._replace(n_max=0)))

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
