"""Deterministic JSON and CSV emission: the atoms, key order, indentation and
CSV quoting that every byte-stable output of the CLI and the suites goes
through."""

from fractions import Fraction

import pytest

from copsrobbers.serialize import csv_cell, csv_lines, stable_json


def test_bool_is_written_before_int():
    """bool is a subclass of int, so it must be matched first."""
    assert stable_json([True, False, 1, 0]) == "[true, false, 1, 0]"
    assert csv_cell(True) == "true" and csv_cell(False) == "false"


def test_fractions_whole_and_fractional():
    assert stable_json(Fraction(6, 3)) == "2"
    assert stable_json(Fraction(-4, 1)) == "-4"
    assert stable_json(Fraction(1, 3)) == "0.333333"
    assert stable_json(Fraction(2, 3)) == "0.666667"


def test_floats_have_six_decimals():
    assert stable_json(1.0) == "1.000000"
    assert stable_json(0.1 + 0.2) == "0.300000"
    assert stable_json(-2.5e-7) == "-0.000000"
    assert stable_json(1e6 / 7) == "142857.142857"
    assert csv_cell(0.5) == "0.500000"


def test_none_strings_and_empty_containers():
    assert stable_json(None) == "null"
    assert stable_json('a "q"\n\u00e9') == '"a \\"q\\"\\n\u00e9"'
    assert stable_json({}) == "{}" and stable_json([]) == "[]" and stable_json(()) == "[]"


def test_nested_keys_are_sorted():
    obj = {"b": {"z": 1, "a": [2, {"y": None, "x": 1.5}]}, "a": (3,)}
    assert stable_json(obj) == '{"a": [3], "b": {"a": [2, {"x": 1.500000, "y": null}], "z": 1}}'
    assert stable_json({"b": 1, "a": 2}) == stable_json({"a": 2, "b": 1})


def test_indent():
    obj = {"k": [1, {"b": True}], "e": []}
    assert stable_json(obj, indent=2) == (
        "{\n"
        '  "e": [],\n'
        '  "k": [\n'
        "    1,\n"
        "    {\n"
        '      "b": true\n'
        "    }\n"
        "  ]\n"
        "}"
    )


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", 1 + 2j])
def test_unsupported_types_raise(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        stable_json({"x": [value]})


@pytest.mark.parametrize("value, cell", [
    ("plain", "plain"),
    ("a,b", '"a,b"'),
    ('say "hi"', '"say ""hi"""'),
    ("two\nlines", '"two\nlines"'),
    (None, ""),
    (7, "7"),
    ("", ""),
])
def test_csv_cell_quoting(value, cell):
    assert csv_cell(value) == cell


def test_csv_lines():
    text = csv_lines(["a", "b", "c"], [[1, None, "x,y"], [True, 0.25, ""]])
    assert text == 'a,b,c\n1,,"x,y"\ntrue,0.250000,\n'
