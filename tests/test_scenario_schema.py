"""The scenario schema's in-package interpreter against jsonschema.

``cli._schema_errors`` checks scenarios with the keywords the shipped schema
uses.  jsonschema is the reference here, as scipy's ``quad`` is for the
Lobatto cells: the tests that need it skip where it is not installed.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodsep import cli

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def _subschemas(schema):
    """Every schema inside ``schema``, itself included."""
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


def test_schema_uses_only_implemented_keywords():
    # A keyword the interpreter does not know, say "pattern", would be ignored
    # silently; this fails instead.
    schema = cli._schema()
    for sub in _subschemas(schema):
        assert set(sub) <= cli.SCHEMA_KEYWORDS | cli.SCHEMA_ANNOTATIONS, sorted(sub)
        assert sub.get("additionalProperties", False) is False
        types = sub.get("type", [])
        assert set(types if isinstance(types, list) else [types]) <= set(cli._TYPES)
        if "$ref" in sub:
            assert sub["$ref"].startswith("#/$defs/")
            assert sub["$ref"].removeprefix("#/$defs/") in schema["$defs"]
        for value in [sub["const"]] if "const" in sub else sub.get("enum", []):
            assert not isinstance(value, (dict, list))  # `_same` compares scalars


def test_schema_is_a_2020_12_schema():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(cli._schema())


def _every_key_scenario():
    """A scenario that is valid under the schema and sets every optional key."""
    doc = json.loads((SCENARIOS / "magnetic_spherical_rotating.json").read_text())
    doc["system"].update(a=1.5, k=0.5)
    doc["frame"]["profiles"].update(
        w1={"type": "polynomial", "coeffs": [0.0, 0.1]},
        h1={"type": "sinusoid", "amplitude": 0.1, "angular_frequency": 1.0,
            "phase": 0.2, "offset": 1.0},
    )
    doc["potential"].update(
        f20={"type": "polynomial", "coeffs": [0.1, 0.2]},
        f30={"type": "constant", "value": 0.3},
        t0_tilde={"type": "constant", "value": 0.0},
        e_charge=1.0, q=0.5, coulomb_system="spherical",
    )
    doc.update(
        t_range=[-1.0, 1.0], anchor=0.0, samples=5, seed=2, assert_tol=None,
        initial_data=[[1.0, 0.0, 0.0, 0.0]] * 3, signs=[1, -1, 1],
    )
    return doc


BASES = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
BASES.append(_every_key_scenario())

VALUES = [
    None, True, False, 0, 1, -1, 2, 3.0, 0.5, -0.5, 1.0, 0.0, -0.0, 1e-320, 0.999, 2**70,
    -(2**70), math.nan, math.inf, -math.inf, "", "x", "constant", "polynomial", "sinusoid",
    "spherical", "conical", "magnetic", "coulomb", "nonsplit", "complete", [], [1.0],
    [1.0, 2.0], [1.0, 2.0, 3.0], [True, 2.0, 3.0], [1.0] * 9, [[0.1, 0.2]] * 3, {},
    {"type": "constant", "value": 1.0}, {"type": "constant", "coeffs": [1.0]},
    {"type": "polynomial", "coeffs": []}, {"type": "polynomial", "coeffs": [1.0]},
    {"type": "sinusoid", "amplitude": 1.0, "angular_frequency": 2.0},
    {"type": "sinusoid", "amplitude": 1.0}, {"type": 1, "value": 1.0},
]
KEYS = ["extra_knob", "type", "value", "coeffs", "phase", "a", "id", "h9", "samples"]


def _locations(node, where=()):
    """The location of every value in the parsed document ``node``, the
    document itself included."""
    yield where
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield from _locations(value, (*where, key))


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw):
    """A shipped scenario with one to three defects or changes: a value set
    from a pool at some path, a key or item deleted, or a key added."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["set", "delete", "add"]))
        locations = list(_locations(doc))
        if action == "add":
            where = draw(st.sampled_from([w for w in locations if isinstance(_at(doc, w), dict)]))
            _at(doc, where)[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(VALUES))
            continue
        where = draw(st.sampled_from(locations[1:]))
        parent = _at(doc, where[:-1])
        if action == "set":
            parent[where[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        else:
            del parent[where[-1]]
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(doc=_mutated())
def test_verdict_equals_jsonschema(doc):
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(cli._schema())
    errors = list(cli._schema_errors(doc, cli._schema()))
    assert (not errors) == reference.is_valid(doc), errors


@pytest.mark.parametrize("base", range(len(BASES)))
def test_shipped_scenarios_pass(base):
    assert list(cli._schema_errors(BASES[base], cli._schema())) == []


def test_deep_value_under_a_known_key_gives_a_short_message():
    # The interpreter stops where the schema does, and the message abbreviates
    # the value, so neither recurses through a value nested past the limit.
    deep = []
    for _ in range(5000):
        deep = [deep]
    doc = copy.deepcopy(BASES[0])
    doc["constants"] = [deep, 1.0, 2.0]
    errors = list(cli._schema_errors(doc, cli._schema()))
    assert [(where, kw) for where, kw, _ in errors] == [(("constants", 0), "type")]
    assert errors[0][2] == "[[[[[[[...]]]]]]] is not of type 'number'"


@pytest.mark.parametrize(
    "value, valid",
    [(True, False), (1, True), (1.0, True), (2, False), ("1", False)],
    ids=["true", "one", "one_float", "two", "string"],
)
def test_const_tells_true_from_one(value, valid):
    doc = copy.deepcopy(BASES[0])
    doc["schema"] = value
    assert (not list(cli._schema_errors(doc, cli._schema()))) == valid


@pytest.mark.parametrize(
    "value, valid",
    [(3, True), (3.0, True), (3.5, False), (True, False), (math.nan, False), (2**70, True)],
    ids=["int", "integral_float", "fraction", "bool", "nan", "big_int"],
)
def test_integer_type_follows_json_schema(value, valid):
    doc = copy.deepcopy(BASES[0])
    doc["samples"] = value
    assert (not list(cli._schema_errors(doc, cli._schema()))) == valid


@pytest.mark.parametrize("value", [1, 1.5, "x"], ids=["both", "one", "none"])
def test_one_of_takes_exactly_one_branch(value):
    # The shipped schema's branches exclude each other by their "type"
    # constant; this schema's do not, so a value can match both.
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    errors = list(cli._schema_errors(value, schema))
    assert [kw for _, kw, _ in errors] == ([] if value == 1.5 else ["oneOf"])
