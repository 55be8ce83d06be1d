"""The generated schema checker: it agrees with jsonschema on shipped and
mutated documents and on awkward names and values, rejections keep
jsonschema's wording, unknown keywords and malformed keyword values fail the
compiler, the generated source keeps one function per target, and a CLI
call imports jsonschema only to word an error."""

import copy
import glob
import json
import os
import re
import subprocess
import sys
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from glueforge import schema
from glueforge.cli import (
    KINDS,
    ERROR_TEXT_LIMIT,
    jsonable_object,
    load_document,
    main,
)
from glueforge.errors import StructuralError

import fixtures

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=400)
ENVELOPE = "glueforge:document"
PAYLOADS = ["glueforge:" + kind for kind in KINDS]
REGISTRY = Registry().with_resources(
    (s["$id"], Resource.from_contents(s)) for s in schema.SCHEMAS)


def oracle(instance, schema_id, registry=REGISTRY):
    validator = Draft202012Validator({"$ref": schema_id}, registry=registry)
    return next(validator.iter_errors(instance), None) is None


def gluing_payload(data):
    """The document payload of gluing data, as JSON text reads back: the
    report helpers share tuples and dicts with the engine."""
    arrows = []
    for key, fn in fixtures.label_arrows(data).items():
        if key[0] == "incl":
            arrows.append({"kind": "edge", "from": key[1],
                           "pair": ",".join(key[2]), "map": fn.mapping})
        else:
            arrows.append({"kind": "tau", "pair": ",".join(key[1]),
                           "map": fn.mapping})
    return json.loads(json.dumps({
        "mode": data.indexcat.mode,
        "ambient": data.ambient,
        "direction": data.direction,
        "index": list(data.indexcat.index.labels),
        "objects": {",".join(obj): jsonable_object(c, data.spaces.get(obj))
                    for obj, c in data.objects.items()},
        "arrows": arrows,
    }))


def corpus():
    docs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "golden",
                                              "*.json"))):
        if not path.endswith("manifest.json"):
            with open(path, encoding="utf-8") as handle:
                docs.append(json.load(handle))
    gluings = [fixtures.e1(), fixtures.e2(), fixtures.e3(),
               fixtures.e4_nonsplit(), fixtures.e4_split()]
    for seed in range(3):
        rng = fixtures.seeded(seed)
        gluings += [fixtures.random_nonsplit_colimit(rng),
                    fixtures.random_split_colimit(rng),
                    fixtures.random_limit_data(rng),
                    fixtures.random_limit_data(rng, mode="split"),
                    fixtures.random_top_colimit(rng)]
    payloads = [gluing_payload(data) for data in gluings]
    docs += [{"version": "1", "kind": "gluing", "payload": p}
             for p in payloads]
    docs.append({"version": "1", "kind": "refinement", "payload": {
        "source": payloads[0], "target": payloads[1],
        "gamma": {"1": "1", "2": "2"}, "components": {}}})
    return docs


def _without(node, key):
    return {k: v for k, v in node.items() if k != key}


CORPUS = corpus()
OTHER_TYPES = [None, True, 1, 1.5, [], {}]
FLIP = {"edge": "tau", "tau": "edge"}
# mutation -> (which nodes it applies to, how it rewrites one)
MUTATIONS = {
    "drop a key": (lambda n: isinstance(n, dict) and n,
                   lambda n, draw: _without(n, draw(st.sampled_from(sorted(n))))),
    "add an unknown key": (lambda n: isinstance(n, dict),
                           lambda n, draw: dict(n, unexpected=draw(
                               st.sampled_from(OTHER_TYPES + ["x"])))),
    "change the type": (lambda n: True,
                        lambda n, draw: draw(st.sampled_from(OTHER_TYPES))),
    "empty a label": (lambda n: isinstance(n, str), lambda n, draw: ""),
    "wrong enum or const": (lambda n: isinstance(n, str),
                            lambda n, draw: "bogus"),
    "flip an arrow kind": (
        lambda n: isinstance(n, dict) and n.get("kind") in ("edge", "tau"),
        lambda n, draw: dict(n, kind=FLIP[n["kind"]])),
}


def locations(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from locations(value, path + (key,))
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            yield from locations(value, path + (pos,))


def node_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutate(doc, draw):
    applies, rewrite = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))]
    paths = [p for p in locations(doc) if applies(node_at(doc, p))]
    if not paths:
        return doc
    path = draw(st.sampled_from(paths))
    new = copy.deepcopy(rewrite(node_at(doc, path), draw))
    if not path:
        return new
    node_at(doc, path[:-1])[path[-1]] = new
    return doc


def assert_agrees(doc):
    assert schema.CHECKERS[ENVELOPE](doc) == oracle(doc, ENVELOPE)
    payload = doc.get("payload") if isinstance(doc, dict) else doc
    for schema_id in PAYLOADS:
        assert schema.CHECKERS[schema_id](payload) == oracle(payload,
                                                             schema_id)


def test_corpus_agrees_and_is_mostly_valid():
    for doc in CORPUS:
        assert_agrees(doc)
    kinds = {doc["kind"] for doc in CORPUS}
    assert kinds == set(KINDS)
    valid = [doc for doc in CORPUS
             if oracle(doc["payload"], "glueforge:" + doc["kind"])]
    assert len(valid) == len(CORPUS) - 1


@PROPERTY
@given(st.data())
def test_checker_agrees_with_jsonschema_on_mutations(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(CORPUS)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data.draw)
    assert_agrees(doc)


DRAFT = "https://json-schema.org/draft/2020-12/schema"
PAIR_OR_MAP = {"oneOf": [{"type": "object", "required": ["pair"]},
                         {"type": "object", "required": ["map"]}]}
REF_AND_SIBLING = {"$defs": {"s": {"type": "string"}},
                   "$ref": "#/$defs/s", "minLength": 2}
UNTYPED_OBJECT = {"required": ["a"], "properties": {"a": {"type": "string"}},
                  "additionalProperties": {"enum": ["x"]}}
BOOLEANS = {"items": False, "properties": {"a": True}}


# keyword combinations the shipped files do not use yet, such as oneOf
# branches that can both match (shipped arrows differ in a const kind)
@pytest.mark.parametrize("own, instance", [
    (PAIR_OR_MAP, {"pair": "1,2", "map": {}}),
    (PAIR_OR_MAP, {"pair": "1,2"}),
    (PAIR_OR_MAP, {}),
    (PAIR_OR_MAP, []),
    (REF_AND_SIBLING, "a"),
    (REF_AND_SIBLING, "ab"),
    (REF_AND_SIBLING, 1),
    (UNTYPED_OBJECT, ["a"]),
    (UNTYPED_OBJECT, {"a": "b"}),
    (UNTYPED_OBJECT, {"a": "b", "c": "x"}),
    (UNTYPED_OBJECT, {"a": "b", "c": "y"}),
    (UNTYPED_OBJECT, {"c": "x"}),
    (BOOLEANS, []),
    (BOOLEANS, [1]),
    (BOOLEANS, {"a": None}),
])
def test_own_schemas_agree_with_jsonschema(own, instance):
    own = dict(own, **{"$schema": DRAFT, "$id": "test:own"})
    registry = Registry().with_resource(own["$id"],
                                        Resource.from_contents(own))
    checker = schema.compile_schemas([own])["test:own"]
    assert checker(instance) == oracle(instance, "test:own", registry)


class Text(str):
    """A string of a subclass, which both checkers take as a string."""


# string-leaf containers, checked over the whole container at once
LEAF_ITEMS = {"type": "array", "items": {"$ref": "#/$defs/label"},
              "$defs": {"label": {"type": "string", "minLength": 2}}}
LEAF_VALUES = {"type": "object",
               "additionalProperties": {"type": "string", "minLength": 1}}
REF_CHAIN = {"items": {"$ref": "#/$defs/s", "minLength": 3},
             "additionalProperties": {"$ref": "#/$defs/t"},
             "$defs": {"s": {"$ref": "#/$defs/t", "minLength": 1},
                       "t": {"type": "string"}}}
UNTYPED_ITEMS = {"items": {"minLength": 2},
                 "additionalProperties": {"minLength": 1}}
NAMED_AND_LEAF = {"required": ["k"], "properties": {"k": {"type": "array"}},
                  "additionalProperties": {"type": "string"}}
LEAF_CONTAINERS = [
    [], [""], ["a"], ["ab"], ["ab", "a"], ["abc", "ab", ""], ["ab", 1],
    [1, "ab"], ["ab", None], ["ab", ["ab"]], [Text("ab")], [Text("a")],
    {}, {"k": ""}, {"k": "a"}, {"k": "abc", "l": ""}, {"k": 1},
    {"k": "a", "l": Text("b")}, {"k": ["a"]}, {"k": [], "l": "a"},
    {"l": "a"}, "ab", 1,
]


@pytest.mark.parametrize("own", [LEAF_ITEMS, LEAF_VALUES, REF_CHAIN,
                                 UNTYPED_ITEMS, NAMED_AND_LEAF])
@pytest.mark.parametrize("instance", LEAF_CONTAINERS)
def test_string_leaf_containers_agree_with_jsonschema(own, instance):
    own = dict(own, **{"$schema": DRAFT, "$id": "test:own"})
    registry = Registry().with_resource(own["$id"],
                                        Resource.from_contents(own))
    checker = schema.compile_schemas([own])["test:own"]
    assert checker(instance) == oracle(instance, "test:own", registry)


# containers of string-leaf containers, checked over all members at once
NESTED_ITEMS = {"type": "array", "items": {"$ref": "#/$defs/labels"},
                "$defs": {"labels": {"type": "array",
                                     "items": {"type": "string",
                                               "minLength": 1}}}}
NESTED_VALUES = {"type": "object",
                 "additionalProperties": {"$ref": "#/$defs/labels"},
                 "$defs": {"labels": {"type": "array",
                                      "items": {"type": "string",
                                                "minLength": 1}}}}
NESTED_MAPPINGS = {"type": "object",
                   "additionalProperties": {"type": "object",
                                            "additionalProperties": {
                                                "type": "string"}}}
NESTED_WITH_SIBLING = {"items": {"$ref": "#/$defs/labels", "minLength": 2},
                       "$defs": {"labels": {"type": "array",
                                            "items": {"type": "string"}}}}
NESTED_CONTAINERS = [
    [], [[]], [["a"], ["b", "c"]], [["a"], [""]], [["a"], "b"], [["a"], 1],
    [["a"], {"k": "a"}], [{"k": "a"}], [["a", ["b"]]], [[Text("a")]],
    [["a"], None], {}, {"k": []}, {"k": ["a"], "l": ["b"]}, {"k": ["a", ""]},
    {"k": ["a"], "l": "b"}, {"k": {"a": "b"}}, {"k": {"a": ""}},
    {"k": {"a": 1}}, {"k": {"a": "b"}, "l": ["c"]}, {"k": {}},
    {"k": {"a": Text("b")}}, {"k": {"a": ["b"]}}, "ab", 1,
]


@pytest.mark.parametrize("own", [NESTED_ITEMS, NESTED_VALUES, NESTED_MAPPINGS,
                                 NESTED_WITH_SIBLING])
@pytest.mark.parametrize("instance", NESTED_CONTAINERS)
def test_nested_string_containers_agree_with_jsonschema(own, instance):
    own = dict(own, **{"$schema": DRAFT, "$id": "test:own"})
    registry = Registry().with_resource(own["$id"],
                                        Resource.from_contents(own))
    checker = schema.compile_schemas([own])["test:own"]
    assert checker(instance) == oracle(instance, "test:own", registry)


@pytest.mark.parametrize("where, value", [
    ("index", ["1", ""]), ("index", ["1", 2]), ("index", ["1", Text("2")]),
    ("index", []), ("objects", {"1": ["a0", ""], "2": ["b0"], "1,2": ["u"]}),
    ("objects", {"1": ["a0", None], "2": ["b0"], "1,2": ["u"]}),
    ("map", {"u": ""}), ("map", {"u": 1}), ("map", {"u": Text("a2")}),
    ("map", {}),
])
def test_shipped_label_arrays_and_mappings_agree_with_jsonschema(where,
                                                                   value):
    doc = e1_document()
    if where == "map":
        doc["payload"]["arrows"][0]["map"] = value
    else:
        doc["payload"][where] = value
    assert_agrees(doc)


def e1_document():
    return {"version": "1", "kind": "gluing", "payload": {
        "mode": "nonsplit", "ambient": "sets", "direction": "from-overlaps",
        "index": ["1", "2"],
        "objects": {"1": ["a0", "a1", "a2"], "2": ["b0", "b1", "b2"],
                    "1,2": ["u"]},
        "arrows": [
            {"kind": "edge", "from": "1", "pair": "1,2", "map": {"u": "a2"}},
            {"kind": "edge", "from": "2", "pair": "1,2",
             "map": {"u": "b0"}}]}}


def _missing_mode(doc):
    del doc["payload"]["mode"]


def _extra_colour(doc):
    doc["payload"]["colour"] = "red"


def _edge_without_from(doc):
    del doc["payload"]["arrows"][1]["from"]


def _sideways(doc):
    doc["payload"]["direction"] = "sideways"


def _empty_index_label(doc):
    doc["payload"]["index"][0] = ""


def _refinement_source_index_string(doc):
    source = doc["payload"]
    source["index"] = "1"
    doc["kind"] = "refinement"
    doc["payload"] = {"source": source, "target": e1_document()["payload"],
                      "gamma": {}, "components": {}}


# the messages of the parent implementation, which validated with jsonschema
# alone; the compiled checker must leave every one of them unchanged
@pytest.mark.parametrize("breach, message", [
    (_missing_mode,
     "schema violation at payload: 'mode' is a required property"),
    (_extra_colour,
     "schema violation at payload: Additional properties are not allowed "
     "('colour' was unexpected)"),
    (_edge_without_from,
     "schema violation at payload.arrows[1]: {'kind': 'edge', 'pair': "
     "'1,2', 'map': {'u': 'b0'}} is not valid under any of the given "
     "schemas"),
    (_sideways,
     "schema violation at payload.direction: 'sideways' is not one of "
     "['from-overlaps', 'toward-overlaps']"),
    (_empty_index_label,
     "schema violation at payload.index[0]: '' should be non-empty"),
    (_refinement_source_index_string,
     "schema violation at payload.source.index: '1' is not of type "
     "'array'"),
])
def test_rejection_wording_is_pinned(tmp_path, breach, message):
    doc = e1_document()
    breach(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StructuralError) as err:
        load_document(str(path))
    assert str(err.value) == message


def _one_empty_label_in_ten_thousand(doc):
    doc["payload"]["objects"]["1"] = ["a%d" % k for k in range(9999)] + [""]


def _long_unknown_key(doc):
    doc["payload"]["k" * 25000] = 1


# jsonschema repeats the offending value, which made these stderr lines
# 89,001 and 25,116 bytes long; the rejection is cut to a fixed length
@pytest.mark.parametrize("breach, head", [
    (_one_empty_label_in_ten_thousand,
     "schema violation at payload.objects['1']: ['a0', 'a1', "),
    (_long_unknown_key,
     "schema violation at payload: Additional properties are not allowed "
     "('kkkk"),
])
def test_long_rejection_is_cut(tmp_path, capsys, breach, head):
    doc = e1_document()
    breach(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["glue", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    message = err.rstrip("\n").split("structural error: ", 1)[1]
    assert message.startswith(head)
    assert message[ERROR_TEXT_LIMIT:].startswith("... [cut, ")
    assert message.endswith(" characters in all]")
    assert len(message) < ERROR_TEXT_LIMIT + 40


@pytest.mark.parametrize("keyword, value", [("pattern", "^a"),
                                            ("minItems", 1)])
@pytest.mark.parametrize("referenced", [True, False])
def test_unimplemented_keyword_fails_the_compiler(keyword, value, referenced):
    own = {"$id": "test:labels", "$defs": {
        "labels": {"type": "array", keyword: value}}}
    if referenced:
        own["properties"] = {"index": {"$ref": "#/$defs/labels"}}
    with pytest.raises(schema.SchemaCompileError, match=keyword):
        schema.compile_schemas([own])


# keyword values the generated source could not take as the keyword means
# them; before they were refused, "minLength": "2" compiled and then raised a
# bare TypeError, "required": "mode" checked for the keys m, o, d and e, and
# "enum": "abc" accepted "a"
@pytest.mark.parametrize("keyword, value", [
    ("minLength", "2"), ("minLength", True), ("minLength", -1),
    ("minLength", 1.0), ("required", "mode"), ("required", ["a", 1]),
    ("enum", "abc"), ("enum", ["a", None]), ("const", 1),
    ("properties", ["a"]), ("oneOf", []), ("$ref", 1),
])
def test_malformed_keyword_value_fails_the_compiler(keyword, value):
    own = {"$id": "test:own", "type": "object",
           "properties": {"a": {keyword: value}}}
    if keyword == "properties":
        own = {"$id": "test:own", keyword: value}
    with pytest.raises(schema.SchemaCompileError) as err:
        schema.compile_schemas([own])
    assert keyword in str(err.value) and repr(value) in str(err.value)


def test_recursive_ref_fails_the_compiler():
    tree = {"$id": "test:own", "$defs": {
        "tree": {"type": "array", "items": {"$ref": "#/$defs/tree"}}}}
    loop = {"$id": "test:own", "items": {"$ref": "#/$defs/a"}, "$defs": {
        "a": {"$ref": "#/$defs/b"}, "b": {"$ref": "#/$defs/a"}}}
    for own in (tree, loop):
        with pytest.raises(schema.SchemaCompileError, match="recursive"):
            schema.compile_schemas([own])


@pytest.mark.parametrize("target", ["#/$defs/missing", "test:other",
                                    "#/type/string", "test:own#/items/0"])
def test_unresolvable_ref_fails_the_compiler(target):
    own = {"$id": "test:own", "type": "array", "items": {"$ref": target}}
    with pytest.raises(schema.SchemaCompileError, match="unresolvable"):
        schema.compile_schemas([own])


# text that would break generated source pasted in without repr
AWKWARD = ["it's", 'say "hi"', "back\\slash", "new\nline", "# no comment",
           "naïve", "\U0001d50alue", "'''", "\\'", "')\n    return True\n#",
           "\r\n", "\u2028", "~1/"]
AWKWARD_OWN = {
    "type": "object", "required": AWKWARD[:4],
    "properties": {name: {"const": name} for name in AWKWARD},
    "additionalProperties": {"$ref": "#/$defs/~01~1~0~1"},
    "$defs": {"~1/~/": {"enum": AWKWARD[3:]}},
}


@pytest.mark.parametrize("instance", [
    {name: name for name in AWKWARD},
    {name: name for name in AWKWARD[:4]},
    {name: name for name in AWKWARD[1:]},
    dict({name: name for name in AWKWARD[:4]}, **{"#": "naïve"}),
    dict({name: name for name in AWKWARD[:4]}, **{"#": "naive"}),
    dict({name: name for name in AWKWARD[:4]}, **{AWKWARD[5]: "naive"}),
    dict({name: name for name in AWKWARD[:4]}, **{AWKWARD[3]: "new line"}),
    dict({name: name for name in AWKWARD[:4]}, **{AWKWARD[6]: "𝔊"}),
    {name: AWKWARD[-1] for name in AWKWARD[:4]},
])
def test_awkward_names_and_values_agree_with_jsonschema(instance):
    own = dict(AWKWARD_OWN, **{"$schema": DRAFT, "$id": "test:own"})
    registry = Registry().with_resource(own["$id"],
                                        Resource.from_contents(own))
    checker = schema.compile_schemas([own])["test:own"]
    assert checker(instance) == oracle(instance, "test:own", registry)


def test_awkward_schema_id_stays_in_a_comment():
    awkward = "test:" + "".join(AWKWARD).replace("#", "")  # no fragment
    own = {"$id": awkward, "type": "array", "items": {"const": "a"}}
    checker = schema.compile_schemas([own])[awkward]
    assert checker(["a"]) and not checker(["b"]) and not checker({})


def _normal(line):
    """A generated line without indentation and with every variable
    renamed, so a block matches a copy of itself at another depth."""
    return re.sub(r"\b[xkv]\d*\b", "_", line.strip())


def test_generated_source_has_one_function_per_target():
    """The source is the same on every compile, with one function per $id,
    per $defs entry, per other $ref target and per oneOf branch, and no
    target's checks copied into another function."""
    again = schema.compile_schemas(schema.SCHEMAS)[ENVELOPE]
    assert again.__globals__["SOURCE"] == schema.SOURCE
    targets, branches, properties = set(), [], []

    def walk(node, base):
        if not isinstance(node, dict):
            return
        if isinstance(node.get("$ref"), str):
            uri, _, pointer = node["$ref"].partition("#")
            targets.add((uri or base) + "#" + pointer)
        properties.extend(node.get("properties", {}))
        branches.extend(node.get("oneOf", []))
        for sub in chain(node.get("properties", {}).values(),
                         node.get("$defs", {}).values(), node.get("oneOf", []),
                         [node.get("items"),
                          node.get("additionalProperties")]):
            walk(sub, base)

    for s in schema.SCHEMAS:
        targets.add(s["$id"] + "#")
        targets.update(s["$id"] + "#/$defs/" + name
                       for name in s.get("$defs", {}))
        walk(s, s["$id"])
    lines = schema.SOURCE.splitlines()
    defs = [n for n, line in enumerate(lines) if line.startswith("def ")]
    assert len(defs) == len(targets) + len(branches) == 23
    # one dispatch line per named property of the schema files
    dispatch = [line for line in lines
                if re.match(r"\s+(el)?if k\d+ == ", line)]
    assert len(dispatch) == len(properties)
    normal = [_normal(line) for line in lines]
    for start, end in zip(defs, defs[1:] + [len(lines) + 3]):
        body = normal[start + 1:end - 3]
        if len(body) > 1:
            assert body[-1] == "return True"
            body = body[:-1]
            hits = [n for n in range(len(normal))
                    if normal[n:n + len(body)] == body]
            assert hits == [start + 1], lines[start]


def test_shipped_keywords_are_the_implemented_set():
    used = set()

    def walk(node):
        used.update(node)
        for word in ("properties", "$defs"):
            for sub in node.get(word, {}).values():
                walk(sub)
        for word in ("items", "additionalProperties"):
            if isinstance(node.get(word), dict):
                walk(node[word])
        for sub in node.get("oneOf", []):
            walk(sub)

    for s in schema.SCHEMAS:
        walk(s)
    assert len(schema.SCHEMAS) == 8
    assert used - schema.IGNORED == schema.IMPLEMENTED


IMPORT_SCRIPT = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from glueforge import cli
from glueforge.errors import StructuralError
LAZY = ("jsonschema", "referencing")
assert not any(name in sys.modules for name in LAZY)
good = {"version": "1", "kind": "sink", "payload": {
    "ambient": "sets", "target": ["t"],
    "sources": [{"name": "s", "object": ["a"], "map": {"a": "t"}}]}}
cli.load_document(io.StringIO(json.dumps(good)))
assert not any(name in sys.modules for name in LAZY)
good["payload"]["ambient"] = "cones"
try:
    cli.load_document(io.StringIO(json.dumps(good)))
except StructuralError as err:
    assert "not one of" in str(err), err
else:
    raise AssertionError("accepted a bad ambient")
assert all(name in sys.modules for name in LAZY)
"""


def test_jsonschema_is_imported_only_to_word_a_rejection():
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
