"""Each malformed restriction, transition component, glue-map part and
gluing payload is refused on one stderr line, in the words and the order
the label-to-label maps of the engine used: the parsers read each mapping
straight into its table and word a failure as ``FinFn`` and ``FinSet``
would."""

import contextlib
import copy
import io
import json
import os
import sys
from itertools import product
from unittest import mock

import pytest

from glueforge import cli

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "golden")

PREFIX = "glueforge: structural error: "


def golden_doc(name):
    with open(os.path.join(CORPUS, name + ".json"), encoding="utf-8") as h:
        return json.load(h)


def at(doc, path):
    """The node of ``doc`` at ``path``, a list of keys."""
    for key in path:
        doc = doc[key]
    return doc


# where a mapping sits in each golden document: a restriction of
# check-sheaf, a transition component of glue-sheaves-broken and a part of
# glue-map, with one domain label of each and the section sets around it
MAPPINGS = {
    "restriction": ("check-sheaf", ["check-sheaf"],
                    ["payload", "presheaf", "restrictions", "p1,p0>p0"],
                    "p1=v0;p0=v1",
                    ["payload", "presheaf", "sections", "p0"]),
    "transition": ("glue-sheaves-broken", ["glue-sheaves"],
                   ["payload", "transitions", 0, "components", "p0"],
                   "p0=v1",
                   ["payload", "locals", "c0", "sections", "p0"]),
    "part": ("glue-map", ["glue-map"],
             ["payload", "glue_map", "parts", "c0", "p1"], "p1=v1",
             ["payload", "glue_map", "target", "sections", "p1"]),
}


def missing(mapping, label, sections):
    del mapping[label]


def extra(mapping, label, sections):
    mapping["zz"] = mapping[label]


def outside(mapping, label, sections):
    mapping[label] = "zz"


def unhashable(mapping, label, sections):
    mapping[label] = [mapping[label]]


def duplicate(mapping, label, sections):
    sections.append(sections[0])


# (kind, mutation, the stderr line after the prefix)
CASES = [
    ("restriction", missing,
     "no value assigned to domain label 'p1=v0;p0=v1'"),
    ("restriction", extra,
     "mapping assigns labels outside the domain: ['zz']"),
    ("restriction", outside,
     "value 'zz' of 'p1=v0;p0=v1' is not a codomain label"),
    ("restriction", unhashable,
     "schema violation at payload.presheaf.restrictions['p1,p0>p0']"
     "['p1=v0;p0=v1']: ['p0=v1'] is not of type 'string'"),
    ("restriction", duplicate, "duplicate label 'p0=v0'"),
    ("transition", missing, "no value assigned to domain label 'p0=v1'"),
    ("transition", extra, "mapping assigns labels outside the domain: ['zz']"),
    ("transition", outside, "value 'zz' of 'p0=v1' is not a codomain label"),
    ("transition", unhashable,
     "schema violation at payload.transitions[0].components.p0['p0=v1']: "
     "['p0=v1'] is not of type 'string'"),
    ("transition", duplicate, "duplicate label 'p0=v1'"),
    ("part", missing, "no value assigned to domain label 'p1=v1'"),
    ("part", extra, "mapping assigns labels outside the domain: ['zz']"),
    ("part", outside, "value 'zz' of 'p1=v1' is not a codomain label"),
    ("part", unhashable,
     "schema violation at payload.glue_map.parts.c0.p1['p1=v1']: "
     "['p1=v0'] is not of type 'string'"),
    ("part", duplicate, "duplicate label 'p1=v0'"),
]


def run(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind, mutation, expected", CASES,
                         ids=["%s-%s" % (kind, mutation.__name__)
                              for kind, mutation, _ in CASES])
def test_a_malformed_mapping_is_refused_as_before(kind, mutation, expected):
    name, argv, path, label, sections = MAPPINGS[kind]
    doc = copy.deepcopy(golden_doc(name))
    mutation(at(doc, path), label, at(doc, sections))
    assert run(argv, doc) == (2, "", PREFIX + expected + "\n")


def test_sections_are_refused_before_restrictions_and_both_before_gaps():
    # the open p1 loses its section set and the restrictions that name it,
    # so the store would refuse the gap; a bad restriction is named first
    doc = golden_doc("check-sheaf")
    presheaf = doc["payload"]["presheaf"]
    del presheaf["sections"]["p1"]
    for key in ("p1>", "p1,p0>p1"):
        del presheaf["restrictions"][key]
    assert run(["check-sheaf"], doc) == (
        2, "", PREFIX + "no section set at open ['p1']\n")
    presheaf["restrictions"]["p1,p0>p0"]["p1=v0;p0=v1"] = "zz"
    assert run(["check-sheaf"], doc) == (
        2, "", PREFIX + "value 'zz' of 'p1=v0;p0=v1' is not a codomain "
        "label\n")
    presheaf["sections"]["p0"].append("p0=v0")
    assert run(["check-sheaf"], doc) == (
        2, "", PREFIX + "duplicate label 'p0=v0'\n")
    # a missing restriction is named after the missing section set
    doc = golden_doc("check-sheaf")
    presheaf = doc["payload"]["presheaf"]
    del presheaf["restrictions"]["p1>"]
    assert run(["check-sheaf"], doc) == (
        2, "", PREFIX + "no restriction map from ['p1'] to []\n")
    del presheaf["sections"]["p0"]
    for key in ("p0>", "p1,p0>p0"):
        del presheaf["restrictions"][key]
    assert run(["check-sheaf"], doc) == (
        2, "", PREFIX + "no section set at open ['p0']\n")


def test_charts_that_miss_a_point_are_refused_by_both_chart_commands():
    # glue-sheaves: chart c1 was the only chart on p1
    doc = golden_doc("glue-sheaves")
    payload = doc["payload"]
    payload["charts"] = [c for c in payload["charts"] if c["name"] != "c1"]
    del payload["locals"]["c1"]
    payload["transitions"] = []
    assert run(["glue-sheaves"], doc) == (
        2, "", PREFIX + "charts do not cover the space\n")
    # glue-map: the one chart shrinks to p1, and its part to the opens
    # inside p1
    doc = golden_doc("glue-map")
    glue_map = doc["payload"]["glue_map"]
    glue_map["charts"][0]["members"] = ["p1"]
    part = glue_map["parts"]["c0"]
    glue_map["parts"]["c0"] = {key: part[key] for key in ("", "p1")}
    assert run(["glue-map"], doc) == (
        2, "", PREFIX + "charts do not cover the space\n")


# Gluing payloads: each mapping of an edge or a swap, each objects key and
# arrow pair, the repeated entries and the validation of the data, in each
# mode, ambient and direction.  The lines were recorded before the parser
# read its maps into position tables; a case with two faults pins which of
# them is named first.  Since then an arrow pair naming a label outside the
# index is refused by that label in split mode too, and a swap in nonsplit
# data by the mode.


def obj(points, ambient):
    """A set's labels, or the discrete space on them."""
    if ambient == "sets":
        return list(points)
    opens = [[]] + [[p] for p in points] + ([list(points)] if len(points) > 1
                                           else [])
    return {"points": list(points), "opens": opens}


def gluing_doc(mode, ambient, direction):
    """Two two-point components glued along a two-point overlap by the
    edges from "1" and from "2" (arrows 0 and 1), with the identity swap as
    arrow 2 in split mode; valid as built."""
    toward = direction == "toward-overlaps"
    other = "1,2" if mode == "nonsplit" else "2,1"
    objects = {"1": obj(["a0", "a1"], ambient),
               "2": obj(["b0", "b1"], ambient),
               "1,2": obj(["u0", "u1"], ambient)}
    if mode == "split":
        objects["2,1"] = obj(["u0", "u1"], ambient)

    def edge(i, pair, pairs):
        if toward:
            pairs = [(y, x) for x, y in pairs]
        return {"kind": "edge", "from": i, "pair": pair, "map": dict(pairs)}

    arrows = [edge("1", "1,2", [("u0", "a0"), ("u1", "a1")]),
              edge("2", other, [("u0", "b1"), ("u1", "b0")])]
    if mode == "split":
        arrows.append({"kind": "tau", "pair": "1,2",
                       "map": {"u0": "u0", "u1": "u1"}})
    return {"version": "1", "kind": "gluing", "payload": {
        "mode": mode, "ambient": ambient, "direction": direction,
        "index": ["1", "2"], "objects": objects, "arrows": arrows}}


def first_map(payload):
    return payload["arrows"][0]["map"]


def no_value(payload):
    del first_map(payload)[next(iter(first_map(payload)))]


def value_outside(payload):
    m = first_map(payload)
    m[next(iter(m))] = "zz"


def extra_key(payload):
    first_map(payload)["zz"] = next(iter(first_map(payload).values()))


def unhashable_value(payload):
    m = first_map(payload)
    key = next(iter(m))
    m[key] = [m[key]]


def unknown_object_key(payload):
    payload["objects"]["9"] = payload["objects"]["1"]


def diagonal_object_key(payload):
    payload["objects"]["1,1"] = payload["objects"]["1"]


def diagonal_arrow_pair(payload):
    payload["arrows"][0]["pair"] = "1,1"


def three_part_object_key(payload):
    payload["objects"]["1,2,1"] = payload["objects"]["1"]


def three_part_arrow_pair(payload):
    payload["arrows"][0]["pair"] = "1,2,1"


def unknown_arrow_pair(payload):
    payload["arrows"][0]["pair"] = "1,9"


def repeated_edge(payload):
    payload["arrows"].append(dict(payload["arrows"][0]))


def reversed_object_key(payload):
    payload["objects"]["2,1"] = payload["objects"]["1,2"]


def missing_object(payload):
    del payload["objects"]["1,2"]


def missing_edge(payload):
    del payload["arrows"][1]


def edge_source_outside(payload):
    payload["arrows"][0]["from"] = "9"


def tau_not_inverse(payload):
    payload["arrows"].append({"kind": "tau", "pair": "2,1",
                              "map": {"u0": "u1", "u1": "u0"}})


def tau_inverse(payload):
    payload["arrows"].append({"kind": "tau", "pair": "2,1",
                              "map": {"u0": "u0", "u1": "u1"}})


def tau_not_bijective(payload):
    payload["arrows"].append({"kind": "tau", "pair": "2,1",
                              "map": {"u0": "u0", "u1": "u0"}})
    if payload["mode"] == "split":
        del payload["arrows"][2]


def tau_twice(payload):
    payload["arrows"].append(dict(payload["arrows"][-1]))


def tau_in_nonsplit(payload):
    payload["arrows"].append({"kind": "tau", "pair": "1,2",
                              "map": {"u0": "u0", "u1": "u1"}})


def not_continuous(payload):
    # the first edge's source becomes indiscrete: it maps two points apart
    source = "1" if payload["direction"] == "toward-overlaps" else "1,2"
    payload["objects"][source]["opens"] = [[], payload["objects"][source]
                                           ["points"]]


def missing_value_and_extra_key(payload):
    extra_key(payload)
    no_value(payload)


def bad_map_and_unknown_object_key(payload):
    value_outside(payload)
    unknown_object_key(payload)


def two_bad_maps(payload):
    payload["arrows"][1]["map"]["zz"] = "zz"
    value_outside(payload)


def bad_map_after_repeated_edge(payload):
    repeated_edge(payload)
    m = payload["arrows"][-1]["map"] = dict(first_map(payload))
    m[next(iter(m))] = "zz"


def not_continuous_and_missing_edge(payload):
    not_continuous(payload)
    missing_edge(payload)


def tau_not_inverse_and_not_continuous(payload):
    not_continuous(payload)
    tau_not_inverse(payload)


GLUING_MUTATIONS = [
    no_value, value_outside, extra_key, unhashable_value, unknown_object_key,
    diagonal_object_key, diagonal_arrow_pair, three_part_object_key,
    three_part_arrow_pair, unknown_arrow_pair, repeated_edge,
    reversed_object_key, missing_object, missing_edge, edge_source_outside,
    tau_not_inverse, tau_inverse, tau_not_bijective, tau_twice,
    tau_in_nonsplit, not_continuous, missing_value_and_extra_key,
    bad_map_and_unknown_object_key, two_bad_maps, bad_map_after_repeated_edge,
    not_continuous_and_missing_edge, tau_not_inverse_and_not_continuous,
]

SPLIT_ONLY = {tau_not_inverse, tau_inverse, tau_twice,
              tau_not_inverse_and_not_continuous}
NONSPLIT_ONLY = {tau_in_nonsplit, reversed_object_key}
TOP_ONLY = {not_continuous, not_continuous_and_missing_edge,
            tau_not_inverse_and_not_continuous}


MODES = ("nonsplit", "split")
AMBIENTS = ("sets", "top")
FROM = ("from-overlaps",)
TOWARD = ("toward-overlaps",)
DIRECTIONS = FROM + TOWARD


def gluing_variants():
    for mode in ("nonsplit", "split"):
        for ambient in ("sets", "top"):
            for direction in ("from-overlaps", "toward-overlaps"):
                for mutation in GLUING_MUTATIONS:
                    if mutation in (SPLIT_ONLY if mode == "nonsplit"
                                    else NONSPLIT_ONLY):
                        continue
                    if ambient == "sets" and mutation in TOP_ONLY:
                        continue
                    yield mode, ambient, direction, mutation


# (mutation, modes, ambients, directions, the stderr line after the prefix,
# or None where the payload stays valid)
GLUING_CASES = [
    (no_value, MODES, AMBIENTS, FROM,
     "no value assigned to domain label 'u0'"),
    (no_value, MODES, AMBIENTS, TOWARD,
     "no value assigned to domain label 'a0'"),
    (value_outside, MODES, AMBIENTS, FROM,
     "value 'zz' of 'u0' is not a codomain label"),
    (value_outside, MODES, AMBIENTS, TOWARD,
     "value 'zz' of 'a0' is not a codomain label"),
    (extra_key, MODES, AMBIENTS, DIRECTIONS,
     "mapping assigns labels outside the domain: ['zz']"),
    (unhashable_value, MODES, AMBIENTS, FROM,
     "schema violation at payload.arrows[0]: {'kind': 'edge', 'from': '1', "
     "'pair': '1,2', 'map': {'u0': ['a0'], 'u1': 'a1'}} is not valid under "
     "any of the given schemas"),
    (unhashable_value, MODES, AMBIENTS, TOWARD,
     "schema violation at payload.arrows[0]: {'kind': 'edge', 'from': '1', "
     "'pair': '1,2', 'map': {'a0': ['u0'], 'a1': 'u1'}} is not valid under "
     "any of the given schemas"),
    (unknown_object_key, MODES, AMBIENTS, DIRECTIONS,
     "objects entry '9' names no index object"),
    (diagonal_object_key, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "nonsplit pairs need distinct indices"),
    (diagonal_object_key, ("split",), AMBIENTS, DIRECTIONS,
     "invalid gluing data: generator ('incl', '1', ('1', '1')) has no "
     "arrow"),
    (diagonal_arrow_pair, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "nonsplit pairs need distinct indices"),
    (diagonal_arrow_pair, ("split",), AMBIENTS, DIRECTIONS,
     "arrow needs an objects entry for '1,1'"),
    (three_part_object_key, MODES, AMBIENTS, DIRECTIONS,
     "bad index object key '1,2,1'"),
    (three_part_arrow_pair, MODES, AMBIENTS, DIRECTIONS,
     "bad index object key '1,2,1'"),
    (unknown_arrow_pair, MODES, AMBIENTS, DIRECTIONS,
     "label '9' not in carrier ('1', '2')"),
    (repeated_edge, MODES, AMBIENTS, DIRECTIONS,
     "edge from '1' to pair '1,2' is given twice"),
    (reversed_object_key, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "objects entries '1,2' and '2,1' name the same index object"),
    (missing_object, MODES, AMBIENTS, DIRECTIONS,
     "arrow needs an objects entry for '1,2'"),
    (missing_edge, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "invalid gluing data: generator ('incl', '2', ('1', '2')) has no arrow"),
    (missing_edge, ("split",), AMBIENTS, DIRECTIONS,
     "invalid gluing data: generator ('incl', '2', ('2', '1')) has no arrow"),
    (edge_source_outside, MODES, AMBIENTS, DIRECTIONS,
     "edge source '9' not in pair '1,2'"),
    (tau_not_inverse, ("split",), AMBIENTS, DIRECTIONS,
     "tau for pair '2,1' is not the inverse of the tau for pair '1,2'"),
    (tau_inverse, ("split",), AMBIENTS, DIRECTIONS,
     None),
    (tau_not_bijective, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "tau for pair '2,1': swap arrows exist only in split mode"),
    (tau_not_bijective, ("split",), AMBIENTS, DIRECTIONS,
     "only bijections can be inverted"),
    (tau_twice, ("split",), AMBIENTS, DIRECTIONS,
     "tau for pair '1,2' is given twice"),
    (tau_in_nonsplit, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "tau for pair '1,2': swap arrows exist only in split mode"),
    (not_continuous, ("nonsplit",), ("top",), FROM,
     "invalid gluing data: arrow for ('incl', '1', ('1', '2')) is not "
     "continuous; arrow for ('incl', '2', ('1', '2')) is not continuous"),
    (not_continuous, MODES, ("top",), TOWARD,
     "invalid gluing data: arrow for ('incl', '1', ('1', '2')) is not "
     "continuous"),
    (not_continuous, ("split",), ("top",), FROM,
     "invalid gluing data: arrow for ('incl', '1', ('1', '2')) is not "
     "continuous; arrow for ('tau', ('2', '1')) is not continuous"),
    (missing_value_and_extra_key, MODES, AMBIENTS, FROM,
     "no value assigned to domain label 'u0'"),
    (missing_value_and_extra_key, MODES, AMBIENTS, TOWARD,
     "no value assigned to domain label 'a0'"),
    (bad_map_and_unknown_object_key, MODES, AMBIENTS, DIRECTIONS,
     "objects entry '9' names no index object"),
    (two_bad_maps, MODES, AMBIENTS, FROM,
     "value 'zz' of 'u0' is not a codomain label"),
    (two_bad_maps, MODES, AMBIENTS, TOWARD,
     "value 'zz' of 'a0' is not a codomain label"),
    (bad_map_after_repeated_edge, MODES, AMBIENTS, DIRECTIONS,
     "edge from '1' to pair '1,2' is given twice"),
    (not_continuous_and_missing_edge, ("nonsplit",), ("top",), DIRECTIONS,
     "invalid gluing data: generator ('incl', '2', ('1', '2')) has no arrow"),
    (not_continuous_and_missing_edge, ("split",), ("top",), DIRECTIONS,
     "invalid gluing data: generator ('incl', '2', ('2', '1')) has no arrow"),
    (tau_not_inverse_and_not_continuous, ("split",), ("top",), DIRECTIONS,
     "tau for pair '2,1' is not the inverse of the tau for pair '1,2'"),
]


def expected_lines():
    """The expected line of each (mode, ambient, direction) and mutation."""
    lines = {}
    for mutation, modes, ambients, directions, line in GLUING_CASES:
        for variant in product(modes, ambients, directions):
            assert (variant, mutation) not in lines
            lines[(variant, mutation)] = line
    return lines


def test_every_gluing_variant_has_one_expected_line():
    assert set(expected_lines()) == {
        ((mode, ambient, direction), mutation)
        for mode, ambient, direction, mutation in gluing_variants()}
    for mode, ambient, direction in product(MODES, AMBIENTS, DIRECTIONS):
        assert run(["glue"], gluing_doc(mode, ambient, direction))[::2] \
            == (0, "")


@pytest.mark.parametrize(
    "variant, mutation, expected",
    [(variant, mutation, line)
     for (variant, mutation), line in expected_lines().items()],
    ids=["-".join(variant + (mutation.__name__,))
         for variant, mutation in expected_lines()])
def test_a_malformed_gluing_payload_is_refused_as_before(variant, mutation,
                                                          expected):
    doc = gluing_doc(*variant)
    mutation(doc["payload"])
    if expected is None:
        assert run(["glue"], doc)[::2] == (0, "")
    else:
        assert run(["glue"], doc) == (2, "", PREFIX + expected + "\n")


# Sink, site and refinement payloads: each map of a sink source, a test, an
# inner sink, a covering, a site morphism and a refinement, the names and
# keys around them, in each ambient.  The lines were recorded before the
# parsers read these maps into position tables; a case with two faults pins
# which of them is named first.


def sink_body(ambient, target, sources):
    """A ``{target, sources}`` node: ``sources`` lists ``(name, points,
    map)``, each source discrete in the top ambient."""
    return {"target": obj(target, ambient),
            "sources": [{"name": name, "object": obj(points, ambient),
                         "map": dict(mapping)}
                        for name, points, mapping in sources]}


def sink_doc(ambient):
    """A two-point target covered by ``a`` (two points, one onto each) and
    ``b`` (one point onto t0), a test map from two points onto the target,
    and an identity inner sink over each source; valid as built, and
    effective."""
    payload = sink_body(ambient, ["t0", "t1"], [
        ("a", ["a0", "a1"], [("a0", "t0"), ("a1", "t1")]),
        ("b", ["b0"], [("b0", "t0")])])
    payload["ambient"] = ambient
    payload["tests"] = [{"object": obj(["v0", "v1"], ambient),
                         "map": {"v0": "t0", "v1": "t1"}}]
    payload["inner"] = {
        "a": sink_body(ambient, ["a0", "a1"], [
            ("h", ["a0", "a1"], [("a0", "a0"), ("a1", "a1")])]),
        "b": sink_body(ambient, ["b0"], [("h", ["b0"], [("b0", "b0")])])}
    return {"version": "1", "kind": "sink", "payload": payload}


def site_doc(ambient):
    """Two coverings of a two-point target, by ``a`` as in ``sink_doc``
    and by the identity, with the identity of the target and a map from
    one point onto t0 as morphisms; valid as built."""
    payload = {"ambient": ambient, "coverings": [
        sink_body(ambient, ["t0", "t1"], [
            ("a", ["a0", "a1"], [("a0", "t0"), ("a1", "t1")])]),
        sink_body(ambient, ["t0", "t1"], [
            ("id", ["t0", "t1"], [("t0", "t0"), ("t1", "t1")])])],
        "morphisms": [
            {"dom": obj(["t0", "t1"], ambient),
             "cod": obj(["t0", "t1"], ambient),
             "map": {"t0": "t0", "t1": "t1"}},
            {"dom": obj(["s0"], ambient), "cod": obj(["t0", "t1"], ambient),
             "map": {"s0": "t0"}}]}
    return {"version": "1", "kind": "site", "payload": payload}


def refinement_doc(ambient, direction):
    """The gluing of ``gluing_doc`` refined by itself along the identity
    of its index, with identity components; valid as built."""
    data = gluing_doc("nonsplit", ambient, direction)["payload"]
    ident = {key: {p: p for p in (node if ambient == "sets"
                                  else node["points"])}
             for key, node in data["objects"].items()}
    return {"version": "1", "kind": "refinement", "payload": {
        "source": data, "target": copy.deepcopy(data),
        "gamma": {"1": "1", "2": "2"}, "components": ident}}


def indiscrete(node):
    """Make a top object node indiscrete."""
    node["opens"] = [[], list(node["points"])]


def source_map(payload, k=0):
    return payload["sources"][k]["map"]


def sink_source_no_value(payload):
    del source_map(payload)["a0"]


def sink_source_value_outside(payload):
    source_map(payload)["a0"] = "zz"


def sink_source_extra_key(payload):
    source_map(payload)["zz"] = "t0"


def sink_source_unhashable(payload):
    source_map(payload)["a0"] = ["t0"]


def sink_source_not_continuous(payload):
    indiscrete(payload["sources"][0]["object"])


def sink_duplicate_names(payload):
    payload["sources"][1]["name"] = "a"


def sink_test_no_value(payload):
    del payload["tests"][0]["map"]["v0"]


def sink_test_into_another_target(payload):
    # the test names the points of source a, not of the target
    payload["tests"][0]["map"] = {"v0": "a0", "v1": "a1"}


def sink_test_extra_key(payload):
    payload["tests"][0]["map"]["zz"] = "t0"


def sink_test_not_continuous(payload):
    indiscrete(payload["tests"][0]["object"])


def sink_inner_value_outside(payload):
    source_map(payload["inner"]["a"])["a0"] = "zz"


def sink_inner_over_wrong_source(payload):
    payload["inner"]["a"] = copy.deepcopy(payload["inner"]["b"])


def sink_inner_other_topology(payload):
    indiscrete(payload["inner"]["a"]["target"])
    indiscrete(payload["inner"]["a"]["sources"][0]["object"])


def sink_inner_missing(payload):
    del payload["inner"]["b"]


def sink_inner_duplicate_names(payload):
    inner = payload["inner"]["a"]
    inner["sources"].append(copy.deepcopy(inner["sources"][0]))


def sink_inner_names_collide(payload):
    # a.h.x and a.h then .x: composite names made of dotted names collide
    inner = payload["inner"]
    inner["a"]["sources"][0]["name"] = "h.x"
    inner["a"]["sources"].append({"name": "h", "object": copy.deepcopy(
        inner["a"]["sources"][0]["object"]), "map": {"a0": "a0", "a1": "a1"}})
    payload["sources"][0]["name"] = "a"
    payload["sources"][1]["name"] = "a.h"
    inner["a.h"] = sink_body(payload["ambient"], ["b0"], [
        ("x", ["b0"], [("b0", "b0")])])
    del inner["b"]


def sink_duplicate_names_then_bad_map(payload):
    sink_duplicate_names(payload)
    source_map(payload, 1)["b0"] = "zz"


def sink_not_continuous_then_bad_map(payload):
    sink_source_not_continuous(payload)
    source_map(payload, 1)["b0"] = "zz"


def sink_duplicate_names_and_not_continuous(payload):
    payload["sources"][1] = copy.deepcopy(payload["sources"][0])
    indiscrete(payload["sources"][1]["object"])


def sink_bad_test_and_bad_inner(payload):
    sink_test_no_value(payload)
    sink_inner_value_outside(payload)


def sink_bad_source_and_bad_test(payload):
    sink_test_no_value(payload)
    sink_source_extra_key(payload)


def site_covering_no_value(payload):
    del source_map(payload["coverings"][0])["a0"]


def site_covering_value_outside(payload):
    source_map(payload["coverings"][0])["a0"] = "zz"


def site_covering_extra_key(payload):
    source_map(payload["coverings"][0])["zz"] = "t0"


def site_covering_unhashable(payload):
    source_map(payload["coverings"][0])["a0"] = ["t0"]


def site_covering_not_continuous(payload):
    indiscrete(payload["coverings"][0]["sources"][0]["object"])


def site_covering_duplicate_names(payload):
    sources = payload["coverings"][1]["sources"]
    sources.append(copy.deepcopy(sources[0]))


def site_morphism_no_value(payload):
    del payload["morphisms"][0]["map"]["t0"]


def site_morphism_value_outside(payload):
    payload["morphisms"][1]["map"]["s0"] = "zz"


def site_morphism_extra_key(payload):
    payload["morphisms"][1]["map"]["zz"] = "t0"


def site_morphism_unhashable(payload):
    payload["morphisms"][1]["map"]["s0"] = ["t0"]


def site_morphism_not_continuous(payload):
    indiscrete(payload["morphisms"][0]["dom"])


def site_not_continuous_then_bad_covering(payload):
    site_covering_not_continuous(payload)
    source_map(payload["coverings"][1])["t0"] = "zz"


def site_bad_covering_then_bad_morphism(payload):
    site_morphism_not_continuous(payload)
    site_morphism_value_outside(payload)
    source_map(payload["coverings"][1])["t0"] = "zz"


def site_morphism_not_continuous_then_bad_map(payload):
    site_morphism_not_continuous(payload)
    site_morphism_value_outside(payload)


def refine_gamma_no_value(payload):
    del payload["gamma"]["2"]


def refine_gamma_outside(payload):
    payload["gamma"]["2"] = "9"


def refine_gamma_extra_key(payload):
    payload["gamma"]["9"] = "1"


def refine_gamma_unhashable(payload):
    payload["gamma"]["2"] = ["2"]


def refine_gamma_not_injective(payload):
    payload["gamma"]["2"] = "1"


def refine_component_unknown_key(payload):
    payload["components"]["9"] = payload["components"]["1"]


def refine_component_unknown_pair(payload):
    payload["components"]["1,9"] = payload["components"]["1,2"]


def refine_component_three_parts(payload):
    payload["components"]["1,2,1"] = payload["components"]["1,2"]


def refine_component_respelled(payload):
    payload["components"]["2,1"] = payload["components"]["1,2"]


def refine_component_missing(payload):
    del payload["components"]["1,2"]


def refine_component_no_value(payload):
    comp = payload["components"]["1"]
    del comp[next(iter(comp))]


def refine_component_outside(payload):
    comp = payload["components"]["1"]
    comp[next(iter(comp))] = "zz"


def refine_component_extra_key(payload):
    payload["components"]["1"]["zz"] = "a0"


def refine_component_not_natural(payload):
    comp = payload["components"]["1"]
    comp["a0"], comp["a1"] = "a1", "a0"


def refine_bad_gamma_and_bad_component(payload):
    refine_gamma_outside(payload)
    refine_component_outside(payload)


def refine_unknown_key_and_bad_component(payload):
    refine_component_outside(payload)
    refine_component_unknown_key(payload)


SETS_AND_TOP = ("sets", "top")
TOP = ("top",)

# (document, command, mutation, ambients, the stderr line after the prefix,
# or the exit code where the payload stays valid)
SINK_CASES = [
    ("sink", "check-cover", sink_source_no_value, SETS_AND_TOP,
     "no value assigned to domain label 'a0'"),
    ("sink", "check-cover", sink_source_value_outside, SETS_AND_TOP,
     "value 'zz' of 'a0' is not a codomain label"),
    ("sink", "check-cover", sink_source_extra_key, SETS_AND_TOP,
     "mapping assigns labels outside the domain: ['zz']"),
    ("sink", "check-cover", sink_source_unhashable, SETS_AND_TOP,
     "schema violation at payload.sources[0].map.a0: ['t0'] is not of "
     "type 'string'"),
    ("sink", "check-cover", sink_source_not_continuous, TOP,
     "map is not continuous at 'a0'"),
    ("sink", "check-cover", sink_duplicate_names, SETS_AND_TOP,
     "duplicate source name 'a'"),
    ("sink", "check-cover", sink_test_no_value, SETS_AND_TOP,
     "no value assigned to domain label 'v0'"),
    ("sink", "check-cover", sink_test_into_another_target, SETS_AND_TOP,
     "value 'a0' of 'v0' is not a codomain label"),
    ("sink", "check-cover", sink_test_extra_key, SETS_AND_TOP,
     "mapping assigns labels outside the domain: ['zz']"),
    ("sink", "check-cover", sink_test_not_continuous, TOP,
     "map is not continuous at 'v0'"),
    ("sink", "check-cover", sink_inner_value_outside, SETS_AND_TOP,
     "value 'zz' of 'a0' is not a codomain label"),
    ("sink", "check-cover", sink_inner_over_wrong_source, SETS_AND_TOP,
     0),
    ("sink", "compose", sink_source_no_value, SETS_AND_TOP,
     "no value assigned to domain label 'a0'"),
    ("sink", "compose", sink_source_not_continuous, TOP,
     "map is not continuous at 'a0'"),
    ("sink", "compose", sink_duplicate_names, SETS_AND_TOP,
     "duplicate source name 'a'"),
    ("sink", "compose", sink_test_into_another_target, SETS_AND_TOP,
     "value 'a0' of 'v0' is not a codomain label"),
    ("sink", "compose", sink_test_not_continuous, TOP,
     "map is not continuous at 'v0'"),
    ("sink", "compose", sink_inner_value_outside, SETS_AND_TOP,
     "value 'zz' of 'a0' is not a codomain label"),
    ("sink", "compose", sink_inner_over_wrong_source, SETS_AND_TOP,
     "inner sink for 'a' does not target that source"),
    ("sink", "compose", sink_inner_other_topology, TOP,
     "inner sink for 'a' carries a different topology"),
    ("sink", "compose", sink_inner_missing, SETS_AND_TOP,
     "no inner sink for source 'b'"),
    ("sink", "compose", sink_inner_duplicate_names, SETS_AND_TOP,
     "duplicate source name 'h'"),
    ("sink", "compose", sink_inner_names_collide, SETS_AND_TOP,
     "duplicate source name 'a.h.x'"),
    ("sink", "check-cover", sink_duplicate_names_then_bad_map, SETS_AND_TOP,
     "value 'zz' of 'b0' is not a codomain label"),
    ("sink", "check-cover", sink_not_continuous_then_bad_map, TOP,
     "value 'zz' of 'b0' is not a codomain label"),
    ("sink", "check-cover", sink_duplicate_names_and_not_continuous, TOP,
     "duplicate source name 'a'"),
    ("sink", "check-cover", sink_bad_test_and_bad_inner, SETS_AND_TOP,
     "no value assigned to domain label 'v0'"),
    ("sink", "check-cover", sink_bad_source_and_bad_test, SETS_AND_TOP,
     "mapping assigns labels outside the domain: ['zz']"),
    ("site", "check-site", site_covering_no_value, SETS_AND_TOP,
     "no value assigned to domain label 'a0'"),
    ("site", "check-site", site_covering_value_outside, SETS_AND_TOP,
     "value 'zz' of 'a0' is not a codomain label"),
    ("site", "check-site", site_covering_extra_key, SETS_AND_TOP,
     "mapping assigns labels outside the domain: ['zz']"),
    ("site", "check-site", site_covering_unhashable, SETS_AND_TOP,
     "schema violation at payload.coverings[0].sources[0].map.a0: ['t0'] "
     "is not of type 'string'"),
    ("site", "check-site", site_covering_not_continuous, TOP,
     "map is not continuous at 'a0'"),
    ("site", "check-site", site_covering_duplicate_names, SETS_AND_TOP,
     "duplicate source name 'id'"),
    ("site", "check-site", site_morphism_no_value, SETS_AND_TOP,
     "no value assigned to domain label 't0'"),
    ("site", "check-site", site_morphism_value_outside, SETS_AND_TOP,
     "value 'zz' of 's0' is not a codomain label"),
    ("site", "check-site", site_morphism_extra_key, SETS_AND_TOP,
     "mapping assigns labels outside the domain: ['zz']"),
    ("site", "check-site", site_morphism_unhashable, SETS_AND_TOP,
     "schema violation at payload.morphisms[1].map.s0: ['t0'] is not of "
     "type 'string'"),
    ("site", "check-site", site_morphism_not_continuous, TOP,
     "map is not continuous at 't0'"),
    ("site", "check-site", site_not_continuous_then_bad_covering, TOP,
     "map is not continuous at 'a0'"),
    ("site", "check-site", site_bad_covering_then_bad_morphism, TOP,
     "value 'zz' of 't0' is not a codomain label"),
    ("site", "check-site", site_morphism_not_continuous_then_bad_map, TOP,
     "map is not continuous at 't0'"),
]

# (mutation, the stderr line after the prefix, or the exit code), the same
# in each ambient and direction
REFINE_CASES = [
    (refine_gamma_no_value,
     "no value assigned to domain label '2'"),
    (refine_gamma_outside,
     "value '9' of '2' is not a codomain label"),
    (refine_gamma_extra_key,
     "mapping assigns labels outside the domain: ['9']"),
    (refine_gamma_unhashable,
     "schema violation at payload.gamma['2']: ['2'] is not of type 'string'"),
    (refine_gamma_not_injective,
     "no value assigned to domain label 'a0'"),
    (refine_component_unknown_key,
     "label '9' not in domain"),
    (refine_component_unknown_pair,
     "label '9' not in carrier ('1', '2')"),
    (refine_component_three_parts,
     "bad index object key '1,2,1'"),
    (refine_component_respelled,
     "components entries '1,2' and '2,1' name the same index object"),
    (refine_component_missing,
     1),
    (refine_component_no_value,
     "no value assigned to domain label 'a0'"),
    (refine_component_outside,
     "value 'zz' of 'a0' is not a codomain label"),
    (refine_component_extra_key,
     "mapping assigns labels outside the domain: ['zz']"),
    (refine_component_not_natural,
     1),
    (refine_bad_gamma_and_bad_component,
     "value '9' of '2' is not a codomain label"),
    (refine_unknown_key_and_bad_component,
     "value 'zz' of 'a0' is not a codomain label"),
]


def expect(code, out, err, expected):
    """Whether a run refused with the line ``expected`` or, where that is
    an exit code, ended with it and wrote no error."""
    if isinstance(expected, int):
        return code == expected and err == ""
    return (code, out, err) == (2, "", PREFIX + expected + "\n")


def test_the_sink_site_and_refinement_documents_are_valid():
    for ambient in AMBIENTS:
        doc = sink_doc(ambient)
        assert run(["check-cover"], doc)[::2] == (0, "")
        assert run(["compose"], doc)[::2] == (0, "")
        # read and checked: the declared fragment misses some axioms
        assert run(["check-site"], site_doc(ambient))[::2] == (1, "")
        for direction in DIRECTIONS:
            assert run(["refine"], refinement_doc(ambient, direction))[::2] \
                == (0, "")


@pytest.mark.parametrize(
    "kind, argv, mutation, ambient, expected",
    [(kind, argv, mutation, ambient, line)
     for kind, argv, mutation, ambients, line in SINK_CASES
     for ambient in ambients],
    ids=["%s-%s-%s" % (argv, mutation.__name__, ambient)
         for _, argv, mutation, ambients, _ in SINK_CASES
         for ambient in ambients])
def test_a_malformed_sink_or_site_payload_is_refused_as_before(
        kind, argv, mutation, ambient, expected):
    doc = sink_doc(ambient) if kind == "sink" else site_doc(ambient)
    mutation(doc["payload"])
    assert expect(*run([argv], doc), expected)


@pytest.mark.parametrize(
    "mutation, ambient, direction, expected",
    [(mutation, ambient, direction, line)
     for mutation, line in REFINE_CASES
     for ambient, direction in product(AMBIENTS, DIRECTIONS)],
    ids=["%s-%s-%s" % (mutation.__name__, ambient, direction)
         for mutation, _ in REFINE_CASES
         for ambient, direction in product(AMBIENTS, DIRECTIONS)])
def test_a_malformed_refinement_payload_is_refused_as_before(
        mutation, ambient, direction, expected):
    doc = refinement_doc(ambient, direction)
    mutation(doc["payload"])
    assert expect(*run(["refine"], doc), expected)


# The delta of a colimit ``glue`` document: a map from a further object
# into one component, composed with that component's leg.  The lines were
# recorded while the delta was read into a checked label-to-label map.
def delta_doc(mode, ambient):
    """``gluing_doc`` on the colimit side with a delta from two points
    onto component "1"; valid as built, and glued up."""
    doc = gluing_doc(mode, ambient, "from-overlaps")
    doc["payload"]["delta"] = {"component": "1",
                               "object": obj(["d0", "d1"], ambient),
                               "map": {"d0": "a0", "d1": "a1"}}
    return doc


def delta_no_value(payload):
    del payload["delta"]["map"]["d0"]


def delta_value_outside(payload):
    # a label of the other component
    payload["delta"]["map"]["d0"] = "b0"


def delta_extra_key(payload):
    payload["delta"]["map"]["zz"] = "a0"


def delta_unhashable(payload):
    payload["delta"]["map"]["d0"] = ["a0"]


def delta_unknown_component(payload):
    payload["delta"]["component"] = "9"


def delta_pair_component(payload):
    payload["delta"]["component"] = "1,2"


def delta_not_continuous(payload):
    # d0 and d1 go to two apex points of a discrete apex
    indiscrete(payload["delta"]["object"])


def delta_unknown_component_and_bad_map(payload):
    delta_unknown_component(payload)
    delta_value_outside(payload)


def delta_not_continuous_and_bad_map(payload):
    delta_not_continuous(payload)
    delta_extra_key(payload)


# (mutation, ambients, the stderr line after the prefix), the same in each
# mode
DELTA_CASES = [
    (delta_no_value, SETS_AND_TOP,
     "no value assigned to domain label 'd0'"),
    (delta_value_outside, SETS_AND_TOP,
     "value 'b0' of 'd0' is not a codomain label"),
    (delta_extra_key, SETS_AND_TOP,
     "mapping assigns labels outside the domain: ['zz']"),
    (delta_unhashable, SETS_AND_TOP,
     "schema violation at payload.delta.map.d0: ['a0'] is not of type "
     "'string'"),
    (delta_unknown_component, SETS_AND_TOP,
     "delta component '9' is not an index element"),
    (delta_pair_component, SETS_AND_TOP,
     "delta component '1,2' is not an index element"),
    (delta_not_continuous, TOP,
     "map is not continuous at 'd0'"),
    (delta_unknown_component_and_bad_map, SETS_AND_TOP,
     "delta component '9' is not an index element"),
    (delta_not_continuous_and_bad_map, TOP,
     "mapping assigns labels outside the domain: ['zz']"),
]


def test_the_delta_documents_are_valid_and_glued_up():
    for mode, ambient in product(MODES, AMBIENTS):
        code, out, err = run(["glue"], delta_doc(mode, ambient))
        assert (code, err) == (0, "")
        assert json.loads(out)["verdicts"] == {"universal_glued": True}


@pytest.mark.parametrize(
    "mutation, mode, ambient, expected",
    [(mutation, mode, ambient, line)
     for mutation, ambients, line in DELTA_CASES
     for mode in MODES for ambient in ambients],
    ids=["%s-%s-%s" % (mutation.__name__, mode, ambient)
         for mutation, ambients, _ in DELTA_CASES
         for mode in MODES for ambient in ambients])
def test_a_malformed_delta_is_refused_as_before(mutation, mode, ambient,
                                                expected):
    doc = delta_doc(mode, ambient)
    mutation(doc["payload"])
    assert expect(*run(["glue"], doc), expected)
