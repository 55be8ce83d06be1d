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


# Gluing payloads: each mapping of an edge or a swap, each objects key and
# arrow pair, the repeated entries and the validation of the data, in each
# mode, ambient and direction.  The lines were recorded before the parser
# read its maps into position tables; a case with two faults pins which of
# them is named first.


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
    (unknown_arrow_pair, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "label '9' not in carrier ('1', '2')"),
    (unknown_arrow_pair, ("split",), AMBIENTS, DIRECTIONS,
     "arrow needs an objects entry for '1,9'"),
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
     "tau needs both pair orientations, ('2', '1') is missing"),
    (tau_not_bijective, ("split",), AMBIENTS, DIRECTIONS,
     "only bijections can be inverted"),
    (tau_twice, ("split",), AMBIENTS, DIRECTIONS,
     "tau for pair '1,2' is given twice"),
    (tau_in_nonsplit, ("nonsplit",), AMBIENTS, DIRECTIONS,
     "tau needs both pair orientations, ('2', '1') is missing"),
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
