"""Each malformed restriction, transition component and glue-map part is
refused on one stderr line, in the words and the order the label-to-label
maps of the engine used: the parsers read each mapping straight into its
table and word a failure as ``FinFn`` and ``FinSet`` would."""

import contextlib
import copy
import io
import json
import os
import sys
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
