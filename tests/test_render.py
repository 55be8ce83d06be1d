"""The report emitter writes what ``json.dumps(report, sort_keys=True,
indent=2)`` writes, on generated reports and on every report of the
benchmark's seed-1 documents, and refuses any type a report cannot hold."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge.cli import execute, load_document, render_report
from glueforge.errors import GlueforgeError

from fixtures import benchmark_items


def dumped(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# plain ASCII, escapes, control characters, non-ASCII text, an astral
# character and a lone surrogate
CHARS = st.sampled_from(
    list('ab zZ09"\\/\n\r\t\b\f\x00\x1f\x7f\x80|,:é中\u2028\uffff')
    + ["\U0001f600", "\ud800"])
TEXT = st.text(CHARS, max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(-2 ** 70, 2 ** 70), TEXT)
NODES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.dictionaries(TEXT, NODES, max_size=5))
def test_emitter_matches_json_dumps(report):
    assert render_report(report) == dumped(report)


@pytest.mark.parametrize("report", [
    {}, {"a": []}, {"a": {}}, {"a": [[], {}, [{}]]}, {"": ""},
    {"b": 1, "a": True, "c": None, "d": False, "e": -0, "f": 10 ** 30},
    {"z": {"y": [1, "x", {"w": [None]}]}, "Z": "é \U0001f600"},
])
def test_emitter_matches_json_dumps_on_edge_cases(report):
    assert render_report(report) == dumped(report)


@pytest.mark.parametrize("report", [
    {"a": 1.0},
    {"a": [1, 0.5]},
    {"a": (1, 2)},
    {"a": [{"b": ("c",)}]},
    {1: "a"},
    {"a": {None: 1}},
    {"a": [{True: 1}]},
    {"a": {"b", "c"}},
])
def test_emitter_refuses_what_a_report_cannot_hold(report):
    with pytest.raises(TypeError):
        render_report(report)


def test_emitter_matches_json_dumps_on_benchmark_reports():
    rendered = {}
    for workload, item in benchmark_items():
        try:
            doc = load_document(io.StringIO(json.dumps(item["doc"])))
            report = execute(item["command"], doc, item["flags"])
        except GlueforgeError:
            continue
        assert render_report(report) == dumped(report), item["name"]
        rendered[workload] = rendered.get(workload, 0) + 1
    assert sorted(rendered) == ["colimit-atlas", "limit-sets",
                                "sheaf-checks", "top-spaces"]
