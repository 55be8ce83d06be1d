import copy
import io
import json
import os
import random
import sys
import time

import pytest

from glueforge import cli, gluing
from glueforge.cli import (
    ERROR_TEXT_LIMIT,
    execute,
    glued_object_to_json,
    jsonable_object,
    load_document,
    main,
    parse_site,
    render_report,
)
from glueforge.errors import ResourceError, StructuralError, budget
from glueforge.fincat import FinSet, FinTop
from glueforge.gluing import colimit_glue
from glueforge.site import (
    base_change_sink,
    canonical_sink_functor,
    covering_axioms_check,
)

from fixtures import (
    benchmark_docs,
    chain_cover,
    constant_presheaf,
    discrete_space,
    e1,
    function_presheaf,
    label_arrows,
    label_nbhd,
    materialized,
    presheaf_doc,
    subspace,
)


def e1_payload(extra=None):
    payload = {
        "mode": "nonsplit",
        "ambient": "sets",
        "direction": "from-overlaps",
        "index": ["1", "2"],
        "objects": {
            "1": ["a0", "a1", "a2"],
            "2": ["b0", "b1", "b2"],
            "1,2": ["u"],
        },
        "arrows": [
            {"kind": "edge", "from": "1", "pair": "1,2", "map": {"u": "a2"}},
            {"kind": "edge", "from": "2", "pair": "1,2", "map": {"u": "b0"}},
        ],
    }
    payload.update(extra or {})
    return {"version": "1", "kind": "gluing", "payload": payload}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_load_document_accepts_e1(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload()))
    assert doc.kind == "gluing"
    assert doc.version == "1"


def test_reserved_character_rejected(tmp_path):
    bad = e1_payload()
    bad["payload"]["objects"]["1"] = ["a|b", "a1", "a2"]
    with pytest.raises(StructuralError) as err:
        load_document(write_doc(tmp_path, bad))
    assert "reserved character" in str(err.value)


def test_unknown_kind_is_schema_error(tmp_path):
    doc = {"version": "1", "kind": "mystery", "payload": {}}
    with pytest.raises(StructuralError) as err:
        load_document(write_doc(tmp_path, doc))
    assert "schema violation" in str(err.value)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"version\": \"1\",,\n}", encoding="utf-8")
    with pytest.raises(StructuralError) as err:
        load_document(str(path))
    assert "line 2" in str(err.value)


def test_schema_violation_reports_path(tmp_path):
    bad = e1_payload()
    bad["payload"]["mode"] = "diagonal"
    with pytest.raises(StructuralError) as err:
        load_document(write_doc(tmp_path, bad))
    assert "mode" in str(err.value)


def test_glue_reports_five_classes(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload()))
    report = execute("glue", doc, {"side": "colimit"})
    assert report["artifacts"]["apex_size"] == 5
    classes = materialized(report)["artifacts"]["classes"]
    assert classes["1|a2"] == ["1|a2", "2|b0"]


def test_glue_lists_the_members_of_a_merged_class_sorted(tmp_path):
    # component 1 lists a1 before a0, and both are glued to b0
    doc = e1_payload({
        "objects": {"1": ["a1", "a0", "a2"], "2": ["b0"], "1,2": ["u", "v"]},
        "arrows": [
            {"kind": "edge", "from": "1", "pair": "1,2",
             "map": {"u": "a1", "v": "a0"}},
            {"kind": "edge", "from": "2", "pair": "1,2",
             "map": {"u": "b0", "v": "b0"}},
        ]})
    report = execute("glue", load_document(write_doc(tmp_path, doc)), {})
    assert json.loads(render_report(report))["artifacts"]["classes"] == {
        "1|a0": ["1|a0", "1|a1", "2|b0"], "1|a2": ["1|a2"]}


def test_kind_command_mismatch(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload()))
    with pytest.raises(StructuralError):
        execute("check-sheaf", doc, {})


def test_byte_stable_output(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload()))
    a = render_report(execute("glue", doc, {"side": "colimit"}))
    b = render_report(execute("glue", doc, {"side": "colimit"}))
    assert a == b
    assert a.endswith("\n")


def test_glued_object_roundtrip(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload()))
    report = execute("glue", doc, {"side": "colimit"})
    blob = json.loads(render_report(report))
    again = json.loads(render_report(execute("glue", doc, {"side": "colimit"})))
    assert blob == again
    data = e1()
    direct = glued_object_to_json(data, colimit_glue(data))
    assert blob["artifacts"]["glued"] == json.loads(json.dumps(
        materialized(direct)))


def test_glue_with_delta_reports_universal_check(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload(extra={
        "delta": {"component": "1", "object": ["pt"], "map": {"pt": "a2"}},
    })))
    report = execute("glue", doc, {"side": "colimit"})
    assert report["verdicts"]["universal_glued"] is True


def test_hom_requires_target(tmp_path):
    doc = load_document(write_doc(tmp_path, e1_payload()))
    with pytest.raises(StructuralError):
        execute("hom", doc, {})
    doc2 = load_document(write_doc(
        tmp_path, e1_payload(extra={"hom_target": ["0", "1"]}), "h.json"))
    report = execute("hom", doc2, {})
    assert report["verdicts"]["bijection_verified"] is True
    assert report["artifacts"]["family_count"] == 32


def test_main_exit_codes(tmp_path, capsys):
    path = write_doc(tmp_path, e1_payload())
    assert main(["glue", "--input", path, "--side", "colimit"]) == 0
    capsys.readouterr()
    bad = e1_payload()
    bad["payload"]["arrows"] = bad["payload"]["arrows"][:1]
    badpath = write_doc(tmp_path, bad, "bad.json")
    assert main(["glue", "--input", badpath]) == 2
    err = capsys.readouterr().err
    assert "structural error" in err


def test_unwritable_output_is_structural(tmp_path, capsys):
    path = write_doc(tmp_path, e1_payload())
    out = str(tmp_path / "missing" / "out.json")
    assert main(["glue", "--input", path, "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("glueforge: structural error: ")
    assert "out.json" in captured.err


def limit_doc(size):
    """Two components of ``size`` points over one overlap point: the limit
    charges ``size ** 2`` candidates."""
    points = [str(k) for k in range(size)]
    return {
        "version": "1", "kind": "gluing",
        "payload": {
            "mode": "nonsplit", "ambient": "sets",
            "direction": "toward-overlaps",
            "index": ["1", "2"],
            "objects": {"1": points, "2": points, "1,2": ["s"]},
            "arrows": [
                {"kind": "edge", "from": "1", "pair": "1,2",
                 "map": {p: "s" for p in points}},
                {"kind": "edge", "from": "2", "pair": "1,2",
                 "map": {p: "s" for p in points}},
            ],
        },
    }


def test_main_cap_flag_resource_error(tmp_path, capsys):
    path = write_doc(tmp_path, limit_doc(2), "limit.json")
    assert main(["glue", "--input", path, "--side", "limit"]) == 0
    capsys.readouterr()
    assert main(["glue", "--input", path, "--side", "limit",
                 "--cap", "3"]) == 2
    assert "resource error" in capsys.readouterr().err


def test_hom_charges_nothing(tmp_path, capsys):
    # the families are counted from the 5 classes, so no cap refuses them
    path = write_doc(tmp_path, e1_payload(extra={"hom_target": ["0", "1"]}))
    assert main(["hom", "--input", path, "--cap", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["bijection_verified"] is True
    assert out["artifacts"]["family_count"] == 32


def test_hom_counts_one_large_component_from_its_classes(tmp_path, capsys):
    # 2^6 maps out of component 1 alone, but 8 classes in all
    doc = e1_payload(extra={"hom_target": ["0", "1"]})
    doc["payload"]["objects"]["1"] = ["a%d" % k for k in range(6)]
    path = write_doc(tmp_path, doc)
    assert main(["hom", "--input", path, "--cap", "40"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["bijection_verified"] is True
    assert out["artifacts"] == {"family_count": 256, "hom_count": 256}


def test_hom_counts_23_classes_into_two_points(tmp_path, capsys):
    doc = e1_payload(extra={"hom_target": ["0", "1"]})
    doc["payload"]["objects"]["1"] = ["a%d" % k for k in range(12)]
    doc["payload"]["objects"]["2"] = ["b%d" % k for k in range(12)]
    path = write_doc(tmp_path, doc)
    assert main(["hom", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["bijection_verified"] is True
    assert out["artifacts"] == {"family_count": 2 ** 23, "hom_count": 2 ** 23}


def test_hom_lists_no_family(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hom joined families")

    monkeypatch.setattr(gluing, "compatible_tuples", refuse)
    base = os.path.join(os.path.dirname(GOLDEN_COLIMIT), "hom")
    assert main(["hom", "--input", base + ".json"]) == 0
    with open(base + ".out", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.fixture
def default_int_digits():
    """Python's default limit of 4300 decimal digits per written int, for
    the test; the limit in force before is restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes ints of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_hom_refuses_a_count_too_long_to_write(tmp_path, capsys,
                                               default_int_digits):
    # one component of 5,000 points into 10 labels: 10 ** 5000 families and
    # maps, a count of 5,001 digits that int cannot write
    doc = {"version": "1", "kind": "gluing", "payload": {
        "mode": "nonsplit", "ambient": "sets", "direction": "from-overlaps",
        "index": ["1"], "objects": {"1": ["a%d" % k for k in range(5000)]},
        "arrows": [], "hom_target": [str(k) for k in range(10)]}}
    path = write_doc(tmp_path, doc)
    assert main(["hom", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("glueforge: resource error: ")
    assert "10 ** 5000" in captured.err


def sierpinski_presheaf_doc():
    return presheaf_doc(function_presheaf(
        FinTop(FinSet(["0", "1"]),
               [frozenset(), frozenset(["1"]), frozenset(["0", "1"])]),
        {"0": ["a", "b"], "1": ["a", "b"]}))


def test_check_sheaf_function_presheaf(tmp_path, capsys):
    path = write_doc(tmp_path, sierpinski_presheaf_doc(), "sheaf.json")
    assert main(["check-sheaf", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == {"separated": True, "sheaf": True}


def test_check_sheaf_exhaustive_covers(tmp_path, capsys):
    path = write_doc(tmp_path, sierpinski_presheaf_doc(), "sheaf2.json")
    assert main(["check-sheaf", "--input", path, "--covers",
                 "exhaustive"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["sheaf"] is True


@pytest.mark.parametrize("parts, message", [
    (["0", "1"], "key '0' does not name an open set"),
    (["1"], "family does not cover ['0', '1']"),
])
def test_check_sheaf_checks_the_listed_coverings_of_a_sheaf(tmp_path, capsys,
                                                            parts, message):
    # the verdicts of a sheaf need no listed covering, but one that is not a
    # covering is still an input error
    doc = sierpinski_presheaf_doc()
    doc["payload"]["coverings"] = [{"open": "0,1", "parts": ["1", "0,1"]},
                                   {"open": "0,1", "parts": parts}]
    path = write_doc(tmp_path, doc)
    assert main(["check-sheaf", "--input", path]) == 2
    assert capsys.readouterr().err == \
        "glueforge: structural error: %s\n" % message


def test_check_sheaf_checks_listed_coverings_up_to_the_counterexample(
        tmp_path, capsys):
    # the scans stop at the first covering that is not separated, so a
    # family after it is never checked
    doc = presheaf_doc(constant_presheaf(
        FinTop(FinSet(["0", "1"]),
               [frozenset(), frozenset(["1"]), frozenset(["0", "1"])]),
        ["a", "b"]))
    doc["payload"]["coverings"] = [{"open": "0,1", "parts": ["0,1"]},
                                   {"open": "", "parts": []},
                                   {"open": "0,1", "parts": ["1"]}]
    path = write_doc(tmp_path, doc)
    assert main(["check-sheaf", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostics"]["separation_counterexample"] == {
        "open": "", "parts": [], "sections": ["a", "b"]}
    doc["payload"]["coverings"].insert(1, {"open": "0,1", "parts": ["1"]})
    path = write_doc(tmp_path, doc)
    assert main(["check-sheaf", "--input", path]) == 2
    assert capsys.readouterr().err == \
        "glueforge: structural error: family does not cover ['0', '1']\n"


def discrete_function_doc(n):
    points = FinSet(["p%d" % k for k in range(n)])
    return presheaf_doc(function_presheaf(discrete_space(points),
                                          {p: ["a", "b"] for p in points}))


def test_check_sheaf_exhaustive_on_four_discrete_points_lists_no_covering(
        tmp_path, capsys):
    # the coverings of the whole space alone would enumerate 2**16 items;
    # the verdicts come from one basic cover per open and list no covering
    path = write_doc(tmp_path, discrete_function_doc(4))
    assert main(["check-sheaf", "--input", path, "--covers", "exhaustive",
                 "--cap", "1000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == {"separated": True, "sheaf": True}


def test_check_sheaf_exhaustive_on_five_discrete_points_fits_the_cap(tmp_path,
                                                                     capsys):
    # the coverings of the whole space alone would enumerate 2**32 items
    path = write_doc(tmp_path, discrete_function_doc(5))
    assert main(["check-sheaf", "--input", path, "--covers",
                 "exhaustive"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == {"separated": True, "sheaf": True}


def wide_two_point_doc(k):
    """The discrete space {p, q} with ``k`` sections over each point and one
    over {p, q} and over the empty open: a sheaf along its trivial covers,
    whose basic cover of {p, q} has k*k compatible families."""
    points = ["s%d" % i for i in range(k)]
    body = {"sections": {"": ["e"], "p": points, "q": points, "p,q": ["t"]},
            "restrictions": {"p,q>p": {"t": "s0"}, "p,q>q": {"t": "s0"},
                             "p,q>": {"t": "e"},
                             "p>": {s: "e" for s in points},
                             "q>": {s: "e" for s in points}}}
    return {"version": "1", "kind": "presheaf",
            "payload": {"space": {"points": ["p", "q"],
                                  "opens": [[], ["p"], ["q"], ["p", "q"]]},
                        "presheaf": body}}


@pytest.mark.parametrize("k, cap", [(1001, []), (11, ["--cap", "100"])])
def test_check_sheaf_listed_covering_when_the_basic_cover_passes_the_cap(
        tmp_path, capsys, k, cap):
    # the basic cover of {p, q} would enumerate k*k families, past the cap;
    # the verdicts then come from the listed covering alone
    doc = wide_two_point_doc(k)
    doc["payload"]["coverings"] = [{"open": "p,q", "parts": ["p,q"]}]
    path = write_doc(tmp_path, doc)
    assert main(["check-sheaf", "--input", path] + cap) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == {"separated": True, "sheaf": True}


def test_glue_map_one_chart_when_the_basic_cover_passes_the_cap(tmp_path,
                                                               capsys):
    # one chart induces only trivial covers, so the target's basic cover of
    # {p, q}, past the cap, is never needed
    doc = wide_two_point_doc(11)
    body = doc["payload"]["presheaf"]
    doc["payload"]["glue_map"] = {
        "charts": [{"name": "all", "members": ["p", "q"]}],
        "target": copy.deepcopy(body),
        "parts": {"all": {key: {s: s for s in labels}
                          for key, labels in body["sections"].items()}},
    }
    path = write_doc(tmp_path, doc, "gluemap.json")
    assert main(["glue-map", "--input", path, "--cap", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["glued"] is True


def test_cap_env_variable(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, limit_doc(4), "cap.json")
    assert main(["glue", "--input", path, "--side", "limit"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("GLUEFORGE_CAP", "10")
    assert main(["glue", "--input", path, "--side", "limit"]) == 2
    assert "resource error" in capsys.readouterr().err


def test_cap_env_variable_not_an_integer(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, e1_payload(), "envcap.json")
    monkeypatch.setenv("GLUEFORGE_CAP", "abc")
    assert main(["glue", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: structural error:")
    assert "GLUEFORGE_CAP" in err
    # an explicit --cap does not read the variable
    assert main(["glue", "--input", path, "--cap", "100"]) == 0


def test_cap_flag_bounds_the_listing_of_opens(tmp_path, capsys):
    def discrete(points):
        opens = [[]] + [[p] for p in points]
        return {"points": points,
                "opens": opens + ([points] if len(points) > 1 else [])}

    doc = {"version": "1", "kind": "gluing", "payload": {
        "mode": "split", "ambient": "top", "direction": "from-overlaps",
        "index": ["1", "2"],
        "objects": {"1": discrete(["x0", "x1"]), "2": discrete(["y0", "y1"]),
                    "1,2": discrete(["o"]), "2,1": discrete(["o"])},
        "arrows": [
            {"kind": "edge", "from": "1", "pair": "1,2", "map": {"o": "x1"}},
            {"kind": "edge", "from": "2", "pair": "2,1", "map": {"o": "y1"}},
            {"kind": "tau", "pair": "1,2", "map": {"o": "o"}}]}}
    path = write_doc(tmp_path, doc, "top.json")
    assert main(["glue", "--input", path]) == 0
    assert len(json.loads(capsys.readouterr().out)
               ["artifacts"]["glued"]["apex"]["opens"]) == 8
    assert main(["glue", "--input", path, "--cap", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: resource error:")
    assert "opens of a 3-point space" in err


@pytest.mark.parametrize("objects, arrow", [
    # edge whose pair has no objects entry
    ({"1": ["a"], "2": ["b"]},
     {"kind": "edge", "from": "1", "pair": "1,2", "map": {"u": "a"}}),
    # edge whose source component has no objects entry
    ({"2": ["b"], "1,2": ["u"]},
     {"kind": "edge", "from": "1", "pair": "1,2", "map": {"u": "a"}}),
])
def test_arrow_on_missing_object_is_structural(tmp_path, capsys, objects,
                                                arrow):
    doc = e1_payload()
    doc["payload"]["objects"] = objects
    doc["payload"]["arrows"] = [arrow]
    path = write_doc(tmp_path, doc, "missing.json")
    assert main(["glue", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: structural error:")
    assert "objects entry" in err


def test_tau_on_missing_pair_is_structural(tmp_path, capsys):
    doc = e1_payload()
    doc["payload"]["mode"] = "split"
    doc["payload"]["objects"] = {"1": ["a"], "2": ["b"], "2,1": ["v"]}
    doc["payload"]["arrows"] = [
        {"kind": "tau", "pair": "1,2", "map": {"u": "v"}}]
    path = write_doc(tmp_path, doc, "tau.json")
    assert main(["glue", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "structural error" in err and "'1,2'" in err


NOT_UTF8 = b'\xff\xfe{"a":1}'


def test_non_utf8_input_is_structural(tmp_path, capsys, monkeypatch):
    path = tmp_path / "latin.json"
    path.write_bytes(NOT_UTF8)
    assert main(["glue", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: structural error:")
    assert "latin.json is not UTF-8 text" in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8),
                                                       encoding="utf-8"))
    assert main(["glue"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: structural error: <stream> is not UTF-8")


@pytest.mark.parametrize("depth", [1000, 100000])
def test_deeply_nested_input_is_structural(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    assert main(["glue", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("glueforge: structural error: JSON in %s is nested too "
                   "deeply\n" % path)


def test_nesting_just_below_the_parser_limit_is_structural(monkeypatch,
                                                           capsys):
    # a few levels under the recursion limit json.loads succeeds but
    # jsonschema runs out of stack while wording the rejection
    for template in ("%s", '{"version": "1", "kind": "gluing", '
                           '"payload": {"mode": %s}}'):
        for depth in range(900, 1000):
            text = template % ("[" * depth + "]" * depth)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert main(["glue"]) == 2, depth
            assert "structural error" in capsys.readouterr().err


def test_oversized_error_text_is_cut(tmp_path, capsys):
    # 5,000 labels outside the domain made this a 63,963-byte stderr line
    doc = e1_payload()
    doc["payload"]["arrows"][0]["map"].update(
        {"extra%d" % k: "a0" for k in range(5000)})
    assert main(["glue", "--input", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    message = err.rstrip("\n").split("structural error: ", 1)[1]
    assert message.startswith("mapping assigns labels outside the domain: "
                              "['extra0', 'extra1', ")
    assert message[ERROR_TEXT_LIMIT:].startswith("... [cut, ")
    assert message.endswith(" characters in all]")
    assert len(err) < ERROR_TEXT_LIMIT + 80


@pytest.mark.parametrize("escape", ["\\u007c", "\\u007C"])
def test_escaped_reserved_character_is_rejected(tmp_path, capsys, escape):
    text = json.dumps(e1_payload()).replace('"a0"', '"a%s0"' % escape)
    path = tmp_path / "escaped.json"
    path.write_text(text, encoding="utf-8")
    assert main(["glue", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "glueforge: structural error: reserved character '|' in input label "
        "'a|0'\n")


def test_label_walk_is_skipped_without_the_separator(tmp_path, monkeypatch):
    walked = []
    monkeypatch.setattr(cli, "_check_labels", walked.append)
    load_document(write_doc(tmp_path, e1_payload()))
    assert walked == []
    # escapes of other characters, one a near miss of the separator's
    # ("\u007b" is "{"), are not walked
    path = tmp_path / "escapes.json"
    path.write_text(json.dumps(e1_payload()).replace(
        '"a0"', '"a\\u00e9\\"\\n\\u007b0"'), encoding="utf-8")
    assert "\\" in path.read_text(encoding="utf-8")
    load_document(str(path))
    assert walked == []
    doc = e1_payload()
    doc["payload"]["hom_target"] = ["z|"]
    load_document(write_doc(tmp_path, doc))
    assert len(walked) == 1
    # either escape of the separator is walked
    for escape in ("\\u007c", "\\u007C"):
        path.write_text(json.dumps(e1_payload()).replace(
            '"a0"', '"a%s0"' % escape), encoding="utf-8")
        load_document(str(path))
    assert len(walked) == 3


def test_check_effective_e4_exit_one(tmp_path, capsys):
    doc = {
        "version": "1", "kind": "gluing",
        "payload": {
            "mode": "split", "ambient": "sets", "direction": "from-overlaps",
            "index": ["1", "2", "3"],
            "objects": {
                "1": ["x1"], "2": ["x2"], "3": ["x3"],
                "1,2": ["p"], "2,1": ["p"],
                "2,3": ["q"], "3,2": ["q"],
                "1,3": [], "3,1": [],
            },
            "arrows": [
                {"kind": "edge", "from": "1", "pair": "1,2", "map": {"p": "x1"}},
                {"kind": "edge", "from": "2", "pair": "2,1", "map": {"p": "x2"}},
                {"kind": "tau", "pair": "1,2", "map": {"p": "p"}},
                {"kind": "edge", "from": "2", "pair": "2,3", "map": {"q": "x2"}},
                {"kind": "edge", "from": "3", "pair": "3,2", "map": {"q": "x3"}},
                {"kind": "tau", "pair": "2,3", "map": {"q": "q"}},
                {"kind": "edge", "from": "1", "pair": "1,3", "map": {}},
                {"kind": "edge", "from": "3", "pair": "3,1", "map": {}},
                {"kind": "tau", "pair": "1,3", "map": {}},
            ],
        },
    }
    path = write_doc(tmp_path, doc, "e4.json")
    assert main(["check-effective", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["intersection_characterization"] is False
    assert out["diagnostics"]["pairs"]["1,3"]["intersection_ok"] is False


def test_check_sheaf_constant_presheaf_fails(tmp_path, capsys):
    doc = sierpinski_presheaf_doc()
    two = ["a", "b"]
    doc["payload"]["presheaf"]["sections"] = {"": two, "1": two, "0,1": two}
    ident = {"a": "a", "b": "b"}
    doc["payload"]["presheaf"]["restrictions"] = {
        "0,1>": ident, "0,1>1": ident, "1>": ident}
    path = write_doc(tmp_path, doc, "const.json")
    assert main(["check-sheaf", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["sheaf"] is False
    assert out["diagnostics"]["sheaf_counterexample"]["open"] == ""


def two_chart_datum():
    space = {"points": ["p", "q"],
             "opens": [[], ["p"], ["q"], ["p", "q"]]}
    locals_ = {
        "1": {"sections": {"": ["()"], "p": ["p=a", "p=b"]},
              "restrictions": {"p>": {"p=a": "()", "p=b": "()"}}},
        "2": {"sections": {"": ["()"], "q": ["q=x", "q=y"]},
              "restrictions": {"q>": {"q=x": "()", "q=y": "()"}}},
    }
    return {
        "version": "1", "kind": "gluing-datum",
        "payload": {
            "space": space,
            "charts": [{"name": "1", "members": ["p"]},
                       {"name": "2", "members": ["q"]}],
            "locals": locals_,
            "transitions": [
                {"from": "1", "to": "2", "components": {"": {"()": "()"}}},
            ],
        },
    }


def test_glue_sheaves_command(tmp_path, capsys):
    path = write_doc(tmp_path, two_chart_datum(), "datum.json")
    assert main(["glue-sheaves", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["cocycle_ok"] is True
    assert len(out["artifacts"]["sections"]["p,q"]) == 4


def whole_charts_datum():
    """Three charts on a one-point space, each the whole space, five values
    at the point and identity transitions: 125 tuples of chart sections
    over the point, five of them glued sections."""
    values = ["p=v%d" % k for k in range(5)]
    local = {"sections": {"": ["()"], "p": values},
             "restrictions": {"p>": {v: "()" for v in values}}}
    identity = {"": {"()": "()"}, "p": {v: v for v in values}}
    return {
        "version": "1", "kind": "gluing-datum",
        "payload": {
            "space": {"points": ["p"], "opens": [[], ["p"]]},
            "charts": [{"name": n, "members": ["p"]} for n in "123"],
            "locals": {n: local for n in "123"},
            "transitions": [{"from": a, "to": b, "components": identity}
                            for a, b in (("1", "2"), ("1", "3"),
                                         ("2", "3"))],
        },
    }


def test_glue_sheaves_charges_each_step_not_the_product(tmp_path, capsys):
    path = write_doc(tmp_path, whole_charts_datum(), "datum.json")
    assert main(["glue-sheaves", "--input", path, "--cap", "25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["artifacts"]["sections"]["p"]) == 5
    # the enumeration's first step lists the five sections of chart 1
    assert main(["glue-sheaves", "--input", path, "--cap", "4"]) == 2
    assert capsys.readouterr().err == (
        "glueforge: resource error: glued sections at one open would "
        "enumerate 5 items, above the cap of 4\n")


@pytest.mark.parametrize("end", ["from", "to"])
def test_transition_on_unknown_chart_is_structural(tmp_path, capsys, end):
    doc = two_chart_datum()
    doc["payload"]["transitions"][0][end] = "nosuch"
    path = write_doc(tmp_path, doc, "datum.json")
    assert main(["glue-sheaves", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: structural error:")
    assert "'nosuch'" in err


def test_repeated_transition_is_structural(tmp_path, capsys):
    doc = two_chart_datum()
    transitions = doc["payload"]["transitions"]
    transitions.append(dict(transitions[0]))
    path = write_doc(tmp_path, doc, "datum.json")
    assert main(["glue-sheaves", "--input", path]) == 2
    assert capsys.readouterr().err == (
        "glueforge: structural error: transition '1' -> '2' is listed twice\n")


def test_chart_that_is_not_open_is_structural(tmp_path, capsys):
    # nbhd(p2) = {p0, p2}, so the chart {p1, p2} is not open although its
    # overlap {p2} with the open chart {p0, p2} is open in the overlap
    local_a = {
        "sections": {"": ["()"], "p1": ["p1=x"], "p2": ["p2=x"],
                     "p1,p2": ["p1=x;p2=x"]},
        "restrictions": {"p1>": {"p1=x": "()"}, "p2>": {"p2=x": "()"},
                         "p1,p2>": {"p1=x;p2=x": "()"},
                         "p1,p2>p1": {"p1=x;p2=x": "p1=x"},
                         "p1,p2>p2": {"p1=x;p2=x": "p2=x"}}}
    local_b = {
        "sections": {"": ["()"], "p0": ["p0=x"], "p0,p2": ["p0=x;p2=x"]},
        "restrictions": {"p0>": {"p0=x": "()"},
                         "p0,p2>": {"p0=x;p2=x": "()"},
                         "p0,p2>p0": {"p0=x;p2=x": "p0=x"}}}
    doc = {
        "version": "1", "kind": "gluing-datum",
        "payload": {
            "space": {"points": ["p0", "p1", "p2"],
                      "opens": [[], ["p0"], ["p1"], ["p0", "p1"],
                                ["p0", "p2"], ["p0", "p1", "p2"]]},
            "charts": [{"name": "a", "members": ["p2", "p1"]},
                       {"name": "b", "members": ["p0", "p2"]}],
            "locals": {"a": local_a, "b": local_b},
            "transitions": [{"from": "a", "to": "b", "components": {
                "": {"()": "()"}, "p2": {"p2=x": "p2=x"}}}],
        },
    }
    path = write_doc(tmp_path, doc, "datum.json")
    assert main(["glue-sheaves", "--input", path]) == 2
    assert capsys.readouterr().err == (
        "glueforge: structural error: chart 'a' is not open\n")


def sierpinski_glue_map_doc():
    """A glue-map document on the Sierpinski space with one chart, the whole
    space, and the identity as its part."""
    base = sierpinski_presheaf_doc()
    presheaf = base["payload"]["presheaf"]
    swap = {"0=a;1=a": "0=a;1=a", "0=a;1=b": "0=a;1=b",
            "0=b;1=a": "0=b;1=a", "0=b;1=b": "0=b;1=b"}
    base["payload"]["glue_map"] = {
        "charts": [{"name": "all", "members": ["0", "1"]}],
        "target": copy.deepcopy(presheaf),
        "parts": {"all": {
            "": {"()": "()"},
            "1": {"1=a": "1=a", "1=b": "1=b"},
            "0,1": swap,
        }},
    }
    return base


@pytest.mark.parametrize("role,where", [("source", "presheaf"),
                                        ("target", "glue_map")])
def test_glue_map_checks_both_presheaves(tmp_path, capsys, role, where):
    # every component is constant, so a swap at 1>1 keeps the part natural
    # when it sits in the source; the laws alone then reject the document
    doc = sierpinski_glue_map_doc()
    part = doc["payload"]["glue_map"]["parts"]["all"]
    part["1"] = {"1=a": "1=a", "1=b": "1=a"}
    part["0,1"] = {x: "0=a;1=a" for x in part["0,1"]}
    body = doc["payload"]["presheaf"]
    if where == "glue_map":
        body = doc["payload"]["glue_map"]["target"]
    body["restrictions"]["1>1"] = {"1=a": "1=b", "1=b": "1=a"}
    path = write_doc(tmp_path, doc, "gluemap.json")
    assert main(["glue-map", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: structural error: invalid %s presheaf: "
                          "restriction at ['1'] is not the identity; " % role)
    assert "Traceback" not in err


def test_glue_map_command(tmp_path, capsys):
    base = sierpinski_glue_map_doc()
    path = write_doc(tmp_path, base, "gluemap.json")
    assert main(["glue-map", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["glued"] is True
    assert out["artifacts"]["components"]["0,1"]["0=a;1=b"] == "0=a;1=b"


def test_check_cover_and_compose(tmp_path, capsys):
    sink_doc = {
        "version": "1", "kind": "sink",
        "payload": {
            "ambient": "sets",
            "target": ["p", "q"],
            "sources": [
                {"name": "1", "object": ["p"], "map": {"p": "p"}},
                {"name": "2", "object": ["q"], "map": {"q": "q"}},
            ],
            "tests": [{"object": ["v"], "map": {"v": "p"}}],
            "inner": {
                "1": {"target": ["p"],
                      "sources": [{"name": "1", "object": ["p"],
                                   "map": {"p": "p"}}]},
                "2": {"target": ["q"],
                      "sources": [{"name": "1", "object": ["q"],
                                   "map": {"q": "q"}}]},
            },
        },
    }
    path = write_doc(tmp_path, sink_doc, "sink.json")
    assert main(["check-cover", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == {"all_effective": True, "effective": True,
                               "jointly_surjective": True}
    assert main(["compose", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["is_glued_up"] is True
    assert "1.1" in out["artifacts"]["flattened_sources"]


def coproduct_site_doc():
    ident = lambda labels: {x: x for x in labels}
    return {
        "version": "1", "kind": "site",
        "payload": {
            "ambient": "sets",
            "coverings": [
                {"target": ["a"], "sources": [
                    {"name": "1", "object": ["a"], "map": ident(["a"])}]},
                {"target": ["b"], "sources": [
                    {"name": "1", "object": ["b"], "map": ident(["b"])}]},
                {"target": ["a", "b"], "sources": [
                    {"name": "1", "object": ["a", "b"],
                     "map": ident(["a", "b"])}]},
                {"target": ["a", "b"], "sources": [
                    {"name": "1", "object": ["a"], "map": {"a": "a"}},
                    {"name": "2", "object": ["b"], "map": {"b": "b"}}]},
            ],
            "morphisms": [
                {"dom": ["a"], "cod": ["a"], "map": {"a": "a"}},
                {"dom": ["b"], "cod": ["b"], "map": {"b": "b"}},
                {"dom": ["a", "b"], "cod": ["a", "b"], "map": ident(["a", "b"])},
            ],
        },
    }


def test_check_site_command(tmp_path, capsys):
    path = write_doc(tmp_path, coproduct_site_doc(), "site.json")
    assert main(["check-site", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["axioms_hold"] is True


def test_check_site_refines_each_source_by_its_own_topology(tmp_path, capsys):
    # two coverings of the points {a, b}: a covering of the Sierpinski space
    # refines only Sierpinski sources, never the discrete ones
    points = ["a", "b"]
    ident = {"a": "a", "b": "b"}
    sierpinski = {"points": points, "opens": [[], ["a"], ["a", "b"]]}
    discrete = {"points": points, "opens": [[], ["a"], ["b"], ["a", "b"]]}
    doc = {"version": "1", "kind": "site", "payload": {
        "ambient": "top",
        "coverings": [
            {"target": space, "sources": [
                {"name": "1", "object": space, "map": ident}]}
            for space in (sierpinski, discrete)],
        "morphisms": []}}
    path = write_doc(tmp_path, doc, "site.json")
    assert main(["check-site", "--input", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["verdicts"] == {"axioms_hold": True}
    assert out["diagnostics"] == {"violations": []}


def test_check_site_charges_the_refinement_product(tmp_path, capsys):
    # the identity covering of {a, b} refines along either covering of {a, b}
    doc = coproduct_site_doc()
    spec = parse_site(doc["payload"])
    with budget(1), pytest.raises(ResourceError) as err:
        covering_axioms_check(spec)
    assert err.value.size == 2
    assert "refinement families of one covering" in str(err.value)
    path = write_doc(tmp_path, doc, "site.json")
    assert main(["check-site", "--input", path, "--cap", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: resource error:")
    assert "refinement families of one covering" in err


def test_check_site_charges_the_individualization_search(tmp_path, capsys):
    # two disjoint two-point chains over one point: colour refinement
    # splits the bottoms from the tops, each bottom lies below one top
    # only, so the key of that source individualizes each of the 2 bottoms
    def space(points, opens):
        return {"points": points, "opens": opens}

    point = space(["t"], [[], ["t"]])
    points = ["a1", "b1", "a2", "b2"]
    halves = [[], ["b1"], ["a1", "b1"]], [[], ["b2"], ["a2", "b2"]]
    chains = space(points, [one + two for one in halves[0]
                            for two in halves[1]])
    doc = {"version": "1", "kind": "site", "payload": {
        "ambient": "top",
        "coverings": [
            {"target": point, "sources": [
                {"name": "1", "object": chains,
                 "map": {x: "t" for x in points}}]},
            {"target": chains, "sources": [
                {"name": "1", "object": chains,
                 "map": {x: x for x in points}}]},
        ],
        "morphisms": []}}
    spec = parse_site(doc["payload"])
    with budget(1), pytest.raises(ResourceError) as err:
        covering_axioms_check(spec)
    assert err.value.size == 2
    assert "individualized points in one source's key" in str(err.value)
    with budget(2):
        assert covering_axioms_check(spec)["ok"] is True
    path = write_doc(tmp_path, doc, "topsite.json")
    assert main(["check-site", "--input", path]) == 0
    capsys.readouterr()
    assert main(["check-site", "--input", path, "--cap", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glueforge: resource error:")
    assert "individualized points in one source's key" in err


def chain_against_discrete_doc(k):
    """A ``check-site`` document: a k-point chain covering one point, and
    the discrete space on the same points covering the chain.  Their
    composite, the discrete space over the point, has the chain's fibre
    counts and is not declared."""
    points = ["p%d" % n for n in range(k)]
    chain = {"points": points,
             "opens": [points[n:] for n in range(k + 1)]}
    discrete = {"points": points, "opens": [
        [x for n, x in enumerate(points) if bits >> n & 1]
        for bits in range(1 << k)]}
    return {"version": "1", "kind": "site", "payload": {
        "ambient": "top",
        "coverings": [
            {"target": {"points": ["t"], "opens": [[], ["t"]]},
             "sources": [{"name": "1", "object": chain,
                          "map": {x: "t" for x in points}}]},
            {"target": chain, "sources": [
                {"name": "1", "object": discrete,
                 "map": {x: x for x in points}}]}],
        "morphisms": []}}


def test_a_chain_against_the_discrete_space_is_decided_by_key(tmp_path,
                                                              capsys):
    # 10! fibre permutations would exceed the default cap; the keys differ
    # at once (the chain's points split into singletons, the discrete space
    # is one uniform cell), so no search runs even under a cap of 1
    reports = []
    for k in (9, 10):
        path = write_doc(tmp_path, chain_against_discrete_doc(k),
                         "chain%d.json" % k)
        started = time.perf_counter()
        assert main(["check-site", "--input", path]) == 1
        took = time.perf_counter() - started
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append(captured.out)
        assert main(["check-site", "--input", path, "--cap", "1"]) == 1
        assert capsys.readouterr().out == captured.out
    assert took < 5
    assert reports[0] == reports[1]
    assert json.loads(reports[1]) == {
        "command": "check-site", "verdicts": {"axioms_hold": False},
        "artifacts": {}, "diagnostics": {"violations": [
            "composite of covering of ['t'] is not declared"]}}


def test_base_change_charges_its_join_not_its_product(capsys):
    # check-cover decides each test map on positions, with no pullback
    # built, so it charges nothing even at a cap of 1
    path = os.path.join(os.path.dirname(GOLDEN_COLIMIT), "check-cover-sets")
    assert main(["check-cover", "--input", path + ".json", "--cap", "1"]) == 0
    with open(path + ".out", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
    # a base change that is built charges its join: each 3-point source
    # pulled back along the 3-point test map has 9 pairs in the product, at
    # most 3 candidates in either step of the join
    with open(path + ".json", encoding="utf-8") as handle:
        sink, tests, _ = cli.parse_sink(json.load(handle)["payload"])
    with budget(3):
        assert len(base_change_sink(sink, tests[0]).sources) == 3
    with budget(2), pytest.raises(ResourceError) as raised:
        base_change_sink(sink, tests[0])
    assert str(raised.value) == ("pullback would enumerate 3 items, above "
                                 "the cap of 2")


def test_refine_command(tmp_path, capsys):
    limit_payload = {
        "mode": "nonsplit", "ambient": "sets",
        "direction": "toward-overlaps",
        "index": ["1", "2"],
        "objects": {"1": ["a0", "a1"], "2": ["b0", "b1"], "1,2": ["o0", "o1"]},
        "arrows": [
            {"kind": "edge", "from": "1", "pair": "1,2",
             "map": {"a0": "o0", "a1": "o1"}},
            {"kind": "edge", "from": "2", "pair": "1,2",
             "map": {"b0": "o0", "b1": "o1"}},
        ],
    }
    target_payload = {
        "mode": "nonsplit", "ambient": "sets",
        "direction": "toward-overlaps",
        "index": ["1"],
        "objects": {"1": ["a0", "a1"]},
        "arrows": [],
    }
    doc = {
        "version": "1", "kind": "refinement",
        "payload": {
            "source": limit_payload,
            "target": target_payload,
            "gamma": {"1": "1"},
            "components": {"1": {"a0": "a0", "a1": "a1"}},
        },
    }
    path = write_doc(tmp_path, doc, "ref.json")
    assert main(["refine", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["valid"] is True
    assert out["artifacts"]["source_apex_size"] == 2
    assert out["artifacts"]["induced_map"] == {"a0|b0": "a0", "a1|b1": "a1"}


def sierpinski(a, b):
    """The Sierpinski space on two points, ``a`` the open one."""
    return {"points": [a, b], "opens": [[], [a], [a, b]]}


def test_glue_rejects_a_delta_that_is_not_continuous(tmp_path, capsys):
    doc = {"version": "1", "kind": "gluing", "payload": {
        "mode": "nonsplit", "ambient": "top", "direction": "from-overlaps",
        "index": ["1"], "objects": {"1": sierpinski("a", "b")}, "arrows": [],
        "delta": {"component": "1", "object": sierpinski("x", "y"),
                  "map": {"x": "b", "y": "a"}},
    }}
    path = write_doc(tmp_path, doc)
    assert main(["glue", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("glueforge: structural error: map is not "
                            "continuous at 'y'\n")


def split_colimit_payload(data):
    """The document payload of split from-overlaps data: every object, every
    edge, and each swap as the map ``G(i,j) -> G(j,i)`` at pair ``i,j``.
    The reserved ``|`` of generated labels becomes ``~``."""
    top = data.ambient == "top"
    arrows = []
    for key, fn in label_arrows(data).items():
        if key[0] == "incl":
            arrows.append({"kind": "edge", "from": key[1],
                           "pair": ",".join(key[2]), "map": fn.mapping})
        else:
            j, i = key[1]
            arrows.append({"kind": "tau", "pair": "%s,%s" % (i, j),
                           "map": fn.mapping})
    payload = {"mode": "split", "ambient": data.ambient,
               "direction": "from-overlaps",
               "index": list(data.indexcat.index),
               "objects": {",".join(obj): jsonable_object(
                   carrier, data.space(obj) if top else None)
                   for obj, carrier in data.objects.items()},
               "arrows": arrows}
    return json.loads(json.dumps(payload).replace("|", "~"))


def test_glue_reports_a_colimit_that_pullback_does_not_keep(tmp_path, capsys):
    # the canonical functor of an effective top sink, pulled back to a
    # subspace through component 3: the subspace is coarser than the final
    # topology along the pulled-back components
    sink = chain_cover()
    payload = split_colimit_payload(canonical_sink_functor(sink))
    v = subspace(sink.target_space, ["y0", "y2"])
    payload["delta"] = {"component": "3", "object": jsonable_object(v.carrier, v),
                        "map": {"y0": "c0", "y2": "c2"}}
    path = write_doc(tmp_path, {"version": "1", "kind": "gluing",
                                "payload": payload})
    assert main(["glue", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == {"universal_glued": False}
    assert out["artifacts"]["apex_size"] == 3


def chart_limit_payload(index, pairs):
    """Limit-side charts ``x<i>_0..2`` over the overlap ``k0..2``, every chart
    mapping onto it in the same way."""
    onto = {"_0": "k0", "_1": "k2", "_2": "k1"}
    objects = {i: ["x%s%s" % (i, s) for s in sorted(onto)] for i in index}
    objects.update({pair: ["k0", "k1", "k2"] for pair in pairs})
    arrows = [{"kind": "edge", "from": i, "pair": pair,
               "map": {"x%s%s" % (i, s): k for s, k in onto.items()}}
              for pair in pairs for i in pair.split(",")]
    return {"mode": "nonsplit", "ambient": "sets",
            "direction": "toward-overlaps", "index": index,
            "objects": objects, "arrows": arrows}


def test_refine_with_invalid_source_data_is_structural(tmp_path, capsys):
    # the source lacks the arrow from chart 3 into overlap 2,3, and the
    # refinement lacks its component at 1,2: the data is refused before the
    # refinement is judged
    source = chart_limit_payload(["1", "2", "3"], ["1,2", "1,3", "2,3"])
    source["arrows"] = [a for a in source["arrows"]
                        if (a["from"], a["pair"]) != ("3", "2,3")]
    target = chart_limit_payload(["1", "2"], ["1,2"])
    doc = {"version": "1", "kind": "refinement", "payload": {
        "source": source, "target": target, "gamma": {"1": "1", "2": "2"},
        "components": {i: {x: x for x in target["objects"][i]}
                       for i in ("1", "2")},
    }}
    path = write_doc(tmp_path, doc)
    assert main(["refine", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("glueforge: structural error: invalid gluing "
                            "data: generator ('incl', '3', ('2', '3')) has "
                            "no arrow\n")


# documents whose meaning would depend on the order of their entries

GOLDEN_COLIMIT = os.path.join(os.path.dirname(__file__), os.pardir,
                              "perfbench", "golden", "glue-colimit-sets.json")


def golden_colimit_doc():
    with open(GOLDEN_COLIMIT, encoding="utf-8") as handle:
        return json.load(handle)


def split_pair_doc(taus):
    """Split data on two one-point components glued along a one-point
    overlap, with these tau entries."""
    doc = e1_payload()
    doc["payload"].update(mode="split", objects={
        "1": ["a"], "2": ["b"], "1,2": ["u"], "2,1": ["v"]}, arrows=[
        {"kind": "edge", "from": "1", "pair": "1,2", "map": {"u": "a"}},
        {"kind": "edge", "from": "2", "pair": "2,1", "map": {"v": "b"}},
    ] + taus)
    return doc


def structural_error(tmp_path, capsys, doc):
    path = write_doc(tmp_path, doc, "ambiguous.json")
    assert main(["glue", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_a_second_edge_for_the_same_pair_is_structural(tmp_path, capsys):
    doc = golden_colimit_doc()
    arrows = doc["payload"]["arrows"]
    # the same edge again with another value: either order would be taken
    arrows.append(dict(arrows[0], map={"o1_2_0": "x1_0"}))
    for order in (arrows, [arrows[-1]] + arrows[:-1]):
        doc["payload"]["arrows"] = order
        assert structural_error(tmp_path, capsys, doc) == (
            "glueforge: structural error: edge from '1' to pair '1,2' is "
            "given twice\n")


def test_an_edge_under_the_reversed_nonsplit_pair_is_a_second_edge(
        tmp_path, capsys):
    doc = e1_payload()
    doc["payload"]["arrows"].append(
        {"kind": "edge", "from": "2", "pair": "2,1", "map": {"u": "b1"}})
    assert structural_error(tmp_path, capsys, doc) == (
        "glueforge: structural error: edge from '2' to pair '2,1' is given "
        "twice\n")


def test_a_repeated_tau_is_structural(tmp_path, capsys):
    tau = {"kind": "tau", "pair": "1,2", "map": {"u": "v"}}
    doc = split_pair_doc([tau, dict(tau)])
    assert structural_error(tmp_path, capsys, doc) == (
        "glueforge: structural error: tau for pair '1,2' is given twice\n")


def test_taus_of_both_orientations_must_be_inverse(tmp_path, capsys):
    agree = split_pair_doc([{"kind": "tau", "pair": "1,2", "map": {"u": "v"}},
                            {"kind": "tau", "pair": "2,1", "map": {"v": "u"}}])
    path = write_doc(tmp_path, agree, "agree.json")
    assert main(["glue", "--input", path]) == 0
    capsys.readouterr()
    # one orientation of a two-point overlap swaps, the other does not
    doc = split_pair_doc([])
    doc["payload"]["objects"].update({"1,2": ["u", "w"], "2,1": ["v", "z"]})
    doc["payload"]["arrows"][0]["map"] = {"u": "a", "w": "a"}
    doc["payload"]["arrows"][1]["map"] = {"v": "b", "z": "b"}
    taus = [{"kind": "tau", "pair": "1,2", "map": {"u": "v", "w": "z"}},
            {"kind": "tau", "pair": "2,1", "map": {"v": "w", "z": "u"}}]
    for order, second, first in ((taus, "2,1", "1,2"),
                                 (taus[::-1], "1,2", "2,1")):
        doc["payload"]["arrows"][2:] = order
        assert structural_error(tmp_path, capsys, doc) == (
            "glueforge: structural error: tau for pair %r is not the inverse "
            "of the tau for pair %r\n" % (second, first))


def test_a_repeated_diagonal_tau_is_structural(tmp_path, capsys):
    tau = {"kind": "tau", "pair": "1,1", "map": {"a": "a"}}
    doc = split_pair_doc([tau, dict(tau)])
    doc["payload"]["objects"]["1,1"] = ["a"]
    assert structural_error(tmp_path, capsys, doc) == (
        "glueforge: structural error: tau for pair '1,1' is given twice\n")


def test_both_spellings_of_a_nonsplit_pair_are_structural(tmp_path, capsys):
    doc = golden_colimit_doc()
    objects = doc["payload"]["objects"]
    # "2,1" names the object "1,2" names; the later entry would win
    for first, second in (("1,2", "2,1"), ("2,1", "1,2")):
        entries = {k: v for k, v in objects.items() if k != "1,2"}
        entries.update({first: objects["1,2"], second: ["o1_2_0", "extra"]})
        doc["payload"]["objects"] = entries
        assert structural_error(tmp_path, capsys, doc) == (
            "glueforge: structural error: objects entries %r and %r name the "
            "same index object\n" % (first, second))


@pytest.mark.parametrize("mode, key", [("nonsplit", "4"), ("split", "4"),
                                       ("split", "1,4")])
def test_an_objects_entry_off_the_index_is_structural(tmp_path, capsys, mode,
                                                      key):
    doc = golden_colimit_doc()
    payload = doc["payload"]
    if mode == "split":
        doc = split_pair_doc([{"kind": "tau", "pair": "1,2",
                               "map": {"u": "v"}}])
        payload = doc["payload"]
    payload["objects"][key] = ["stray"]
    assert structural_error(tmp_path, capsys, doc) == (
        "glueforge: structural error: objects entry %r names no index "
        "object\n" % key)


def golden_doc(name):
    with open(os.path.join(os.path.dirname(GOLDEN_COLIMIT), name + ".json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def with_entry(entries, key, value, before):
    """``entries`` with ``key: value`` added as the first or the last entry."""
    added = {key: value}
    return dict(added, **entries) if before else dict(entries, **added)


def respelling_error(tmp_path, capsys, command, doc, before, original,
                     respelled, entries, what):
    """Run ``command`` on ``doc``, which holds ``respelled`` beside
    ``original``, and check the error names both, in document order."""
    path = write_doc(tmp_path, doc, "respelled.json")
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first, second = (respelled, original) if before else (original, respelled)
    assert captured.err == (
        "glueforge: structural error: %s entries %r and %r name the same %s\n"
        % (entries, first, second, what))


@pytest.mark.parametrize("before", [False, True])
def test_both_spellings_of_a_refinement_component_are_structural(
        tmp_path, capsys, before):
    doc = golden_doc("refine-limit")
    payload = doc["payload"]
    # a 3-cycle where "1,2" is the identity; the later entry would win
    payload["components"] = with_entry(
        payload["components"], "2,1", {"k0": "k1", "k1": "k2", "k2": "k0"},
        before)
    respelling_error(tmp_path, capsys, "refine", doc, before, "1,2", "2,1",
                     "components", "index object")


@pytest.mark.parametrize("before", [False, True])
def test_both_spellings_of_a_sections_key_are_structural(tmp_path, capsys,
                                                         before):
    doc = golden_doc("check-sheaf")
    body = doc["payload"]["presheaf"]
    body["sections"] = with_entry(
        body["sections"], "p0,p1",
        body["sections"]["p1,p0"] + ["p1=v2;p0=v0"], before)
    respelling_error(tmp_path, capsys, "check-sheaf", doc, before, "p1,p0",
                     "p0,p1", "sections", "open set")


@pytest.mark.parametrize("before", [False, True])
def test_both_spellings_of_a_restrictions_key_are_structural(tmp_path, capsys,
                                                             before):
    doc = golden_doc("check-sheaf")
    body = doc["payload"]["presheaf"]
    body["restrictions"] = with_entry(
        body["restrictions"], "p0,p1>p0",
        dict.fromkeys(body["restrictions"]["p1,p0>p0"], "p0=v0"), before)
    respelling_error(tmp_path, capsys, "check-sheaf", doc, before,
                     "p1,p0>p0", "p0,p1>p0", "restrictions", "inclusion")


@pytest.mark.parametrize("before", [False, True])
def test_both_spellings_of_a_transition_component_are_structural(
        tmp_path, capsys, before):
    doc = golden_doc("glue-sheaves")
    node = doc["payload"]["transitions"][0]
    # "," spells the empty open as "" does
    node["components"] = with_entry(node["components"], ",", {"()": "()"},
                                    before)
    respelling_error(tmp_path, capsys, "glue-sheaves", doc, before, "", ",",
                     "components", "open set")


@pytest.mark.parametrize("before", [False, True])
def test_both_spellings_of_a_glue_map_part_are_structural(tmp_path, capsys,
                                                          before):
    doc = golden_doc("glue-map")
    parts = doc["payload"]["glue_map"]["parts"]
    parts["c0"] = with_entry(parts["c0"], "p0,p1", parts["c0"]["p1,p0"],
                             before)
    respelling_error(tmp_path, capsys, "glue-map", doc, before, "p1,p0",
                     "p0,p1", "parts", "open set")


@pytest.mark.parametrize("before", [False, True])
def test_repeated_chart_is_refused_before_any_body_is_parsed(tmp_path, capsys,
                                                             before):
    doc = golden_doc("glue-sheaves")
    charts = doc["payload"]["charts"]
    # the first c0's local body names p0, which the other chart lacks
    charts.insert(0 if before else 1, {"name": "c0", "members": ["p1"]})
    path = write_doc(tmp_path, doc, "charts.json")
    assert main(["glue-sheaves", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "glueforge: structural error: chart 'c0' is listed twice\n")


@pytest.mark.parametrize("members", [["p1", "p0"], ["p1"]])
@pytest.mark.parametrize("before", [False, True])
def test_repeated_glue_map_chart_is_refused_before_any_part_is_parsed(
        tmp_path, capsys, members, before):
    doc = golden_doc("glue-map")
    charts = doc["payload"]["glue_map"]["charts"]
    # an identical copy of c0 would glue to the golden report, and c0's part
    # names the open p1,p0, which a c0 on p1 alone lacks
    charts.insert(0 if before else 1, {"name": "c0", "members": members})
    path = write_doc(tmp_path, doc, "charts.json")
    assert main(["glue-map", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "glueforge: structural error: chart 'c0' is listed twice\n")


@pytest.mark.parametrize("command, what", [("glue-sheaves", "locals"),
                                           ("glue-map", "parts")])
@pytest.mark.parametrize("before", [False, True])
def test_an_entry_that_names_no_chart_is_structural(tmp_path, capsys,
                                                    command, what, before):
    doc = golden_doc(command)
    holder = doc["payload"].get("glue_map", doc["payload"])
    # a copy of a listed chart's entry, which would otherwise be dropped
    holder[what] = with_entry(holder[what], "zz",
                              copy.deepcopy(holder[what]["c0"]), before)
    path = write_doc(tmp_path, doc, "unknown-chart.json")
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "glueforge: structural error: %s entry 'zz' names no chart\n" % what)


def discrete_object(points):
    return {"points": points,
            "opens": [[]] + [[p] for p in points] + [points]}


def test_equal_objects_in_one_sink_document_share_one_space():
    payload = {"ambient": "top", "target": discrete_object(["a", "b"]),
               "sources": [{"name": "u", "object": discrete_object(["a"]),
                            "map": {"a": "a"}},
                           {"name": "v", "object": discrete_object(["b"]),
                            "map": {"b": "b"}}],
               "tests": [{"object": discrete_object(["a"]),
                          "map": {"a": "b"}},
                         {"object": discrete_object(["a", "b"]),
                          "map": {"a": "a", "b": "b"}}]}
    sink, tests, _ = cli.parse_sink(payload)
    (_, u, _), (_, v, _) = sink.sources
    (first, _), (second, _) = tests
    assert first is u
    assert second is sink.target_space
    assert second.carrier is sink.target
    assert v is not u
    # another document builds its spaces anew
    again, _, _ = cli.parse_sink(payload)
    assert again.target_space is not sink.target_space
    assert again.target_space == sink.target_space


def test_equal_points_with_other_opens_give_two_spaces():
    points = ["a", "b"]
    sierpinski = {"points": points, "opens": [[], ["a"], ["a", "b"]]}
    payload = {"ambient": "top", "target": sierpinski,
               "sources": [{"name": "u", "object": discrete_object(points),
                            "map": {"a": "a", "b": "b"}}]}
    sink, _, _ = cli.parse_sink(payload)
    (_, u, _), = sink.sources
    assert u.carrier is sink.target
    assert u is not sink.target_space
    assert u != sink.target_space
    assert label_nbhd(u) == {"a": {"a"}, "b": {"b"}}
    assert label_nbhd(sink.target_space) == {"a": {"a"}, "b": {"a", "b"}}


@pytest.mark.parametrize("command, name", [("check-cover", "check-cover-top"),
                                           ("check-site", "check-site-top")])
def test_a_document_sink_map_that_is_not_continuous_is_structural(
        tmp_path, capsys, command, name):
    # the sinks a check builds are trusted; a document's own are not
    doc = golden_doc(name)
    sink = doc["payload"] if command == "check-cover" \
        else doc["payload"]["coverings"][0]
    # the source u0 made indiscrete: its map, an inclusion, sends the
    # neighbourhood {r, b0_0} of r outside r's neighbourhood {r}
    source = sink["sources"][0]
    assert source["name"] == "u0" and ["r"] in sink["target"]["opens"]
    source["object"]["opens"] = [[], source["object"]["points"]]
    path = write_doc(tmp_path, doc, "discontinuous.json")
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("glueforge: structural error: map is not "
                            "continuous at 'r'\n")


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exhaustive_covers_are_listed_only_to_the_counterexample(
        tmp_path, capsys, n):
    # the constant presheaf fails on the empty cover of the empty open, the
    # first covering listed; listing every covering of the whole space first
    # would take 2 ** (2 ** n) families
    doc = benchmark_docs().sheaf_doc(random.Random(1), "discrete", n, 2,
                                     constant=True)
    path = write_doc(tmp_path, doc)
    argv = ["check-sheaf", "--covers", "exhaustive", "--input", path]
    assert main(argv + ["--cap", str(2 ** n)]) == 1
    counter = {"open": "", "parts": [], "sections": ["c0", "c1"]}
    assert json.loads(capsys.readouterr().out) == {
        "artifacts": {}, "command": "check-sheaf",
        "diagnostics": {"separation_counterexample": counter,
                        "sheaf_counterexample": {**counter,
                                                 "kind": "separation"}},
        "verdicts": {"separated": False, "sheaf": False}}
