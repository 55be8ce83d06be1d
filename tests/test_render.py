"""The report emitter writes what ``json.dumps(report, sort_keys=True,
indent=2)`` writes, on generated reports and on every report of the
benchmark's seed-1 documents, tuples written as arrays as json.dumps writes
them and each ``LabelMap`` or ``Classes`` record as the dict it stands for
(``fixtures.materialized``), and refuses any type a report cannot hold."""

import gc
import io
import json
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glueforge import cli
from glueforge.cli import Classes, LabelMap, execute, load_document, \
    render_report
from glueforge.errors import GlueforgeError

from fixtures import benchmark_items, materialized


def dumped(report):
    return json.dumps(materialized(report), sort_keys=True, indent=2) + "\n"


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
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.dictionaries(TEXT, NODES, max_size=5))
def test_emitter_matches_json_dumps(report):
    assert render_report(report) == dumped(report)


# containers the emitter writes in bulk, each with one foreign member
# planted at a random position, or none
FOREIGN = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.just([]), st.just(()), st.just({}),
                    st.lists(TEXT, max_size=2),
                    st.lists(TEXT, max_size=2).map(tuple),
                    st.dictionaries(TEXT, TEXT, max_size=2))


@st.composite
def planted(draw, members):
    """A list of ``members``, maybe with one foreign member planted."""
    items = draw(st.lists(members, max_size=12))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(FOREIGN))
    return items


STRING_LISTS = planted(TEXT)
STRING_TUPLES = STRING_LISTS.map(tuple)
NON_EMPTY_STRING_LISTS = st.lists(TEXT, min_size=1, max_size=6)
# dicts of lists only, of tuples only, or of both, each maybe with a
# foreign value
LISTS_OF_STRING_LISTS = st.dictionaries(
    TEXT, st.one_of(NON_EMPTY_STRING_LISTS, STRING_LISTS, FOREIGN),
    max_size=8)
LISTS_OF_STRING_TUPLES = st.dictionaries(
    TEXT, st.one_of(NON_EMPTY_STRING_LISTS.map(tuple), STRING_TUPLES,
                    FOREIGN), max_size=8)
LISTS_OF_MIXED_STRING_SEQUENCES = st.dictionaries(
    TEXT, st.one_of(NON_EMPTY_STRING_LISTS, NON_EMPTY_STRING_LISTS.map(tuple),
                    FOREIGN), max_size=8)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(STRING_LISTS, STRING_TUPLES, LISTS_OF_STRING_LISTS,
                 LISTS_OF_STRING_TUPLES, LISTS_OF_MIXED_STRING_SEQUENCES,
                 st.lists(STRING_LISTS, max_size=4),
                 st.lists(STRING_TUPLES, max_size=4).map(tuple)))
def test_emitter_matches_json_dumps_on_homogeneous_containers(node):
    report = {"a": node, "b": {"c": node}}
    assert render_report(report) == dumped(report)


@pytest.mark.parametrize("report", [
    {}, {"a": []}, {"a": {}}, {"a": [[], {}, [{}]]}, {"": ""},
    {"b": 1, "a": True, "c": None, "d": False, "e": -0, "f": 10 ** 30},
    {"z": {"y": [1, "x", {"w": [None]}]}, "Z": "é \U0001f600"},
    # dicts of string lists, some of them with other values too
    {"a": {"b": ["x"], "c": []}}, {"a": {"b": ["x"], "c": "y"}},
    {"a": {"b": ["x"], "c": [["y"]]}}, {"a": {"b": ["x", "y"], "c": None}},
    # tuples are arrays, also beside lists in one dict
    {"a": (1, 2)}, {"a": [{"b": ("c",)}]}, {"a": {"b": ["x", ("y",)]}},
    {"a": ()}, {"a": {"b": ("x",), "c": ["y", "z"]}},
    {"a": {"b": ["x"], "c": ("y", "z")}}, {"a": {"b": ("x",), "c": ()}},
])
def test_emitter_matches_json_dumps_on_edge_cases(report):
    assert render_report(report) == dumped(report)


@pytest.mark.parametrize("report", [
    {"a": 1.0},
    {"a": [1, 0.5]},
    {"a": ("x", 0.5)},
    {("a",): "b"},
    {1: "a"},
    {"a": {None: 1}},
    {"a": [{True: 1}]},
    {"a": {"b", "c"}},
    # containers that start as the emitter's bulk paths expect
    {"a": ["x", 0.5]},
    {"a": {"b": ("x",), "c": ("y", 1.5)}},
    {"a": {"b": ["x"], "c": [1.5]}},
    {"a": {"b": ["x"], 2: ["y"]}},
    {"a": ["x", type("Text", (str,), {})("y")]},
    {"a": {"b": ("x",), "c": ["y"], "d": (1.5,)}},
    {"a": {"b": ("x", type("Text", (str,), {})("y"))}},
])
def test_emitter_refuses_what_a_report_cannot_hold(report):
    with pytest.raises(TypeError):
        render_report(report)


# one string of each escape class: a quote, a backslash, control
# characters, DEL, non-ASCII text, an astral character, a lone surrogate
NON_PLAIN = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\x80", "é", "\u2028",
             "\U0001f600", "\ud800"]


def one_non_plain(bad):
    """Containers of strings and records, holding plain strings, empty ones
    among them, and the one string ``"a" + bad`` as a key or as a value or
    member: the list that the emitter writes in bulk, dicts of strings, of
    string tuples and of string lists, which it writes one entry at a
    time, and each record with the string in its domain, its
    codomain or a merged class."""
    odd = "a" + bad
    return [
        ["", "x y", odd, "z"],
        {"": "v", odd: "", "z": "w"},
        {"": "", "k": odd, "z": "w"},
        {odd: ("x",), "": ("", "y"), "z": ("w",)},
        {"k": ["x", odd], "": [""], "z": ["w"]},
        LabelMap(("z", odd, ""), [1, 0, 1], ("v", "")),
        LabelMap(("z", "y", ""), [1, 0, 1], ("v", odd)),
        Classes(("z", odd, ""), {"z": ["z", "y"]}),
        Classes(("z", "x", ""), {"z": ["z", odd, "y"]}),
    ]


@pytest.mark.parametrize("bad", NON_PLAIN)
def test_emitter_escapes_the_one_string_that_needs_it(bad):
    for node in one_non_plain(bad):
        report = {"a": node, "b": {"c": node}}
        assert render_report(report) == dumped(report), (bad, node)


# plain strings only, so a bulk container is written by its joins
PLAIN_TEXT = st.text(st.sampled_from(list("ab zZ09~'/|,:")), max_size=6)
BULK_SHAPES = ["list", "tuple", "label map", "classes"]
# what sits beside a nested container; at least one sibling keeps each
# level off the bulk paths
SIBLINGS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                     PLAIN_TEXT)


@st.composite
def bulk_container(draw):
    """A container or record the emitter writes in bulk, of plain strings
    or with one key or member made non-plain."""
    shape = draw(st.sampled_from(BULK_SHAPES))
    keys = draw(st.lists(PLAIN_TEXT, min_size=1, max_size=6, unique=True))
    texts = draw(st.lists(PLAIN_TEXT, min_size=len(keys),
                          max_size=len(keys)))
    if draw(st.booleans()):
        pool = keys if shape != "list" and shape != "tuple" \
            and draw(st.booleans()) else texts
        pool[draw(st.integers(0, len(pool) - 1))] = \
            "a" + draw(st.sampled_from(NON_PLAIN))
    if shape == "list":
        return texts
    if shape == "tuple":
        return tuple(texts)
    if shape == "label map":
        return LabelMap(tuple(keys), list(range(len(keys)))[::-1],
                        tuple(texts))
    # classes: one merged class, the first key with the texts
    return Classes(tuple(keys), {keys[0]: [keys[0]] + texts})


@st.composite
def nested_bulk(draw):
    """A bulk container 3 to 5 levels deep inside generic lists, tuples
    and dicts, each level with siblings before or after it."""
    node = draw(bulk_container())
    for _ in range(draw(st.integers(3, 5))):
        siblings = draw(st.lists(SIBLINGS, min_size=1, max_size=3))
        siblings.insert(draw(st.integers(0, len(siblings))), node)
        wrap = draw(st.sampled_from(["list", "tuple", "dict"]))
        if wrap == "dict":
            keys = draw(st.lists(PLAIN_TEXT, min_size=len(siblings),
                                 max_size=len(siblings), unique=True))
            node = dict(zip(keys, siblings))
        else:
            node = siblings if wrap == "list" else tuple(siblings)
    return node


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(nested_bulk(), min_size=1, max_size=3))
def test_emitter_matches_json_dumps_on_deeply_nested_bulk_containers(nodes):
    report = {"a": nodes, "b": {"c": nodes[0], "d": 1}}
    assert render_report(report) == dumped(report)


@pytest.mark.parametrize("bad", [1.5, type("Text", (str,), {})("y")])
def test_a_value_refused_deep_inside_leaves_no_partial_text(
        bad, monkeypatch, capsys, tmp_path):
    """Large valid parts come first and the refused value sits five levels
    down: rendering raises and nothing is written."""
    big = {"k%05d" % n: ["m%d" % n, "x"] for n in range(5000)}
    report = {"a": {"big": big, "list": [list(big), {
        "deep": [{"z": ("x", [big, {"y": ["x", bad]}])}]}]}}
    with pytest.raises(TypeError):
        render_report(report)
    monkeypatch.setattr(cli, "load_document", lambda source: None)
    monkeypatch.setattr(cli, "execute", lambda *args: report)
    out = tmp_path / "report.json"
    for argv in (["glue"], ["glue", "--output", str(out)]):
        with pytest.raises(TypeError):
            cli.main(argv)
    assert capsys.readouterr().out == ""
    assert not out.exists()


def plain_by_scans(text):
    """The plain test as three scans: printable ASCII, no quote, no
    backslash."""
    return text.isascii() and text.isprintable() and '"' not in text \
        and "\\" not in text


# a plain text longer than any that ``_plain`` decides by scans
PAD = "a ~!#$%&'()*+,-./0123456789:;<=>?@[]^_`{|}" * 3


def test_plain_agrees_with_the_scans_on_every_code_point():
    assert len(PAD) >= 64 and plain_by_scans(PAD) and cli._plain(PAD)
    for text in map(chr, range(0x110000)):
        for padded in (text, PAD + text):
            assert cli._plain(padded) == plain_by_scans(padded), \
                (padded[-1], len(padded))


@pytest.mark.parametrize("bad", NON_PLAIN + ["\x01", "\x1b", "\x7e\x7f", "\xff",
                                             "\x85", "\u00a0"])
@pytest.mark.parametrize("size", [63, 64, 65, 1000, 1300000])
def test_plain_finds_one_bad_character_in_a_long_text(bad, size):
    plain = (PAD * (size // len(PAD) + 1))[:size]
    assert cli._plain(plain)
    for at in (0, size // 2, size):
        text = plain[:at] + bad + plain[at:]
        assert not plain_by_scans(text)
        assert not cli._plain(text), (bad, size, at)


def test_plain_containers_are_written_without_encoding_a_string(monkeypatch):
    def refuse(text):
        raise AssertionError("encoded %r" % text)

    plain = [["", "x y", "~!#$%&'()*+,-./:;<=>?@[]^_`{|}", "z"],
             ("",),
             LabelMap(("k", "", "z"), [0, 1, 1], ("v", "w")),
             Classes(("k", "", "z"), {"z": ["z", "y", "x"]})]
    expected = list(map(dumped, plain))
    monkeypatch.setattr(cli, "_encode_str", refuse)
    assert list(map(render_report, plain)) == expected


@pytest.mark.parametrize("report", [
    {"a": {1: "x"}}, {"a": {None: ""}}, {"a": {("k",): "x"}},
    {"a": {2: ["y"]}}, {"a": {1.5: ("x", "y")}},
])
def test_plain_path_refuses_a_key_that_is_not_a_string(report):
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


def test_largest_glue_report_builds_no_container_per_apex_label():
    """The largest seed-1 ``colimit-atlas`` glue report holds its classes
    and each leg as a record over the engine's tables, not as a dict.  With
    the collector off, its generation-0 count is the number of containers
    made and not freed: ``execute`` leaves fewer than half as many as the
    apex has labels (the lists of the merged classes among them), and
    rendering at most one, as before the records.  One container per apex
    label, such as a one-label tuple per class, would leave at least as
    many as there are labels."""
    items = [item for _, item in benchmark_items(["colimit-atlas"])
             if item["command"] == "glue"]
    item = max(items, key=lambda item: len(json.dumps(item["doc"])))
    doc = load_document(io.StringIO(json.dumps(item["doc"])))
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        report = execute("glue", doc, item["flags"])
        made = gc.get_count()[0] - before
        render_report(report)
        rendered = gc.get_count()[0] - before - made
    finally:
        gc.enable()
    artifacts = report["artifacts"]
    apex = artifacts["apex_size"]
    assert apex >= 5000 and type(artifacts["classes"]) is Classes
    assert {type(leg) for leg in artifacts["glued"]["legs"].values()} \
        == {LabelMap}
    assert made < apex // 2, (made, apex)
    assert rendered <= 1, rendered


@st.composite
def glue_records(draw):
    """The records of a glue report on one side: a leg between the apex
    and a carrier (into the apex on the colimit side, out of it on the
    limit side), an empty leg, and the apex's classes.  At most one string
    drawn from ``CHARS`` goes into the leg's domain only, its codomain only
    (at a label the leg hits), or one merged class's member only (not its
    name); the place and the string are returned with the report."""
    side = draw(st.sampled_from(["colimit", "limit"]))
    where = draw(st.sampled_from([None, "domain", "codomain", "member"]))
    apex = draw(st.lists(PLAIN_TEXT, min_size=where is not None, max_size=6,
                         unique=True))
    carrier = draw(st.lists(PLAIN_TEXT, min_size=bool(apex), max_size=6,
                            unique=True))
    domain, codomain = (carrier, apex) if side == "colimit" \
        else (apex, carrier)
    if not codomain:
        domain.clear()    # no map into the empty set but the empty one
    table = draw(st.lists(st.integers(0, max(len(codomain) - 1, 0)),
                          min_size=len(domain), max_size=len(domain)))
    odd = None
    if where == "domain" or where == "codomain":
        odd = draw(st.text(CHARS, min_size=1, max_size=4))
        labels = domain if where == "domain" else codomain
        assume(odd not in labels)
        k = draw(st.integers(0, len(labels) - 1))
        labels[k] = odd
        if where == "codomain":
            table[draw(st.integers(0, len(table) - 1))] = k
    names = draw(st.lists(st.sampled_from(apex), unique=True,
                          min_size=where == "member", max_size=3)) \
        if apex else []
    merged = {}
    for name in names:
        tails = draw(st.lists(PLAIN_TEXT, min_size=1, max_size=3,
                              unique=True))
        merged[name] = [name] + [name + "/" + t for t in tails]
    if where == "member":
        members = merged[names[0]]
        odd = names[0] + "/" + draw(st.text(CHARS, min_size=1, max_size=4))
        assume(odd not in members)
        members[-1] = odd
    for name in names:
        merged[name] = draw(st.permutations(merged[name]))
    apex, domain, codomain = tuple(apex), tuple(domain), tuple(codomain)
    report = {"command": "glue", "artifacts": {
        "classes": Classes(apex, merged),
        "glued": {"side": side, "apex": apex, "legs": {
            "1": LabelMap(domain, table, codomain),
            "1,2": LabelMap((), [], codomain)}}}}
    return report, where, odd


def test_records_match_json_dumps_of_the_materialized_report():
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(glue_records())
    def check(case):
        report, where, odd = case
        assert render_report(report) == dumped(report)
        seen[(report["artifacts"]["glued"]["side"], where,
              odd is None or plain_by_scans(odd))] += 1

    check()
    # 400 draws: none drawn 35 colimit and 44 limit; in the domain 41 plain
    # and 12 not, 21 and 27; in the codomain 28 and 33, 30 and 24; in a
    # member 37 and 19, 12 and 37
    for side in ("colimit", "limit"):
        assert seen[(side, None, True)] >= 20, seen
        for where in ("domain", "codomain", "member"):
            assert seen[(side, where, True)] >= 3, seen
            assert seen[(side, where, False)] >= 5, seen
