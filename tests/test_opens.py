"""Each space lists its opens and their maximal proper opens once, without
changing what the cap refuses or what equality sees; documents name opens
through a table of canonical keys that answers as ``_parse_openkey`` does;
a presheaf command lists the opens of its document space once and of no
other space, and finds their maximal proper opens once; and the lattice of
the opens inside an open U is that of the subspace on U."""

import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge import cli, fincat
from glueforge.cli import Document, execute, load_document, render_report
from glueforge.errors import ResourceError, StructuralError, budget
from glueforge.fincat import FinSet, FinTop
from glueforge.presheaf import OpenLattice

from fixtures import (
    benchmark_docs,
    benchmark_items,
    chain_space,
    close_family,
    materialized,
    seeded,
    subspace,
)
from oracles import maximal_proper_by_frozensets, opens_by_frozensets


@st.composite
def small_spaces(draw):
    """A space of one to five points whose opens close a few random sets."""
    carrier = FinSet(["p%d" % k for k in range(draw(st.integers(1, 5)))])
    seeds = draw(st.lists(st.lists(st.booleans(), min_size=len(carrier),
                                   max_size=len(carrier)), max_size=4))
    return FinTop(carrier, close_family(carrier, [
        frozenset(x for x, keep in zip(carrier, bits) if keep)
        for bits in seeds]))


def listing(space, cap):
    """The opens of ``space`` under ``cap``, or what the refusal says."""
    with budget(cap):
        try:
            return space.opens
        except ResourceError as err:
            return str(err), err.size, err.cap


def copy_of(space):
    return FinTop.from_nbhd(space.carrier, space.rows)


def test_kept_opens_are_charged_again_on_every_access():
    refused = []

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(small_spaces(), st.integers(0, 40))
    def check(space, cap):
        opens = space.opens    # listed under the default cap, and kept
        again = listing(space, cap)
        assert again == listing(copy_of(space), cap)
        # a listing refused once is refused again, and is not kept
        fresh = copy_of(space)
        assert listing(fresh, cap) == again
        assert listing(fresh, cap) == again
        assert fresh.opens == opens
        refused.append(isinstance(again[0], str))

    check()
    assert refused.count(True) >= 20
    assert refused.count(False) >= 20


def test_kept_opens_and_maximal_opens_leave_the_value_alone():
    space = chain_space(["a", "b", "c"])
    space.opens
    space.maximal_masks()
    fresh = chain_space(["a", "b", "c"])
    assert space == fresh and fresh == space
    assert hash(space) == hash(fresh)
    for name in ("carrier", "rows", "_opens", "_open_sets", "_maximal"):
        with pytest.raises(AttributeError, match="FinTop is immutable"):
            setattr(space, name, None)


def test_kept_lattices_leave_the_value_alone_and_charge_every_ask():
    space = chain_space(["a", "b", "c"])
    lat, low = OpenLattice(space), OpenLattice(space, space.mask(["c"]))
    assert OpenLattice(space) is lat and OpenLattice(space, lat.top) is lat
    assert OpenLattice(space, space.mask(["c"])) is low and low != lat
    fresh = chain_space(["a", "b", "c"])
    assert space == fresh and hash(space) == hash(fresh)
    assert OpenLattice(fresh) == lat and OpenLattice(fresh) is not lat
    with pytest.raises(AttributeError, match="FinTop is immutable"):
        setattr(space, "_kept", None)
    # a kept lattice charges the listing of the space's opens again
    with budget(2), pytest.raises(ResourceError):
        OpenLattice(space)


def test_a_presheaf_command_lists_each_point_set_once(monkeypatch):
    listed = []
    list_opens = fincat._list_opens

    def counted(space, what):
        listed.append(frozenset(space.carrier.labels))
        return list_opens(space, what)

    parsed = []
    parse_openkey = cli._parse_openkey

    def parsed_key(key, lattice):
        parsed.append(key)
        return parse_openkey(key, lattice)

    monkeypatch.setattr(fincat, "_list_opens", counted)
    monkeypatch.setattr(cli, "_parse_openkey", parsed_key)
    commands = set()
    for _, item in benchmark_items(["sheaf-checks"]):
        listed.clear()
        doc = load_document(io.StringIO(json.dumps(item["doc"])))
        render_report(execute(item["command"], doc, item["flags"]))
        # the document space only: every lattice is one of its opens
        assert listed == [frozenset(item["doc"]["payload"]["space"]
                                    ["points"])], item["name"]
        commands.add(item["command"])
    assert commands == {"check-sheaf", "glue-sheaves", "glue-map"}
    # every key the benchmark writes is canonical, so none is parsed
    assert parsed == []


def test_a_presheaf_command_finds_each_space_s_maximal_opens_once(
        monkeypatch):
    found = []
    maximal_proper = fincat._maximal_proper

    def counted(space, opens):
        found.append(frozenset(space.carrier.labels))
        return maximal_proper(space, opens)

    monkeypatch.setattr(fincat, "_maximal_proper", counted)
    asked = 0
    for _, item in benchmark_items(["sheaf-checks"]):
        found.clear()
        doc = load_document(io.StringIO(json.dumps(item["doc"])))
        render_report(execute(item["command"], doc, item["flags"]))
        assert len(found) == len(set(found)), item["name"]
        asked += len(found)
    assert asked > 0


def test_kept_maximal_opens_are_those_of_a_fresh_space():
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(small_spaces())
    def check(space):
        kept = space.maximal_masks()
        assert space.maximal_masks() is kept
        fresh = copy_of(space)
        assert fresh.maximal_masks() == kept
        assert list(kept) == list(space.open_masks())
        for u, maximal in kept.items():
            # the open sets properly inside u with no open set between them
            inside = [w for w in kept if w != u and w | u == u]
            assert maximal == [w for w in inside if not any(
                w != c and w | c == c for c in inside)]

    check()


# keys spelled in every way a document may spell them

SPELLINGS = ["canonical", "permuted", "doubled comma", "leading comma",
             "trailing comma", "repeated point", "empty", "subset",
             "unknown point"]


def respelled(draw, key, points):
    """``key``, the canonical key of an open, spelled another way or
    replaced by a key of any set of points, open or not, known or not."""
    pts = [p for p in key.split(",") if p]
    kind = draw(st.sampled_from(SPELLINGS))
    if kind == "permuted":
        return ",".join(draw(st.permutations(pts)))
    if kind == "doubled comma":
        return ",,".join(pts)
    if kind == "leading comma":
        return "," + key
    if kind == "trailing comma":
        return key + ","
    if kind == "repeated point":
        return ",".join(pts + pts[:1])
    if kind == "empty":
        return ""
    if kind == "subset":
        return ",".join(p for p in points if draw(st.booleans()))
    if kind == "unknown point":
        return ",".join(pts + ["zz"])
    return key


def outcome(thunk):
    try:
        return thunk()
    except StructuralError as err:
        return "refused", str(err)


@st.composite
def respelled_documents(draw):
    """A benchmark presheaf document of one of the three presheaf commands
    with one open key respelled, the lattice the key names an open of, and
    the old and new key."""
    docs = benchmark_docs()
    rng = seeded(draw(st.integers(0, 10 ** 6)))
    shape = draw(st.sampled_from(["discrete", "chain", "sierpinski"]))
    n = draw(st.integers(1, 3))
    command = draw(st.sampled_from(["check-sheaf", "glue-sheaves",
                                    "glue-map"]))
    if command == "check-sheaf":
        doc = docs.sheaf_doc(rng, shape, n, 2)
    elif command == "glue-sheaves":
        # three charts on the whole space, or one per maximal point
        charts = docs._triple_whole if draw(st.booleans()) \
            else docs._open_charts
        doc, _ = docs.gluing_datum(rng, shape, n, 2, charts)
        if not doc["payload"]["transitions"]:
            doc, _ = docs.gluing_datum(rng, shape, n, 2, docs._triple_whole)
    else:
        doc, _ = docs.glue_map_doc(rng, shape, n, 2, 2)
    payload = doc["payload"]
    _, space = cli.parse_object(payload["space"], "top")
    lattice = OpenLattice(space)
    points = list(space.carrier)
    if command == "check-sheaf":
        keys = sorted(payload["presheaf"]["sections"])
        payload["coverings"] = [{"open": k, "parts": [k]} for k in keys]
        where = draw(st.sampled_from(["sections", "restrictions",
                                      "coverings"]))
        if where == "sections":
            table = payload["presheaf"]["sections"]
        elif where == "restrictions":
            table = payload["presheaf"]["restrictions"]
        else:
            node = draw(st.sampled_from(payload["coverings"]))
            old = node["open"]
            new = respelled(draw, old, points)
            if draw(st.booleans()):
                node["open"] = new
            else:
                node["parts"] = [new]
            return command, doc, lattice, old, new
    elif command == "glue-sheaves":
        node = draw(st.sampled_from(payload["transitions"]))
        table = node["components"]
        members = {c["name"]: c["members"] for c in payload["charts"]}
        lattice = OpenLattice(space, space.mask(
            set(members[node["from"]]) & set(members[node["to"]])))
    else:
        name = draw(st.sampled_from(sorted(payload["glue_map"]["parts"])))
        table = payload["glue_map"]["parts"][name]
        members = {c["name"]: c["members"]
                   for c in payload["glue_map"]["charts"]}
        lattice = OpenLattice(space, space.mask(members[name]))
    key = draw(st.sampled_from(sorted(table)))
    if ">" in key:
        sides = key.split(">")
        side = draw(st.integers(0, 1))
        old = sides[side]
        sides[side] = new = respelled(draw, old, points)
        table[">".join(sides)] = table.pop(key)
    else:
        old = key
        new = respelled(draw, key, points)
        table[new] = table.pop(key)
    return command, doc, lattice, old, new


def test_key_table_answers_as_the_key_parser():
    seen = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(respelled_documents())
    def check(case):
        command, doc, lattice, old, new = case
        assert outcome(lambda: cli._lookup_openkey(new, lattice)) == \
            outcome(lambda: cli._parse_openkey(new, lattice))
        document = Document("presheaf" if command != "glue-sheaves"
                            else "gluing-datum", doc["payload"], "1")
        with_table = outcome(
            lambda: materialized(execute(command, document, {})))
        with mock.patch.object(cli, "_lookup_openkey", cli._parse_openkey):
            parsed = outcome(
                lambda: materialized(execute(command, document, {})))
        assert with_table == parsed
        seen.append((command, new == old, isinstance(parsed, tuple)))

    check()
    for command in ("check-sheaf", "glue-sheaves", "glue-map"):
        respelled_ones = [r for c, same, r in seen if c == command and not same]
        assert respelled_ones.count(True) >= 10, command
        assert respelled_ones.count(False) >= 10, command


@st.composite
def spaces_with_an_open(draw):
    """A small space and the mask of one of its opens."""
    space = draw(small_spaces())
    return space, draw(st.sampled_from(space.open_masks()))


def test_the_lattice_below_an_open_is_the_subspace_s():
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(spaces_with_an_open())
    def check(case):
        space, top = case
        lat = OpenLattice(space, top)
        sub = subspace(space, space.points(top))
        opens = opens_by_frozensets(sub)[0]
        assert [frozenset(space.points(o)) for o in lat.opens] == list(opens)
        expected = maximal_proper_by_frozensets(sub, opens)
        assert [(frozenset(space.points(u)),
                 [frozenset(space.points(w)) for w in maximal])
                for u, maximal in lat.maximal()] == list(expected.items())
        assert [(lat.key(w), lat.key(v)) for w, v in lat.pairs_below()] == [
            (",".join(sub.points(w)), ",".join(sub.points(v)))
            for w, v in OpenLattice(sub).pairs_below()]

    check()
