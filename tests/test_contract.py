"""The 0/1/2 exit contract of ``cli.main`` on mutated golden documents and
seed-1 benchmark documents, and how many times one command checks its
gluing data, builds continuous maps and reads its chart data."""

import contextlib
import copy
import io
import json
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge import cli, fincat, gluing, presheaf, site

from fixtures import benchmark_items, indexed, item_argv

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "golden")

with open(os.path.join(CORPUS, "manifest.json"), encoding="utf-8") as handle:
    CASES = json.load(handle)


def golden_doc(name):
    with open(os.path.join(CORPUS, name + ".json"), encoding="utf-8") as h:
        return json.load(h)


DOCS = {case["name"]: golden_doc(case["name"]) for case in CASES}

# (argv, document) of each seed-1 benchmark item
BENCHMARK = [(item_argv(item), item["doc"]) for _, item in benchmark_items()]

# labels that mean something to some document: index elements and pairs,
# element labels of the generated charts, enum values, a reserved character
LABELS = ["", "0", "1", "2", "3", "1,2", "2,1", "1,1", "x1_0", "k0", "a",
          "edge", "tau", "sets", "top", "split", "nonsplit", "from-overlaps",
          "toward-overlaps", "x|y"]


# the longest stderr line: prefix, the cut text and the mark of its length
STDERR_BOUND = len("glueforge: structural error: ") + cli.ERROR_TEXT_LIMIT \
    + len("... [cut, %d characters in all]\n" % 10 ** 12)


def run(argv, doc):
    """Exit code, stdout and stderr of ``cli.main`` with ``doc`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def containers(node):
    """Every dict and list in a document, outermost first."""
    found = [node]
    children = node.values() if isinstance(node, dict) else node
    for child in children:
        if isinstance(child, (dict, list)):
            found += containers(child)
    return found


def mutate(doc, draw):
    """Apply one mutation in place: drop a key, copy a key's value under a
    label, replace a string (a value or a key) with a label, or drop or
    append an array item.  Does nothing when the document has no place for
    the drawn kind."""
    kind = draw(st.sampled_from(["drop key", "duplicate key", "replace",
                                 "drop item", "append item"]))
    nodes = containers(doc)
    if kind in ("drop key", "duplicate key"):
        places = [n for n in nodes if isinstance(n, dict) and n]
    elif kind == "replace":
        places = [(n, k) for n in nodes
                  for k in (n if isinstance(n, dict) else range(len(n)))
                  if isinstance(n[k], str)]
        places += [(n, k) for n in nodes if isinstance(n, dict) for k in n]
    elif kind == "drop item":
        places = [n for n in nodes if isinstance(n, list) and n]
    else:
        places = [n for n in nodes if isinstance(n, list)]
    if not places:
        return
    place = draw(st.sampled_from(places))
    label = draw(st.sampled_from(LABELS))
    if kind == "drop key":
        del place[draw(st.sampled_from(sorted(place)))]
    elif kind == "duplicate key":
        key = draw(st.sampled_from(sorted(place)))
        place[label] = copy.deepcopy(place[key])
    elif kind == "replace":
        node, key = place
        if isinstance(node[key], str):
            node[key] = label
        else:
            node[label] = node.pop(key)
    elif kind == "drop item":
        del place[draw(st.integers(0, len(place) - 1))]
    else:
        place.append(copy.deepcopy(draw(st.sampled_from(place))) if place
                     else label)


def check_contract(argv, doc, mutations, cap, draws):
    """Mutate a copy of ``doc`` and check the exit contract on it."""
    doc = copy.deepcopy(doc)
    for _ in range(mutations):
        mutate(doc, draws.draw)
    code, out, err = run(argv + ["--cap", str(cap)], doc)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("glueforge: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err) <= STDERR_BOUND
    else:
        assert err == ""
        assert code == cli.report_exit_code(json.loads(out))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(CASES), st.integers(1, 3), st.integers(1, 1000),
       st.data())
def test_exit_contract_holds_on_mutated_golden_documents(case, mutations, cap,
                                                         draws):
    check_contract(case["argv"], DOCS[case["name"]], mutations, cap, draws)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(BENCHMARK), st.integers(1, 3), st.integers(1, 1000),
       st.data())
def test_exit_contract_holds_on_mutated_benchmark_documents(item, mutations,
                                                            cap, draws):
    argv, doc = item
    check_contract(argv, doc, mutations, cap, draws)


GLUING_DATA_CHECKS = [
    ("glue-delta", 1),            # the document's data; no pulled-back data
    ("hom", 1),
    ("check-effective-sets", 1),
    ("check-cover-sets", 0),      # sinks are decided by certificate
    ("check-cover-top", 0),
    ("compose", 0),
]


# named by the case alone, so that a moved count keeps the test's name
@pytest.mark.parametrize("name, checks", GLUING_DATA_CHECKS,
                         ids=[case[0] for case in GLUING_DATA_CHECKS])
def test_gluing_data_is_checked_once_where_it_is_built(monkeypatch, name,
                                                       checks):
    seen = []
    real = gluing.validate_gluing_data

    def counted(data):
        seen.append(data)
        return real(data)

    # every module that holds the name, so that an import of it elsewhere
    # is counted too
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("glueforge") and \
                getattr(module, "validate_gluing_data", None) is real:
            monkeypatch.setattr(module, "validate_gluing_data", counted)
    case = next(c for c in CASES if c["name"] == name)
    code, _, _ = run(case["argv"], DOCS[name])
    assert code == case["exit"]
    assert len(seen) == checks


MAPS_BUILT = [
    # the data's arrows are checked continuous on their tables, and the
    # legs are built continuous: 8, 8, 2 and 18 when each arrow was a TopMap
    ("glue-top-charts", 0),
    ("glue-top-discrete", 0),
    ("glue-top-limit", 0),
    ("check-effective-top-e4", 0),
    # the document sink's maps and the site's morphisms and declared sinks'
    # maps are checked continuous on their tables: 2 and 8 when each was a
    # TopMap; none for the candidate sinks, which are keyed, not built
    ("check-cover-top", 0),
    ("check-site-top", 0),
]


# named by the case alone, so that a moved count keeps the test's name
@pytest.mark.parametrize("name, built", MAPS_BUILT,
                         ids=[case[0] for case in MAPS_BUILT])
def test_maps_are_validated_once_where_they_are_built(monkeypatch, name,
                                                      built):
    callers = []
    real = fincat.TopMap.__init__

    def counted(self, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        real(self, *args)

    monkeypatch.setattr(fincat.TopMap, "__init__", counted)
    case = next(c for c in CASES if c["name"] == name)
    code, _, _ = run(case["argv"], DOCS[name])
    assert code == case["exit"]
    assert not {"colimit_glue", "limit_glue",
                "effective_gluing_check"} & set(callers)
    assert len(callers) == built


CHART_READS = [
    # every ordered pair and triple of charts: 24 constraints, 21 calls
    ("glue-sheaves", 0, 12),
    # every ordered pair and triple of charts: 18 constraints, 81 calls
    ("glue-sheaves-broken", 3, 29),
]


# named by the case alone, so that a moved count keeps the test's name
@pytest.mark.parametrize("name, constraints, calls", CHART_READS,
                         ids=[case[0] for case in CHART_READS])
def test_chart_data_is_read_per_unordered_pair_and_triple(monkeypatch, name,
                                                          constraints, calls):
    # the constraints handed to the join, and the composite tables built
    # from chart data: transitions, their inverses and the restrictions in
    # their naturality squares, not the local presheaf laws
    handed, composed = [], []
    real_tuples, real_compose = presheaf.compatible_tuples, \
        presheaf.compose

    def tuples(domains, cons, what):
        handed.extend(cons)
        return real_tuples(domains, cons, what)

    def composite(first, then):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_uncomposed":
            composed.append(caller)
        return real_compose(first, then)

    monkeypatch.setattr(presheaf, "compatible_tuples", tuples)
    monkeypatch.setattr(presheaf, "compose", composite)
    case = next(c for c in CASES if c["name"] == name)
    code, _, _ = run(case["argv"], DOCS[name])
    assert code == case["exit"]
    assert (len(handed), len(composed)) == (constraints, calls)


def test_glue_documents_build_no_apex_index(monkeypatch):
    """The apex of a colimit is built with no position index, and the 24
    seed-1 ``colimit-atlas`` ``glue`` documents report it without building
    one.  The two ``refine`` documents build none either, since the
    induced map is a table; they built one in each apex while it was a
    checked ``FinFn``."""
    apexes = []
    real = gluing.quotient_by_pairs

    def recorded(labels, pairs):
        result = real(labels, pairs)
        apexes.append(result[0])
        return result

    monkeypatch.setattr(gluing, "quotient_by_pairs", recorded)
    built = {}
    for _, item in benchmark_items(["colimit-atlas"]):
        apexes.clear()
        code, out, _ = run(item_argv(item), item["doc"])
        assert code == 0 and out, item["name"]
        assert apexes, item["name"]
        built.setdefault(item["command"], []).append(
            sum(map(indexed, apexes)))
    assert built["glue"] == [0] * 24
    assert built["refine"] == [0, 0]


def test_overlap_maps_are_built_once_per_check(monkeypatch):
    handed = []
    real = gluing._overlap_maps

    def recorded(data):
        handed.append(real(data))
        return handed[-1]

    for module in (gluing, site):
        monkeypatch.setattr(module, "_overlap_maps", recorded)
    case = next(c for c in CASES if c["name"] == "check-effective-sets")
    code, _, _ = run(case["argv"], DOCS[case["name"]])
    assert code == case["exit"]
    # the glue, the relation pairs and the check each ask; one list answers
    assert len(handed) == 3
    assert all(maps is handed[0] for maps in handed)


def test_glue_sheaves_lists_the_document_space_first():
    # each chart's lattice is the opens of the document space inside it, so
    # the first listing refused is the document space's: it used to be the
    # first chart's own subspace, "opens of a 2-point space would enumerate
    # 3 items, above the cap of 2"
    code, out, err = run(["glue-sheaves", "--cap", "2"], DOCS["glue-sheaves"])
    assert (code, out) == (2, "")
    assert err == ("glueforge: resource error: opens of a 3-point space would "
                   "enumerate 3 items, above the cap of 2\n")


def test_one_lattice_is_built_per_space_and_open_per_document(monkeypatch):
    """Each lattice of opens is built once per space and top and kept with
    the space: the 36 seed-1 ``sheaf-checks`` documents build 69 lattices,
    where building one at every use made 267."""
    built = []
    real = presheaf.OpenLattice._build

    def counted(cls, space, top, masks):
        built.append((space, top))
        return real(space, top, masks)

    monkeypatch.setattr(presheaf.OpenLattice, "_build", classmethod(counted))
    total = 0
    for _, item in benchmark_items(["sheaf-checks"]):
        built.clear()
        code, out, _ = run(item_argv(item), item["doc"])
        assert code in (0, 1) and out, item["name"]
        assert len(built) == len({(id(space), top) for space, top in built})
        total += len(built)
    assert total == 69


def test_coverings_with_no_constraint_left_list_no_families(monkeypatch):
    """A covering with no constraint left is decided by counting, and its
    families are listed without the join only to name a counterexample: the
    36 seed-1 ``sheaf-checks`` documents hand the join 15 coverings, each
    with a constraint, and list 30 families, where listing every covering's
    families made 247 calls, 232 of them unconstrained, listing 1,174."""
    calls = []
    real = presheaf.compatible_tuples

    def listed(domains, cons, what):
        families = real(domains, cons, what)
        if what == "families over a covering":
            calls.append((len(cons), len(families)))
        return families

    monkeypatch.setattr(presheaf, "compatible_tuples", listed)
    for _, item in benchmark_items(["sheaf-checks"]):
        code, out, _ = run(item_argv(item), item["doc"])
        assert code in (0, 1) and out, item["name"]
    assert len(calls) == 15 and all(cons for cons, _ in calls)
    assert sum(n for _, n in calls) == 30


def test_gluing_payloads_are_read_with_no_checked_map(monkeypatch):
    """The seed-1 gluing payloads of ``limit-sets``, ``top-spaces`` and
    ``colimit-atlas`` are read into position tables: ``parse_gluing``
    builds no checked ``FinFn``, where it built 370, 150 and 556 (the swaps'
    inverses among them) when each map was read into one.  A refinement's
    own gamma and component maps, read around its two gluing payloads, are
    tables too, where they were 14 checked maps on each list that holds
    refinements."""
    inside = []
    built = {"gluing": 0, "refinement": 0}
    real_init = fincat.FinFn.__init__
    real_gluing = cli.parse_gluing
    real_refinement = cli.parse_refinement

    def counted(self, *args):
        if inside:
            built[inside[-1]] += 1
        real_init(self, *args)

    def within(kind, parse):
        def parsed(*args):
            inside.append(kind)
            try:
                return parse(*args)
            finally:
                inside.pop()
        return parsed

    monkeypatch.setattr(fincat.FinFn, "__init__", counted)
    monkeypatch.setattr(cli, "parse_gluing", within("gluing", real_gluing))
    monkeypatch.setattr(cli, "parse_refinement",
                        within("refinement", real_refinement))
    for workload in ("limit-sets", "top-spaces", "colimit-atlas"):
        built.update(gluing=0, refinement=0)
        for _, item in benchmark_items([workload]):
            code, out, _ = run(item_argv(item), item["doc"])
            assert code in (0, 1) and out, item["name"]
        assert built == {"gluing": 0, "refinement": 0}, workload


def test_no_command_builds_a_label_to_label_map(monkeypatch):
    """Inside ``cli.execute`` and ``cli.render_report`` no ``FinFn`` and no
    ``TopMap`` is built, checked or not, on every seed-1 list and on the
    golden documents: every map a command reads or builds is a position
    table.  While the legs of a glued object were ``FinFn``s, a delta map
    and an induced map checked ones, and a delta check pulled the legs back
    by ``fincat.pullback``, one seed-1 pass built 292 on ``limit-sets``,
    150 on ``top-spaces`` and 442 on ``colimit-atlas`` (none on
    ``sheaf-checks``), and the golden documents 104.  Before that,
    ``parse_sink``, ``parse_site`` and ``parse_refinement`` read each map
    into a checked one: ``limit-sets`` built 68, 34 and 14 ``FinFn``s in
    them, ``top-spaces`` 42 and 16 ``FinFn``s and 33 and 16 ``TopMap``s in
    the first two, and ``colimit-atlas`` 14 in the last."""
    inside = []
    built = {}

    def counting(cls, name, kind=lambda f: f):
        real = getattr(cls, name)

        def counted(*args):
            if inside:
                built[inside[-1]] = built.get(inside[-1], 0) + 1
            return real(*args)
        monkeypatch.setattr(cls, name, kind(counted))

    def within(name):
        real = getattr(cli, name)

        def run_inside(*args):
            inside.append(where)
            try:
                return real(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(cli, name, run_inside)

    counting(fincat.FinFn, "__init__")
    counting(fincat.FinFn, "from_total", staticmethod)
    counting(fincat.TopMap, "__init__")
    for name in ("execute", "render_report"):
        within(name)
    where = None
    ran = set()
    for workload, item in benchmark_items():
        where = workload
        code, out, _ = run(item_argv(item), item["doc"])
        assert code in (0, 1) and out, item["name"]
        ran.add(item["command"])
    where = "golden"
    for case in CASES:
        code, _, _ = run(case["argv"], DOCS[case["name"]])
        assert code == case["exit"], case["name"]
        ran.add(case["argv"][0])
    assert ran == set(cli.COMMAND_KINDS)
    assert built == {}
