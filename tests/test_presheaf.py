from collections import Counter
from itertools import combinations
from itertools import product as iproduct
from math import prod
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glueforge.cli import Document, execute
from glueforge.errors import ResourceError, StructuralError, budget
from glueforge.fincat import FinFn, FinSet, FinTop, TopMap, compatible_tuples
from glueforge.presheaf import (
    GluingDatum,
    NatTrans,
    OpenLattice,
    PresheafStore,
    all_coverings,
    basic_coverings,
    default_coverings,
    glue_nat_trans,
    glue_presheaves,
    is_separated,
    is_sheaf,
    presheaf_effective_check,
    restrict,
    sheaf_verdicts,
    validate_presheaf,
)

from fixtures import (
    chain_space,
    close_family,
    constant_fn,
    constant_presheaf,
    discrete_space,
    function_presheaf,
    identities,
    identity_fn,
    label_components,
    label_datum,
    label_nbhd,
    label_store,
    nat_trans_problems,
    presheaf_doc,
    seeded,
    space_from_nbhd,
    store_from_labels,
    table,
)
from oracles import (
    cocycle_by_ordered_triples,
    coverings_listed_eagerly,
    glued_components_by_candidates,
    glued_restrictions_componentwise,
    glued_sections_by_ordered_pairs,
    gluing_datum_problems,
    presheaf_law_problems,
    sheaf_verdicts_by_every_constraint,
    unnatural_pairs,
)
from paper import canonical_presheaf_functor, direct_image


def sierpinski():
    c = FinSet(["0", "1"])
    return FinTop(c, [frozenset(), frozenset(["1"]), frozenset(["0", "1"])])


def two_point_discrete():
    return discrete_space(FinSet(["p", "q"]))


def test_function_presheaf_is_valid():
    store = function_presheaf(sierpinski(), {"0": ["a", "b"], "1": ["a", "b"]})
    assert validate_presheaf(store) == []


def test_validation_names_broken_identity():
    space = sierpinski()
    lat = OpenLattice(space)
    two = FinSet(["a", "b"])
    sections = {o: two for o in lat.opens}
    res = {(w, v): identity_fn(two) for w, v in lat.pairs_below()}
    full = space.mask(["0", "1"])
    res[(full, full)] = FinFn(two, two, {"a": "b", "b": "a"})
    store = store_from_labels(lat, sections, res)
    problems = validate_presheaf(store)
    assert any("not the identity" in p for p in problems)


def test_validation_names_one_broken_composition():
    # on the chain 0 < 01 < 012 only the triple through 01 sees a restriction
    # 012 -> 0 that flips the value at 0; the identities all hold
    chain = FinSet(["0", "1", "2"])
    space = FinTop(chain, [frozenset(chain.labels[:k]) for k in range(4)])
    store = function_presheaf(space, {"0": ["a", "b"], "1": ["a"], "2": ["a"]})
    full, low = space.mask(chain), space.mask(["0"])
    view = label_store(store)
    res = dict(view.res)
    res[(full, low)] = FinFn(view.sections[full], view.sections[low],
                             {"0=a;1=a;2=a": "0=b", "0=b;1=a;2=a": "0=a"})
    broken = store_from_labels(store.lattice, view.sections, res)
    assert validate_presheaf(broken) == [
        "restriction composition ['0', '1', '2'] -> ['0', '1'] -> ['0'] "
        "disagrees with the direct map"]
    assert presheaf_law_problems(label_store(broken)) \
        == validate_presheaf(broken)


def test_validation_sees_a_broken_composition_through_each_maximal_open():
    # the whole discrete space on 0, 1, 2 has three maximal proper opens;
    # only the triple through the last, {1, 2}, sees a restriction onto it
    # that flips the value at 2
    space = discrete_space(FinSet(["0", "1", "2"]))
    store = function_presheaf(space, {"0": ["a"], "1": ["a"], "2": ["a", "b"]})
    full, last = space.mask(["0", "1", "2"]), space.mask(["1", "2"])
    view = label_store(store)
    res = dict(view.res)
    res[(full, last)] = FinFn(view.sections[full], view.sections[last],
                              {"0=a;1=a;2=a": "1=a;2=b",
                               "0=a;1=a;2=b": "1=a;2=a"})
    broken = store_from_labels(store.lattice, view.sections, res)
    assert validate_presheaf(broken) == [
        "restriction composition ['0', '1', '2'] -> ['1', '2'] -> ['2'] "
        "disagrees with the direct map"]
    assert presheaf_law_problems(label_store(broken)) \
        == validate_presheaf(broken)


@st.composite
def restriction_systems(draw):
    """A function presheaf on a space of one to four points, with up to three
    restriction maps (identities included) into section sets of two or more
    rewired to random maps between the same section sets."""
    carrier = FinSet(["p%d" % k for k in range(draw(st.integers(1, 4)))])
    seeds = draw(st.lists(st.lists(st.booleans(), min_size=len(carrier),
                                   max_size=len(carrier)), max_size=3))
    space = FinTop(carrier, close_family(carrier, [
        frozenset(x for x, keep in zip(carrier, bits) if keep)
        for bits in seeds]))
    store = label_store(function_presheaf(space, {
        p: ["a", "b"][:draw(st.integers(1, 2))] for p in carrier}))
    res = dict(store.res)
    pairs = [(w, v) for w, v in store.lattice.pairs_below()
             if len(store.sections[v]) > 1]
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        w, v = draw(st.sampled_from(pairs))
        target = store.sections[v].labels
        res[(w, v)] = FinFn(store.sections[w], store.sections[v], {
            s: draw(st.sampled_from(target)) for s in store.sections[w]})
    return store_from_labels(store.lattice, store.sections, res)


def test_validation_matches_the_triple_oracle():
    broken = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(restriction_systems())
    @example(constant_presheaf(sierpinski(), ["a", "b"]))
    def check(store):
        problems = validate_presheaf(store)
        assert problems == presheaf_law_problems(label_store(store))
        broken.append(bool(problems))

    check()
    assert broken.count(True) >= 100


@st.composite
def presheaves_to_decide(draw):
    """A presheaf on a space of one to four points: a function presheaf,
    or a sub-presheaf of one (sections dropped at random, then every section
    with a dropped restriction too), with one section duplicated at an
    open that is not a minimal neighbourhood in about a third of the cases.
    The duplicate restricts as its original does and no restriction reaches
    it, so the laws hold and the joint restriction along the basic cover of
    that open is not injective."""
    carrier = FinSet(["p%d" % k for k in range(draw(st.integers(1, 4)))])
    seeds = draw(st.lists(st.lists(st.booleans(), min_size=len(carrier),
                                   max_size=len(carrier)), max_size=4))
    space = FinTop(carrier, close_family(carrier, [
        frozenset(x for x, keep in zip(carrier, bits) if keep)
        for bits in seeds]))
    full = label_store(function_presheaf(space, {
        p: ["a", "b"][:draw(st.integers(1, 2))] for p in carrier}))
    lat = full.lattice
    kept = {}
    for o in lat.opens:    # by size, so every smaller open comes first
        labels = full.sections[o].labels
        dropped = draw(st.sets(st.sampled_from(labels))) \
            if draw(st.booleans()) else set()
        kept[o] = [s for s in labels if s not in dropped
                   and all(full.res[(o, v)].mapping[s] in kept[v]
                           for v in lat.opens if v != o and not v & ~o)]
    basics = {space.mask(u) for u in label_nbhd(space).values()}
    doubled = [o for o in lat.opens if o not in basics and kept[o]]
    twin = None
    if doubled and draw(st.integers(0, 2)) == 0:
        twin = draw(st.sampled_from(doubled))
        original = draw(st.sampled_from(kept[twin]))
    sections = {o: FinSet(kept[o] + ["twin"] * (o == twin))
                for o in lat.opens}
    res = {}
    for w, v in lat.pairs_below():
        mapping = {s: full.res[(w, v)].mapping[s] for s in kept[w]}
        if w == twin:
            mapping["twin"] = "twin" if v == w else mapping[original]
        res[(w, v)] = FinFn(sections[w], sections[v], mapping)
    return store_from_labels(lat, sections, res)


def test_basic_verdicts_match_every_covering():
    kinds = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(presheaves_to_decide())
    @example(constant_presheaf(sierpinski(), ["a", "b"]))
    @example(function_presheaf(discrete_space(FinSet(["0", "1", "2"])),
                               {"0": ["a", "b"], "1": ["a"], "2": ["a", "b"]}))
    def check(store):
        assert validate_presheaf(store) == []
        lat = store.lattice
        basic = basic_coverings(lat)
        every = list(all_coverings(lat))
        separated = is_separated(store, every)
        sheaf = is_sheaf(store, every)
        assert is_separated(store, basic)[0] == separated[0]
        assert is_sheaf(store, basic)[0] == sheaf[0]
        listed = default_coverings(lat)
        doc = Document("presheaf", presheaf_doc(store)["payload"], "1")
        for covers, flags, scans in (
                ("default", {}, (is_separated(store, listed),
                                 is_sheaf(store, listed))),
                ("exhaustive", {"covers": "exhaustive"}, (separated, sheaf))):
            report = execute("check-sheaf", doc, flags)
            (sep, sep_counter), (glued, counter) = scans
            assert report["verdicts"] == {"separated": sep, "sheaf": glued}
            assert report["diagnostics"] == {
                "separation_counterexample": described(store, sep_counter),
                "sheaf_counterexample": described(store, counter)}, covers
        kinds.append((separated[0], sheaf[0]))

    check()
    assert kinds.count((False, False)) >= 20
    assert kinds.count((True, False)) >= 20
    assert kinds.count((True, True)) >= 20


def described(store, counter):
    """A counterexample of ``is_separated`` or ``is_sheaf`` as ``check-sheaf``
    reports it."""
    return reported(store.lattice, in_labels(store, counter))


def reported(lat, counter):
    """A counterexample with its sections named by labels, as
    ``check-sheaf`` reports it."""
    if counter is None:
        return None
    return dict(counter, open=lat.key(counter["open"]),
                parts=[lat.key(v) for v in counter["parts"]],
                **{name: list(counter[name]) for name in ("sections", "family")
                   if name in counter})


def in_labels(store, counter):
    """A counterexample of the engine with its sections named by their
    labels, as the oracles name them."""
    if counter is None:
        return None
    out = dict(counter)
    if "sections" in counter:
        over = store.sections[counter["open"]]
        out["sections"] = tuple(over[s] for s in counter["sections"])
    if "family" in counter:
        out["family"] = tuple(store.sections[v][x] for v, x in zip(
            counter["parts"], counter["family"]))
    return out


def labelled(store, verdicts):
    """The verdicts of ``is_separated``, ``is_sheaf`` or ``sheaf_verdicts``
    with their counterexamples ``in_labels``."""
    return tuple(in_labels(store, v) if isinstance(v, dict) else v
                 for v in verdicts)


def test_basic_coverings_of_small_spaces():
    # the Sierpinski space: {1} is the neighbourhood of 1 and {0, 1} that
    # of 0, so only the empty open needs a cover
    assert basic_coverings(OpenLattice(sierpinski())) == [(0, [])]
    # the discrete space on p, q: the whole space is covered by the points
    space = two_point_discrete()
    p, q = space.mask(["p"]), space.mask(["q"])
    assert basic_coverings(OpenLattice(space)) == [(0, []), (p | q, [p, q])]
    # the chain 0 < 01 < 012 with a point 3 beside it: the neighbourhood {0}
    # of 0 is below that of 1, so only the maximal ones are parts
    space = space_from_nbhd(FinSet(["0", "1", "2", "3"]), {
        "0": frozenset("0"), "1": frozenset("01"), "2": frozenset("012"),
        "3": frozenset("3")})
    covers = dict(basic_coverings(OpenLattice(space)))
    assert covers[space.mask("013")] == [space.mask("3"), space.mask("01")]
    assert covers[space.mask("03")] == [space.mask("0"), space.mask("3")]
    assert space.mask("012") not in covers


def test_constant_presheaf_valid():
    assert validate_presheaf(constant_presheaf(sierpinski(), ["a", "b"])) == []


def test_function_presheaf_is_separated_and_sheaf_everywhere():
    space = two_point_discrete()
    store = function_presheaf(space, {"p": ["a", "b"], "q": ["x", "y", "z"]})
    covers = list(all_coverings(store.lattice))
    flag, counter = is_separated(store, covers)
    assert flag and counter is None
    flag, counter = is_sheaf(store, covers)
    assert flag and counter is None


def test_constant_presheaf_fails_empty_cover():
    store = constant_presheaf(sierpinski(), ["a", "b"])
    covers = default_coverings(store.lattice)
    flag, counter = is_separated(store, covers)
    assert flag is False
    assert set(in_labels(store, counter)["sections"]) == {"a", "b"}
    flag, counter = is_sheaf(store, covers)
    assert flag is False
    assert counter["kind"] == "separation"


def test_trivial_cover_only_is_always_separated():
    store = constant_presheaf(sierpinski(), ["a", "b"])
    full = store.lattice.space.mask(["0", "1"])
    flag, _ = is_separated(store, [(full, [full])])
    assert flag is True


def test_terminal_presheaf_is_sheaf():
    store = constant_presheaf(sierpinski(), ["*"])
    covers = default_coverings(store.lattice)
    flag, _ = is_sheaf(store, covers)
    assert flag is True


def test_sheaf_check_cost_follows_the_families_not_the_product():
    # the maximal-proper cover of the 5-point discrete space, and the full
    # covering of the 6-point chain, each have a product of 2**20 candidate
    # families above the default cap; only 32 and 64 of them are compatible
    points = FinSet(["0", "1", "2", "3", "4"])
    store = function_presheaf(discrete_space(points),
                              {p: ["a", "b"] for p in points})
    assert is_sheaf(store, default_coverings(store.lattice)) == (True, None)
    chain = FinSet(["0", "1", "2", "3", "4", "5"])
    space = FinTop(chain, [frozenset(chain.labels[:k]) for k in range(7)])
    store = function_presheaf(space, {p: ["a", "b"] for p in chain})
    assert is_sheaf(store, all_coverings(store.lattice)) == (True, None)


def test_non_covering_input_rejected():
    space = sierpinski()
    store = constant_presheaf(space, ["a"])
    with pytest.raises(StructuralError):
        is_separated(store, [(space.mask(["0", "1"]), [space.mask(["1"])])])


def test_direct_image_identity():
    space = sierpinski()
    store = function_presheaf(space, {"0": ["a"], "1": ["a", "b"]})
    ident = TopMap(identity_fn(space.carrier), space, space)
    moved = direct_image(ident, store)
    assert moved.sections == store.sections


def test_direct_image_to_point_is_global_sections():
    space = two_point_discrete()
    store = function_presheaf(space, {"p": ["a", "b"], "q": ["x"]})
    pt = discrete_space(FinSet(["*"]))
    collapse = TopMap(FinFn(space.carrier, pt.carrier,
                            {"p": "*", "q": "*"}), space, pt)
    moved = direct_image(collapse, store)
    assert moved.sections[pt.mask(["*"])] \
        == store.sections[space.mask(["p", "q"])]


def test_direct_image_composition_on_random_spaces():
    rng = seeded(41)
    for _ in range(15):
        n1 = rng.randint(1, 3)
        x = discrete_space(FinSet(["x%d" % k for k in range(n1)]))
        y = discrete_space(FinSet(["y%d" % k
                                   for k in range(rng.randint(1, 3))]))
        z = discrete_space(FinSet(["z%d" % k
                                   for k in range(rng.randint(1, 3))]))
        g = TopMap(FinFn(x.carrier, y.carrier,
                         {p: rng.choice(y.carrier.labels) for p in x.carrier}),
                   x, y)
        f = TopMap(FinFn(y.carrier, z.carrier,
                         {p: rng.choice(z.carrier.labels) for p in y.carrier}),
                   y, z)
        store = function_presheaf(x, {p: ["a", "b"] for p in x.carrier})
        fg = TopMap(g.fn.then(f.fn), x, z)
        lhs = direct_image(fg, store)
        rhs = direct_image(f, direct_image(g, store))
        assert lhs.sections == rhs.sections
        assert lhs.res == rhs.res


def test_restrict_full_and_empty():
    space = sierpinski()
    store = function_presheaf(space, {"0": ["a"], "1": ["a", "b"]})
    same = restrict(store, space.mask(["0", "1"]))
    assert same.sections == store.sections
    empty = restrict(store, 0)
    assert list(empty.lattice.opens) == [0]
    assert len(empty.sections[0]) == 1


def test_restrict_open_point():
    space = sierpinski()
    store = function_presheaf(space, {"0": ["a", "b"], "1": ["x", "y"]})
    sub = restrict(store, space.mask(["1"]))
    assert len(sub.sections[space.mask(["1"])]) == 2
    with pytest.raises(StructuralError):
        restrict(store, space.mask(["0"]))


def chart_datum(space, charts, stalks, twists=None):
    """Gluing datum with function-presheaf locals and pointwise transitions,
    the charts given by the labels of their points.

    ``twists`` maps (i, j, point) to a stalk permutation dict; the default is
    the identity on every overlap point.  A diagonal transition is listed
    only where ``twists`` names one of its points, and is the identity
    otherwise.
    """
    charts = [(name, space.mask(m)) for name, m in charts]
    locals_ = {}
    for name, members in charts:
        locals_[name] = function_presheaf(
            space, {p: stalks[p] for p in space.points(members)}, members)
    transitions = {}
    names = [name for name, _ in charts]
    lookup = dict(charts)
    for a in names:
        for b in names:
            if a == b and not any(k[:2] == (a, a) for k in twists or {}):
                continue
            comp = {}
            for o in OpenLattice(space, lookup[a] & lookup[b]).opens:
                pts = space.points(o)
                mapping = {}
                for combo in iproduct(*[stalks[p] for p in pts]):
                    src = ";".join("%s=%s" % (p, v) for p, v in zip(pts, combo)) \
                        if pts else "()"
                    out = []
                    for p, v in zip(pts, combo):
                        tw = (twists or {}).get((a, b, p))
                        out.append((p, tw[v] if tw else v))
                    dst = ";".join("%s=%s" % (p, v) for p, v in out) \
                        if pts else "()"
                    mapping[src] = dst
                comp[o] = table(FinFn(FinSet(locals_[a].sections[o]),
                                      FinSet(locals_[b].sections[o]), mapping))
            transitions[(a, b)] = comp
    return GluingDatum(space, charts, locals_, transitions)


def test_single_chart_glue_is_the_local():
    space = sierpinski()
    datum = chart_datum(space, [("1", ["0", "1"])],
                        {"0": ["a", "b"], "1": ["x"]})
    glued, projections = glue_presheaves(datum)
    for o in glued.lattice.opens:
        assert sorted(projections["1"][o]) \
            == list(range(len(datum.locals["1"].sections[o])))


def test_two_chart_identity_transitions_give_function_presheaf():
    space = two_point_discrete()
    datum = chart_datum(space, [("1", ["p"]), ("2", ["q"])],
                        {"p": ["a", "b"], "q": ["x", "y"]})
    glued, _ = glue_presheaves(datum)
    model = function_presheaf(space, {"p": ["a", "b"], "q": ["x", "y"]})
    for o in glued.lattice.opens:
        assert len(glued.sections[o]) == len(model.sections[o])
    flag, _ = is_sheaf(glued, default_coverings(glued.lattice))
    assert flag is True


def test_swap_transition_filters_families():
    space = discrete_space(FinSet(["p"]))
    charts = [("1", ["p"]), ("2", ["p"])]
    datum = chart_datum(space, charts, {"p": ["a", "b"]},
                        twists={("1", "2", "p"): {"a": "b", "b": "a"},
                                ("2", "1", "p"): {"a": "b", "b": "a"}})
    glued, _ = glue_presheaves(datum)
    full = space.mask(["p"])
    # families (s1, s2) with swap(s1) = s2
    assert len(glued.sections[full]) == 2
    got = set(glued.sections[full])
    assert got == {"p=a|p=b", "p=b|p=a"}


def test_a_transition_component_outside_the_overlap_is_refused():
    # charts {p} and {q} overlap in the empty open only; a component at {p}
    # used to be kept and then raise a bare KeyError from ``validate``
    space = two_point_discrete()
    datum = chart_datum(space, [("1", ["p"]), ("2", ["q"])],
                        {"p": ["a", "b"], "q": ["x", "y"]})
    empty, p = 0, space.mask(["p"])
    transitions = {("1", "2"): {
        empty: datum.transitions[("1", "2")][empty],
        p: list(range(len(datum.locals["1"].sections[p])))}}
    with pytest.raises(StructuralError) as err:
        GluingDatum(space, datum.charts, datum.locals, transitions)
    assert str(err.value) == ("transition '1' -> '2' has a component at "
                              "['p'], an open outside the overlap")
    # given the other way round, it is named as given, before any inverse
    # of the components is built
    at_p = datum.locals["1"].sections[p]
    transitions = {("2", "1"): {
        empty: datum.transitions[("2", "1")][empty],
        p: [0] * len(at_p)}}
    with pytest.raises(StructuralError) as err:
        GluingDatum(space, datum.charts, datum.locals, transitions)
    assert str(err.value) == ("transition '2' -> '1' has a component at "
                              "['p'], an open outside the overlap")


def test_effective_check_identity_transitions():
    space = two_point_discrete()
    datum = chart_datum(space, [("1", ["p", "q"]), ("2", ["q"])],
                        {"p": ["a", "b"], "q": ["x", "y"]})
    _, projections = glue_presheaves(datum)
    report = presheaf_effective_check(datum, projections)
    assert report["identity_ok"] and report["cocycle_ok"]
    assert report["psi_restriction_bijective"] is True
    assert report["equivalence_holds"] is True


def broken_cocycle_datum():
    space = discrete_space(FinSet(["p"]))
    charts = [("1", ["p"]), ("2", ["p"]), ("3", ["p"])]
    swap = {"a": "b", "b": "a"}
    ident = {"a": "a", "b": "b"}
    twists = {
        ("1", "2", "p"): ident, ("2", "1", "p"): ident,
        ("2", "3", "p"): ident, ("3", "2", "p"): ident,
        ("1", "3", "p"): swap, ("3", "1", "p"): swap,
    }
    return chart_datum(space, charts, {"p": ["a", "b"]}, twists=twists)


def test_broken_cocycle_fails_both_ways():
    datum = broken_cocycle_datum()
    _, projections = glue_presheaves(datum)
    report = presheaf_effective_check(datum, projections)
    assert report["identity_ok"] is True
    assert report["cocycle_ok"] is False
    assert report["psi_restriction_bijective"] is False
    assert report["equivalence_holds"] is True


def test_two_chart_cocycle_vacuous():
    space = discrete_space(FinSet(["p"]))
    swap = {"a": "b", "b": "a"}
    datum = chart_datum(space, [("1", ["p"]), ("2", ["p"])], {"p": ["a", "b"]},
                        twists={("1", "2", "p"): swap, ("2", "1", "p"): swap})
    _, projections = glue_presheaves(datum)
    report = presheaf_effective_check(datum, projections)
    assert report["identity_ok"] is True
    assert report["cocycle_ok"] is True  # no real triple overlaps
    assert report["psi_restriction_bijective"] is True


def test_glue_nat_trans_identity_parts():
    space = two_point_discrete()
    store = function_presheaf(space, {"p": ["a", "b"], "q": ["x"]})
    charts = [("1", space.mask(["p"])), ("2", space.mask(["q"]))]
    parts = {}
    for name, members in charts:
        sub = restrict(store, members)
        parts[name] = NatTrans(sub, sub, identities(sub))
    glued = glue_nat_trans(space, charts, store, store, parts)
    assert glued.components == identities(store)


def test_glue_nat_trans_single_chart():
    space = sierpinski()
    store = function_presheaf(space, {"0": ["a"], "1": ["x", "y"]})
    charts = [("1", space.mask(["0", "1"]))]
    sub = restrict(store, space.mask(["0", "1"]))
    parts = {"1": NatTrans(sub, sub, identities(sub))}
    glued = glue_nat_trans(space, charts, store, store, parts)
    assert nat_trans_problems(glued) == []


def all_nat_trans(source, target):
    """Brute-force enumeration of every natural transformation."""
    opens = list(source.lattice.opens)
    pools = []
    for o in opens:
        pools.append([list(values) for values in iproduct(
            range(len(target.sections[o])), repeat=len(source.sections[o]))])
    out = []
    for combo in iproduct(*pools):
        cand = NatTrans(source, target, dict(zip(opens, combo)))
        if nat_trans_problems(cand) == []:
            out.append(cand)
    return out


def test_glue_nat_trans_two_charts_unique_by_enumeration():
    space = two_point_discrete()
    source = function_presheaf(space, {"p": ["a"], "q": ["x", "y"]})
    target = function_presheaf(space, {"p": ["c"], "q": ["u", "v"]})
    p, q = space.mask(["p"]), space.mask(["q"])
    charts = [("1", p), ("2", q)]
    parts = {}
    sub_s1 = restrict(source, p)
    sub_t1 = restrict(target, p)
    # each section to the one at its position
    parts["1"] = NatTrans(sub_s1, sub_t1, identities(sub_s1))
    sub_s2 = restrict(source, q)
    sub_t2 = restrict(target, q)
    parts["2"] = NatTrans(sub_s2, sub_t2, identities(sub_s2))
    glued = glue_nat_trans(space, charts, source, target, parts)
    matches = [cand for cand in all_nat_trans(source, target)
               if all(cand.components[o] == parts[name].components[o]
                      for name, members in charts
                      for o in OpenLattice(space, members).opens)]
    assert len(matches) == 1
    for o in source.lattice.opens:
        assert matches[0].components[o] == glued.components[o]


def test_glue_nat_trans_rejects_disagreeing_parts():
    space = discrete_space(FinSet(["p"]))
    store = function_presheaf(space, {"p": ["a", "b"]})
    p = space.mask(["p"])
    charts = [("1", p), ("2", p)]
    sub = restrict(store, p)
    ident = identities(sub)
    assert sub.sections[p] == ("p=a", "p=b")
    swap = {**ident, p: [1, 0]}
    parts = {"1": NatTrans(sub, sub, ident), "2": NatTrans(sub, sub, swap)}
    with pytest.raises(StructuralError) as err:
        glue_nat_trans(space, charts, store, store, parts)
    assert "disagree" in str(err.value)


def test_canonical_functor_single_chart():
    space = sierpinski()
    store = function_presheaf(space, {"0": ["a"], "1": ["x", "y"]})
    datum = canonical_presheaf_functor(store, [("1", ["0", "1"])])
    assert datum.validate() == []
    glued, _ = glue_presheaves(datum)
    for o in store.lattice.opens:
        assert len(glued.sections[o]) == len(store.sections[o])


def test_canonical_functor_of_sheaf_recovers_it():
    space = two_point_discrete()
    store = function_presheaf(space, {"p": ["a", "b"], "q": ["x"]})
    charts = [("1", ["p"]), ("2", ["q"]), ("3", ["p", "q"])]
    datum = canonical_presheaf_functor(store, charts)
    glued, _ = glue_presheaves(datum)
    # the canonical comparison (restrict a section to every chart trace) is a
    # bijection onto the glued sections at every open
    view = label_store(store)
    for o in store.lattice.opens:
        image = set()
        for s in view.sections[o]:
            traces = [view.res[(o, o & space.mask(m))].mapping[s]
                      for _, m in charts]
            image.add("|".join(traces))
        assert image == set(glued.sections[o])
        assert len(image) == len(store.sections[o])


def test_canonical_functor_of_non_separated_presheaf_differs_at_empty():
    space = discrete_space(FinSet([]))
    store = constant_presheaf(space, ["a", "b"])
    datum = canonical_presheaf_functor(store, [])
    glued, _ = glue_presheaves(datum)
    assert len(store.sections[0]) == 2
    assert len(glued.sections[0]) == 1


@st.composite
def twisted_chart_cases(draw, break_inverse=False):
    """A gluing datum of function-presheaf locals on a space of one to three
    points, covered by up to four open charts (five when the drawn ones do
    not cover), with a random stalk permutation per chart pair and overlap
    point, and the set of the kinds drawn.  Three or more charts sharing a
    point break the cocycle condition whenever their permutations do not
    compose; where three share a point with two or more values, in half the
    cases one transition is set to break it there.

    Kinds: ``"diagonal"``, one chart's transition to itself an involution
    that is not the identity; ``"both ways"``, a pair listed in both
    orientations; ``"one way"``, a pair listed one way only, the datum
    inverting it; and, only when ``break_inverse``, ``"not inverse"``, a
    pair listed both ways with a reverse that is a bijection but not the
    inverse."""
    carrier = FinSet(["p%d" % k for k in range(draw(st.integers(1, 3)))])
    seeds = draw(st.lists(st.lists(st.booleans(), min_size=len(carrier),
                                   max_size=len(carrier)), max_size=2))
    space = FinTop(carrier, close_family(carrier, [
        frozenset(x for x, keep in zip(carrier, bits) if keep)
        for bits in seeds]))
    stalks = {p: ["a", "b", "c"][:draw(st.integers(1, 3))] for p in carrier}
    opens = [o for o in space.opens if o]
    members = draw(st.lists(st.sampled_from(opens), min_size=1, max_size=4))
    if frozenset().union(*members) != frozenset(carrier):
        members.append(frozenset(carrier))
    charts = [("c%d" % k, sorted(m)) for k, m in enumerate(members)]
    kinds = set()
    twists = {}
    one_way = set()
    for a, (na, ma) in enumerate(charts):
        for nb, mb in charts[a + 1:]:
            for p in sorted(set(ma) & set(mb)):
                perm = dict(zip(stalks[p], draw(st.permutations(stalks[p]))))
                twists[(na, nb, p)] = perm
                twists[(nb, na, p)] = {v: k for k, v in perm.items()}
            if draw(st.booleans()):
                one_way.add((nb, na))
    triples = [(na, nb, nc, p)
               for (na, ma), (nb, mb), (nc, mc) in combinations(charts, 3)
               for p in sorted(set(ma) & set(mb) & set(mc))
               if len(stalks[p]) > 1]
    if triples and draw(st.booleans()):
        na, nb, nc, p = draw(st.sampled_from(triples))
        # the composite through nb after exchanging the first two values
        x, y = stalks[p][:2]
        broken = {v: twists[(nb, nc, p)][twists[(na, nb, p)][
            {x: y, y: x}.get(v, v)]] for v in stalks[p]}
        twists[(na, nc, p)] = broken
        twists[(nc, na, p)] = {v: k for k, v in broken.items()}
    if draw(st.integers(0, 3)) == 0:
        name, points = draw(st.sampled_from(charts))
        for p in points:
            if len(stalks[p]) > 1:
                x, y = draw(st.lists(st.sampled_from(stalks[p]), min_size=2,
                                     max_size=2, unique=True))
                twists[(name, name, p)] = {**{v: v for v in stalks[p]},
                                           x: y, y: x}
                kinds.add("diagonal")
    shared = [(na, nb, p) for a, (na, ma) in enumerate(charts)
              for nb, mb in charts[a + 1:]
              for p in sorted(set(ma) & set(mb)) if len(stalks[p]) > 1]
    if break_inverse and shared and draw(st.integers(0, 3)) == 0:
        na, nb, p = draw(st.sampled_from(shared))
        # the inverse after exchanging the first two values
        inverse = twists[(nb, na, p)]
        x, y = stalks[p][:2]
        twists[(nb, na, p)] = {v: inverse[{x: y, y: x}.get(v, v)]
                               for v in stalks[p]}
        one_way.discard((nb, na))
        kinds.add("not inverse")
    datum = chart_datum(space, charts, stalks, twists=twists)
    for a, (na, _) in enumerate(charts):
        for nb, _ in charts[a + 1:]:
            kinds.add("one way" if (nb, na) in one_way else "both ways")
    return GluingDatum(space, datum.charts, datum.locals,
                       {k: v for k, v in datum.transitions.items()
                        if k not in one_way}), kinds


def twisted_chart_data():
    """The datum of a ``twisted_chart_cases`` case whose transitions are
    mutually inverse."""
    return twisted_chart_cases().map(itemgetter(0))


def test_glued_presheaf_is_a_sheaf_on_every_covering():
    cocycles = []

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(twisted_chart_data())
    @example(broken_cocycle_datum())
    def check(datum):
        glued, projections = glue_presheaves(datum)
        assert validate_presheaf(glued) == []
        flag, counter = is_sheaf(glued, all_coverings(glued.lattice))
        assert flag, counter
        cocycles.append(presheaf_effective_check(datum,
                                                 projections)["cocycle_ok"])

    check()
    assert cocycles.count(False) >= 10
    assert cocycles.count(True) >= 10


def test_chart_pairs_and_triples_match_every_ordering():
    kinds = []

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(twisted_chart_cases(break_inverse=True))
    @example((broken_cocycle_datum(), {"both ways"}))
    def check(case):
        datum, drawn = case
        problems = datum.validate()
        view = label_datum(datum)
        assert problems == gluing_datum_problems(view)
        if problems:
            with pytest.raises(StructuralError) as err:
                glue_presheaves(datum)
            assert str(err.value) == \
                "invalid gluing datum: " + "; ".join(problems)
            kinds.append(drawn)
            return
        glued, projections = glue_presheaves(datum)
        assert {o: list(glued.sections[o]) for o in glued.lattice.opens} \
            == glued_sections_by_ordered_pairs(view)
        for name in datum.names():
            assert tuple(projections[name]) == \
                OpenLattice(datum.space, datum.members(name)).opens
        report = presheaf_effective_check(datum, projections)
        assert report["cocycle_ok"] == cocycle_by_ordered_triples(view)
        assert report["equivalence_holds"]
        if report["identity_ok"] and not report["cocycle_ok"]:
            drawn = drawn | {"cocycle broken on %d charts" % len(datum.charts)}
        kinds.append(drawn)

    check()
    for kind in ("diagonal", "both ways", "one way", "not inverse",
                 "cocycle broken on 3 charts", "cocycle broken on 4 charts"):
        assert sum(kind in drawn for drawn in kinds) >= 20, kind


def empty_presheaf(space):
    """The presheaf with no section at any open: its laws hold, and it is
    not a sheaf, the empty cover of the empty open having one family."""
    lat = OpenLattice(space)
    return PresheafStore(lat, {o: () for o in lat.opens},
                         {pair: [] for pair in lat.pairs_below()})


@st.composite
def presheaves_missing_a_gluing(draw):
    """A function presheaf on a space of one to four points with one section
    dropped at a nonempty open that is not a minimal neighbourhood, and
    with it every section that restricts to it.  The laws hold, the empty
    open keeps its one section, and the restrictions of the dropped section
    to the basic cover of its open are a compatible family that glues to
    nothing; with no such open the function presheaf is returned whole."""
    carrier = FinSet(["p%d" % k for k in range(draw(st.integers(1, 4)))])
    seeds = draw(st.lists(st.lists(st.booleans(), min_size=len(carrier),
                                   max_size=len(carrier)), max_size=4))
    space = FinTop(carrier, close_family(carrier, [
        frozenset(x for x, keep in zip(carrier, bits) if keep)
        for bits in seeds]))
    store = function_presheaf(space, {
        p: ["a", "b"][:draw(st.integers(1, 2))] for p in carrier})
    full = label_store(store)
    lat = full.lattice
    basics = {space.mask(u) for u in label_nbhd(space).values()}
    gaps = [o for o in lat.opens if o and o not in basics]
    if not gaps:
        return store
    gap = draw(st.sampled_from(gaps))
    dropped = draw(st.sampled_from(full.sections[gap].labels))
    sections = {o: FinSet([s for s in full.sections[o] if not (
        not gap & ~o and full.res[(o, gap)].mapping[s] == dropped)])
        for o in lat.opens}
    return store_from_labels(lat, sections, {
        (w, v): FinFn(sections[w], sections[v],
                      {s: full.res[(w, v)].mapping[s] for s in sections[w]})
        for w, v in lat.pairs_below()})


def test_constraints_through_one_section_decide_nothing():
    empties = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(presheaves_to_decide(), presheaves_missing_a_gluing()))
    @example(constant_presheaf(sierpinski(), ["a", "b"]))
    @example(empty_presheaf(sierpinski()))
    def check(store):
        lat = store.lattice
        for coverings in (default_coverings(lat), list(all_coverings(lat))):
            expected = sheaf_verdicts_by_every_constraint(label_store(store),
                                                          coverings)
            assert labelled(store, is_separated(store, coverings)) \
                == expected[:2]
            assert labelled(store, is_sheaf(store, coverings)) == expected[2:]
            assert labelled(store, sheaf_verdicts(store, lambda: coverings)) \
                == expected
        if not expected[2]:
            empties.append(len(store.sections[0]))

    check()
    for count in (0, 1, 2):    # sections at the empty open of a non-sheaf
        assert empties.count(count) >= 20, count


def dropped_at_the_top(n):
    """The function presheaf of two values per point on the discrete space
    on ``n`` points, less one section of the whole space: the laws hold,
    and only the whole space, the last open listed, fails to glue."""
    store = label_store(function_presheaf(discrete_space(FinSet(
        ["p%d" % k for k in range(n)])), {"p%d" % k: ["a", "b"]
                                          for k in range(n)}))
    lat = store.lattice
    top = lat.opens[-1]
    sections = dict(store.sections)
    sections[top] = FinSet(store.sections[top].labels[1:])
    return store_from_labels(lat, sections, {
        (w, v): FinFn(sections[w], sections[v],
                      {s: store.res[(w, v)].mapping[s] for s in sections[w]})
        for w, v in lat.pairs_below()})


def test_lazy_coverings_match_the_eager_listing():
    late = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(presheaves_to_decide(), presheaves_missing_a_gluing()))
    @example(dropped_at_the_top(3))
    @example(constant_presheaf(sierpinski(), ["a", "b"]))
    def check(store):
        lat = store.lattice
        eager = coverings_listed_eagerly(lat)
        assert list(all_coverings(lat)) == eager
        drawn = []

        def listed():
            return (drawn.append(c) or c for c in all_coverings(lat))

        verdicts = sheaf_verdicts(store, listed)
        assert labelled(store, verdicts) \
            == sheaf_verdicts_by_every_constraint(label_store(store), eager)
        # the scans share one listing and neither reads past its
        # counterexample
        read = max([eager.index((c["open"], c["parts"]))
                    for c in verdicts[1::2] if c], default=-1) + 1
        assert len(drawn) == read
        late.append(read > 1)

    check()
    assert late.count(True) >= 20


@st.composite
def restricted_to_an_open(draw, stores):
    """A presheaf of ``stores`` restricted to one of its opens, drawn from
    those of two points or more where there are any."""
    store = draw(stores)
    opens = store.lattice.opens
    return restrict(store, draw(st.sampled_from(
        [o for o in opens if o.bit_count() > 1] or opens)))


def test_oracles_agree_on_the_lattice_below_an_open():
    proper = []

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(restricted_to_an_open(restriction_systems()),
           restricted_to_an_open(st.one_of(presheaves_to_decide(),
                                           presheaves_missing_a_gluing())))
    def check(lawless, lawful):
        assert validate_presheaf(lawless) \
            == presheaf_law_problems(label_store(lawless))
        lat = lawful.lattice
        for coverings in (default_coverings(lat), list(all_coverings(lat))):
            expected = sheaf_verdicts_by_every_constraint(label_store(lawful),
                                                          coverings)
            assert labelled(lawful, sheaf_verdicts(lawful, lambda: coverings)) \
                == expected
        proper.append(lat != OpenLattice(lat.space))

    check()
    assert proper.count(True) >= 50


def test_lazy_coverings_charge_each_family_examined():
    lat = OpenLattice(discrete_space(FinSet(["0", "1", "2"])))
    # the empty open has one family, each point four, each pair sixteen
    with budget(10), pytest.raises(ResourceError) as err:
        list(all_coverings(lat))
    assert str(err.value) == ("coverings of one open would enumerate 11 "
                              "items, above the cap of 10")


# coverings with no constraint left are decided by counting their families

def clashing_at_the_count():
    """On the discrete space on p, q: two sections over the whole space,
    both restricting to (a, a), over one and two at the points.  The cover
    by the points has as many families as the space has sections, and no
    constraint, the two points meeting in the empty open; its joint
    restriction is not injective."""
    space = two_point_discrete()
    lat = OpenLattice(space)
    p, q = space.mask(["p"]), space.mask(["q"])
    return PresheafStore(lat, {0: ("()",), p: ("a", "b"), q: ("a",),
                               p | q: ("s", "t")},
                         {(p | q, p): [0, 0], (p | q, q): [0, 0],
                          (p | q, 0): [0, 0], (p, 0): [0, 0], (q, 0): [0]})


def constrained_at_the_middle():
    """Two values per point on the space 0 - 1 - 2 whose minimal
    neighbourhoods are {0, 1}, {1} and {1, 2}: the basic cover of the whole
    space meets at {1}, two sections, so a constraint is left."""
    space = space_from_nbhd(FinSet(["0", "1", "2"]), {
        "0": frozenset("01"), "1": frozenset("1"), "2": frozenset("12")})
    return function_presheaf(space, {p: ["a", "b"] for p in "012"})


def raised(run):
    """The text, size and cap of the ``ResourceError`` that ``run()``
    raises, or None."""
    try:
        run()
    except ResourceError as err:
        return str(err), err.size, err.cap
    return None


def test_counted_coverings_match_the_oracle_and_the_listing():
    outcomes = Counter()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.one_of(presheaves_to_decide(), presheaves_missing_a_gluing()))
    @example(clashing_at_the_count())
    @example(dropped_at_the_top(3))
    @example(empty_presheaf(sierpinski()))
    @example(constant_presheaf(sierpinski(), ["a"]))
    @example(constant_presheaf(sierpinski(), ["a", "b"]))
    @example(constrained_at_the_middle())
    def check(store):
        lat = store.lattice
        view = label_store(store)
        every = default_coverings(lat) + basic_coverings(lat)
        for coverings in [every] + [[c] for c in every]:
            expected = sheaf_verdicts_by_every_constraint(view, coverings)
            assert labelled(store, is_separated(store, coverings)) \
                == expected[:2]
            assert labelled(store, is_sheaf(store, coverings)) == expected[2:]
            assert labelled(store, sheaf_verdicts(store, lambda: coverings)) \
                == expected
            if coverings is every:
                continue
            u, parts = coverings[0]
            if any(len(store.sections[a & b]) > 1
                   for a, b in combinations(parts, 2)):
                outcomes["constrained"] += 1
                continue
            outcomes[expected[3]["kind"] if expected[3] else "glues"] += 1
            if not parts:
                outcomes["empty cover", len(store.sections[u])] += 1
            # the count is charged as the join charges its listing
            domains = [range(len(store.sections[v])) for v in parts]
            for k in range(1, prod(map(len, domains)) + 1):
                with budget(k):
                    counted = raised(lambda: is_sheaf(store, coverings))
                    listed = raised(lambda: compatible_tuples(
                        domains, [], "families over a covering"))
                assert counted == listed
                outcomes["raised" if counted else "passed"] += 1

    check()
    # 200 draws and the examples: 929 counted covers glue, 124 fail
    # separation and 108 gluing; 48 covers keep a constraint; the empty cover
    # meets 70, 220 and 122 empty opens of 0, 1 and 2 sections; 392 budgets
    # raise and 936 pass
    for outcome, floor in (("glues", 400), ("separation", 50),
                           ("gluing", 40), ("constrained", 20),
                           (("empty cover", 0), 25), (("empty cover", 1), 80),
                           (("empty cover", 2), 40), ("raised", 150),
                           ("passed", 400)):
        assert outcomes[outcome] >= floor, (outcome, outcomes)


def test_sheaf_preservation_on_random_data():
    rng = seeded(43)
    for _ in range(20):
        n = rng.randint(1, 3)
        pts = ["p%d" % k for k in range(n)]
        space = discrete_space(FinSet(pts))
        stalks = {p: ["s%d" % k for k in range(rng.randint(1, 2))] for p in pts}
        charts = []
        covered = set()
        for c in range(rng.randint(1, 3)):
            members = [p for p in pts if rng.random() < 0.6]
            covered.update(members)
            charts.append(("c%d" % c, members))
        missing = [p for p in pts if p not in covered]
        if missing:
            charts.append(("rest", missing))
        datum = chart_datum(space, charts, stalks)
        glued, _ = glue_presheaves(datum)
        flag, counter = is_sheaf(glued, default_coverings(glued.lattice))
        assert flag, counter
        sep, _ = is_separated(glued, default_coverings(glued.lattice))
        assert sep


# naturality decided on covering pairs, against the scan of every pair

def two_chart_swap(space, stalks, changed):
    """Two charts on the whole space with the function presheaf of
    ``stalks``, and a transition that is the identity except at the opens
    of ``changed``, where it exchanges the first two sections."""
    charts = [("1", space.carrier.labels), ("2", space.carrier.labels)]
    datum = chart_datum(space, charts, stalks)
    comp = dict(datum.transitions[("1", "2")])
    for o in changed:
        comp[o] = [1, 0] + comp[o][2:]
    return GluingDatum(space, datum.charts, datum.locals,
                       {("1", "2"): comp, ("2", "1"): comp})


def lawless_datum():
    """Two charts on the whole discrete space on p, q with one local
    presheaf whose restriction from the whole space to the empty open is
    constant while every other restriction is the identity, so composition
    fails through both points; the transition exchanges the two sections at
    every open.  It commutes with every restriction between covering pairs
    and not with the direct one from the whole space to the empty open."""
    space = two_point_discrete()
    lat = OpenLattice(space)
    two = FinSet(["0", "1"])
    res = {(w, v): identity_fn(two) for w, v in lat.pairs_below()}
    whole, empty = space.mask(["p", "q"]), 0
    res[(whole, empty)] = constant_fn(two, two, "0")
    store = store_from_labels(lat, {o: two for o in lat.opens}, res)
    swap = {o: [1, 0] for o in lat.opens}
    charts = [("1", whole), ("2", whole)]
    return GluingDatum(space, charts, {"1": store, "2": store},
                       {("1", "2"): swap, ("2", "1"): swap})


def test_lawless_locals_name_every_unnatural_pair():
    composition = ("restriction composition ['p', 'q'] -> [%r] -> [] "
                   "disagrees with the direct map")
    assert lawless_datum().validate() == [
        "chart 1: " + composition % "p", "chart 1: " + composition % "q",
        "chart 2: " + composition % "p", "chart 2: " + composition % "q",
        "transition '1' -> '2' is not natural from ['p', 'q'] to []",
        "transition '2' -> '1' is not natural from ['p', 'q'] to []"]


@st.composite
def whole_chart_data(draw):
    """Two charts on the whole of a discrete space or a chain of two or
    three points, so the overlap lattice is the space's, with a random
    stalk permutation per point as the transition."""
    labels = ["p%d" % k for k in range(draw(st.integers(2, 3)))]
    space = discrete_space(FinSet(labels)) if draw(st.booleans()) \
        else chain_space(labels)
    carrier = space.carrier
    stalks = {p: ["a", "b", "c"][:draw(st.integers(1, 3))] for p in carrier}
    twists = {}
    for p in carrier:
        perm = dict(zip(stalks[p], draw(st.permutations(stalks[p]))))
        twists[("1", "2", p)] = perm
        twists[("2", "1", p)] = {v: k for k, v in perm.items()}
    charts = [("1", carrier.labels), ("2", carrier.labels)]
    return chart_datum(space, charts, stalks, twists=twists)


@st.composite
def datum_with_one_changed_transition(draw):
    """A twisted chart datum, with the transition between two charts
    replaced, in about two thirds of the cases, by another bijection at one
    overlap open, its values shifted along the section list (its reverse by
    the inverse), which may break naturality at any pair through that
    open."""
    datum = draw(st.one_of(twisted_chart_data(), whole_chart_data()))
    transitions = {k: dict(v) for k, v in datum.transitions.items()}
    pairs = [(a, b, o) for (a, b), comp in sorted(datum.transitions.items(),
                                                  key=repr)
             if a != b for o in comp if len(comp[o]) > 1]
    if pairs and draw(st.integers(0, 2)):
        a, b, o = draw(st.sampled_from(pairs))
        image = transitions[(a, b)][o]
        shift = draw(st.integers(1, len(image) - 1))
        shifted = transitions[(a, b)][o] = image[shift:] + image[:shift]
        inverse = transitions[(b, a)][o] = [0] * len(shifted)
        for s, y in enumerate(shifted):
            inverse[y] = s
    return GluingDatum(datum.space, datum.charts, datum.locals, transitions)


def test_datum_naturality_on_covering_pairs_matches_every_pair():
    kinds = []
    discrete = two_point_discrete()
    stalks = {"p": ["a", "b"], "q": ["x", "y"]}

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(datum_with_one_changed_transition())
    @example(lawless_datum())
    # unnatural only through the second maximal open of the whole space
    @example(two_chart_swap(discrete, stalks, [discrete.mask(["q"])]))
    @example(two_chart_swap(discrete, stalks, [discrete.mask(["p", "q"])]))
    def check(datum):
        problems = datum.validate()
        assert problems == gluing_datum_problems(label_datum(datum))
        kinds.append(any("is not natural" in p for p in problems))

    check()
    assert kinds.count(True) >= 20
    assert kinds.count(False) >= 20


@st.composite
def glue_map_parts(draw):
    """Function presheaves ``source`` and ``target`` on a discrete space or
    a chain of one to three points, a cover by open charts, and per chart
    the transformation of a pointwise map of stalks (the identity, a twist
    or any map) between their restrictions, one value of one component of
    one part changed in about two thirds of the cases."""
    labels = ["p%d" % k for k in range(draw(st.integers(1, 3)))]
    space = discrete_space(FinSet(labels)) if draw(st.booleans()) \
        else chain_space(labels)
    carrier = space.carrier
    stalks = {p: ["a", "b", "c"][:draw(st.integers(1, 3))] for p in carrier}
    kind = draw(st.sampled_from(["identity", "twist", "any"]))
    if kind == "any":
        target_stalks = {p: ["u", "v"][:draw(st.integers(1, 2))]
                         for p in carrier}
        phi = {p: {v: draw(st.sampled_from(target_stalks[p]))
                   for v in stalks[p]} for p in carrier}
    else:
        target_stalks = stalks
        phi = {p: dict(zip(stalks[p], stalks[p] if kind == "identity"
                           else draw(st.permutations(stalks[p]))))
               for p in carrier}
    source = function_presheaf(space, stalks)
    target = function_presheaf(space, target_stalks)
    opens = [o for o in space.opens if o]
    members = draw(st.lists(st.sampled_from(opens), min_size=1, max_size=3))
    if frozenset().union(*members) != frozenset(carrier):
        members.append(frozenset(carrier))
    charts = [("c%d" % k, space.mask(m)) for k, m in enumerate(members)]
    parts = {}
    for name, m in charts:
        sub_s, sub_t = restrict(source, m), restrict(target, m)
        comps = {}
        for o in sub_s.lattice.opens:
            pts = space.points(o)
            comps[o] = table(FinFn(
                FinSet(sub_s.sections[o]), FinSet(sub_t.sections[o]), {
                    s: ";".join("%s=%s" % (p, phi[p][v.split("=")[1]])
                                for p, v in zip(pts, s.split(";"))) if pts
                    else s for s in sub_s.sections[o]}))
        parts[name] = NatTrans(sub_s, sub_t, comps)
    changeable = [(name, o) for name, _ in charts
                  for o in parts[name].components
                  if len(parts[name].target.sections[o]) > 1]
    if changeable and draw(st.integers(0, 2)):
        name, o = draw(st.sampled_from(changeable))
        part = parts[name]
        values = list(part.components[o])
        s = draw(st.sampled_from(range(len(values))))
        values[s] = draw(st.sampled_from(
            [t for t in range(len(part.target.sections[o]))
             if t != values[s]]))
        parts[name] = NatTrans(part.source, part.target,
                               {**part.components, o: values})
    return space, charts, source, target, parts


def swapped_part(changed):
    """The identity transformation of a function presheaf on the discrete
    space on p, q, one chart, its component at ``changed`` exchanging the
    two sections."""
    space = two_point_discrete()
    store = function_presheaf(space, {"p": ["a"], "q": ["x", "y"]})
    comps = identities(store)
    changed = space.mask(changed)
    assert len(store.sections[changed]) == 2
    comps[changed] = [1, 0]
    return (space, [("all", space.mask(["p", "q"]))], store, store,
            {"all": NatTrans(store, store, comps)})


def test_part_naturality_on_covering_pairs_matches_every_pair():
    kinds = []

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(glue_map_parts())
    # unnatural only through the second maximal open of the whole space
    @example(swapped_part(["q"]))
    @example(swapped_part(["p", "q"]))
    def check(case):
        space, charts, source, target, parts = case
        expected = None
        for name, _ in charts:
            part = parts[name]
            unnatural = unnatural_pairs(
                label_components(part.components, part.source, part.target),
                label_store(part.source), label_store(part.target),
                part.source.lattice)
            if unnatural:
                expected = "part %r is not natural: %s" % (name, "; ".join(
                    "naturality fails from %r to %r"
                    % (sorted(space.points(w)), sorted(space.points(v)))
                    for w, v in unnatural))
                break
        try:
            glue_nat_trans(space, charts, source, target, parts)
            message = None
        except StructuralError as err:
            message = str(err)
        if expected is None:
            assert message is None or "is not natural" not in message
        else:
            assert message == expected
        kinds.append(expected is not None)

    check()
    assert kinds.count(True) >= 20
    assert kinds.count(False) >= 20


# the engine on tables against the oracles on the label view


def test_positional_engine_matches_the_label_oracles():
    seen = []

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(restriction_systems(),
           st.one_of(presheaves_to_decide(), presheaves_missing_a_gluing()),
           twisted_chart_data(), glue_map_parts(), st.data())
    def check(lawless, lawful, datum, case, data):
        assert validate_presheaf(lawless) \
            == presheaf_law_problems(label_store(lawless))
        # verdicts and counterexamples of check-sheaf under each listing
        lat = lawful.lattice
        every = coverings_listed_eagerly(lat)
        listed = data.draw(st.lists(st.sampled_from(every), max_size=4))
        payload = presheaf_doc(lawful)["payload"]
        for flags, coverings, extra in (
                ({}, default_coverings(lat), {}),
                ({"covers": "exhaustive"}, every, {}),
                ({}, listed, {"coverings": [
                    {"open": lat.key(u), "parts": [lat.key(v) for v in parts]}
                    for u, parts in listed]})):
            report = execute("check-sheaf", Document(
                "presheaf", dict(payload, **extra), "1"), flags)
            sep, sep_counter, sheaf, sheaf_counter = \
                sheaf_verdicts_by_every_constraint(label_store(lawful),
                                                   coverings)
            assert report["verdicts"] == {"separated": sep, "sheaf": sheaf}
            assert report["diagnostics"] == {
                "separation_counterexample": reported(lat, sep_counter),
                "sheaf_counterexample": reported(lat, sheaf_counter)}
            seen.append("sheaf" if sheaf else "not a sheaf")
        # glued sections and restrictions
        glued, _ = glue_presheaves(datum)
        view = label_datum(datum)
        assert {o: list(glued.sections[o]) for o in glued.lattice.opens} \
            == glued_sections_by_ordered_pairs(view)
        assert {pair: fn.mapping
                for pair, fn in label_store(glued).res.items()
                if pair[0] != pair[1]} \
            == glued_restrictions_componentwise(view)
        # glued transformations
        space, charts, source, target, parts = case
        try:
            nat = glue_nat_trans(space, charts, source, target, parts)
        except StructuralError:
            return
        expected = glued_components_by_candidates(
            charts, label_store(source), label_store(target),
            {name: label_components(part.components, part.source,
                                    part.target)
             for name, part in parts.items()})
        assert {o: fn.mapping for o, fn in label_components(
            nat.components, source, target).items()} == expected
        seen.append("glued transformation")

    check()
    for kind in ("sheaf", "not a sheaf", "glued transformation"):
        assert seen.count(kind) >= 40, kind
