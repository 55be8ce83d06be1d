"""Finite spaces stored as bit rows, checked against the definitions on
listed open families: closure of rectangles and preimages, traces of opens,
the scan of all subsets, and preimages and images of opens; and the mask
kernels checked against their frozenset oracles in ``oracles``."""

import json
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glueforge.errors
from glueforge import fincat
from glueforge.cli import main
from glueforge.errors import ResourceError, StructuralError, budget
from glueforge.fincat import (
    FinFn,
    FinSet,
    FinTop,
    TopMap,
    induce_topology,
    pair_label,
    pullback,
    top_product,
)

import oracles
from fixtures import (
    close_family,
    discrete_space,
    fn_properties,
    is_injective,
    label_nbhd,
    preimage,
    subspace,
    surjective,
    table,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def all_subsets(labels):
    subs = [frozenset()]
    for x in labels:
        subs.extend([s | {x} for s in subs])
    return subs


def canonical(carrier, family):
    """A family of opens in the order ``FinTop.opens`` lists them."""
    return tuple(sorted(family, key=lambda o: (
        len(o), sorted(carrier.position(x) for x in o))))


def assert_space(space, carrier, family):
    assert space.carrier == carrier
    assert space.opens == canonical(carrier, family)


@st.composite
def spaces(draw, prefix="p", max_points=6):
    """A space with its listed opens: the closure of a few random subsets."""
    carrier = FinSet(["%s%d" % (prefix, k)
                      for k in range(draw(st.integers(0, max_points)))])
    seeds = draw(st.lists(st.lists(st.booleans(), min_size=len(carrier),
                                   max_size=len(carrier)), max_size=4))
    family = close_family(carrier, [
        frozenset(x for x, keep in zip(carrier, bits) if keep) for bits in seeds])
    return FinTop(carrier, family), family


def product_opens(x, y, xfam, yfam):
    """The product carrier and the closure of its open rectangles."""
    carrier = FinSet([pair_label(a, b) for a in x.carrier for b in y.carrier])
    return carrier, close_family(carrier, [
        frozenset(pair_label(a, b) for a in u for b in v)
        for u in xfam for v in yfam])


@st.composite
def maps(draw, dom, cod):
    return FinFn(dom, cod, {x: draw(st.sampled_from(cod.labels)) for x in dom})


@PROPERTY
@given(st.data())
def test_product_is_the_closure_of_open_rectangles(data):
    x, xfam = data.draw(spaces("a", 3))
    y, yfam = data.draw(spaces("b", 2))
    assert_space(top_product(x, y), *product_opens(x, y, xfam, yfam))


@PROPERTY
@given(spaces(), st.data())
def test_subspace_takes_traces_of_opens(space, data):
    space, family = space
    members = data.draw(st.sets(st.sampled_from(space.carrier.labels))
                        if len(space.carrier) else st.just(set()))
    got = subspace(space, members)
    assert_space(got, FinSet([x for x in space.carrier if x in members]),
                 {o & frozenset(members) for o in family})


@PROPERTY
@given(st.data())
def test_initial_topology_is_the_closure_of_preimages(data):
    carrier = FinSet(["c%d" % k for k in range(data.draw(st.integers(0, 5)))])
    fns, targets, preimages = [], [], []
    for k in range(data.draw(st.integers(0, 2))):
        space, family = data.draw(spaces("t%d_" % k, 3))
        if not len(space.carrier) and len(carrier):
            continue
        fn = data.draw(maps(carrier, space.carrier))
        fns.append(fn)
        targets.append(space)
        preimages.extend(preimage(fn, o) for o in family)
    got = induce_topology("initial", carrier, list(map(table, fns)),
                          targets)
    assert_space(got, carrier, close_family(carrier, preimages))


@PROPERTY
@given(st.data())
def test_final_topology_scans_subsets_with_open_preimages(data):
    carrier = FinSet(["c%d" % k for k in range(data.draw(st.integers(1, 5)))])
    fns, sources, families = [], [], []
    for k in range(data.draw(st.integers(0, 2))):
        space, family = data.draw(spaces("s%d_" % k, 3))
        fns.append(data.draw(maps(space.carrier, carrier)))
        sources.append(space)
        families.append(family)
    got = induce_topology("final", carrier, list(map(table, fns)), sources)
    assert_space(got, carrier, [
        s for s in all_subsets(carrier)
        if all(preimage(fn, s) in fam for fn, fam in zip(fns, families))])


@PROPERTY
@given(st.data())
def test_top_pullback_is_the_subspace_of_the_product(data):
    x, xfam = data.draw(spaces("a", 3))
    y, yfam = data.draw(spaces("b", 2))
    z = FinSet(["z%d" % k for k in range(data.draw(st.integers(1, 2)))])
    f, g = data.draw(maps(x.carrier, z)), data.draw(maps(y.carrier, z))
    got = pullback(f, g, x, y)
    _, amb = product_opens(x, y, xfam, yfam)
    members = frozenset(got.members.labels)
    assert_space(got.space, got.members, {o & members for o in amb})


@PROPERTY
@given(spaces("a", 4), spaces("b", 4), st.data())
def test_maps_agree_with_preimages_and_images_of_opens(dom, cod, data):
    (dom, dfam), (cod, cfam) = dom, cod
    if not len(cod.carrier) and len(dom.carrier):
        return
    fn = data.draw(maps(dom.carrier, cod.carrier))
    continuous = all(preimage(fn, o) in dfam for o in cfam)
    forward = {frozenset(fn.mapping[x] for x in o) for o in dfam}
    if not continuous:
        with pytest.raises(StructuralError):
            TopMap(fn, dom, cod)
        return
    m = TopMap(fn, dom, cod)
    assert m.open == (forward <= cfam)
    image = frozenset(fn.mapping.values())
    assert fn_properties(fn, dom, cod) == {
        "injective": is_injective(fn), "surjective": surjective(fn),
        "continuous": True, "open": forward <= cfam,
        "embedding": is_injective(fn) and forward == {o & image for o in cfam}}


@PROPERTY
@given(spaces())
def test_is_open_is_membership_in_the_listed_opens(space):
    space, family = space
    for s in all_subsets(space.carrier):
        assert space.is_open(space.mask(s)) == (s in family)
    assert space.mask(["outside"]) is None


@PROPERTY
@given(st.data())
def test_fintop_accepts_exactly_the_topologies(data):
    carrier = FinSet(["p%d" % k for k in range(data.draw(st.integers(0, 4)))])
    subsets = all_subsets(carrier)
    family = data.draw(st.sets(st.sampled_from(subsets), max_size=6))
    if data.draw(st.booleans()):
        family = close_family(carrier, family)
    if family and data.draw(st.booleans()):
        family.discard(data.draw(st.sampled_from(canonical(carrier, family))))
    full = frozenset(carrier.labels)
    topology = (frozenset() in family and full in family
                and all(a | b in family and a & b in family
                        for a in family for b in family))
    if topology:
        assert_space(FinTop(carrier, family), carrier, family)
    else:
        with pytest.raises(StructuralError):
            FinTop(carrier, family)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_fintop_agrees_with_the_frozenset_scan(data):
    """Verdict, neighbourhoods and error text match the frozenset oracle on
    topologies, families with a member dropped (the empty set, the carrier
    or another), random families with and without the empty set and the
    carrier, and families with a point off the carrier, each open a
    frozenset or a label list with repeats."""
    carrier = FinSet(["p%d" % k for k in range(data.draw(st.integers(0, 6)))])
    subsets = st.lists(st.booleans(), min_size=len(carrier),
                       max_size=len(carrier)).map(
        lambda bits: list(compress(carrier.labels, bits)))
    seeds = data.draw(st.lists(subsets, max_size=5))
    family = [frozenset(o) for o in seeds]
    kind = data.draw(st.sampled_from(["topology", "dropped", "random", "bare",
                                      "stray"]))
    if kind == "random":
        family += [frozenset(), frozenset(carrier.labels)]
    if kind not in ("random", "bare"):
        family = sorted(close_family(carrier, family),
                        key=lambda o: sorted(o))
        family = data.draw(st.permutations(family))
    if kind == "dropped" and family:
        del family[data.draw(st.integers(0, len(family) - 1))]
    if kind == "stray":
        family.insert(data.draw(st.integers(0, len(family))),
                      frozenset(data.draw(subsets)) | {"q"})
    if data.draw(st.booleans()):
        # label lists in a drawn order, some with a point repeated
        family = [data.draw(st.permutations(sorted(o)))
                  + data.draw(st.lists(st.sampled_from(sorted(o)), max_size=1)
                              if o else st.just([]))
                  for o in family]
    try:
        expected = oracles.nbhd_by_frozensets(carrier, family)
    except StructuralError as err:
        with pytest.raises(StructuralError) as got:
            FinTop(carrier, family)
        assert str(got.value) == str(err)
    else:
        assert label_nbhd(FinTop(carrier, family)) == expected


@PROPERTY
@given(spaces())
def test_opens_and_maximal_opens_match_the_frozenset_oracles(space):
    space, _ = space
    opens, sizes = oracles.opens_by_frozensets(space)
    assert space.opens == opens
    assert fincat._list_opens(space, "opens")[1] == sizes
    assert [(frozenset(space.points(u)),
             [frozenset(space.points(w)) for w in maximal])
            for u, maximal in space.maximal_masks().items()] == list(
        oracles.maximal_proper_by_frozensets(space, opens).items())


@PROPERTY
@given(st.sampled_from(["final", "initial"]), st.data())
def test_induced_topologies_match_the_frozenset_oracle(mode, data):
    carrier = FinSet(["c%d" % k for k in range(data.draw(st.integers(0, 5)))])
    fns, others = [], []
    for k in range(data.draw(st.integers(0, 3))):
        space, _ = data.draw(spaces("s%d_" % k, 4))
        dom, cod = (space.carrier, carrier) if mode == "final" \
            else (carrier, space.carrier)
        if len(dom) and not len(cod):
            continue
        fns.append(data.draw(maps(dom, cod)))
        others.append(space)
    assert label_nbhd(induce_topology(mode, carrier, list(map(table, fns)),
                                      others)) == \
        oracles.induce_topology_by_frozensets(mode, carrier, fns, others)


@PROPERTY
@given(spaces("a", 4), spaces("b", 4), st.booleans(), st.data())
def test_map_properties_match_the_frozenset_oracle(dom, cod, final, data):
    """On continuous maps: into the drawn space when the map is continuous
    there, else, or when ``final`` is drawn, into its codomain with the
    final topology along it."""
    (dom, _), (cod, _) = dom, cod
    if len(dom.carrier) and not len(cod.carrier):
        return
    fn = data.draw(maps(dom.carrier, cod.carrier))
    if not final:
        try:
            TopMap(fn, dom, cod)
        except StructuralError:
            final = True
    if final:
        cod = induce_topology("final", cod.carrier, [table(fn)], [dom])
    assert fn_properties(fn, dom, cod) == \
        oracles.map_properties_by_frozensets(fn, dom, cod)


def test_product_of_two_4_point_discrete_spaces():
    x = discrete_space(FinSet(["a%d" % k for k in range(4)]))
    y = discrete_space(FinSet(["b%d" % k for k in range(4)]))
    with budget(1000):
        prod = top_product(x, y)
    assert len(prod.carrier) == 16
    assert all(nbhd == {p} for p, nbhd in label_nbhd(prod).items())
    for k, factor in enumerate((x, y)):
        proj = FinFn(prod.carrier, factor.carrier,
                     {pair_label(a, b): (a, b)[k]
                      for a in x.carrier for b in y.carrier})
        assert TopMap(proj, prod, factor).open


def test_listing_opens_is_charged_to_the_cap(monkeypatch):
    monkeypatch.setattr(glueforge.errors, "DEFAULT_CAP", 10)
    assert len(discrete_space(FinSet(["a", "b", "c"])).opens) == 8
    big = discrete_space(FinSet(["p%d" % k for k in range(5)]))
    with pytest.raises(ResourceError) as err:
        big.opens
    assert err.value.size <= 20
    assert "opens of a 5-point space" in str(err.value)
    initial = induce_topology("initial", big.carrier,
                              [list(range(len(big.carrier)))], [big])
    with pytest.raises(ResourceError):
        initial.opens


def test_cli_exits_2_when_the_glued_space_has_too_many_opens(
        tmp_path, monkeypatch, capsys):
    def discrete(points):
        return {"points": points,
                "opens": [sorted(s) for s in all_subsets(points)]}

    doc = {"version": "1", "kind": "gluing", "payload": {
        "mode": "split", "ambient": "top", "direction": "from-overlaps",
        "index": ["1", "2"],
        "objects": {"1": discrete(["x0", "x1"]), "2": discrete(["y0", "y1"]),
                    "1,2": discrete(["o"]), "2,1": discrete(["o"])},
        "arrows": [
            {"kind": "edge", "from": "1", "pair": "1,2", "map": {"o": "x1"}},
            {"kind": "edge", "from": "2", "pair": "2,1", "map": {"o": "y1"}},
            {"kind": "tau", "pair": "1,2", "map": {"o": "o"}}]}}
    path = tmp_path / "top.json"
    path.write_text(json.dumps(doc))
    assert main(["glue", "--input", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)
               ["artifacts"]["glued"]["apex"]["opens"]) == 8
    monkeypatch.setattr(glueforge.errors, "DEFAULT_CAP", 4)
    assert main(["glue", "--input", str(path)]) == 2
    assert "opens of a 3-point space" in capsys.readouterr().err
