"""The two law deciders of ``glueforge.fincat``, ``commutes`` and ``is_iso``:
checked against the definitions they replace, then one broken law at each
site that decides one, then the validators on lawful inputs with no
composite ``FinFn`` built."""

from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glueforge import site
from glueforge.errors import StructuralError
from glueforge.fincat import FinFn, FinSet, FinTop, TopMap, commutes, is_iso
from glueforge.gluing import (
    ConeCandidate,
    colimit_glue,
    limit_glue,
    mediating_map,
)
from glueforge.presheaf import (
    GluingDatum,
    NatTrans,
    glue_presheaves,
    presheaf_effective_check,
)
from glueforge.refine import (
    induced_limit_map,
    validate_refinement,
)
from glueforge.site import (
    covering_axioms_check,
    effective_gluing_check,
    sinks_equivalent,
)

from fixtures import (
    close_family,
    data_from_fns,
    discrete_space,
    effectiveness_flags,
    function_presheaf,
    identities,
    identity_fn,
    indiscrete_space,
    label_arrows,
    label_refinement,
    label_sink,
    label_site,
    leg_fns,
    make_limit_data,
    make_nonsplit_colimit,
    make_split_colimit,
    nat_trans_problems,
)
from oracles import commutes_by_composites, iso_by_topmap
from paper import identity_refinement

LAWS = settings(derandomize=True, deadline=None, max_examples=400)

# carriers small enough that random paths often agree; two of them hold the
# same labels in another order, which FinSet equality tells apart
CARRIERS = [FinSet([]), FinSet(["a"]), FinSet(["a", "b"]), FinSet(["b", "a"]),
            FinSet(["a", "b", "c"])]


def outcome(decide, *args):
    """What a decider answers: its value, or the text of its structural
    error."""
    try:
        return "value", decide(*args)
    except StructuralError as err:
        return "error", str(err)


@st.composite
def fns(draw, dom, cod):
    return FinFn(dom, cod, {x: draw(st.sampled_from(cod.labels)) for x in dom})


@st.composite
def paths(draw, start=None, max_len=3):
    """A path of up to ``max_len`` maps, each usually starting where the
    previous one ends."""
    dom = draw(st.sampled_from(CARRIERS)) if start is None else start
    out = []
    for _ in range(draw(st.integers(0, max_len))):
        if draw(st.integers(0, 4)) == 0:
            dom = draw(st.sampled_from(CARRIERS))
        cod = draw(st.sampled_from([c for c in CARRIERS if len(c) or not len(dom)]))
        out.append(draw(fns(dom, cod)))
        dom = cod
    return tuple(out)


@st.composite
def spaces_on(draw, carrier):
    seeds = draw(st.lists(st.sets(st.sampled_from(carrier.labels))
                          if len(carrier) else st.just(set()), max_size=3))
    return FinTop(carrier, close_family(carrier, map(frozenset, seeds)))


AB = FinSet(["a", "b"])
SWAP = FinFn(AB, AB, {"a": "b", "b": "a"})
CONST = FinFn(AB, AB, {"a": "a", "b": "a"})


@LAWS
@given(st.data())
@example(data=None)
def test_commutes_agrees_with_comparing_composites(data):
    if data is None:
        cases = [((), ()), ((SWAP,), ()), ((), (SWAP, SWAP)), ((SWAP, SWAP), ()),
                 ((SWAP, CONST), (CONST,)), ((CONST, SWAP), (CONST,)),
                 ((SWAP, identity_fn(FinSet(["b", "a"]))), (SWAP,)),
                 ((identity_fn(FinSet(["b", "a"])),), ())]
    else:
        path = data.draw(paths())
        start = path[0].domain if path and data.draw(st.booleans()) else None
        cases = [(path, data.draw(paths(start))), (path, path), (path, ())]
    for path, other in cases:
        assert outcome(commutes, path, other) \
            == outcome(commutes_by_composites, path, other), (path, other)


def test_commutes_raises_like_then_on_a_broken_path():
    ba = identity_fn(FinSet(["b", "a"]))
    with pytest.raises(StructuralError) as err:
        commutes((SWAP,), (ba, SWAP))
    assert str(err.value) == "composite endpoints do not match"
    assert commutes((SWAP,), (ba,)) is False


@LAWS
@given(st.data())
def test_is_iso_agrees_with_bijective_and_open(data):
    dom = data.draw(st.sampled_from(CARRIERS))
    cod = data.draw(st.sampled_from([c for c in CARRIERS if len(c) or not len(dom)]))
    if len(dom) == len(cod) and data.draw(st.booleans()):
        image = data.draw(st.permutations(cod.labels))
        fn = FinFn(dom, cod, dict(zip(dom.labels, image)))
    else:
        fn = data.draw(fns(dom, cod))
    spaces = ()
    if data.draw(st.booleans()):
        # now and then a space on another carrier than the map's domain
        at = dom if data.draw(st.integers(0, 5)) else data.draw(
            st.sampled_from(CARRIERS))
        spaces = (data.draw(spaces_on(at)), data.draw(spaces_on(cod)))
    expected = outcome(iso_by_topmap, fn, *spaces)
    if expected[0] == "error" and "not continuous" in expected[1]:
        expected = ("value", False)
    assert outcome(is_iso, fn, *spaces) == expected


def test_is_iso_is_false_on_a_bijection_that_is_not_continuous():
    sierpinski = FinTop(AB, [frozenset(), frozenset(["a"]), frozenset(["a", "b"])])
    with pytest.raises(StructuralError):
        TopMap(SWAP, sierpinski, sierpinski)
    assert is_iso(SWAP, sierpinski, sierpinski) is False
    assert is_iso(SWAP) is True
    assert is_iso(identity_fn(AB), discrete_space(AB), sierpinski) is False


# one broken law per deciding site

SIERPINSKI = FinTop(FinSet(["0", "1"]),
                    [frozenset(), frozenset(["0"]), frozenset(["0", "1"])])
STALKS = {"0": ["a", "b"], "1": ["x"]}
LOW = SIERPINSKI.mask(["0"])
FULL = SIERPINSKI.mask(["0", "1"])


def swapped_at(store, o):
    """Identity components on ``store`` with the two sections at ``o``
    exchanged."""
    comps = identities(store)
    assert len(store.sections[o]) == 2
    comps[o] = [1, 0]
    return comps


def test_nat_trans_names_its_one_unnatural_square():
    store = function_presheaf(SIERPINSKI, STALKS)
    nat = NatTrans(store, store, swapped_at(store, LOW))
    assert nat_trans_problems(nat) == ["naturality fails from ['0', '1'] to ['0']"]


def two_chart_datum(ab=None, ba=None):
    """Two charts on the whole Sierpinski space; transitions are identities
    unless replaced per open."""
    charts = [("1", FULL), ("2", FULL)]
    store = function_presheaf(SIERPINSKI, STALKS)
    locals_ = {"1": store, "2": store}
    transitions = {}
    for key, changes in ((("1", "2"), ab), (("2", "1"), ba)):
        comp = identities(store)
        comp.update(changes or {})
        transitions[key] = comp
    return GluingDatum(SIERPINSKI, charts, locals_, transitions)


def test_gluing_datum_names_each_broken_law():
    store = function_presheaf(SIERPINSKI, STALKS)
    swap_low = swapped_at(store, LOW)[LOW]
    # swapped at {0} in both orientations: inverse and bijective, not natural
    assert two_chart_datum({LOW: swap_low}, {LOW: swap_low}).validate() == [
        "transition '1' -> '2' is not natural from ['0', '1'] to ['0']",
        "transition '2' -> '1' is not natural from ['0', '1'] to ['0']"]
    # swapped one way only: no longer mutually inverse either
    assert two_chart_datum({LOW: swap_low}).validate() == [
        "transitions '1' <-> '2' at ['0'] are not mutually inverse",
        "transition '1' -> '2' is not natural from ['0', '1'] to ['0']",
        "transitions '2' <-> '1' at ['0'] are not mutually inverse"]
    # collapsed at {0}: not a bijection
    assert len(store.sections[LOW]) == 2
    collapse = [0, 0]
    assert two_chart_datum({LOW: collapse}).validate() == [
        "transition '1' -> '2' at ['0'] is not a bijection",
        "transitions '1' <-> '2' at ['0'] are not mutually inverse",
        "transition '1' -> '2' is not natural from ['0', '1'] to ['0']",
        "transitions '2' <-> '1' at ['0'] are not mutually inverse"]


def test_effective_check_reports_one_broken_cocycle():
    point = discrete_space(FinSet(["p"]))
    store = function_presheaf(point, {"p": ["a", "b"]})
    names = ["1", "2", "3"]
    transitions = {}
    for a, b in iproduct(names, names):
        comp = swapped_at(store, point.mask(["p"])) if {a, b} == {"1", "3"} \
            else identities(store)
        transitions[(a, b)] = comp
    datum = GluingDatum(point, [(n, point.mask(["p"])) for n in names],
                        {n: store for n in names}, transitions)
    _, projections = glue_presheaves(datum)
    assert presheaf_effective_check(datum, projections) == {
        "identity_ok": True, "cocycle_ok": False,
        "psi_restriction_bijective": False, "equivalence_holds": True}


@pytest.mark.parametrize("direction", ["colimit", "limit"])
def test_tau_involution_names_both_orientations(direction):
    ov = FinSet(["u", "v"])
    if direction == "colimit":
        data = make_split_colimit(["1", "2"], {"1": ["x", "y"], "2": ["x", "y"]},
                                  {("1", "2"): (["u", "v"], {"u": "x", "v": "y"},
                                                {"u": "x", "v": "y"})})
    else:
        data = make_limit_data(["1", "2"], {"1": ["x", "y"], "2": ["x", "y"]},
                               {("1", "2"): (["u", "v"], {"x": "u", "y": "v"},
                                             {"x": "u", "y": "v"})}, mode="split")
    arrows = label_arrows(data)
    arrows[("tau", ("1", "2"))] = FinFn(ov, ov, {"u": "v", "v": "u"})
    with pytest.raises(StructuralError) as err:
        data_from_fns(data.indexcat, data.ambient, data.objects, arrows,
                      data.direction)
    assert str(err.value) == (
        "invalid gluing data: "
        "involution violated: tau('1', '2') then tau('2', '1') is not the "
        "identity; "
        "involution violated: tau('2', '1') then tau('1', '2') is not the "
        "identity")


def test_cone_check_names_the_square_that_fails():
    data = make_nonsplit_colimit(["1", "2"], {"1": ["x"], "2": ["y"]},
                                 {("1", "2"): (["u"], {"u": "x"}, {"u": "y"})})
    glued = colimit_glue(data)
    apex = FinSet(["p", "q"])
    legs = {("1",): FinFn(data.carrier(("1",)), apex, {"x": "p"}),
            ("2",): FinFn(data.carrier(("2",)), apex, {"y": "q"}),
            ("1", "2"): FinFn(data.carrier(("1", "2")), apex, {"u": "p"})}
    with pytest.raises(StructuralError) as err:
        mediating_map(data, glued, ConeCandidate(apex, legs))
    assert str(err.value) == ("cone square for generator ('incl', '2', "
                              "('1', '2')) does not commute")


def test_mediating_map_sees_a_bijection_that_is_no_homeomorphism():
    pts = FinSet(["0", "1"])
    discrete, coarse = discrete_space(pts), indiscrete_space(pts)
    ident = {"0": "0", "1": "1"}
    colimit = make_nonsplit_colimit(["1"], {"1": ["0", "1"]}, {}, ambient="top",
                                    spaces={("1",): discrete})
    glued = colimit_glue(colimit)
    cone = ConeCandidate(glued.apex, leg_fns(colimit, glued),
                         space=indiscrete_space(glued.apex))
    med, iso = mediating_map(colimit, glued, cone)
    assert (med.mapping, iso) == ({c: c for c in glued.apex}, False)
    limit = make_limit_data(["1"], {"1": ["0", "1"]}, {}, ambient="top",
                            spaces={("1",): coarse})
    glued = limit_glue(limit)
    cone = ConeCandidate(pts, {("1",): FinFn(pts, pts, ident)}, space=discrete)
    med, iso = mediating_map(limit, glued, cone)
    assert (med.mapping, iso) == (ident, False)


def two_chart_limit():
    return make_limit_data(["1", "2"], {"1": ["a0", "a1"], "2": ["b0", "b1"]},
                           {("1", "2"): (["o0", "o1"], {"a0": "o0", "a1": "o1"},
                                         {"b0": "o0", "b1": "o1"})})


def test_refinement_names_both_failing_squares():
    data = two_chart_limit()
    comps = {obj: identity_fn(data.carrier(obj))
             for obj in data.indexcat.objects}
    ov = data.carrier(("1", "2"))
    comps[("1", "2")] = FinFn(ov, ov, {"o0": "o1", "o1": "o0"})
    ref = label_refinement(data, data, identity_fn(data.indexcat.index),
                           comps)
    assert validate_refinement(ref) == [
        "naturality square at ('incl', '1', ('1', '2')) does not commute",
        "naturality square at ('incl', '2', ('1', '2')) does not commute"]


def test_effective_gluing_names_a_canonical_map_that_is_no_homeomorphism():
    # two coarse charts on the same two points, overlapping in the discrete
    # space: the comparison into the fibred product is a bijection, not open
    pts = ["0", "1"]
    discrete = discrete_space(FinSet(pts))
    coarse = indiscrete_space(FinSet(pts))
    ident = {"0": "0", "1": "1"}
    spaces = {("1",): coarse, ("2",): coarse, ("1", "2"): discrete,
              ("2", "1"): discrete}
    data = make_split_colimit(["1", "2"], {"1": pts, "2": pts},
                              {("1", "2"): (pts, ident, ident)}, ambient="top",
                              spaces=spaces)
    report = effective_gluing_check(data)
    assert report["diagnostics"]["pairs"][("1", "2")] == {
        "edge_embeds": False, "edge_onto_component": True,
        "intersection_ok": True, "canonical_bijective": False}


def test_fibered_isomorphism_needs_a_homeomorphism():
    pts = FinSet(["0", "1"])
    ident = identity_fn(pts)
    target = indiscrete_space(pts)
    fine = label_sink("top", pts, [("1", discrete_space(pts), ident)],
                      target_space=target)
    coarse = label_sink("top", pts, [("1", indiscrete_space(pts), ident)],
                        target_space=target)
    assert sinks_equivalent(fine, fine) is True
    assert sinks_equivalent(fine, coarse) is False


def test_site_asks_only_homeomorphisms_for_a_declared_sink():
    pts = FinSet(["0", "1"])
    ident = identity_fn(pts)
    discrete, coarse = discrete_space(pts), indiscrete_space(pts)
    cover = label_sink("top", pts, [("1", discrete, ident)],
                       target_space=discrete)
    bijection = TopMap(ident, discrete, coarse)
    homeo = TopMap(ident, coarse, coarse)
    assert covering_axioms_check(label_site("top", [cover], [bijection])) == {
        "violations": [], "ok": True}
    assert covering_axioms_check(label_site("top", [cover], [homeo])) == {
        "violations": ["isomorphism sink onto ['0', '1'] is not declared",
                       "base change of a covering of ['0', '1'] along a map "
                       "from ['0', '1'] is not declared"], "ok": False}


# lawful inputs, decided without a composite


def refuse_composites(monkeypatch):
    def then(self, other):
        raise AssertionError("a composite FinFn was built to decide a law")
    monkeypatch.setattr(FinFn, "then", then)


def test_validators_build_no_composite(monkeypatch):
    store = function_presheaf(SIERPINSKI, STALKS)
    nat = NatTrans(store, store, identities(store))
    datum = two_chart_datum()
    _, projections = glue_presheaves(datum)
    split = make_split_colimit(["1", "2"], {"1": ["x"], "2": ["y"]},
                               {("1", "2"): (["u"], {"u": "x"}, {"u": "y"})})
    split_glued = colimit_glue(split)
    limit = two_chart_limit()
    limit_glued = limit_glue(limit)
    colimit = make_nonsplit_colimit(["1", "2"], {"1": ["x"], "2": ["y"]},
                                    {("1", "2"): (["u"], {"u": "x"}, {"u": "y"})})
    colimit_glued = colimit_glue(colimit)
    pts = FinSet(["0", "1"])
    coarse = indiscrete_space(pts)
    sink = label_sink("top", pts, [("1", coarse, identity_fn(pts))],
                      target_space=coarse)
    spec = label_site("top", [], [TopMap(identity_fn(pts), coarse, coarse)])
    monkeypatch.setattr(site, "colimit_glue", lambda data: split_glued)
    refuse_composites(monkeypatch)

    assert nat_trans_problems(nat) == []
    assert datum.validate() == []
    assert presheaf_effective_check(datum, projections)["cocycle_ok"] is True
    # the constructor validates the split data
    make_split_colimit(["1", "2"], {"1": ["x"], "2": ["y"]},
                       {("1", "2"): (["u"], {"u": "x"}, {"u": "y"})})
    for data, glued in ((split, split_glued), (limit, limit_glued),
                        (colimit, colimit_glued)):
        med, iso = mediating_map(
            data, glued, ConeCandidate(glued.apex, leg_fns(data, glued)))
        assert iso is True
    for data, glued in ((limit, limit_glued), (colimit, colimit_glued)):
        ref = identity_refinement(data)
        assert validate_refinement(ref) == []
        assert induced_limit_map(ref, glued, glued) \
            == list(range(len(glued.apex)))
    assert effectiveness_flags(effective_gluing_check(split)) \
        == (True, True, True)
    assert sinks_equivalent(sink, sink) is True
    assert covering_axioms_check(spec)["violations"] == [
        "isomorphism sink onto ['0', '1'] is not declared"]
