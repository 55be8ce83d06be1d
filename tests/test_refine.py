import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glueforge.errors import StructuralError
from glueforge.fincat import FinFn, FinSet
from glueforge.gluing import (
    ConeCandidate,
    GluedObject,
    colimit_glue,
    limit_glue,
    mediating_map,
)
from glueforge import cli
from glueforge.refine import (
    compose_via_sinks,
    induced_limit_map,
    validate_refinement,
)
from fixtures import (
    colimit_data,
    identity_fn,
    label_refinement,
    label_sink,
    leg,
    leg_fns,
    make_limit_data,
    make_nonsplit_colimit,
    refinement_fns,
    seeded,
    view,
)
from oracles import naive_closure_partition, two_stage_partition
from paper import (
    MetaGluingData,
    compose_gluings,
    compose_refinements,
    identity_refinement,
)


def two_chart_limit(swapped=False):
    comps = {"1": ["a0", "a1"], "2": ["b0", "b1"]}
    return make_limit_data(
        ["1", "2"], comps,
        {("1", "2"): (["o0", "o1"],
                      {"a0": "o0", "a1": "o1"},
                      {"b0": "o1", "b1": "o0"} if swapped
                      else {"b0": "o0", "b1": "o1"})})


def test_identity_refinement_valid_and_identity_map():
    data = two_chart_limit()
    ref = identity_refinement(data)
    assert validate_refinement(ref) == []
    glued = limit_glue(data)
    assert induced_limit_map(ref, glued, glued) \
        == list(range(len(glued.apex)))


def test_component_endpoint_violation_is_named():
    # a component is a table read against the carriers it runs between: a
    # document's map outside its codomain is refused as it is read, and a
    # label map with other endpoints is refused before it becomes a table
    data = two_chart_limit()
    wrong = FinSet(["zz"])
    comps = {obj: identity_fn(data.carrier(obj))
             for obj in data.indexcat.objects}
    comps[("1",)] = FinFn(data.carrier(("1",)), wrong,
                          {x: "zz" for x in data.carrier(("1",))})
    with pytest.raises(StructuralError, match="endpoints"):
        label_refinement(data, data, identity_fn(data.indexcat.index),
                         comps)
    payload = {"mode": "nonsplit", "ambient": "sets",
               "direction": "toward-overlaps", "index": ["1", "2"],
               "objects": {"1": ["a0", "a1"], "2": ["b0", "b1"],
                           "1,2": ["o0", "o1"]},
               "arrows": [{"kind": "edge", "from": "1", "pair": "1,2",
                           "map": {"a0": "o0", "a1": "o1"}},
                          {"kind": "edge", "from": "2", "pair": "1,2",
                           "map": {"b0": "o0", "b1": "o1"}}]}
    components = {key: {x: x for x in labels}
                  for key, labels in payload["objects"].items()}
    components["1"]["a0"] = "zz"
    with pytest.raises(StructuralError,
                       match="value 'zz' of 'a0' is not a codomain label"):
        cli.parse_refinement({"source": payload, "target": payload,
                              "gamma": {"1": "1", "2": "2"},
                              "components": components})


def test_inclusion_induced_refinement_projects_families():
    source = two_chart_limit()
    target = make_limit_data(["1"], {"1": ["a0", "a1"]}, {})
    gamma = FinFn(target.indexcat.index, source.indexcat.index, {"1": "1"})
    comps = {("1",): identity_fn(source.carrier(("1",)))}
    ref = label_refinement(source, target, gamma, comps)
    assert validate_refinement(ref) == []
    gs, gt = limit_glue(source), limit_glue(target)
    med = view(gs.apex, gt.apex, induced_limit_map(ref, gs, gt))
    for x in gs.apex:
        assert med(x) == leg(source, gs, "1")(x)


def test_swap_refinement_is_family_bijection():
    source = two_chart_limit()
    target = make_limit_data(
        ["1", "2"], {"1": ["b0", "b1"], "2": ["a0", "a1"]},
        {("1", "2"): (["o0", "o1"],
                      {"b0": "o0", "b1": "o1"},
                      {"a0": "o0", "a1": "o1"})})
    gamma = FinFn(target.indexcat.index, source.indexcat.index,
                  {"1": "2", "2": "1"})
    comps = {
        ("1",): identity_fn(source.carrier(("2",))),
        ("2",): identity_fn(source.carrier(("1",))),
        ("1", "2"): identity_fn(source.carrier(("1", "2"))),
    }
    ref = label_refinement(source, target, gamma, comps)
    assert validate_refinement(ref) == []
    gs, gt = limit_glue(source), limit_glue(target)
    med = induced_limit_map(ref, gs, gt)
    assert sorted(med) == list(range(len(gt.apex)))
    # cross-check against the factoring map through the target limit
    comps = refinement_fns(ref)[1]
    legs_s = leg_fns(source, gs)
    legs = {obj: legs_s[ref.reindexed(obj)].then(comps[obj])
            for obj in target.indexcat.objects}
    med2, _ = mediating_map(target, gt, ConeCandidate(gs.apex, legs))
    assert view(gs.apex, gt.apex, med) == med2


def test_refinement_functoriality_on_random_instances():
    rng = seeded(71)
    for _ in range(10):
        data = two_chart_limit(swapped=bool(rng.randint(0, 1)))
        ref = identity_refinement(data)
        composite = compose_refinements(ref, ref)
        glued = limit_glue(data)
        lhs = induced_limit_map(composite, glued, glued)
        a = induced_limit_map(ref, glued, glued)
        b = induced_limit_map(ref, glued, glued)
        assert lhs == [b[q] for q in a]


def test_refinement_functoriality_through_restriction():
    # swap-shaped refinement followed by a restriction refinement
    source = two_chart_limit()
    mid = make_limit_data(
        ["1", "2"], {"1": ["b0", "b1"], "2": ["a0", "a1"]},
        {("1", "2"): (["o0", "o1"],
                      {"b0": "o0", "b1": "o1"},
                      {"a0": "o0", "a1": "o1"})})
    gamma_r = FinFn(mid.indexcat.index, source.indexcat.index,
                    {"1": "2", "2": "1"})
    r = label_refinement(source, mid, gamma_r, {
        ("1",): identity_fn(source.carrier(("2",))),
        ("2",): identity_fn(source.carrier(("1",))),
        ("1", "2"): identity_fn(source.carrier(("1", "2"))),
    })
    tgt = make_limit_data(["1"], {"1": ["b0", "b1"]}, {})
    gamma_s = FinFn(tgt.indexcat.index, mid.indexcat.index, {"1": "1"})
    s = label_refinement(mid, tgt, gamma_s,
                         {("1",): identity_fn(mid.carrier(("1",)))})
    assert validate_refinement(r) == []
    assert validate_refinement(s) == []
    composite = compose_refinements(s, r)
    assert validate_refinement(composite) == []
    g_source = limit_glue(source)
    g_mid = limit_glue(mid)
    g_tgt = limit_glue(tgt)
    lhs = induced_limit_map(composite, g_source, g_tgt)
    first = induced_limit_map(r, g_source, g_mid)
    then = induced_limit_map(s, g_mid, g_tgt)
    assert lhs == [then[q] for q in first]


def test_induced_maps_refuse_glued_objects_the_legs_do_not_fit():
    """The induced map is read off the glued objects it is handed: a target
    class map that splits a source class is not well defined, a source
    class that no component reaches leaves it undefined, and a pushed
    family that the target lacks is not compatible there."""
    data = make_nonsplit_colimit(
        ["1", "2"], {"1": ["a0", "a1"], "2": ["b0", "b1"]},
        {("1", "2"): (["u"], {"u": "a0"}, {"u": "b1"})})
    ref = identity_refinement(data)
    glued = colimit_glue(data)
    assert list(glued.apex) == ["1|a0", "1|a1", "2|b0"]
    assert induced_limit_map(ref, glued, glued) == [0, 1, 2]
    # the coproduct, with 1|a0 and 2|b1 apart
    split = GluedObject("colimit", FinSet(["p", "q", "r", "s"]), None,
                        {("1",): [0, 1], ("2",): [2, 3]}, {}, {})
    with pytest.raises(StructuralError, match=r"^induced class map is not "
                       r"well defined at '1\|a0'$"):
        induced_limit_map(ref, glued, split)
    extra = GluedObject("colimit", FinSet(list(glued.apex) + ["*"]), None,
                        glued.legs, {}, {})
    with pytest.raises(StructuralError, match=r"^induced class map is "
                       r"undefined on classes \['\*'\]; gamma does not "
                       r"reach them$"):
        induced_limit_map(ref, extra, glued)
    data = two_chart_limit()
    ref = identity_refinement(data)
    glued = limit_glue(data)
    assert list(glued.apex) == ["a0|b0", "a1|b1"]
    fewer = GluedObject("limit", FinSet(["a0|b0"]), None,
                        {("1",): [0], ("2",): [0]}, {}, {})
    with pytest.raises(StructuralError, match=r"^induced family 'a1\|b1' is "
                       r"not compatible in the target$"):
        induced_limit_map(ref, glued, fewer)


def grid_labels(rows, cols):
    return ["v%d_%d" % (r, c) for r in range(rows) for c in range(cols)]


def square_to_cylinder_node(n=4):
    """An n-by-n vertex grid with its left and right columns glued."""
    square = grid_labels(n, n)
    edge = ["e%d" % r for r in range(n)]
    seam = ["l%d" % r for r in range(n)] + ["r%d" % r for r in range(n)]
    to_square = {}
    to_edge = {}
    for r in range(n):
        to_square["l%d" % r] = "v%d_0" % r
        to_square["r%d" % r] = "v%d_%d" % (r, n - 1)
        to_edge["l%d" % r] = "e%d" % r
        to_edge["r%d" % r] = "e%d" % r
    return make_nonsplit_colimit(
        ["sq", "edge"], {"sq": square, "edge": edge},
        {("sq", "edge"): (seam, to_square, to_edge)})


def circle_node(n=4):
    return make_nonsplit_colimit(["circ"], {"circ": ["c%d" % k for k in range(n)]},
                                 {})


def torus_meta(n=4):
    node1 = square_to_cylinder_node(n)
    node2 = circle_node(n)
    idents = []
    for c in range(n):
        idents.append(((("sq",), "v0_%d" % c), (("circ",), "c%d" % c)))
        idents.append(((("sq",), "v%d_%d" % (n - 1, c)), (("circ",), "c%d" % c)))
    return MetaGluingData(["cyl", "circ"], {"cyl": node1, "circ": node2},
                          {("cyl", "circ"): idents})


def flat_identification_oracle(meta):
    """The naive closure of the raw flat identification list."""
    elements = []
    for i in meta.index:
        node = meta.nodes[i]
        for comp in node.indexcat.singletons():
            elements.extend("%s/%s/%s" % (i, comp[0], x)
                            for x in node.carrier(comp))
    pairs = []
    for i in meta.index:
        node = meta.nodes[i]
        for pair_obj in node.indexcat.pairs():
            p, q = pair_obj
            e_p = node.fn(("incl", p, pair_obj))
            e_q = node.fn(("incl", q, pair_obj))
            for u in node.carrier(pair_obj):
                pairs.append(("%s/%s/%s" % (i, p, e_p(u)),
                              "%s/%s/%s" % (i, q, e_q(u))))
    for (i, j), idents in meta.overlaps.items():
        for (a, x), (b, y) in idents:
            pairs.append(("%s/%s/%s" % (i, a[0], x), "%s/%s/%s" % (j, b[0], y)))
    return naive_closure_partition(elements, pairs)


def test_torus_counts_16_12_9():
    meta = torus_meta(4)
    cylinder = colimit_glue(meta.nodes["cyl"])
    assert len(meta.nodes["cyl"].carrier(("sq",))) == 16
    assert len(cylinder.apex) == 12
    torus = compose_gluings(meta)
    assert len(torus.apex) == 9


def test_torus_flat_composition_matches_oracle():
    meta = torus_meta(4)
    torus = compose_gluings(meta)
    got = {}
    for i in meta.index:
        node = meta.nodes[i]
        for comp in node.indexcat.singletons():
            for x in node.carrier(comp):
                got.setdefault(torus.legs[(i, comp)](x), set()).add(
                    "%s/%s/%s" % (i, comp[0], x))
    assert {frozenset(c) for c in got.values()} == flat_identification_oracle(meta)


@st.composite
def meta_gluing_data(draw):
    index = ["n%d" % k for k in range(draw(st.integers(1, 3)))]
    nodes = {i: draw(colimit_data()) for i in index}
    elements = {i: [(comp, x) for comp in nodes[i].indexcat.singletons()
                    for x in nodes[i].carrier(comp)] for i in index}
    overlaps = {}
    for a, i in enumerate(index):
        for j in index[a + 1:]:
            if elements[i] and elements[j]:
                overlaps[(i, j)] = draw(st.lists(st.tuples(
                    st.sampled_from(elements[i]), st.sampled_from(elements[j])),
                    max_size=3))
    return MetaGluingData(index, nodes, overlaps)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(meta_gluing_data())
@example(torus_meta(3))
def test_flat_composition_matches_two_stage_oracle(meta):
    glued = compose_gluings(meta)
    classes = {}
    for i in meta.index:
        node = meta.nodes[i]
        for comp in node.indexcat.singletons():
            for x in node.carrier(comp):
                classes.setdefault(glued.legs[(i, comp)](x), set()).add(
                    (i, comp, x))
    assert len(classes) == len(glued.apex)
    assert {frozenset(c) for c in classes.values()} == two_stage_partition(meta)


def test_single_node_composition_is_identity():
    meta = MetaGluingData(["only"], {"only": square_to_cylinder_node(3)}, {})
    glued = compose_gluings(meta)
    direct = colimit_glue(meta.nodes["only"])
    assert len(glued.apex) == len(direct.apex)


def test_disjoint_nodes_compose_to_disjoint_union():
    n1 = circle_node(3)
    n2 = circle_node(2)
    meta = MetaGluingData(["a", "b"], {"a": n1, "b": n2}, {})
    glued = compose_gluings(meta)
    assert len(glued.apex) == 5


def test_meta_validates_overlap_entries():
    with pytest.raises(StructuralError):
        MetaGluingData(
            ["a", "b"], {"a": circle_node(2), "b": circle_node(2)},
            {("a", "b"): [((("circ",), "missing"), (("circ",), "c0"))]})


def inclusion_sink(target_labels, parts, names=None):
    target = FinSet(target_labels)
    sources = []
    for k, labels in enumerate(parts):
        src = FinSet(labels)
        name = names[k] if names else str(k + 1)
        sources.append((name, src, FinFn(src, target, {x: x for x in labels})))
    return label_sink("sets", target, sources)


def test_compose_identity_sinks():
    u = FinSet(["p", "q"])
    outer = label_sink("sets", u, [("1", u, identity_fn(u))])
    inner = {"1": label_sink("sets", u, [("1", u, identity_fn(u))])}
    result = compose_via_sinks(outer, inner)
    assert result["is_glued_up"] is True
    assert result["sink"].names() == ["1.1"]


def test_compose_two_point_cover():
    outer = inclusion_sink(["p", "q"], [["p"], ["q"]])
    inner = {name: label_sink("sets", carrier,
                              [("1", carrier, identity_fn(carrier))])
             for name, carrier, _ in outer.sources}
    result = compose_via_sinks(outer, inner)
    assert result["is_glued_up"] is True


def test_compose_detects_non_surjective_inner():
    outer = inclusion_sink(["p", "q"], [["p", "q"]])
    sub = FinSet(["p"])
    carrier = outer.sources[0][1]
    inner = {"1": label_sink("sets", carrier,
                             [("1", sub, FinFn(sub, carrier, {"p": "p"}))])}
    result = compose_via_sinks(outer, inner)
    assert result["is_glued_up"] is False


def test_compose_requires_matching_targets():
    outer = inclusion_sink(["p", "q"], [["p"], ["q"]])
    wrong = FinSet(["z"])
    carrier = outer.sources[1][1]
    inner = {"1": label_sink("sets", wrong,
                             [("1", wrong, identity_fn(wrong))]),
             "2": label_sink("sets", carrier,
                             [("1", carrier, identity_fn(carrier))])}
    with pytest.raises(StructuralError):
        compose_via_sinks(outer, inner)
