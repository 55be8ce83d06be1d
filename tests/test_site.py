import gc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glueforge import fincat, site
from glueforge.errors import ResourceError, StructuralError, budget
from glueforge.fincat import (
    FinFn,
    FinSet,
    FinTop,
    TopMap,
    is_effective_after_base_change,
)
from glueforge.site import _canonical_form
from glueforge.gluing import (
    FROM_OVERLAPS,
    GluingData,
    colimit_glue,
    universal_glue_check,
)
from glueforge.site import (
    base_change_sink,
    canonical_sink_functor,
    covering_axioms_check,
    effective_epi_check,
    effective_gluing_check,
    sinks_equivalent,
    universal_effective_epi_check,
)

from fixtures import (
    chain_cover,
    chain_space,
    close_family,
    colimit_data,
    colimit_relation_pairs,
    constant_fn,
    discrete_space,
    e3,
    e4_split,
    effectiveness_flags,
    identity_fn,
    indiscrete_space,
    is_injective,
    jointly_surjective,
    label_overlap_maps,
    label_sink,
    label_site,
    label_test,
    leg_fns,
    make_split_colimit,
    preimage,
    random_top_colimit,
    seeded,
    space_from_nbhd,
    subspace,
    surjective,
    table,
)
from oracles import (
    base_change_sink_by_labels,
    canonical_bijective_by_pullback,
    canonical_sink_functor_by_labels,
    covering_axioms_by_scan,
    effective_epi_by_colimit,
    fibered_iso_by_permutations,
    induce_topology_by_frozensets,
    sinks_equivalent_by_backtracking,
    sinks_equivalent_by_permutations,
    universal_glue_by_pullback,
)
from paper import tag


def inclusion_sink(target_labels, parts):
    target = FinSet(target_labels)
    sources = []
    for k, labels in enumerate(parts):
        src = FinSet(labels)
        sources.append((str(k + 1), src, FinFn(src, target,
                                               {x: x for x in labels})))
    return label_sink("sets", target, sources)


def test_single_iso_sink_has_diagonal_self_overlap():
    u = FinSet(["p", "q"])
    sink = label_sink("sets", u, [("1", u, identity_fn(u))])
    data = canonical_sink_functor(sink)
    assert list(data.carrier(("1", "1"))) == ["p|p", "q|q"]


def test_disjoint_inclusions_have_empty_overlap():
    data = canonical_sink_functor(inclusion_sink(["p", "q"], [["p"], ["q"]]))
    assert len(data.carrier(("1", "2"))) == 0


def test_overlapping_inclusions_single_pair():
    data = canonical_sink_functor(
        inclusion_sink(["p", "q", "r"], [["p", "q"], ["q", "r"]]))
    assert list(data.carrier(("1", "2"))) == ["q|q"]


def test_canonical_functor_validates_and_glues_back():
    sink = inclusion_sink(["p", "q", "r"], [["p", "q"], ["q", "r"]])
    data = canonical_sink_functor(sink)
    glued = colimit_glue(data)
    assert len(glued.apex) == 3


def test_base_change_identity_is_same_shape():
    sink = inclusion_sink(["p", "q", "r"], [["p", "q"], ["q", "r"]])
    base = canonical_sink_functor(sink)
    changed_sink = base_change_sink(sink,
                                    label_test(identity_fn(sink.target)))
    changed = canonical_sink_functor(changed_sink)
    # the strip map (x, u) -> x is the canonical relabeling bijection and it
    # commutes with every edge arrow
    strip = {}
    for (name, obj, _), (_, base_obj, _) in zip(changed_sink.sources,
                                                sink.sources):
        mapping = {}
        for lab in obj:
            # pullback pair labels are "x|u" with u = iota(x)
            x = lab.rsplit("|", 1)[0]
            mapping[lab] = x
        strip[(name,)] = FinFn(obj, base_obj, mapping)
        assert is_injective(strip[(name,)]) and surjective(strip[(name,)])
    for pair_obj in base.indexcat.pairs():
        assert len(base.carrier(pair_obj)) == len(changed.carrier(pair_obj))
    from glueforge.fincat import pair_label
    for pair_obj in base.indexcat.pairs():
        i = pair_obj[0]
        lhs = changed.fn(("incl", i, pair_obj)).then(strip[(i,)])
        # build the strip on the pair object from the coordinate strips
        mapping = {}
        for lab in changed.carrier(pair_obj):
            a, b = lab.split("|")[0], lab.split("|")[2]
            mapping[lab] = pair_label(a, b)
        pair_strip = FinFn(changed.carrier(pair_obj), base.carrier(pair_obj),
                           mapping)
        rhs = pair_strip.then(base.fn(("incl", i, pair_obj)))
        assert lhs == rhs


def test_strong_flag_implies_congruence_direction():
    rng = seeded(33)
    for _ in range(40):
        data = make_split_colimit_random(rng)
        report = effective_gluing_check(data)
        if report["strong_bijections"]:
            assert report["congruence_and_injective"] is True


TOPOLOGIES = {
    "discrete": discrete_space,
    "indiscrete": indiscrete_space,
    "chain": lambda carrier: chain_space(list(carrier.labels)),
}


@st.composite
def strong_reading_data(draw):
    """Split colimit-side data over one to three indices, in the set or the
    top ambient.  Components have zero to three points, each discrete,
    indiscrete or a chain.  Each unordered pair and each index has an
    overlap of zero to three points with drawn maps into its components
    (a diagonal overlap maps into its component twice, through the
    identity swap), carrying the discrete topology or the initial one
    along its two maps."""
    index = ["1", "2", "3"][:draw(st.integers(1, 3))]
    components = {i: ["c%s_%d" % (i, k)
                      for k in range(draw(st.integers(0, 3)))] for i in index}

    def overlap(i, j):
        size = draw(st.integers(0, 3)) if components[i] and components[j] \
            else 0
        labels = ["o%s_%s_%d" % (i, j, k) for k in range(size)]
        return (labels,
                {u: draw(st.sampled_from(components[i])) for u in labels},
                {u: draw(st.sampled_from(components[j])) for u in labels})

    overlaps = {(i, j): overlap(i, j)
                for a, i in enumerate(index) for j in index[a + 1:]}
    selves = {}
    for i in index:
        labels, to_i, _ = overlap(i, i)
        selves[i] = (labels, to_i, {u: u for u in labels})
    data = make_split_colimit(index, components, overlaps,
                              self_overlaps=selves)
    if draw(st.booleans()):
        return data
    spaces = {(i,): TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))](
        data.carrier((i,))) for i in index}
    for i, j, ov, e_i, into_j in label_overlap_maps(data):
        if (j, i) in spaces:    # an unordered pair shares its overlap
            spaces[(i, j)] = spaces[(j, i)]
        elif draw(st.booleans()):
            spaces[(i, j)] = discrete_space(ov)
        else:
            spaces[(i, j)] = space_from_nbhd(ov, induce_topology_by_frozensets(
                "initial", ov,
                [FinFn(ov, data.carrier((i,)), e_i),
                 FinFn(ov, data.carrier((j,)), into_j)],
                [spaces[(i,)], spaces[(j,)]]))
    return GluingData(data.indexcat, "top", data.objects, data.arrows,
                      FROM_OVERLAPS, spaces)


def test_strong_reading_matches_the_pullback_oracle():
    """``canonical_bijective`` of every ordered pair equals the reading
    from built pullbacks, on draws that include diagonal pairs, empty
    overlaps, canonical maps that are not injective, and canonical
    bijections that are not homeomorphisms."""
    seen = {"diagonal": 0, "empty": 0, "not injective": 0,
            "bijective, not homeomorphic": 0}

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(strong_reading_data())
    def check(data):
        glued = colimit_glue(data)
        got = {pair: diag["canonical_bijective"] for pair, diag
               in effective_gluing_check(data)["diagnostics"]["pairs"].items()}
        assert got == canonical_bijective_by_pullback(data, glued)
        bare = GluingData(data.indexcat, "sets", data.objects, data.arrows,
                          FROM_OVERLAPS)
        as_sets = canonical_bijective_by_pullback(bare, colimit_glue(bare))
        for i, j, ov, e_i, into_j in label_overlap_maps(data):
            seen["diagonal"] += i == j
            seen["empty"] += not len(ov)
            seen["not injective"] += \
                len({(e_i[u], into_j[u]) for u in ov}) < len(ov)
            seen["bijective, not homeomorphic"] += \
                as_sets[(i, j)] and not got[(i, j)]

    check()
    assert all(seen.values()), seen


def make_split_colimit_random(rng):
    from fixtures import random_split_colimit
    return random_split_colimit(rng)


def test_base_change_empty_source():
    sink = inclusion_sink(["p", "q"], [["p"], ["q"]])
    empty = FinSet([])
    changed = canonical_sink_functor(
        base_change_sink(sink, label_test(FinFn(empty, sink.target, {}))))
    assert all(len(changed.carrier(obj)) == 0 for obj in changed.objects)


def test_base_change_point_fiber():
    sink = inclusion_sink(["p", "q"], [["p"], ["q"]])
    v = FinSet(["v"])
    changed = canonical_sink_functor(
        base_change_sink(sink, label_test(FinFn(v, sink.target,
                                                {"v": "p"}))))
    assert len(changed.carrier(("1",))) == 1
    assert len(changed.carrier(("2",))) == 0


def test_effective_epi_with_full_overlaps():
    assert effective_epi_check(
        inclusion_sink(["p", "q", "r"], [["p", "q"], ["q", "r"]])) is True


def test_effective_epi_fails_when_not_surjective():
    assert effective_epi_check(
        inclusion_sink(["p", "q"], [["p"]])) is False


def test_effective_epi_fails_with_missed_point_and_smaller_class_count():
    u = FinSet(["u1", "u2", "u3"])
    a = FinSet(["a", "b"])
    c = FinSet(["c", "d"])
    sink = label_sink("sets", u, [
        ("1", a, FinFn(a, u, {"a": "u1", "b": "u2"})),
        ("2", c, FinFn(c, u, {"c": "u2", "d": "u1"}))])
    assert effective_epi_check(sink) is False
    glued = colimit_glue(canonical_sink_functor(sink))
    assert len(glued.apex) == 2  # strictly fewer classes than points of U


def test_universal_check_jointly_surjective():
    sink = inclusion_sink(["p", "q"], [["p"], ["q"]])
    v = FinSet(["x", "y"])
    tests = [FinFn(v, sink.target, {"x": "p", "y": "p"}),
             identity_fn(sink.target)]
    report = universal_effective_epi_check(sink, map(label_test, tests))
    assert report["jointly_surjective"] is True
    assert report["all_effective"] is True


def test_universal_check_builds_one_joint_image_per_sink(monkeypatch):
    built = []
    real = fincat.joint_image

    def counted(maps):
        built.append(maps)
        return real(maps)

    for module in (fincat, site):
        monkeypatch.setattr(module, "joint_image", counted)
    sink = inclusion_sink(["p", "q"], [["p"], ["q"]])
    v = FinSet(["x", "y"])
    tests = [FinFn(v, sink.target, {"x": "p", "y": "q"}),
             FinFn(v, sink.target, {"x": "q", "y": "q"}),
             identity_fn(sink.target)]
    report = universal_effective_epi_check(sink, map(label_test, tests))
    assert report["all_effective"] is True
    assert len(built) == 1


def test_universal_check_fails_at_identity():
    sink = inclusion_sink(["p", "q"], [["p"]])
    report = universal_effective_epi_check(
        sink, [label_test(identity_fn(sink.target))])
    assert report["base"] is False
    assert report["per_test"][0]["effective"] is False


def e2_split():
    return make_split_colimit(
        ["1", "2"],
        {"1": ["a0", "a1", "a2"], "2": ["b0", "b1", "b2"]},
        {("1", "2"): (["u", "v"], {"u": "a0", "v": "a2"},
                      {"u": "b2", "v": "b0"})})


def test_effectiveness_flags_true_on_circle():
    report = effective_gluing_check(e2_split())
    assert effectiveness_flags(report) == (True, True, True)


def test_effectiveness_flags_false_on_chain_with_empty_overlap():
    report = effective_gluing_check(e4_split())
    assert effectiveness_flags(report) == (False, False, False)
    diag = report["diagnostics"]["pairs"][("1", "3")]
    assert diag["intersection_ok"] is False
    assert diag["canonical_bijective"] is False


def test_effectiveness_vacuous_on_single_identity_component():
    data = make_split_colimit(["1"], {"1": ["x"]}, {})
    report = effective_gluing_check(data)
    assert effectiveness_flags(report) == (True, True, True)


def test_effectiveness_rejects_nonsplit():
    from fixtures import e1
    with pytest.raises(StructuralError):
        effective_gluing_check(e1())


def test_sink_equivalence_up_to_relabeling():
    a = inclusion_sink(["p", "q"], [["p"], ["q"]])
    target = FinSet(["p", "q"])
    src1 = FinSet(["x"])
    src2 = FinSet(["y"])
    b = label_sink("sets", target, [
        ("left", src2, FinFn(src2, target, {"y": "q"})),
        ("right", src1, FinFn(src1, target, {"x": "p"}))])
    assert sinks_equivalent(a, b)
    c = inclusion_sink(["p", "q"], [["p"], ["p"]])
    assert not sinks_equivalent(a, c)


def settop_spec(extra_coverings=(), extra_morphisms=()):
    a = FinSet(["a"])
    b = FinSet(["b"])
    u = FinSet(["a", "b"])
    cov = [
        label_sink("sets", a, [("1", a, identity_fn(a))]),
        label_sink("sets", b, [("1", b, identity_fn(b))]),
        label_sink("sets", u, [("1", u, identity_fn(u))]),
        label_sink("sets", u, [("1", a, FinFn(a, u, {"a": "a"})),
                               ("2", b, FinFn(b, u, {"b": "b"}))]),
    ]
    mor = [identity_fn(a), identity_fn(b), identity_fn(u)]
    return label_site("sets", cov + list(extra_coverings),
                      mor + list(extra_morphisms))


def test_coproduct_site_passes():
    report = covering_axioms_check(settop_spec())
    assert report["ok"], report["violations"]


def test_missing_composite_is_named():
    a2 = FinSet(["a1", "a2"])
    u2 = FinSet(["a1", "a2", "b"])
    b = FinSet(["b"])
    s1 = FinSet(["a1"])
    s2 = FinSet(["a2"])
    cov = [
        label_sink("sets", a2, [("1", a2, identity_fn(a2))]),
        label_sink("sets", b, [("1", b, identity_fn(b))]),
        label_sink("sets", u2, [("1", u2, identity_fn(u2))]),
        label_sink("sets", u2, [
            ("1", a2, FinFn(a2, u2, {"a1": "a1", "a2": "a2"})),
            ("2", b, FinFn(b, u2, {"b": "b"}))]),
        label_sink("sets", a2, [("1", s1, FinFn(s1, a2, {"a1": "a1"})),
                                ("2", s2, FinFn(s2, a2, {"a2": "a2"}))]),
    ]
    report = covering_axioms_check(label_site("sets", cov, []))
    assert not report["ok"]
    assert any("composite" in v for v in report["violations"])


def test_missing_base_change_is_named():
    a = FinSet(["a"])
    b = FinSet(["b"])
    u = FinSet(["a", "b"])
    incl_b = FinFn(b, u, {"b": "b"})
    report = covering_axioms_check(settop_spec(extra_morphisms=[incl_b]))
    assert not report["ok"]
    assert any("base change" in v for v in report["violations"])


def test_top_ambient_effective_epi_respects_topology():
    # jointly surjective, but the target topology is coarser than the final one
    u = FinSet(["p", "q"])
    part1 = FinSet(["p"])
    part2 = FinSet(["q"])
    coarse = indiscrete_space(u)
    sink = label_sink("top", u, [
        ("1", discrete_space(part1), FinFn(part1, u, {"p": "p"})),
        ("2", discrete_space(part2), FinFn(part2, u, {"q": "q"}))],
        target_space=coarse)
    assert effective_epi_check(sink) is False
    fine = discrete_space(u)
    sink2 = label_sink("top", u, [
        ("1", discrete_space(part1), FinFn(part1, u, {"p": "p"})),
        ("2", discrete_space(part2), FinFn(part2, u, {"q": "q"}))],
        target_space=fine)
    assert effective_epi_check(sink2) is True


def test_random_sets_effective_epi_equals_joint_surjectivity():
    rng = seeded(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        target = FinSet(["u%d" % k for k in range(rng.randint(1, 4))])
        sources = []
        for s in range(n):
            labels = ["s%d_%d" % (s, k) for k in range(rng.randint(0, 3))]
            src = FinSet(labels)
            sources.append((str(s + 1), src,
                            FinFn(src, target,
                                  {x: rng.choice(target.labels) for x in labels})))
        sink = label_sink("sets", target, sources)
        images = {y for _, _, fn in sources for y in fn.mapping.values()}
        assert effective_epi_check(sink) == (images == set(target.labels))


def pairwise_transitive(data):
    """Oracle: the generating identifications, symmetrized and with the
    diagonal added, checked for transitivity pair by pair."""
    rel = set()
    for a, b in colimit_relation_pairs(data):
        rel |= {(a, b), (b, a)}
    for (i,) in data.indexcat.singletons():
        rel |= {(tag(i, x), tag(i, x)) for x in data.carrier((i,))}
    return all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c)


@st.composite
def injective_split_colimits(draw):
    """Split from-overlaps data with injective overlap arrows, so that the
    congruence flag reads transitivity alone."""
    n = draw(st.integers(1, 4))
    index = [str(k + 1) for k in range(n)]
    components = {i: ["c%s_%d" % (i, k) for k in range(draw(st.integers(1, 3)))]
                  for i in index}
    overlaps = {}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = index[a], index[b]
            size = draw(st.integers(0, min(len(components[i]),
                                           len(components[j]))))
            labels = ["o%s_%s_%d" % (i, j, k) for k in range(size)]
            to_i = draw(st.permutations(components[i]))[:size]
            to_j = draw(st.permutations(components[j]))[:size]
            overlaps[(i, j)] = (labels, dict(zip(labels, to_i)),
                                dict(zip(labels, to_j)))
    return make_split_colimit(index, components, overlaps)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(injective_split_colimits())
@example(e3())
@example(e4_split())
def test_congruence_flag_matches_pairwise_transitivity(data):
    assert all(is_injective(data.fn(("incl", p[0], p)))
               for p in data.indexcat.pairs())
    report = effective_gluing_check(data)
    assert report["congruence_and_injective"] == pairwise_transitive(data)


@st.composite
def topologies(draw, carrier):
    """The union and intersection closure of a few drawn subsets."""
    fam = [frozenset(), frozenset(carrier.labels)]
    if len(carrier):
        fam += draw(st.lists(st.frozensets(st.sampled_from(carrier.labels)),
                             max_size=3))
    return FinTop(carrier, close_family(carrier, fam))


@st.composite
def maps_into(draw, prefix, target, space):
    """An object with a map into ``target``.  With a target ``space`` the
    object is a space: a subspace with its inclusion, or a discrete space
    with any map."""
    if space is not None and draw(st.booleans()):
        sub = subspace(space, draw(st.frozensets(st.sampled_from(target.labels)))
                       if len(target) else ())
        return sub, FinFn(sub.carrier, target, {x: x for x in sub.carrier})
    size = draw(st.integers(0, 3)) if len(target) else 0
    carrier = FinSet(["%s%d" % (prefix, k) for k in range(size)])
    fn = FinFn(carrier, target, {x: draw(st.sampled_from(target.labels))
                                 for x in carrier})
    return (carrier if space is None else discrete_space(carrier)), fn


@st.composite
def sinks(draw):
    """Set and top sinks, about half of them base-changed along a drawn map."""
    ambient = draw(st.sampled_from(["sets", "top"]))
    target = FinSet(["t%d" % k for k in range(draw(st.integers(0, 3)))])
    space = draw(topologies(target)) if ambient == "top" else None
    sources = []
    for k in range(draw(st.integers(1, 3))):
        obj, fn = draw(maps_into("s%d_" % k, target, space))
        sources.append((str(k + 1), obj, fn))
    sink = label_sink(ambient, target, sources, target_space=space)
    if draw(st.booleans()):
        v, fn = draw(maps_into("v", target, space))
        sink = base_change_sink(sink, label_test(
            fn, None if space is None else v))
    return sink


@st.composite
def covering_top_sinks(draw):
    """Top sinks whose sources reach every point of a drawn target space:
    discrete sources, effective exactly when the target is discrete (the
    final topology along them), or subspaces, along which the final
    topology can take more than one step to close."""
    target = FinSet(["t%d" % k for k in range(draw(st.integers(1, 4)))])
    space = draw(topologies(target))
    if draw(st.booleans()):
        cover = FinSet(["c%d" % k for k in range(len(target))])
        sources = [("1", discrete_space(cover),
                    FinFn(cover, target, dict(zip(cover, target))))]
        for k in range(draw(st.integers(0, 2))):
            _, fn = draw(maps_into("s%d_" % k, target, space))
            sources.append((str(k + 2), discrete_space(fn.domain), fn))
        return label_sink("top", target, sources, target_space=space)
    parts = draw(st.lists(st.frozensets(st.sampled_from(target.labels),
                                        min_size=1), min_size=1, max_size=3))
    parts += [{x} for x in target if not any(x in p for p in parts)]
    sources = []
    for k, part in enumerate(parts):
        sub = subspace(space, part)
        sources.append((str(k + 1), sub,
                        FinFn(sub.carrier, target, {x: x for x in sub.carrier})))
    return label_sink("top", target, sources, target_space=space)


def test_effective_epi_certificate_matches_the_colimit_route():
    verdicts = []

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.one_of(sinks(), covering_top_sinks()))
    @example(chain_cover())
    def check(sink):
        decision = effective_epi_check(sink)
        assert decision == effective_epi_by_colimit(sink)
        verdicts.append((sink, decision))

    check()
    false = [sink for sink, decision in verdicts if not decision]
    coarse = [sink for sink in false
              if sink.ambient == "top" and jointly_surjective(sink)]
    assert len(false) >= 100
    assert len(coarse) >= 30


def chain_cover_case():
    sink = chain_cover()
    data = canonical_sink_functor(sink)
    glued = colimit_glue(data)
    v = subspace(sink.target_space, ["y0", "y2"])
    into = FinFn(v.carrier, sink.sources[2][1].carrier,
                 {"y0": "c0", "y2": "c2"})
    return data, glued, v, into.then(leg_fns(data, glued)[("3",)])


@st.composite
def chain_pair_covers(draw):
    """Top sinks shaped like ``chain_cover``: a chain on three to five
    points in a drawn order, covered by the subspaces on its neighbouring
    pairs, and a discrete space mapped onto some of its points."""
    labels = draw(st.permutations(
        ["t%d" % k for k in range(draw(st.integers(3, 5)))]))
    space = chain_space(labels)
    target = space.carrier
    sources = []
    for k in range(len(labels) - 1):
        sub = subspace(space, labels[k:k + 2])
        sources.append((str(k + 1), sub,
                        FinFn(sub.carrier, target, {x: x for x in sub.carrier})))
    points = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    cover = FinSet(["c" + x for x in points])
    sources.append((str(len(labels)), discrete_space(cover),
                    FinFn(cover, target, {"c" + x: x for x in points})))
    return label_sink("top", target, sources, target_space=space)


@st.composite
def pulled_back_cases(draw):
    """Colimit data (the canonical functor of a drawn sink or of a drawn
    chain cover, drawn set data, or split top data from a drawn seed),
    glued, with a drawn map into its apex (from a subspace or a discrete
    space in the top ambient).  A chain cover glues its apex into the
    chain.  A subspace of it that skips a point between two of its own
    loses the order through that point along the pieces the pairs cut
    from it, so its final topology along them is finer than its own and
    the verdict false; the subspaces drawn for a chain cover give the
    false top verdicts."""
    source = draw(st.sampled_from(["sink", "sets", "top", "chain"]))
    if source == "sink":
        data = canonical_sink_functor(draw(sinks()))
    elif source == "chain":
        data = canonical_sink_functor(draw(chain_pair_covers()))
    elif source == "sets":
        data = draw(colimit_data())
    else:
        data = random_top_colimit(seeded(draw(st.integers(0, 2 ** 16))),
                                  effective=draw(st.booleans()))
    glued = colimit_glue(data)
    if source == "chain":
        # the apex lists the chain's points in chain order: each point is
        # kept or not, so that kept sets with a gap are drawn often
        apex = glued.apex.labels
        keep = draw(st.lists(st.booleans(), min_size=len(apex),
                             max_size=len(apex)))
        v = subspace(glued.space, [x for x, k in zip(apex, keep) if k])
        return data, glued, v, FinFn(v.carrier, glued.apex,
                                     {x: x for x in v.carrier})
    v, into = draw(maps_into("d", glued.apex, glued.space))
    return data, glued, v if data.ambient == "top" else None, into


def test_universality_certificate_matches_the_pulled_back_colimit():
    """The verdict, and the size of each component's pullback, equal those
    of the glued pulled-back diagram, on draws where a pullback has more
    members than the source of the map (a fibre of two or more points) and
    where it has none, and on drawn top maps whose pulled-back colimit is
    not glued up as well as on the chain-cover example."""
    verdicts = []
    sizes = Counter()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(pulled_back_cases())
    @example(chain_cover_case())
    def check(case):
        data, glued, v, into = case
        report = universal_glue_check(data, glued, table(into), v_space=v)
        decision, fiber_sizes = universal_glue_by_pullback(data, glued, into,
                                                           v)
        assert report["is_glued_up"] == decision
        assert report["fiber_sizes"] == fiber_sizes
        verdicts.append((data.ambient, decision))
        for n in fiber_sizes.values():
            sizes["empty" if not n else "wide" if n > len(into.domain)
                  else "narrow"] += 1

    check()
    # 207 top draws, 31 of them not glued up, and 93 set draws, all glued
    # up, besides the example, which is not; 415 empty pullbacks, 379
    # narrow and 16 wide
    assert verdicts.count(("top", False)) - 1 >= 10
    assert {ambient for ambient, _ in verdicts} == {"sets", "top"}
    assert sizes["wide"] >= 10 and sizes["empty"] >= 10
    data, glued, v, into = chain_cover_case()
    assert universal_glue_by_pullback(data, glued, into, v)[0] is False


def embeds(fn, dom, cod):
    """Whether ``fn`` is injective and the opens of ``dom`` are exactly the
    preimages of the opens of ``cod``."""
    return is_injective(fn) and \
        set(dom.opens) == {preimage(fn, o) for o in cod.opens}


def test_top_embedding_diagnostics_match_the_opens():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 16), st.booleans(), st.sampled_from([3, 5]))
    def check(seed, effective, size):
        data = random_top_colimit(seeded(seed), max_size=size,
                                  effective=effective)
        report = effective_gluing_check(data)
        glued = report["glued"]
        legs = leg_fns(data, glued)
        for i, diag in report["diagnostics"]["legs"].items():
            want = embeds(legs[(i,)], data.space((i,)), glued.space)
            assert diag["leg_embeds"] == want
            seen.add(("leg", want))
        for (i, j), diag in report["diagnostics"]["pairs"].items():
            want = embeds(data.fn(("incl", i, (i, j))), data.space((i, j)),
                          data.space((i,)))
            assert diag["edge_embeds"] == want
            seen.add(("edge", want))

    check()
    assert seen == {(kind, want) for kind in ("leg", "edge")
                    for want in (True, False)}


@st.composite
def sink_pairs(draw):
    """Two set or top sinks over one target, of 1-4 sources each, drawn
    from a pool of three maps, so that equivalent sources repeat: the
    second a reordering of the first, or a fresh draw of the same length."""
    ambient = draw(st.sampled_from(["sets", "top"]))
    target = FinSet(["t%d" % k for k in range(draw(st.integers(1, 2)))])
    space = draw(topologies(target)) if ambient == "top" else None
    pool = [draw(maps_into("p%d_" % k, target, space)) for k in range(3)]
    picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    other = draw(st.one_of(
        st.permutations(picks),
        st.lists(st.integers(0, 2), min_size=len(picks),
                 max_size=len(picks))))
    return tuple(
        label_sink(ambient, target,
                   [(str(k), *pool[p]) for k, p in enumerate(chosen)],
                   target_space=space)
        for chosen in (picks, other))


def test_greedy_sink_matching_agrees_with_backtracking():
    # the keyed decision and the greedy permutation oracle both agree with
    # the backtracking one
    verdicts = set()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(sink_pairs())
    def check(pair):
        a, b = pair
        decision = sinks_equivalent(a, b)
        assert decision == sinks_equivalent_by_backtracking(a, b)
        assert decision == sinks_equivalent_by_permutations(a, b)
        assert decision == sinks_equivalent(b, a)
        verdicts.add((a.ambient, decision))

    check()
    assert verdicts == {(ambient, decision) for ambient in ("sets", "top")
                        for decision in (True, False)}


def test_fibred_isomorphism_search_leaves_no_reference_cycle():
    # a chain and a discrete space on two points over one point: equal fibre
    # profiles, so the oracle tries every permutation of the fibre, and
    # none is a homeomorphism; the keys differ, and two disjoint two-point
    # chains, whose key needs the search to branch, leave nothing either
    chain = chain_space(["a0", "a1"])
    discrete = discrete_space(FinSet(["b0", "b1"]))
    point = FinSet(["y"])
    chains = space_from_nbhd(FinSet(["a", "b", "c", "d"]), {
        "a": {"a", "b"}, "b": {"b"}, "c": {"c", "d"}, "d": {"d"}})
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert not fibered_iso_by_permutations(
            chain, constant_fn(chain.carrier, point, "y"),
            discrete, constant_fn(discrete.carrier, point, "y"), "top")
        assert _canonical_form(chain.rows, [0, 0]) \
            != _canonical_form(discrete.rows, [0, 0])
        with budget(1), pytest.raises(ResourceError):
            _canonical_form(chains.rows, [0] * 4)
        assert _canonical_form(chains.rows, [0] * 4)
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


@st.composite
def base_change_cases(draw):
    """A set or top sink over a target of 0-4 points with 0-3 sources, and
    a test map into the target from 0-3 points.  A drawn source maps a
    subspace or a discrete space, and about every other top sink and every
    third set sink starts with a discrete copy of the whole target, so that
    it covers the test domain.  The test map is any map from a discrete
    domain or, in the top ambient, a subspace inclusion, the identity of
    the target space or a constant map from a drawn space."""
    ambient = draw(st.sampled_from(["sets", "top"]))
    target = FinSet(["t%d" % k
                     for k in range(draw(st.sampled_from([3, 4, 2, 1, 0])))])
    space = draw(topologies(target)) if ambient == "top" else None
    sources = []
    if draw(st.sampled_from(range(2 if space is not None else 3))) == 0:
        copy = FinSet(["c%d" % k for k in range(len(target))])
        sources.append(("0", copy if space is None else discrete_space(copy),
                        FinFn(copy, target, dict(zip(copy, target)))))
    for k in range(draw(st.integers(0, 3 - len(sources)))):
        obj, fn = draw(maps_into("s%d_" % k, target, space))
        sources.append((str(k + 1), obj, fn))
    sink = label_sink(ambient, target, sources, target_space=space)
    v = FinSet(["v%d" % k for k in range(draw(st.sampled_from([2, 3, 1, 0])))
                if len(target)])
    kind = "discrete" if space is None or not len(target) else draw(
        st.sampled_from(["identity", "subspace", "constant", "discrete"]))
    if kind == "discrete":
        fn = FinFn(v, target, {x: draw(st.sampled_from(target.labels))
                               for x in v})
        return sink, fn, None if space is None else discrete_space(v)
    if kind == "subspace":
        sub = subspace(space, draw(st.lists(st.sampled_from(target.labels),
                                            max_size=len(v))))
        return sink, FinFn(sub.carrier, target,
                           {x: x for x in sub.carrier}), sub
    if kind == "identity":
        return sink, identity_fn(target), space
    fn = constant_fn(v, target, draw(st.sampled_from(target.labels)))
    return sink, fn, draw(topologies(v))


def test_per_test_verdicts_match_the_built_base_change():
    # 400 draws: 95 set and 182 top cases effective, 42 set and 81 top
    # cases not, 35 of those top ones with a test domain that the sources
    # cover; 97 test domains are empty
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(base_change_cases())
    def check(case):
        sink, fn, v_space = case
        maps = [values for _, _, values in sink.sources]
        spaces = [obj for _, obj, _ in sink.sources] \
            if sink.ambient == "top" else ()
        decision = is_effective_after_base_change(table(fn), maps, v_space,
                                                  spaces)
        changed = base_change_sink(sink, label_test(fn, v_space))
        assert decision == effective_epi_check(changed)
        seen[(sink.ambient, decision)] += 1
        seen["covering"] += not decision and sink.ambient == "top" \
            and jointly_surjective(changed)
        seen["empty"] += not len(fn.domain)

    check()
    for ambient in ("sets", "top"):
        for decision in (True, False):
            assert seen[(ambient, decision)] >= 20, seen
    assert seen["covering"] >= 15 and seen["empty"] >= 40, seen


def test_positions_build_the_functor_and_the_base_change_as_labels_did():
    """The canonical functor of a sink and its base change along a test
    map, built on positions, have the objects, spaces and arrow tables,
    and the target and sources, that the label-built references give,
    on set and top sinks with empty targets, sources, test domains and
    pullbacks among them."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(base_change_cases())
    def check(case):
        sink, fn, v_space = case
        test = label_test(fn, v_space)
        changed = base_change_sink(sink, test)
        expected = base_change_sink_by_labels(sink, test)
        assert (changed.ambient, changed.target, changed.target_space) \
            == (expected.ambient, expected.target, expected.target_space)
        assert changed.sources == expected.sources
        seen[sink.ambient] += 1
        seen["empty pulled back source"] += any(
            not len(site._carrier(obj)) for _, obj, _ in changed.sources)
        if not sink.sources:    # no index set, both refuse
            for build in (canonical_sink_functor,
                          canonical_sink_functor_by_labels):
                with pytest.raises(StructuralError,
                                   match="index set must be nonempty"):
                    build(sink)
            return
        data = canonical_sink_functor(sink)
        ref = canonical_sink_functor_by_labels(sink)
        assert data.objects == ref.objects
        assert data.spaces == ref.spaces
        assert data.arrows == ref.arrows
        seen["empty overlap"] += any(not len(data.carrier(pair))
                                     for pair in data.indexcat.pairs())

    # 300 draws: 104 set and 196 top sinks, 96 functors with an empty
    # overlap and 140 base changes with an empty source
    check()
    assert seen["sets"] >= 90 and seen["top"] >= 150, seen
    assert seen["empty overlap"] >= 80, seen
    assert seen["empty pulled back source"] >= 100, seen


@st.composite
def small_sites(draw):
    """A set or top site fragment over the subsets of a drawn 1-3 point
    set or space: 1-4 coverings, each of a drawn subset by 0-3 others
    (inclusions, or in the set ambient any maps), and 0-3 morphisms
    (inclusions, identities, constant maps and, in the set ambient,
    permutations).  Source names come from ``a``, ``b``, ``a.a`` and
    ``a.b``, so composite names can collide: ``a`` then ``a.b`` and
    ``a.a`` then ``b`` both make ``a.a.b``."""
    ambient = draw(st.sampled_from(["sets", "top"]))
    base = FinSet(["p%d" % k for k in range(draw(st.integers(1, 3)))])
    space = draw(topologies(base)) if ambient == "top" else None
    subsets = st.lists(st.sampled_from(base.labels), unique=True).map(
        lambda labels: [x for x in base.labels if x in labels])

    def obj(labels):
        return FinSet(labels) if space is None else subspace(space, labels)

    def carrier(o):
        return o if space is None else o.carrier

    def some_map(dom, cod):
        """An inclusion where ``dom`` lies in ``cod``, else a constant map
        in the top ambient and any map in the set ambient; None when
        ``cod`` is empty and ``dom`` is not."""
        d, c = carrier(dom), carrier(cod)
        if all(x in c for x in d) and (space is None or draw(st.booleans())):
            return FinFn(d, c, {x: x for x in d})
        if not len(c):
            return None if len(d) else FinFn(d, c, {})
        if space is None:
            return FinFn(d, c, {x: draw(st.sampled_from(c.labels)) for x in d})
        return constant_fn(d, c, draw(st.sampled_from(c.labels)))

    coverings = []
    for _ in range(draw(st.integers(1, 4))):
        target = obj(draw(subsets))
        sources = []
        names = draw(st.lists(st.sampled_from(["a", "b", "a.a", "a.b"]),
                              unique=True, max_size=3))
        for name in names:
            source = obj(draw(subsets))
            fn = some_map(source, target)
            if fn is not None:
                sources.append((name, source, fn))
        coverings.append(label_sink(
            ambient, carrier(target), sources,
            target_space=None if space is None else target))
    morphisms = []
    for _ in range(draw(st.integers(0, 3))):
        dom, cod = obj(draw(subsets)), obj(draw(subsets))
        if space is None and len(dom) == len(cod) and draw(st.booleans()):
            fn = FinFn(dom, cod, dict(zip(dom, draw(st.permutations(
                cod.labels)))))
        else:
            fn = some_map(dom, cod)
        if fn is not None:
            morphisms.append(fn if space is None else TopMap(fn, dom, cod))
    return label_site(ambient, coverings, morphisms)


def site_outcome(check, spec, cap=None):
    """The violations ``check`` finds under the cap, or the error it
    raises, named with its class."""
    try:
        with budget(cap):
            return check(spec)["violations"]
    except (ResourceError, StructuralError) as err:
        return "%s: %s" % (type(err).__name__, err)


def test_declared_coverings_are_found_by_key_as_by_scan():
    # 300 draws, each also under a cap of 1-3: 82 set and 93 top sites
    # whose axioms hold, 67 set and 43 top sites violated, 15 refused for
    # composite names that collide; under the cap 85 checks raised the
    # scan's charge, 6 finished where the scan ran out and none ran out
    # later than the scan
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(small_sites(), st.integers(1, 3))
    def check(spec, cap):
        full = site_outcome(covering_axioms_check, spec)
        assert full == site_outcome(covering_axioms_by_scan, spec)
        if isinstance(full, list):
            seen[(spec.ambient, not full)] += 1
        else:
            seen["clash"] += 1
        capped = site_outcome(covering_axioms_check, spec, cap)
        scanned = site_outcome(covering_axioms_by_scan, spec, cap)
        # the keyed check charges a subsequence of the scan's charges: the
        # refinement families, the names, and the pullbacks and fibre
        # permutations of the candidates that hit a key
        if isinstance(capped, list):
            assert capped == full
        else:
            assert isinstance(scanned, str)
        if isinstance(scanned, str) and ("refinement" in scanned
                                         or "Structural" in scanned):
            assert capped == scanned
        if spec.ambient == "sets" and isinstance(scanned, str) \
                and "pullback" not in scanned:
            assert capped == scanned
        if isinstance(scanned, str) and "Resource" in scanned:
            seen["same charge" if capped == scanned else "finished"
                 if isinstance(capped, list) else "later charge"] += 1

    check()
    for ambient in ("sets", "top"):
        for holds in (True, False):
            assert seen[(ambient, holds)] >= 15, seen
    assert seen["clash"] >= 8, seen
    assert seen["same charge"] >= 20 and seen["finished"] >= 4, seen


def closed_rows(n, pairs):
    """The rows of the preorder on ``n`` points generated by ``pairs``: row
    ``p`` holds ``p`` and every point reached from it along the pairs."""
    rows = [1 << p for p in range(n)]
    for p, q in pairs:
        rows[p] |= 1 << q
    for k in range(n):
        rows = [row | rows[k] if row >> k & 1 else row for row in rows]
    return rows


SHAPES = ["preorder", "discrete", "indiscrete", "chain", "chains", "crown"]


@st.composite
def top_sources(draw, n=None, table=None):
    """A source over a target of 1-2 points: a space on 0-5 points of a
    drawn shape (a random preorder, the discrete or indiscrete space, a
    chain, disjoint two-point chains, or a crown, where each bottom lies
    below all tops but one) and its table; ``n`` and ``table`` fix the
    points and the table, so that only the space is drawn."""
    shape = draw(st.sampled_from(SHAPES))
    if n is None:
        n = draw(st.integers(0, 5))
    if shape == "preorder":
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=6)) if n else []
        rows = closed_rows(n, pairs)
    elif shape == "discrete":
        rows = closed_rows(n, [])
    elif shape == "indiscrete":
        rows = [(1 << n) - 1] * n
    elif shape == "chain":
        rows = closed_rows(n, [(p, p + 1) for p in range(n - 1)])
    elif shape == "chains":
        rows = closed_rows(n, [(p, p + 1) for p in range(0, n - 1, 2)])
    else:
        half = n // 2
        rows = closed_rows(n, [(b, half + t) for b in range(half)
                               for t in range(n - half) if t != b])
    order = draw(st.permutations(range(n)))
    # the space with its points taken in the drawn order
    place = {old: new for new, old in enumerate(order)}
    moved = [0] * n
    for old, row in enumerate(rows):
        moved[place[old]] = sum(1 << place[q] for q in range(n)
                                if row >> q & 1)
    space = FinTop.from_nbhd(FinSet(["x%d" % p for p in range(n)]), moved)
    if table is None:
        size = draw(st.integers(1, 2))
        table = [draw(st.integers(0, size - 1)) for _ in range(n)]
    return space, list(table)


def relabelled(space, table, order):
    """The same source with point ``k`` moved to position ``order[k]``."""
    n = len(table)
    rows, values = [0] * n, [0] * n
    for k, row in enumerate(space.rows):
        rows[order[k]] = sum(1 << order[q] for q in range(n) if row >> q & 1)
        values[order[k]] = table[k]
    return FinTop.from_nbhd(FinSet(["y%d" % p for p in range(n)]),
                            rows), values


@st.composite
def source_pairs(draw):
    """Two sources over one target: the first drawn, the second a
    relabelled copy of it, another space on the same points with the same
    table (equal fibre counts), or a fresh draw."""
    space, values = draw(top_sources())
    kind = draw(st.sampled_from(["copy", "profile", "fresh"]))
    if kind == "copy":
        order = draw(st.permutations(range(len(values))))
        return (space, values), relabelled(space, values, order)
    if kind == "profile":
        return (space, values), draw(top_sources(len(values), values))
    return (space, values), draw(top_sources())


def test_canonical_keys_decide_fibred_homeomorphism_as_permutations_do():
    # 600 draws: 369 pairs homeomorphic over the target and 231 not, 70 of
    # those with equal fibre counts; the key search branched on 67 sources.
    # The floors sit well under these, since an edit here re-seeds the
    # draws
    seen = Counter()
    point = FinSet(["t0", "t1"])

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(source_pairs())
    def check(pair):
        (a, ta), (b, tb) = pair
        keyed = _canonical_form(a.rows, ta) == _canonical_form(b.rows, tb)
        oracle = fibered_iso_by_permutations(
            a, FinFn(a.carrier, point, {x: point.labels[q]
                                        for x, q in zip(a.carrier, ta)}),
            b, FinFn(b.carrier, point, {x: point.labels[q]
                                        for x, q in zip(b.carrier, tb)}),
            "top")
        assert keyed == oracle
        seen[keyed] += 1
        seen["same counts"] += not keyed and sorted(ta) == sorted(tb) \
            and len(ta) == len(tb)
        for space, values in ((a, ta), (b, tb)):
            try:
                with budget(0):
                    _canonical_form(space.rows, values)
            except ResourceError:
                seen["branched"] += 1

    check()
    assert seen[True] >= 120 and seen[False] >= 80, seen
    assert seen["same counts"] >= 25 and seen["branched"] >= 20, seen


def crowns(sizes):
    """Disjoint crowns, each a cycle of even length ``2 * k`` read as a
    poset: bottoms ``b_i`` below tops ``t_i`` and ``t_(i+1)``; their rows
    over one target point."""
    n = 2 * sum(sizes)
    pairs, start = [], 0
    for k in sizes:
        for i in range(k):
            pairs += [(start + i, start + k + i),
                      (start + i, start + k + (i + 1) % k)]
        start += 2 * k
    return closed_rows(n, pairs)


def test_refinement_cannot_tell_cycles_apart_but_the_key_can():
    # every bottom lies below two tops and every top above two bottoms, in
    # a 10-cycle and in a 6-cycle beside a 4-cycle: refinement leaves one
    # cell of bottoms and one of tops in both, related in neither
    # uniformly, so both keys branch; the two are not homeomorphic, and
    # each key is the same for every order of the points
    rng = seeded(97)
    keys = []
    for sizes in ((5,), (3, 2)):
        rows = crowns(sizes)
        with budget(0), pytest.raises(ResourceError):
            _canonical_form(rows, [0] * 10)
        key = _canonical_form(rows, [0] * 10)
        space = FinTop.from_nbhd(FinSet(["x%d" % p for p in range(10)]), rows)
        for _ in range(12):
            order = list(range(10))
            rng.shuffle(order)
            copy, values = relabelled(space, [0] * 10, order)
            assert _canonical_form(copy.rows, values) == key
        keys.append(key)
    assert keys[0] != keys[1]


def test_refinement_splits_points_by_their_down_sets():
    # a two-point chain beside a point: the top of the chain and the lone
    # point have the same up-sets and differ in their down-sets, which
    # settle the key with no individualization
    rows = closed_rows(3, [(0, 1)])
    with budget(0):
        key = _canonical_form(rows, [0, 0, 0])
    assert key != _canonical_form(closed_rows(3, []), [0, 0, 0])
