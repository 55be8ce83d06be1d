"""Gluing data kept as position tables agrees with the label path the
engine took while each arrow was a checked ``FinFn``: on drawn gluing
payloads in both modes, both directions and both ambients, empty overlaps
and invalid data included, ``cli.parse_gluing`` and the kernels give the
glued apex, legs and classes, the effectiveness verdicts and diagnostics,
the hom counts and certificate, and every refusal that
``oracles.parse_gluing_by_labels`` and the label kernels give; and a
refinement's report matches ``oracles.refine_by_labels``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge import cli
from glueforge.errors import StructuralError
from glueforge.fincat import FinSet
from glueforge.gluing import colimit_glue, hom_transport, limit_glue
from glueforge.site import effective_gluing_check

from fixtures import label_nbhd
from oracles import (
    colimit_by_labels,
    effectiveness_by_labels,
    hom_bijection_exhaustive,
    hom_families_exhaustive,
    limit_by_labels,
    parse_gluing_by_labels,
    refine_by_labels,
)

INDEX = ["1", "2", "3"]
TOPOLOGIES = ("discrete", "indiscrete", "chain")


def node(points, ambient, kind):
    """A set's labels, or its points with the discrete, the indiscrete or
    the chain topology, whose opens are the prefixes of the points."""
    if ambient == "sets":
        return list(points)
    if kind == "discrete":
        opens = [[p for k, p in enumerate(points) if bits >> k & 1]
                 for bits in range(2 ** len(points))]
    elif kind == "indiscrete":
        opens = [[], list(points)]
    else:
        opens = [list(points[:k]) for k in range(len(points) + 1)]
    return {"points": list(points), "opens": opens}


@st.composite
def gluing_payloads(draw, mode=None, direction=None, ambient=None,
                    breaks=True):
    """A gluing payload of one to three components of zero to three
    points: an overlap of zero to three points per unordered pair (split
    data repeats it at both orientations, with a drawn bijection as the
    swap) and, in split mode, sometimes an explicit diagonal overlap of up
    to three points with a drawn permutation, which need not be an
    involution.  Maps are drawn, so in the top ambient they need not be
    continuous; with ``breaks`` one entry is then sometimes broken: an
    arrow dropped, a value outside its codomain or a key outside its
    domain."""
    mode = mode or draw(st.sampled_from(["nonsplit", "split"]))
    direction = direction or draw(st.sampled_from(
        ["from-overlaps", "toward-overlaps"]))
    ambient = ambient or draw(st.sampled_from(["sets", "top"]))
    toward = direction == "toward-overlaps"
    index = INDEX[:draw(st.integers(1, 3))]
    comps = {i: ["x%s_%d" % (i, k) for k in range(draw(st.integers(0, 3)))]
             for i in index}

    def topology():
        return draw(st.sampled_from(TOPOLOGIES))

    def edge_map(points, comp):
        """The map of an edge between an overlap's points and a
        component."""
        if toward:
            return {x: draw(st.sampled_from(points)) for x in comp}
        return {u: draw(st.sampled_from(comp)) for u in points}

    def overlap_size(i, j, most):
        if toward:
            low = 1 if comps[i] or comps[j] else 0
            return draw(st.integers(low, most))
        return draw(st.integers(0, most)) if comps[i] and comps[j] else 0

    objects = {i: node(comps[i], ambient, topology()) for i in index}
    arrows = []
    for a, i in enumerate(index):
        for j in index[a + 1:]:
            points = ["o%s%s_%d" % (i, j, k)
                      for k in range(overlap_size(i, j, 3))]
            shared = node(points, ambient, topology())
            map_i, map_j = edge_map(points, comps[i]), edge_map(points, comps[j])
            objects["%s,%s" % (i, j)] = shared
            other = "%s,%s" % (i, j) if mode == "nonsplit" \
                else "%s,%s" % (j, i)
            arrows.append({"kind": "edge", "from": i, "pair": "%s,%s" % (i, j),
                           "map": map_i})
            arrows.append({"kind": "edge", "from": j, "pair": other,
                           "map": map_j})
            if mode == "split":
                objects[other] = shared
                arrows.append({"kind": "tau", "pair": "%s,%s" % (i, j),
                               "map": dict(zip(points, draw(
                                   st.permutations(points))))})
    if mode == "split":
        for i in index:
            if not draw(st.booleans()):
                continue    # the diagonal default
            points = ["d%s_%d" % (i, k) for k in range(overlap_size(i, i, 3))]
            objects["%s,%s" % (i, i)] = node(points, ambient, topology())
            arrows.append({"kind": "edge", "from": i, "pair": "%s,%s" % (i, i),
                           "map": edge_map(points, comps[i])})
            arrows.append({"kind": "tau", "pair": "%s,%s" % (i, i),
                           "map": dict(zip(points, draw(
                               st.permutations(points))))})
    broken = draw(st.sampled_from(["none", "none", "drop", "outside",
                                   "extra"])) if breaks else "none"
    if broken == "drop" and arrows:
        del arrows[draw(st.integers(0, len(arrows) - 1))]
    elif broken in ("outside", "extra"):
        filled = [entry["map"] for entry in arrows if entry["map"]]
        if filled:
            mapping = draw(st.sampled_from(filled))
            key = draw(st.sampled_from(sorted(mapping)))
            mapping["zz" if broken == "extra" else key] = "zz"
    return {"mode": mode, "ambient": ambient, "direction": direction,
            "index": index, "objects": objects, "arrows": arrows}


def read(parse, payload):
    """The parsed data, or the text of the refusal."""
    try:
        return parse(payload), None
    except StructuralError as err:
        return None, str(err)


def same_glued(glued, oracle):
    assert list(glued.apex) == list(oracle.apex)
    assert {obj: leg.mapping for obj, leg in glued.legs.items()} \
        == {obj: leg.mapping for obj, leg in oracle.legs.items()}
    assert glued.leg_props == oracle.leg_props
    if glued.space is not None or oracle.space is not None:
        assert label_nbhd(glued.space) == label_nbhd(oracle.space)


def test_gluing_tables_match_the_label_path():
    seen = {}

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(gluing_payloads(), st.integers(0, 2))
    def check(payload, zsize):
        data, refused = read(cli.parse_gluing, payload)
        labels, oracle_refused = read(parse_gluing_by_labels, payload)
        assert refused == oracle_refused
        key = (payload["mode"], payload["direction"], payload["ambient"])
        seen.setdefault(key, {"valid": 0, "invalid": 0})[
            "invalid" if refused else "valid"] += 1
        if refused:
            return
        if payload["direction"] == "toward-overlaps":
            same_glued(limit_glue(data), limit_by_labels(labels))
            return
        glued, oracle = colimit_glue(data), colimit_by_labels(labels)
        same_glued(glued, oracle)
        assert glued.witness["merged"] == oracle.witness["merged"]
        z = FinSet(["z%d" % k for k in range(zsize)])
        hom = hom_transport(data, z)
        assert (hom["family_count"], hom["hom_count"],
                hom["bijection_verified"]) == (
            hom_families_exhaustive(labels, z), zsize ** len(oracle.apex),
            hom_bijection_exhaustive(labels, z, oracle))
        if payload["mode"] == "split":
            report = effective_gluing_check(data)
            assert (report.flags(), report.diagnostics) == \
                effectiveness_by_labels(labels, oracle)
        seen[key]["empty overlap"] = seen[key].get("empty overlap", 0) + any(
            not data.carrier(p) for p in data.indexcat.pairs())

    check()
    # every mode, direction and ambient drawn, each valid and invalid, and
    # valid colimit-side data with an empty overlap in each
    assert len(seen) == 8, sorted(seen)
    for key, counts in seen.items():
        assert counts["valid"] >= 5 and counts["invalid"] >= 2, (key, counts)
        if key[1] == "from-overlaps":
            assert counts["empty overlap"] >= 2, (key, counts)


@st.composite
def refinement_payloads(draw):
    """A refinement of nonsplit set data along a drawn gamma: the target is
    the source reindexed, its component i the source's at gamma(i), each
    pair the source's pair at gamma of its indices or, where gamma merges
    them, the component itself with identity edges, and each component map
    the identity; in half the draws one value of a component map is then
    moved."""
    direction = draw(st.sampled_from(["from-overlaps", "toward-overlaps"]))
    source = draw(gluing_payloads("nonsplit", direction, "sets",
                                  breaks=False))
    data = cli.parse_gluing(source)
    targets = ["a", "b", "c"][:draw(st.integers(2, 3))]
    gamma = {t: draw(st.sampled_from(source["index"])) for t in targets}
    objects, arrows, components = {}, [], {}

    def labels(obj):
        return list(data.carrier(obj))

    for t in targets:
        objects[t] = labels((gamma[t],))
    for a, s in enumerate(targets):
        for t in targets[a + 1:]:
            key = "%s,%s" % (s, t)
            gs, gt = gamma[s], gamma[t]
            if gs == gt:
                objects[key] = labels((gs,))
                edge = {x: x for x in objects[key]}
                arrows += [{"kind": "edge", "from": s, "pair": key,
                            "map": dict(edge)},
                           {"kind": "edge", "from": t, "pair": key,
                            "map": dict(edge)}]
                continue
            pair = data.indexcat.pair(gs, gt)
            objects[key] = labels(pair)
            for end, g in ((s, gs), (t, gt)):
                fn = data.fn(("incl", g, pair))
                arrows.append({"kind": "edge", "from": end, "pair": key,
                               "map": dict(fn.mapping)})
    for key, points in objects.items():
        components[key] = {x: x for x in points}
    if draw(st.booleans()):
        moved = [(key, m) for key, m in components.items() if len(m) > 1]
        if moved:
            key, mapping = draw(st.sampled_from(moved))
            x = draw(st.sampled_from(sorted(mapping)))
            mapping[x] = draw(st.sampled_from(
                [y for y in objects[key] if y != x]))
    target = {"mode": "nonsplit", "ambient": "sets", "direction": direction,
              "index": targets, "objects": objects, "arrows": arrows}
    return {"source": source, "target": target, "gamma": gamma,
            "components": components}


def test_refinement_tables_match_the_label_path():
    seen = {"valid": 0, "invalid": 0}

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(refinement_payloads())
    def check(payload):
        doc = cli.Document("refinement", payload, "1")
        try:
            report = cli.execute("refine", doc)
        except StructuralError as err:
            report = str(err)
        try:
            oracle = refine_by_labels(payload)
        except StructuralError as err:
            oracle = str(err)
        assert report == oracle
        if isinstance(report, dict):
            seen["valid" if report["verdicts"]["valid"] else "invalid"] += 1

    check()
    assert seen["valid"] >= 20 and seen["invalid"] >= 10, seen
