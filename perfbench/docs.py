"""Seeded generators for the benchmark's documents.

Each workload is a fixed list of items ``{"name", "command", "flags", "doc",
"expect"}``: ``doc`` is the JSON document handed to glueforge, ``expect``
records how the document was built (its expected exit code and the
construction data the reference checkers need).  Sizes are fixed per class;
the seed only permutes labels and chooses which elements the maps hit, in
ways that leave the amount of work unchanged.  That keeps a run's cost the
same from seed to seed while the inputs differ.
"""

import random

import spaces


def _doc(kind, payload):
    return {"version": "1", "kind": kind, "payload": payload}


def _item(name, command, doc, expect, **flags):
    return {"name": name, "command": command, "flags": flags, "doc": doc,
            "expect": expect}


# ----------------------------------------------------------------- gluings

def _gluing(mode, ambient, direction, index, objects, arrows, **extra):
    payload = {"mode": mode, "ambient": ambient, "direction": direction,
               "index": list(index), "objects": objects, "arrows": arrows}
    payload.update(extra)
    return payload


def _pairs(index):
    return [(index[a], index[b]) for a in range(len(index))
            for b in range(a + 1, len(index))]


def _overlap_payload(mode, ambient, direction, index, comps, overlaps,
                     comp_spaces=None, overlap_spaces=None, **extra):
    """Gluing payload from components and one overlap per unordered pair.

    ``overlaps[(i, j)] = (labels, map_i, map_j)``; the maps run from the
    overlap into the components (``from-overlaps``) or from the components
    into the overlap (``toward-overlaps``).  Missing pairs get an empty
    overlap.  Split data mirrors each overlap with an identity swap and
    leaves the diagonal to its identity default.
    """
    objects = {}
    for i in index:
        objects[i] = comp_spaces[i] if comp_spaces else list(comps[i])
    arrows = []
    for i, j in _pairs(index):
        labels, map_i, map_j = overlaps.get((i, j), ([], {}, {}))
        node = overlap_spaces[(i, j)] if overlap_spaces else list(labels)
        keys = ["%s,%s" % (i, j)] if mode == "nonsplit" \
            else ["%s,%s" % (i, j), "%s,%s" % (j, i)]
        for key in keys:
            objects[key] = node
        arrows.append({"kind": "edge", "from": i, "pair": keys[0],
                       "map": dict(map_i)})
        arrows.append({"kind": "edge", "from": j, "pair": keys[-1],
                       "map": dict(map_j)})
        if mode == "split":
            arrows.append({"kind": "tau", "pair": keys[0],
                           "map": {u: u for u in labels}})
    return _gluing(mode, ambient, direction, index, objects, arrows, **extra)


def _index(m):
    return [str(k + 1) for k in range(m)]


def colour_limit(rng, m, n, colours, mode="nonsplit", ambient="sets"):
    """Limit-side data whose compatible families are the tuples of one colour.

    Component i has ``n`` elements coloured evenly with ``colours`` colours
    (the seed picks which element gets which colour); every overlap is the
    colour set.  The product has n**m candidates, the apex
    colours * (n // colours)**m members, whatever the seed.
    """
    index = _index(m)
    cols = ["k%d" % c for c in range(colours)]
    comps = {i: ["x%s_%d" % (i, k) for k in range(n)] for i in index}
    colour = {}
    for i in index:
        assign = [cols[k % colours] for k in range(n)]
        rng.shuffle(assign)
        colour[i] = dict(zip(comps[i], assign))
    overlaps = {(i, j): (cols, colour[i], colour[j]) for i, j in _pairs(index)}
    comp_spaces = overlap_spaces = None
    if ambient == "top":
        # layered spaces: a point's neighbourhood is every point of its
        # colour or a lower one, so the topology does not depend on the seed
        comp_spaces = {}
        for i in index:
            rank = {c: k for k, c in enumerate(cols)}
            nbhd = {x: frozenset(y for y in comps[i]
                                 if rank[colour[i][y]] <= rank[colour[i][x]])
                    for x in comps[i]}
            comp_spaces[i] = spaces.space_json(comps[i], nbhd)
        ind = spaces.space_json(*spaces.indiscrete(cols))
        overlap_spaces = {pair: ind for pair in _pairs(index)}
    return _overlap_payload(mode, ambient, "toward-overlaps", index, comps,
                            overlaps, comp_spaces, overlap_spaces)


def _matching(rng, left, right, size, tag):
    """An overlap of ``size`` points mapped injectively into both sides."""
    labels = ["%s_%d" % (tag, k) for k in range(size)]
    return (labels, dict(zip(labels, rng.sample(left, size))),
            dict(zip(labels, rng.sample(right, size))))


def _chart_parts(rng, m, n, o, shape):
    index = _index(m)
    comps = {i: ["x%s_%d" % (i, k) for k in range(n)] for i in index}
    if shape == "tree":
        edges = [(index[rng.randrange(k)], index[k]) for k in range(1, m)]
    else:
        edges = [(index[k], index[k + 1]) for k in range(m - 1)]
        if shape == "ring":
            edges.append((index[0], index[-1]))
    overlaps = {(i, j): _matching(rng, comps[i], comps[j], o,
                                  "o%s_%s" % (i, j)) for i, j in edges}
    return index, comps, overlaps


def chart_colimit(rng, m, n, o, shape="chain", mode="nonsplit", **extra):
    """Colimit-side sets data: ``m`` components of ``n`` points, and an
    injective overlap of ``o`` points along each edge of a chain, ring or
    random tree of components.  Other pairs have empty overlaps."""
    index, comps, overlaps = _chart_parts(rng, m, n, o, shape)
    return _overlap_payload(mode, "sets", "from-overlaps", index, comps,
                            overlaps, **extra)


def _relabel_payload(payload, old, new):
    """A copy of a sets colimit payload with every element label renamed."""
    def rename(lab):
        return new + lab[len(old):] if lab.startswith(old) else lab
    objects = {k: [rename(x) for x in v]
               for k, v in payload["objects"].items()}
    arrows = [dict(a, map={u: rename(x) for u, x in a["map"].items()})
              for a in payload["arrows"]]
    return dict(payload, objects=objects, arrows=arrows), rename


def colimit_refinement(rng, m, n, o, shape):
    """Identity-indexed refinement onto a relabelled copy of colimit data."""
    source = chart_colimit(rng, m, n, o, shape=shape)
    target, rename = _relabel_payload(source, "x", "y")
    components = {k: {x: rename(x) for x in labels}
                  for k, labels in source["objects"].items()}
    return _doc("refinement", {
        "source": source, "target": target,
        "gamma": {i: i for i in source["index"]},
        "components": components})


def limit_refinement(rng, m, n, colours):
    """Refinement from colour data on ``m`` components to its restriction
    to the first ``m - 1`` components, along the inclusion of index sets."""
    source = colour_limit(rng, m, n, colours)
    keep = source["index"][:-1]
    objects = {k: v for k, v in source["objects"].items()
               if all(part in keep for part in k.split(","))}
    arrows = [a for a in source["arrows"]
              if all(part in keep for part in a["pair"].split(","))]
    target = dict(source, index=keep, objects=objects, arrows=arrows)
    components = {k: {x: x for x in v} for k, v in objects.items()}
    return _doc("refinement", {"source": source, "target": target,
                               "gamma": {i: i for i in keep},
                               "components": components})


# ------------------------------------------------------------------- sinks

def block_sink(rng, t, s, p, surjective=True, tests=0, inner=False):
    """A sets sink of ``s`` sources of ``p`` points over ``t`` target points.

    Source k sends its q-th point to target slot (k * t // s + q) mod t, so
    the fibre structure, and with it every pullback size, is fixed; the seed
    permutes the target labels.  Without ``surjective`` one extra target
    point is left unhit.
    """
    target = ["t%d" % k for k in range(t)]
    slots = list(target)
    rng.shuffle(slots)
    if not surjective:
        target.append("t_miss")
    sources = []
    for k in range(s):
        pts = ["s%d_%d" % (k, q) for q in range(p)]
        start = k * t // s
        sources.append({"name": "c%d" % k, "object": pts,
                        "map": {x: slots[(start + q) % t]
                                for q, x in enumerate(pts)}})
    payload = {"ambient": "sets", "target": target, "sources": sources}
    if tests:
        payload["tests"] = []
        for k in range(tests):
            vs = ["v%d_%d" % (k, q) for q in range(3)]
            payload["tests"].append(
                {"object": vs, "map": {v: rng.choice(slots) for v in vs}})
    if inner:
        payload["inner"] = {}
        for src in sources:
            half = len(src["object"]) // 2
            parts = [src["object"][:half], src["object"][half:]]
            payload["inner"][src["name"]] = {
                "target": src["object"],
                "sources": [{"name": "h%d" % h, "object": part,
                             "map": {x: x for x in part}}
                            for h, part in enumerate(parts)]}
    return _doc("sink", payload)


def block_site(rng, n, blocks, violate=False):
    """A sets site fragment: a set, a partition cover of it, the identity
    cover of every piece, and identity morphisms.  With ``violate`` the
    inclusion of the first block is added as a morphism; base change of the
    partition cover along it is not declared."""
    whole = ["a%d" % k for k in range(n)]
    rng.shuffle(whole)
    parts = [whole[b::blocks] for b in range(blocks)]

    def ident(labels):
        return {x: x for x in labels}
    coverings = [{"target": whole, "sources": [
        {"name": "p%d" % b, "object": part, "map": ident(part)}
        for b, part in enumerate(parts)]}]
    for obj in [whole] + parts:
        coverings.append({"target": obj, "sources": [
            {"name": "id", "object": obj, "map": ident(obj)}]})
    morphisms = [{"dom": obj, "cod": obj, "map": ident(obj)}
                 for obj in [whole] + parts]
    if violate:
        morphisms.append({"dom": parts[0], "cod": whole,
                          "map": ident(parts[0])})
    return _doc("site", {"ambient": "sets", "coverings": coverings,
                         "morphisms": morphisms})


# ------------------------------------------------------------ top ambient

def branching_space(rng, branches, depth):
    """A rooted tree space: a root with ``branches`` chains of ``depth``
    points.  Charts are the root plus one branch; they are open."""
    labels = ["r"]
    parent = {}
    arms = []
    for b in range(branches):
        arm = []
        prev = "r"
        for d in range(depth):
            lab = "b%d_%d" % (b, d)
            labels.append(lab)
            parent[lab] = prev
            prev = lab
            arm.append(lab)
        arms.append(arm)
    order = labels[:]
    rng.shuffle(order)
    points, nbhd = spaces.tree(order, parent)
    charts = [["r"] + arm for arm in arms]
    return points, nbhd, charts


def top_chart_gluing(rng, branches, depth):
    """Split top data of the charts of one space glued along their literal
    intersections: effective, with open embedded legs."""
    points, nbhd, charts = branching_space(rng, branches, depth)
    index = _index(len(charts))
    comp_spaces = {}
    comps = {}
    members = {}
    for i, chart in zip(index, charts):
        pts, nb = spaces.subspace(points, nbhd, chart)
        comps[i] = pts
        members[i] = frozenset(chart)
        comp_spaces[i] = spaces.space_json(pts, nb)
    overlaps = {}
    overlap_spaces = {}
    for i, j in _pairs(index):
        inter = [x for x in points if x in members[i] & members[j]]
        labels = ["%s~%s~%s" % (i, j, x) for x in inter]
        ren = dict(zip(inter, labels))
        pts, nb = spaces.subspace(points, nbhd, inter)
        overlap_spaces[(i, j)] = spaces.space_json(
            [ren[x] for x in pts],
            {ren[x]: frozenset(ren[y] for y in nb[x]) for x in pts})
        back = {lab: x for x, lab in ren.items()}
        overlaps[(i, j)] = (labels, back, back)
    return _overlap_payload("split", "top", "from-overlaps", index, comps,
                            overlaps, comp_spaces, overlap_spaces)


def _discrete_top(index, comps, overlaps):
    """Split top data on discrete spaces, where every map is open."""
    comp_spaces = {i: spaces.space_json(*spaces.discrete(comps[i]))
                   for i in index}
    overlap_spaces = {pair: spaces.space_json(*spaces.discrete(
        overlaps.get(pair, ([],))[0])) for pair in _pairs(index)}
    return _overlap_payload("split", "top", "from-overlaps", index, comps,
                            overlaps, comp_spaces, overlap_spaces)


def top_discrete_gluing(rng, m, n, o):
    """Discrete components glued by injective maps along a chain."""
    return _discrete_top(*_chart_parts(rng, m, n, o, "chain"))


def e4_top():
    """Three points chained through two overlaps, the (1,3) overlap empty:
    not effective."""
    return _discrete_top(["1", "2", "3"], {i: ["x" + i] for i in "123"},
                         {("1", "2"): (["p"], {"p": "x1"}, {"p": "x2"}),
                          ("2", "3"): (["q"], {"q": "x2"}, {"q": "x3"})})


def top_chart_sink(rng, branches, depth, cover=True):
    """The charts of a branching space as a top sink of open inclusions, with
    the inclusion of the first chart as base-change test.  Without ``cover``
    the last branch tip is missing from every chart."""
    points, nbhd, charts = branching_space(rng, branches, depth)
    if not cover:
        charts[-1] = charts[-1][:-1]
    target = spaces.space_json(points, nbhd)
    sources = []
    for k, chart in enumerate(charts):
        pts, nb = spaces.subspace(points, nbhd, chart)
        sources.append({"name": "u%d" % k,
                        "object": spaces.space_json(pts, nb),
                        "map": {x: x for x in pts}})
    pts, nb = spaces.subspace(points, nbhd, charts[0])
    tests = [{"object": spaces.space_json(pts, nb), "map": {x: x for x in pts}}]
    return _doc("sink", {"ambient": "top", "target": target,
                         "sources": sources, "tests": tests})


def top_chart_site(rng, branches, depth):
    """Open charts of a branching space, the identity cover of the space and
    of every chart, and identity morphisms: the axioms hold."""
    points, nbhd, charts = branching_space(rng, branches, depth)
    whole = spaces.space_json(points, nbhd)
    pieces = []
    for chart in charts:
        pts, nb = spaces.subspace(points, nbhd, chart)
        pieces.append(spaces.space_json(pts, nb))
    coverings = [{"target": whole, "sources": [
        {"name": "u%d" % k, "object": obj,
         "map": {x: x for x in obj["points"]}}
        for k, obj in enumerate(pieces)]}]
    for obj in [whole] + pieces:
        coverings.append({"target": obj, "sources": [
            {"name": "id", "object": obj,
             "map": {x: x for x in obj["points"]}}]})
    morphisms = [{"dom": obj, "cod": obj,
                  "map": {x: x for x in obj["points"]}}
                 for obj in [whole] + pieces]
    return _doc("site", {"ambient": "top", "coverings": coverings,
                         "morphisms": morphisms})


# ------------------------------------------------------------- presheaves

def _section(pts, values):
    return ";".join("%s=%s" % (p, v) for p, v in zip(pts, values)) \
        if pts else "()"


def _assignments(pts, stalks):
    out = [()]
    for p in pts:
        out = [a + (v,) for a in out for v in stalks[p]]
    return out


def _open_list(points, nbhd):
    pos = {p: k for k, p in enumerate(points)}
    return sorted(spaces.opens_of(points, nbhd),
                  key=lambda o: (len(o), sorted(pos[x] for x in o)))


def function_body(points, nbhd, stalks):
    """The presheaf of sections of ``stalks`` on a space, as a document body."""
    opens = _open_list(points, nbhd)
    sections = {}
    for o in opens:
        pts = spaces.ordered(points, o)
        sections[",".join(pts)] = [_section(pts, a)
                                   for a in _assignments(pts, stalks)]
    restrictions = {}
    for w in opens:
        wp = spaces.ordered(points, w)
        for v in opens:
            if v < w:
                vp = spaces.ordered(points, v)
                keep = [wp.index(p) for p in vp]
                restrictions["%s>%s" % (",".join(wp), ",".join(vp))] = {
                    _section(wp, a): _section(vp, [a[k] for k in keep])
                    for a in _assignments(wp, stalks)}
    return {"sections": sections, "restrictions": restrictions}


def constant_body(points, nbhd, values):
    opens = _open_list(points, nbhd)
    sections = {",".join(spaces.ordered(points, o)): list(values)
                for o in opens}
    restrictions = {}
    for w in opens:
        for v in opens:
            if v < w:
                restrictions["%s>%s" % (",".join(spaces.ordered(points, w)),
                                        ",".join(spaces.ordered(points, v)))] \
                    = {x: x for x in values}
    return {"sections": sections, "restrictions": restrictions}


def _stalks(rng, points, size):
    out = {}
    for p in points:
        vals = ["v%d" % k for k in range(size)]
        rng.shuffle(vals)
        out[p] = vals
    return out


def _shape(rng, shape, n):
    labels = ["p%d" % k for k in range(n)]
    rng.shuffle(labels)
    if shape == "chain":
        return spaces.chain(labels)
    if shape == "discrete":
        return spaces.discrete(labels)
    # Sierpinski-like: pairs of points, each pair a Sierpinski space
    nbhd = {}
    for k in range(0, n, 2):
        low = labels[k]
        nbhd[low] = frozenset([low])
        if k + 1 < n:
            nbhd[labels[k + 1]] = frozenset([low, labels[k + 1]])
    return labels, nbhd


def sheaf_doc(rng, shape, n, stalk, constant=False):
    points, nbhd = _shape(rng, shape, n)
    if constant:
        body = constant_body(points, nbhd, ["c%d" % k for k in range(stalk)])
    else:
        body = function_body(points, nbhd, _stalks(rng, points, stalk))
    return _doc("presheaf", {"space": spaces.space_json(points, nbhd),
                             "presheaf": body})


def gluing_datum(rng, shape, n, stalk, charts_of, twists=None):
    """Function-presheaf charts of one space with pointwise transitions.

    ``charts_of(points, nbhd)`` returns the chart member lists; ``twists``
    maps (a, b, point) to a stalk permutation (default identity).  Returns
    the document and the stalks and twists the checkers need.
    """
    points, nbhd = _shape(rng, shape, n)
    stalks = _stalks(rng, points, stalk)
    charts = charts_of(points, nbhd)
    names = ["c%d" % k for k in range(len(charts))]
    twists = twists(names, points, stalks) if twists else {}
    locals_ = {}
    for name, members in zip(names, charts):
        pts, nb = spaces.subspace(points, nbhd, members)
        locals_[name] = function_body(pts, nb, stalks)
    transitions = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            na, nb_ = names[a], names[b]
            inter = frozenset(charts[a]) & frozenset(charts[b])
            pts, nb = spaces.subspace(points, nbhd, inter)
            comp = {}
            for o in _open_list(pts, nb):
                op = spaces.ordered(points, o)
                comp[",".join(op)] = {
                    _section(op, vals): _section(op, [
                        twists.get((na, nb_, p), {}).get(v, v)
                        for p, v in zip(op, vals)])
                    for vals in _assignments(op, stalks)}
            transitions.append({"from": na, "to": nb_, "components": comp})
    doc = _doc("gluing-datum", {
        "space": spaces.space_json(points, nbhd),
        "charts": [{"name": name, "members": list(m)}
                   for name, m in zip(names, charts)],
        "locals": locals_, "transitions": transitions})
    expect = {"stalks": stalks, "charts": dict(zip(names, charts)),
              "twists": {"%s>%s>%s" % k: v for k, v in twists.items()}}
    return doc, expect


def _open_charts(points, nbhd):
    """Charts: the neighbourhood of each maximal point (they cover)."""
    maximal = [p for p in points
               if not any(p in nbhd[q] and q != p for q in points)]
    return [spaces.ordered(points, nbhd[p]) for p in maximal]


def _triple_whole(points, nbhd):
    return [list(points)] * 3


def _broken(names, points, stalks):
    """Identity along 0-1 and 1-2 but a swap along 0-2: the cocycle fails."""
    out = {}
    for p in points:
        vals = stalks[p]
        out[(names[0], names[2], p)] = dict(zip(vals, vals[1:] + vals[:1]))
    return out


def glue_map_doc(rng, shape, n, stalk, target_stalk):
    """A function presheaf, a second one as target, and a pointwise map
    between stalks given chart by chart."""
    points, nbhd = _shape(rng, shape, n)
    src = _stalks(rng, points, stalk)
    dst = _stalks(rng, points, target_stalk)
    phi = {p: {v: rng.choice(dst[p]) for v in src[p]} for p in points}
    charts = _open_charts(points, nbhd)
    names = ["c%d" % k for k in range(len(charts))]
    parts = {}
    for name, members in zip(names, charts):
        pts, nb = spaces.subspace(points, nbhd, members)
        comps = {}
        for o in _open_list(pts, nb):
            op = spaces.ordered(points, o)
            comps[",".join(op)] = {
                _section(op, vals): _section(op, [phi[p][v] for p, v in
                                                  zip(op, vals)])
                for vals in _assignments(op, src)}
        parts[name] = comps
    doc = _doc("presheaf", {
        "space": spaces.space_json(points, nbhd),
        "presheaf": function_body(points, nbhd, src),
        "glue_map": {"charts": [{"name": name, "members": m}
                                for name, m in zip(names, charts)],
                     "target": function_body(points, nbhd, dst),
                     "parts": parts}})
    return doc, {"phi": phi}


# -------------------------------------------------------------- workloads

def limit_sets(rng):
    items = []
    # the 6x6 class is the heaviest and about a fifth of the list, so the
    # 90th percentile falls inside it rather than between two classes
    for m, n, colours, copies in ((4, 7, 7, 3), (5, 7, 7, 2), (6, 6, 6, 7)):
        for k in range(copies):
            items.append(_item("limit-%dx%d-%d" % (m, n, k), "glue", _doc(
                "gluing", colour_limit(rng, m, n, colours)), {"exit": 0},
                side="limit"))
    for k in range(2):
        items.append(_item("limit-split-3x12-%d" % k, "glue", _doc(
            "gluing", colour_limit(rng, 3, 12, 6, mode="split")), {"exit": 0},
            side="limit"))
    for k in range(3):
        items.append(_item("hom-2x4-%d" % k, "hom", _doc("gluing", chart_colimit(
            rng, 2, 4, 1, hom_target=["z0", "z1", "z2"])), {"exit": 0}))
        items.append(_item("hom-3x3-%d" % k, "hom", _doc("gluing", chart_colimit(
            rng, 3, 3, 1, hom_target=["z0", "z1"])), {"exit": 0}))
    for k in range(2):
        items.append(_item("refine-limit-%d" % k, "refine",
                           limit_refinement(rng, 4, 7, 7), {"exit": 0}))
    for k in range(3):
        items.append(_item("cover-%d" % k, "check-cover",
                           block_sink(rng, 120, 6, 40, tests=2), {"exit": 0}))
    items.append(_item("cover-gap", "check-cover",
                       block_sink(rng, 120, 6, 40, surjective=False, tests=2),
                       {"exit": 1}))
    for k in range(2):
        items.append(_item("compose-%d" % k, "compose",
                           block_sink(rng, 60, 4, 30, inner=True), {"exit": 0}))
    items.append(_item("compose-gap", "compose",
                       block_sink(rng, 60, 4, 30, surjective=False, inner=True),
                       {"exit": 1}))
    for k in range(2):
        items.append(_item("site-%d" % k, "check-site",
                           block_site(rng, 12, 3), {"exit": 0}))
    items.append(_item("site-violated", "check-site",
                       block_site(rng, 12, 3, violate=True), {"exit": 1}))
    return items


def top_spaces(rng):
    items = []
    for k in range(4):
        items.append(_item("charts-%d" % k, "glue", _doc(
            "gluing", top_chart_gluing(rng, 3, 3)), {"exit": 0,
                                                     "charts": True}))
    for k in range(3):
        items.append(_item("discrete-%d" % k, "glue", _doc(
            "gluing", top_discrete_gluing(rng, 3, 3, 1)), {"exit": 0}))
    for k in range(3):
        items.append(_item("limit-top-%d" % k, "glue", _doc(
            "gluing", colour_limit(rng, 3, 6, 3, ambient="top")),
            {"exit": 0}, side="limit"))
    for k in range(3):
        items.append(_item("effective-%d" % k, "check-effective", _doc(
            "gluing", top_chart_gluing(rng, 3, 2)), {"exit": 0,
                                                     "charts": True}))
    items.append(_item("effective-e4", "check-effective",
                       _doc("gluing", e4_top()), {"exit": 1}))
    # check-cover on four charts is the heaviest class, about a fifth of the
    # list, so the 90th percentile falls inside it
    for branches, depth, copies in ((3, 2, 2), (4, 2, 6)):
        for k in range(copies):
            items.append(_item("cover-top-%dx%d-%d" % (branches, depth, k),
                               "check-cover",
                               top_chart_sink(rng, branches, depth),
                               {"exit": 0}))
    items.append(_item("cover-top-gap", "check-cover",
                       top_chart_sink(rng, 3, 2, cover=False), {"exit": 1}))
    for k in range(2):
        items.append(_item("site-top-%d" % k, "check-site",
                           top_chart_site(rng, 2, 1), {"exit": 0}))
    return items


def sheaf_checks(rng):
    items = []
    # the default-cover check on the 4-point discrete space is a quarter of
    # the list, so the 90th percentile falls inside that class
    for shape, n, stalk, copies in (("discrete", 4, 2, 9), ("discrete", 3, 3, 2),
                                    ("chain", 4, 3, 2), ("sierpinski", 4, 2, 2)):
        for k in range(copies):
            items.append(_item("sheaf-%s%d-%d" % (shape, n, k), "check-sheaf",
                               sheaf_doc(rng, shape, n, stalk),
                               {"exit": 0, "sheaf": True}))
    for shape, n, copies in (("chain", 3, 2), ("sierpinski", 2, 2),
                             ("discrete", 3, 1)):
        for k in range(copies):
            items.append(_item("sheaf-exh-%s%d-%d" % (shape, n, k),
                               "check-sheaf", sheaf_doc(rng, shape, n, 2),
                               {"exit": 0, "sheaf": True}, covers="exhaustive"))
    for shape, n in (("discrete", 4), ("chain", 4), ("sierpinski", 4)):
        items.append(_item("constant-%s%d" % (shape, n), "check-sheaf",
                           sheaf_doc(rng, shape, n, 2, constant=True),
                           {"exit": 1, "sheaf": False}))
    for shape, n, copies in (("sierpinski", 4, 2), ("discrete", 3, 2),
                             ("chain", 3, 2), ("discrete", 4, 1)):
        for k in range(copies):
            doc, expect = gluing_datum(rng, shape, n, 2, _open_charts)
            expect["exit"] = 0
            items.append(_item("glue-sheaves-%s%d-%d" % (shape, n, k),
                               "glue-sheaves", doc, expect))
    for n in (2, 3):
        doc, expect = gluing_datum(rng, "discrete", n, 2, _triple_whole,
                                   twists=_broken)
        expect["exit"] = 1
        items.append(_item("cocycle-broken-%d" % n, "glue-sheaves", doc,
                           expect))
    for shape, n in (("sierpinski", 4), ("discrete", 3)):
        for k in range(2):
            doc, expect = glue_map_doc(rng, shape, n, 2, 2)
            expect["exit"] = 0
            items.append(_item("glue-map-%s%d-%d" % (shape, n, k), "glue-map",
                               doc, expect))
    return items


def _atlas_glue(rng, name, m, n, shape, mode="nonsplit"):
    return _item(name, "glue", _doc("gluing", chart_colimit(
        rng, m, n, n // 10, shape=shape, mode=mode)), {"exit": 0})


def _atlas_delta(rng, name, m, n):
    payload = chart_colimit(rng, m, n, n // 10, shape="chain")
    dom = ["d%d" % q for q in range(3)]
    payload["delta"] = {"component": "1", "object": dom,
                        "map": {d: rng.choice(payload["objects"]["1"])
                                for d in dom}}
    return _item(name, "glue", _doc("gluing", payload), {"exit": 0})


def colimit_atlas(rng):
    """Three size classes: 10 small documents of every kind, 10 medium trees
    and 6 large rings, so the median falls inside the medium class and the
    90th percentile inside the large one."""
    items = []
    for k in range(2):
        items.append(_atlas_glue(rng, "small-ring-%d" % k, 5, 200, "ring"))
        items.append(_atlas_glue(rng, "small-tree-%d" % k, 5, 200, "tree"))
        items.append(_atlas_delta(rng, "small-delta-%d" % k, 4, 200))
        items.append(_atlas_glue(rng, "small-split-%d" % k, 4, 200, "ring",
                                 mode="split"))
    for k, shape in enumerate(("ring", "tree")):
        items.append(_item("small-refine-%d" % k, "refine",
                           colimit_refinement(rng, 3, 200, 20, shape),
                           {"exit": 0}))
    for k in range(10):
        items.append(_atlas_glue(rng, "medium-tree-%d" % k, 5, 500, "tree"))
    for k in range(6):
        items.append(_atlas_glue(rng, "large-ring-%d" % k, 6, 1000, "ring"))
    return items


WORKLOADS = {
    "limit-sets": limit_sets,
    "top-spaces": top_spaces,
    "sheaf-checks": sheaf_checks,
    "colimit-atlas": colimit_atlas,
}


def build(workload, seed):
    """The workload's fixed document list for one seed."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))
