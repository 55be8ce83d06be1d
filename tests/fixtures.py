"""Shared fixture builders and random-instance generators for the test suite.

Colimit-side data is always built here in the `from-overlaps` orientation
(overlap carriers map down into components); split overlaps are specified per
unordered pair and mirrored automatically with an identity swap, which is the
classical regime where the diagonal carries identity structure.
"""

import importlib
import os
import random
import sys
from itertools import product as iproduct
from types import SimpleNamespace

from hypothesis import strategies as st

from glueforge import cli
from glueforge.errors import StructuralError
from glueforge.fincat import FinFn, FinSet, FinTop, TopMap, table_properties
from glueforge.gluing import FROM_OVERLAPS, TOWARD_OVERLAPS, GluingData
from glueforge.indexcat import IndexCat
from glueforge.presheaf import (
    EMPTY_SECTION,
    OpenLattice,
    PresheafStore,
    _unnatural,
)
from glueforge.refine import Refinement
from glueforge.site import SiteSpec, Sink, _carrier


def identity_fn(carrier):
    """The identity map of a carrier."""
    return FinFn.from_total(carrier, carrier, {x: x for x in carrier})


def effectiveness_flags(report):
    """The three reading flags of an ``effective_gluing_check`` report, in
    the order the check-effective report writes them."""
    return (report["congruence_and_injective"],
            report["intersection_characterization"],
            report["strong_bijections"])


def constant_fn(domain, codomain, value):
    """The map sending every point of ``domain`` to ``value``."""
    return FinFn(domain, codomain, {x: value for x in domain})


def is_injective(fn):
    """Whether ``fn`` sends no two domain labels to one codomain label."""
    return len(set(fn.mapping.values())) == len(fn.domain)


def surjective(fn):
    """Whether ``fn`` hits every codomain label."""
    return set(fn.mapping.values()) == set(fn.codomain.labels)


def inverse_fn(fn):
    """The inverse of a bijection, refused for any other map."""
    if not (is_injective(fn) and surjective(fn)):
        raise StructuralError("only bijections can be inverted")
    return FinFn(fn.codomain, fn.domain,
                 {y: x for x, y in fn.mapping.items()})


def discrete_space(carrier):
    """The discrete space on a carrier: each point its own
    neighbourhood."""
    return FinTop.from_nbhd(carrier, map((1).__lshift__, range(len(carrier))))


def indiscrete_space(carrier):
    """The indiscrete space on a carrier: every point's neighbourhood is
    the whole carrier."""
    return FinTop.from_nbhd(carrier, [(1 << len(carrier)) - 1] * len(carrier))


def data_from_fns(indexcat, ambient, objects, arrows, direction,
                  spaces=None):
    """``GluingData`` whose arrows are given as a ``FinFn`` per generator,
    each read into its table, then refused, in the words the engine used
    while it took such maps, unless it runs between the carriers its
    generator names.  Keys that are no generator are dropped."""
    given = {g: arrows[g] for g in indexcat.generators if g in arrows}
    data = GluingData(indexcat, ambient, objects, tables(given), direction,
                      spaces)
    for g, fn in given.items():
        if data.fn(g) != fn:
            dom, cod = data.expected_endpoints(g)
            raise StructuralError(
                "invalid gluing data: arrow for %r has endpoints %r -> %r, "
                "expected %r -> %r" % (g, list(fn.domain), list(fn.codomain),
                                       list(dom), list(cod)))
    return data


def make_nonsplit_colimit(index, components, overlaps, ambient="sets", spaces=None):
    """components: i -> labels; overlaps: (i, j) -> (labels, to_i, to_j)."""
    cat = IndexCat("nonsplit", FinSet(index))
    objects = {(i,): FinSet(components[i]) for i in index}
    arrows = {}
    for (i, j), (labels, to_i, to_j) in overlaps.items():
        pair = cat.pair(i, j)
        ov = FinSet(labels)
        objects[pair] = ov
        arrows[("incl", i, pair)] = FinFn(ov, objects[(i,)], to_i)
        arrows[("incl", j, pair)] = FinFn(ov, objects[(j,)], to_j)
    return data_from_fns(cat, ambient, objects, arrows, FROM_OVERLAPS, spaces)


def make_split_colimit(index, components, overlaps, ambient="sets", spaces=None,
                       self_overlaps=None):
    """Split data in the classical regime: each unordered overlap is given
    once as (labels, to_i, to_j) and mirrored with identity swaps; diagonal
    objects default to the components themselves.  ``self_overlaps`` may give
    explicit (labels, to_i, tau_mapping) diagonal data."""
    cat = IndexCat("split", FinSet(index))
    objects = {(i,): FinSet(components[i]) for i in index}
    arrows = {}
    for (i, j), (labels, to_i, to_j) in overlaps.items():
        ov = FinSet(labels)
        objects[(i, j)] = ov
        objects[(j, i)] = ov
        arrows[("incl", i, (i, j))] = FinFn(ov, objects[(i,)], to_i)
        arrows[("incl", j, (j, i))] = FinFn(ov, objects[(j,)], to_j)
        arrows[("tau", (i, j))] = identity_fn(ov)
        arrows[("tau", (j, i))] = identity_fn(ov)
    for i, (labels, to_i, tau) in (self_overlaps or {}).items():
        ov = FinSet(labels)
        objects[(i, i)] = ov
        arrows[("incl", i, (i, i))] = FinFn(ov, objects[(i,)], to_i)
        arrows[("tau", (i, i))] = FinFn(ov, ov, tau)
    return data_from_fns(cat, ambient, objects, arrows, FROM_OVERLAPS, spaces)


def make_limit_data(index, components, overlaps, mode="nonsplit", ambient="sets",
                    spaces=None):
    """Limit-side data; overlaps: (i, j) -> (labels, from_i, from_j)."""
    cat = IndexCat(mode, FinSet(index))
    objects = {(i,): FinSet(components[i]) for i in index}
    arrows = {}
    for (i, j), (labels, from_i, from_j) in overlaps.items():
        ov = FinSet(labels)
        if mode == "nonsplit":
            pair = cat.pair(i, j)
            objects[pair] = ov
            arrows[("incl", i, pair)] = FinFn(objects[(i,)], ov, from_i)
            arrows[("incl", j, pair)] = FinFn(objects[(j,)], ov, from_j)
        else:
            objects[(i, j)] = ov
            objects[(j, i)] = ov
            arrows[("incl", i, (i, j))] = FinFn(objects[(i,)], ov, from_i)
            arrows[("incl", j, (j, i))] = FinFn(objects[(j,)], ov, from_j)
            arrows[("tau", (i, j))] = identity_fn(ov)
            arrows[("tau", (j, i))] = identity_fn(ov)
    if mode == "split":
        for i in index:
            if (i, i) not in objects:
                comp = objects[(i,)]
                objects[(i, i)] = comp
                arrows[("incl", i, (i, i))] = identity_fn(comp)
                arrows[("tau", (i, i))] = identity_fn(comp)
    return data_from_fns(cat, ambient, objects, arrows, TOWARD_OVERLAPS,
                         spaces)


def e1():
    """Two three-point components glued along a single overlap point."""
    return make_nonsplit_colimit(
        ["1", "2"],
        {"1": ["a0", "a1", "a2"], "2": ["b0", "b1", "b2"]},
        {("1", "2"): (["u"], {"u": "a2"}, {"u": "b0"})})


def e2():
    """Circle: two arcs glued at both ends."""
    return make_nonsplit_colimit(
        ["1", "2"],
        {"1": ["a0", "a1", "a2"], "2": ["b0", "b1", "b2"]},
        {("1", "2"): (["u", "v"], {"u": "a0", "v": "a2"},
                      {"u": "b2", "v": "b0"})})


def e3():
    """Split self-gluing with a non-identity swap on the diagonal."""
    return make_split_colimit(
        ["1"], {"1": ["x", "y"]}, {},
        self_overlaps={"1": (["w", "wp"], {"w": "x", "wp": "y"},
                             {"w": "wp", "wp": "w"})})


def e4_nonsplit():
    """Three points chained through two overlaps; the (1,3) overlap is empty."""
    return make_nonsplit_colimit(
        ["1", "2", "3"],
        {"1": ["x1"], "2": ["x2"], "3": ["x3"]},
        {("1", "2"): (["p"], {"p": "x1"}, {"p": "x2"}),
         ("2", "3"): (["q"], {"q": "x2"}, {"q": "x3"}),
         ("1", "3"): ([], {}, {})})


def e4_split():
    return make_split_colimit(
        ["1", "2", "3"],
        {"1": ["x1"], "2": ["x2"], "3": ["x3"]},
        {("1", "2"): (["p"], {"p": "x1"}, {"p": "x2"}),
         ("2", "3"): (["q"], {"q": "x2"}, {"q": "x3"}),
         ("1", "3"): ([], {}, {})})


def random_nonsplit_colimit(rng, max_index=4, max_size=6):
    n = rng.randint(1, max_index)
    index = [str(k + 1) for k in range(n)]
    components = {i: ["c%s_%d" % (i, k) for k in range(rng.randint(0, max_size))]
                  for i in index}
    overlaps = {}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = index[a], index[b]
            if not components[i] or not components[j]:
                size = 0
            else:
                size = rng.randint(0, max_size // 2)
            labels = ["o%s_%s_%d" % (i, j, k) for k in range(size)]
            overlaps[(i, j)] = (
                labels,
                {u: rng.choice(components[i]) for u in labels},
                {u: rng.choice(components[j]) for u in labels})
    return make_nonsplit_colimit(index, components, overlaps)


@st.composite
def colimit_data(draw, max_index=3, max_size=3):
    """Nonsplit or classical split colimit-side data over sets, with empty
    components and empty overlaps allowed."""
    n = draw(st.integers(1, max_index))
    index = [str(k + 1) for k in range(n)]
    components = {i: ["c%s_%d" % (i, k)
                      for k in range(draw(st.integers(0, max_size)))]
                  for i in index}
    overlaps = {}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = index[a], index[b]
            size = draw(st.integers(0, 2)) if components[i] and components[j] \
                else 0
            labels = ["o%s_%s_%d" % (i, j, k) for k in range(size)]
            overlaps[(i, j)] = (
                labels,
                {u: draw(st.sampled_from(components[i])) for u in labels},
                {u: draw(st.sampled_from(components[j])) for u in labels})
    make = draw(st.sampled_from([make_nonsplit_colimit, make_split_colimit]))
    return make(index, components, overlaps)


def random_split_colimit(rng, max_index=3, max_size=4, force_noneffective=False):
    """Classical-regime split data; with ``force_noneffective`` the instance
    is a chain of singletons with one empty overlap, like the e4 family."""
    if force_noneffective:
        n = rng.randint(3, max_index) if max_index >= 3 else 3
        index = [str(k + 1) for k in range(n)]
        components = {i: ["x%s" % i] for i in index}
        overlaps = {}
        for a in range(n):
            for b in range(a + 1, n):
                i, j = index[a], index[b]
                if b == a + 1:
                    lab = "o%s%s" % (i, j)
                    overlaps[(i, j)] = ([lab], {lab: "x%s" % i}, {lab: "x%s" % j})
                else:
                    overlaps[(i, j)] = ([], {}, {})
        return make_split_colimit(index, components, overlaps)
    n = rng.randint(1, max_index)
    index = [str(k + 1) for k in range(n)]
    components = {i: ["c%s_%d" % (i, k) for k in range(rng.randint(1, max_size))]
                  for i in index}
    overlaps = {}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = index[a], index[b]
            size = rng.randint(0, max_size // 2)
            labels = ["o%s_%s_%d" % (i, j, k) for k in range(size)]
            overlaps[(i, j)] = (
                labels,
                {u: rng.choice(components[i]) for u in labels},
                {u: rng.choice(components[j]) for u in labels})
    return make_split_colimit(index, components, overlaps)


def random_limit_data(rng, max_index=3, max_size=4, mode="nonsplit"):
    n = rng.randint(1, max_index)
    index = [str(k + 1) for k in range(n)]
    components = {i: ["c%s_%d" % (i, k) for k in range(rng.randint(1, max_size))]
                  for i in index}
    overlaps = {}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = index[a], index[b]
            labels = ["o%s_%s_%d" % (i, j, k) for k in range(rng.randint(1, max_size))]
            overlaps[(i, j)] = (
                labels,
                {x: rng.choice(labels) for x in components[i]},
                {x: rng.choice(labels) for x in components[j]})
    return make_limit_data(index, components, overlaps, mode=mode)


def close_family(carrier, family):
    """Close a family of subsets under pairwise union and intersection,
    always including the empty set and the full carrier."""
    full = frozenset(carrier.labels)
    fam = set(family)
    fam.add(frozenset())
    fam.add(full)
    changed = True
    while changed:
        changed = False
        current = list(fam)
        for a in current:
            for b in current:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return fam


def random_topology(rng, labels):
    """A random topology: the union/intersection closure of random subsets."""
    carrier = FinSet(labels)
    fam = [frozenset(), frozenset(labels)]
    for _ in range(rng.randint(0, 3)):
        fam.append(frozenset(x for x in labels if rng.random() < 0.5))
    return FinTop(carrier, close_family(carrier, fam))


def random_top_colimit(rng, max_index=3, max_size=3, effective=True):
    """Split top-ambient data with open continuous arrows.

    With ``effective`` the charts are open subspaces of one ambient space and
    the overlaps are the literal intersections.  Otherwise the components are
    discrete spaces with arbitrary injective or non-injective edge maps, where
    every map is automatically open continuous.
    """
    if effective:
        size = rng.randint(1, 2 * max_size)
        labels = ["p%d" % k for k in range(size)]
        total = random_topology(rng, labels)
        n = rng.randint(1, max_index)
        opens = list(total.opens)
        charts = [sorted(rng.choice(opens)) for _ in range(n)]
        index = [str(k + 1) for k in range(n)]
        components = {}
        spaces = {}
        objects = {}
        arrows = {}
        cat = IndexCat("split", FinSet(index))
        for k, i in enumerate(index):
            members = charts[k]
            spc = subspace(total, members)
            components[i] = list(spc.carrier.labels)
            objects[(i,)] = spc.carrier
            spaces[(i,)] = spc
        for a in range(n):
            for b in range(n):
                i, j = index[a], index[b]
                both = set(components[i]) & set(components[j])
                inter = [x for x in total.carrier if x in both]
                ov = FinSet(["%s~%s~%s" % (i, j, x) for x in inter])
                objects[(i, j)] = ov
                spaces[(i, j)] = FinTop(
                    ov, [frozenset("%s~%s~%s" % (i, j, x) for x in o & set(inter))
                         for o in total.opens])
                arrows[("incl", i, (i, j))] = FinFn(
                    ov, objects[(i,)],
                    {"%s~%s~%s" % (i, j, x): x for x in inter})
                arrows[("tau", (i, j))] = FinFn(
                    ov, FinSet(["%s~%s~%s" % (j, i, x) for x in inter]),
                    {"%s~%s~%s" % (i, j, x): "%s~%s~%s" % (j, i, x)
                     for x in inter})
        # tau arrows above were built pointing (i,j) -> (j,i); store the op
        fixed = {}
        for key, fn in arrows.items():
            if key[0] == "tau":
                i, j = key[1]
                fixed[("tau", (j, i))] = fn
            else:
                fixed[key] = fn
        return data_from_fns(cat, "top", objects, fixed, FROM_OVERLAPS,
                             spaces)
    n = rng.randint(1, max_index)
    index = [str(k + 1) for k in range(n)]
    components = {i: ["c%s_%d" % (i, k) for k in range(rng.randint(1, max_size))]
                  for i in index}
    overlaps = {}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = index[a], index[b]
            labels = ["o%s_%s_%d" % (i, j, k)
                      for k in range(rng.randint(0, max_size // 2))]
            overlaps[(i, j)] = (
                labels,
                {u: rng.choice(components[i]) for u in labels},
                {u: rng.choice(components[j]) for u in labels})
    data = make_split_colimit(index, components, overlaps)
    spaces = {obj: discrete_space(data.objects[obj]) for obj in data.objects}
    return GluingData(data.indexcat, "top", data.objects, data.arrows,
                      FROM_OVERLAPS, spaces)


def label_arrows(data):
    """The ``FinFn`` view of each arrow of gluing data, by generator."""
    return {g: data.fn(g) for g in data.arrows}


def leg_fns(data, glued):
    """The ``FinFn`` view of each leg of a glued object of ``data``, by
    index object: from the object's carrier into the apex on the colimit
    side, the other way round on the limit side."""
    fns = {}
    for obj, values in glued.legs.items():
        ends = (data.carrier(obj), glued.apex)
        if glued.side == "limit":
            ends = ends[::-1]
        fns[obj] = view(*ends, values)
    return fns


def leg(data, glued, i):
    """The ``FinFn`` view of the leg of a glued object of ``data`` at the
    index object ``i``."""
    return leg_fns(data, glued)[(i,)]


def label_overlap_maps(data):
    """Per overlap (i, j) of colimit-side data: its carrier and its maps
    into components i and j as label dicts, the split ones through the
    swap, each composed with ``FinFn.then``."""
    cat = data.indexcat
    out = []
    for i, j in cat.pairs():
        into_i = data.fn(("incl", i, (i, j)))
        if cat.mode == "nonsplit":
            into_j = data.fn(("incl", j, (i, j)))
        else:
            into_j = data.fn(("tau", (j, i))).then(
                data.fn(("incl", j, (j, i))))
        out.append((i, j, data.carrier((i, j)), into_i.mapping,
                    into_j.mapping))
    return out


def colimit_relation_pairs(data):
    """The generating identifications of colimit-side data as pairs of
    tagged labels ``i|x`` of the disjoint union, read from the label view
    of each overlap's maps."""
    return [(i + "|" + e_i[u], j + "|" + into_j[u])
            for i, j, overlap, e_i, into_j in label_overlap_maps(data)
            for u in overlap]


def label_nbhd(space):
    """The minimal open neighbourhood of each point of ``space`` as a dict
    from its label to a frozenset of labels: the space's rows read through
    its carrier.  Tests read neighbourhoods only through this."""
    labels = space.carrier.labels
    return {x: frozenset(y for k, y in enumerate(labels) if row >> k & 1)
            for x, row in zip(labels, space.rows)}


def space_from_nbhd(carrier, nbhd):
    """The space on ``carrier`` with these minimal neighbourhoods, a dict
    from each label to the labels around it, unchecked as
    ``FinTop.from_nbhd`` is."""
    return FinTop.from_nbhd(carrier, [
        sum(1 << carrier.position(y) for y in nbhd[x]) for x in carrier])


def subspace(space, labels):
    """The subspace of ``space`` on the points among ``labels``: the traces
    of the label neighbourhoods, built as a space of its own."""
    nbhd, wanted = label_nbhd(space), set(labels)
    keep = [x for x in space.carrier if x in wanted]
    return space_from_nbhd(FinSet(keep), {x: nbhd[x] & set(keep)
                                          for x in keep})


def preimage(fn, labels):
    """The domain labels of ``fn`` whose image is among ``labels``."""
    labels = set(labels)
    return frozenset(x for x in fn.domain if fn.mapping[x] in labels)


def chain_space(labels):
    """The chain on ``labels``, each point below the ones after it: the
    smallest open around a point holds it and every later point."""
    return space_from_nbhd(FinSet(labels), {
        x: frozenset(labels[k:]) for k, x in enumerate(labels)})


def chain_cover():
    """The chain ``y0 <= y1 <= y2`` covered by the chains ``a0 <= a1`` and
    ``b1 <= b2`` and by the discrete space on ``c0, c2`` over ``y0, y2``: an
    effective sink whose colimit is not stable under pullback to the
    subspace on ``y0, y2``."""
    target = chain_space(["y0", "y1", "y2"])
    spaces = {"1": chain_space(["a0", "a1"]), "2": chain_space(["b1", "b2"]),
              "3": discrete_space(FinSet(["c0", "c2"]))}
    return label_sink("top", target.carrier, [
        (name, space, FinFn(space.carrier, target.carrier,
                            {x: "y" + x[1] for x in space.carrier}))
        for name, space in spaces.items()], target_space=target)


def function_presheaf(space, stalks, top=None):
    """The presheaf of sections of the family ``stalks`` on the opens of
    ``space`` inside the open mask ``top`` (all of them when it is None): a
    section over an open is a choice of one stalk value per point. This is a
    sheaf for every covering, including the empty cover of the empty open."""
    lat = OpenLattice(space, top)
    for p in space.points(lat.top):
        if p not in stalks or not stalks[p]:
            raise StructuralError("every point needs a nonempty stalk")
    labels = {}
    tuples = {}
    sections = {}
    for o in lat.opens:
        pts = space.points(o)
        opts = []
        for combo in iproduct(*[stalks[p] for p in pts]):
            lab = ";".join("%s=%s" % (p, v) for p, v in zip(pts, combo)) \
                if pts else EMPTY_SECTION
            opts.append(lab)
            tuples[(o, lab)] = dict(zip(pts, combo))
        labels[o] = opts
        sections[o] = FinSet(opts)
    res = {}
    for w, v in lat.pairs_below():
        pts_v = space.points(v)
        mapping = {}
        for lab in labels[w]:
            choice = tuples[(w, lab)]
            sub = ";".join("%s=%s" % (p, choice[p]) for p in pts_v) \
                if pts_v else EMPTY_SECTION
            mapping[lab] = sub
        res[(w, v)] = FinFn(sections[w], sections[v], mapping)
    return store_from_labels(lat, sections, res)


def constant_presheaf(space, values, top=None):
    """All restriction maps are the identity on a fixed value set, on the
    opens of ``space`` inside the open mask ``top``."""
    lat = OpenLattice(space, top)
    vs = FinSet(values)
    sections = {o: vs for o in lat.opens}
    res = {(w, v): identity_fn(vs) for w, v in lat.pairs_below()}
    return store_from_labels(lat, sections, res)


def table(fn):
    """A ``FinFn`` as the engine's table: the codomain position of the
    value of each domain label, in domain order."""
    return [fn.codomain.position(fn.mapping[x]) for x in fn.domain]


def tables(components):
    """Each ``FinFn`` of a dict as its table."""
    return {key: table(fn) for key, fn in components.items()}


def fn_properties(fn, dom, cod):
    """``table_properties`` of the ``FinFn`` ``fn`` between two spaces."""
    return table_properties(table(fn), dom, cod)


def identities(store):
    """The identity table of the sections at each open of ``store``."""
    return {o: list(range(len(store.sections[o]))) for o in store.lattice.opens}


def label_fn(values, domain, codomain):
    """A table from the section labels ``domain`` to ``codomain`` as the
    ``FinFn`` between their ``FinSet``s, validated."""
    return FinFn(FinSet(domain), FinSet(codomain),
                 {x: codomain[y] for x, y in zip(domain, values)})


def store_from_labels(lat, sections, res):
    """The presheaf store on ``lat`` of section ``FinSet``s and restriction
    ``FinFn``s, each restriction read into its table; missing identities
    are filled in by the store."""
    return PresheafStore(lat, {o: fs.labels for o, fs in sections.items()},
                         tables(res))


def label_store(store):
    """The label view of a presheaf store, as tests and oracles read it:
    ``lattice``, a ``FinSet`` of the sections at each open and a ``FinFn``
    for each restriction."""
    sections = store.sections
    return SimpleNamespace(
        lattice=store.lattice,
        sections={o: FinSet(labels) for o, labels in sections.items()},
        res={(w, v): label_fn(values, sections[w], sections[v])
             for (w, v), values in store.res.items()})


def label_components(components, source, target):
    """Component tables between two presheaf stores as ``FinFn``s."""
    return {o: label_fn(values, source.sections[o], target.sections[o])
            for o, values in components.items()}


def nat_trans_problems(nat):
    """Each square v <= w of its lattice at which the transformation
    ``nat`` is not natural, named as ``glue_nat_trans`` names a part's."""
    lat = nat.source.lattice
    return ["naturality fails from %r to %r" % (lat.names(w), lat.names(v))
            for w, v in _unnatural(nat.components, nat.source, nat.target,
                                   lat.pairs_below())]


def label_datum(datum):
    """The label view of a gluing datum: its space and charts, the label
    view of each local presheaf, and each transition as a dict of
    ``FinFn``s."""
    return SimpleNamespace(
        space=datum.space, charts=datum.charts,
        locals={n: label_store(loc) for n, loc in datum.locals.items()},
        transitions={(a, b): label_components(comp, datum.locals[a],
                                              datum.locals[b])
                     for (a, b), comp in datum.transitions.items()})


def presheaf_doc(store):
    """The ``presheaf`` document of a presheaf store."""
    lat = store.lattice
    points = lat.space.carrier
    store = label_store(store)
    payload = {
        "space": {"points": list(points),
                  "opens": [lat.space.points(o) for o in lat.opens]},
        "presheaf": {
            "sections": {lat.key(o): list(store.sections[o].labels)
                         for o in lat.opens},
            "restrictions": {
                "%s>%s" % (lat.key(w), lat.key(v)):
                    dict(store.res[(w, v)].mapping)
                for w, v in lat.pairs_below() if w != v}}}
    return {"version": "1", "kind": "presheaf", "payload": payload}


def jointly_surjective(sink):
    """Whether the maps of a sink reach every point of its target."""
    return {y for _, _, fn in source_fns(sink) for y in fn.mapping.values()} \
        == set(sink.target.labels)


# Sinks, site morphisms and refinements hold position tables.  Tests build
# them from label maps through these, which check what the parsers check
# (each map total between the right carriers, continuous between spaces),
# and read them back through label views.


def checked_table(fn, dom, cod, dom_space=None, cod_space=None):
    """The table of the ``FinFn`` ``fn`` from ``dom`` to ``cod``, refused
    unless it runs between them and, given both spaces, is continuous."""
    if fn.domain != dom or fn.codomain != cod:
        raise StructuralError("map endpoints %r -> %r, expected %r -> %r"
                              % (list(fn.domain), list(fn.codomain),
                                 list(dom), list(cod)))
    if dom_space is not None and cod_space is not None:
        TopMap(fn, dom_space, cod_space)
    return table(fn)


def label_sink(ambient, target, sources, target_space=None):
    """The sink over ``target`` of ``(name, object, FinFn)`` sources, each
    map checked into the target (and continuous in the top ambient) and
    read into its table."""
    top = ambient == "top"
    return Sink(ambient, target, [
        (name, obj, checked_table(fn, _carrier(obj), target,
                                  obj if top else None, target_space))
        for name, obj, fn in sources], target_space=target_space)


def view(obj, target, values):
    """The ``FinFn`` from the carrier of ``obj`` into ``target`` whose
    table is ``values``."""
    carrier = _carrier(obj)
    return FinFn(carrier, target, dict(zip(
        carrier.labels, map(target.labels.__getitem__, values))))


def source_fns(sink):
    """The ``(name, object, FinFn)`` label view of each source of a sink."""
    return [(name, obj, view(obj, sink.target, values))
            for name, obj, values in sink.sources]


def label_test(fn, space=None):
    """A test map as ``cli.parse_sink`` reads it: ``(object, table)``, the
    object the domain's space when one is given, else its carrier."""
    return (fn.domain if space is None else space, table(fn))


def label_morphism(fn, dom=None, cod=None):
    """A site morphism as ``cli.parse_site`` reads it: ``(dom, cod,
    table)``, between the spaces when given (checked continuous), else
    between the carriers."""
    if dom is None:
        return (fn.domain, fn.codomain, table(fn))
    return (dom, cod, checked_table(fn, dom.carrier, cod.carrier, dom, cod))


def morphism_fn(entry):
    """The ``FinFn`` view of a site morphism, with its two spaces (None in
    the set ambient)."""
    dom, cod, values = entry
    fn = view(dom, _carrier(cod), values)
    if isinstance(dom, FinTop):
        return fn, dom, cod
    return fn, None, None


def label_site(ambient, coverings, morphisms):
    """The site of these sinks and ``FinFn`` or ``TopMap`` morphisms."""
    return SiteSpec(ambient, coverings, [
        label_morphism(m) if isinstance(m, FinFn)
        else label_morphism(m.fn, m.dom, m.cod) for m in morphisms])


def label_refinement(source, target, gamma, components):
    """The refinement of these gluing data along the ``FinFn`` ``gamma``
    with ``FinFn`` components, each checked to run between the carriers
    it must and read into its table."""
    gamma_table = checked_table(gamma, target.indexcat.index,
                                source.indexcat.index)
    stub = Refinement(source, target, gamma_table, {})
    return Refinement(source, target, gamma_table, {
        obj: checked_table(fn, source.carrier(stub.reindexed(obj)),
                           target.carrier(obj))
        for obj, fn in components.items()})


def refinement_fns(ref):
    """The ``FinFn`` view of gamma and of each component of a
    refinement."""
    gamma = view(ref.target.indexcat.index, ref.source.indexcat.index,
                 ref.gamma)
    return gamma, {
        obj: view(ref.source.carrier(ref.reindexed(obj)),
                  ref.target.carrier(obj), values)
        for obj, values in ref.components.items()}


def seeded(seed):
    return random.Random(seed)


def perfbench_module(name):
    """The module ``name`` of ``perfbench/``, imported without writing byte
    code."""
    here = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, here)
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


def benchmark_docs():
    """The benchmark's document generators, ``perfbench/docs.py``."""
    return perfbench_module("docs")


def benchmark_items(workloads=None):
    """The seed-1 document lists of the benchmark workloads (all of them by
    default), as ``(workload, item)`` pairs."""
    docs = benchmark_docs()
    return [(workload, item) for workload in workloads or sorted(docs.WORKLOADS)
            for item in docs.build(workload, 1)]


def item_argv(item):
    """The command line of a benchmark item."""
    return [item["command"]] + [
        part for flag, value in sorted(item["flags"].items())
        for part in ("--" + flag, str(value))]


def indexed(carrier):
    """Whether a set's position index is built: reading its slot, unlike
    reading ``_pos``, builds nothing."""
    return hasattr(carrier, "_index")


def materialized(node):
    """``node``, a report or a part of one, with each ``cli.LabelMap`` and
    ``cli.Classes`` record turned into the dict it stands for, the dict
    ``render_report`` writes: from each domain label to its image's label,
    and from each apex label to its class's members, sorted.  The records
    have no mapping methods, so tests compare reports, or hand them to
    ``json.dumps``, through this."""
    kind = type(node)
    if kind is cli.LabelMap:
        codomain = node.codomain.labels
        return dict(zip(node.domain, [codomain[q] for q in node.table]))
    if kind is cli.Classes:
        classes = {name: [name] for name in node.labels}
        classes.update((name, sorted(members))
                       for name, members in node.merged.items())
        return classes
    if kind is dict:
        return {key: materialized(value) for key, value in node.items()}
    if kind is list or kind is tuple:
        return kind(map(materialized, node))
    return node
