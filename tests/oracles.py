"""Reference recomputations that the engine's fast paths are tested against.

Each oracle computes its answer the long way round, by a different
construction from the one in ``glueforge``: a space's neighbourhoods by
intersecting frozensets rather than bitmasks, a quotient's classes as the
closure of a relation grown to a fixed point, the limit as a literal
equalizer of two maps between products, the composite gluing in two
stages, the compatible families of maps into a target by enumerating
every family of values on the components, the hom bijection by also
enumerating every map out of the glued apex, a sink's target as a cone
with a leg at every overlap, stability of a colimit under pullback by
gluing the whole pulled-back diagram, the presheaf laws and naturality
by composing restriction maps as functions at every pair of opens,
commuting paths and isomorphisms by building composites and continuous
maps, the opens, maximal proper opens, induced topologies and map
properties of a space from its neighbourhoods as label frozensets, the
strong effectiveness reading from built pullbacks, fibred isomorphism of
two sources by trying every permutation of every fibre, equivalent sinks by
backtracking over matchings of sources, the canonical functor of a sink
and its base change from label pullbacks, the covering axioms by building
every candidate sink and comparing it with every declared covering, every
covering of every open
listed at once, and the
glued sections, the cocycle condition and the compatible families of a
covering with a constraint for every ordered pair or triple of charts or
parts.
They are exponential on purpose and run only on small instances.
"""

from functools import reduce
from itertools import count, permutations, product as iproduct
from math import prod

from glueforge.errors import StructuralError, charge
from glueforge.fincat import (
    SEP,
    FinFn,
    FinSet,
    PairedSubset,
    TopMap,
    induce_topology,
    is_iso,
    pair_label,
    product_enumerate,
    pullback,
    quotient_by_pairs,
)
from glueforge import cli
from glueforge.gluing import (
    FROM_OVERLAPS,
    TOWARD_OVERLAPS,
    ConeCandidate,
    GluedObject,
    _require_valid,
    colimit_glue,
    mediating_map,
)
from glueforge.indexcat import NONSPLIT, SPLIT, IndexCat, gen_endpoints
from glueforge.presheaf import EMPTY_SECTION, OpenLattice
from glueforge.site import (
    SiteSpec,
    Sink,
    _carrier,
    _inner_mismatch,
    base_change_sink,
    canonical_sink_functor,
    flatten_sinks,
)

from fixtures import (
    colimit_relation_pairs,
    data_from_fns,
    identity_fn,
    inverse_fn,
    is_injective,
    label_nbhd,
    label_overlap_maps,
    leg_fns,
    morphism_fn,
    preimage,
    source_fns,
    space_from_nbhd,
    surjective,
    table,
    view,
)
from paper import tag


def naive_closure_partition(labels, pairs):
    """The classes of the equivalence relation on ``labels`` that the pairs
    generate, as a set of frozensets: each label starts related to itself
    and to its partners in either order, and every label's related set is
    grown by its members' related sets until nothing changes.  No
    union-find."""
    related = {x: {x} for x in labels}
    for a, b in pairs:
        related[a].add(b)
        related[b].add(a)
    changed = True
    while changed:
        changed = False
        for x in labels:
            grown = set().union(*[related[y] for y in related[x]])
            if grown != related[x]:
                related[x] = grown
                changed = True
    return {frozenset(related[x]) for x in labels}


def nbhd_by_frozensets(carrier, opens):
    """The minimal neighbourhoods of a listed family of opens, validated on
    frozensets: each member is a subset of the carrier, the empty set and the
    carrier are listed, and ``O | nbhd[x]`` is listed for every member ``O``
    and point ``x``, ``nbhd[x]`` being the meet of the members around x.
    Raises, as ``FinTop`` must, on the first check that fails, the unions
    taken in list and carrier order.  No bitmasks."""
    opens = [frozenset(o) for o in opens]
    family = set(opens)
    full = frozenset(carrier.labels)
    for o in opens:
        if not o <= full:
            raise StructuralError("open set %r is not a subset of the carrier"
                                  % sorted(o))
    if frozenset() not in family or full not in family:
        raise StructuralError("opens must contain the empty set and the carrier")
    nbhd = {x: full.intersection(*[o for o in family if x in o])
            for x in carrier}
    missing = [o | nbhd[x] for o in opens for x in carrier
               if o | nbhd[x] not in family]
    if missing:
        raise StructuralError("opens not closed under union and "
                              "intersection: %r is missing" % sorted(missing[0]))
    return nbhd


def opens_by_frozensets(space):
    """The opens of ``space`` in ``FinTop.opens`` order, with the family size
    after each point: the unions of the label neighbourhoods, ordered by
    size and then by the sorted positions of their points.  Uncharged; no
    masks."""
    family = {frozenset()}
    sizes = []
    for u in label_nbhd(space).values():
        family |= {o | u for o in family}
        sizes.append(len(family))
    pos = space.carrier.position
    return (tuple(sorted(family, key=lambda o: (len(o), sorted(map(pos, o))))),
            tuple(sizes))


def maximal_proper_by_frozensets(space, opens):
    """Each open's maximal proper open subsets, in the order of ``opens``:
    the maximal ones among the interiors of the open less one point, each
    interior being the points whose neighbourhood misses that point."""
    nbhd = label_nbhd(space)
    rank = {o: k for k, o in enumerate(opens)}
    out = {}
    for u in opens:
        inner = {frozenset(y for y in u if p not in nbhd[y]) for p in u}
        out[u] = sorted((w for w in inner if not any(w < c for c in inner)),
                        key=rank.__getitem__)
    return out


def induce_topology_by_frozensets(mode, carrier, maps, spaces):
    """The label neighbourhoods of the final or the initial topology on
    ``carrier`` along ``maps``: final by walking from each point along the
    images of source neighbourhoods until nothing new is reached, initial by
    intersecting the preimages of the neighbourhoods around the images.
    No masks."""
    nbhds = [label_nbhd(sp) for sp in spaces]
    if mode == "final":
        step = {q: {q} for q in carrier}
        for fn, nbhd in zip(maps, nbhds):
            for x in fn.domain:
                step[fn.mapping[x]].update(fn.mapping[y] for y in nbhd[x])
        out = {}
        for q in carrier:
            seen, stack = {q}, [q]
            while stack:
                new = step[stack.pop()] - seen
                seen |= new
                stack.extend(new)
            out[q] = frozenset(seen)
        return out
    out = {x: frozenset(carrier.labels) for x in carrier}
    for fn, nbhd in zip(maps, nbhds):
        out = {x: u & preimage(fn, nbhd[fn.mapping[x]])
               for x, u in out.items()}
    return out


def map_properties_by_frozensets(fn, dom, cod):
    """``fincat.map_properties`` on label neighbourhoods: open when each
    neighbourhood's image is the neighbourhood of the image, an embedding
    when injective and each neighbourhood is the preimage of the one around
    its image."""
    mapping = fn.mapping
    dom_nbhd, cod_nbhd = label_nbhd(dom), label_nbhd(cod)
    injective = is_injective(fn)
    return {
        "injective": injective,
        "surjective": surjective(fn),
        "continuous": True,
        "open": all(frozenset(map(mapping.__getitem__, u))
                    == cod_nbhd[mapping[x]] for x, u in dom_nbhd.items()),
        "embedding": injective and all(
            u == preimage(fn, cod_nbhd[mapping[x]])
            for x, u in dom_nbhd.items()),
    }


def canonical_bijective_by_pullback(data, glued):
    """Per ordered pair ``(i, j)`` of split colimit-side data, whether the
    canonical map from the overlap to the fibered product of components i
    and j over the glued object is a bijection, and in the top ambient a
    homeomorphism: the pullback of the two legs is built, with its initial
    topology, and the map into its members is checked with ``is_iso``.
    ``site.effective_gluing_check`` decides the same without a pullback."""
    top = data.ambient == "top"
    spaces = data.spaces if top else {}
    legs = leg_fns(data, glued)
    out = {}
    for i, j, overlap, e_i, into_j in label_overlap_maps(data):
        ps = pullback(legs[(i,)], legs[(j,)],
                      spaces.get((i,)), spaces.get((j,)))
        mapping = {u: SEP.join((e_i[u], into_j[u])) for u in overlap}
        try:
            canonical = FinFn(overlap, ps.members, mapping)
        except StructuralError:
            out[(i, j)] = False
        else:
            out[(i, j)] = is_iso(canonical, spaces.get((i, j)), ps.space)
    return out


def commutes_by_composites(path, other=()):
    """Whether two left-to-right paths of maps agree, by building each
    composite with ``FinFn.then`` and comparing the two ``FinFn``s; an empty
    path is the identity on the other path's domain."""
    if not path and not other:
        return True
    start = (path or other)[0].domain

    def composite(p):
        return reduce(FinFn.then, p) if p else identity_fn(start)

    return composite(path) == composite(other)


def iso_by_topmap(fn, dom=None, cod=None):
    """Bijective, and between two given spaces ``TopMap(...).open``: a
    continuous open bijection is a homeomorphism.  Raises where ``TopMap``
    does, for a map that is not continuous among others."""
    bijective = is_injective(fn) and surjective(fn)
    if dom is None or cod is None:
        return bijective
    return bijective and TopMap(fn, dom, cod).open


def equalizer(f, g):
    """The equalizer subset {a : f(a) = g(a)} with its inclusion leg."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise StructuralError("equalizer requires parallel maps")
    members = FinSet([a for a in f.domain if f.mapping[a] == g.mapping[a]])
    incl = FinFn(members, f.domain, {a: a for a in members})
    return PairedSubset(members, {"include": incl})


def equalizer_glue_oracle(data):
    """The limit recomputed literally as the equalizer of the two canonical
    maps between the component product and the overlap product; must agree
    with ``limit_glue`` elementwise."""
    _require_valid(data, TOWARD_OVERLAPS)
    cat = data.indexcat
    comps = [obj[0] for obj in cat.singletons()]
    carriers = [data.carrier((i,)) for i in comps]
    prod = product_enumerate(carriers)
    # per pair (i, j), the maps from components i and j into one overlap
    if cat.mode == NONSPLIT:
        cons = [(i, j, data.fn(("incl", i, (i, j))),
                 data.fn(("incl", j, (i, j)))) for i, j in cat.pairs()]
    else:
        cons = [(i, j, data.fn(("incl", i, (i, j))).then(
                    data.fn(("tau", (i, j)))),
                 data.fn(("incl", j, (j, i)))) for i, j in cat.pairs()]
    if cat.mode == NONSPLIT:
        slot_carriers = [data.carrier(cat.pair(i, j)) for i, j, _, _ in cons]
    else:
        slot_carriers = [data.carrier((j, i)) for i, j, _, _ in cons]
    overlap_prod = product_enumerate(slot_carriers)
    pos = {i: k for k, i in enumerate(comps)}
    combos = {SEP.join(c): c for c in iproduct(*[c.labels for c in carriers])}

    def side_map(side):
        mapping = {}
        for label, combo in combos.items():
            values = [f(combo[pos[i]]) if side == 0 else g(combo[pos[j]])
                      for i, j, f, g in cons]
            mapping[label] = SEP.join(values) if values else "()"
        return FinFn(prod, overlap_prod, mapping)

    eq = equalizer(side_map(0), side_map(1))
    apex = FinSet(list(eq.members))
    legs = {}
    for k, i in enumerate(comps):
        legs[(i,)] = FinFn(apex, carriers[k], {x: combos[x][k] for x in apex})
    for pair_obj in cat.pairs():
        i = pair_obj[0]
        legs[pair_obj] = legs[(i,)].then(data.fn(("incl", i, pair_obj)))
    space = None
    if data.ambient == "top":
        space = induce_topology("initial", apex,
                                [table(legs[(i,)]) for i in comps],
                                [data.space((i,)) for i in comps])
    return GluedObject("limit", apex, space,
                       {obj: table(fn) for obj, fn in legs.items()}, {}, {})


def sink_target_cone(sink, data):
    """The target of a sink as a full cone over its canonical functor
    ``data``: the sink's own maps at the components and, at each overlap, the
    composite through the stored inclusion.  ``gluing.mediating_map``
    checks every square of this cone."""
    legs = {(i,): fn for i, _, fn in source_fns(sink)}
    for pair_obj in data.indexcat.pairs():
        i = pair_obj[0]
        legs[pair_obj] = data.fn(("incl", i, pair_obj)).then(legs[(i,)])
    return ConeCandidate(sink.target, legs,
                         space=sink.target_space if sink.ambient == "top"
                         else None)


def canonical_sink_functor_by_labels(sink):
    """The canonical split gluing functor of a sink built on labels, as
    the engine built it before it joined positions: a ``FinFn`` view of
    each source map, a ``pullback`` of every ordered pair of them, and
    each swap as the map ``a|b -> b|a`` between pullback members;
    ``site.canonical_sink_functor`` builds the same on positions."""
    top = sink.ambient == "top"
    names = sink.names()
    objects, spaces, arrows, pblegs = {}, {}, {}, {}
    legs = {i: fn for i, _, fn in source_fns(sink)}
    for i, obj, _ in sink.sources:
        objects[(i,)] = _carrier(obj)
        spaces[(i,)] = obj if top else None
    for i in names:
        for j in names:
            ps = pullback(legs[i], legs[j], spaces[(i,)], spaces[(j,)])
            spaces[(i, j)] = ps.space
            objects[(i, j)] = ps.members
            pblegs[(i, j)] = ps.legs
            arrows[("incl", i, (i, j))] = ps.legs["p1"]
    for i in names:
        for j in names:
            p1, p2 = pblegs[(i, j)]["p1"], pblegs[(i, j)]["p2"]
            # the ambient map G(i,j) -> G(j,i), stored at the generator
            # whose source is (j, i)
            arrows[("tau", (j, i))] = FinFn(
                objects[(i, j)], objects[(j, i)],
                {lab: pair_label(p2(lab), p1(lab)) for lab in objects[(i, j)]})
    return data_from_fns(IndexCat(SPLIT, FinSet(names)), sink.ambient,
                         objects, arrows, FROM_OVERLAPS,
                         spaces if top else None)


def base_change_sink_by_labels(sink, test):
    """The sink pulled back along the test map ``test``, an ``(object,
    table)`` pair, on labels: each source's ``FinFn`` view pulled back
    along the test map's by ``pullback``, its second projection read into
    a table; ``site.base_change_sink`` builds the same on positions."""
    v_obj, img = test
    top = sink.ambient == "top"
    fn = view(v_obj, sink.target, img)
    sources = []
    for name, obj, src_fn in source_fns(sink):
        ps = pullback(src_fn, fn, obj if top else None, v_obj if top else None)
        sources.append((name, ps.space if top else ps.members,
                        table(ps.legs["p2"])))
    return Sink(sink.ambient, fn.domain, sources, v_obj if top else None)


def effective_epi_by_colimit(sink):
    """Whether the target of a sink is the glued-up object of its canonical
    functor, by gluing that functor and factoring the target cone through
    it; ``site.effective_epi_check`` decides the same by certificate."""
    data = canonical_sink_functor(sink)
    _, iso = mediating_map(data, colimit_glue(data),
                           sink_target_cone(sink, data))
    return iso


def universal_glue_by_pullback(data, glued, delta, v_space=None):
    """Whether the source of ``delta``, a ``FinFn`` into the colimit apex,
    is the glued-up object of the whole diagram pulled back along it:
    every object is pulled back, every arrow is paired with the identity,
    the result is glued and the projections onto the source of ``delta``
    are factored through it as a checked cone.  Also the number of members
    of each component's pullback."""
    cat = data.indexcat
    top = data.ambient == "top"
    legs = leg_fns(data, glued)
    members = {}
    for obj in cat.objects:
        members[obj] = pullback(legs[obj], delta,
                                data.space(obj) if top else None, v_space)
    arrows = {}
    for g in cat.generators:
        dst, src = gen_endpoints(g)     # from-overlaps: the map runs back
        legs = members[src].legs
        arrow = data.fn(g)
        arrows[g] = FinFn(members[src].members, members[dst].members,
                          {lab: arrow(legs["p1"](lab)) + SEP
                           + legs["p2"](lab) for lab in members[src].members})
    pulled = data_from_fns(cat, data.ambient,
                           {obj: ps.members for obj, ps in members.items()},
                           arrows, FROM_OVERLAPS,
                           {obj: ps.space for obj, ps in members.items()}
                           if top else None)
    cone = ConeCandidate(delta.domain,
                         {obj: ps.legs["p2"] for obj, ps in members.items()},
                         space=v_space if top else None)
    _, iso = mediating_map(pulled, colimit_glue(pulled), cone)
    return iso, {obj: len(members[obj].members) for obj in cat.singletons()}


def fibre_counts_by_labels(fn):
    """How many points ``fn`` sends to each codomain label, in codomain
    order."""
    counts = dict.fromkeys(fn.codomain.labels, 0)
    for y in fn.mapping.values():
        counts[y] += 1
    return tuple(counts.values())


def fibered_iso_by_permutations(obj_a, fn_a, obj_b, fn_b, ambient):
    """Whether two sources are isomorphic over their common target, by
    trying every permutation of every fibre, charged as it goes, and
    checking each assembled bijection with ``is_iso``."""
    if fibre_counts_by_labels(fn_a) != fibre_counts_by_labels(fn_b):
        return False
    if ambient == "sets":
        return True
    fibers_a = {}
    fibers_b = {}
    for x in fn_a.domain:
        fibers_a.setdefault(fn_a.mapping[x], []).append(x)
    for x in fn_b.domain:
        fibers_b.setdefault(fn_b.mapping[x], []).append(x)
    tried = count(1)

    def assemble(keys, acc):
        if not keys:
            return is_iso(FinFn(fn_a.domain, fn_b.domain, acc), obj_a, obj_b)
        u, rest = keys[0], keys[1:]
        fa = fibers_a.get(u, [])
        fb = fibers_b.get(u, [])
        for perm in permutations(fb):
            charge("fibre permutations between two sources", next(tried))
            acc2 = dict(acc)
            acc2.update(zip(fa, perm))
            if assemble(rest, acc2):
                return True
        return False

    try:
        return assemble(list(fibers_a.keys()), {})
    finally:
        del assemble    # the closure reaches itself through its own cell


def sinks_equivalent_by_permutations(a, b):
    """Whether two sinks agree up to a bijection of their source families
    and fibered isomorphisms of the sources, read through their label
    views.  Fibered isomorphism is an equivalence relation, so each source
    of ``a`` may take the first remaining source of ``b`` that matches it:
    no choice made so needs undoing.  ``site.sinks_equivalent`` compares
    canonical keys instead."""
    if a.ambient != b.ambient or a.target != b.target \
            or a.target_space != b.target_space \
            or len(a.sources) != len(b.sources):
        return False
    remaining = source_fns(b)
    for _, obj, fn in source_fns(a):
        for k, (_, obj2, fn2) in enumerate(remaining):
            if fibered_iso_by_permutations(obj, fn, obj2, fn2, a.ambient):
                del remaining[k]
                break
        else:
            return False
    return True


def sinks_equivalent_by_backtracking(a, b):
    """Whether two sinks agree up to a bijection of their source families
    and fibered isomorphisms of the sources, by backtracking over the
    bijections: a source of ``a`` tries each remaining source of ``b`` it
    matches, and a match that leaves the rest unmatched is undone.
    ``sinks_equivalent_by_permutations`` keeps the first match instead."""
    if a.ambient != b.ambient or a.target != b.target:
        return False
    if a.ambient == "top" and a.target_space != b.target_space:
        return False
    if len(a.sources) != len(b.sources):
        return False
    remaining = source_fns(b)

    def match(sources):
        if not sources:
            return True
        _, obj, fn = sources[0]
        for k, (_, obj2, fn2) in enumerate(remaining):
            if fibered_iso_by_permutations(obj, fn, obj2, fn2, a.ambient):
                kept = remaining.pop(k)
                found = match(sources[1:])
                remaining.insert(k, kept)
                if found:
                    return True
        return False

    try:
        return match(source_fns(a))
    finally:
        del match    # the closure reaches itself through its own cell


def covering_axioms_by_scan(spec):
    """The covering axioms checked by building every candidate sink (the
    sink of each isomorphism, each composite of declared coverings, each
    base change of one) and comparing it with each declared covering in
    turn by ``sinks_equivalent_by_permutations``;
    ``site.covering_axioms_check`` looks each candidate's key up instead.
    Charges as that check did before it used keys: a pullback per base
    change, and the fibre permutations of every comparison."""
    def declared(sink):
        return any(sinks_equivalent_by_permutations(sink, c)
                   for c in spec.coverings)

    violations = []
    for entry in spec.morphisms:
        fn, dom_space, cod_space = morphism_fn(entry)
        if is_iso(fn, dom_space, cod_space):
            single = Sink(spec.ambient, fn.codomain,
                          [("v", dom_space or fn.domain, table(fn))],
                          target_space=cod_space)
            if not declared(single):
                violations.append(
                    "isomorphism sink onto %r is not declared"
                    % (list(fn.codomain.labels),))
    for cov in spec.coverings:
        names = cov.names()
        options = [[c for c in spec.coverings
                    if _inner_mismatch(c, obj, spec.ambient) is None]
                   for _, obj, _ in cov.sources]
        charge("refinement families of one covering", prod(map(len, options)))
        for combo in iproduct(*options):
            if not declared(flatten_sinks(cov, dict(zip(names, combo)))):
                violations.append(
                    "composite of covering of %r is not declared"
                    % (list(cov.target.labels),))
    for cov in spec.coverings:
        for entry in spec.morphisms:
            fn, dom_space, _ = morphism_fn(entry)
            if fn.codomain != cov.target:
                continue
            test = (entry[0], entry[2])
            if not declared(base_change_sink(cov, test)):
                violations.append(
                    "base change of a covering of %r along a map from %r "
                    "is not declared" % (list(cov.target.labels),
                                         list(fn.domain.labels)))
    return {"violations": violations, "ok": not violations}


def two_stage_partition(meta):
    """The classes of a composite gluing computed in two stages: each node
    glued on its own, then the node apexes glued along the overlap
    identifications.  Returns the partition of the flattened elements
    ``(node, component object, label)``."""
    node_glued = {i: colimit_glue(meta.nodes[i]) for i in meta.index}
    node_legs = {i: leg_fns(meta.nodes[i], node_glued[i]) for i in meta.index}
    elements = FinSet([tag(i, c) for i in meta.index
                       for c in node_glued[i].apex])
    pairs = [(tag(i, node_legs[i][a](x)), tag(j, node_legs[j][b](y)))
             for (i, j), idents in meta.overlaps.items()
             for (a, x), (b, y) in idents]
    _, at_class, _ = quotient_by_pairs(
        elements.labels,
        [(elements.position(a), elements.position(b)) for a, b in pairs])
    classes = {}
    for i in meta.index:
        node = meta.nodes[i]
        for comp in node.indexcat.singletons():
            for x in node.carrier(comp):
                at = elements.position(tag(i, node_legs[i][comp](x)))
                classes.setdefault(at_class[at], set()).add((i, comp, x))
    return {frozenset(c) for c in classes.values()}


def _hom_families(data, z):
    """The points of the components in order, and every family of values
    in ``z`` on them that respects each generating identification."""
    comps = [obj[0] for obj in data.indexcat.singletons()]
    elements = [(i, x) for i in comps for x in data.carrier((i,))]
    pairs = colimit_relation_pairs(data)
    families = set()
    for values in iproduct(z.labels, repeat=len(elements)):
        at = {tag(i, x): v for (i, x), v in zip(elements, values)}
        if all(at[a] == at[b] for a, b in pairs):
            families.add(values)
    return elements, families


def hom_families_exhaustive(data, z):
    """The number of compatible families of maps into ``z``, found by
    listing all ``|z| ** points`` families of values on the components."""
    return len(_hom_families(data, z)[1])


def hom_bijection_exhaustive(data, z, glued):
    """Whether restricting maps ``glued.apex -> z`` along the component legs
    is a bijection onto the compatible families of maps into ``z``.

    Lists every family of maps out of the components and keeps those that
    respect each generating identification, then restricts every one of the
    ``|z| ** |apex|`` maps out of the apex."""
    elements, families = _hom_families(data, z)
    legs = leg_fns(data, glued)
    restrictions = set()
    maps = 0
    for values in iproduct(z.labels, repeat=len(glued.apex)):
        g = dict(zip(glued.apex.labels, values))
        restrictions.add(tuple(g[legs[(i,)](x)] for i, x in elements))
        maps += 1
    return len(restrictions) == maps and restrictions == families


def presheaf_law_problems(store):
    """The problems ``validate_presheaf`` must report, found by building the
    composite ``FinFn`` of every triple v <= w <= x of opens and comparing
    it as a whole with the direct restriction x -> v.  ``store`` is the label
    view of a presheaf (``fixtures.label_store``)."""
    problems = []
    lat = store.lattice
    for o in lat.opens:
        if store.res[(o, o)] != identity_fn(store.sections[o]):
            problems.append("restriction at %r is not the identity"
                            % lat.names(o))
    for x in lat.opens:
        for w in lat.opens:
            if w | x != x:
                continue
            for v in lat.opens:
                if v | w != w:
                    continue
                composed = store.res[(x, w)].then(store.res[(w, v)])
                if store.res[(x, v)] != composed:
                    problems.append(
                        "restriction composition %r -> %r -> %r disagrees "
                        "with the direct map"
                        % (lat.names(x), lat.names(w), lat.names(v)))
    return problems


def unnatural_pairs(comp, source, target, lattice):
    """The pairs ``(w, v)`` of ``lattice``, every ``v <= w``, at which the
    components ``comp`` do not commute with the restrictions, each square
    compared as two composites; the components are ``FinFn``s and the
    presheaves label views."""
    return [(w, v) for w, v in lattice.pairs_below()
            if comp[w].then(target.res[(w, v)])
            != source.res[(w, v)].then(comp[v])]


def gluing_datum_problems(datum):
    """The broken laws of a gluing datum, in the order and words of
    ``GluingDatum.validate``: every transition scanned in both orientations,
    its naturality at every pair of its overlap lattice.  ``datum`` is the
    label view of a datum (``fixtures.label_datum``)."""
    problems = []
    members = dict(datum.charts)
    for name, _ in datum.charts:
        problems.extend("chart %s: %s" % (name, p)
                        for p in presheaf_law_problems(datum.locals[name]))
    for (a, b), comp in datum.transitions.items():
        source, target = datum.locals[a], datum.locals[b]
        lattice = OpenLattice(datum.space, members[a] & members[b])
        for o, fn in comp.items():
            if not (is_injective(fn) and surjective(fn)):
                problems.append("transition %r -> %r at %r is not a "
                                "bijection" % (a, b, lattice.names(o)))
        inverse = datum.transitions[(b, a)]
        for o, fn in comp.items():
            if fn.then(inverse[o]) != identity_fn(fn.domain):
                problems.append("transitions %r <-> %r at %r are not "
                                "mutually inverse" % (a, b, lattice.names(o)))
        problems.extend("transition %r -> %r is not natural from %r to %r"
                        % (a, b, lattice.names(w), lattice.names(v))
                        for w, v in unnatural_pairs(comp, source, target,
                                                    lattice))
    return problems


def glued_sections_by_ordered_pairs(datum):
    """The section labels per open of the glued presheaf of a checked datum
    (its label view), in the order ``glue_presheaves`` lists them."""
    return {o: [SEP.join(combo) if combo else EMPTY_SECTION
                for combo in combos]
            for o, combos in glued_tuples_by_ordered_pairs(datum).items()}


def glued_tuples_by_ordered_pairs(datum):
    """The tuples of local section labels per open that the glued presheaf
    of a checked datum (its label view) keeps: every tuple of the product
    of the local sections over the chart traces, kept when it meets a
    constraint for every ordered pair of charts, diagonals included."""
    names = [name for name, _ in datum.charts]
    members = dict(datum.charts)
    out = {}
    for o in OpenLattice(datum.space).opens:
        traces = [o & members[n] for n in names]
        locals_ = [datum.locals[n] for n in names]
        kept = []
        for combo in iproduct(*[loc.sections[tr].labels
                                for loc, tr in zip(locals_, traces)]):
            if all(datum.transitions[(na, nb)][traces[a] & traces[b]].mapping[
                    locals_[a].res[(traces[a], traces[a] & traces[b])]
                    .mapping[combo[a]]]
                   == locals_[b].res[(traces[b], traces[a] & traces[b])]
                   .mapping[combo[b]]
                   for a, na in enumerate(names)
                   for b, nb in enumerate(names)):
                kept.append(combo)
        out[o] = kept
    return out


def glued_restrictions_componentwise(datum):
    """The restriction maps of the glued presheaf of a checked datum (its
    label view) between distinct opens, each as a dict from section labels
    to section labels: a tuple of local sections, kept as in
    ``glued_sections_by_ordered_pairs``, goes to the tuple of their local
    restrictions."""
    names = [name for name, _ in datum.charts]
    members = dict(datum.charts)
    kept = glued_tuples_by_ordered_pairs(datum)

    def label(combo):
        return SEP.join(combo) if combo else EMPTY_SECTION

    out = {}
    for w, v in OpenLattice(datum.space).pairs_below():
        if w != v:
            maps = [datum.locals[n].res[(w & members[n], v & members[n])]
                    for n in names]
            out[(w, v)] = {label(combo): label(
                [f.mapping[x] for f, x in zip(maps, combo)])
                for combo in kept[w]}
    return out


def glued_components_by_candidates(charts, source, target, parts):
    """The components of the transformation glued from ``parts`` (dicts of
    ``FinFn`` components per chart name) between the label views ``source``
    and ``target``: each source section over an open goes to the one target
    section whose restriction to each chart trace is the part's image of
    the source section's, found by trying every target section; None when
    some section has no such target section or more than one."""
    out = {}
    for v in source.lattice.opens:
        mapping = {}
        for s in source.sections[v]:
            found = [t for t in target.sections[v] if all(
                target.res[(v, v & m)].mapping[t]
                == parts[name][v & m].mapping[source.res[(v, v & m)]
                                              .mapping[s]]
                for name, m in charts)]
            if len(found) != 1:
                return None
            mapping[s] = found[0]
        out[v] = mapping
    return out


def cocycle_by_ordered_triples(datum):
    """The cocycle condition of a datum (its label view) at every ordered
    triple of charts, degenerate ones included, each composite built and
    compared whole."""
    members = dict(datum.charts)
    phi = datum.transitions
    return all(phi[(a, b)][o].then(phi[(b, c)][o]) == phi[(a, c)][o]
               for a in members for b in members for c in members
               for o in OpenLattice(datum.space, members[a] & members[b]
                                    & members[c]).opens)


def coverings_listed_eagerly(lattice):
    """Every covering of every open, as one list: the opens in lattice
    order, and for each every family of the opens below it, picked by the
    bits of an ascending mask, whose union is the open.  Uncharged."""
    covers = []
    for u in lattice.opens:
        below = [v for v in lattice.opens if v | u == u]
        for pick in range(2 ** len(below)):
            parts = [below[k] for k in range(len(below)) if pick >> k & 1]
            if reduce(lambda x, y: x | y, parts, 0) == u:
                covers.append((u, parts))
    return covers


def sheaf_verdicts_by_every_constraint(store, coverings):
    """``(separated, separation counterexample, sheaf, sheaf counterexample)``
    of the label view ``store`` along ``coverings`` in order, in the form
    ``is_separated`` and ``is_sheaf`` give them, sections named by labels.
    The compatible families of a covering are filtered from the whole
    product by a constraint for every pair of parts, however few sections
    their meet has."""
    sep_counter = sheaf_counter = None
    for u, parts in coverings:
        image, clash = {}, None
        for s in store.sections[u]:
            key = tuple(store.res[(u, v)].mapping[s] for v in parts)
            if key in image:
                clash = (image[key], s)
                break
            image[key] = s
        if clash and sep_counter is None:
            sep_counter = {"open": u, "parts": parts, "sections": clash}
        if sheaf_counter is None and clash:
            sheaf_counter = {"open": u, "parts": parts, "sections": clash,
                             "kind": "separation"}
        elif sheaf_counter is None:
            for fam in iproduct(*[store.sections[v].labels for v in parts]):
                if fam not in image and all(
                        store.res[(parts[a], parts[a] & parts[b])]
                        .mapping[fam[a]]
                        == store.res[(parts[b], parts[a] & parts[b])]
                        .mapping[fam[b]]
                        for a in range(len(parts))
                        for b in range(len(parts))):
                    sheaf_counter = {"open": u, "parts": parts,
                                     "family": fam, "kind": "gluing"}
                    break
    return (sep_counter is None, sep_counter,
            sheaf_counter is None, sheaf_counter)


# The label path of gluing data: how the engine read, checked and glued it
# while each arrow was a checked ``FinFn``, before it kept position tables.

class LabelGluing:
    """Gluing data with a checked ``FinFn`` per generator, validated on
    labels: the endpoints compared as carriers, continuity by building a
    ``TopMap`` and each split involution by ``commutes``; a problem is
    raised in the engine's words.  Split data gets the diagonal defaults:
    a missing diagonal object is its component, with identity arrows."""

    def __init__(self, indexcat, ambient, objects, arrows, direction,
                 spaces=None):
        objects, arrows = dict(objects), dict(arrows)
        spaces = dict(spaces or {})
        if indexcat.mode == SPLIT:
            for i in indexcat.index:
                diag = (i, i)
                if diag not in objects:
                    if (i,) not in objects:
                        continue
                    objects[diag] = objects[(i,)]
                    if (i,) in spaces:
                        spaces[diag] = spaces[(i,)]
                    arrows.setdefault(("incl", i, diag),
                                      identity_fn(objects[(i,)]))
                arrows.setdefault(("tau", diag), identity_fn(objects[diag]))
        self.indexcat, self.ambient, self.direction = indexcat, ambient, \
            direction
        self.objects, self.arrows, self.spaces = objects, arrows, spaces
        problems = self.problems()
        if problems:
            raise StructuralError("invalid gluing data: "
                                  + "; ".join(problems))

    def carrier(self, obj):
        return self.objects[obj]

    def space(self, obj):
        return self.spaces[obj]

    def fn(self, key):
        return self.arrows[key]

    def ends(self, key):
        """The index objects the arrow for ``key`` runs between."""
        src, dst = gen_endpoints(key)
        return (dst, src) if self.direction == FROM_OVERLAPS else (src, dst)

    def problems(self):
        problems = []
        cat = self.indexcat
        for obj in cat.objects:
            if obj not in self.objects:
                problems.append("index object %r has no carrier" % (obj,))
            elif self.ambient == "top":
                if obj not in self.spaces:
                    problems.append("index object %r has no topology"
                                    % (obj,))
                elif self.spaces[obj].carrier != self.objects[obj]:
                    problems.append("topology of %r disagrees with its "
                                    "carrier" % (obj,))
        if problems:
            return problems
        for g in cat.generators:
            if g not in self.arrows:
                problems.append("generator %r has no arrow" % (g,))
                continue
            fn = self.arrows[g]
            dom, cod = (self.objects[obj] for obj in self.ends(g))
            if fn.domain != dom or fn.codomain != cod:
                problems.append(
                    "arrow for %r has endpoints %r -> %r, expected %r -> %r"
                    % (g, list(fn.domain), list(fn.codomain), list(dom),
                       list(cod)))
        if problems:
            return problems
        if self.ambient == "top":
            for g in cat.generators:
                src, dst = self.ends(g)
                try:
                    TopMap(self.arrows[g], self.spaces[src], self.spaces[dst])
                except StructuralError:
                    problems.append("arrow for %r is not continuous" % (g,))
        if cat.mode == SPLIT:
            for i, j in cat.pairs():
                t1 = self.arrows[("tau", (i, j))]
                t2 = self.arrows[("tau", (j, i))]
                roundtrip = (t2, t1) if self.direction == FROM_OVERLAPS \
                    else (t1, t2)
                if not commutes_by_composites(roundtrip):
                    problems.append("involution violated: tau%r then tau%r "
                                    "is not the identity" % ((i, j), (j, i)))
        return problems


def parse_gluing_by_labels(payload, table=None):
    """A gluing payload read into ``LabelGluing``: each key parsed, each map
    a checked ``FinFn`` and the inverse of each swap ``FinFn.inverse``;
    ``table`` is ``cli.parse_object``'s."""
    table = {} if table is None else table
    mode, ambient = payload["mode"], payload["ambient"]
    direction = payload["direction"]
    index = FinSet(payload["index"])
    for label in index:
        if "," in label:
            raise StructuralError("index label %r may not contain ','" % label)
    cat = IndexCat(mode, index)
    named, objects, spaces = {}, {}, {}
    for key, node in payload["objects"].items():
        obj = cli._parse_objkey(key, mode, cat)
        if obj not in cat.objects:
            raise StructuralError("objects entry %r names no index object"
                                  % key)
        cli._claim(named, obj, key, "objects", "index object")
        objects[obj], space = cli.parse_object(node, ambient, table)
        if space is not None:
            spaces[obj] = space

    def carrier(obj):
        if obj not in objects:
            raise StructuralError("arrow needs an objects entry for %r"
                                  % ",".join(obj))
        return objects[obj]

    arrows, taus = {}, {}
    for entry in payload["arrows"]:
        pair = cli._parse_objkey(entry["pair"], mode, cat)
        if len(pair) == 2:
            for label in pair:
                index.position(label)
        if len(pair) != 2:
            raise StructuralError("arrow pair %r is not a pair"
                                  % (entry["pair"],))
        if entry["kind"] == "edge":
            i = entry["from"]
            if i not in pair:
                raise StructuralError("edge source %r not in pair %r"
                                      % (i, entry["pair"]))
            if ("incl", i, pair) in arrows:
                raise StructuralError("edge from %r to pair %r is given twice"
                                      % (i, entry["pair"]))
            ends = (carrier(pair), carrier((i,))) \
                if direction == FROM_OVERLAPS \
                else (carrier((i,)), carrier(pair))
            arrows[("incl", i, pair)] = FinFn(*ends, entry["map"])
        else:
            if mode != SPLIT:
                raise StructuralError("tau for pair %r: swap arrows exist "
                                      "only in split mode" % entry["pair"])
            i, j = pair
            if pair in taus:
                raise StructuralError("tau for pair %r is given twice"
                                      % entry["pair"])
            taus[pair] = entry["pair"]
            if (j, i) not in objects:
                raise StructuralError("tau needs both pair orientations, "
                                      "%r is missing" % ((j, i),))
            fn = FinFn(carrier(pair), objects[(j, i)], entry["map"])
            key, inverse_key = (("tau", (j, i)), ("tau", (i, j))) \
                if direction == FROM_OVERLAPS \
                else (("tau", (i, j)), ("tau", (j, i)))
            inverse = inverse_fn(fn)
            if arrows.get(key, fn) != fn:
                raise StructuralError("tau for pair %r is not the inverse of "
                                      "the tau for pair %r"
                                      % (entry["pair"], taus[(j, i)]))
            arrows[inverse_key] = inverse
            arrows[key] = fn
    return LabelGluing(cat, ambient, objects, arrows, direction,
                       spaces or None)


def colimit_by_labels(data):
    """The colimit of colimit-side label data as the closure of its tagged
    label relation: each class named by its smallest member, the apex in
    the order of the classes' first members, each overlap leg through its
    edge.  In the top ambient the apex gets the final topology by
    frozensets and each leg its properties."""
    comps = [obj[0] for obj in data.indexcat.singletons()]
    coproduct = [tag(i, x) for i in comps for x in data.carrier((i,))]
    name = {}
    for members in naive_closure_partition(coproduct,
                                           colimit_relation_pairs(data)):
        for x in members:
            name[x] = min(members)
    apex = FinSet(dict.fromkeys(name[x] for x in coproduct))
    legs = {(i,): FinFn(data.carrier((i,)), apex,
                        {x: name[tag(i, x)] for x in data.carrier((i,))})
            for i in comps}
    for pair_obj in data.indexcat.pairs():
        legs[pair_obj] = data.fn(("incl", pair_obj[0], pair_obj)).then(
            legs[pair_obj[:1]])
    merged = {}
    for x in coproduct:
        merged.setdefault(name[x], []).append(x)
    merged = {n: members for n, members in merged.items() if len(members) > 1}
    space, props = None, {}
    if data.ambient == "top":
        space = space_from_nbhd(apex, induce_topology_by_frozensets(
            "final", apex, [legs[(i,)] for i in comps],
            [data.space((i,)) for i in comps]))
        props = {obj: map_properties_by_frozensets(leg, data.space(obj), space)
                 for obj, leg in legs.items()}
    return GluedObject("colimit", apex, space,
                       {obj: table(fn) for obj, fn in legs.items()}, props,
                       {"merged": merged})


def limit_by_labels(data):
    """``equalizer_glue_oracle`` with the leg properties by frozensets."""
    glued = equalizer_glue_oracle(data)
    props = {}
    if data.ambient == "top":
        props = {obj: map_properties_by_frozensets(leg, glued.space,
                                                   data.space(obj))
                 for obj, leg in leg_fns(data, glued).items()}
    return GluedObject("limit", glued.apex, glued.space, glued.legs, props,
                       {})


def effectiveness_by_labels(data, glued):
    """The three effectiveness flags and the diagnostics of split
    colimit-side label data and its glued object: transitivity of the
    symmetric, reflexive label relation pair by pair, embeddings by
    frozensets, the intersection of component images by sets of labels,
    and the strong reading by built pullbacks."""
    top = data.ambient == "top"
    comps = [obj[0] for obj in data.indexcat.singletons()]
    rel = set()
    for a, b in colimit_relation_pairs(data):
        rel |= {(a, b), (b, a)}
    for i in comps:
        rel |= {(tag(i, x), tag(i, x)) for x in data.carrier((i,))}
    transitive = all((a, d) in rel for a, b in rel for c, d in rel if b == c)

    def embeds(fn, dom, cod):
        return map_properties_by_frozensets(fn, dom, cod)["embedding"] if top \
            else is_injective(fn)

    pairs = data.indexcat.pairs()
    legs = leg_fns(data, glued)
    edge_emb = {p: embeds(data.fn(("incl", p[0], p)), data.spaces.get(p),
                          data.spaces.get(p[:1])) for p in pairs}
    leg_inj = {i: embeds(legs[(i,)], data.spaces.get((i,)),
                         glued.space) for i in comps}
    images = {i: set(legs[(i,)].mapping.values()) for i in comps}
    canonical = canonical_bijective_by_pullback(data, glued)
    diagnostics = {"pairs": {}, "legs": {i: {"leg_embeds": leg_inj[i]}
                                         for i in comps}}
    for i, j in pairs:
        e = data.fn(("incl", i, (i, j)))
        diagnostics["pairs"][(i, j)] = {
            "edge_embeds": edge_emb[(i, j)],
            "edge_onto_component": surjective(e),
            "intersection_ok": set(legs[(i, j)].mapping.values())
            == images[i] & images[j],
            "canonical_bijective": canonical[(i, j)],
        }
    off = [p for p in pairs if p[0] != p[1]]
    flags = (transitive and all(edge_emb.values()),
             all(d["intersection_ok"] for d in diagnostics["pairs"].values())
             and all(leg_inj.values()) and all(edge_emb.values()),
             all(canonical[p] and edge_emb[p] for p in off))
    return flags, diagnostics


def refine_by_labels(payload):
    """The ``refine`` report of a refinement payload on the label path:
    both gluings read by labels, each naturality square compared by
    composite ``FinFn``s, and the induced map read off the glued objects
    of ``limit_by_labels`` or ``colimit_by_labels``."""
    table = {}
    source = parse_gluing_by_labels(payload["source"], table)
    target = parse_gluing_by_labels(payload["target"], table)
    tcat = target.indexcat
    gamma = FinFn(tcat.index, source.indexcat.index, payload["gamma"])

    def reindexed(obj):
        gs = sorted({gamma(i) for i in obj},
                    key=source.indexcat.index.position)
        return tuple(gs)

    components, named = {}, {}
    for key, mapping in payload["components"].items():
        obj = cli._parse_objkey(key, tcat.mode, tcat)
        cli._claim(named, obj, key, "components", "index object")
        components[obj] = FinFn(source.carrier(reindexed(obj)),
                                target.carrier(obj), mapping)
    violations = []
    for obj in tcat.objects:
        if obj not in components:
            violations.append("no component at %r" % (obj,))
    for g in ([] if violations else tcat.generators):
        _, i, pair_obj = g
        gi, robj = (gamma(i),), reindexed(pair_obj)
        src_edge = identity_fn(source.carrier(gi)) if len(robj) == 1 \
            else source.fn(("incl", gi[0], robj))
        comp_i, comp_pair = components[(i,)], components[pair_obj]
        if target.direction == TOWARD_OVERLAPS:
            square = (comp_i, target.fn(g)), (src_edge, comp_pair)
        else:
            square = (src_edge, comp_i), (comp_pair, target.fn(g))
        if not commutes_by_composites(*square):
            violations.append("naturality square at %r does not commute"
                              % (g,))
    report = {"command": "refine", "verdicts": {"valid": not violations},
              "artifacts": {}, "diagnostics": {"violations": violations}}
    if violations:
        return report
    glue = limit_by_labels if target.direction == TOWARD_OVERLAPS \
        else colimit_by_labels
    gs, gt = glue(source), glue(target)
    legs_s, legs_t = leg_fns(source, gs), leg_fns(target, gt)
    tcomps = [obj[0] for obj in tcat.singletons()]
    mapping = {}
    if target.direction == TOWARD_OVERLAPS:
        for x in gs.apex:
            label = SEP.join(components[(i,)](legs_s[(gamma(i),)](x))
                             for i in tcomps)
            if label not in gt.apex:
                raise StructuralError("induced family %r is not compatible "
                                      "in the target" % label)
            mapping[x] = label
    else:
        for i in tcomps:
            for x in source.carrier((gamma(i),)):
                cls = legs_s[(gamma(i),)](x)
                val = legs_t[(i,)](components[(i,)](x))
                if mapping.setdefault(cls, val) != val:
                    raise StructuralError("induced class map is not well "
                                          "defined at %r" % cls)
        missing = [c for c in gs.apex if c not in mapping]
        if missing:
            raise StructuralError(
                "induced class map is undefined on classes %r; gamma does "
                "not reach them" % missing)
    report["artifacts"] = {"induced_map": mapping,
                           "source_apex_size": len(gs.apex),
                           "target_apex_size": len(gt.apex)}
    return report


# The sink layer on labels, as the engine read and decided it while each
# map was a checked ``FinFn``: the reports of ``check-cover``, ``compose``
# and ``check-site`` by the colimit route, built pullbacks and the
# permutation search.


def sink_by_labels(body, ambient, table):
    """A ``{target, sources}`` node as ``(target, target_space, sources)``
    with each map a checked ``FinFn``, all of them read first; then, source
    by source, a repeated name is refused and, in the top ambient, a map
    that ``TopMap`` refuses."""
    target, target_space = cli.parse_object(body["target"], ambient, table)
    sources = []
    for node in body["sources"]:
        carrier, space = cli.parse_object(node["object"], ambient, table)
        sources.append((node["name"], carrier if space is None else space,
                        FinFn(carrier, target, node["map"])))
    names = set()
    for name, obj, fn in sources:
        if name in names:
            raise StructuralError("duplicate source name %r" % name)
        names.add(name)
        if ambient == "top":
            TopMap(fn, obj, target_space)
    return target, target_space, sources


def tabled(ambient, labelled):
    """The engine's ``Sink`` of a sink read by ``sink_by_labels``."""
    target, target_space, sources = labelled
    return Sink(ambient, target, [(name, obj, table(fn))
                                  for name, obj, fn in sources],
                target_space)


def effective_by_labels(ambient, labelled):
    """Effectiveness of a sink on labels, by the colimit route; the
    colimit of no sources is the empty object."""
    if not labelled[2]:
        return not len(labelled[0])
    return effective_epi_by_colimit(tabled(ambient, labelled))


def sink_report_by_labels(command, payload):
    """The report of ``check-cover`` or ``compose`` on a sink payload,
    decided on labels: each test by the colimit route on the sink pulled
    back along it by ``pullback``, each composite a ``FinFn.then``.  In the
    top ambient a test map that ``TopMap`` refuses is refused."""
    ambient = payload["ambient"]
    top = ambient == "top"
    table_ = {}
    labelled = sink_by_labels(payload, ambient, table_)
    target, target_space, sources = labelled
    tests = []
    for node in payload.get("tests", []):
        carrier, space = cli.parse_object(node["object"], ambient, table_)
        fn = FinFn(carrier, target, node["map"])
        if top:
            TopMap(fn, space, target_space)
        tests.append((fn, space))
    inner = {name: sink_by_labels(body, ambient, table_)
             for name, body in payload.get("inner", {}).items()}
    if command == "check-cover":
        base = effective_by_labels(ambient, labelled)
        per_test = []
        for fn, space in tests:
            pulled = []
            for name, obj, leg in sources:
                ps = pullback(leg, fn, obj if top else None, space)
                pulled.append((name, ps.space if top else ps.members,
                               ps.legs["p2"]))
            per_test.append({"map_domain": list(fn.domain.labels),
                             "effective": effective_by_labels(
                                 ambient, (fn.domain, space, pulled))})
        verdicts = {"effective": base, "all_effective": base and all(
            t["effective"] for t in per_test)}
        if not top:
            verdicts["jointly_surjective"] = base
        return {"command": command, "verdicts": verdicts, "artifacts": {},
                "diagnostics": {"per_test": per_test}}
    if not inner:
        raise StructuralError("compose needs an 'inner' sink per source")
    flat = []
    for name, obj, fn in sources:
        if name not in inner:
            raise StructuralError("no inner sink for source %r" % name)
        sub_target, sub_space, sub_sources = inner[name]
        carrier = obj.carrier if top else obj
        if sub_target != carrier:
            raise StructuralError("inner sink for %r does not target that "
                                  "source" % name)
        if top and sub_space != obj:
            raise StructuralError("inner sink for %r carries a different "
                                  "topology" % name)
        flat += [("%s.%s" % (name, sub_name), sub_obj, sub_fn.then(fn))
                 for sub_name, sub_obj, sub_fn in sub_sources]
    names = [name for name, _, _ in flat]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise StructuralError("duplicate source name %r" % name)
    return {"command": command,
            "verdicts": {"is_glued_up": effective_by_labels(
                ambient, (target, target_space, flat))},
            "artifacts": {"flattened_sources": {
                name: fn.mapping for name, _, fn in flat}},
            "diagnostics": {}}


def site_report_by_labels(payload):
    """The ``check-site`` report of a site payload, read on labels (each
    morphism a checked ``FinFn``, then a ``TopMap`` in the top ambient) and
    checked by ``covering_axioms_by_scan``."""
    ambient = payload["ambient"]
    table_ = {}
    coverings = [tabled(ambient, sink_by_labels(body, ambient, table_))
                 for body in payload["coverings"]]
    morphisms = []
    for node in payload["morphisms"]:
        dom, dom_space = cli.parse_object(node["dom"], ambient, table_)
        cod, cod_space = cli.parse_object(node["cod"], ambient, table_)
        fn = FinFn(dom, cod, node["map"])
        if ambient == "top":
            TopMap(fn, dom_space, cod_space)
            morphisms.append((dom_space, cod_space, table(fn)))
        else:
            morphisms.append((dom, cod, table(fn)))
    report = covering_axioms_by_scan(SiteSpec(ambient, coverings, morphisms))
    return {"command": "check-site",
            "verdicts": {"axioms_hold": report["ok"]}, "artifacts": {},
            "diagnostics": {"violations": report["violations"]}}
