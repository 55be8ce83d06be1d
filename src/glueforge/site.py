"""Sinks, canonical gluing functors of sinks, base change, effective
epimorphism decisions, the covering axioms of a declared site fragment, and
the effectiveness criteria for split colimit-side gluing data.

A sink is a target with a finite family of maps into it, and each map is
kept as a position table: the list that gives each point of the source, in
carrier order, the target position of its image.  Test maps, the
morphisms of a site and composite and pulled-back sources are tables too,
and the canonical functor of a sink and its base change, which the tests
and the tracer build, are joined on positions by
``fincat.pullback_positions``; labels return only in reports and in the
``a|b`` names of pullback members.

A sink is an effective epimorphism when its target is the glued-up object of
its canonical functor.  In finite sets and finite spaces that holds exactly
when the family is jointly surjective and the target carries the final
topology along it, and ``fincat.is_effective_family`` decides it so on
tables and rows, with no functor built.  The universal quantifier over base
changes is not enumerable: the sink is tested after base change along a
finite, caller-supplied family of test maps, each verdict decided by
``fincat.is_effective_after_base_change`` with no pullback built.  Both
ambients have a closed form for universal effectiveness.  In sets it is
joint surjectivity, which the report records.  In spaces a sink is a
universal effective epimorphism exactly when its map from the coproduct of
the sources is biquotient (Day and Kelly 1970); no kernel here decides that
yet, so top reports carry the per-test verdicts only.

The covering axioms look each candidate sink up among the declared
coverings by key, with no candidate built.  A sink's key is its target and
the sorted keys of its sources, and two sinks agree up to a bijection of
their sources and fibred isomorphisms of matched sources exactly when their
keys are equal.  In sets a source's key is its fibre counts over the
target.  In spaces it is the canonical form of the source's specialization
preorder with each point coloured by its target position
(``_canonical_form``): colour refinement, then individualization with
backtracking, keeping the least form (McKay and Piperno 2014).  Refinement
alone does not tell every pair of preorders apart (Cai, Fuerer and
Immerman 1992), so the backtracking stays, and each individualization is
charged to the budget.
"""

from collections import Counter
from itertools import count, product as iproduct
from math import prod

from .errors import StructuralError, charge
from .fincat import (
    FinSet,
    FinTop,
    _members,
    initial_rows,
    is_effective_after_base_change,
    is_effective_family,
    is_iso_table,
    joint_image,
    pair_label,
    pullback_positions,
    table_properties,
)
from .gluing import (
    FROM_OVERLAPS,
    GluingData,
    _offsets,
    _overlap_maps,
    _position_pairs,
    colimit_glue,
)
from .indexcat import SPLIT, IndexCat


def _carrier(obj):
    """The carrier of a source object: a space's, or the set itself."""
    return obj.carrier if isinstance(obj, FinTop) else obj


class Sink:
    """A target carrier, with its space in the top ambient, and a finite
    family of ``(name, object, table)`` sources: the object is the source's
    carrier in the set ambient and its space in the top ambient, and the
    table gives each of its points the target position of its image.

    Callers hand tables that a parser checked (total into the target and,
    in the top ambient, continuous) or that are correct by construction
    (composites of checked tables, pullback projections), so only the
    names are checked: generated names such as ``a.b`` can collide.
    """

    __slots__ = ("ambient", "target", "target_space", "sources")

    def __init__(self, ambient, target, sources, target_space=None):
        sources = tuple(sources)
        names = set()
        for name, _, _ in sources:
            if name in names:
                raise StructuralError("duplicate source name %r" % name)
            names.add(name)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_space", target_space)
        object.__setattr__(self, "sources", sources)

    def __setattr__(self, name, value):
        raise AttributeError("Sink is immutable")

    def names(self):
        return [name for name, _, _ in self.sources]


def _fibred(x, f, y, g, top):
    """The pullback of the source ``x`` with table ``f`` and the source
    ``y`` with table ``g``, into one target, on positions
    (``pullback_positions``): its object, whose members are labelled
    ``a|b`` and, in the top ambient, carry the initial topology, and its
    two coordinate tables."""
    firsts, seconds, rows = pullback_positions(f, g, (x, y) if top else ())
    xs, ys = _carrier(x).labels, _carrier(y).labels
    members = FinSet.from_distinct(list(map(
        pair_label, map(xs.__getitem__, firsts), map(ys.__getitem__, seconds))))
    return (FinTop.from_nbhd(members, rows) if top else members), firsts, \
        seconds


def canonical_sink_functor(sink):
    """The split colimit-side gluing functor of a sink: components are the
    sources, overlaps are the fibered products over the target, the swap
    arrows are the canonical pullback symmetries, all built on positions.
    No command builds it: the tests glue it to check
    ``effective_epi_check`` against."""
    top = sink.ambient == "top"
    cat = IndexCat(SPLIT, FinSet(sink.names()))
    objects = {}
    spaces = {}
    tables = {}
    pairs = {}
    for i, x, f in sink.sources:
        objects[(i,)] = _carrier(x)
        spaces[(i,)] = x
        for j, y, g in sink.sources:
            obj, firsts, seconds = _fibred(x, f, y, g, top)
            objects[(i, j)] = _carrier(obj)
            spaces[(i, j)] = obj
            tables[("incl", i, (i, j))] = firsts
            pairs[(i, j)] = list(zip(firsts, seconds))
    for (i, j), joined in pairs.items():
        at = dict(zip(pairs[(j, i)], count()))
        # stored at the generator whose source is (j, i): the ambient map
        # G(i,j) -> G(j,i), member (a, b) to member (b, a)
        tables[("tau", (j, i))] = [at[(b, a)] for a, b in joined]
    return GluingData(cat, sink.ambient, objects, tables, FROM_OVERLAPS,
                      spaces if top else None)


def _inner_mismatch(sub, obj, ambient):
    """Why the sink ``sub`` is not a sink over the source object ``obj``, or
    None when it is: it must target the same carrier, and in the top ambient
    the same space."""
    if sub.target != _carrier(obj):
        return "does not target that source"
    if ambient == "top" and sub.target_space != obj:
        return "carries a different topology"
    return None


def flatten_sinks(outer, inner):
    """The sink of composites through an outer sink: ``inner`` maps each
    source name of ``outer`` to a sink over that source, and source ``s`` of
    the inner sink at ``name`` becomes ``name.s``, its table the inner
    table followed by the outer one."""
    sources = []
    for name, obj, table in outer.sources:
        if name not in inner:
            raise StructuralError("no inner sink for source %r" % name)
        sub = inner[name]
        why = _inner_mismatch(sub, obj, outer.ambient)
        if why:
            raise StructuralError("inner sink for %r %s" % (name, why))
        for sub_name, sub_obj, sub_table in sub.sources:
            sources.append(("%s.%s" % (name, sub_name), sub_obj,
                            list(map(table.__getitem__, sub_table))))
    return Sink(outer.ambient, outer.target, sources, outer.target_space)


def base_change_sink(sink, test):
    """The sink over the domain of the test map ``test``, an ``(object,
    table)`` pair as ``cli.parse_sink`` reads it, with each source pulled
    back along it on positions.  No command builds it: the per-test
    verdicts and the covering axioms need no pulled-back sink."""
    v_obj, img = test
    top = sink.ambient == "top"
    sources = []
    for name, obj, table in sink.sources:
        pulled, _, seconds = _fibred(obj, table, v_obj, img, top)
        sources.append((name, pulled, seconds))
    return Sink(sink.ambient, _carrier(v_obj), sources,
                v_obj if top else None)


def effective_epi_check(sink, hit=None):
    """Whether the family is an effective epimorphism: the target, with its
    own maps as legs, is the glued-up object of the canonical functor.

    The colimit of that functor is the joint image of the sources with the
    final topology, and the target's maps factor through it injectively, so
    the factoring map is an isomorphism exactly when the family is jointly
    surjective and, in the top ambient, the target carries the final
    topology along it.  ``hit`` is the sources' ``joint_image``, built
    when not given.
    """
    return is_effective_family(len(sink.target),
                               [table for _, _, table in sink.sources],
                               sink.target_space,
                               [obj for _, obj, _ in sink.sources], hit)


def universal_effective_epi_check(sink, tests=()):
    """Effectiveness after base change along each supplied test map, an
    ``(object, table)`` pair.

    The report carries the base verdict, one verdict per test map, and in the
    set ambient the closed-form criterion (joint surjectivity), which decides
    effectiveness under arbitrary base change there.  Each test's verdict is
    that of the pulled-back sink, decided without building it; the joint
    image of the sources is built once for all of them.
    """
    tables = [table for _, _, table in sink.sources]
    hit = joint_image(tables)
    report = {
        "base": effective_epi_check(sink, hit),
        "per_test": [],
    }
    top = sink.ambient == "top"
    if not top:
        # the set-ambient verdict is joint surjectivity itself
        report["jointly_surjective"] = report["base"]
    spaces = [obj for _, obj, _ in sink.sources] if top else ()
    for v_obj, img in tests:
        report["per_test"].append({
            "map_domain": list(_carrier(v_obj).labels),
            "effective": is_effective_after_base_change(
                img, tables, v_obj if top else None, spaces, hit),
        })
    report["all_effective"] = report["base"] and all(
        t["effective"] for t in report["per_test"])
    return report


class EffectivenessReport:
    """Independently computed flags for the three effectiveness readings of a
    split colimit-side gluing functor, plus per-pair diagnostics."""

    __slots__ = ("congruence_and_injective", "intersection_characterization",
                 "strong_bijections", "diagnostics", "glued")

    def __init__(self, c2, c3, c4, diagnostics, glued):
        object.__setattr__(self, "congruence_and_injective", c2)
        object.__setattr__(self, "intersection_characterization", c3)
        object.__setattr__(self, "strong_bijections", c4)
        object.__setattr__(self, "diagnostics", diagnostics)
        object.__setattr__(self, "glued", glued)

    def __setattr__(self, name, value):
        raise AttributeError("EffectivenessReport is immutable")

    def flags(self):
        return (self.congruence_and_injective,
                self.intersection_characterization,
                self.strong_bijections)

    def all_equivalent(self):
        return len(set(self.flags())) == 1


def effective_gluing_check(data):
    """The three readings of effectiveness, evaluated independently.

    Congruence reading: the generated identification relation, symmetrized
    and with the diagonal added, is already transitive, and every
    overlap-to-component arrow is injective (a topological embedding in the
    top ambient).  Intersection reading: inside the glued object, the image
    of each overlap is exactly the intersection of the component images, and
    both the component legs and the overlap arrows are injective
    (embeddings).  Strong reading: for distinct indices the canonical
    comparison ``u -> (e_i(u), into_j(u))`` from each overlap to the fibered
    product of the two components over the glued object is a bijection
    (homeomorphism), with injective (embedded) overlap arrows.  Surjectivity
    of the overlap arrows onto their components is recorded per pair as the
    diagnostic ``edge_onto_component`` and does not enter the flags: in
    these ambients every map is a regular quotient onto its image.

    The comparison is decided per ordered pair, ``(i, i)`` included, and
    no fibered product is built.  The legs form a cocone, so the map always
    lands in the fibered product; it is a bijection exactly when its pairs
    are distinct and as many as the product's members,
    ``sum_z |leg_i^-1(z)| * |leg_j^-1(z)|``.  A bijection is a
    homeomorphism exactly when the overlap carries the initial topology
    along ``e_i`` and ``into_j``, as the product's members do along its
    legs.
    """
    if data.indexcat.mode != SPLIT:
        raise StructuralError("effectiveness is defined for split data")
    cat = data.indexcat
    names = [obj[0] for obj in cat.singletons()]
    glued = colimit_glue(data)
    offsets, size = _offsets(data)

    # the identifications made symmetric and reflexive hold each coproduct
    # position with itself and each unordered pair of distinct positions
    # both ways; they are transitive exactly when they are the equivalence
    # they generate, whose classes are those of the glued apex: the merged
    # ones and a singleton for every other apex label
    distinct = {(a, b) if a < b else (b, a)
                for a, b in _position_pairs(data, offsets) if a != b}
    merged = glued.witness["merged"].values()
    transitive = size + 2 * len(distinct) \
        == sum(len(members) ** 2 for members in merged) \
        + len(glued.apex) - len(merged)

    # the edges were validated with the data and the legs built continuous,
    # whose reports the glued object keeps
    top = data.ambient == "top"
    spaces = data.spaces if top else {}
    diagnostics = {"pairs": {}, "legs": {}}
    edge_emb = {}
    for pair_obj in cat.pairs():
        e = data.edge(pair_obj[0], pair_obj)
        edge_emb[pair_obj] = table_properties(
            e, spaces[pair_obj], spaces[pair_obj[:1]])["embedding"] if top \
            else len(set(e)) == len(e)
    leg_inj = {}
    for i in names:
        leg = glued.legs[(i,)]
        leg_inj[i] = glued.leg_props[(i,)]["embedding"] if top \
            else len(set(leg)) == len(leg)
        diagnostics["legs"][i] = {"leg_embeds": leg_inj[i]}

    intersection_ok = {}
    canonical_bij = {}
    # how many points of each component go to each apex position; the
    # keys are the leg's image
    fibres = {i: Counter(glued.legs[(i,)]) for i in names}
    for i, j, overlap, e_i, into_j in _overlap_maps(data):
        pair_obj = (i, j)
        intersection_ok[pair_obj] = \
            set(glued.legs[pair_obj]) == fibres[i].keys() & fibres[j].keys()

        # the canonical map lands in the fibre product, the legs being a
        # cocone: it is onto exactly when it hits as many pairs as that has
        canonical_bij[pair_obj] = \
            len(set(zip(e_i, into_j))) \
            == len(overlap) \
            == sum(n * fibres[j][z] for z, n in fibres[i].items())
        if top and canonical_bij[pair_obj]:
            # the initial topology along e_i and into_j
            canonical_bij[pair_obj] = spaces[pair_obj].rows == initial_rows(
                len(overlap), (e_i, into_j), (spaces[(i,)], spaces[(j,)]))
        diagnostics["pairs"][pair_obj] = {
            "edge_embeds": edge_emb[pair_obj],
            "edge_onto_component":
                len(set(e_i)) == len(data.carrier((i,))),
            "intersection_ok": intersection_ok[pair_obj],
            "canonical_bijective": canonical_bij[pair_obj],
        }

    c2 = transitive and all(edge_emb.values())
    c3 = (all(intersection_ok.values()) and all(leg_inj.values())
          and all(edge_emb.values()))
    distinct = [p for p in cat.pairs() if p[0] != p[1]]
    c4 = (all(canonical_bij[p] for p in distinct)
          and all(edge_emb[p] for p in distinct))
    return EffectivenessReport(c2, c3, c4, diagnostics, glued)


class SiteSpec:
    """An explicitly declared fragment of a Grothendieck topology: a list of
    coverings and a list of ``(dom, cod, table)`` morphisms available for
    base change, their ends carriers in the set ambient and spaces in the
    top ambient."""

    __slots__ = ("ambient", "coverings", "morphisms")

    def __init__(self, ambient, coverings, morphisms):
        for s in coverings:
            if s.ambient != ambient:
                raise StructuralError("covering ambient mismatch")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "coverings", tuple(coverings))
        object.__setattr__(self, "morphisms", tuple(morphisms))

    def __setattr__(self, name, value):
        raise AttributeError("SiteSpec is immutable")


def _fibre_counts(table, size):
    """The key of a set source over a target of ``size`` points: how many
    of its points ``table`` sends to each target position.  Sources over
    one target are isomorphic over it as sets exactly when their keys are
    equal."""
    counts = [0] * size
    for q in table:
        counts[q] += 1
    return tuple(counts)


def _pushed_counts(counts, img, size):
    """The key over a target of ``size`` points of a composite: ``counts``
    is the first map's key over the middle object, whose position ``k``
    the second map sends to ``img[k]``; each fibre's counts add up."""
    out = [0] * size
    for n, q in zip(counts, img):
        out[q] += n
    return tuple(out)


def _refined(colour, ups, downs):
    """The coarsest stable refinement of the colouring ``colour`` of the
    points of a preorder, where ``ups[p]`` lists the points above ``p`` (its
    row) and ``downs[p]`` those below: each point's signature is its colour
    and the sorted colours of its up-set and of its down-set, and the new
    colours are the ranks of the signatures in sorted order, until no
    colour splits.  Ranks keep the order of the cells they refine."""
    while True:
        sigs = [(c, tuple(sorted(map(colour.__getitem__, up))),
                 tuple(sorted(map(colour.__getitem__, down))))
                for c, up, down in zip(colour, ups, downs)]
        rank = {sig: k for k, sig in enumerate(sorted(set(sigs)))}
        refined = list(map(rank.__getitem__, sigs))
        if len(rank) == len(set(colour)):
            return refined
        colour = refined


def _uniform_form(rows, table, cells):
    """The form of the ordered partition ``cells`` of a coloured preorder,
    or None unless every cell, and every pair of cells, is uniformly
    related: either each point of the first holds each other point of the
    second in its row, or none does.  The form lists each cell's target
    position and size, then whether each ordered pair of cells is related;
    a preorder is determined by it up to isomorphism, since any bijection
    that keeps the cells keeps every relation."""
    masks = [sum(1 << p for p in cell) for cell in cells]
    related = []
    for cell in cells:
        for mask in masks:
            kinds = set()
            for p in cell:
                others = mask & ~(1 << p)
                if others:
                    held = rows[p] & others
                    if held and held != others:
                        return None
                    kinds.add(bool(held))
            if len(kinds) > 1:
                return None
            related.append(True in kinds)
    return (tuple((table[cell[0]], len(cell)) for cell in cells),
            tuple(related))


def _least_form(rows, table, ups, downs, colour, tried):
    """The least form (``_uniform_form``) of the leaves below the stable
    colouring ``colour`` of a coloured preorder: the form itself when its
    cells are uniformly related, else the least over the points of its
    first cell of more than one point, each individualized (given a colour
    below every other) and refined in turn, and charged through
    ``tried``."""
    cells = {}
    for p, c in enumerate(colour):
        cells.setdefault(c, []).append(p)
    cells = [cells[c] for c in sorted(cells)]
    form = _uniform_form(rows, table, cells)
    if form is not None:
        return form
    best = None
    for p in next(cell for cell in cells if len(cell) > 1):
        charge("individualized points in one source's key", next(tried))
        marked = list(colour)
        marked[p] = -1
        form = _least_form(rows, table, ups, downs,
                           _refined(marked, ups, downs), tried)
        if best is None or form < best:
            best = form
    return best


def _canonical_form(rows, table):
    """The key of a top source over its target, from its ``rows`` and its
    ``table``: the least form over the leaves of the search tree of
    individualization and refinement (McKay and Piperno 2014), started
    from each point's target position as its colour.  The tree and the
    forms are functions of the coloured preorder alone, so two sources are
    homeomorphic over the target exactly when their keys are equal.
    Discrete, indiscrete and chain sources stop at the root."""
    ups = [_members(row) for row in rows]
    downs = [[] for _ in rows]
    for p, up in enumerate(ups):
        for q in up:
            downs[q].append(p)
    return _least_form(rows, table, ups, downs,
                       _refined(list(table), ups, downs), count(1))


def _source_key(obj, table, size, forms):
    """The key of a source over a target of ``size`` points: its canonical
    form when ``obj`` is a space, kept in ``forms``, else its fibre
    counts."""
    if not isinstance(obj, FinTop):
        return _fibre_counts(table, size)
    return _kept_form(obj.rows, table, forms)


def _kept_form(rows, table, forms):
    """``_canonical_form(rows, table)``, made once per ``forms``."""
    key = (tuple(rows), tuple(table))
    try:
        return forms[key]
    except KeyError:
        form = forms[key] = _canonical_form(rows, table)
        return form


def _sink_key(target, target_space, source_keys):
    """The key of a sink: its target, with its space, and the sorted keys
    of its sources.  Two sinks agree up to a bijection of their source
    families and fibered isomorphisms of the sources exactly when their
    keys are equal."""
    return target, target_space, tuple(sorted(source_keys))


def sinks_equivalent(a, b):
    """Whether two sinks agree up to a bijection of their source families
    and fibered isomorphisms of the sources, by their keys (``_sink_key``).
    No command calls it; ``covering_axioms_check`` compares keys itself."""
    forms = {}

    def key(sink):
        size = len(sink.target)
        return _sink_key(sink.target, sink.target_space, (
            _source_key(obj, table, size, forms)
            for _, obj, table in sink.sources))

    return a.ambient == b.ambient and key(a) == key(b)


def covering_axioms_check(spec):
    """Checks the identity, composability, and base-change axioms on the
    declared fragment; every violation is named in the report.

    Each candidate sink (the sink of an isomorphism, each composite of
    declared coverings, each base change of one) is looked up among the
    declared coverings by its key, with no candidate built.  In the set
    ambient a base change's count at ``v`` is the covering's count at
    ``fn(v)``, and a composite's count at ``t`` the sum of the inner counts
    over the outer fibre of ``t``.  In the top ambient a composite source
    is the inner source with the composite table, and a base change the
    rows of the pullback on positions.  The keys of the composites through
    each outer source are made once per inner covering."""
    top = spec.ambient == "top"
    coverings = spec.coverings
    # a source recurs in many candidates: the keys of identity coverings
    # and of composites through them are those of their sources
    forms = {}
    keys = [[_source_key(obj, table, len(cov.target), forms)
             for _, obj, table in cov.sources] for cov in coverings]
    declared = {_sink_key(cov.target, cov.target_space, ks)
                for cov, ks in zip(coverings, keys)}
    violations = []
    for dom, cod, table in spec.morphisms:
        carrier = _carrier(cod)
        ends = (dom, cod) if top else ()
        if is_iso_table(table, len(carrier), *ends) and _sink_key(
                carrier, cod if top else None,
                [_source_key(dom, table, len(carrier), forms)]) \
                not in declared:
            violations.append("isomorphism sink onto %r is not declared"
                              % (list(carrier.labels),))
    # composite names such as ``a.b`` can collide only when a source name
    # holds a dot; then every composite is built, to be refused as before
    dotted = any("." in name for cov in coverings for name in cov.names())
    for cov in coverings:
        # enumerate all families of declared coverings of the sources
        names = cov.names()
        options = [[k for k, c in enumerate(coverings)
                    if _inner_mismatch(c, obj, spec.ambient) is None]
                   for _, obj, _ in cov.sources]
        charge("refinement families of one covering", prod(map(len, options)))
        if not all(options):
            continue
        size = len(cov.target)
        if top:
            pushed = [{k: [_kept_form(sub.rows, list(map(
                img.__getitem__, sub_table)), forms)
                for _, sub, sub_table in coverings[k].sources]
                for k in opts} for opts, (_, _, img) in zip(options,
                                                            cov.sources)]
        else:
            pushed = [{k: [_pushed_counts(counts, img, size)
                           for counts in keys[k]] for k in opts}
                      for opts, (_, _, img) in zip(options, cov.sources)]
        for combo in iproduct(*options):
            if dotted:    # refuses composite names that collide
                flatten_sinks(cov, dict(zip(names, map(coverings.__getitem__,
                                                       combo))))
            composite = [key for part, k in zip(pushed, combo)
                         for key in part[k]]
            if _sink_key(cov.target, cov.target_space,
                         composite) not in declared:
                violations.append(
                    "composite of covering of %r is not declared"
                    % (list(cov.target.labels),))
    for cov, ks in zip(coverings, keys):
        for dom, cod, img in spec.morphisms:
            if _carrier(cod) != cov.target:
                continue
            if top:
                changed = []
                for _, obj, leg in cov.sources:
                    _, seconds, rows = pullback_positions(leg, img,
                                                          (obj, dom))
                    changed.append(_kept_form(rows, seconds, forms))
            else:
                changed = [tuple(map(counts.__getitem__, img))
                           for counts in ks]
            if _sink_key(_carrier(dom), dom if top else None,
                         changed) not in declared:
                violations.append(
                    "base change of a covering of %r along a map from %r "
                    "is not declared" % (list(cov.target.labels),
                                         list(_carrier(dom).labels)))
    return {"violations": violations, "ok": not violations}
