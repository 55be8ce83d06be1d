"""Sinks, canonical gluing functors of sinks, base change, effective
epimorphism decisions, and the effectiveness criteria for split colimit-side
gluing data.

A sink is an effective epimorphism when its target is the glued-up object of
its canonical functor.  In finite sets and finite spaces that holds exactly
when the family is jointly surjective and the target carries the final
topology along it, and ``fincat.is_effective_family`` decides it so, with no
functor built.  The universal quantifier over base changes is not
enumerable: the sink is tested after base change along a finite,
caller-supplied family of test maps, each verdict decided by
``fincat.is_effective_after_base_change`` on positions and rows with no
pullback built, and in the set ambient joint surjectivity is recorded as
the complete closed form.

The covering axioms look each candidate sink up among the declared
coverings by key: a source's key is its fibre counts over the target, and
two sources are isomorphic over the target in sets exactly when their keys
are equal.  The keys of isomorphism, composite and base-change candidates
are computed from positions; only in the top ambient, and only on a key
hit, is a candidate built and compared with ``sinks_equivalent``.
"""

from collections import Counter
from itertools import count, permutations, product as iproduct
from math import prod
from operator import and_

from .errors import StructuralError, charge
from .fincat import (
    FinFn,
    FinSet,
    FinTop,
    TopMap,
    _positions,
    _preimage_rows,
    is_effective_after_base_change,
    is_effective_family,
    is_iso,
    joint_image,
    pair_label,
    pullback,
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


class Sink:
    """A target object together with a finite family of maps into it.

    The constructor validates each map: into the target, from its source's
    carrier and, in the top ambient, continuous.  Sinks the engine builds
    from maps that are correct by construction (pullback projections,
    composites of validated maps, validated morphisms) come from
    ``Sink.from_valid``, which checks only that source names are distinct.
    """

    __slots__ = ("ambient", "target", "target_space", "sources")

    def __init__(self, ambient, target, sources, target_space=None):
        if ambient not in ("sets", "top"):
            raise StructuralError("ambient must be 'sets' or 'top'")
        if ambient == "top" and target_space is None:
            raise StructuralError("top sinks need a target space")
        checked = []
        names = set()
        for entry in sources:
            name, obj, fn = entry
            if name in names:
                raise StructuralError("duplicate source name %r" % name)
            names.add(name)
            carrier = obj.carrier if isinstance(obj, FinTop) else obj
            if fn.domain != carrier or fn.codomain != target:
                raise StructuralError("source %r does not map into the target"
                                      % name)
            if ambient == "top":
                if not isinstance(obj, FinTop):
                    raise StructuralError("top sinks need source spaces")
                TopMap(fn, obj, target_space)
            checked.append((name, obj, fn))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_space", target_space)
        object.__setattr__(self, "sources", tuple(checked))

    @classmethod
    def from_valid(cls, ambient, target, sources, target_space=None):
        """The sink of these ``(name, object, map)`` sources, whose maps the
        caller built or validated from each object into the target
        (continuous between the spaces in the top ambient), so only the
        names are checked: generated names such as ``a.b`` can collide."""
        sources = tuple(sources)
        names = set()
        for name, _, _ in sources:
            if name in names:
                raise StructuralError("duplicate source name %r" % name)
            names.add(name)
        sink = object.__new__(cls)
        object.__setattr__(sink, "ambient", ambient)
        object.__setattr__(sink, "target", target)
        object.__setattr__(sink, "target_space", target_space)
        object.__setattr__(sink, "sources", sources)
        return sink

    def __setattr__(self, name, value):
        raise AttributeError("Sink is immutable")

    def names(self):
        return [name for name, _, _ in self.sources]

    def source(self, name):
        for n, obj, fn in self.sources:
            if n == name:
                return obj, fn
        raise StructuralError("no source named %r" % name)

    def carrier(self, name):
        obj, _ = self.source(name)
        return obj.carrier if isinstance(obj, FinTop) else obj

    def space(self, name):
        """The topology of a source, None in the set ambient."""
        obj, _ = self.source(name)
        return obj if isinstance(obj, FinTop) else None


def canonical_sink_functor(sink):
    """The split colimit-side gluing functor of a sink: components are the
    sources, overlaps are the fibered products over the target, the swap
    arrows are the canonical pullback symmetries.  No command builds it:
    the tests glue it to check ``effective_epi_check`` against."""
    names = sink.names()
    cat = IndexCat(SPLIT, FinSet(names))
    objects = {}
    spaces = {}
    arrows = {}
    pblegs = {}
    for i in names:
        objects[(i,)] = sink.carrier(i)
        spaces[(i,)] = sink.space(i)
    for i in names:
        for j in names:
            _, fi = sink.source(i)
            _, fj = sink.source(j)
            ps = pullback(fi, fj, sink.space(i), sink.space(j))
            spaces[(i, j)] = ps.space
            objects[(i, j)] = ps.members
            pblegs[(i, j)] = ps.legs
            arrows[("incl", i, (i, j))] = ps.legs["p1"]
    for i in names:
        for j in names:
            src = objects[(i, j)]
            dst = objects[(j, i)]
            mapping = {}
            for lab in src:
                a = pblegs[(i, j)]["p1"](lab)
                b = pblegs[(i, j)]["p2"](lab)
                mapping[lab] = pair_label(b, a)
            # stored at the generator whose source is (j, i): the ambient map
            # G(i,j) -> G(j,i) realizing the swap
            arrows[("tau", (j, i))] = FinFn(src, dst, mapping)
    return GluingData(cat, sink.ambient, objects, arrows, FROM_OVERLAPS,
                      spaces if sink.ambient == "top" else None)


def _inner_mismatch(sub, obj, ambient):
    """Why the sink ``sub`` is not a sink over the source object ``obj``, or
    None when it is: it must target the same carrier, and in the top ambient
    the same space."""
    carrier = obj.carrier if isinstance(obj, FinTop) else obj
    if sub.target != carrier:
        return "does not target that source"
    if ambient == "top" and sub.target_space != obj:
        return "carries a different topology"
    return None


def flatten_sinks(outer, inner):
    """The sink of composites through an outer sink: ``inner`` maps each
    source name of ``outer`` to a sink over that source, and source ``s`` of
    the inner sink at ``name`` becomes ``name.s``, followed by the outer map."""
    sources = []
    for name, obj, fn in outer.sources:
        if name not in inner:
            raise StructuralError("no inner sink for source %r" % name)
        sub = inner[name]
        why = _inner_mismatch(sub, obj, outer.ambient)
        if why:
            raise StructuralError("inner sink for %r %s" % (name, why))
        for sub_name, sub_obj, sub_fn in sub.sources:
            sources.append(("%s.%s" % (name, sub_name), sub_obj,
                            sub_fn.then(fn)))
    return Sink.from_valid(outer.ambient, outer.target, sources,
                           target_space=outer.target_space)


def _refuse_base_change(sink, fn, v_space):
    """Raise when ``fn``, with the space ``v_space`` on its domain in the
    top ambient, is no map to change the base of ``sink`` along."""
    if fn.codomain != sink.target:
        raise StructuralError("base change map must land in the sink target")
    if sink.ambient == "top" and v_space is None:
        raise StructuralError("top base change needs a topology on the source")
    if v_space is not None and v_space.carrier != fn.domain:
        raise StructuralError("pullback spaces must be those of the map "
                              "domains")


def base_change_sink(sink, fn, v_space=None):
    """The sink over the source of ``fn`` with the pulled-back family."""
    _refuse_base_change(sink, fn, v_space)
    sources = []
    for name, _, leg in sink.sources:
        ps = pullback(leg, fn, sink.space(name), v_space)
        sources.append((name, ps.members if ps.space is None else ps.space,
                        ps.legs["p2"]))
    return Sink.from_valid(
        sink.ambient, fn.domain, sources,
        target_space=v_space if sink.ambient == "top" else None)


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
    return is_effective_family(sink.target, [fn for _, _, fn in sink.sources],
                               sink.target_space,
                               [obj for _, obj, _ in sink.sources], hit)


def universal_effective_epi_check(sink, tests=()):
    """Effectiveness after base change along each supplied test map.

    The report carries the base verdict, one verdict per test map, and in the
    set ambient the closed-form criterion (joint surjectivity), which decides
    effectiveness under arbitrary base change there.  Each test's verdict is
    that of the pulled-back sink, decided without building it; the joint
    image of the sources is built once for all of them.
    """
    maps = [fn for _, _, fn in sink.sources]
    hit = joint_image(maps)
    report = {
        "base": effective_epi_check(sink, hit),
        "per_test": [],
    }
    top = sink.ambient == "top"
    if not top:
        # the set-ambient verdict is joint surjectivity itself
        report["jointly_surjective"] = report["base"]
    spaces = [obj for _, obj, _ in sink.sources] if top else ()
    for entry in tests:
        fn, v_space = entry if top else (entry, None)
        _refuse_base_change(sink, fn, v_space)
        report["per_test"].append({
            "map_domain": list(fn.domain.labels),
            "effective": is_effective_after_base_change(fn, maps, v_space,
                                                        spaces, hit),
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
        leg_inj[i] = glued.leg_props[(i,)]["embedding"] if top \
            else glued.legs[(i,)].is_injective()
        diagnostics["legs"][i] = {"leg_embeds": leg_inj[i]}

    intersection_ok = {}
    canonical_bij = {}
    # the apex label at each point of each component, and how many points
    # of the component go to each apex label; the keys are the leg's image
    at = {i: list(map(glued.legs[(i,)].mapping.__getitem__,
                      data.carrier((i,)).labels)) for i in names}
    fibres = {i: Counter(at[i]) for i in names}
    for i, j, overlap, e_i, into_j in _overlap_maps(data):
        pair_obj = (i, j)
        edge_image = set(map(at[i].__getitem__, e_i))
        intersection_ok[pair_obj] = \
            edge_image == fibres[i].keys() & fibres[j].keys()

        # the canonical map lands in the fibre product, the legs being a
        # cocone: it is onto exactly when it hits as many pairs as that has
        canonical_bij[pair_obj] = \
            len(set(zip(e_i, into_j))) \
            == len(overlap) \
            == sum(n * fibres[j][z] for z, n in fibres[i].items())
        if top and canonical_bij[pair_obj]:
            # the initial topology along e_i and into_j
            canonical_bij[pair_obj] = spaces[pair_obj].rows == list(map(
                and_, _preimage_rows(e_i, spaces[(i,)].rows),
                _preimage_rows(into_j, spaces[(j,)].rows)))
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
    coverings and a list of morphisms available for base change."""

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

    def morphism_parts(self, entry):
        if self.ambient == "top":
            return entry.fn, entry.dom, entry.cod
        return entry, None, None


def _fibre_counts(fn):
    """The key of a source over its target: how many of its points ``fn``
    sends to each target point, in target order.  Sources over one target
    are isomorphic over it as sets exactly when their keys are equal."""
    counts = dict.fromkeys(fn.codomain.labels, 0)
    for y in fn.mapping.values():
        counts[y] += 1
    return tuple(counts.values())


def _pushed_counts(counts, img, size):
    """The key over a target of ``size`` points of a composite: ``counts``
    is the first map's key over the middle object, whose position ``k``
    the second map sends to ``img[k]``; each fibre's counts add up."""
    out = [0] * size
    for n, q in zip(counts, img):
        out[q] += n
    return tuple(out)


def _fibered_iso_exists(obj_a, fn_a, obj_b, fn_b, ambient):
    if _fibre_counts(fn_a) != _fibre_counts(fn_b):
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


def sinks_equivalent(a, b):
    """Whether two sinks agree up to a bijection of their source families
    and fibered isomorphisms of the sources.  Fibered isomorphism is an
    equivalence relation, so each source of ``a`` may take the first
    remaining source of ``b`` that matches it: no choice made so needs
    undoing."""
    if a.ambient != b.ambient or a.target != b.target \
            or a.target_space != b.target_space \
            or len(a.sources) != len(b.sources):
        return False
    remaining = list(b.sources)
    for _, obj, fn in a.sources:
        for k, (_, obj2, fn2) in enumerate(remaining):
            if _fibered_iso_exists(obj, fn, obj2, fn2, a.ambient):
                del remaining[k]
                break
        else:
            return False
    return True


def _found_by_key(index, top, target, keys, build):
    """Whether a candidate sink over ``target`` whose sources have the keys
    ``keys`` is one of the declared coverings that ``index`` holds by target
    and sorted keys.  In the set ambient a hit decides; in the top ambient
    ``build()`` makes the candidate, and only on a hit, to compare it with
    the coverings under the key in declared order."""
    bucket = index.get((target, tuple(sorted(keys))))
    if not bucket:
        return False
    if not top:
        return True
    sink = build()
    return any(sinks_equivalent(sink, c) for c in bucket)


def covering_axioms_check(spec):
    """Checks the identity, composability, and base-change axioms on the
    declared fragment; every violation is named in the report.

    Each candidate sink (the sink of an isomorphism, each composite of
    declared coverings, each base change of one) is looked up among the
    declared coverings by its target and its sources' keys, computed from
    positions: a base change's count at ``v`` is the covering's count at
    ``fn(v)``, and a composite's count at ``t`` the sum of the inner counts
    over the outer fibre of ``t``."""
    top = spec.ambient == "top"
    coverings = spec.coverings
    keys = [[_fibre_counts(fn) for _, _, fn in cov.sources]
            for cov in coverings]
    index = {}
    for cov, ks in zip(coverings, keys):
        index.setdefault((cov.target, tuple(sorted(ks))), []).append(cov)
    violations = []
    for entry in spec.morphisms:
        fn, dom_space, cod_space = spec.morphism_parts(entry)
        if is_iso(fn, dom_space, cod_space) and not _found_by_key(
                index, top, fn.codomain, [_fibre_counts(fn)],
                lambda: Sink.from_valid(spec.ambient, fn.codomain,
                                        [("v", dom_space or fn.domain, fn)],
                                        target_space=cod_space)):
            violations.append(
                "isomorphism sink onto %r is not declared"
                % (list(fn.codomain.labels),))
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
        # the keys of the composites through each source, per inner covering
        size = len(cov.target)
        imgs = [_positions(fn) for _, _, fn in cov.sources]
        pushed = [{k: [_pushed_counts(counts, img, size) for counts in keys[k]]
                   for k in opts} for opts, img in zip(options, imgs)]
        for combo in iproduct(*options):
            composite = [key for part, k in zip(pushed, combo)
                         for key in part[k]]
            build = lambda: flatten_sinks(
                cov, dict(zip(names, map(coverings.__getitem__, combo))))
            if dotted:
                build()    # refuses composite names that collide
            if not _found_by_key(index, top, cov.target, composite, build):
                violations.append(
                    "composite of covering of %r is not declared"
                    % (list(cov.target.labels),))
    for cov, ks in zip(coverings, keys):
        for entry in spec.morphisms:
            fn, dom_space, cod_space = spec.morphism_parts(entry)
            if fn.codomain != cov.target:
                continue
            img = _positions(fn)
            changed = [tuple(map(counts.__getitem__, img)) for counts in ks]
            if not _found_by_key(
                    index, top, fn.domain, changed,
                    lambda: base_change_sink(cov, fn, v_space=dom_space)):
                violations.append(
                    "base change of a covering of %r along a map from %r "
                    "is not declared" % (list(cov.target.labels),
                                         list(fn.domain.labels)))
    return {"violations": violations, "ok": not violations}
