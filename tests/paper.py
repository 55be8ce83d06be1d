"""The paper's side constructions, which no command runs: the tests check
them against the engine.

* ``tag``, the coproduct label of an element of one component.
* The morphism algebra of an index category (``id_mor``, ``gen_mor``,
  ``compose``, ``incl``, ``tau``), pair sorting maps and the three
  translation functors between the split and the nonsplit index categories
  (``sorting_functors``), the functor induced by a map of index sets
  (``p2_of_map``), and functors between index categories stored on objects
  and generators (``IndexFunctor``).
* Reindexing gluing data along such a functor (``reindex``), and split
  colimit-side data restricted along a sorting map (``compose_with_sorting``).
* Identity and composite refinements, and composition of gluings over node
  functors with concrete overlap identifications (``compose_gluings``).
* The direct image of a presheaf along a continuous map, and the canonical
  gluing datum of a presheaf and a cover (``canonical_presheaf_functor``).
"""

from itertools import combinations

from glueforge.errors import StructuralError
from glueforge.fincat import SEP, FinFn, FinSet, quotient_by_pairs
from glueforge.gluing import (
    FROM_OVERLAPS,
    GluedObject,
    _require_valid,
)
from glueforge.indexcat import NONSPLIT, SPLIT, IndexCat
from glueforge.presheaf import GluingDatum, OpenLattice, PresheafStore, restrict
from glueforge.refine import Refinement

from fixtures import (
    colimit_relation_pairs,
    data_from_fns,
    identity_fn,
    preimage,
)


def tag(component, label):
    """Canonical coproduct label for element ``label`` of component ``component``."""
    return component + SEP + label


class SortingMap:
    """A choice of one ordered pair per unordered pair of the index set."""

    __slots__ = ("index", "choice")

    def __init__(self, index, choice):
        choice = {frozenset(k): tuple(v) for k, v in choice.items()}
        for i, j in combinations(index.labels, 2):
            key = frozenset((i, j))
            if key not in choice:
                raise StructuralError("sorting map misses the pair {%s, %s}" % (i, j))
            if set(choice[key]) != key or len(choice[key]) != 2:
                raise StructuralError("sorting value %r does not order {%s, %s}"
                                      % (choice[key], i, j))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "choice", choice)

    def __setattr__(self, name, value):
        raise AttributeError("SortingMap is immutable")

    @staticmethod
    def positional(index):
        """The sorting map picking index order on every pair."""
        return SortingMap(index, {frozenset((i, j)): (i, j)
                                  for i, j in combinations(index.labels, 2)})

    def sort(self, pair):
        pair = frozenset(pair)
        if len(pair) == 1:
            (i,) = pair
            return (i,)
        return self.choice[pair]


# The morphism algebra of an index category: a morphism is ``(src, dst,
# word)``, ``word`` a tuple of generator keys applied left to right, in
# the normal form that cancels adjacent inverse swaps, which encodes the
# law ``tau[j,i] . tau[i,j] = id`` (including ``i = j``, where the swap is
# an involution that need not be the identity); the empty word is the
# identity.


def normalize(word):
    word = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a[0] == "tau" and b[0] == "tau" and b[1] == (a[1][1], a[1][0]):
                del word[k:k + 2]
                changed = True
                break
    return tuple(word)


def id_mor(cat, obj):
    if obj not in cat.objects:
        raise StructuralError("no object %r" % (obj,))
    return (obj, obj, ())


def gen_mor(cat, key):
    if key not in cat.ends:
        raise StructuralError("no generator %r in this category" % (key,))
    src, dst = cat.ends[key]
    return (src, dst, (key,))


def compose(m2, m1):
    """The composite m2 . m1 in normal form."""
    if m1[1] != m2[0]:
        raise StructuralError("morphisms are not composable: %r then %r"
                              % (m1, m2))
    return (m1[0], m2[1], normalize(m1[2] + m2[2]))


def incl(cat, i, j):
    """The inclusion morphism of singleton i into the pair holding i, j."""
    return gen_mor(cat, ("incl", i, cat.pair(i, j)))


def tau(cat, i, j):
    if cat.mode != SPLIT:
        raise StructuralError("tau exists only in split mode")
    return gen_mor(cat, ("tau", (i, j)))


def composable_generator_pairs(cat):
    """All pairs (g1, g2) of generators with g1 target = g2 source."""
    out = []
    for g1, (_, mid) in cat.ends.items():
        for g2, (src2, _) in cat.ends.items():
            if src2 == mid:
                out.append((g1, g2))
    return out


class IndexFunctor:
    """A functor between index categories, stored on objects and generators."""

    __slots__ = ("source", "target", "object_map", "morphism_map")

    def __init__(self, source, target, object_map, morphism_map):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "object_map", dict(object_map))
        object.__setattr__(self, "morphism_map", dict(morphism_map))

    def __setattr__(self, name, value):
        raise AttributeError("IndexFunctor is immutable")

    def apply_obj(self, obj):
        try:
            return self.object_map[obj]
        except KeyError:
            raise StructuralError("object %r not mapped" % (obj,))

    def apply_mor(self, mor):
        src, dst, word = mor
        out = id_mor(self.target, self.apply_obj(src))
        for key in word:
            out = compose(self.morphism_map[key], out)
        expect = self.apply_obj(dst)
        if out[1] != expect:
            raise StructuralError(
                "functor image of %r ends at %r, expected %r" % (mor, out[1], expect))
        return out

    def then(self, other):
        if other.source is not self.target and other.source != self.target:
            raise StructuralError("functors are not composable")
        objs = {a: other.apply_obj(b) for a, b in self.object_map.items()}
        mors = {g: other.apply_mor(m) for g, m in self.morphism_map.items()}
        return IndexFunctor(self.source, other.target, objs, mors)

    def validate(self):
        """All functor-law violations, checked exhaustively on generators."""
        problems = []
        for obj in self.source.objects:
            if obj not in self.object_map:
                problems.append("object %r not mapped" % (obj,))
            elif self.object_map[obj] not in self.target.objects:
                problems.append("object %r mapped outside the target" % (obj,))
        for g in self.source.generators:
            if g not in self.morphism_map:
                problems.append("generator %r not mapped" % (g,))
                continue
            src, dst = self.source.ends[g]
            img = self.morphism_map[g]
            if img[0] != self.object_map.get(src) or img[1] != self.object_map.get(dst):
                problems.append("generator %r image has wrong endpoints" % (g,))
        if problems:
            return problems
        for g1, g2 in composable_generator_pairs(self.source):
            lhs = self.apply_mor(compose(
                gen_mor(self.source, g2), gen_mor(self.source, g1)))
            rhs = compose(self.morphism_map[g2], self.morphism_map[g1])
            if lhs != rhs:
                problems.append("composition %r after %r not preserved" % (g2, g1))
        return problems

    def equals_on_generators(self, other):
        if self.source.objects != other.source.objects:
            return False
        if any(self.apply_obj(a) != other.apply_obj(a) for a in self.source.objects):
            return False
        return all(self.apply_mor(gen_mor(self.source, g))
                   == other.apply_mor(gen_mor(other.source, g))
                   for g in self.source.generators)


def identity_functor(cat):
    return IndexFunctor(cat, cat,
                        {a: a for a in cat.objects},
                        {g: gen_mor(cat, g) for g in cat.generators})


def coproduct_index(index):
    """The index set I + I, with elements tagged by their copy (1 or 2)."""
    return FinSet([tag(copy, i) for copy in ("1", "2") for i in index])


def _split_copair(copy_i, i, j, scat):
    # inclusion image rules for a mixed pair whose sorting-first element is i
    if copy_i == "1":
        return {
            "first": incl(scat, i, j),
            "second": compose(tau(scat, j, i), incl(scat, j, i)),
        }
    return {
        "first": compose(tau(scat, i, j), incl(scat, i, j)),
        "second": incl(scat, j, i),
    }


def sorting_functors(index, sorting):
    """The translation functors attached to a pair sorting map.

    Returns a dict with the pair-sorting embedding ``A_c`` from the nonsplit
    category into the split one, its left inverse ``B_I``, and the doubled
    variant ``A'_c`` defined on the nonsplit category of I + I.
    """
    pcat = IndexCat(NONSPLIT, index)
    scat = IndexCat(SPLIT, index)

    a_obj = {}
    a_mor = {}
    for obj in pcat.objects:
        a_obj[obj] = sorting.sort(obj)
    for g in pcat.generators:
        _, i, pair = g
        si, sj = sorting.sort(pair)
        if i == si:
            a_mor[g] = incl(scat, si, sj)
        else:
            a_mor[g] = compose(tau(scat, sj, si), incl(scat, sj, si))
    a_c = IndexFunctor(pcat, scat, a_obj, a_mor)

    b_obj = {}
    b_mor = {}
    for obj in scat.objects:
        if len(obj) == 1:
            b_obj[obj] = obj
        else:
            i, j = obj
            b_obj[obj] = (i,) if i == j else pcat.pair(i, j)
    for g in scat.generators:
        if g[0] == "tau":
            b_mor[g] = id_mor(pcat, b_obj[g[1]])
        else:
            _, i, pair = g
            if pair[0] == pair[1]:
                b_mor[g] = id_mor(pcat, (i,))
            else:
                b_mor[g] = incl(pcat, i,
                                pair[1] if pair[0] == i else pair[0])
    b_i = IndexFunctor(scat, pcat, b_obj, b_mor)

    dcat = IndexCat(NONSPLIT, coproduct_index(index))
    ap_obj = {}
    ap_mor = {}
    for obj in dcat.objects:
        if len(obj) == 1:
            copy, i = obj[0].split("|", 1)
            ap_obj[obj] = (i,)
        else:
            (ca, a), (cb, b) = (x.split("|", 1) for x in obj)
            if a == b:
                ap_obj[obj] = (a, a)
            else:
                si, sj = sorting.sort((a, b))
                copy_first = ca if a == si else cb
                ap_obj[obj] = (si, sj) if copy_first == "1" else (sj, si)
    for g in dcat.generators:
        _, x, pair = g
        copy_x, i = x.split("|", 1)
        other = pair[1] if pair[0] == x else pair[0]
        copy_o, j = other.split("|", 1)
        if i == j:
            base = incl(scat, i, i)
            ap_mor[g] = base if copy_x == "1" \
                else compose(tau(scat, i, i), base)
        else:
            si, sj = sorting.sort((i, j))
            if i == si:
                ap_mor[g] = _split_copair(copy_x, si, sj, scat)["first"]
            else:
                ap_mor[g] = _split_copair(copy_o, si, sj, scat)["second"]
    a_prime = IndexFunctor(dcat, scat, ap_obj, ap_mor)

    for name, fun in (("A_c", a_c), ("B_I", b_i), ("A_prime_c", a_prime)):
        problems = fun.validate()
        if problems:
            raise StructuralError("functor %s violates laws: %s" % (name, problems))
    return {"A_c": a_c, "B_I": b_i, "A_prime_c": a_prime}


def p2_of_map(gamma):
    """The functor between nonsplit index categories induced by a map of
    index sets; a collapsed pair goes to the singleton of its common image."""
    if not isinstance(gamma, FinFn):
        raise StructuralError("gamma must be a FinFn between index sets")
    src = IndexCat(NONSPLIT, gamma.domain)
    dst = IndexCat(NONSPLIT, gamma.codomain)
    objs = {}
    mors = {}
    for obj in src.objects:
        if len(obj) == 1:
            objs[obj] = (gamma(obj[0]),)
        else:
            gi, gj = gamma(obj[0]), gamma(obj[1])
            objs[obj] = (gi,) if gi == gj else dst.pair(gi, gj)
    for g in src.generators:
        _, i, pair = g
        j = pair[1] if pair[0] == i else pair[0]
        gi, gj = gamma(i), gamma(j)
        mors[g] = id_mor(dst, (gi,)) if gi == gj else incl(dst, gi, gj)
    return IndexFunctor(src, dst, objs, mors)


def reindex(data, fun):
    """Compose gluing data with a functor into its index category.

    ``fun`` maps some index category into ``data.indexcat``; the result is
    the gluing data of the composite diagram, with each generating arrow
    evaluated by chaining the stored ambient maps of the image word.
    """
    if fun.target != data.indexcat:
        raise StructuralError("functor does not land in the data's index "
                              "category")
    objects = {}
    spaces = {} if data.ambient == "top" else None
    for obj in fun.source.objects:
        image = fun.apply_obj(obj)
        objects[obj] = data.carrier(image)
        if spaces is not None:
            spaces[obj] = data.space(image)
    arrows = {}
    for g in fun.source.generators:
        _, _, word = fun.apply_mor(gen_mor(fun.source, g))
        fns = [data.fn(key) for key in word]
        src, dst = fun.source.ends[g]
        if data.direction == FROM_OVERLAPS:
            out = identity_fn(objects[dst])
            for fn in reversed(fns):
                out = out.then(fn)
        else:
            out = identity_fn(objects[src])
            for fn in fns:
                out = out.then(fn)
        arrows[g] = out
    return data_from_fns(fun.source, data.ambient, objects, arrows,
                         data.direction, spaces)


def compose_with_sorting(data, sorting):
    """Restrict split colimit-side data to the nonsplit category along a
    pair sorting map; cones correspond one to one when the diagonal carries
    identity structure."""
    if data.indexcat.mode != SPLIT:
        raise StructuralError("sorting composition starts from split data")
    _require_valid(data, FROM_OVERLAPS)
    funs = sorting_functors(data.indexcat.index, sorting)
    return reindex(data, funs["A_c"])


def identity_refinement(data):
    """The refinement of gluing data by itself along the identity of its
    index, with identity components, as tables."""
    comps = {obj: list(range(len(data.carrier(obj))))
             for obj in data.indexcat.objects}
    return Refinement(data, data, list(range(len(data.indexcat.index))),
                      comps)


def compose_refinements(outer, inner):
    """The composite refinement applying ``inner`` first, then ``outer``;
    gammas compose the other way around, and each component is the inner
    one at the reindexed object followed by the outer one."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise StructuralError("refinements are not composable")
    gamma = list(map(inner.gamma.__getitem__, outer.gamma))
    comps = {}
    for obj in outer.target.indexcat.objects:
        mid = outer.reindexed(obj)
        comps[obj] = list(map(outer.components[obj].__getitem__,
                              inner.components[mid]))
    return Refinement(inner.source, outer.target, gamma, comps)


class MetaGluingData:
    """A family of colimit-side node functors with concrete overlap data:
    lists of identifications between elements of node components."""

    __slots__ = ("index", "nodes", "overlaps")

    def __init__(self, index, nodes, overlaps):
        index = list(index)
        nodes = dict(nodes)
        overlaps = {k: list(v) for k, v in overlaps.items()}
        for i in index:
            if i not in nodes:
                raise StructuralError("no node functor for %r" % i)
        for (i, j), idents in overlaps.items():
            if i not in nodes or j not in nodes:
                raise StructuralError("overlap (%r, %r) mentions unknown nodes"
                                      % (i, j))
            for (a, x), (b, y) in idents:
                if x not in nodes[i].carrier(a):
                    raise StructuralError(
                        "overlap entry %r is not in node %r component %r"
                        % (x, i, a))
                if y not in nodes[j].carrier(b):
                    raise StructuralError(
                        "overlap entry %r is not in node %r component %r"
                        % (y, j, b))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "overlaps", overlaps)

    def __setattr__(self, name, value):
        raise AttributeError("MetaGluingData is immutable")

    def validate(self):
        return ["node %r is not colimit-side data" % i for i in self.index
                if self.nodes[i].direction != FROM_OVERLAPS]


def _meta_tag(node, comp, x):
    return tag(node, tag(SEP.join(comp), x))


def compose_gluings(meta):
    """Glue the flattened diagram of all node components at once.

    Its classes are those of the two-stage gluing (each node first, then the
    node apexes along the overlap identifications), since both quotient the
    same coproduct by the same identifications; the tests compare the two.
    """
    problems = meta.validate()
    if problems:
        raise StructuralError("invalid meta gluing data: " + "; ".join(problems))
    elements = []
    for i in meta.index:
        node = meta.nodes[i]
        for comp_obj in node.indexcat.singletons():
            for x in node.carrier(comp_obj):
                elements.append(_meta_tag(i, comp_obj, x))
    coproduct = FinSet(elements)
    pairs = []
    for i in meta.index:
        node = meta.nodes[i]
        for a, b in colimit_relation_pairs(node):
            ai, ax = a.split(SEP, 1)
            bi, bx = b.split(SEP, 1)
            pairs.append((_meta_tag(i, (ai,), ax), _meta_tag(i, (bi,), bx)))
    for (i, j), idents in meta.overlaps.items():
        for (a, x), (b, y) in idents:
            pairs.append((_meta_tag(i, a, x), _meta_tag(j, b, y)))
    apex, at_class, _ = quotient_by_pairs(
        coproduct.labels,
        [(coproduct.position(a), coproduct.position(b)) for a, b in pairs])
    legs = {}
    for i in meta.index:
        node = meta.nodes[i]
        for comp_obj in node.indexcat.singletons():
            carrier = node.carrier(comp_obj)
            legs[(i, comp_obj)] = FinFn(
                carrier, apex,
                {x: apex.labels[at_class[coproduct.position(
                    _meta_tag(i, comp_obj, x))]] for x in carrier})
    return GluedObject("colimit", apex, None, legs, {},
                       {"coproduct": coproduct.labels})


def direct_image(topmap, store):
    """Transport a presheaf forward: sections over an open are the sections
    over its preimage."""
    if store.lattice.space != topmap.dom:
        raise StructuralError("presheaf does not live on the map source")
    lat = OpenLattice(topmap.cod)
    pre = {o: topmap.dom.mask(preimage(topmap.fn, topmap.cod.points(o)))
           for o in lat.opens}
    sections = {o: store.sections[pre[o]] for o in lat.opens}
    res = {(w, v): store.res[(pre[w], pre[v])] for w, v in lat.pairs_below()}
    return PresheafStore(lat, sections, res)


def canonical_presheaf_functor(store, charts):
    """The gluing datum of a presheaf and a cover: locals are the chart
    restrictions, transitions are identities on the shared overlap sections.
    The charts are given by the labels of their points."""
    space = store.lattice.space
    charts = [(name, space.mask(m)) for name, m in charts]
    locals_ = {name: restrict(store, members) for name, members in charts}
    transitions = {}
    for a, am in charts:
        for b, bm in charts:
            transitions[(a, b)] = {
                o: list(range(len(store.sections[o])))
                for o in OpenLattice(space, am & bm).opens}
    return GluingDatum(space, charts, locals_, transitions)
