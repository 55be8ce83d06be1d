"""Gluing functors over (split) truncated power-set categories and their
glued-up objects.

A ``GluingData`` stores a functor into the ambient category on objects and
generating arrows.  Each arrow is a position table: the list that gives
each point of its domain carrier, in carrier order, the position of its
image in the codomain carrier (the dictionary encoding of a map: its labels
become positions and the kernels run on those).  The orientation is fixed
by ``direction``:

* ``from-overlaps`` (colimit side, the functor lands in the opposite
  category): the arrow stored for a generator ``a -> b`` is the ambient map
  ``G(b) -> G(a)``, e.g. an overlap ``G(i,j)`` maps down into its component
  ``G(i)``.  The glued-up object is the quotient of the disjoint union of the
  components by the congruence closure of the overlap identifications.

* ``toward-overlaps`` (limit side): the arrow for ``a -> b`` is the ambient
  map ``G(a) -> G(b)``.  The glued-up object is the set of compatible
  families inside the product of the components.

The constructor takes the tables, as the document parser reads them,
and checks each against the carriers of its endpoints, so a library
caller's tables are checked as a document's are.  Tables the engine
builds (the identities of split defaults, inverses, composites) come from
the table kernels of ``fincat``.  The legs of a glued object are tables too:
a colimit leg gives each point the position of its class in the apex, a
limit leg each family its coordinate.  Label-to-label maps serve only
``mediating_map``, the tracer and the tests: ``GluingData.fn`` builds the
``FinFn`` view of an arrow at each call and keeps nothing, and
``mediating_map`` checks cones of them.

In the topological ambient the colimit apex carries the final topology over
its legs and the limit apex the initial topology; openness of legs is
computed, never assumed.
"""

import sys
from collections import Counter
from math import prod
from operator import getitem

from .errors import ResourceError, StructuralError, charge
from .fincat import (
    SEP,
    FinFn,
    FinSet,
    TopMap,
    check_continuous,
    class_count,
    commutes,
    compatible_tuples,
    compose,
    identity,
    induce_topology,
    is_continuous,
    is_effective_after_base_change,
    is_iso,
    quotient_by_pairs,
    table_properties,
    trusted_table,
)
from .indexcat import NONSPLIT, SPLIT, gen_endpoints

FROM_OVERLAPS = "from-overlaps"
TOWARD_OVERLAPS = "toward-overlaps"


class GluingData:
    """A functor from an index category into finite sets or finite spaces,
    its arrows stored as position tables, checked once, on construction;
    the operations trust it."""

    __slots__ = ("indexcat", "ambient", "objects", "arrows", "direction", "spaces",
                 "_overlaps")

    def __init__(self, indexcat, ambient, objects, tables, direction,
                 spaces=None):
        """The data whose arrows are the position tables ``tables`` gives
        the generators, each read against the carriers
        ``expected_endpoints`` names; what ``validate_gluing_data`` finds
        is refused."""
        if ambient not in ("sets", "top"):
            raise StructuralError("ambient must be 'sets' or 'top'")
        if direction not in (FROM_OVERLAPS, TOWARD_OVERLAPS):
            raise StructuralError("direction must be %r or %r"
                                  % (FROM_OVERLAPS, TOWARD_OVERLAPS))
        objects = dict(objects)
        tables = dict(tables)
        spaces = dict(spaces) if spaces else {}
        if indexcat.mode == SPLIT:
            self._fill_split_defaults(indexcat, objects, tables, spaces)
        object.__setattr__(self, "indexcat", indexcat)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", tables)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "spaces", spaces)
        problems = validate_gluing_data(self)
        if problems:
            raise StructuralError("invalid gluing data: "
                                  + "; ".join(problems))

    def __setattr__(self, name, value):
        raise AttributeError("GluingData is immutable")

    @staticmethod
    def _fill_split_defaults(cat, objects, tables, spaces):
        # classical split data: a missing diagonal object is the component
        # itself with identity structure, and tau on the diagonal defaults to
        # the identity involution
        for i in cat.index:
            diag = (i, i)
            if diag not in objects:
                if (i,) not in objects:
                    continue
                objects[diag] = objects[(i,)]
                if (i,) in spaces:
                    spaces[diag] = spaces[(i,)]
                tables.setdefault(("incl", i, diag),
                                  identity(len(objects[(i,)])))
            tables.setdefault(("tau", diag), identity(len(objects[diag])))

    def carrier(self, obj):
        try:
            return self.objects[obj]
        except KeyError:
            raise StructuralError("no carrier assigned to index object %r" % (obj,))

    def space(self, obj):
        if self.ambient != "top":
            raise StructuralError("spaces exist only in the top ambient")
        try:
            return self.spaces[obj]
        except KeyError:
            raise StructuralError("no space assigned to index object %r" % (obj,))

    def arrow(self, key):
        """The table stored for the generator ``key``."""
        try:
            return self.arrows[key]
        except KeyError:
            raise StructuralError("no arrow assigned to generator %r" % (key,))

    def edge(self, i, pair):
        """The table stored between component i and the overlap ``pair``."""
        return self.arrow(("incl", i, pair))

    def tau_from(self, pair):
        """The table attached to the swap generator with source ``pair``."""
        return self.arrow(("tau", pair))

    def fn(self, key):
        """The ``FinFn`` view of the arrow stored for ``key``, built at each
        call and not kept."""
        table = self.arrow(key)
        dom, cod = self.expected_endpoints(key)
        return FinFn.from_total(dom, cod, dict(zip(
            dom.labels, map(cod.labels.__getitem__, table))))

    def arrow_objects(self, key):
        """The index objects the arrow stored for ``key`` runs between."""
        src, dst = gen_endpoints(key)
        return (dst, src) if self.direction == FROM_OVERLAPS else (src, dst)

    def expected_endpoints(self, key):
        src, dst = self.arrow_objects(key)
        return self.carrier(src), self.carrier(dst)


def _object_problems(data):
    """Every index object with no carrier or, in the top ambient, with no
    topology on its carrier, as strings."""
    problems = []
    for obj in data.indexcat.objects:
        if obj not in data.objects:
            problems.append("index object %r has no carrier" % (obj,))
        elif data.ambient == "top":
            if obj not in data.spaces:
                problems.append("index object %r has no topology" % (obj,))
            elif data.spaces[obj].carrier != data.objects[obj]:
                problems.append("topology of %r disagrees with its carrier" % (obj,))
    return problems


def validate_gluing_data(data):
    """Every missing carrier, topology or arrow, every table that does
    not run between the carriers of its endpoints, and every violated
    continuity or involution law, as strings.  A table runs between them
    when it has one entry per domain point, each a codomain position,
    which costs one ``len``, ``min`` and ``max`` per arrow; continuity is
    checked on the rows of the two spaces, with the table as the image,
    and the swaps of a pair are mutually inverse when their composite
    table is the identity's."""
    problems = _object_problems(data)
    if problems:
        return problems
    cat = data.indexcat
    arrows = data.arrows
    problems = ["generator %r has no arrow" % (g,)
                for g in cat.generators if g not in arrows]
    if problems:
        return problems
    objects = data.objects
    ends = [(g, arrows[g], *data.arrow_objects(g)) for g in cat.generators]
    for g, t, src, dst in ends:
        dom, cod = len(objects[src]), len(objects[dst])
        try:
            fits = len(t) == dom and (not t or min(t) >= 0 and max(t) < cod)
        except TypeError:    # no list of ints, such as a FinFn
            fits = False
        if not fits:
            problems.append("arrow for %r is not a table of %d positions "
                            "below %d" % (g, dom, cod))
    if problems:
        return problems
    if data.ambient == "top":
        spaces = data.spaces
        for g, t, src, dst in ends:
            if not is_continuous(t, spaces[src], spaces[dst]):
                problems.append("arrow for %r is not continuous" % (g,))
    if cat.mode == SPLIT:
        for i, j in cat.pairs():
            t1 = arrows[("tau", (i, j))]
            t2 = arrows[("tau", (j, i))]
            # each way round, a map from G(i,j) back to it
            first, then = (t2, t1) if data.direction == FROM_OVERLAPS \
                else (t1, t2)
            if compose(first, then) != identity(len(objects[(i, j)])):
                problems.append("involution violated: tau%r then tau%r is not "
                                "the identity" % ((i, j), (j, i)))
    return problems


def _require_valid(data, direction):
    if data.direction != direction:
        raise StructuralError("operation needs %s data, got %s"
                              % (direction, data.direction))


class GluedObject:
    """A computed (co)limit apex with its legs and construction witnesses.
    Each leg, by index object, is a position table: into the apex on the
    colimit side, out of it on the limit side."""

    __slots__ = ("side", "apex", "space", "legs", "leg_props", "witness")

    def __init__(self, side, apex, space, legs, leg_props, witness):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "legs", dict(legs))
        object.__setattr__(self, "leg_props", dict(leg_props))
        object.__setattr__(self, "witness", dict(witness))

    def __setattr__(self, name, value):
        raise AttributeError("GluedObject is immutable")


class ConeCandidate:
    """An apex with legs to or from the index objects; ``mediating_map``
    checks that it is a cone."""

    __slots__ = ("apex", "space", "legs")

    def __init__(self, apex, legs, space=None):
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "legs", dict(legs))

    def __setattr__(self, name, value):
        raise AttributeError("ConeCandidate is immutable")


def _overlap_maps(data):
    """Per overlap (i, j) of colimit-side data: its carrier and the tables
    of its maps into components i and j.  Built at first use and kept on
    the data, so callers do not change it."""
    kept = getattr(data, "_overlaps", None)    # unset until first asked
    if kept is not None:
        return kept
    cat = data.indexcat
    out = []
    for pair_obj in cat.pairs():
        i, j = pair_obj
        overlap = data.carrier(pair_obj)
        if cat.mode == NONSPLIT:
            into_j = data.edge(j, pair_obj)
        else:
            # the ambient map G(i,j) -> G(j,i), then G(j,i) into G(j)
            into_j = compose(data.tau_from((j, i)), data.edge(j, (j, i)))
        out.append((i, j, overlap, data.edge(i, pair_obj), into_j))
    object.__setattr__(data, "_overlaps", tuple(out))
    return data._overlaps


def _position_pairs(data, offsets):
    """The generating identifications as pairs of coproduct positions: for
    each point of an overlap (i, j), the position of its image in component
    i after that component's offset, and likewise in component j."""
    pairs = []
    for i, j, _, e_i, into_j in _overlap_maps(data):
        a, b = offsets[i], offsets[j]
        pairs += [(a + x, b + y) for x, y in zip(e_i, into_j)]
    return pairs


def _offsets(data):
    """Each component's offset in the coproduct, and the coproduct's
    size."""
    offsets, size = {}, 0
    for obj in data.indexcat.singletons():
        offsets[obj[0]] = size
        size += len(data.carrier(obj))
    return offsets, size


def _coproduct(comps, carriers):
    """The tagged labels ``i|x`` of the disjoint union and each component's
    offset; checked distinct only if an index label holds the separator."""
    labels = []
    offsets = {}
    for i, carrier in zip(comps, carriers):
        offsets[i] = len(labels)
        tag = i + SEP
        labels += [tag + x for x in carrier.labels]
    labels = tuple(labels)
    if any(SEP in i for i in comps):
        FinSet.from_distinct(labels)    # raises naming a repeated label
    return labels, offsets


def colimit_glue(data):
    """The standard colimit-side representative: disjoint union of the
    components modulo the congruence closure of the overlap identifications.

    The coproduct is the list of tagged labels ``i|x``, component after
    component; the partition is built once, by ``quotient_by_pairs`` on
    pairs of positions in it, each the component's offset plus an entry of
    an overlap's table, so no label is looked up.  The witness keeps the
    tagged labels, as a tuple (``witness["coproduct"]``), and the classes
    of two or more members (``witness["merged"]``): each class name, in
    apex order, with its members in coproduct order.  Every other apex
    label is a class of one coproduct label, itself.  Each component leg
    is the slice of the quotient's table at its component's offset, and
    each overlap leg that leg read through the edge's table.  In the top
    ambient the apex carries the final topology over the component legs.
    """
    _require_valid(data, FROM_OVERLAPS)
    cat = data.indexcat
    comps = [obj[0] for obj in cat.singletons()]
    carriers = [data.carrier((i,)) for i in comps]
    labels, offsets = _coproduct(comps, carriers)
    apex, table, merged = quotient_by_pairs(labels,
                                            _position_pairs(data, offsets))
    legs = {}
    for i, carrier in zip(comps, carriers):
        k = offsets[i]
        legs[(i,)] = table[k:k + len(carrier)]
    for pair_obj in cat.pairs():
        into = legs[pair_obj[:1]]
        legs[pair_obj] = [into[x] for x in data.edge(pair_obj[0], pair_obj)]
    space = None
    leg_props = {}
    if data.ambient == "top":
        space = induce_topology(
            "final", apex,
            [legs[(i,)] for i in comps], [data.space((i,)) for i in comps])
        for obj in legs:
            leg_props[obj] = table_properties(legs[obj], data.space(obj),
                                              space)
    return GluedObject("colimit", apex, space, legs, leg_props,
                       {"coproduct": labels, "merged": merged})


def _limit_constraints(data):
    """Per pair (i, j) of limit-side data: the tables from components i
    and j into the overlap on which a compatible family's two values
    agree."""
    cat = data.indexcat
    cons = []
    if cat.mode == NONSPLIT:
        for pair_obj in cat.pairs():
            i, j = pair_obj
            cons.append((i, j, data.edge(i, pair_obj), data.edge(j, pair_obj)))
    else:
        for pair_obj in cat.pairs():
            i, j = pair_obj
            # G(i) into G(i,j), then the swap to G(j,i)
            into_ji = compose(data.edge(i, pair_obj), data.tau_from(pair_obj))
            cons.append((i, j, into_ji, data.edge(j, (j, i))))
    return cons


def limit_glue(data):
    """The standard limit-side representative: compatible families in the
    product of the components, with coordinate projections as legs.  The
    join runs on carrier positions with the tables as keys; each family's
    label joins the labels at its positions, and a component leg gives
    each family its coordinate there."""
    _require_valid(data, TOWARD_OVERLAPS)
    cat = data.indexcat
    comps = [obj[0] for obj in cat.singletons()]
    carriers = [data.carrier((i,)) for i in comps]
    charge("limit over %d components" % len(comps), prod(map(len, carriers)))
    pos = {i: k for k, i in enumerate(comps)}
    members = compatible_tuples(
        [range(len(c)) for c in carriers],
        [(pos[i], pos[j], f, g) for i, j, f, g in _limit_constraints(data)],
        "limit families")
    at = [c.labels for c in carriers]
    apex = FinSet.from_distinct([SEP.join(map(getitem, at, m))
                                 for m in members])
    legs = {}
    for k, i in enumerate(comps):
        legs[(i,)] = [m[k] for m in members]
    for pair_obj in cat.pairs():
        edge = data.edge(pair_obj[0], pair_obj)
        legs[pair_obj] = [edge[x] for x in legs[pair_obj[:1]]]
    space = None
    leg_props = {}
    if data.ambient == "top":
        space = induce_topology(
            "initial", apex,
            [legs[(i,)] for i in comps], [data.space((i,)) for i in comps])
        for obj in legs:
            leg_props[obj] = table_properties(legs[obj], space,
                                              data.space(obj))
    return GluedObject("limit", apex, space, legs, leg_props, {})


def _check_cone(data, cone, side):
    """Raise naming the violated square unless the candidate is a cone."""
    cat = data.indexcat
    for obj in cat.objects:
        if obj not in cone.legs:
            raise StructuralError("cone has no leg at %r" % (obj,))
    for g in cat.generators:
        src, dst = gen_endpoints(g)
        fn = data.fn(g)
        path = (fn, cone.legs[src]) if data.direction == FROM_OVERLAPS \
            else (cone.legs[src], fn)
        if not commutes(path, (cone.legs[dst],)):
            raise StructuralError(
                "cone square for generator %r does not commute" % (g,))
    if data.ambient == "top" and cone.space is not None:
        for obj, leg in cone.legs.items():
            if side == "colimit":
                TopMap(leg, data.space(obj), cone.space)
            else:
                TopMap(leg, cone.space, data.space(obj))


def mediating_map(data, glued, cone):
    """The unique factoring map between a glued-up object and a cone.

    Colimit side: the map from the apex to the cone apex determined by the
    component legs, well defined by the congruence.  Limit side: the map from
    the cone apex into the compatible families.  The returned flag states
    whether the cone is isomorphic to the glued-up object (bijective factoring
    map; homeomorphism in the top ambient).  The candidate is checked first.
    """
    _check_cone(data, cone, glued.side)
    comps = [obj[0] for obj in data.indexcat.singletons()]
    if glued.side == "colimit":
        mapping = {}
        names = glued.apex.labels
        for i in comps:
            cleg = cone.legs[(i,)]
            for x, r in zip(data.carrier((i,)).labels, glued.legs[(i,)]):
                q = names[r]
                val = cleg(x)
                if mapping.setdefault(q, val) != val:
                    raise StructuralError(
                        "cone legs are not constant on the class %r" % q)
        med = FinFn(glued.apex, cone.apex, mapping)
        return med, is_iso(med, glued.space, cone.space)
    mapping = {}
    for z in cone.apex:
        combo = [cone.legs[(i,)](z) for i in comps]
        label = SEP.join(combo)
        if label not in glued.apex:
            raise StructuralError(
                "cone leg values %r do not form a compatible family" % (combo,))
        mapping[z] = label
    med = FinFn(cone.apex, glued.apex, mapping)
    return med, is_iso(med, cone.space, glued.space)


def hom_transport(data, z):
    """Compatible families of maps into ``z`` versus maps out of the glued
    apex; certifies that restriction along the legs is a bijection.

    A family is one value of ``z`` per class of the data's own overlap
    identifications (Mac Lane, CWM III.3-4), so ``|z| ** classes`` counts
    them; nothing is listed or charged.  The classes are counted on
    coproduct positions by ``class_count``, with no label built, so the
    count does not rest on the glued object it certifies.  Restriction
    is injective when ``|z| <= 1`` or the legs reach every apex class,
    lands in the families when ``|z| <= 1`` or the legs form a cocone on
    every overlap, and is onto when ``|z| == 1``, when ``|z| >= 2`` and
    the legs hit as many classes as the data has (given the cocone, no leg
    merges two), and for an empty ``z`` when there is no family or the
    legs reach every class.  The cocone is read through the overlaps'
    tables, from each leg's table.
    """
    _require_valid(data, FROM_OVERLAPS)
    offsets, size = _offsets(data)
    classes = class_count(size, _position_pairs(data, offsets))
    family_count = _count_power("compatible families of maps", len(z), classes)
    glued = colimit_glue(data)
    at = {obj[0]: glued.legs[obj] for obj in data.indexcat.singletons()}
    hit = len(set().union(*at.values()))
    reaches_all = hit == len(glued.apex)
    small = len(z) <= 1
    lands = small or all(at[i][a] == at[j][b]
                         for i, j, _, e_i, into_j in _overlap_maps(data)
                         for a, b in zip(e_i, into_j))
    onto = hit == classes if not small else \
        len(z) == 1 or classes > 0 or reaches_all
    return {
        "glued": glued,
        "family_count": family_count,
        "hom_count": _count_power("maps out of the glued apex", len(z),
                                  len(glued.apex)),
        "bijection_verified": (small or reaches_all) and lands and onto,
    }


def _count_power(what, base, exp):
    """``base ** exp``, refused when ``int`` could not write it in decimal.
    As ``2 ** 3 < 10 < 2 ** 4``, bit lengths decide all but the counts near
    the limit, and the largest are refused before they are built."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if not limit:
        return base ** exp
    if exp * (base.bit_length() - 1) < 4 * limit:
        count = base ** exp
        if count.bit_length() <= 3 * limit or count < 10 ** limit:
            return count
    raise ResourceError(
        "%s number %d ** %d, more than the %d decimal digits a count can be "
        "written with" % (what, base, exp, limit))


def universal_glue_check(data, glued, delta, v_space=None):
    """Whether the colimit survives pulling the diagram back along the map
    into the apex whose table is ``delta``: the source of ``delta`` (with
    the space ``v_space`` in the top ambient, where ``delta`` must be
    continuous) is the glued-up object of the pulled-back diagram.

    That diagram glues to the joint image of the pulled-back components with
    the final topology (the overlaps only identify), so the verdict is that
    of ``is_effective_after_base_change`` on the component legs, with no
    pullback built.  In the set ambient it always holds; in the top ambient
    it fails where the source is coarser than the final topology.  Also
    reports the size of each component pullback: the sum, over the points
    of the source, of the size of the leg's fibre over their image.
    """
    _require_valid(data, FROM_OVERLAPS)
    comps = data.indexcat.singletons()
    legs = [glued.legs[obj] for obj in comps]
    spaces = ()
    if data.ambient == "top":
        if v_space is None:
            raise StructuralError("the top ambient needs a topology on the "
                                  "source of delta")
        check_continuous(trusted_table(delta, v_space.carrier, glued.apex),
                         v_space, glued.space)
        spaces = [data.space(obj) for obj in comps]
    else:
        v_space = None
    sizes = {}
    for obj, leg in zip(comps, legs):
        fibre = Counter(leg)
        sizes[obj] = sum(map(fibre.__getitem__, delta))
    return {
        "is_glued_up": is_effective_after_base_change(delta, legs, v_space,
                                                      spaces),
        "fiber_sizes": sizes,
    }
