"""Finite concrete-category kernel.

Carriers are finite sets of string labels; morphisms are total maps between
them.  Finite topological spaces are carriers with the minimal open
neighbourhood of each point, from which every topology is built by a direct
rule, and continuous maps between those, with their openness recorded.
A space is its specialization preorder (Stong 1966; Barmak 2011), stored as
one int mask per carrier position, and the topology kernels work on those
rows with bitwise operations, reading a map as the list of the positions of
its values.  An open is an int mask over carrier positions everywhere, the
presheaf layer included.  Labels return only at the boundary: the label
sets of ``opens``, the labels of a mask (``points``) and the mask of
labels (``mask``), the label lists of reports, and error texts.
Everything is immutable after construction and every operation is a pure
function, so shared values are safe to use concurrently.  A space keeps its
list of opens and the maximal proper opens of each once built, and through
``keep`` the other values made of it alone, such as the presheaf layer's
lattices; all are functions of the space, so a value kept by one caller is
the value any other would build.

The public constructors validate what they are given: ``FinSet`` that its
labels are strings, by one join, and distinct, ``FinFn`` that its mapping
is total into the codomain, ``FinTop`` that its opens are a topology,
``TopMap`` that its map is continuous.  Values the engine builds correct
by construction come from ``FinTop.from_nbhd`` and ``FinFn.from_total``,
which check nothing, ``FinSet.from_distinct``, which checks only that its
labels are distinct, and ``FinSet.from_trusted``, which checks nothing and
is used for the apex of a quotient, whose class names are distinct by
construction.  Every map
a command reads or builds (the arrows of gluing data, sinks, the legs of
glued objects, induced maps) is a position table, the list that gives each
domain position the codomain position of its image; parsers check each
entry of the tables they read, and the tables the engine builds come from
the table kernels below or from ``trusted_table``, which checks only
their length.  ``is_continuous``,
``check_continuous``, ``is_iso_table`` and ``table_properties`` read a
table between two spaces, and ``is_effective_after_base_change`` reads
the tables of a family of maps, whose effectiveness is the case of base
change along the ``identity``.
A set's label-to-position index is built at its first use (``position``,
``in``, a ``FinFn`` validated against the set, or a report writing a map
out of the set in label order); the two checking ``FinSet`` constructors
build it at once, as their distinctness check, so a quotient apex that no
caller looks into never builds one.

The algebra of tables is written here once, for every module: the
``identity`` and ``compose`` tables, ``invert`` for a bijection (as
``is_iso_table`` decides it), ``initial_rows``, and
``pullback_positions``, the pullback of two tables on positions.  The
label-to-label maps (``FinFn``, ``TopMap``, ``commutes``, ``is_iso`` and
``pullback``) serve only ``gluing.mediating_map``, the tracer and the
tests; no command builds one.

Limits and colimits of spaces are those of sets with the initial or final
topology added (the forgetful functor from spaces to sets is topological),
so there is one pullback, on positions: given the two domain spaces, each
member ``(a, b)`` gets the row ``U1[a] & U2[b]`` of the initial topology
along its coordinates (``initial_rows``), ``U1[a]`` being the members
whose first coordinate lies in the neighbourhood of ``a``.

Compatible families (pullbacks, limits, sections) come from one join
kernel, ``compatible_tuples``, whose cost follows the partial answers
instead of the full product.  Quotients come from one union-find,
``quotient_by_pairs``, which returns the table of the quotient map, the
position of the class of each of the carrier positions it is given pairs
of, so a caller that knows where its labels sit looks none of them up;
the table, the merged classes and their names come from one pass over the
positions the unions moved, so a label that no pair moves costs only bulk
passes.  ``class_count`` counts the classes of the same union-find and
names none.
Maps out of a quotient are one value per class: they are counted from its
classes, never listed.

Generated labels (pullback pairs, product tuples, coproduct tags, quotient
classes) are built with the reserved separator ``|``; document parsers reject
input labels containing it, which keeps generated names collision-free.
"""

from functools import reduce
from itertools import accumulate, chain, compress, count
from itertools import product as iproduct
from operator import and_, or_

from .errors import StructuralError, charge

SEP = "|"


def pair_label(a, b):
    return a + SEP + b


class FinSet:
    """An ordered finite set of pairwise-distinct string labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        """Check that ``labels`` are strings, by one join, which raises
        TypeError on any other member, and then that they are distinct."""
        labels = tuple(labels)
        try:
            "".join(labels)
        except TypeError:
            _refuse_labels(labels)
        pos = dict(zip(labels, range(len(labels))))
        if len(pos) != len(labels):
            _refuse_labels(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", pos)

    @classmethod
    def from_trusted(cls, labels):
        """The set of these labels, unchecked and with no index built:
        ``labels`` are strings, pairwise distinct by construction."""
        fs = object.__new__(cls)
        object.__setattr__(fs, "labels", tuple(labels))
        return fs

    @classmethod
    def from_distinct(cls, labels):
        """The set of these string labels, checked only for distinctness,
        which costs one comparison of sizes: generated names collide when a
        caller's labels hold the reserved separator."""
        labels = tuple(labels)
        pos = dict(zip(labels, range(len(labels))))
        if len(pos) != len(labels):
            _refuse_labels(labels)
        fs = object.__new__(cls)
        object.__setattr__(fs, "labels", labels)
        object.__setattr__(fs, "_index", pos)
        return fs

    @property
    def _pos(self):
        """The label -> position dict.  The checking constructors build it
        as their distinctness check; a set from ``from_trusted`` builds it
        here, at its first read."""
        try:
            return self._index
        except AttributeError:    # unset until first read
            pos = dict(zip(self.labels, range(len(self))))
            object.__setattr__(self, "_index", pos)
            return pos

    def __setattr__(self, name, value):
        raise AttributeError("FinSet is immutable")

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self._pos

    def position(self, label):
        try:
            return self._pos[label]
        except KeyError:
            raise StructuralError("label %r not in carrier %r" % (label, self.labels))

    def __eq__(self, other):
        return self is other or (isinstance(other, FinSet)
                                 and self.labels == other.labels)

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "FinSet(%r)" % (list(self.labels),)


def _refuse_labels(labels):
    """Raise naming the first label that is not a string or repeats one
    before it; the constructors call this only once their bulk check fails."""
    seen = set()
    for lab in labels:
        if not isinstance(lab, str):
            raise StructuralError("labels must be strings, got %r" % (lab,))
        if lab in seen:
            raise StructuralError("duplicate label %r" % lab)
        seen.add(lab)


class FinFn:
    """A total map between two finite sets, stored label to label."""

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain, codomain, mapping):
        if not isinstance(domain, FinSet) or not isinstance(codomain, FinSet):
            raise StructuralError("FinFn endpoints must be FinSet")
        mapping = dict(mapping)
        try:
            total = mapping.keys() == domain._pos.keys() and \
                all(map(codomain._pos.__contains__, mapping.values()))
        except TypeError:    # an unhashable value, worded in domain order
            total = False
        if not total:
            _refuse_mapping(domain, codomain, mapping)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def from_total(cls, domain, codomain, mapping):
        """The map with this mapping, unchecked and not copied: ``mapping`` is
        a dict no one else holds, giving each domain label, and no other, a
        codomain label."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "domain", domain)
        object.__setattr__(fn, "codomain", codomain)
        object.__setattr__(fn, "mapping", mapping)
        return fn

    def __setattr__(self, name, value):
        raise AttributeError("FinFn is immutable")

    def __call__(self, label):
        try:
            return self.mapping[label]
        except KeyError:
            raise StructuralError("label %r not in domain" % label)

    def then(self, other):
        """Diagrammatic composite: ``self`` first, then ``other``."""
        if other.domain != self.codomain:
            raise StructuralError("composite endpoints do not match")
        return FinFn.from_total(
            self.domain, other.codomain,
            {x: other.mapping[self.mapping[x]] for x in self.domain})

    def __eq__(self, other):
        return (isinstance(other, FinFn) and self.domain == other.domain
                and self.codomain == other.codomain and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(sorted(self.mapping.items()))))

    def __repr__(self):
        return "FinFn(%r -> %r, %r)" % (list(self.domain), list(self.codomain),
                                        self.mapping)


def trusted_table(values, domain, codomain):
    """A position table the engine built from ``domain`` into ``codomain``
    (carriers, or the section tuples of a presheaf), checked only for its
    length; parsers check each entry of the tables they read."""
    if len(values) != len(domain):
        raise StructuralError("a table of %d values from %d points into %d"
                              % (len(values), len(domain), len(codomain)))
    return values


def identity(n):
    """The table of the identity of a carrier of ``n`` points."""
    return list(range(n))


def compose(first, then):
    """The table of ``first`` followed by ``then``: ``then[first[k]]`` at
    each position ``k``."""
    return list(map(then.__getitem__, first))


def invert(table, size):
    """The table of the inverse of the bijection ``table`` onto a carrier
    of ``size`` points, its positions in the order of their values;
    refused as "only bijections can be inverted" when ``is_iso_table``
    finds no bijection."""
    if not is_iso_table(table, size):
        raise StructuralError("only bijections can be inverted")
    return sorted(range(size), key=table.__getitem__)


def _refuse_mapping(domain, codomain, mapping):
    """Raise naming the first domain label, in domain order, with no value or
    with a value outside the codomain, else the labels outside the domain;
    ``FinFn`` calls this only once its bulk check fails."""
    for x in domain:
        if x not in mapping:
            raise StructuralError("no value assigned to domain label %r" % x)
        if mapping[x] not in codomain:
            raise StructuralError(
                "value %r of %r is not a codomain label" % (mapping[x], x))
    extra = set(mapping) - set(domain)
    if extra:
        raise StructuralError("mapping assigns labels outside the domain: %r"
                              % sorted(extra))


class FinTop:
    """A finite topological space, stored as its specialization preorder:
    one int mask per carrier position, where bit ``q`` of ``rows[p]`` means
    that point ``q`` lies in the minimal open neighbourhood of point ``p``.
    The opens are exactly the unions of these neighbourhoods (Alexandroff
    1937; Stong 1966), and every kernel of this module works on the rows
    with bitwise operations.  Labels appear only in the label sets of
    ``opens`` and in ``points()`` and ``mask()``, which convert between a
    mask and labels.  The document parsers build one space per distinct object
    of a document, so equal objects there are one instance, validated once
    and sharing its kept opens.

    ``rows`` is a list that no caller changes.  It is not a tuple because a
    command drops its spaces together, and tuples of every carrier size
    freed at once would stay in CPython's tuple free lists, up to 2,000 of
    each length, for the rest of the process."""

    __slots__ = ("carrier", "rows", "_opens", "_open_sets", "_maximal", "_kept")

    def __init__(self, carrier, opens):
        """Validate a listed family of opens: with the empty set and the
        carrier in it, it is a topology exactly when it holds ``O | nbhd[x]``
        for every member ``O`` and point ``x``, ``nbhd[x]`` being the meet of
        the members around x.

        The check runs on int masks over carrier positions, one bit a point:
        a member's mask is the OR of its points' bits, ``nbhd[x]`` the AND of
        the masks holding x's bit, and those meets are the rows kept.  A
        family that fails is scanned again as frozensets, which names what is
        wrong."""
        if not isinstance(carrier, FinSet):
            raise StructuralError("carrier must be a FinSet")
        opens = list(opens)
        labels = carrier.labels
        bits = dict(zip(labels, map((1).__lshift__, range(len(labels)))))
        try:
            masks = [reduce(or_, map(bits.__getitem__, o), 0) for o in opens]
        except (KeyError, TypeError):    # a member with a point not listed
            masks = ()
        family = set(masks)
        full = (1 << len(labels)) - 1
        if 0 in family and full in family:
            rows = [reduce(and_, [m for m in family if m & b], full)
                    for b in bits.values()]
            hoods = set(rows)
            if {o | u for o in family for u in hoods} <= family:
                object.__setattr__(self, "carrier", carrier)
                object.__setattr__(self, "rows", rows)
                return
        _refuse_opens(carrier, opens)

    @classmethod
    def from_nbhd(cls, carrier, rows):
        """The space with these rows, one per carrier position, unchecked:
        row ``p`` holds bit ``p`` and the row of each point it holds."""
        space = object.__new__(cls)
        object.__setattr__(space, "carrier", carrier)
        object.__setattr__(space, "rows", list(rows))
        return space

    def __setattr__(self, name, value):
        raise AttributeError("FinTop is immutable")

    def open_masks(self):
        """The masks of the opens in ``opens`` order.  Listed once per
        space and kept with the family sizes charged while listing; each
        later access charges the same sizes again, so under any budget it
        raises, or not, exactly as a first listing would.  A refused
        listing is not kept."""
        what = "opens of a %d-point space" % len(self.carrier)
        kept = getattr(self, "_opens", None)    # unset until first listed
        if kept is None:
            kept = _list_opens(self, what)
            object.__setattr__(self, "_opens", kept)
        else:
            for size in kept[1]:
                charge(what, size)
        return kept[0]

    @property
    def opens(self):
        """Every open set, as a frozenset of labels, ordered by size and
        then by point positions.  The family at most doubles per point and
        its size is charged to the cap after each point, at every access;
        the sets are made once per space."""
        return self._sets(self.open_masks())

    def _sets(self, masks):
        """The label sets of the listed opens ``masks``, made once."""
        sets = getattr(self, "_open_sets", None)    # unset until first made
        if sets is None:
            labels = self.carrier.labels
            sets = tuple(frozenset(compress(labels, _flags(o))) for o in masks)
            object.__setattr__(self, "_open_sets", sets)
        return sets

    def maximal_masks(self):
        """Each open's maximal proper open subsets, as masks: a dict over
        ``open_masks()`` in their order, each list in that order too.  Built
        once per space, charged as an access to its opens, and shared, so
        callers do not change it."""
        kept = getattr(self, "_maximal", None)    # unset until first asked
        if kept is None:
            kept = _maximal_proper(self, self.open_masks())
            object.__setattr__(self, "_maximal", kept)
        return kept

    def keep(self, key, build):
        """The value ``build()`` made at the first ask for ``key`` and kept
        with the space for every later one: for values that are functions
        of the space alone, such as the presheaf layer's lattices of
        opens.  Callers do not change what they get."""
        kept = getattr(self, "_kept", None)    # unset until first asked
        if kept is None:
            kept = {}
            object.__setattr__(self, "_kept", kept)
        try:
            return kept[key]
        except KeyError:
            value = kept[key] = build()
            return value

    def is_open(self, mask):
        """Whether the points of ``mask`` hold every point their rows hold."""
        return _gather(mask, self.rows) == mask

    def mask(self, labels):
        """The mask of the points that ``labels`` name, or None when one of
        them names no point."""
        pos = self.carrier._pos
        try:
            return reduce(or_, [1 << pos[x] for x in labels], 0)
        except KeyError:
            return None

    def points(self, mask):
        """The labels of the points of ``mask``, in carrier order."""
        return list(compress(self.carrier.labels, _flags(mask)))

    def __eq__(self, other):
        return self is other or (isinstance(other, FinTop)
                                 and self.carrier == other.carrier
                                 and self.rows == other.rows)

    def __hash__(self):
        return hash((self.carrier, tuple(self.rows)))

    def __repr__(self):
        labels = self.carrier.labels
        return "FinTop(%r, %r)" % (list(labels), [
            list(compress(labels, _flags(row))) for row in self.rows])


_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask):
    """One byte per position of ``mask``, 1 where its bit is set and 0
    where not, from position 0 up to its highest set bit: the selectors with
    which ``itertools.compress`` picks the labels of a mask's points."""
    return bin(mask)[:1:-1].encode().translate(_FLAG)


def _members(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    return list(compress(count(), _flags(mask)))


def _positions(fn):
    """The codomain position of the image of each domain point of ``fn``, in
    domain order."""
    return list(map(fn.codomain._pos.__getitem__,
                    map(fn.mapping.__getitem__, fn.domain.labels)))


def _gather(mask, parts):
    """The OR of ``parts[p]`` over the positions ``p`` of the set bits of
    ``mask``, taken lowest bit first: the image of a row when ``parts``
    holds the bit of each point's image, the preimage of one when it holds
    the mask of each point's fibre."""
    out = 0
    while mask:
        low = mask & -mask
        out |= parts[low.bit_length() - 1]
        mask ^= low
    return out


def _fibres(img):
    """The mask of each fibre of the map that sends position ``k`` to
    position ``img[k]``, by image position, in order of first image."""
    fibres = {}
    for k, q in enumerate(img):
        fibres[q] = fibres.get(q, 0) | 1 << k
    return fibres


def _image_rows(img, rows):
    """The image of each of ``rows`` under the map that sends position ``k``
    to position ``img[k]``: the image points whose fibre meets the row."""
    parts = [(1 << q, fibre) for q, fibre in _fibres(img).items()]
    return [sum([bit for bit, fibre in parts if fibre & row]) for row in rows]


def _preimage_rows(img, rows):
    """For each position ``k`` of the domain of the map that sends ``k`` to
    ``img[k]``, the preimage of the codomain row ``rows[img[k]]``: the mask
    of the domain points whose image lies in it.  One preimage per image
    point, gathered from the mask of each fibre."""
    fibres = _fibres(img)
    parts = [fibres.get(q, 0) for q in range(len(rows))]
    pre = {q: _gather(rows[q], parts) for q in fibres}
    return list(map(pre.__getitem__, img))


def _refuse_opens(carrier, opens):
    """Raise naming, in this order, the first listed open that is not a
    subset of the carrier, a missing empty set or carrier, or the first
    union ``O | nbhd[x]``, in list and carrier order, that is not listed;
    ``FinTop`` calls this only once its check on masks fails."""
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
    for o in opens:
        for x in carrier:
            if o | nbhd[x] not in family:
                raise StructuralError("opens not closed under union and "
                                      "intersection: %r is missing"
                                      % sorted(o | nbhd[x]))


def _list_opens(space, what):
    """The opens of ``space`` as masks in ``FinTop.opens`` order, with the
    family size charged after each point: the unions of the rows, the
    family at most doubling per point.  Of two opens of one size, the one
    holding the lowest position where they differ comes first, which is
    the larger one with its binary digits read from position 0 up: so the
    masks sort by size up and then by those digits down."""
    family = {0}
    sizes = []
    for row in space.rows:
        family |= {o | row for o in family}
        charge(what, len(family))
        sizes.append(len(family))
    ordered = sorted(family, key=lambda o: (-o.bit_count(), bin(o)[:1:-1]),
                     reverse=True)
    return tuple(ordered), tuple(sizes)


def _maximal_proper(space, opens):
    """Each open's maximal proper open subsets, as masks in the order of the
    masks ``opens``.  Each is the interior of the open minus one of its
    points ``p``: the open less the points above ``p``, those whose row
    holds ``p``.  That interior is maximal exactly when ``p`` is a top
    point of the open, every point above it in the open lying in its own
    row too, so no two interiors are compared."""
    rows = space.rows
    above = [reduce(or_, [1 << y for y, row in enumerate(rows)
                          if row >> p & 1], 0) for p in range(len(rows))]
    rank = {o: k for k, o in enumerate(opens)}
    return {u: sorted({u & ~above[p] for p in _members(u)
                       if not above[p] & u & ~rows[p]}, key=rank.__getitem__)
            for u in opens}


class TopMap:
    """A continuous map between finite spaces.

    Continuity, ``f(nbhd[x]) <= nbhd[f(x)]``, is validated at construction,
    on the image of each row (``is_continuous``); openness, equality there,
    is stored in ``open``.
    """

    __slots__ = ("fn", "dom", "cod", "open")

    def __init__(self, fn, dom, cod):
        if fn.domain != dom.carrier or fn.codomain != cod.carrier:
            raise StructuralError("map endpoints do not match the given spaces")
        img = _positions(fn)
        check_continuous(img, dom, cod)
        bits = [1 << q for q in img]
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "open", all(
            _gather(row, bits) == cod.rows[q]
            for row, q in zip(dom.rows, img)))

    def __setattr__(self, name, value):
        raise AttributeError("TopMap is immutable")

    def __eq__(self, other):
        return (isinstance(other, TopMap) and self.fn == other.fn
                and self.dom == other.dom and self.cod == other.cod)

    def __repr__(self):
        return "TopMap(%r, open=%r)" % (self.fn, self.open)


def commutes(path, other=()):
    """Whether two left-to-right paths of maps have the same composite,
    decided point by point without building either composite.

    An empty path stands for the identity on the other path's domain.  A path
    whose consecutive maps do not meet raises as ``FinFn.then`` would, ``path``
    before ``other``; composites with different endpoints are unequal.
    """
    for p in (path, other):
        for f, g in zip(p, p[1:]):
            if g.domain != f.codomain:
                raise StructuralError("composite endpoints do not match")
    if not path:
        path, other = other, path
    if not path:
        return True
    start = path[0].domain
    end = other[-1].codomain if other else start
    if (other and other[0].domain != start) or path[-1].codomain != end:
        return False
    left = [f.mapping for f in path]
    right = [f.mapping for f in other]
    for x in start:
        y = z = x
        for m in left:
            y = m[y]
        for m in right:
            z = m[z]
        if y != z:
            return False
    return True


def is_continuous(img, dom, cod):
    """Whether the map that sends position ``k`` of the space ``dom`` to
    position ``img[k]`` of ``cod`` is continuous: the image of each row
    lies in the row of the point's image."""
    bits = [1 << q for q in img]
    rows = cod.rows
    return not any(_gather(row, bits) & ~rows[q]
                   for row, q in zip(dom.rows, img))


def check_continuous(img, dom, cod):
    """``img``, unless the map it gives from ``dom`` to ``cod`` is not
    continuous: then raise naming the first point of ``dom``, in carrier
    order, at which it is not, as ``TopMap`` and the parsers refuse it."""
    if is_continuous(img, dom, cod):
        return img
    bits = [1 << q for q in img]
    for p, (row, q) in enumerate(zip(dom.rows, img)):
        if _gather(row, bits) & ~cod.rows[q]:
            raise StructuralError("map is not continuous at %r"
                                  % dom.carrier.labels[p])


def is_iso(fn, dom=None, cod=None):
    """Whether ``fn`` is a bijection and, when both spaces are given, a
    homeomorphism between them (see ``is_iso_table``)."""
    img = _positions(fn)
    if not is_iso_table(img, len(fn.codomain)):
        return False
    if dom is None or cod is None:
        return True
    if fn.domain != dom.carrier or fn.codomain != cod.carrier:
        raise StructuralError("map endpoints do not match the given spaces")
    return is_iso_table(img, len(fn.codomain), dom, cod)


def is_iso_table(img, size, dom=None, cod=None):
    """Whether the map sending position ``k`` to position ``img[k]`` of a
    carrier of ``size`` points is a bijection and, when both spaces are
    given, a homeomorphism between them: ``f(nbhd[x]) = nbhd[f(x)]`` at
    every point, which for a bijection is continuity and openness at
    once."""
    if not len(set(img)) == len(img) == size:
        return False
    if dom is None or cod is None:
        return True
    bits = [1 << q for q in img]
    return all(_gather(row, bits) == cod.rows[q]
               for row, q in zip(dom.rows, img))


class PairedSubset:
    """The members of a pullback with its two projection legs and, when
    ``pullback`` was given the spaces of both domains, the initial topology
    along the legs; otherwise ``space`` is None."""

    __slots__ = ("members", "legs", "space")

    def __init__(self, members, legs, space=None):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "legs", dict(legs))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("PairedSubset is immutable")


def product_enumerate(factors):
    """The product of finitely many finite sets, as a set of tuple labels.

    Tuple labels are the ``|``-joins of component labels, enumerated in
    lexicographic order of component positions.  The empty product is the
    one-point set ``{"()"}``.
    """
    size = 1
    for f in factors:
        size *= len(f)
    charge("product of %d factors" % len(factors), size)
    if not factors:
        return FinSet(["()"])
    return FinSet([SEP.join(combo)
                   for combo in iproduct(*[f.labels for f in factors])])


def compatible_tuples(domains, constraints, what="compatible tuples"):
    """Every tuple ``(x_0, ..., x_n-1)`` with ``x_k`` in ``domains[k]`` that
    meets each constraint ``(a, b, key_a, key_b)``: ``key_a[x_a] == key_b[x_b]``.

    Keys are mappings defined on their variable's domain.  A constraint with
    ``a == b`` filters one domain.  Variables are bound in order; the values
    of a new variable come from a hash index of its domain on the key of one
    constraint to a bound variable, and are checked against the other
    constraints.  Candidates are visited in domain order, so tuples come out
    in lexicographic order of positions, as from a filtered product.  The
    candidate tuples of each step are charged to the cap.
    """
    domains = [tuple(d) for d in domains]
    links = [[] for _ in domains]
    for a, b, key_a, key_b in constraints:
        if a == b:
            domains[a] = tuple(x for x in domains[a] if key_a[x] == key_b[x])
        else:
            links[max(a, b)].append((a, key_a, key_b) if a < b
                                    else (b, key_b, key_a))
    partial = [()]
    for dom, link in zip(domains, links):
        indexes = []
        for a, key_a, key_new in link:
            index = {}
            for x in dom:
                index.setdefault(key_new[x], []).append(x)
            indexes.append((a, key_a, key_new, index))
        # the index with the most distinct keys proposes, the others check
        indexes.sort(key=lambda probe: -len(probe[3]))
        if indexes:
            a, key_a, _, index = indexes[0]
            cands = [index.get(key_a[t[a]], ()) for t in partial]
        else:
            cands = [dom] * len(partial)
        charge(what, sum(map(len, cands)))
        rest = [probe[:3] for probe in indexes[1:]]
        partial = [t + (x,) for t, xs in zip(partial, cands) for x in xs
                   if not rest or all(key_new[x] == key_b[t[b]]
                                      for b, key_b, key_new in rest)]
    return partial


def pullback_positions(f, g, spaces=()):
    """The pullback of two tables into one carrier, on positions: the
    first and the second coordinates of its members, the pairs ``(a, b)``
    with ``f[a] == g[b]`` in lexicographic order, joined by
    ``compatible_tuples`` and charged under ``"pullback"``.  Given the
    ``spaces`` of the two domains, also the members' rows of the initial
    topology along the two coordinates (``initial_rows``), else None."""
    pairs = compatible_tuples([range(len(f)), range(len(g))],
                              [(0, 1, f, g)], "pullback")
    firsts = [a for a, _ in pairs]
    seconds = [b for _, b in pairs]
    rows = initial_rows(len(pairs), (firsts, seconds), spaces) if spaces \
        else None
    return firsts, seconds, rows


def pullback(f, g, xtop=None, ytop=None):
    """The pullback of two maps with a shared codomain.

    Members are the pairs ``a|b`` with ``f(a) = g(b)``, joined on
    positions by ``pullback_positions``.  The legs are the two coordinate
    projections restricted to the members.  Given the spaces ``xtop`` and
    ``ytop`` of the two domains, the members carry the initial topology
    along the legs, which is the subspace topology of the product: member
    ``a|b`` gets the row ``U1[a] & U2[b]``, where ``U1[a]`` is the mask of
    the members whose first coordinate lies in the neighbourhood of ``a``,
    and ``U2[b]`` likewise.  The forgetful functor from spaces to sets is
    topological, so the pullback of spaces is the pullback of sets with
    that topology.
    """
    if f.codomain != g.codomain:
        raise StructuralError("pullback requires a shared codomain")
    spaces = ()
    if xtop is not None and ytop is not None:
        if xtop.carrier != f.domain or ytop.carrier != g.domain:
            raise StructuralError("pullback spaces must be those of the "
                                  "map domains")
        spaces = (xtop, ytop)
    xs, ys = f.domain.labels, g.domain.labels
    firsts, seconds, rows = pullback_positions(_positions(f), _positions(g),
                                               spaces)
    left = list(map(xs.__getitem__, firsts))
    right = list(map(ys.__getitem__, seconds))
    labels = list(map(pair_label, left, right))
    members = FinSet.from_distinct(labels)
    p1 = FinFn.from_total(members, f.domain, dict(zip(labels, left)))
    p2 = FinFn.from_total(members, g.domain, dict(zip(labels, right)))
    space = None if rows is None else FinTop.from_nbhd(members, rows)
    return PairedSubset(members, {"p1": p1, "p2": p2}, space)


def top_product(x, y):
    """Product space: the neighbourhood of ``a|b`` is ``nbhd[a] x nbhd[b]``,
    the row of ``b`` copied into the block of each point in the row of
    ``a``."""
    carrier = product_enumerate([x.carrier, y.carrier])
    width = len(y.carrier)
    blocks = [p * width for p in range(len(x.carrier))]
    return FinTop.from_nbhd(carrier, [
        _gather(ra, [rb << shift for shift in blocks])
        for ra in x.rows for rb in y.rows])


def _unions(n, pairs):
    """The union-find forest over ``n`` positions once each pair of
    ``pairs`` is united, and the roots linked below another, each once:
    the parent of each position, and those roots in the order linked.  A
    position outside ``range(n)``, a negative one included, is refused."""
    if pairs:
        ends = list(chain.from_iterable(pairs))
        if min(ends) < 0 or max(ends) >= n:
            a, b = next((a, b) for a, b in pairs
                        if not (0 <= a < n and 0 <= b < n))
            raise StructuralError("pair (%r, %r) mentions positions outside "
                                  "the carrier of %d labels" % (a, b, n))
    parent = list(range(n))
    moved = []
    for ra, rb in pairs:
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra < rb:
            parent[rb] = ra
            moved.append(rb)
        elif rb < ra:
            parent[ra] = rb
            moved.append(ra)
    return parent, moved


def class_count(n, pairs):
    """How many classes the equivalence closure of ``pairs``, pairs of
    positions, has on ``n`` positions: each union that links two roots
    merges two classes.  Nothing is named or labelled."""
    return n - len(_unions(n, pairs)[1])


def quotient_by_pairs(labels, pairs):
    """Quotient a finite set by the equivalence closure of pairs of positions.

    ``labels`` lists the carrier, its labels pairwise distinct, and
    ``pairs`` is a sequence of pairs of positions in it.  Each class is
    labelled by its lexicographically smallest member; classes are ordered
    by first occurrence in the carrier.  Returns the quotient set, built
    with no position index (its names are distinct by construction), the
    table of the quotient map (the position of its class, in quotient
    order, at each carrier position), and the classes of two or more
    members: each under its name, in quotient order, with its members in
    carrier order.  Every other label is a class of its own, named by
    itself.  A position outside the carrier, a negative one included, is
    refused.

    Union-find over carrier positions (Tarjan 1975) with path halving: a
    union links the later root below the earlier, so every pointer runs
    toward the front and each root is the first member of its class.  The
    roots' positions in the quotient (their ranks among the roots) come from
    one bulk pass over the carrier.  Then one pass over the positions a
    union moved below a root, in carrier order, resolves each to its root,
    writes its class's rank into the table, appends its label to its class
    and keeps the least label seen as the class's name; so the interpreted
    work follows the pairs, and no label is looked up.
    """
    n = len(labels)
    parent, moved = _unions(n, pairs)
    keep = bytearray(b"\x01") * n
    for k in moved:
        keep[k] = 0
    # a root's class sits at the number of roots before it
    table = list(accumulate(keep, initial=-1))
    del table[0]
    names = list(compress(labels, keep))
    groups = {}
    # in carrier order each moved position's pointer leads to a root or to
    # an earlier moved position, which is resolved by then
    for k in sorted(moved):
        parent[k] = r = parent[parent[k]]
        table[k] = rank = table[r]
        label = labels[k]
        members = groups.get(rank)
        if members is None:
            groups[rank] = [names[rank], label]
        else:
            members.append(label)
        if label < names[rank]:
            names[rank] = label
    ranks = sorted(groups)
    classes = dict(zip(map(names.__getitem__, ranks),
                       map(groups.__getitem__, ranks)))
    # one name per class, each a member of its own class: distinct
    return FinSet.from_trusted(names), table, classes


def _closure(rows):
    """The transitive closure of ``rows``, each of which holds its own
    bit: every row that holds ``k`` takes in row ``k``, for each ``k`` in
    turn (Warshall 1962)."""
    for k in range(len(rows)):
        row, bit = rows[k], 1 << k
        if row != bit:    # k's row adds nothing when it is k alone
            rows = [r | row if r & bit else r for r in rows]
    return rows


def induce_topology(mode, carrier, tables, spaces):
    """Final or initial topology on ``carrier`` along a family of maps, each
    given by its table, with one space per map.

    ``mode='final'``: the maps run from the given spaces into the carrier, an
    open is any subset all of whose preimages are open, and a neighbourhood is
    all that is reachable along images of source neighbourhoods: the rows
    start as those images and are closed transitively (Warshall 1962).
    ``mode='initial'``: the maps run from the carrier into the given spaces and
    a neighbourhood is the meet of the preimages of those around the images.
    A table must give each point of its domain a position of its codomain.
    """
    if len(tables) != len(spaces):
        raise StructuralError("need one space per map")
    n = len(carrier)
    if mode == "final":
        for img, sp in zip(tables, spaces):
            if (len(img) != len(sp.carrier) or min(img, default=0) < 0
                    or max(img, default=-1) >= n):
                raise StructuralError("final mode needs maps into the carrier")
        return FinTop.from_nbhd(carrier, _final_rows(n, tables, spaces))
    if mode == "initial":
        for img, sp in zip(tables, spaces):
            if (len(img) != n or min(img, default=0) < 0
                    or max(img, default=-1) >= len(sp.carrier)):
                raise StructuralError("initial mode needs maps out of the carrier")
        return FinTop.from_nbhd(carrier, initial_rows(n, tables, spaces))
    raise StructuralError("mode must be 'final' or 'initial', got %r" % mode)


def _final_rows(n, tables, spaces):
    """The rows of the final topology on ``n`` points along the maps whose
    tables are ``tables``, one from each of ``spaces``: the images of the
    source rows, closed transitively (Warshall 1962)."""
    rows = [1 << q for q in range(n)]
    for img, sp in zip(tables, spaces):
        for q, image in zip(img, _image_rows(img, sp.rows)):
            rows[q] |= image
    return _closure(rows)


def initial_rows(n, tables, spaces):
    """The rows of the initial topology on ``n`` points along the maps
    whose tables are ``tables``, one into each of ``spaces``: each point's
    row is the meet of the preimages of the rows around its images."""
    rows = [(1 << n) - 1] * n
    for img, sp in zip(tables, spaces):
        rows = list(map(and_, rows, _preimage_rows(img, sp.rows)))
    return rows


def joint_image(tables):
    """The set of the positions that some table of ``tables`` hits."""
    hit = set()
    for img in tables:
        hit.update(img)
    return hit


def is_effective_after_base_change(img, tables, space=None, spaces=(),
                                   hit=None):
    """Whether the maps given by ``tables``, into the codomain of the map
    ``img`` (the table of a test map), pulled back along it form an
    effective epimorphic family over its domain, decided with no pullback
    built: the image of ``img`` lies in the joint image of the maps and,
    given the domain ``space`` and one source space per map, the domain
    carries the final topology along the pulled-back legs.

    The pullback of a source along ``fn`` has a member ``x|v`` for each
    source point ``x`` over ``fn(v)``, whose row holds the members in
    ``nbhd[x] x nbhd[v]``; its image in the domain is
    ``nbhd[v] & fn^-1(f(nbhd[x]))``.  So the final topology starts from
    the row of ``v`` met with the union of ``fn^-1(f(nbhd[x]))`` over the
    fibre of every map over ``fn(v)``, and is that closed transitively:
    the domain carries it when its rows are those.  ``hit`` is the maps'
    ``joint_image``, built here when not given.

    Along the ``identity`` this decides whether the maps themselves form
    an effective epimorphic family: they are jointly surjective and the
    codomain carries the final topology along them.  There the union for
    ``v`` is the union of the images of the source rows over ``v``, which
    the row of ``v`` holds, the maps being continuous, so the rows start
    as those of ``_final_rows``."""
    if hit is None:
        hit = joint_image(tables)
    if not hit.issuperset(img):
        return False
    if space is None:
        return True
    fibres = _fibres(img)
    # for each point y that fn hits, the union of fn^-1(f(nbhd[x])) over
    # the source points x over y
    reach = dict.fromkeys(fibres, 0)
    for f_img, sp in zip(tables, spaces):
        pre = [fibres.get(q, 0) for q in f_img]
        for q, row in zip(f_img, sp.rows):
            if q in reach:
                reach[q] |= _gather(row, pre)
    # each row keeps its own point: some source point x lies over fn(v),
    # and fn^-1(f(nbhd[x])) holds v
    rows = [row & reach[q] for row, q in zip(space.rows, img)]
    return _closure(rows) == space.rows


def table_properties(img, dom, cod):
    """Property report of the map that sends position ``k`` of ``dom`` to
    position ``img[k]`` of ``cod``, a map between finite spaces that the
    caller has validated or built continuous, so no continuity is checked
    again: the
    map is injective, surjective, open (``f(nbhd[x]) = nbhd[f(x)]``
    everywhere) and a topological embedding (injective and a homeomorphism
    onto its image with the subspace topology, which is
    ``nbhd[x] = f^-1(nbhd[f(x)])`` everywhere).

    On rows, continuity puts the image of each row inside the row of the
    point's image, so the two are equal exactly when they are as large, and
    an injective image of a row is as large as the row.  For an injective
    map ``f^-1(nbhd[f(x)])`` has as many points as ``nbhd[f(x)]`` has in
    the image, and holds ``nbhd[x]``, so the embedding test too compares
    popcounts and scans no preimage."""
    hit = set(img)
    injective = len(hit) == len(img)
    targets = list(map(cod.rows.__getitem__, img))
    sizes = list(map(int.bit_count, dom.rows if injective
                     else _image_rows(img, dom.rows)))
    image = reduce(or_, map((1).__lshift__, hit), 0)
    return {
        "injective": injective,
        "surjective": len(hit) == len(cod.carrier),
        "continuous": True,
        "open": sizes == list(map(int.bit_count, targets)),
        "embedding": injective
        and sizes == [(target & image).bit_count() for target in targets],
    }
