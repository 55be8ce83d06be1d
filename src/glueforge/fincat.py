"""Finite concrete-category kernel.

Carriers are finite sets of string labels; morphisms are total maps between
them.  Finite topological spaces are carriers with an explicit family of open
subsets, and continuous (optionally open) maps between those.  Everything is
immutable after construction and every operation is a pure function, so shared
values are safe to use concurrently.

Compatible families (pullbacks, limits, families of maps and of sections)
come from one join kernel, ``compatible_tuples``, whose cost follows the
partial answers instead of the full product.

Generated labels (pullback pairs, product tuples, coproduct tags, quotient
classes) are built with the reserved separator ``|``; document parsers reject
input labels containing it, which keeps generated names collision-free.
"""

from itertools import product as iproduct

from .errors import StructuralError, check_cap

SEP = "|"


def tag(component, label):
    """Canonical coproduct label for element ``label`` of component ``component``."""
    return component + SEP + label


def pair_label(a, b):
    return a + SEP + b


class FinSet:
    """An ordered finite set of pairwise-distinct string labels."""

    __slots__ = ("labels", "_pos")

    def __init__(self, labels):
        labels = tuple(labels)
        pos = {}
        for k, lab in enumerate(labels):
            if not isinstance(lab, str):
                raise StructuralError("labels must be strings, got %r" % (lab,))
            if lab in pos:
                raise StructuralError("duplicate label %r" % lab)
            pos[lab] = k
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_pos", pos)

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
        return isinstance(other, FinSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "FinSet(%r)" % (list(self.labels),)


class FinFn:
    """A total map between two finite sets, stored label to label."""

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain, codomain, mapping):
        if not isinstance(domain, FinSet) or not isinstance(codomain, FinSet):
            raise StructuralError("FinFn endpoints must be FinSet")
        mapping = dict(mapping)
        for x in domain:
            if x not in mapping:
                raise StructuralError("no value assigned to domain label %r" % x)
            if mapping[x] not in codomain:
                raise StructuralError(
                    "value %r of %r is not a codomain label" % (mapping[x], x))
        extra = set(mapping) - set(domain.labels)
        if extra:
            raise StructuralError("mapping assigns labels outside the domain: %r"
                                  % sorted(extra))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, name, value):
        raise AttributeError("FinFn is immutable")

    def __call__(self, label):
        try:
            return self.mapping[label]
        except KeyError:
            raise StructuralError("label %r not in domain" % label)

    @staticmethod
    def identity(carrier):
        return FinFn(carrier, carrier, {x: x for x in carrier})

    @staticmethod
    def constant(domain, codomain, value):
        return FinFn(domain, codomain, {x: value for x in domain})

    def then(self, other):
        """Diagrammatic composite: ``self`` first, then ``other``."""
        if other.domain != self.codomain:
            raise StructuralError("composite endpoints do not match")
        return FinFn(self.domain, other.codomain,
                     {x: other.mapping[self.mapping[x]] for x in self.domain})

    def is_injective(self):
        return len(set(self.mapping.values())) == len(self.domain)

    def is_surjective(self):
        return set(self.mapping.values()) == set(self.codomain.labels)

    def image(self):
        seen = []
        for x in self.domain:
            y = self.mapping[x]
            if y not in seen:
                seen.append(y)
        return seen

    def preimage(self, labels):
        labels = set(labels)
        return frozenset(x for x in self.domain if self.mapping[x] in labels)

    def inverse(self):
        if not (self.is_injective() and self.is_surjective()):
            raise StructuralError("only bijections can be inverted")
        return FinFn(self.codomain, self.domain,
                     {y: x for x, y in self.mapping.items()})

    def __eq__(self, other):
        return (isinstance(other, FinFn) and self.domain == other.domain
                and self.codomain == other.codomain and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(sorted(self.mapping.items()))))

    def __repr__(self):
        return "FinFn(%r -> %r, %r)" % (list(self.domain), list(self.codomain),
                                        self.mapping)


def _canon_opens(carrier, opens):
    seen = set()
    canon = []
    for o in opens:
        fo = frozenset(o)
        if fo not in seen:
            seen.add(fo)
            canon.append(fo)
    canon.sort(key=lambda o: (len(o), sorted(carrier.position(x) for x in o)))
    return tuple(canon)


class FinTop:
    """A finite topological space: a carrier plus its full family of opens."""

    __slots__ = ("carrier", "opens", "_openset")

    def __init__(self, carrier, opens):
        if not isinstance(carrier, FinSet):
            raise StructuralError("carrier must be a FinSet")
        opens = _canon_opens(carrier, opens)
        openset = set(opens)
        full = frozenset(carrier.labels)
        for o in opens:
            if not o <= full:
                raise StructuralError("open set %r is not a subset of the carrier"
                                      % sorted(o))
        if frozenset() not in openset or full not in openset:
            raise StructuralError("opens must contain the empty set and the carrier")
        for a in opens:
            for b in opens:
                if a | b not in openset:
                    raise StructuralError("opens not closed under union: %r, %r"
                                          % (sorted(a), sorted(b)))
                if a & b not in openset:
                    raise StructuralError("opens not closed under intersection: %r, %r"
                                          % (sorted(a), sorted(b)))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "opens", opens)
        object.__setattr__(self, "_openset", openset)

    def __setattr__(self, name, value):
        raise AttributeError("FinTop is immutable")

    @staticmethod
    def discrete(carrier):
        subsets = [frozenset()]
        for x in carrier:
            subsets.extend([s | {x} for s in subsets])
        return FinTop(carrier, subsets)

    @staticmethod
    def indiscrete(carrier):
        return FinTop(carrier, [frozenset(), frozenset(carrier.labels)])

    def is_open(self, subset):
        return frozenset(subset) in self._openset

    def subspace(self, members):
        members = frozenset(members)
        sub = FinSet([x for x in self.carrier if x in members])
        return FinTop(sub, [o & members for o in self.opens])

    def __eq__(self, other):
        return (isinstance(other, FinTop) and self.carrier == other.carrier
                and self.opens == other.opens)

    def __hash__(self):
        return hash((self.carrier, self.opens))

    def __repr__(self):
        return "FinTop(%r, %d opens)" % (list(self.carrier), len(self.opens))


class TopMap:
    """A continuous map between finite spaces.

    Continuity is validated at construction; openness is computed and stored
    in ``open``.  Passing ``require_open=True`` turns a non-open map into a
    structural error, which is how the open-map subcategory is enforced.
    """

    __slots__ = ("fn", "dom", "cod", "open")

    def __init__(self, fn, dom, cod, require_open=False):
        if fn.domain != dom.carrier or fn.codomain != cod.carrier:
            raise StructuralError("map endpoints do not match the given spaces")
        for o in cod.opens:
            if not dom.is_open(fn.preimage(o)):
                raise StructuralError(
                    "map is not continuous: preimage of %r is not open" % sorted(o))
        is_open = all(cod.is_open(frozenset(fn.mapping[x] for x in o))
                      for o in dom.opens)
        if require_open and not is_open:
            raise StructuralError("map is not open")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "open", is_open)

    def __setattr__(self, name, value):
        raise AttributeError("TopMap is immutable")

    def __call__(self, label):
        return self.fn(label)

    def __eq__(self, other):
        return (isinstance(other, TopMap) and self.fn == other.fn
                and self.dom == other.dom and self.cod == other.cod)

    def __repr__(self):
        return "TopMap(%r, open=%r)" % (self.fn, self.open)


class PairedSubset:
    """The members of a pullback or equalizer with the maps exhibiting it."""

    __slots__ = ("members", "legs", "space")

    def __init__(self, members, legs, space=None):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "legs", dict(legs))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("PairedSubset is immutable")


def product_enumerate(factors, cap=None):
    """The product of finitely many finite sets, as a set of tuple labels.

    Tuple labels are the ``|``-joins of component labels, enumerated in
    lexicographic order of component positions.  The empty product is the
    one-point set ``{"()"}``.
    """
    size = 1
    for f in factors:
        size *= len(f)
    check_cap(size, cap, "product of %d factors" % len(factors))
    if not factors:
        return FinSet(["()"])
    return FinSet([SEP.join(combo)
                   for combo in iproduct(*[f.labels for f in factors])])


def compatible_tuples(domains, constraints, cap=None, what="compatible tuples"):
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
        check_cap(sum(map(len, cands)), cap, what)
        rest = [probe[:3] for probe in indexes[1:]]
        partial = [t + (x,) for t, xs in zip(partial, cands) for x in xs
                   if not rest or all(key_new[x] == key_b[t[b]]
                                      for b, key_b, key_new in rest)]
    return partial


def pullback(f, g, cap=None):
    """The pullback of two maps with a shared codomain.

    Members are the pairs ``a|b`` with ``f(a) = g(b)``, listed in
    lexicographic order of coordinate positions; the legs are the two
    coordinate projections restricted to the members.
    """
    if f.codomain != g.codomain:
        raise StructuralError("pullback requires a shared codomain")
    check_cap(len(f.domain) * len(g.domain), cap, "product of 2 factors")
    pairs = compatible_tuples([f.domain.labels, g.domain.labels],
                              [(0, 1, f.mapping, g.mapping)], cap, "pullback")
    labels = [pair_label(a, b) for a, b in pairs]
    members = FinSet(labels)
    p1 = FinFn(members, f.domain, dict(zip(labels, [a for a, _ in pairs])))
    p2 = FinFn(members, g.domain, dict(zip(labels, [b for _, b in pairs])))
    return PairedSubset(members, {"p1": p1, "p2": p2})


def top_product(x, y, cap=None):
    """Product space with the standard product topology (explicit opens)."""
    carrier = product_enumerate([x.carrier, y.carrier], cap=cap)
    rects = set()
    for u in x.opens:
        for v in y.opens:
            rects.add(frozenset(pair_label(a, b) for a in u for b in v))
    opens = _close_family(carrier, rects)
    return FinTop(carrier, opens)


def top_pullback(f, g, xtop, ytop, ztop, cap=None):
    """Pullback in spaces: the set-level pullback with the subspace topology
    of the product."""
    ps = pullback(f, g, cap=cap)
    amb = top_product(xtop, ytop, cap=cap)
    space = amb.subspace(ps.members.labels)
    return PairedSubset(ps.members, ps.legs, space=space)


def equalizer(f, g):
    """The equalizer subset {a : f(a) = g(a)} with its inclusion leg."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise StructuralError("equalizer requires parallel maps")
    members = FinSet([a for a in f.domain if f.mapping[a] == g.mapping[a]])
    incl = FinFn(members, f.domain, {a: a for a in members})
    return PairedSubset(members, {"include": incl})


class UnionFind:
    """Union-find with path compression over a fixed label universe."""

    def __init__(self, labels):
        self.parent = {x: x for x in labels}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller label becomes the root so class labels are canonical
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self, order):
        """Partition as a list of classes, ordered by first occurrence."""
        by_root = {}
        out = []
        for x in order:
            r = self.find(x)
            if r not in by_root:
                by_root[r] = []
                out.append(by_root[r])
            by_root[r].append(x)
        return out


def quotient_by_pairs(carrier, pairs):
    """Quotient a finite set by the equivalence closure of the given pairs.

    Each class is labelled by its lexicographically smallest member; classes
    are ordered by first occurrence in the carrier.  Returns the quotient set
    and the projection map.
    """
    uf = UnionFind(carrier.labels)
    for a, b in pairs:
        if a not in carrier or b not in carrier:
            raise StructuralError("pair (%r, %r) mentions labels outside the carrier"
                                  % (a, b))
        uf.union(a, b)
    classes = uf.classes(carrier.labels)
    names = {}
    for cls in classes:
        name = min(cls)
        for x in cls:
            names[x] = name
    q = FinSet([min(cls) for cls in classes])
    pi = FinFn(carrier, q, names)
    return q, pi


def _close_family(carrier, family):
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


def _all_subsets(carrier, cap=None):
    check_cap(2 ** len(carrier), cap, "subsets of a %d-point carrier" % len(carrier))
    subs = [frozenset()]
    for x in carrier:
        subs.extend([s | {x} for s in subs])
    return subs


def induce_topology(mode, carrier, maps, spaces, cap=None):
    """Final or initial topology on ``carrier`` along a family of maps.

    ``mode='final'``: the maps run from the given spaces into the carrier and
    an open is any subset all of whose preimages are open.  ``mode='initial'``:
    the maps run from the carrier into the given spaces and the opens are the
    coarsest family containing every preimage of an open, closed under union
    and intersection.
    """
    if len(maps) != len(spaces):
        raise StructuralError("need one space per map")
    if mode == "final":
        for fn, sp in zip(maps, spaces):
            if fn.codomain != carrier or fn.domain != sp.carrier:
                raise StructuralError("final mode needs maps into the carrier")
        opens = [s for s in _all_subsets(carrier, cap=cap)
                 if all(sp.is_open(fn.preimage(s)) for fn, sp in zip(maps, spaces))]
        return FinTop(carrier, opens)
    if mode == "initial":
        for fn, sp in zip(maps, spaces):
            if fn.domain != carrier or fn.codomain != sp.carrier:
                raise StructuralError("initial mode needs maps out of the carrier")
        base = set()
        for fn, sp in zip(maps, spaces):
            for o in sp.opens:
                base.add(fn.preimage(o))
        return FinTop(carrier, _close_family(carrier, base))
    raise StructuralError("mode must be 'final' or 'initial', got %r" % mode)


def map_properties(m):
    """Exhaustively computed property report for a map.

    For a plain FinFn only injective/surjective are meaningful; for a TopMap
    the report also carries openness and whether the map is a topological
    embedding (injective, continuous, homeomorphism onto its image with the
    subspace topology).
    """
    if isinstance(m, TopMap):
        fn = m.fn
        report = {
            "injective": fn.is_injective(),
            "surjective": fn.is_surjective(),
            "continuous": True,
            "open": m.open,
        }
        image = frozenset(fn.mapping.values())
        sub = m.cod.subspace(image)
        forward = {frozenset(fn.mapping[x] for x in o) for o in m.dom.opens}
        report["embedding"] = (report["injective"]
                               and forward == set(sub.opens))
        return report
    return {"injective": m.is_injective(), "surjective": m.is_surjective(),
            "continuous": None, "open": None, "embedding": None}
