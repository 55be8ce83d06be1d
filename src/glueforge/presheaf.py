"""Presheaves on the open-set lattice of a finite topological space.

This is the decidable concretization of presheaves on a localized site: the
objects are the opens of a finite space, and a covering of an open is any
family of opens with that union.  The default covering list per open is the
trivial cover, the cover by all maximal proper open subsets when they do
cover, and the empty cover of the empty open (which forces a one-point
section set at the empty open for sheaves).

A presheaf on a finite space is a functor on its specialization preorder
(Alexandroff 1937; Mac Lane and Moerdijk 1992), so everything here is
positions and tables of ints.  An open is an int mask of the points of the
one document space, and its lattice, the opens inside an open U (a chart,
an overlap, a triple), is kept with the space.  The sections over an open
are the positions of a tuple of labels, and every restriction, transition
and component is a list giving each section the position of its image.
Labels appear only in keys, reports and error texts.

Laws are decided on the covering pairs of each lattice, and separation and
the sheaf condition on one basic cover per open (``basic_coverings``); a
listed family of pairs or coverings is scanned only to name a failure.
A covering is decided by counting: separation by the distinct keys of its
joint restriction and, where no constraint is left, the sheaf condition by
the product of its part sizes, charged at each step as the join would;
its families are listed only to name a counterexample.
Chart data is read once per unordered pair and per set of three charts:
the transitions of a checked datum are mutually inverse bijections, so
phi_ba = phi_ab^-1 puts the condition phi_ab puts on glued sections, and
one ordering of three distinct charts gives the cocycle on all six (Mac
Lane and Moerdijk 1992; Hartshorne, Ex. II.1.22).  No compatibility
constraint goes through an open with at most one section: any two
restrictions into such a set agree.
"""

from functools import reduce
from itertools import combinations, product, repeat, tee
from operator import getitem, or_

from .errors import ResourceError, StructuralError, charge
from .fincat import (
    SEP,
    _refuse_labels,
    compatible_tuples,
    compose,
    identity,
    invert,
    is_iso_table,
    trusted_table,
)

EMPTY_SECTION = "()"


class OpenLattice:
    """The opens of a finite space inside its open ``top`` (the whole space
    when None), as masks in ``FinTop.opens`` order, ordered by inclusion.

    One lattice is kept per space and top: ``OpenLattice(space, top)``
    builds it at the first ask, with what every use reads, and returns the
    kept one after, charging the listing of the space's opens at each ask
    as ``FinTop.open_masks`` does.  ``below`` holds the opens below each
    open, ``keys`` each open by its key, and ``covering`` the pairs (W, U)
    with U a maximal proper open of W: a law of restrictions that holds
    on those and on identities holds on every pair, by induction on the
    length of a chain of opens, so laws are decided there and every pair
    is scanned only to name a failure."""

    __slots__ = ("space", "top", "opens", "below", "keys", "covering",
                 "_key", "_pairs", "_maximal")

    def __new__(cls, space, top=None):
        masks = space.open_masks()
        if top is None:
            top = (1 << len(space.carrier)) - 1
        return space.keep(("open lattice", top),
                          lambda: cls._build(space, top, masks))

    @classmethod
    def _build(cls, space, top, masks):
        lat = object.__new__(cls)
        opens = tuple(o for o in masks if not o & ~top)
        below = {w: [v for v in opens if not v & ~w] for w in opens}
        named = space.keep("open keys", lambda: {
            o: ",".join(space.points(o)) for o in masks})
        keys = list(map(named.__getitem__, opens))
        kept = space.maximal_masks()
        for name, value in (
                ("space", space), ("top", top), ("opens", opens),
                ("below", below), ("keys", dict(zip(keys, opens))),
                ("_key", dict(zip(opens, keys))),
                ("_pairs", [(w, v) for w in opens for v in below[w]]),
                ("_maximal", [(u, kept[u]) for u in opens]),
                ("covering", [(w, u) for w in opens for u in kept[w]])):
            object.__setattr__(lat, name, value)
        return lat

    def __setattr__(self, name, value):
        raise AttributeError("OpenLattice is immutable")

    def __contains__(self, o):
        return o in self.below

    def key(self, o):
        """The points of the open ``o`` in carrier order, comma-joined."""
        return self._key[o]

    def names(self, o):
        """The sorted labels of the points of ``o``, for error texts."""
        return sorted(self.space.points(o))

    def find(self, labels):
        """The open whose points ``labels`` name, else None, also when a
        label names no point."""
        o = self.space.mask(labels)
        return o if o in self.below else None

    def maximal(self):
        """Each open with its maximal proper opens (the space's), in order."""
        return self._maximal

    def pairs_below(self):
        """All comparable pairs (W, V) with V a subset of W."""
        return self._pairs

    def __eq__(self, other):
        return self is other or isinstance(other, OpenLattice) \
            and self.top == other.top and self.space == other.space


class PresheafStore:
    """Sections per open plus a restriction table for every inclusion.

    The sections over an open ``o`` are the positions of the label tuple
    ``sections[o]``; the labels are read only by keys, reports and error
    texts.  ``res[(w, v)]`` is a list that gives each section over ``w``
    the position of its restriction to ``v``.  An identity restriction not
    given is filled in, and ``filled`` holds the opens where it was."""

    __slots__ = ("lattice", "sections", "res", "filled")

    def __init__(self, lat, sections, res):
        sections, res = dict(sections), dict(res)
        for o in lat.opens:
            if o not in sections:
                raise StructuralError("no section set at open %r" % lat.names(o))
        filled = set()
        for w, v in lat.pairs_below():
            if (w, v) in res:
                continue
            if w != v:
                raise StructuralError("no restriction map from %r to %r"
                                      % (lat.names(w), lat.names(v)))
            res[(w, w)] = identity(len(sections[w]))
            filled.add(w)
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "filled", filled)

    def __setattr__(self, name, value):
        raise AttributeError("PresheafStore is immutable")


def _uncomposed(store, pairs):
    """The triples (x, w, v), (x, w) in ``pairs`` and v below w, at which
    res(x, v) is not res(w, v) . res(x, w), lazily."""
    res, below = store.res, store.lattice.below
    for x, w in pairs:
        first = res[(x, w)]
        for v in below[w]:
            if compose(first, res[(w, v)]) != res[(x, v)]:
                yield x, w, v


def validate_presheaf(store):
    """Violated identity or composition laws among the restriction tables.

    Composition is decided on the covering pairs of the lattice of opens;
    only when that or an identity fails is every triple v <= w <= x scanned,
    to name each one that fails.  The identities the store filled in are
    not checked again."""
    lat, res, filled = store.lattice, store.res, store.filled
    problems = ["restriction at %r is not the identity" % lat.names(o)
                for o in lat.opens
                if o not in filled
                and res[(o, o)] != identity(len(store.sections[o]))]
    if problems or next(_uncomposed(store, lat.covering), None):
        problems.extend("restriction composition %r -> %r -> %r disagrees "
                        "with the direct map"
                        % (lat.names(x), lat.names(w), lat.names(v))
                        for x, w, v in _uncomposed(store, lat.pairs_below()))
    return problems


def default_coverings(lattice):
    """The default covering list: trivial covers, maximal-proper-open covers
    where those cover, and the empty cover of the empty open."""
    covers = []
    for u, maximal in lattice.maximal():
        covers.append((u, [u]))
        if maximal and reduce(or_, maximal) == u:
            covers.append((u, list(maximal)))
    covers.append((0, []))
    return covers


def basic_coverings(lattice):
    """One covering per open that is not a minimal neighbourhood: the maximal
    minimal neighbourhoods ``nbhd[x]`` of its points, in lattice order, and
    the empty cover for the empty open.

    These neighbourhoods form a basis, and they refine every covering {V_i}
    of the open, since nbhd[x] <= V_i whenever x is in V_i.  So a presheaf
    whose laws hold is separated, or a sheaf, for every covering exactly
    when it is for these (Curry 2014; Mac Lane and Moerdijk 1992, on sheaves
    given on a basis).  A minimal neighbourhood needs no cover of its own:
    each of its coverings holds it.  The minimal neighbourhoods are the
    opens with exactly one maximal proper open, the join-irreducibles of
    the lattice (Birkhoff 1937): below ``nbhd[x]`` that open is ``nbhd[x]``
    less the points whose neighbourhood holds ``x``, and an open that is a
    union of two incomparable neighbourhoods loses either one's top point
    on its own.
    """
    nbhds = {u for u, maximal in lattice.maximal() if len(maximal) == 1}
    basis = [o for o in lattice.opens if o in nbhds]
    covers = []
    for u in lattice.opens:
        if u in nbhds:
            continue
        inside = [b for b in basis if not b & ~u]
        covers.append((u, [b for b in inside
                           if not any(b != c and not b & ~c for c in inside)]))
    return covers


def all_coverings(lattice):
    """Every covering of every open, listed lazily in lattice order, each
    open's families picked by the bits of an ascending mask.  Exponential,
    so each family examined is charged as the count of its open's so far."""
    for u in lattice.opens:
        below = [v for v in lattice.opens if not v & ~u]
        for pick in range(1 << len(below)):
            charge("coverings of one open", pick + 1)
            parts = [below[k] for k in range(len(below)) if pick >> k & 1]
            if reduce(or_, parts, 0) == u:
                yield u, parts


def _check_covering(lat, covering):
    u, parts = covering
    if u not in lat:
        raise StructuralError("covered set %r is not open" % lat.names(u))
    for v in parts:
        if v not in lat:
            raise StructuralError("covering member %r is not open" % lat.names(v))
        if v & ~u:
            raise StructuralError("covering member %r is not below %r"
                                  % (lat.names(v), lat.names(u)))
    if reduce(or_, parts, 0) != u:
        raise StructuralError("family does not cover %r" % lat.names(u))


def _constraints(store, parts):
    """The compatibility constraints of a covering, one per two parts whose
    meet has two sections or more."""
    cons = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            meet = parts[a] & parts[b]
            if len(store.sections[meet]) <= 1:    # any two restrictions agree
                continue
            cons.append((a, b, store.res[(parts[a], meet)],
                         store.res[(parts[b], meet)]))
    return cons


def _injective(store, u, parts):
    """Whether the joint restriction F(u) -> prod F(v) over ``parts`` is
    injective: its keys are as many as the sections, and the empty cover
    separates at most one section."""
    size = len(store.sections[u])
    if not parts:
        return size <= 1
    return len(set(zip(*[store.res[(u, v)] for v in parts]))) == size


def _joint_restriction(store, u, parts):
    """The joint restriction F(u) -> prod F(v) over ``parts``: each section
    over ``u`` keyed by its tuple of restrictions, and the first two sections
    that share a key (``None`` when it is injective; the scan stops there)."""
    maps = [store.res[(u, v)] for v in parts]
    image = {}
    for s, key in enumerate(zip(*maps) if maps
                            else repeat((), len(store.sections[u]))):
        if key in image:
            return image, (image[key], s)
        image[key] = s
    return image, None


def _unseparated(store, covering):
    """The separation counterexample of one checked covering, or None; the
    joint restriction is scanned only to name its first clash."""
    u, parts = covering
    if _injective(store, u, parts):
        return None
    _, clash = _joint_restriction(store, u, parts)
    return {"open": u, "parts": parts, "sections": clash}


def _unglued(store, covering):
    """The sheaf counterexample of one checked covering, or None.

    With no constraint left every tuple of the product of the part sizes is
    a compatible family, so the covering glues exactly when the joint
    restriction is injective and the product counts the sections over the
    open.  That count is charged at each step as the join charges its
    candidates, and the families are listed only to name a counterexample,
    or where a constraint is left."""
    u, parts = covering
    cons = _constraints(store, parts)
    domains = [range(len(store.sections[v])) for v in parts]
    if cons:
        families = compatible_tuples(domains, cons, "families over a covering")
    else:
        count = 1
        for dom in domains:
            count *= len(dom)
            charge("families over a covering", count)
        if count == len(store.sections[u]) and _injective(store, u, parts):
            return None
        families = product(*domains)    # in the join's order
    image, clash = _joint_restriction(store, u, parts)
    if clash:
        return {"open": u, "parts": parts, "sections": clash,
                "kind": "separation"}
    for fam in families:
        if fam not in image:
            return {"open": u, "parts": parts, "family": fam, "kind": "gluing"}
    return None


def describe(store, counter):
    """A counterexample of ``is_separated`` or ``is_sheaf`` as reports and
    error texts word it: its opens by their keys, its sections by their
    labels, as lists."""
    if counter is None:
        return None
    lat, sections = store.lattice, store.sections
    u, parts = counter["open"], counter["parts"]
    out = dict(counter, open=lat.key(u), parts=[lat.key(v) for v in parts])
    if "sections" in out:
        out["sections"] = [sections[u][s] for s in counter["sections"]]
    if "family" in out:
        out["family"] = [sections[v][x] for v, x in zip(parts, out["family"])]
    return out


def _scan(store, coverings, counterexample):
    """``(True, None)``, else False and the first counterexample along
    ``coverings``, each checked before it is read."""
    for covering in coverings:
        _check_covering(store.lattice, covering)
        counter = counterexample(store, covering)
        if counter:
            return False, counter
    return True, None


def is_separated(store, coverings):
    """Injectivity of the joint restriction along every listed covering."""
    return _scan(store, coverings, _unseparated)


def is_sheaf(store, coverings):
    """Bijectivity between sections and compatible families per covering;
    a covering with no constraint left is decided by counting its families,
    which are listed only to name a counterexample."""
    return _scan(store, coverings, _unglued)


def _sheaf_everywhere(store, basic):
    """Whether a presheaf whose laws hold is a sheaf for every covering,
    given its ``basic_coverings``.

    False also when those would enumerate past the cap: the verdict is then
    left to the caller's own scans, which charge what they would have
    charged without this check."""
    try:
        return is_sheaf(store, basic)[0]
    except ResourceError:
        return False


def sheaf_verdicts(store, listed, check_listed=False):
    """``is_separated`` and ``is_sheaf`` along the listed coverings, as
    ``(separated, separation counterexample, sheaf, sheaf counterexample)``,
    for a presheaf whose laws hold.

    Both verdicts are decided on ``basic_coverings`` where those fit the
    cap, and a true one holds for every covering.  Only a false one is
    worded by scanning the listed coverings in order, so the counterexamples
    are the scans' own.  ``listed()`` returns the listed coverings, as a
    list or lazily, and is called only then, or when ``check_listed`` asks
    for each to be checked, as for coverings read from a document.  The
    sheaf scan reads only coverings the separation scan has checked, or
    the engine's own listings; the scans share one listing, and neither
    reads past its counterexample.
    """
    lat = store.lattice
    basic = basic_coverings(lat)
    if _sheaf_everywhere(store, basic):
        if check_listed:
            for covering in listed():
                _check_covering(lat, covering)
        return True, None, True, None
    separated = is_separated(store, basic)[0]
    first, second = tee(listed())
    sep_counter = None
    if check_listed or not separated:
        for covering in first:
            _check_covering(lat, covering)
            if not separated:
                sep_counter = _unseparated(store, covering)
                if sep_counter:
                    break
    # the sheaf scan stops at the separation counterexample at the latest,
    # so it meets only coverings checked above
    sheaf_counter = next(filter(None, (_unglued(store, covering)
                                       for covering in second)), None)
    return (sep_counter is None, sep_counter,
            sheaf_counter is None, sheaf_counter)


def restrict(store, top):
    """The presheaf restricted to its open ``top``, on that open's lattice."""
    lat = store.lattice
    if top not in lat:
        raise StructuralError("%r is not open" % lat.names(top))
    sub = OpenLattice(lat.space, top)
    return PresheafStore(sub, {o: store.sections[o] for o in sub.opens},
                         {pair: store.res[pair] for pair in sub.pairs_below()})


class NatTrans:
    """A transformation between presheaves on one lattice, one component
    table per open, from the sections of ``source`` to those of ``target``;
    naturality with restrictions is a checked law."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        if source.lattice != target.lattice:
            raise StructuralError("natural transformations need a shared lattice")
        lat = source.lattice
        components = dict(components)
        for o in lat.opens:
            if o not in components:
                raise StructuralError("no component at open %r" % lat.names(o))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("NatTrans is immutable")


def _unnatural(comp, source, target, pairs):
    """The pairs (w, v) of ``pairs`` at which the components ``comp`` do not
    commute with the restrictions of ``source`` and ``target``, lazily.

    Between presheaves whose laws hold, naturality on the lattice's
    ``covering`` pairs is naturality at every pair v <= w: for v < w pick a
    maximal proper u of w above v, and the square at (w, v) is the square
    at (u, v) pasted to the one at (w, u)."""
    for w, v in pairs:
        if compose(comp[w], target.res[(w, v)]) \
                != compose(source.res[(w, v)], comp[v]):
            yield w, v


def _natural(comp, source, target, pairs):
    return next(_unnatural(comp, source, target, pairs), None) is None


class GluingDatum:
    """A cover of a space by named open charts (masks), a presheaf per chart
    on its lattice, and a natural family of transition bijections over the
    pairwise overlaps, each component a table from chart a's sections to
    chart b's.  An orientation not given is filled in as the inverse of the
    other, and a diagonal transition not given is the identity; that the
    two orientations are mutually inverse is a checked law."""

    __slots__ = ("space", "charts", "locals", "transitions")

    def __init__(self, space, charts, locals_, transitions):
        charts = tuple(charts)
        names = [name for name, _ in charts]
        if len(set(names)) != len(names):
            raise StructuralError("duplicate chart names")
        if reduce(or_, [m for _, m in charts], 0) \
                != (1 << len(space.carrier)) - 1:
            raise StructuralError("charts do not cover the space")
        for name, members in charts:
            if not space.is_open(members):
                raise StructuralError("chart %r is not open" % name)
            if name not in locals_:
                raise StructuralError("no local presheaf for chart %r" % name)
            if locals_[name].lattice != OpenLattice(space, members):
                raise StructuralError(
                    "local presheaf of chart %r lives on the wrong lattice"
                    % name)
        full = {}
        for a, am in charts:
            for b, bm in charts:
                lattice = OpenLattice(space, am & bm)
                given = (a, b) if (a, b) in transitions else (b, a)
                here, there = locals_[a].sections, locals_[b].sections
                if given in transitions:
                    comp = dict(transitions[given])
                    outside = [o for o in comp if o not in lattice]
                    if outside:
                        raise StructuralError(
                            "transition %r -> %r has a component at %r, an "
                            "open outside the overlap"
                            % (given + (lattice.names(outside[0]),)))
                    if given != (a, b):
                        comp = {o: invert(t, len(here[o]))
                                for o, t in comp.items()}
                elif a == b:
                    comp = {o: identity(len(here[o])) for o in lattice.opens}
                else:
                    raise StructuralError("no transition between charts %r "
                                          "and %r" % (a, b))
                for o in lattice.opens:
                    if o not in comp:
                        raise StructuralError(
                            "transition %r -> %r misses the overlap open %r"
                            % (a, b, lattice.names(o)))
                full[(a, b)] = comp
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "locals", dict(locals_))
        object.__setattr__(self, "transitions", full)

    def __setattr__(self, name, value):
        raise AttributeError("GluingDatum is immutable")

    def names(self):
        return [name for name, _ in self.charts]

    def members(self, name):
        for n, m in self.charts:
            if n == name:
                return m
        raise StructuralError("no chart named %r" % name)

    def transition(self, a, b, o):
        return self.transitions[(a, b)][o]

    def _transition_problems(self, pairs, lawful):
        """The broken laws of the transitions a -> b, (a, b) in ``pairs``,
        lazily: components not bijective or not undone by b -> a, and
        naturality, decided on covering pairs between ``lawful`` locals."""
        for a, b in pairs:
            comp, inv = self.transitions[(a, b)], self.transitions[(b, a)]
            source, target = self.locals[a], self.locals[b]
            lattice = OpenLattice(self.space, self.members(a) & self.members(b))
            for o, t in comp.items():
                if not is_iso_table(t, len(target.sections[o])):
                    yield ("transition %r -> %r at %r is not a bijection"
                           % (a, b, lattice.names(o)))
            for o, t in comp.items():
                if compose(t, inv[o]) != identity(len(t)):
                    yield ("transitions %r <-> %r at %r are not mutually "
                           "inverse" % (a, b, lattice.names(o)))
            if lawful and _natural(comp, source, target, lattice.covering):
                continue
            for w, v in _unnatural(comp, source, target,
                                   lattice.pairs_below()):
                yield ("transition %r -> %r is not natural from %r to %r"
                       % (a, b, lattice.names(w), lattice.names(v)))

    def validate(self):
        """The broken laws of the datum.  When every local presheaf
        satisfies the laws, each transition is checked one way only, from
        a chart to itself or a later one, up to its first failure: b -> a
        is then the inverse of a natural bijection, so it passes too.
        Otherwise, and to name a failure, both ways are scanned."""
        problems = []
        for name, _ in self.charts:
            problems.extend("chart %s: %s" % (name, p)
                            for p in validate_presheaf(self.locals[name]))
        lawful = not problems
        names = self.names()
        one_way = [(a, b) for k, a in enumerate(names) for b in names[k:]]
        if not lawful or next(self._transition_problems(one_way, True), None):
            problems.extend(self._transition_problems(self.transitions,
                                                      lawful))
        return problems


def glue_presheaves(datum):
    """The standard glued presheaf of a gluing datum.

    Sections over an open are the transition-compatible tuples of local
    sections over the chart traces, each labelled by the ``|``-join of its
    local labels; restrictions act componentwise.  Returns the glued
    presheaf together with the projections onto the chart sides, each over
    the opens of its own chart, the only ones ``presheaf_effective_check``
    reads.  Compatibility is one constraint per pair of charts a < b, and
    one per chart whose transition to itself is not the identity; each
    step of the enumeration is charged to the cap, not the product of the
    trace section sets.

    The datum is checked and each local presheaf must be a sheaf on its
    default coverings; it is when it is a sheaf on its basic coverings, and
    the default ones are scanned only otherwise.  The result is then not
    checked again: it is the equalizer of products of direct images of
    those sheaves, so it is a sheaf, and its restrictions and projections
    are built unchecked.
    """
    problems = datum.validate()
    if problems:
        raise StructuralError("invalid gluing datum: " + "; ".join(problems))
    names = datum.names()
    for name in names:
        local = datum.locals[name]
        if _sheaf_everywhere(local, basic_coverings(local.lattice)):
            continue
        ok, counter = is_sheaf(local, default_coverings(local.lattice))
        if not ok:
            raise StructuralError(
                "local presheaf of chart %r is not a sheaf: %r"
                % (name, describe(local, counter)))
    locals_ = [datum.locals[n] for n in names]
    members = [datum.members(n) for n in names]
    lat = OpenLattice(datum.space)
    sections = {}
    combos = {}
    for o in lat.opens:
        traces = [o & m for m in members]
        cons = []
        for a, na in enumerate(names):
            for b in range(a, len(names)):
                meet = traces[a] & traces[b]
                across = datum.transition(na, names[b], meet)
                if len(across) <= 1 or a == b \
                        and across == identity(len(across)):
                    continue
                cons.append((a, b,
                             compose(locals_[a].res[(traces[a], meet)],
                                     across),
                             locals_[b].res[(traces[b], meet)]))
        combos[o] = compatible_tuples(
            [range(len(loc.sections[tr])) for loc, tr in zip(locals_, traces)],
            cons, "glued sections at one open")
        local = [loc.sections[tr] for loc, tr in zip(locals_, traces)]
        labels = [SEP.join(map(getitem, local, combo)) if combo
                  else EMPTY_SECTION for combo in combos[o]]
        if len(set(labels)) != len(labels):
            _refuse_labels(labels)    # a local label holds the separator
        sections[o] = tuple(labels)
    res = {}
    for v in lat.opens:
        at = dict(zip(combos[v], range(len(combos[v]))))
        for w in lat.opens:
            if w == v or v & ~w:
                continue
            maps = [loc.res[(w & m, v & m)] for loc, m in zip(locals_, members)]
            res[(w, v)] = trusted_table(
                [at[tuple(map(getitem, maps, combo))]
                 for combo in combos[w]], sections[w], sections[v])
    glued = PresheafStore(lat, sections, res)
    projections = {}
    for k, n in enumerate(names):
        projections[n] = {
            o: trusted_table([combo[k] for combo in combos[o]], sections[o],
                             locals_[k].sections[o])
            for o in locals_[k].lattice.opens}
    return glued, projections


def presheaf_effective_check(datum, projections):
    """The identity and triple-overlap cocycle conditions on the transitions
    of a checked datum, and, independently, whether every projection over
    the opens of its own chart is a componentwise bijection; reports all
    three so their equivalence is observable.

    The transitions are mutually inverse bijections.  So every degenerate
    triple, such as (a, a, c), (a, c, c) or (a, c, a), holds exactly when
    every diagonal transition is the identity, and one ordering of three
    distinct charts holds exactly when all six do.  The cocycle condition
    is therefore the identity condition and the cocycle on each set of
    three charts in chart order.
    """
    names = datum.names()
    chart_opens = {n: datum.locals[n].lattice.opens for n in names}
    identity_ok = all(
        datum.transition(n, n, o) == identity(len(datum.locals[n].sections[o]))
        for n in names for o in chart_opens[n])
    cocycle_ok = identity_ok and all(
        compose(datum.transition(a, b, o), datum.transition(b, c, o))
        == datum.transition(a, c, o)
        for a, b, c in combinations(names, 3)
        for o in OpenLattice(datum.space, datum.members(a) & datum.members(b)
                             & datum.members(c)).opens)
    psi_ok = all(is_iso_table(projections[n][o],
                              len(datum.locals[n].sections[o]))
                 for n in names for o in chart_opens[n])
    return {
        "identity_ok": identity_ok,
        "cocycle_ok": cocycle_ok,
        "psi_restriction_bijective": psi_ok,
        "equivalence_holds": (identity_ok and cocycle_ok) == psi_ok,
    }


def glue_nat_trans(datum_space, charts, source, target, parts):
    """Glue chart-local transformations into one transformation.

    ``charts`` is the open cover, ``parts`` maps chart names to NatTrans on
    the chart lattices between the restrictions of ``source`` and ``target``.
    Each part must be natural (decided on the covering pairs of its chart
    lattice, for a source and target whose laws hold, which ``glue-map``
    checks first), the parts must agree on pairwise overlaps and the target
    must be a sheaf on the covers the charts induce.  So the glued
    transformation is natural and restricts to every part, and its
    components are built unchecked."""
    lat = source.lattice
    if lat != target.lattice or lat != OpenLattice(datum_space):
        raise StructuralError("source and target must live on the cover space")
    if reduce(or_, [m for _, m in charts], 0) != lat.top:
        raise StructuralError("charts do not cover the space")
    for name, members in charts:
        if name not in parts:
            raise StructuralError("no part for chart %r" % name)
        part = parts[name]
        comp, sub = part.components, part.source.lattice
        if not _natural(comp, part.source, part.target, sub.covering):
            broken = ["naturality fails from %r to %r"
                      % (sub.names(w), sub.names(v))
                      for w, v in _unnatural(comp, part.source, part.target,
                                             sub.pairs_below())]
            raise StructuralError("part %r is not natural: %s"
                                  % (name, "; ".join(broken)))
        if sub != OpenLattice(datum_space, members):
            raise StructuralError("part %r lives on the wrong chart" % name)
    for a, am in charts:
        for b, bm in charts:
            if a >= b:
                continue
            overlap = OpenLattice(datum_space, am & bm)
            for o in overlap.opens:
                if parts[a].components[o] != parts[b].components[o]:
                    raise StructuralError(
                        "parts %r and %r disagree at the overlap open %r"
                        % (a, b, overlap.names(o)))
    # sheaf condition of the target on the induced covers; it holds when the
    # target is a sheaf on its basic covers, so they are scanned only otherwise
    if not _sheaf_everywhere(target, basic_coverings(lat)):
        for v in lat.opens:
            induced = (v, [v & m for _, m in charts])
            ok, counter = is_sheaf(target, [induced])
            if not ok:
                raise StructuralError(
                    "target fails the sheaf condition on the induced cover of "
                    "%r: %r" % (lat.names(v), describe(target, counter)))
    # the target is separated on each induced cover, so a tuple of chart
    # sections names at most one section of the target
    components = {}
    for v in lat.opens:
        traces = [v & m for _, m in charts]
        image, _ = _joint_restriction(target, v, traces)
        steps = [compose(source.res[(v, tr)], parts[name].components[tr])
                 for (name, _), tr in zip(charts, traces)]
        keys = zip(*steps) if steps else repeat((), len(source.sections[v]))
        try:
            table = [image[key] for key in keys]
        except KeyError:
            raise StructuralError("gluing failed at open %r: 0 candidate "
                                  "sections" % lat.names(v)) from None
        components[v] = trusted_table(table, source.sections[v],
                                      target.sections[v])
    return NatTrans(source, target, components)
