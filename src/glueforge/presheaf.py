"""Presheaves on the open-set lattice of a finite topological space.

This is the decidable concretization of presheaves on a localized site: the
objects are the opens of a finite space, and a covering of an open is any
family of opens with that union.  The default covering list per open is the
trivial cover, the cover by all maximal proper open subsets when they do
cover, and the empty cover of the empty open (which forces a one-point
section set at the empty open for sheaves).

The minimal neighbourhoods of the points form a basis, so separation and the
sheaf condition are decided on one basic cover per open
(``basic_coverings``), and composition of restrictions on the covering
relations of the lattice of opens.  A listed family of coverings is scanned
only to name the first counterexample of a false verdict.  Naturality of
transitions and of the parts of a glued transformation is decided on the
same covering relations, between presheaves whose laws hold; every pair is
scanned only otherwise, or to name a failure.  Every lattice is the opens
of one document space inside an open U (a chart, an overlap, a triple),
which for U open are those of the subspace on U, in the same order.  So
opens are int masks of that space's points, filtered from its one listing,
and labels appear only in keys and error texts.

Chart data is read once per unordered pair and per set of three charts.
The transitions of a checked datum are mutually inverse bijections, so
the condition a pair of charts puts on glued sections through
phi_ba = phi_ab^-1 is the one it puts through phi_ab, and one ordering of
three distinct charts gives the cocycle on all six (Mac Lane and Moerdijk
1992; Hartshorne, Ex. II.1.22).  ``GluingDatum.validate`` checks each
transition only from the earlier chart to the later one, or to itself,
when every local presheaf is lawful; the reverse is then the inverse of a
natural bijection, and the two-way scan runs only to name a failure.  A
diagonal transition constrains glued sections only where it is not the
identity, and a degenerate triple holds exactly when the identity
condition does.  Finally, no compatibility constraint goes through an
open with at most one section: any two restrictions into such a set
agree.
"""

from functools import reduce
from itertools import combinations, tee
from operator import itemgetter, or_

from .errors import ResourceError, StructuralError, charge
from .fincat import SEP, FinFn, FinSet, commutes, compatible_tuples, is_iso

EMPTY_SECTION = "()"


class OpenLattice:
    """The opens of a finite space inside its open ``top`` (the whole space
    when None), as masks in ``FinTop.opens`` order, ordered by inclusion."""

    __slots__ = ("space", "top", "opens")

    def __init__(self, space, top=None):
        if top is None:
            top = (1 << len(space.carrier)) - 1
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "opens", tuple(
            o for o in space.open_masks() if not o & ~top))

    def __setattr__(self, name, value):
        raise AttributeError("OpenLattice is immutable")

    def key(self, o):
        """The points of the open ``o`` in carrier order, comma-joined."""
        return ",".join(self.space.points(o))

    def names(self, o):
        """The sorted labels of the points of ``o``, for error texts."""
        return sorted(self.space.points(o))

    def find(self, labels):
        """The open whose points ``labels`` name, else None, also when a
        label names no point."""
        o = self.space.mask(labels)
        return o if o in self.opens else None

    def maximal(self):
        """Each open with its maximal proper opens (the space's), in order."""
        kept = self.space.maximal_masks()
        return [(u, kept[u]) for u in self.opens]

    def pairs_below(self):
        """All comparable pairs (W, V) with V a subset of W."""
        return [(w, v) for w in self.opens for v in self.opens if not v & ~w]

    def __eq__(self, other):
        return isinstance(other, OpenLattice) and self.top == other.top \
            and self.space == other.space


class PresheafStore:
    """Sections per open plus a restriction map for every inclusion."""

    __slots__ = ("lattice", "sections", "res")

    def __init__(self, lat, sections, res):
        sections = dict(sections)
        res = dict(res)
        for o in lat.opens:
            if o not in sections:
                raise StructuralError("no section set at open %r" % lat.names(o))
        for w, v in lat.pairs_below():
            if w == v:
                res.setdefault((w, v), FinFn.identity(sections[w]))
            elif (w, v) not in res:
                raise StructuralError("no restriction map from %r to %r"
                                      % (lat.names(w), lat.names(v)))
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "res", res)

    def __setattr__(self, name, value):
        raise AttributeError("PresheafStore is immutable")


def _composes_on_covers(store, below):
    """Whether res(x, v) = res(w, v) . res(x, w) wherever ``w`` is a maximal
    proper open of ``x`` and ``v`` is below ``w``.  With the identities this
    gives every triple, by induction on the length of a chain from x to w.
    Each map is read as the tuple of its values on the sections over x."""
    res = store.res
    for x, maximal in store.lattice.maximal():
        labels = store.sections[x].labels
        if not labels:    # nothing to compare, and no itemgetter of nothing
            continue
        direct = itemgetter(*labels)
        for w in maximal:
            first = res[(x, w)].mapping
            composite = itemgetter(*map(first.__getitem__, labels))
            for v in below[w]:
                if composite(res[(w, v)].mapping) != \
                        direct(res[(x, v)].mapping):
                    return False
    return True


def validate_presheaf(store):
    """Violated identity or composition laws among the restriction maps.

    Composition is decided on the covering pairs of the lattice of opens;
    only when that or an identity fails is every triple v <= w <= x scanned,
    to name each one that fails."""
    problems = []
    lat = store.lattice
    below = {o: [] for o in lat.opens}
    for w, v in lat.pairs_below():
        below[w].append(v)
        fn = store.res[(w, v)]
        if fn.domain != store.sections[w] or fn.codomain != store.sections[v]:
            problems.append("restriction %r -> %r has wrong endpoints"
                            % (lat.names(w), lat.names(v)))
    if problems:
        return problems
    for o in lat.opens:
        fn = store.res[(o, o)]
        if any(fn.mapping[s] != s for s in store.sections[o]):
            problems.append("restriction at %r is not the identity"
                            % lat.names(o))
    if not problems and _composes_on_covers(store, below):
        return problems
    for x, w in lat.pairs_below():
        first = store.res[(x, w)].mapping
        for v in lat.opens:
            if v & ~w:
                continue
            direct = store.res[(x, v)].mapping
            then = store.res[(w, v)].mapping
            if any(direct[s] != then[first[s]] for s in store.sections[x]):
                problems.append(
                    "restriction composition %r -> %r -> %r disagrees "
                    "with the direct map"
                    % (lat.names(x), lat.names(w), lat.names(v)))
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
    if u not in lat.opens:
        raise StructuralError("covered set %r is not open" % lat.names(u))
    for v in parts:
        if v not in lat.opens:
            raise StructuralError("covering member %r is not open" % lat.names(v))
        if v & ~u:
            raise StructuralError("covering member %r is not below %r"
                                  % (lat.names(v), lat.names(u)))
    if reduce(or_, parts, 0) != u:
        raise StructuralError("family does not cover %r" % lat.names(u))


def _compatible_families(store, parts):
    cons = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            meet = parts[a] & parts[b]
            if len(store.sections[meet]) <= 1:    # any two restrictions agree
                continue
            cons.append((a, b, store.res[(parts[a], meet)].mapping,
                         store.res[(parts[b], meet)].mapping))
    return compatible_tuples([store.sections[v].labels for v in parts], cons,
                             "families over a covering")


def _joint_restriction(store, u, parts):
    """The joint restriction F(u) -> prod F(v) over ``parts``: each section
    over ``u`` keyed by its tuple of restrictions, and the first two sections
    that share a key (``None`` when it is injective; the scan stops there)."""
    maps = [store.res[(u, v)].mapping for v in parts]
    image = {}
    for s in store.sections[u]:
        key = tuple(m[s] for m in maps)
        if key in image:
            return image, (image[key], s)
        image[key] = s
    return image, None


def _unseparated(store, covering):
    """The separation counterexample of one checked covering, or None."""
    u, parts = covering
    _, clash = _joint_restriction(store, u, parts)
    if clash:
        return {"open": u, "parts": parts, "sections": clash}
    return None


def _unglued(store, covering):
    """The sheaf counterexample of one checked covering, or None."""
    u, parts = covering
    families = _compatible_families(store, parts)
    image, clash = _joint_restriction(store, u, parts)
    if clash:
        return {"open": u, "parts": parts, "sections": clash,
                "kind": "separation"}
    for fam in families:
        if fam not in image:
            return {"open": u, "parts": parts, "family": fam, "kind": "gluing"}
    return None


def describe(lat, counter):
    """A counterexample of ``is_separated`` or ``is_sheaf`` as reports and
    error texts word it: its opens by their keys, its sections as lists."""
    if counter is None:
        return None
    out = dict(counter, open=lat.key(counter["open"]),
               parts=[lat.key(v) for v in counter["parts"]])
    for name in ("sections", "family"):
        if name in out:
            out[name] = list(out[name])
    return out


def is_separated(store, coverings):
    """Injectivity of the joint restriction along every listed covering."""
    for covering in coverings:
        _check_covering(store.lattice, covering)
        counter = _unseparated(store, covering)
        if counter:
            return False, counter
    return True, None


def is_sheaf(store, coverings):
    """Bijectivity between sections and compatible families per covering."""
    for covering in coverings:
        _check_covering(store.lattice, covering)
        counter = _unglued(store, covering)
        if counter:
            return False, counter
    return True, None


def _sheaf_everywhere(store):
    """Whether a presheaf whose laws hold is a sheaf for every covering.

    False also when its basic coverings would enumerate past the cap: the
    verdict is then left to the caller's own scans, which charge what they
    would have charged without this check."""
    try:
        return is_sheaf(store, basic_coverings(store.lattice))[0]
    except ResourceError:
        return False


def sheaf_verdicts(store, listed, check_listed=False):
    """``is_separated`` and ``is_sheaf`` along the listed coverings, as
    ``(separated, separation counterexample, sheaf, sheaf counterexample)``,
    for a presheaf whose laws hold.

    Both verdicts are decided on ``basic_coverings`` where those fit the
    cap, and a true one holds for every covering.  Only a false one is
    worded by scanning the listed coverings in order, so the counterexamples
    are the scans' own.  ``listed`` is a function of no arguments that
    returns the listed coverings, as a list or lazily.  It is called only
    when a verdict is false, or when ``check_listed`` asks for every listed
    covering to be checked, as for coverings read from a document.  The
    separation scan checks what it reads, and runs only then or for a
    presheaf that is not separated; the sheaf scan reads no further, except
    over the engine's own listings, valid by construction.  The scans share
    one listing, and neither reads past its counterexample.
    """
    lat = store.lattice
    if _sheaf_everywhere(store):
        if check_listed:
            for covering in listed():
                _check_covering(lat, covering)
        return True, None, True, None
    separated = is_separated(store, basic_coverings(lat))[0]
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
    if top not in lat.opens:
        raise StructuralError("%r is not open" % lat.names(top))
    sub = OpenLattice(lat.space, top)
    sections = {o: store.sections[o] for o in sub.opens}
    res = {(w, v): store.res[(w, v)] for w, v in sub.pairs_below()}
    return PresheafStore(sub, sections, res)


class NatTrans:
    """A transformation between presheaves on one lattice, one component map
    per open; naturality with restrictions is a checked law."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        if source.lattice != target.lattice:
            raise StructuralError("natural transformations need a shared lattice")
        lat = source.lattice
        components = dict(components)
        for o in lat.opens:
            if o not in components:
                raise StructuralError("no component at open %r" % lat.names(o))
            fn = components[o]
            if fn.domain != source.sections[o] or fn.codomain != target.sections[o]:
                raise StructuralError("component at %r has wrong endpoints"
                                      % lat.names(o))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("NatTrans is immutable")

    def validate(self):
        lat = self.source.lattice
        return ["naturality fails from %r to %r" % (lat.names(w), lat.names(v))
                for w, v in _unnatural(self.components, self.source,
                                       self.target, lat)]


def _unnatural(comp, source, target, lattice):
    """The pairs ``(w, v)`` of ``lattice`` at which the components ``comp``
    do not commute with the restrictions of ``source`` and ``target``."""
    return [(w, v) for w, v in lattice.pairs_below()
            if not commutes((comp[w], target.res[(w, v)]),
                            (source.res[(w, v)], comp[v]))]


def _natural_on_covers(comp, source, target, lattice):
    """Whether the components ``comp`` commute with the restrictions at each
    pair (w, u), u a maximal proper open of w.

    When ``source`` and ``target`` satisfy the presheaf laws this is
    naturality at every pair v <= w: for v < w pick a maximal proper u of w
    above v, and the square at (w, v) is the square at (u, v) pasted to the
    one at (w, u); the squares at (w, w) hold by the identity laws.  Without
    the laws it says nothing, and callers scan with ``_unnatural``."""
    return all(commutes((comp[w], target.res[(w, u)]),
                        (source.res[(w, u)], comp[u]))
               for w, maximal in lattice.maximal() for u in maximal)


class GluingDatum:
    """A cover of a space by named open charts (masks), a presheaf per chart
    on its lattice, and a natural family of transition bijections over the
    pairwise overlaps.

    Transitions are oriented chart-i side to chart-j side; the inverse
    orientation is filled in automatically and the convention that the two
    orientations are mutually inverse is enforced.  The diagonal transition
    defaults to the identity.
    """

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
        transitions = {k: dict(v) for k, v in transitions.items()}
        full = {}
        for a, am in charts:
            for b, bm in charts:
                lattice = OpenLattice(space, am & bm)
                given = (a, b) if (a, b) in transitions else (b, a)
                if given in transitions:
                    comp = transitions[given]
                    outside = [o for o in comp if o not in lattice.opens]
                    if outside:
                        raise StructuralError(
                            "transition %r -> %r has a component at %r, an "
                            "open outside the overlap"
                            % (given + (lattice.names(outside[0]),)))
                    if given != (a, b):
                        comp = {o: fn.inverse() for o, fn in comp.items()}
                elif a == b:
                    comp = {o: FinFn.identity(locals_[a].sections[o])
                            for o in lattice.opens}
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

    def _holds_one_way(self):
        """Whether each transition a -> b with a no later than b in chart
        order has the right endpoints, is a bijection, is undone by b -> a
        at each open and is natural on the covering pairs of its overlap
        lattice.  Between lawful local presheaves b -> a is then the
        inverse of a natural bijection, so it passes the same checks."""
        for k, (a, _) in enumerate(self.charts):
            for b, _ in self.charts[k:]:
                comp, inv = self.transitions[(a, b)], self.transitions[(b, a)]
                source, target = self.locals[a], self.locals[b]
                if comp.keys() != inv.keys():
                    return False
                for o, fn in comp.items():
                    if fn.domain != source.sections[o] \
                            or fn.codomain != target.sections[o] \
                            or not is_iso(fn) or not commutes((fn, inv[o])):
                        return False
                lattice = OpenLattice(self.space,
                                      self.members(a) & self.members(b))
                if not _natural_on_covers(comp, source, target, lattice):
                    return False
        return True

    def validate(self):
        """The broken laws of the datum.  When every local presheaf
        satisfies the laws, each transition is checked one way only
        (``_holds_one_way``), naturality on the covering pairs of each
        overlap lattice.  Otherwise, and to name a failure, both ways are
        scanned, naturality on the covering pairs where the laws hold and
        the transition's endpoints are right, and at every pair else."""
        problems = []
        for name, _ in self.charts:
            problems.extend("chart %s: %s" % (name, p)
                            for p in validate_presheaf(self.locals[name]))
        lawful = not problems
        if lawful and self._holds_one_way():
            return problems
        for (a, b), comp in self.transitions.items():
            lattice = OpenLattice(self.space, self.members(a) & self.members(b))
            ends_ok = True
            for o, fn in comp.items():
                if fn.domain != self.locals[a].sections[o] \
                        or fn.codomain != self.locals[b].sections[o]:
                    problems.append("transition %r -> %r at %r has wrong "
                                    "endpoints" % (a, b, lattice.names(o)))
                    ends_ok = False
                    continue
                if not is_iso(fn):
                    problems.append("transition %r -> %r at %r is not a "
                                    "bijection" % (a, b, lattice.names(o)))
            inv = self.transitions[(b, a)]
            for o, fn in comp.items():
                if not commutes((fn, inv[o])):
                    problems.append("transitions %r <-> %r at %r are not "
                                    "mutually inverse"
                                    % (a, b, lattice.names(o)))
            if lawful and ends_ok and _natural_on_covers(
                    comp, self.locals[a], self.locals[b], lattice):
                continue
            problems.extend(
                "transition %r -> %r is not natural from %r to %r"
                % (a, b, lattice.names(w), lattice.names(v))
                for w, v in _unnatural(comp, self.locals[a], self.locals[b],
                                       lattice))
        return problems


def glue_presheaves(datum):
    """The standard glued presheaf of a gluing datum.

    Sections over an open are the transition-compatible tuples of local
    sections over the chart traces; restrictions act componentwise.  Returns
    the glued presheaf together with the projections onto the chart sides,
    each over the opens of its own chart, the only ones
    ``presheaf_effective_check`` reads.

    Compatibility is one constraint per pair of charts a < b: through the
    inverse of phi_ab, which the datum's check has confirmed, b -> a states
    the same condition.  The diagonal constraint of a chart is kept only
    where its transition is not the identity, and no constraint goes
    through a meet with at most one section, where it holds always.  Each
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
        if _sheaf_everywhere(local):
            continue
        ok, counter = is_sheaf(local, default_coverings(local.lattice))
        if not ok:
            raise StructuralError(
                "local presheaf of chart %r is not a sheaf: %r"
                % (name, describe(local.lattice, counter)))
    locals_ = [datum.locals[n] for n in names]
    members = [datum.members(n) for n in names]
    lat = OpenLattice(datum.space)
    sections = {}
    tuples = {}
    for o in lat.opens:
        traces = [o & m for m in members]
        domains = [loc.sections[tr].labels for loc, tr in zip(locals_, traces)]
        cons = []
        for a, na in enumerate(names):
            for b in range(a, len(names)):
                meet = traces[a] & traces[b]
                across = datum.transition(na, names[b], meet).mapping
                if len(across) <= 1 or a == b and all(
                        x == y for x, y in across.items()):
                    continue
                to_meet = locals_[a].res[(traces[a], meet)].mapping
                key_a = {x: across[y] for x, y in to_meet.items()}
                key_b = locals_[b].res[(traces[b], meet)].mapping
                cons.append((a, b, key_a, key_b))
        labels = []
        for combo in compatible_tuples(domains, cons, "glued sections at one open"):
            labels.append(SEP.join(combo) if combo else EMPTY_SECTION)
            tuples[(o, labels[-1])] = combo
        sections[o] = FinSet.from_distinct(labels)
    res = {}
    for w, v in lat.pairs_below():
        maps = [loc.res[(w & m, v & m)].mapping
                for loc, m in zip(locals_, members)]
        mapping = {}
        for lab in sections[w]:
            restricted = [f[x] for f, x in zip(maps, tuples[(w, lab)])]
            mapping[lab] = SEP.join(restricted) if restricted else EMPTY_SECTION
        res[(w, v)] = FinFn.from_total(sections[w], sections[v], mapping)
    glued = PresheafStore(lat, sections, res)
    projections = {}
    for k, n in enumerate(names):
        projections[n] = {
            o: FinFn.from_total(
                sections[o], locals_[k].sections[o],
                {lab: tuples[(o, lab)][k] for lab in sections[o]})
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
        all(x == y for x, y in datum.transition(n, n, o).mapping.items())
        for n in names for o in chart_opens[n])
    cocycle_ok = identity_ok and all(
        commutes((datum.transition(a, b, o), datum.transition(b, c, o)),
                 (datum.transition(a, c, o),))
        for a, b, c in combinations(names, 3)
        for o in OpenLattice(datum.space, datum.members(a) & datum.members(b)
                             & datum.members(c)).opens)
    psi_ok = all(is_iso(projections[n][o]) for n in names
                 for o in chart_opens[n])
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
    Each part must be natural, the parts must agree on pairwise overlaps and
    the target must satisfy the sheaf condition for all covers induced by
    the charts; all three are checked for a source and target whose laws
    hold (``glue-map`` checks them first), so naturality is decided on the
    covering pairs of each chart lattice.  They make the glued
    transformation natural and make it restrict back to every part, so
    neither is checked again and its components are built unchecked.
    """
    lat = source.lattice
    if lat != target.lattice or lat != OpenLattice(datum_space):
        raise StructuralError("source and target must live on the cover space")
    if reduce(or_, [m for _, m in charts], 0) != lat.top:
        raise StructuralError("charts do not cover the space")
    for name, members in charts:
        if name not in parts:
            raise StructuralError("no part for chart %r" % name)
        part = parts[name]
        problems = [] if _natural_on_covers(
            part.components, part.source, part.target,
            part.source.lattice) else part.validate()
        if problems:
            raise StructuralError("part %r is not natural: %s"
                                  % (name, "; ".join(problems)))
        if part.source.lattice != OpenLattice(datum_space, members):
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
    if not _sheaf_everywhere(target):
        for v in lat.opens:
            induced = (v, [v & m for _, m in charts])
            ok, counter = is_sheaf(target, [induced])
            if not ok:
                raise StructuralError(
                    "target fails the sheaf condition on the induced cover of "
                    "%r: %r" % (lat.names(v), describe(lat, counter)))
    # the target is separated on each induced cover, so a tuple of chart
    # sections names at most one section of the target
    components = {}
    for v in lat.opens:
        traces = [v & m for _, m in charts]
        image, _ = _joint_restriction(target, v, traces)
        steps = [(source.res[(v, tr)].mapping, parts[name].components[tr])
                 for (name, _), tr in zip(charts, traces)]
        mapping = {}
        for s in source.sections[v]:
            wanted = tuple(part(to_tr[s]) for to_tr, part in steps)
            if wanted not in image:
                raise StructuralError("gluing failed at open %r: 0 candidate "
                                      "sections" % lat.names(v))
            mapping[s] = image[wanted]
        components[v] = FinFn.from_total(source.sections[v],
                                         target.sections[v], mapping)
    return NatTrans(source, target, components)
