"""Finite spaces as minimal open neighbourhoods, in plain Python.

A finite space is a list of points plus ``nbhd``, the smallest open set
around each point.  Its opens are exactly the unions of those sets.  The
document generators and the reference checkers both use this module; it does
not import glueforge, so the checkers stay independent of the engine.
"""


def opens_of(points, nbhd):
    """Every open set: all unions of minimal neighbourhoods (and the empty set)."""
    seen = {frozenset()}
    stack = [frozenset()]
    while stack:
        s = stack.pop()
        for p in points:
            if p not in s:
                t = s | nbhd[p]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def neighbourhoods(points, opens):
    """The minimal open neighbourhood of each point of a listed topology."""
    full = frozenset(points)
    out = {}
    for p in points:
        u = full
        for o in opens:
            if p in o:
                u = u & o
        out[p] = u
    return out


def ordered(points, subset):
    pos = {p: k for k, p in enumerate(points)}
    return sorted(subset, key=pos.__getitem__)


def space_json(points, nbhd):
    """The document form ``{"points", "opens"}``, opens in a fixed order."""
    pos = {p: k for k, p in enumerate(points)}
    opens = sorted(opens_of(points, nbhd),
                   key=lambda o: (len(o), sorted(pos[x] for x in o)))
    return {"points": list(points),
            "opens": [ordered(points, o) for o in opens]}


def subspace(points, nbhd, members):
    members = frozenset(members)
    pts = [p for p in points if p in members]
    return pts, {p: nbhd[p] & members for p in pts}


def chain(labels):
    """The finite chain: the k-th point's neighbourhood is the first k+1 points."""
    nbhd = {}
    acc = frozenset()
    for lab in labels:
        acc = acc | {lab}
        nbhd[lab] = acc
    return list(labels), nbhd


def discrete(labels):
    return list(labels), {lab: frozenset([lab]) for lab in labels}


def indiscrete(labels):
    full = frozenset(labels)
    return list(labels), {lab: full for lab in labels}


def tree(labels, parent):
    """A rooted tree: each point's neighbourhood is itself and its ancestors."""
    nbhd = {}
    for lab in labels:
        chain_up = {lab}
        p = parent.get(lab)
        while p is not None:
            chain_up.add(p)
            p = parent.get(p)
        nbhd[lab] = frozenset(chain_up)
    return list(labels), nbhd


def final_nbhd(apex, maps, spaces):
    """Minimal neighbourhoods of the final topology on ``apex`` along
    ``maps[k]: spaces[k] -> apex``: the reachability closure of the image
    preorders."""
    step = {q: {q} for q in apex}
    for fn, (pts, nb) in zip(maps, spaces):
        for x in pts:
            step[fn[x]].update(fn[y] for y in nb[x])
    out = {}
    for q in apex:
        seen = {q}
        stack = [q]
        while stack:
            r = stack.pop()
            for s in step[r]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        out[q] = frozenset(seen)
    return out


def initial_nbhd(apex, maps, spaces):
    """Minimal neighbourhoods of the initial topology on ``apex`` along
    ``maps[k]: apex -> spaces[k]``: the intersection of the pulled-back
    neighbourhoods."""
    out = {}
    for a in apex:
        u = set(apex)
        for fn, (_, nb) in zip(maps, spaces):
            target = nb[fn[a]]
            u = {b for b in u if fn[b] in target}
        out[a] = frozenset(u)
    return out


def map_properties(fn, dom_opens, cod_opens):
    """Injective, surjective, open and embedding flags of a continuous map
    between listed topologies (all opens given as frozensets)."""
    values = list(fn.values())
    image = frozenset(values)
    cod_points = frozenset().union(*cod_opens) if cod_opens else frozenset()
    injective = len(image) == len(values)
    forward = {frozenset(fn[x] for x in o) for o in dom_opens}
    return {
        "continuous": True,
        "injective": injective,
        "surjective": image == cod_points,
        "open": forward <= set(cod_opens),
        "embedding": injective and forward == {o & image for o in cod_opens},
    }
