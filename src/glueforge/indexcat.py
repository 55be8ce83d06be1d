"""Truncated power-set index categories.

Objects are tuples of index labels: ``(i,)`` for a singleton, a sorted pair
``(i, j)`` in nonsplit mode (an unordered two-element subset), an arbitrary
ordered pair in split mode.  Morphisms are stored in a normal form
``(src, dst, word)`` where ``word`` is a tuple of generator keys applied left
to right; the empty word is the identity.  Generator keys are

    ("incl", i, pair)   the inclusion of the singleton i into pair
    ("tau", (i, j))     the swap isomorphism with source (i, j), split only

and normalization cancels adjacent inverse swaps, which encodes the law
``tau[j,i] . tau[i,j] = id`` (including ``i = j``, where the swap is an
involution that need not be the identity).

Documents name an object by its labels joined with commas; ``keys`` maps
every spelling a document may use, ``i`` and ``i,j`` and in nonsplit mode
``j,i`` too, to its object, so a parser resolves a key with one lookup.
"""

from itertools import combinations, product as iproduct

from .errors import StructuralError

NONSPLIT = "nonsplit"
SPLIT = "split"


def gen_endpoints(key):
    kind = key[0]
    if kind == "incl":
        return (key[1],), key[2]
    if kind == "tau":
        i, j = key[1]
        return (i, j), (j, i)
    raise StructuralError("unknown generator key %r" % (key,))


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


class IndexCat:
    """The (split) truncated power-set category of a finite index set."""

    __slots__ = ("mode", "index", "objects", "generators", "keys")

    def __init__(self, mode, index):
        if mode not in (NONSPLIT, SPLIT):
            raise StructuralError("mode must be 'split' or 'nonsplit'")
        if len(index) == 0:
            raise StructuralError("index set must be nonempty")
        objects = [(i,) for i in index]
        keys = dict(zip(index.labels, objects))
        generators = []
        if mode == NONSPLIT:
            for i, j in combinations(index.labels, 2):
                pair = (i, j)
                objects.append(pair)
                keys[i + "," + j] = keys[j + "," + i] = pair
                generators.append(("incl", i, pair))
                generators.append(("incl", j, pair))
        else:
            for i, j in iproduct(index.labels, index.labels):
                objects.append((i, j))
                keys[i + "," + j] = (i, j)
            for i, j in iproduct(index.labels, index.labels):
                generators.append(("incl", i, (i, j)))
                generators.append(("tau", (i, j)))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "objects", tuple(objects))
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "keys", keys)

    def __setattr__(self, name, value):
        raise AttributeError("IndexCat is immutable")

    def __eq__(self, other):
        return (isinstance(other, IndexCat) and self.mode == other.mode
                and self.index == other.index)

    def __hash__(self):
        return hash((self.mode, self.index))

    def pair(self, i, j):
        """The canonical pair object holding i and j (sorted in nonsplit mode)."""
        if self.mode == NONSPLIT:
            if i == j:
                raise StructuralError("nonsplit pairs need distinct indices")
            at = self.index.position
            return (i, j) if at(i) < at(j) else (j, i)
        return (i, j)

    def singletons(self):
        return [(i,) for i in self.index]

    def pairs(self):
        return [a for a in self.objects if len(a) == 2]

    def has_object(self, obj):
        return obj in self.objects

    def id_mor(self, obj):
        if not self.has_object(obj):
            raise StructuralError("no object %r" % (obj,))
        return (obj, obj, ())

    def gen_mor(self, key):
        src, dst = gen_endpoints(key)
        if key not in self.generators:
            raise StructuralError("no generator %r in this category" % (key,))
        return (src, dst, (key,))

    def compose(self, m2, m1):
        """The composite m2 . m1 in normal form."""
        if m1[1] != m2[0]:
            raise StructuralError("morphisms are not composable: %r then %r"
                                  % (m1, m2))
        return (m1[0], m2[1], normalize(m1[2] + m2[2]))

    def incl(self, i, j):
        """The inclusion morphism of singleton i into the pair holding i, j."""
        return self.gen_mor(("incl", i, self.pair(i, j)))

    def tau(self, i, j):
        if self.mode != SPLIT:
            raise StructuralError("tau exists only in split mode")
        return self.gen_mor(("tau", (i, j)))

    def composable_generator_pairs(self):
        """All pairs (g1, g2) of generators with g1 target = g2 source."""
        out = []
        for g1 in self.generators:
            _, mid = gen_endpoints(g1)
            for g2 in self.generators:
                src2, _ = gen_endpoints(g2)
                if src2 == mid:
                    out.append((g1, g2))
        return out
