"""Truncated power-set index categories.

Objects are tuples of index labels: ``(i,)`` for a singleton, a sorted pair
``(i, j)`` in nonsplit mode (an unordered two-element subset), an arbitrary
ordered pair in split mode.  Generator keys are

    ("incl", i, pair)   the inclusion of the singleton i into pair
    ("tau", (i, j))     the swap isomorphism with source (i, j), split only

and a gluing functor is given by one map per generator.  ``ends`` gives
each generator its ``(source, target)`` objects, recorded where the key
is made, so no key is parsed back.  The morphism algebra (words of
generators in normal form, composition and the law ``tau[j,i] . tau[i,j]
= id``) serves only the paper's functors between index categories, and
lives with them in ``tests/paper.py``.

Documents name an object by its labels joined with commas; ``keys`` maps
every spelling a document may use, ``i`` and ``i,j`` and in nonsplit mode
``j,i`` too, to its object, so a parser resolves a key with one lookup.
"""

from itertools import combinations, product as iproduct

from .errors import StructuralError

NONSPLIT = "nonsplit"
SPLIT = "split"


class IndexCat:
    """The (split) truncated power-set category of a finite index set."""

    __slots__ = ("mode", "index", "objects", "generators", "ends", "keys")

    def __init__(self, mode, index):
        if mode not in (NONSPLIT, SPLIT):
            raise StructuralError("mode must be 'split' or 'nonsplit'")
        if len(index) == 0:
            raise StructuralError("index set must be nonempty")
        objects = [(i,) for i in index]
        keys = dict(zip(index.labels, objects))
        ends = {}
        if mode == NONSPLIT:
            for i, j in combinations(index.labels, 2):
                pair = (i, j)
                objects.append(pair)
                keys[i + "," + j] = keys[j + "," + i] = pair
                ends[("incl", i, pair)] = (i,), pair
                ends[("incl", j, pair)] = (j,), pair
        else:
            for i, j in iproduct(index.labels, index.labels):
                objects.append((i, j))
                keys[i + "," + j] = (i, j)
            for i, j in iproduct(index.labels, index.labels):
                ends[("incl", i, (i, j))] = (i,), (i, j)
                ends[("tau", (i, j))] = (i, j), (j, i)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "objects", tuple(objects))
        object.__setattr__(self, "generators", tuple(ends))
        object.__setattr__(self, "ends", ends)
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
