"""Every document means one thing: metamorphic checks of ``cli.main`` over
the golden corpus and the seed-1 benchmark documents.

* Member order is not significant (RFC 8259 section 4): shuffling the keys
  of every object leaves stdout, stderr and the exit code unchanged.
* A key that names what another key names, such as ``2,1`` beside ``1,2``
  or ``p2,p0`` beside ``p0,p2``, is refused (exit 2) wherever it stands,
  even when its value is one the document would accept in place of the
  other's: otherwise the later entry would win."""

import copy
import random

import pytest

from fixtures import benchmark_items, item_argv
from test_contract import CASES, DOCS, run


# (name, argv, document, shuffles): each golden case and each benchmark item
DOCUMENTS = [(case["name"], case["argv"], DOCS[case["name"]], 5)
             for case in CASES] + [
    (item["name"], item_argv(item), item["doc"], 2)
    for _, item in benchmark_items()]
IDS = [name for name, _, _, _ in DOCUMENTS]


def shuffled(node, rng):
    """``node`` with the keys of every object in a random order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [shuffled(child, rng) for child in node]
    return node


def respelled(key):
    """``key`` with each comma-separated list reversed: ``2,1`` for ``1,2``,
    ``p1,p0>p0`` for ``p0,p1>p0``."""
    return ">".join(",".join(reversed(side.split(",")))
                    for side in key.split(">"))


def changed(value):
    """Another value of the same shape: the values of a map of labels
    rotated, a list of labels reversed, or the first such member of an
    object changed."""
    if isinstance(value, list):
        return value[::-1]
    if all(isinstance(v, str) for v in value.values()):
        return dict(zip(value, list(value.values())[1:]
                        + list(value.values())[:1]))
    out = dict(value)
    for key, member in value.items():
        if isinstance(member, (list, dict)) and changed(member) != member:
            out[key] = changed(member)
            break
    return out


def respellable(doc):
    """Every (object, key) of ``doc`` whose key has a respelling that the
    object lacks and whose value ``changed`` alters."""
    found = []
    todo = [doc]
    while todo:
        node = todo.pop()
        children = node.values() if isinstance(node, dict) else node
        todo += [c for c in children if isinstance(c, (dict, list))]
        if isinstance(node, dict):
            found += [(node, key) for key, value in node.items()
                      if respelled(key) not in node
                      and isinstance(value, (dict, list))
                      and changed(value) != value]
    return found


@pytest.mark.parametrize("name, argv, doc, shuffles", DOCUMENTS, ids=IDS)
def test_key_order_does_not_change_the_outcome(name, argv, doc, shuffles):
    rng = random.Random(name)
    expected = run(argv, doc)
    for _ in range(shuffles):
        assert run(argv, shuffled(doc, rng)) == expected


RESPELLABLE = [(name, argv, doc) for name, argv, doc, _ in DOCUMENTS
               if respellable(doc)]


@pytest.mark.parametrize("name, argv, doc", RESPELLABLE,
                         ids=[name for name, _, _ in RESPELLABLE])
def test_a_respelled_key_is_refused_in_both_positions(name, argv, doc):
    rng = random.Random(name)
    for before in (False, True):
        mutant = copy.deepcopy(doc)
        node, key = rng.choice(respellable(mutant))
        spelling = respelled(key)
        added = {spelling: changed(node[key])}
        entries = dict(added, **node) if before else dict(node, **added)
        node.clear()
        node.update(entries)
        code, out, err = run(argv, mutant)
        first, second = (spelling, key) if before else (key, spelling)
        assert (code, out) == (2, ""), err
        assert "entries %r and %r name the same" % (first, second) in err
