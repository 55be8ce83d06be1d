"""The compatible-family kernel and pullbacks against a naive product filter."""

from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glueforge.errors import ResourceError, budget
from glueforge.fincat import FinFn, FinSet, compatible_tuples, pullback

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def naive_compatible_tuples(domains, constraints):
    """Oracle: the whole product in lexicographic order, filtered."""
    return [combo for combo in iproduct(*domains)
            if all(key_a[combo[a]] == key_b[combo[b]]
                   for a, b, key_a, key_b in constraints)]


@st.composite
def join_instances(draw):
    sizes = draw(st.lists(st.integers(0, 4), max_size=4))
    domains = [["v%d_%d" % (k, m) for m in range(size)]
               for k, size in enumerate(sizes)]
    constraints = []
    if domains:
        for _ in range(draw(st.integers(0, 5))):
            a = draw(st.integers(0, len(domains) - 1))
            b = draw(st.integers(0, len(domains) - 1))
            width = draw(st.integers(1, 3))
            keys = [{x: draw(st.integers(0, width - 1)) for x in domains[v]}
                    for v in (a, b)]
            constraints.append((a, b, keys[0], keys[1]))
    return domains, constraints


@PROPERTY
@given(join_instances())
@example(([], []))
def test_kernel_matches_naive_product_filter(instance):
    domains, constraints = instance
    assert compatible_tuples(domains, constraints) == \
        naive_compatible_tuples(domains, constraints)


@st.composite
def map_pairs(draw):
    codomain = FinSet(["c%d" % k for k in range(draw(st.integers(1, 3)))])
    maps = []
    for name in ("a", "b"):
        dom = FinSet(["%s%d" % (name, k) for k in range(draw(st.integers(0, 5)))])
        maps.append(FinFn(dom, codomain, {
            x: draw(st.sampled_from(codomain.labels)) for x in dom}))
    return maps


@PROPERTY
@given(map_pairs())
def test_pullback_matches_naive_product_filter(maps):
    f, g = maps
    pairs = naive_compatible_tuples([f.domain.labels, g.domain.labels],
                                    [(0, 1, f.mapping, g.mapping)])
    ps = pullback(f, g)
    assert list(ps.members) == ["%s|%s" % pair for pair in pairs]
    assert [(ps.legs["p1"](m), ps.legs["p2"](m)) for m in ps.members] == pairs


def test_kernel_charges_partial_tuples_not_the_product():
    domains = [["x%d" % k for k in range(10)] for _ in range(3)]
    ident = {x: x[1:] for x in domains[0]}
    # the diagonal of a 1000-element product fits a cap of 10
    with budget(10):
        assert len(compatible_tuples(domains, [(0, 1, ident, ident),
                                               (1, 2, ident, ident)])) == 10
    with budget(99), pytest.raises(ResourceError) as err:
        compatible_tuples(domains, [(0, 2, ident, ident)])
    assert err.value.size == 100
    assert "compatible tuples" in str(err.value)
