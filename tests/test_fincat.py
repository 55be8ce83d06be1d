import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glueforge.errors import ResourceError, StructuralError, budget
from glueforge.fincat import (
    FinFn,
    FinSet,
    FinTop,
    TopMap,
    compose,
    identity,
    induce_topology,
    invert,
    product_enumerate,
    pullback,
    pullback_positions,
    quotient_by_pairs,
)

from fixtures import (
    constant_fn,
    discrete_space,
    fn_properties,
    identity_fn,
    indexed,
    indiscrete_space,
    table,
)
from oracles import equalizer, naive_closure_partition


def test_finset_rejects_duplicates():
    with pytest.raises(StructuralError):
        FinSet(["a", "a"])


@pytest.mark.parametrize("labels, message", [
    (["a", "b", "a", "b"], "duplicate label 'a'"),
    (["a", "b", "b", "a"], "duplicate label 'b'"),
    (["a", 1, "a"], "labels must be strings, got 1"),
    (["a", "a", 1], "duplicate label 'a'"),
    (["a", None, 2.5], "labels must be strings, got None"),
    ([["a"], "a"], "labels must be strings, got ['a']"),
])
def test_finset_names_the_first_bad_label(labels, message):
    with pytest.raises(StructuralError) as err:
        FinSet(labels)
    assert str(err.value) == message
    if all(isinstance(x, str) for x in labels):
        with pytest.raises(StructuralError) as err:
            FinSet.from_distinct(labels)
        assert str(err.value) == message


@pytest.mark.parametrize("mapping, message", [
    ({"y": "0"}, "no value assigned to domain label 'x'"),
    ({"x": "0", "z": "1"}, "no value assigned to domain label 'y'"),
    ({"x": "2", "y": "3"}, "value '2' of 'x' is not a codomain label"),
    ({"y": "3", "x": "0"}, "value '3' of 'y' is not a codomain label"),
    ({"x": "0", "y": "1", "w": "0", "v": "1"},
     "mapping assigns labels outside the domain: ['v', 'w']"),
    ({"x": "0", "y": 1}, "value 1 of 'y' is not a codomain label"),
])
def test_finfn_names_the_first_bad_label(mapping, message):
    with pytest.raises(StructuralError) as err:
        FinFn(FinSet(["x", "y"]), FinSet(["0", "1"]), mapping)
    assert str(err.value) == message


def test_finfn_keeps_its_own_copy_of_a_valid_mapping():
    mapping = {"y": "1", "x": "0"}
    fn = FinFn(FinSet(["x", "y"]), FinSet(["0", "1"]), mapping)
    assert fn.mapping == mapping and fn.mapping is not mapping


def test_finset_keeps_order():
    s = FinSet(["b", "a", "c"])
    assert list(s) == ["b", "a", "c"]


def test_finfn_totality_and_codomain_checked():
    a = FinSet(["x", "y"])
    b = FinSet(["0"])
    with pytest.raises(StructuralError):
        FinFn(a, b, {"x": "0"})
    with pytest.raises(StructuralError):
        FinFn(a, b, {"x": "0", "y": "1"})


def test_pullback_identity_diagonal():
    s = FinSet(["x", "y"])
    i = identity_fn(s)
    ps = pullback(i, i)
    assert list(ps.members) == ["x|x", "y|y"]


def test_pullback_terminal_codomain_is_product():
    f = FinFn(FinSet(["a"]), FinSet(["c"]), {"a": "c"})
    g = FinFn(FinSet(["b"]), FinSet(["c"]), {"b": "c"})
    assert list(pullback(f, g).members) == ["a|b"]


def test_pullback_filters_by_equality():
    # oracle: enumerate all 4 pairs and keep those with equal images
    f = FinFn(FinSet(["a0", "a1"]), FinSet(["0", "1"]), {"a0": "0", "a1": "1"})
    g = FinFn(FinSet(["b0", "b1"]), FinSet(["0", "1"]), {"b0": "1", "b1": "1"})
    expected = [a + "|" + b for a in ["a0", "a1"] for b in ["b0", "b1"]
                if f.mapping[a] == g.mapping[b]]
    ps = pullback(f, g)
    assert list(ps.members) == expected == ["a1|b0", "a1|b1"]
    assert ps.legs["p1"]("a1|b0") == "a1"
    assert ps.legs["p2"]("a1|b0") == "b0"


def test_pullback_requires_shared_codomain():
    f = identity_fn(FinSet(["a"]))
    g = identity_fn(FinSet(["b"]))
    with pytest.raises(StructuralError):
        pullback(f, g)


def test_pullback_names_colliding_pair_labels():
    # labels holding the reserved separator make two pairs one name
    point = FinSet(["p"])
    f = constant_fn(FinSet(["a|b", "a"]), point, "p")
    g = constant_fn(FinSet(["c", "b|c"]), point, "p")
    with pytest.raises(StructuralError, match="duplicate label 'a|b|c'"):
        pullback(f, g)


def test_table_kernels_compose_and_invert():
    assert identity(3) == [0, 1, 2] and identity(0) == []
    assert compose([2, 0], [5, 6, 7]) == [7, 5]
    assert invert([2, 0, 1], 3) == [1, 2, 0]
    assert compose([2, 0, 1], invert([2, 0, 1], 3)) == identity(3)
    assert invert([], 0) == []


# not injective, not onto, longer than its codomain, onto a larger one
@pytest.mark.parametrize("table, size", [
    ([0, 0], 2), ([1], 2), ([0], 2), ([0, 1], 1), ([1, 0, 2], 2)])
def test_invert_refuses_a_table_that_is_no_bijection(table, size):
    with pytest.raises(StructuralError) as err:
        invert(table, size)
    assert str(err.value) == "only bijections can be inverted"


def test_pullback_positions_join_and_charge_as_pullback():
    f, g = [0, 1, 1], [1, 0, 1, 2]
    firsts, seconds, rows = pullback_positions(f, g)
    assert list(zip(firsts, seconds)) == [(0, 1), (1, 0), (1, 2), (2, 0),
                                          (2, 2)]
    assert rows is None
    with budget(2), pytest.raises(ResourceError) as raised:
        pullback_positions(f, g)
    assert str(raised.value) == ("pullback would enumerate 3 items, above "
                                 "the cap of 2")
    # the discrete spaces give the discrete topology on the members
    x = discrete_space(FinSet(["a", "b", "c"]))
    y = discrete_space(FinSet(["p", "q", "r", "s"]))
    assert pullback_positions(f, g, (x, y))[2] == [1 << k for k in range(5)]


def test_engine_values_equal_validated_ones():
    s = FinSet.from_distinct(["x", "y"])
    assert s == FinSet(["x", "y"]) and s.position("y") == 1 and s == s
    fn = FinFn.from_total(s, s, {"x": "y", "y": "y"})
    assert fn == FinFn(s, s, {"x": "y", "y": "y"})
    assert identity_fn(s).then(fn) == fn


def outcome(fn, *args):
    """What a call returns, or the text of the StructuralError it raises."""
    try:
        return ("value", fn(*args))
    except StructuralError as err:
        return ("error", str(err))


LABEL = st.text("abc|", max_size=3)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(LABEL, unique=True, max_size=8), st.lists(LABEL, max_size=4),
       st.data())
def test_a_lazily_indexed_set_behaves_as_an_eagerly_indexed_one(labels, probes,
                                                                data):
    eager = FinSet(labels)
    lazy = FinSet.from_trusted(labels)
    assert indexed(eager) and not indexed(lazy)
    # the first use of the lazy index is drawn, each use on a fresh set
    uses = [
        lambda s, x: s.position(x),
        lambda s, x: x in s,
        lambda s, x: (s == eager, eager == s, s == FinSet(labels[::-1]),
                      hash(s) == hash(eager)),
        lambda s, x: FinFn(s, s, {y: x for y in s}),
        lambda s, x: FinFn(FinSet([x]), s, {x: x}),
        lambda s, x: FinFn(s, FinSet(labels + [x]) if x not in labels
                           else s, dict(zip(labels, labels))),
    ]
    for x in labels + probes:
        for use in data.draw(st.permutations(uses)):
            lazy = FinSet.from_trusted(labels)
            assert outcome(use, lazy, x) == outcome(use, eager, x)
            assert lazy.labels == eager.labels
    # a fresh lazy set compares and hashes with no index built
    lazy = FinSet.from_trusted(labels)
    assert lazy == eager and hash(lazy) == hash(eager) and not indexed(lazy)
    if labels:
        assert lazy.position(labels[-1]) == len(labels) - 1 and indexed(lazy)


def test_pullback_symmetric_up_to_swap():
    rng = random.Random(1)
    for _ in range(25):
        c = FinSet([str(k) for k in range(rng.randint(1, 3))])
        a = FinSet(["a%d" % k for k in range(rng.randint(0, 4))])
        b = FinSet(["b%d" % k for k in range(rng.randint(0, 4))])
        f = FinFn(a, c, {x: rng.choice(c.labels) for x in a})
        g = FinFn(b, c, {x: rng.choice(c.labels) for x in b})
        lhs = {(p.split("|")[0], p.split("|")[1]) for p in pullback(f, g).members}
        rhs = {(p.split("|")[1], p.split("|")[0]) for p in pullback(g, f).members}
        assert lhs == rhs


def positions(labels, pairs):
    """The pairs of labels as pairs of their positions in ``labels``."""
    at = {x: k for k, x in enumerate(labels)}
    return [(at[a], at[b]) for a, b in pairs]


def test_quotient_empty_relation_is_identity():
    labels = ("a", "b", "c")
    q, at_class, merged = quotient_by_pairs(labels, [])
    assert list(q) == ["a", "b", "c"]
    assert at_class == [0, 1, 2] and merged == {}


def test_quotient_transitive_chain():
    labels = ("a", "b", "c")
    q, at_class, merged = quotient_by_pairs(labels, [(0, 1), (1, 2)])
    assert list(q) == ["a"]
    assert at_class == [0, 0, 0] and merged == {"a": ["a", "b", "c"]}
    assert naive_closure_partition(labels, [("a", "b"), ("b", "c")]) == {
        frozenset(["a", "b", "c"])}


def test_quotient_two_classes():
    q, at_class, _ = quotient_by_pairs(("a", "b", "c", "d"), [(0, 1), (2, 3)])
    assert list(q) == ["a", "c"]
    assert at_class == [0, 0, 1, 1]


def test_quotient_unknown_label():
    """A label the carrier lacks is a position outside it: past its end,
    or negative, which a list index would otherwise wrap to the end."""
    for bad in [(0, 1), (1, 0), (0, -1), (-1, -1)]:
        with pytest.raises(StructuralError, match="outside the carrier"):
            quotient_by_pairs(("a",), [bad])
    with pytest.raises(StructuralError, match=r"\(0, -3\)"):
        quotient_by_pairs(("a", "b", "c"), [(0, 1), (0, -3), (2, 5)])


def test_quotient_matches_naive_closure_on_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 12)
        labels = ["e%d" % k for k in range(n)]
        rng.shuffle(labels)
        pairs = [(rng.choice(labels), rng.choice(labels))
                 for _ in range(rng.randint(0, 20))]
        q, at_class, _ = quotient_by_pairs(labels, positions(labels, pairs))
        names = [q.labels[c] for c in at_class]
        got = {frozenset(x for x, c in zip(labels, names) if c == name)
               for name in q}
        assert got == naive_closure_partition(labels, pairs)
        # canonical class labels
        assert all(c == min(x for x, name in zip(labels, names) if name == c)
                   for c in q)


@st.composite
def carriers_with_pairs(draw):
    """Up to eight distinct labels of one to three letters, in drawn order,
    and up to twelve pairs of them: self-pairs and repeats included."""
    labels = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                           unique=True, max_size=8))
    if not labels:
        return labels, []
    member = st.sampled_from(labels)
    return labels, draw(st.lists(st.tuples(member, member), max_size=12))


def test_quotient_classes_names_and_order_match_the_naive_closure():
    shapes = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(carriers_with_pairs())
    @example(([], []))
    @example((["b", "a", "c"], []))
    @example((["b", "a"], [("b", "b")]))
    @example((["b", "a"], [("b", "b"), ("a", "a"), ("b", "b")]))
    @example((["c", "b", "a"], [("c", "a"), ("c", "a"), ("a", "c")]))
    # pairs that touch every position
    @example((["c", "b", "a", "d"], [("c", "b"), ("a", "d")]))
    @example((["c", "b", "a", "d"], [("d", "a"), ("b", "a"), ("c", "d")]))
    def check(case):
        labels, pairs = case
        q, at_class, merged = quotient_by_pairs(tuple(labels),
                                                positions(labels, pairs))
        assert len(at_class) == len(labels)
        names = [q.labels[c] for c in at_class]
        classes = [[x for x, name in zip(labels, names) if name == c]
                   for c in q]
        naive = naive_closure_partition(labels, pairs)
        assert {frozenset(c) for c in classes} == naive
        assert list(q) == [min(c) for c in classes]
        firsts = [labels.index(c[0]) for c in classes]
        assert firsts == sorted(firsts)
        # the merged classes, in quotient order, members in carrier order
        assert merged == {min(c): c for c in classes if len(c) > 1}
        assert list(merged) == [min(c) for c in classes if len(c) > 1]
        # the sum of squared class sizes the effectiveness check compares
        assert sum(len(c) ** 2 for c in merged.values()) + len(q) \
            - len(merged) == sum(len(c) ** 2 for c in naive)
        # one past the end, and negative positions, at the end of the pairs
        n = len(labels)
        for bad in [(n, n), (-1, -1)] + [(0, n), (0, -1 - n)] * (n > 0):
            with pytest.raises(StructuralError, match="outside the carrier"):
                quotient_by_pairs(tuple(labels),
                                  positions(labels, pairs) + [bad])
        shapes.append(any(min(c) != c[0] for c in classes))

    check()
    # classes whose first member is not their smallest label were drawn
    assert shapes.count(True) >= 30


def test_equalizer_of_equal_maps_is_domain():
    s = FinSet(["x", "y"])
    f = FinFn(s, s, {"x": "y", "y": "x"})
    assert list(equalizer(f, f).members) == ["x", "y"]


def test_equalizer_swap_vs_identity_empty():
    s = FinSet(["x", "y"])
    f = FinFn(s, s, {"x": "y", "y": "x"})
    assert list(equalizer(f, identity_fn(s)).members) == []


def test_equalizer_pointwise():
    a = FinSet(["a", "b"])
    c = FinSet(["0", "1"])
    f = FinFn(a, c, {"a": "0", "b": "0"})
    g = FinFn(a, c, {"a": "0", "b": "1"})
    ps = equalizer(f, g)
    assert list(ps.members) == ["a"]
    assert ps.legs["include"]("a") == "a"


def test_equalizer_members_are_fixed_locus():
    rng = random.Random(3)
    for _ in range(20):
        a = FinSet(["a%d" % k for k in range(rng.randint(0, 5))])
        c = FinSet(["0", "1", "2"])
        f = FinFn(a, c, {x: rng.choice(c.labels) for x in a})
        g = FinFn(a, c, {x: rng.choice(c.labels) for x in a})
        assert set(equalizer(f, g).members.labels) == {
            x for x in a if f.mapping[x] == g.mapping[x]}


def test_product_empty_is_terminal():
    assert list(product_enumerate([])) == ["()"]


def test_product_with_unit_factor():
    p = product_enumerate([FinSet(["a", "b"]), FinSet(["0"])])
    assert list(p) == ["a|0", "b|0"]


def test_product_cap_enforced():
    with budget(3), pytest.raises(ResourceError) as err:
        product_enumerate([FinSet(["a", "b"]), FinSet(["0", "1"])])
    assert err.value.size == 4


def sierpinski():
    c = FinSet(["0", "1"])
    return FinTop(c, [frozenset(), frozenset(["1"]), frozenset(["0", "1"])])


def test_fintop_requires_closure():
    c = FinSet(["a", "b"])
    with pytest.raises(StructuralError):
        FinTop(c, [frozenset(), frozenset(["a"]), frozenset(["b"]),
                   frozenset(["a", "b"])][:-1])


def test_induce_identity_keeps_topology():
    t = sierpinski()
    i = table(identity_fn(t.carrier))
    assert induce_topology("final", t.carrier, [i], [t]) == t
    assert induce_topology("initial", t.carrier, [i], [t]) == t


def test_final_over_disjoint_discrete_inclusions_is_discrete():
    u = FinSet(["a", "b", "c"])
    x = discrete_space(FinSet(["a"]))
    y = discrete_space(FinSet(["b", "c"]))
    f = FinFn(x.carrier, u, {"a": "a"})
    g = FinFn(y.carrier, u, {"b": "b", "c": "c"})
    t = induce_topology("final", u, [table(f), table(g)], [x, y])
    # oracle: every subset must have open preimages under both inclusions,
    # which holds for all subsets since the sources are discrete
    assert len(t.opens) == 8


def test_initial_along_constant_map_to_sierpinski():
    t = sierpinski()
    dom = FinSet(["p", "q"])
    f = FinFn(dom, t.carrier, {"p": "1", "q": "1"})
    got = induce_topology("initial", dom, [table(f)], [t])
    # preimages: f^-1(∅)=∅, f^-1({1})={p,q}, f^-1({0,1})={p,q}
    assert got.opens == (frozenset(), frozenset(["p", "q"]))


def test_induce_direction_mismatch():
    t = sierpinski()
    f = table(identity_fn(t.carrier))
    with pytest.raises(StructuralError):
        induce_topology("final", FinSet(["z"]), [f], [t])
    with pytest.raises(StructuralError):
        induce_topology("final", FinSet(["z"]), [[-1]], [discrete_space(
            FinSet(["z"]))])
    with pytest.raises(StructuralError):
        induce_topology("final", FinSet(["z"]), [f], [discrete_space(
            FinSet(["z"]))])
    with pytest.raises(StructuralError):
        induce_topology("initial", FinSet(["z"]), [f], [t])
    with pytest.raises(StructuralError):
        induce_topology("initial", t.carrier, [[0, 2]], [t])
    with pytest.raises(StructuralError):
        induce_topology("initial", t.carrier, [[0, -1]], [t])


def test_map_properties_identity():
    t = discrete_space(FinSet(["x", "y"]))
    rep = fn_properties(identity_fn(t.carrier), t, t)
    assert rep == {"injective": True, "surjective": True, "continuous": True,
                   "open": True, "embedding": True}


def test_open_point_into_sierpinski_is_embedding():
    t = sierpinski()
    pt = discrete_space(FinSet(["1"]))
    rep = fn_properties(FinFn(pt.carrier, t.carrier, {"1": "1"}), pt, t)
    assert rep["embedding"] is True
    assert rep["open"] is True


def test_closed_point_into_sierpinski_not_open():
    t = sierpinski()
    pt = discrete_space(FinSet(["0"]))
    rep = fn_properties(FinFn(pt.carrier, t.carrier, {"0": "0"}), pt, t)
    assert rep["open"] is False
    assert rep["embedding"] is True


def test_continuity_validated():
    t = sierpinski()
    dom = indiscrete_space(FinSet(["p", "q"]))
    with pytest.raises(StructuralError):
        TopMap(FinFn(dom.carrier, t.carrier, {"p": "1", "q": "0"}), dom, t)


def test_operations_are_deterministic():
    rng = random.Random(19)
    for _ in range(10):
        c = FinSet([str(k) for k in range(rng.randint(1, 3))])
        a = FinSet(["a%d" % k for k in range(rng.randint(0, 4))])
        f = FinFn(a, c, {x: rng.choice(c.labels) for x in a})
        g = FinFn(a, c, {x: rng.choice(c.labels) for x in a})
        assert pullback(f, g).members == pullback(f, g).members
        pairs = [(rng.choice(a.labels), rng.choice(a.labels))
                 for _ in range(3)] if len(a) else []
        at = positions(a.labels, pairs)
        assert quotient_by_pairs(a.labels, at) == \
            quotient_by_pairs(a.labels, at)


def test_final_topology_makes_legs_continuous():
    rng = random.Random(11)
    for _ in range(15):
        u = FinSet(["u%d" % k for k in range(rng.randint(1, 4))])
        spaces, maps = [], []
        for s in range(2):
            carrier = FinSet(["s%d_%d" % (s, k) for k in range(rng.randint(1, 3))])
            sp = rng.choice([discrete_space(carrier),
                             indiscrete_space(carrier)])
            spaces.append(sp)
            maps.append(FinFn(carrier, u, {x: rng.choice(u.labels) for x in carrier}))
        t = induce_topology("final", u, list(map(table, maps)), spaces)
        for fn, sp in zip(maps, spaces):
            TopMap(fn, sp, t)  # raises if not continuous
