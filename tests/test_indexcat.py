import random
from itertools import combinations

import pytest

from glueforge.errors import StructuralError
from glueforge.fincat import FinFn, FinSet
from glueforge.indexcat import IndexCat, gen_endpoints

from fixtures import identity_fn

from paper import (
    SortingMap,
    compose,
    coproduct_index,
    gen_mor,
    id_mor,
    identity_functor,
    incl,
    p2_of_map,
    sorting_functors,
    tau,
)


def test_singleton_nonsplit():
    cat = IndexCat("nonsplit", FinSet(["i"]))
    assert cat.objects == (("i",),)
    assert cat.generators == ()


def test_two_element_nonsplit():
    cat = IndexCat("nonsplit", FinSet(["i", "j"]))
    assert set(cat.objects) == {("i",), ("j",), ("i", "j")}
    assert set(cat.generators) == {("incl", "i", ("i", "j")),
                                   ("incl", "j", ("i", "j"))}


def test_singleton_split_has_loop():
    cat = IndexCat("split", FinSet(["i"]))
    assert set(cat.objects) == {("i",), ("i", "i")}
    assert set(cat.generators) == {("incl", "i", ("i", "i")), ("tau", ("i", "i"))}


def test_empty_index_rejected():
    with pytest.raises(StructuralError):
        IndexCat("nonsplit", FinSet([]))


def test_nonsplit_pairs_follow_index_positions():
    # index order, not label order: "b" comes before "a" here
    cat = IndexCat("nonsplit", FinSet(["b", "a", "c"]))
    assert cat.pair("a", "b") == cat.pair("b", "a") == ("b", "a")
    assert cat.pair("c", "a") == ("a", "c")
    assert cat.pairs() == [("b", "a"), ("b", "c"), ("a", "c")]
    split = IndexCat("split", FinSet(["b", "a"]))
    assert split.pair("a", "b") == ("a", "b")
    with pytest.raises(StructuralError) as err:
        cat.pair("a", "z")
    assert str(err.value) == "label 'z' not in carrier ('b', 'a', 'c')"
    with pytest.raises(StructuralError) as err:
        cat.pair("y", "z")
    assert str(err.value) == "label 'y' not in carrier ('b', 'a', 'c')"
    with pytest.raises(StructuralError,
                       match="nonsplit pairs need distinct indices"):
        cat.pair("a", "a")


def test_tau_involution_normalizes_away():
    cat = IndexCat("split", FinSet(["i", "j"]))
    loop = compose(tau(cat, "j", "i"), tau(cat, "i", "j"))
    assert loop == id_mor(cat, ("i", "j"))
    selfloop = compose(tau(cat, "i", "i"), tau(cat, "i", "i"))
    assert selfloop == id_mor(cat, ("i", "i"))
    # a single self-swap is not the identity
    assert tau(cat, "i", "i") != id_mor(cat, ("i", "i"))


def test_identity_stability_under_composition():
    for mode in ("nonsplit", "split"):
        cat = IndexCat(mode, FinSet(["a", "b"]))
        for g in cat.generators:
            src, dst = gen_endpoints(g)
            m = gen_mor(cat, g)
            assert compose(m, id_mor(cat, src)) == m
            assert compose(id_mor(cat, dst), m) == m


def test_sorting_map_must_be_total():
    idx = FinSet(["1", "2", "3"])
    with pytest.raises(StructuralError):
        SortingMap(idx, {frozenset(("1", "2")): ("1", "2")})


def test_b_after_a_is_identity():
    idx = FinSet(["1", "2"])
    funs = sorting_functors(idx, SortingMap.positional(idx))
    composite = funs["A_c"].then(funs["B_I"])
    assert composite.equals_on_generators(
        identity_functor(IndexCat("nonsplit", idx)))


def test_b_after_a_is_identity_any_sorting():
    idx = FinSet(["1", "2", "3"])
    rng = random.Random(5)
    for _ in range(4):
        choice = {frozenset(p): p if rng.random() < 0.5 else (p[1], p[0])
                  for p in combinations(idx.labels, 2)}
        funs = sorting_functors(idx, SortingMap(idx, choice))
        composite = funs["A_c"].then(funs["B_I"])
        assert composite.equals_on_generators(
            identity_functor(IndexCat("nonsplit", idx)))


def test_a_c_reversed_inclusion_goes_through_tau():
    idx = FinSet(["1", "2"])
    funs = sorting_functors(idx, SortingMap.positional(idx))
    scat = funs["A_c"].target
    image = funs["A_c"].morphism_map[("incl", "2", ("1", "2"))]
    assert image == compose(tau(scat, "2", "1"), incl(scat, "2", "1"))


def test_a_prime_object_rule():
    idx = FinSet(["1", "2"])
    funs = sorting_functors(idx, SortingMap.positional(idx))
    ap = funs["A_prime_c"]
    pair = ap.source.pair
    # copies are tagged "1|i" and "2|i"; c({1,2}) = (1,2)
    assert ap.apply_obj(pair("1|1", "1|2")) == ("1", "2")
    assert ap.apply_obj(pair("1|1", "2|2")) == ("1", "2")
    assert ap.apply_obj(pair("2|1", "1|2")) == ("2", "1")
    assert ap.apply_obj(pair("1|1", "2|1")) == ("1", "1")
    assert ap.apply_obj(("1|2",)) == ("2",)


def test_a_prime_morphisms_validate():
    idx = FinSet(["1", "2", "3"])
    funs = sorting_functors(idx, SortingMap.positional(idx))
    assert funs["A_prime_c"].validate() == []
    assert set(funs["A_prime_c"].source.index.labels) == set(
        coproduct_index(idx).labels)


def test_p2_identity():
    idx = FinSet(["1", "2"])
    fun = p2_of_map(identity_fn(idx))
    assert fun.equals_on_generators(
        identity_functor(IndexCat("nonsplit", idx)))


def test_p2_constant_collapses_pairs():
    fun = p2_of_map(FinFn(FinSet(["1", "2"]), FinSet(["1"]),
                          {"1": "1", "2": "1"}))
    assert fun.apply_obj(("1", "2")) == ("1",)
    assert fun.apply_mor(incl(fun.source, "1", "2")) \
        == id_mor(fun.target, ("1",))
    assert fun.validate() == []


def test_p2_injective_is_faithful_image():
    gamma = FinFn(FinSet(["1", "2"]), FinSet(["1", "2", "3"]),
                  {"1": "1", "2": "2"})
    fun = p2_of_map(gamma)
    assert fun.validate() == []
    # a left inverse of gamma recovers the identity on generators
    beta = FinFn(gamma.codomain, gamma.domain, {"1": "1", "2": "2", "3": "1"})
    roundtrip = fun.then(p2_of_map(beta))
    assert roundtrip.equals_on_generators(identity_functor(fun.source))


def test_p2_respects_composition_on_random_maps():
    rng = random.Random(13)
    for _ in range(20):
        a = FinSet(["a%d" % k for k in range(rng.randint(1, 3))])
        b = FinSet(["b%d" % k for k in range(rng.randint(1, 3))])
        c = FinSet(["c%d" % k for k in range(rng.randint(1, 3))])
        beta = FinFn(a, b, {x: rng.choice(b.labels) for x in a})
        gamma = FinFn(b, c, {x: rng.choice(c.labels) for x in b})
        lhs = p2_of_map(beta.then(gamma))
        rhs = p2_of_map(beta).then(p2_of_map(gamma))
        assert lhs.equals_on_generators(rhs)


def test_sorting_functor_laws_hold():
    idx = FinSet(["1", "2", "3"])
    for name, fun in sorting_functors(idx, SortingMap.positional(idx)).items():
        assert fun.validate() == [], name
