"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

from itertools import product as iproduct

from glueforge.fincat import FinFn, FinSet
from glueforge.gluing import colimit_glue, hom_transport, limit_glue
from glueforge.presheaf import (
    NatTrans,
    OpenLattice,
    default_coverings,
    glue_nat_trans,
    glue_presheaves,
    is_sheaf,
    presheaf_effective_check,
    restrict,
)
from glueforge.refine import compose_via_sinks
from glueforge.site import (
    canonical_sink_functor,
    effective_epi_check,
    effective_gluing_check,
    universal_effective_epi_check,
)

from fixtures import (
    colimit_relation_pairs,
    discrete_space,
    e1,
    function_presheaf,
    jointly_surjective,
    label_sink,
    label_test,
    leg_fns,
    nat_trans_problems,
    random_limit_data,
    random_nonsplit_colimit,
    random_split_colimit,
    random_top_colimit,
    seeded,
    source_fns,
    table,
)
from oracles import (
    equalizer_glue_oracle,
    naive_closure_partition,
    sink_target_cone,
)
from paper import compose_gluings, tag
from test_refine import flat_identification_oracle, torus_meta


def _report(number, name, detail):
    print("ACCEPT %02d %s: PASS (%s)" % (number, name, detail))


def glued_partition(data, glued):
    out = {}
    legs = leg_fns(data, glued)
    for i in data.indexcat.index:
        for x in data.carrier((i,)):
            out.setdefault(legs[(i,)](x), set()).add(tag(i, x))
    return {frozenset(c) for c in out.values()}


def test_criterion_1_colimit_oracle_equivalence():
    rng = seeded(2026)
    checked = 0
    for _ in range(200):
        data = random_nonsplit_colimit(rng, max_index=4, max_size=6)
        glued = colimit_glue(data)
        labels = list(glued.witness["coproduct"])
        oracle = naive_closure_partition(labels, colimit_relation_pairs(data))
        assert glued_partition(data, glued) == oracle
        assert len(glued.apex) == len(oracle)
        # the kept partition: each class of two or more members under its
        # smallest member, classes in apex order, members in coproduct
        # order; every other apex label is the class of itself alone
        merged = glued.witness["merged"]
        assert all(len(members) > 1 for members in merged.values())
        assert list(merged) == [q for q in glued.apex if q in merged]
        classes = {q: merged.get(q, [q]) for q in glued.apex}
        assert list(classes) == list(glued.apex.labels)
        assert {frozenset(c) for c in classes.values()} == oracle
        at = {x: k for k, x in enumerate(labels)}
        for name, members in classes.items():
            assert name == min(members)
            assert [at[x] for x in members] == sorted(at[x] for x in members)
        firsts = [at[members[0]] for members in classes.values()]
        assert firsts == sorted(firsts)
        checked += 1
    _report(1, "colimit union-find equals naive closure", "%d/200" % checked)


def test_criterion_2_limit_equalizer_equivalence():
    rng = seeded(2027)
    checked = 0
    for k in range(200):
        mode = "nonsplit" if k % 2 == 0 else "split"
        data = random_limit_data(rng, max_index=3, max_size=4, mode=mode)
        a = limit_glue(data)
        b = equalizer_glue_oracle(data)
        assert a.apex == b.apex
        assert a.legs == b.legs
        checked += 1
    _report(2, "limit equals equalizer oracle", "%d/200" % checked)


def test_criterion_3_effectiveness_flags_agree():
    rng = seeded(2028)
    checked = 0
    noneffective_seen = 0
    for k in range(200):
        force = k % 10 == 0  # 20 engineered non-effective chains
        data = random_split_colimit(rng, force_noneffective=force)
        report = effective_gluing_check(data)
        assert report.all_equivalent(), report.flags()
        if force:
            assert report.flags() == (False, False, False)
            noneffective_seen += 1
        checked += 1
    assert noneffective_seen >= 20
    _report(3, "effectiveness conditions pairwise agree",
            "%d/200, %d engineered non-effective" % (checked, noneffective_seen))


def test_criterion_4_hom_transport():
    rng = seeded(2029)
    checked = 0
    for _ in range(50):
        data = random_nonsplit_colimit(rng, max_index=3, max_size=3)
        z = FinSet(["z%d" % k for k in range(rng.randint(1, 3))])
        result = hom_transport(data, z)
        assert result["bijection_verified"] is True
        checked += 1
    fixture = hom_transport(e1(), FinSet(["0", "1"]))
    assert fixture["family_count"] == 32
    assert fixture["hom_count"] == 32
    assert fixture["bijection_verified"] is True
    _report(4, "hom transport bijections", "%d/50 random, fixture 32=32" % checked)


def random_sink(rng, max_sources=3, max_target=4, max_source_size=3):
    target = FinSet(["u%d" % k for k in range(rng.randint(1, max_target))])
    sources = []
    for s in range(rng.randint(1, max_sources)):
        labels = ["s%d_%d" % (s, k) for k in range(rng.randint(0, max_source_size))]
        src = FinSet(labels)
        sources.append((str(s + 1), src,
                        FinFn(src, target,
                              {x: rng.choice(target.labels) for x in labels})))
    return label_sink("sets", target, sources)


def test_criterion_5_effective_epi_agrees_with_mediating_route():
    from glueforge.gluing import mediating_map
    rng = seeded(2030)
    checked = 0
    for _ in range(100):
        sink = random_sink(rng)
        decision = effective_epi_check(sink)
        # explicit mediating-map route on the canonical functor
        data = canonical_sink_functor(sink)
        glued = colimit_glue(data)
        _, iso = mediating_map(data, glued, sink_target_cone(sink, data))
        assert decision == iso
        # independent closed form in sets: the images cover the target
        images = {y for _, _, fn in source_fns(sink)
                  for y in fn.mapping.values()}
        assert decision == (images == set(sink.target.labels))
        checked += 1
    _report(5, "effective epi equals mediating-map and closed form",
            "%d/100" % checked)


def random_passing_sink(rng):
    while True:
        sink = random_sink(rng)
        if jointly_surjective(sink):
            return sink


def test_criterion_6_composites_of_passing_sinks_pass():
    rng = seeded(2031)
    checked = 0
    for _ in range(50):
        outer = random_passing_sink(rng)
        inner = {}
        for name, carrier, _ in outer.sources:
            if len(carrier) == 0:
                empty = FinSet([])
                inner[name] = label_sink(
                    "sets", carrier, [("1", empty, FinFn(empty, carrier, {}))])
                continue
            while True:
                labels = ["%s_i%d" % (name, k)
                          for k in range(rng.randint(len(carrier), len(carrier) + 2))]
                src = FinSet(labels)
                fn = FinFn(src, carrier,
                           {x: rng.choice(carrier.labels) for x in labels})
                cand = label_sink("sets", carrier, [("1", src, fn)])
                if jointly_surjective(cand):
                    inner[name] = cand
                    break
        result = compose_via_sinks(outer, inner)
        assert result["is_glued_up"] is True
        v = FinSet(["v0", "v1"])
        tests = [FinFn(v, outer.target,
                       {x: rng.choice(outer.target.labels) for x in v})]
        report = universal_effective_epi_check(result["sink"],
                                               map(label_test, tests))
        assert report["all_effective"] is True
        assert report["jointly_surjective"] is True
        checked += 1
    _report(6, "composites of passing sinks pass universally", "%d/50" % checked)


def test_criterion_7_torus_counts():
    meta = torus_meta(4)
    cylinder = colimit_glue(meta.nodes["cyl"])
    torus = compose_gluings(meta)
    assert len(meta.nodes["cyl"].carrier(("sq",))) == 16
    assert len(cylinder.apex) == 12
    assert len(torus.apex) == 9
    got = {}
    for i in meta.index:
        node = meta.nodes[i]
        for comp in node.indexcat.singletons():
            for x in node.carrier(comp):
                got.setdefault(torus.legs[(i, comp)](x), set()).add(
                    "%s/%s/%s" % (i, comp[0], x))
    assert {frozenset(c) for c in got.values()} == flat_identification_oracle(meta)
    _report(7, "square-cylinder-torus fixture", "16 -> 12 -> 9 classes, "
            "flat composition matches")


def random_sheaf_datum(rng, break_cocycle=False):
    from glueforge.fincat import FinTop
    from test_presheaf import chart_datum
    if break_cocycle:
        pts = ["p%d" % k for k in range(rng.randint(1, 2))]
        space = discrete_space(FinSet(pts))
        stalks = {p: ["a", "b"] for p in pts}
        charts = [("1", pts), ("2", pts), ("3", pts)]
        swap = {"a": "b", "b": "a"}
        ident = {"a": "a", "b": "b"}
        twists = {}
        for (i, j) in (("1", "2"), ("2", "1"), ("2", "3"), ("3", "2")):
            for p in pts:
                twists[(i, j, p)] = ident
        for p in pts:
            twists[("1", "3", p)] = swap
            twists[("3", "1", p)] = swap
        return chart_datum(space, charts, stalks, twists=twists)
    n = rng.randint(1, 4)
    pts = ["p%d" % k for k in range(n)]
    from fixtures import random_topology
    space = random_topology(rng, pts)
    # charts must be open; use the open sets themselves
    opens = [o for o in space.opens]
    charts = []
    covered = set()
    for c in range(rng.randint(1, 3)):
        members = rng.choice(opens)
        covered |= members
        charts.append(("c%d" % c, sorted(members)))
    if covered != set(pts):
        charts.append(("rest", pts))
    stalks = {p: ["s%d" % k for k in range(rng.randint(1, 2))] for p in pts}
    # random stalkwise transition bijections, mirrored to inverses
    lookup = {name: frozenset(m) for name, m in charts}
    names = [name for name, _ in charts]
    twists = {}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            na, nb = names[a], names[b]
            for p in lookup[na] & lookup[nb]:
                values = list(stalks[p])
                shuffled = values[:]
                rng.shuffle(shuffled)
                fwd = dict(zip(values, shuffled))
                twists[(na, nb, p)] = fwd
                twists[(nb, na, p)] = {v: k for k, v in fwd.items()}
    from test_presheaf import chart_datum as build
    return build(space, charts, stalks, twists=twists)


def test_criterion_8_sheaf_gluing():
    rng = seeded(2032)
    checked = 0
    for _ in range(50):
        datum = random_sheaf_datum(rng)
        glued, projections = glue_presheaves(datum)
        flag, counter = is_sheaf(glued, default_coverings(glued.lattice))
        assert flag, counter
        report = presheaf_effective_check(datum, projections)
        assert report["equivalence_holds"] is True
        checked += 1
    broken = 0
    for _ in range(10):
        datum = random_sheaf_datum(rng, break_cocycle=True)
        _, projections = glue_presheaves(datum)
        report = presheaf_effective_check(datum, projections)
        assert report["cocycle_ok"] is False
        assert report["psi_restriction_bijective"] is False
        assert report["equivalence_holds"] is True
        broken += 1
    _report(8, "sheaf gluing and effectiveness equivalence",
            "%d/50 random sheaves, %d/10 broken cocycles" % (checked, broken))


def random_nat_trans_instance(rng):
    from glueforge.fincat import FinTop
    pts = ["p%d" % k for k in range(rng.randint(1, 2))]
    space = discrete_space(FinSet(pts))
    s_stalks = {p: ["a%d" % k for k in range(rng.randint(1, 2))] for p in pts}
    t_stalks = {p: ["b%d" % k for k in range(rng.randint(1, 2))] for p in pts}
    source = function_presheaf(space, s_stalks)
    target = function_presheaf(space, t_stalks)
    point_maps = {p: {v: rng.choice(t_stalks[p]) for v in s_stalks[p]}
                  for p in pts}

    def section_map(sub, o, store_s, store_t):
        pts_o = space.points(o)
        mapping = {}
        for lab in store_s.sections[o]:
            if not pts_o:
                mapping[lab] = "()"
                continue
            parts = dict(part.split("=") for part in lab.split(";"))
            out = ";".join("%s=%s" % (p, point_maps[p][parts[p]])
                           for p in pts_o)
            mapping[lab] = out
        return table(FinFn(FinSet(store_s.sections[o]),
                           FinSet(store_t.sections[o]), mapping))

    charts = []
    if len(pts) == 1:
        charts = [("1", space.mask(pts))]
    else:
        charts = [("1", space.mask(pts[:1])), ("2", space.mask(pts[1:]))]
        if rng.random() < 0.5:
            charts.append(("both", space.mask(pts)))
    parts = {}
    for name, members in charts:
        sub_s = restrict(source, members)
        sub_t = restrict(target, members)
        comps = {o: section_map(members, o, sub_s, sub_t)
                 for o in sub_s.lattice.opens}
        parts[name] = NatTrans(sub_s, sub_t, comps)
    return space, charts, source, target, parts


def count_and_collect_nat_trans(source, target, cap_count=200):
    opens = list(source.lattice.opens)
    total = 1
    for o in opens:
        total *= len(target.sections[o]) ** len(source.sections[o])
    if total > 4096:
        return None, total
    out = []
    pools = []
    for o in opens:
        pools.append([list(values) for values in iproduct(
            range(len(target.sections[o])), repeat=len(source.sections[o]))])
    for combo in iproduct(*pools):
        cand = NatTrans(source, target, dict(zip(opens, combo)))
        if nat_trans_problems(cand) == []:
            out.append(cand)
    return out, total


def test_criterion_9_nat_trans_gluing():
    rng = seeded(2033)
    checked = 0
    uniqueness_checked = 0
    while checked < 30:
        space, charts, source, target, parts = random_nat_trans_instance(rng)
        glued = glue_nat_trans(space, charts, source, target, parts)
        for name, members in charts:
            for o in OpenLattice(space, members).opens:
                assert glued.components[o] == parts[name].components[o]
        candidates, total = count_and_collect_nat_trans(source, target)
        if candidates is not None and len(candidates) <= 200:
            matching = [
                cand for cand in candidates
                if all(cand.components[o] == parts[name].components[o]
                       for name, members in charts
                       for o in OpenLattice(space, members).opens)]
            assert len(matching) == 1
            assert all(matching[0].components[o] == glued.components[o]
                       for o in source.lattice.opens)
            uniqueness_checked += 1
        checked += 1
    assert uniqueness_checked >= 10
    _report(9, "natural transformation gluing",
            "%d/30 restrictions exact, %d uniqueness by enumeration"
            % (checked, uniqueness_checked))


def test_criterion_10_topological_legs():
    rng = seeded(2034)
    checked = 0
    embedding_checked = 0
    for k in range(50):
        data = random_top_colimit(rng, effective=(k % 2 == 0))
        glued = colimit_glue(data)
        for i in data.indexcat.index:
            props = glued.leg_props[(i,)]
            assert props["open"] is True, (k, i)
            assert props["continuous"] is True
        report = effective_gluing_check(data)
        injective = all(len(set(glued.legs[(i,)])) == len(glued.legs[(i,)])
                        for i in data.indexcat.index)
        if injective and all(report.flags()):
            for i in data.indexcat.index:
                assert glued.leg_props[(i,)]["embedding"] is True
            embedding_checked += 1
        checked += 1
    assert embedding_checked >= 10
    _report(10, "topological colimit legs",
            "%d/50 open, %d injective effective embeddings"
            % (checked, embedding_checked))
