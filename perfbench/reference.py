"""Reference checkers that recompute each report from the raw document.

Nothing here imports glueforge.  Each checker works from the JSON document
and the construction data its generator recorded (``expect``), with
algorithms of its own: breadth-first classes for colimits, a pruned
depth-first join for limits, minimal open neighbourhoods for final and
initial topologies, fibre profiles for sites, and per-point counts for glued
function presheaves.  ``check`` returns the list of disagreements; an empty
list means the report is correct.
"""

import spaces

SEP = "|"


def _key(obj):
    return ",".join(obj)


class RawGluing:
    """A gluing payload read into plain dictionaries, split defaults filled."""

    def __init__(self, payload):
        self.mode = payload["mode"]
        self.ambient = payload["ambient"]
        self.direction = payload["direction"]
        self.index = list(payload["index"])
        pos = {i: k for k, i in enumerate(self.index)}
        self.carrier = {}
        self.space = {}
        for key, node in payload["objects"].items():
            obj = tuple(key.split(","))
            if self.mode == "nonsplit" and len(obj) == 2:
                obj = tuple(sorted(obj, key=pos.__getitem__))
            if self.ambient == "top":
                pts = list(node["points"])
                self.carrier[obj] = pts
                self.space[obj] = (pts, spaces.neighbourhoods(
                    pts, [frozenset(o) for o in node["opens"]]))
            else:
                self.carrier[obj] = list(node)
        self.edge = {}
        self.tau = {}
        for entry in payload["arrows"]:
            pair = tuple(entry["pair"].split(","))
            if self.mode == "nonsplit":
                pair = tuple(sorted(pair, key=pos.__getitem__))
            if entry["kind"] == "edge":
                self.edge[(entry["from"], pair)] = dict(entry["map"])
            else:
                i, j = pair
                self.tau.setdefault((i, j), dict(entry["map"]))
                self.tau.setdefault((j, i), {v: u for u, v in
                                             entry["map"].items()})
        if self.mode == "split":
            for i in self.index:
                diag = (i, i)
                if diag not in self.carrier:
                    self.carrier[diag] = self.carrier[(i,)]
                    if (i,) in self.space:
                        self.space[diag] = self.space[(i,)]
                    self.edge[(i, diag)] = {x: x for x in self.carrier[(i,)]}
                self.tau.setdefault(diag, {x: x for x in self.carrier[diag]})
            self.pairs = [(i, j) for i in self.index for j in self.index]
        else:
            self.pairs = [(self.index[a], self.index[b])
                          for a in range(len(self.index))
                          for b in range(a + 1, len(self.index))]

    def opens(self, obj):
        return spaces.opens_of(*self.space[obj])

    def identifications(self):
        """The generating pairs of the colimit congruence."""
        out = []
        for i, j in self.pairs:
            e_i = self.edge[(i, (i, j))]
            if self.mode == "nonsplit":
                e_j, swap = self.edge[(j, (i, j))], None
            else:
                e_j, swap = self.edge[(j, (j, i))], self.tau[(i, j)]
            for u in self.carrier[(i, j)]:
                v = swap[u] if swap else u
                out.append((i + SEP + e_i[u], j + SEP + e_j[v]))
        return out

    def classes(self):
        """Classes of the colimit by breadth-first search, each named by its
        smallest member and listed by first occurrence."""
        nodes = [i + SEP + x for i in self.index for x in self.carrier[(i,)]]
        adj = {n: [] for n in nodes}
        for a, b in self.identifications():
            adj[a].append(b)
            adj[b].append(a)
        seen = set()
        out = []
        for n in nodes:
            if n in seen:
                continue
            seen.add(n)
            cls = [n]
            k = 0
            while k < len(cls):
                for m in adj[cls[k]]:
                    if m not in seen:
                        seen.add(m)
                        cls.append(m)
                k += 1
            out.append(cls)
        return out

    def constraints(self):
        """Limit side: (i, f, j, g) meaning f(x_i) == g(x_j)."""
        out = []
        for i, j in self.pairs:
            f = self.edge[(i, (i, j))]
            if self.mode == "nonsplit":
                out.append((i, f, j, self.edge[(j, (i, j))]))
            else:
                t = self.tau[(i, j)]
                out.append((i, {x: t[y] for x, y in f.items()}, j,
                            self.edge[(j, (j, i))]))
        return out

    def families(self):
        """Compatible families in lexicographic order, by a depth-first join
        that checks each constraint as soon as both ends are assigned."""
        pos = {i: k for k, i in enumerate(self.index)}
        checks = {k: [] for k in range(len(self.index))}
        for i, f, j, g in self.constraints():
            checks[max(pos[i], pos[j])].append((pos[i], f, pos[j], g))
        out = []
        combo = []

        def extend(k):
            if k == len(self.index):
                out.append(tuple(combo))
                return
            for x in self.carrier[(self.index[k],)]:
                combo.append(x)
                if all(f[combo[a]] == g[combo[b]]
                       for a, f, b, g in checks[k]):
                    extend(k + 1)
                combo.pop()
        extend(0)
        return out


def _compare(problems, what, got, want):
    if got != want:
        text = repr(got)
        problems.append("%s: got %s, want %s" % (
            what, text[:120], repr(want)[:120]))


def _opens_of_report(node):
    return {frozenset(o) for o in node["opens"]}


def _check_topology(problems, data, glued, apex, legs, side):
    """The apex topology and every leg's property flags."""
    comps = data.index
    spaces_in = [data.space[(i,)] for i in comps]
    maps = [legs[(i,)] for i in comps]
    if side == "colimit":
        nbhd = spaces.final_nbhd(apex, maps, spaces_in)
    else:
        nbhd = spaces.initial_nbhd(apex, maps, spaces_in)
    want = spaces.opens_of(apex, nbhd)
    got = _opens_of_report(glued["apex"])
    _compare(problems, "apex opens", got, want)
    props = glued.get("leg_properties", {})
    for obj, fn in legs.items():
        obj_opens = data.opens(obj)
        if side == "colimit":
            expect = spaces.map_properties(fn, obj_opens, want)
        else:
            expect = spaces.map_properties(fn, want, obj_opens)
        _compare(problems, "leg_properties %s" % _key(obj),
                 props.get(_key(obj)), expect)


def colimit_answer(data):
    classes = data.classes()
    name = {}
    for cls in classes:
        label = min(cls)
        for n in cls:
            name[n] = label
    apex = [min(cls) for cls in classes]
    legs = {}
    for i in data.index:
        legs[(i,)] = {x: name[i + SEP + x] for x in data.carrier[(i,)]}
    for pair in data.pairs:
        i = pair[0]
        e = data.edge[(i, pair)]
        legs[pair] = {u: legs[(i,)][e[u]] for u in data.carrier[pair]}
    return apex, legs, classes


def limit_answer(data):
    fams = data.families()
    apex = [SEP.join(f) for f in fams]
    legs = {}
    for k, i in enumerate(data.index):
        legs[(i,)] = {SEP.join(f): f[k] for f in fams}
    for pair in data.pairs:
        i = pair[0]
        e = data.edge[(i, pair)]
        legs[pair] = {a: e[x] for a, x in legs[(i,)].items()}
    return apex, legs


def check_glue(item, report, problems):
    payload = item["doc"]["payload"]
    data = RawGluing(payload)
    side = item["flags"].get("side") or (
        "colimit" if data.direction == "from-overlaps" else "limit")
    art = report["artifacts"]
    glued = art["glued"]
    if side == "colimit":
        apex, legs, classes = colimit_answer(data)
        want_classes = {min(c): sorted(c) for c in classes}
        _compare(problems, "classes", art.get("classes"), want_classes)
    else:
        apex, legs = limit_answer(data)
    _compare(problems, "side", glued["side"], side)
    _compare(problems, "apex_size", art["apex_size"], len(apex))
    got_apex = glued["apex"]["points"] if data.ambient == "top" \
        else glued["apex"]
    _compare(problems, "apex", got_apex, apex)
    _compare(problems, "legs", glued["legs"],
             {_key(obj): fn for obj, fn in legs.items()})
    if data.ambient == "top":
        _check_topology(problems, data, glued, apex, legs, side)
        if item["expect"].get("charts"):
            for i in data.index:
                props = glued.get("leg_properties", {}).get(i, {})
                if not (props.get("open") and props.get("embedding")):
                    problems.append("chart leg %s is not an open embedding"
                                    % i)
    if "delta" in payload:
        # colimits of sets are universal: pulling back along any map into
        # the apex glues up again
        _compare(problems, "universal_glued",
                 report["verdicts"].get("universal_glued"), True)


def check_hom(item, report, problems):
    payload = item["doc"]["payload"]
    classes = RawGluing(payload).classes()
    count = len(payload["hom_target"]) ** len(classes)
    _compare(problems, "family_count", report["artifacts"]["family_count"],
             count)
    _compare(problems, "hom_count", report["artifacts"]["hom_count"], count)
    _compare(problems, "bijection_verified",
             report["verdicts"]["bijection_verified"], True)


def check_effective(item, report, problems):
    data = RawGluing(item["doc"]["payload"])
    _compare(problems, "apex_size", report["artifacts"]["apex_size"],
             len(data.classes()))
    v = report["verdicts"]
    flags = (v["congruence_and_injective"], v["intersection_characterization"],
             v["strong_bijections"])
    # the three readings of effectiveness are equivalent
    _compare(problems, "flags agree", len(set(flags)), 1)
    _compare(problems, "all_equivalent", v["all_equivalent"], True)
    _compare(problems, "effective", flags[0], item["expect"]["exit"] == 0)
    if item["expect"].get("charts"):
        for i, d in report["diagnostics"]["legs"].items():
            _compare(problems, "leg %s embeds" % i, d["leg_embeds"], True)


def _image(sources):
    hit = set()
    for node in sources:
        hit.update(node["map"].values())
    return hit


def check_cover(item, report, problems):
    payload = item["doc"]["payload"]
    v = report["verdicts"]
    if payload["ambient"] == "top":
        effective = item["expect"]["exit"] == 0
        _compare(problems, "effective", v["effective"], effective)
        _compare(problems, "all_effective", v["all_effective"], effective)
        return
    hit = _image(payload["sources"])
    js = hit == set(payload["target"])
    _compare(problems, "jointly_surjective", v["jointly_surjective"], js)
    _compare(problems, "effective", v["effective"], js)
    per_test = []
    for node in payload.get("tests", []):
        per_test.append({"map_domain": list(node["object"]),
                         "effective": all(t in hit
                                          for t in node["map"].values())})
    _compare(problems, "per_test", report["diagnostics"]["per_test"],
             per_test)
    _compare(problems, "all_effective", v["all_effective"],
             js and all(t["effective"] for t in per_test))


def check_compose(item, report, problems):
    payload = item["doc"]["payload"]
    flat = {}
    for node in payload["sources"]:
        inner = payload["inner"][node["name"]]
        for sub in inner["sources"]:
            flat["%s.%s" % (node["name"], sub["name"])] = {
                x: node["map"][y] for x, y in sub["map"].items()}
    _compare(problems, "flattened_sources",
             report["artifacts"]["flattened_sources"], flat)
    hit = set()
    for fn in flat.values():
        hit.update(fn.values())
    _compare(problems, "is_glued_up", report["verdicts"]["is_glued_up"],
             hit == set(payload["target"]))


def _profile(fn, target):
    counts = {}
    for y in fn.values():
        counts[y] = counts.get(y, 0) + 1
    return tuple(counts.get(t, 0) for t in target)


def _sink_key(target, maps):
    return (tuple(target), tuple(sorted(_profile(fn, target)
                                        for fn in maps)))


def site_violations(payload):
    """The covering axioms on a sets site, with sinks compared by the
    multiset of their sources' fibre profiles."""
    covers = [(list(c["target"]), [(s["name"], list(s["object"]), s["map"])
                                   for s in c["sources"]])
              for c in payload["coverings"]]
    declared = {_sink_key(t, [fn for _, _, fn in srcs]) for t, srcs in covers}
    count = 0
    for m in payload["morphisms"]:
        fn, cod = m["map"], list(m["cod"])
        if len(set(fn.values())) == len(fn) == len(cod):
            if _sink_key(cod, [fn]) not in declared:
                count += 1
    for target, srcs in covers:
        options = [[c for c in covers if c[0] == obj] for _, obj, _ in srcs]
        if any(not refs for refs in options):
            continue
        combos = [[]]
        for refs in options:
            combos = [c + [r] for c in combos for r in refs]
        for combo in combos:
            maps = []
            for (_, _, outer), (_, inner) in zip(srcs, combo):
                maps.extend({x: outer[y] for x, y in fn.items()}
                            for _, _, fn in inner)
            if _sink_key(target, maps) not in declared:
                count += 1
    for target, srcs in covers:
        for m in payload["morphisms"]:
            if list(m["cod"]) != target:
                continue
            g, dom = m["map"], list(m["dom"])
            maps = []
            for _, _, fn in srcs:
                maps.append({(a, v): v for a in fn for v in dom
                             if fn[a] == g[v]})
            if _sink_key(dom, maps) not in declared:
                count += 1
    return count


def check_site(item, report, problems):
    payload = item["doc"]["payload"]
    got = report["verdicts"]["axioms_hold"]
    if payload["ambient"] == "top":
        _compare(problems, "axioms_hold", got, item["expect"]["exit"] == 0)
        return
    count = site_violations(payload)
    _compare(problems, "violations", len(report["diagnostics"]["violations"]),
             count)
    _compare(problems, "axioms_hold", got, count == 0)


def check_sheaf(item, report, problems):
    sheaf = item["expect"]["sheaf"]
    v = report["verdicts"]
    # function presheaves are sheaves; constant presheaves with two or more
    # values fail on the empty cover of the empty open
    _compare(problems, "separated", v["separated"], sheaf)
    _compare(problems, "sheaf", v["sheaf"], sheaf)
    if sheaf:
        _compare(problems, "sheaf_counterexample",
                 report["diagnostics"]["sheaf_counterexample"], None)


def _twist(expect, a, b, p):
    tw = expect["twists"].get("%s>%s>%s" % (a, b, p))
    if tw is not None:
        return tw
    back = expect["twists"].get("%s>%s>%s" % (b, a, p))
    if back is not None:
        return {v: u for u, v in back.items()}
    return None


def check_glue_sheaves(item, report, problems):
    expect = item["expect"]
    payload = item["doc"]["payload"]
    points = payload["space"]["points"]
    names = list(expect["charts"])
    count = {}
    for p in points:
        holding = [n for n in names if p in expect["charts"][n]]
        ok = 0
        for v in expect["stalks"][p]:
            vals = {}
            for n in holding:
                tw = _twist(expect, holding[0], n, p)
                vals[n] = tw[v] if tw else v
            if all((_twist(expect, b, c, p) or {}).get(vals[b], vals[b])
                   == vals[c] for b in holding for c in holding):
                ok += 1
        count[p] = ok
    want = {}
    for node in payload["space"]["opens"]:
        size = 1
        for p in node:
            size *= count[p]
        want[",".join(node)] = size
    got = {k: len(v) for k, v in report["artifacts"]["sections"].items()}
    _compare(problems, "glued section counts", got, want)
    v = report["verdicts"]
    consistent = item["expect"]["exit"] == 0
    _compare(problems, "identity_ok", v["identity_ok"], True)
    _compare(problems, "cocycle_ok", v["cocycle_ok"], consistent)
    _compare(problems, "psi_restriction_bijective",
             v["psi_restriction_bijective"], consistent)
    _compare(problems, "effectiveness_equivalence",
             v["effectiveness_equivalence"], True)


def check_glue_map(item, report, problems):
    phi = item["expect"]["phi"]
    sections = item["doc"]["payload"]["presheaf"]["sections"]
    want = {}
    for key, labels in sections.items():
        comp = {}
        for lab in labels:
            if lab == "()":
                comp[lab] = lab
                continue
            parts = [s.split("=") for s in lab.split(";")]
            comp[lab] = ";".join("%s=%s" % (p, phi[p][v]) for p, v in parts)
        want[key] = comp
    _compare(problems, "components", report["artifacts"]["components"], want)
    _compare(problems, "glued", report["verdicts"]["glued"], True)


def check_refine(item, report, problems):
    payload = item["doc"]["payload"]
    source = RawGluing(payload["source"])
    target = RawGluing(payload["target"])
    gamma = payload["gamma"]
    comps = payload["components"]
    art = report["artifacts"]
    _compare(problems, "valid", report["verdicts"]["valid"], True)
    if source.direction == "toward-overlaps":
        s_apex, s_legs = limit_answer(source)
        t_apex, _ = limit_answer(target)
        induced = {a: SEP.join(comps[i][s_legs[(gamma[i],)][a]]
                               for i in target.index) for a in s_apex}
    else:
        s_apex, s_legs, _ = colimit_answer(source)
        t_apex, t_legs, _ = colimit_answer(target)
        induced = {}
        for i in target.index:
            for x in source.carrier[(gamma[i],)]:
                induced[s_legs[(gamma[i],)][x]] = \
                    t_legs[(i,)][comps[i][x]]
    _compare(problems, "source_apex_size", art.get("source_apex_size"),
             len(s_apex))
    _compare(problems, "target_apex_size", art.get("target_apex_size"),
             len(t_apex))
    _compare(problems, "induced_map", art.get("induced_map"), induced)


CHECKERS = {
    "glue": check_glue,
    "hom": check_hom,
    "check-effective": check_effective,
    "check-cover": check_cover,
    "compose": check_compose,
    "check-site": check_site,
    "check-sheaf": check_sheaf,
    "glue-sheaves": check_glue_sheaves,
    "glue-map": check_glue_map,
    "refine": check_refine,
}


def check(item, report, exit_code):
    """Every disagreement between a report and the reference computation."""
    problems = []
    _compare(problems, "exit code", exit_code, item["expect"]["exit"])
    if report is None:
        problems.append("no report")
        return problems
    _compare(problems, "command", report.get("command"), item["command"])
    try:
        CHECKERS[item["command"]](item, report, problems)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        problems.append("report lacks an expected field: %r" % (err,))
    return problems
