"""Self-test of the reference checkers.

    python3 perfbench/selftest.py

For one document per command and ambient, the true glueforge report must
pass its checker, and every deliberate corruption of that report (a wrong
apex, leg, class, open, count, verdict or exit code) must be rejected.
Exits 1 if any corruption slips through or any true report is rejected.
"""

import copy
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import docs  # noqa: E402
import reference  # noqa: E402
from glueforge import cli  # noqa: E402


def _first_key(d):
    return sorted(d)[0]


def _bump_leg(r):
    legs = r["artifacts"]["glued"]["legs"]
    leg = legs[_first_key(legs)]
    x = _first_key(leg)
    values = sorted(set(v for fn in legs.values() for v in fn.values()))
    leg[x] = [v for v in values if v != leg[x]][0]


def _swap_apex(r):
    apex = r["artifacts"]["glued"]["apex"]
    pts = apex["points"] if isinstance(apex, dict) else apex
    pts[0], pts[-1] = pts[-1], pts[0]


def _drop_open(r):
    r["artifacts"]["glued"]["apex"]["opens"].pop()


def _flip_leg_property(r):
    props = r["artifacts"]["glued"]["leg_properties"]
    p = props[_first_key(props)]
    p["open"] = not p["open"]


def _move_class_member(r):
    classes = r["artifacts"]["classes"]
    keys = sorted(classes)
    classes[keys[0]].append(classes[keys[1]].pop())


def _flip(name):
    def corrupt(r):
        r["verdicts"][name] = not r["verdicts"][name]
    return corrupt


def _add(path, n=1):
    def corrupt(r):
        node = r
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += n
    return corrupt


def _drop_section(r):
    sections = r["artifacts"]["sections"]
    key = max(sections, key=lambda k: len(sections[k]))
    sections[key].pop()


def _retarget(path):
    """Send the first entry of a nested map to another value of that map."""
    def corrupt(r):
        node = r
        for key in path:
            node = node[key]
        while isinstance(node[_first_key(node)], dict):
            node = node[_first_key(node)]
        x = _first_key(node)
        others = sorted(set(node.values()) - {node[x]})
        node[x] = others[0] if others else node[x] + "_"
    return corrupt


def _add_violation(r):
    r["diagnostics"]["violations"].append("invented")


def _flip_test(r):
    t = r["diagnostics"]["per_test"][0]
    t["effective"] = not t["effective"]


def cases():
    rng = random.Random("selftest")
    d = docs
    flat = d._doc
    return [
        ("glue colimit sets", "glue", flat("gluing", d.chart_colimit(
            rng, 3, 4, 1)), {"exit": 0}, {},
         [_bump_leg, _swap_apex, _move_class_member,
          _add(["artifacts", "apex_size"])]),
        ("glue colimit split", "glue", flat("gluing", d.chart_colimit(
            rng, 3, 4, 1, shape="ring", mode="split")), {"exit": 0}, {},
         [_bump_leg, _move_class_member]),
        ("glue limit sets", "glue", flat("gluing", d.colour_limit(
            rng, 3, 4, 2)), {"exit": 0}, {"side": "limit"},
         [_bump_leg, _swap_apex]),
        ("glue top charts", "glue", flat("gluing", d.top_chart_gluing(
            rng, 3, 2)), {"exit": 0, "charts": True}, {},
         [_drop_open, _flip_leg_property, _bump_leg]),
        ("glue top limit", "glue", flat("gluing", d.colour_limit(
            rng, 3, 6, 3, ambient="top")), {"exit": 0}, {"side": "limit"},
         [_drop_open, _flip_leg_property, _swap_apex]),
        ("hom", "hom", flat("gluing", d.chart_colimit(
            rng, 2, 3, 1, hom_target=["z0", "z1"])), {"exit": 0}, {},
         [_add(["artifacts", "family_count"]),
          _add(["artifacts", "hom_count"]), _flip("bijection_verified")]),
        ("check-effective", "check-effective", flat("gluing", d.top_chart_gluing(
            rng, 3, 1)), {"exit": 0, "charts": True}, {},
         [_flip("strong_bijections"), _add(["artifacts", "apex_size"])]),
        ("check-cover sets", "check-cover", d.block_sink(
            rng, 12, 3, 6, tests=2), {"exit": 0}, {},
         [_flip("jointly_surjective"), _flip("effective"), _flip_test]),
        ("check-cover top", "check-cover", d.top_chart_sink(rng, 3, 1),
         {"exit": 0}, {}, [_flip("effective"), _flip("all_effective")]),
        ("compose", "compose", d.block_sink(rng, 8, 2, 4, inner=True),
         {"exit": 0}, {},
         [_retarget(["artifacts", "flattened_sources"]),
          _flip("is_glued_up")]),
        ("check-site sets", "check-site", d.block_site(rng, 6, 2, True),
         {"exit": 1}, {}, [_add_violation, _flip("axioms_hold")]),
        ("check-site top", "check-site", d.top_chart_site(rng, 2, 1),
         {"exit": 0}, {}, [_flip("axioms_hold")]),
        ("check-sheaf", "check-sheaf", d.sheaf_doc(rng, "discrete", 3, 2),
         {"exit": 0, "sheaf": True}, {},
         [_flip("sheaf"), _flip("separated")]),
        ("check-sheaf constant", "check-sheaf",
         d.sheaf_doc(rng, "chain", 3, 2, constant=True),
         {"exit": 1, "sheaf": False}, {}, [_flip("sheaf")]),
        ("glue-sheaves", "glue-sheaves") + d.gluing_datum(
            rng, "sierpinski", 4, 2, d._open_charts) + (
            {}, [_drop_section, _flip("cocycle_ok")]),
        ("glue-map", "glue-map") + d.glue_map_doc(
            rng, "discrete", 3, 2, 2) + (
            {}, [_retarget(["artifacts", "components"])]),
        ("refine limit", "refine", d.limit_refinement(rng, 3, 4, 2),
         {"exit": 0}, {},
         [_retarget(["artifacts", "induced_map"]),
          _add(["artifacts", "source_apex_size"])]),
        ("refine colimit", "refine", d.colimit_refinement(
            rng, 3, 5, 1, "ring"), {"exit": 0}, {},
         [_retarget(["artifacts", "induced_map"]),
          _add(["artifacts", "target_apex_size"])]),
    ]


def main():
    bad = 0
    checked = 0
    for name, command, doc, expect, flags, corruptions in cases():
        expect.setdefault("exit", 0)
        item = {"name": name, "command": command, "flags": flags, "doc": doc,
                "expect": expect}
        report = cli.execute(command, cli.load_document(
            io.StringIO(json.dumps(doc))), flags)
        report = json.loads(cli.render_report(report))
        code = cli.report_exit_code(report)
        problems = reference.check(item, report, code)
        if problems:
            bad += 1
            print("REJECTS TRUE REPORT %s: %s" % (name, problems))
        if not reference.check(item, report, 1 - code):
            bad += 1
            print("ACCEPTS WRONG EXIT CODE %s" % name)
        for corrupt in corruptions:
            broken = copy.deepcopy(report)
            corrupt(broken)
            checked += 1
            if broken == report or not reference.check(item, broken, code):
                bad += 1
                print("ACCEPTS CORRUPTION %s: %s" % (name, corrupt.__name__))
    print("%d corruptions over %d documents; %d checker faults"
          % (checked, len(cases()), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
