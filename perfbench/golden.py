"""Golden report corpus: documents with the exact bytes and exit code the
CLI gives for them.

    python3 perfbench/golden.py make    # write the corpus anew
    python3 perfbench/golden.py check   # compare today's output, byte for byte

The corpus is a copy of the output of the code it was made from.  It guards
determinism, so that a change meant to keep behaviour can show that it did;
it is not a proof of correctness (the reference checkers are).  ``make``
builds the documents from the benchmark's generators with a fixed seed and
records stdout, stderr and the exit status of ``glueforge.cli.main``.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import docs  # noqa: E402

CORPUS = os.path.join(HERE, "golden")


def _cases():
    """(name, argv after the command's --input, document) for every case."""
    rng = random.Random("golden")
    d = docs
    out = []

    def add(name, command, doc, *flags):
        out.append((name, [command] + list(flags), doc))

    add("glue-colimit-sets", "glue",
        d._doc("gluing", d.chart_colimit(rng, 3, 4, 1)))
    add("glue-colimit-split", "glue",
        d._doc("gluing", d.chart_colimit(rng, 3, 4, 1, shape="ring",
                                         mode="split")))
    delta = d.chart_colimit(rng, 2, 3, 1)
    delta["delta"] = {"component": "1", "object": ["d0", "d1"],
                      "map": {"d0": "x1_0", "d1": "x1_2"}}
    add("glue-delta", "glue", d._doc("gluing", delta), "--side", "colimit")
    add("glue-limit-sets", "glue",
        d._doc("gluing", d.colour_limit(rng, 3, 4, 2)), "--side", "limit")
    add("glue-limit-split", "glue",
        d._doc("gluing", d.colour_limit(rng, 3, 4, 2, mode="split")))
    add("glue-top-charts", "glue",
        d._doc("gluing", d.top_chart_gluing(rng, 2, 1)))
    add("glue-top-discrete", "glue",
        d._doc("gluing", d.top_discrete_gluing(rng, 2, 2, 1)))
    add("glue-top-limit", "glue",
        d._doc("gluing", d.colour_limit(rng, 2, 3, 3, ambient="top")),
        "--side", "limit", "--ambient", "top")
    add("hom", "hom", d._doc("gluing", d.chart_colimit(
        rng, 2, 2, 1, hom_target=["z0", "z1"])))
    add("check-effective-sets", "check-effective",
        d._doc("gluing", d.chart_colimit(rng, 3, 3, 1, mode="split")))
    add("check-effective-top-e4", "check-effective", d._doc("gluing",
                                                            d.e4_top()))
    add("check-cover-sets", "check-cover", d.block_sink(rng, 6, 3, 3, tests=1))
    add("check-cover-gap", "check-cover",
        d.block_sink(rng, 6, 3, 3, surjective=False, tests=1))
    add("check-cover-top", "check-cover", d.top_chart_sink(rng, 2, 1))
    add("compose", "compose", d.block_sink(rng, 4, 2, 2, inner=True))
    add("check-site-violated", "check-site", d.block_site(rng, 4, 2, True))
    add("check-site-top", "check-site", d.top_chart_site(rng, 2, 1))
    add("check-sheaf", "check-sheaf", d.sheaf_doc(rng, "discrete", 2, 2))
    add("check-sheaf-exhaustive", "check-sheaf",
        d.sheaf_doc(rng, "chain", 3, 2), "--covers", "exhaustive")
    add("check-sheaf-constant", "check-sheaf",
        d.sheaf_doc(rng, "sierpinski", 2, 2, constant=True))
    add("glue-sheaves", "glue-sheaves", d.gluing_datum(
        rng, "sierpinski", 3, 2, d._open_charts)[0])
    add("glue-sheaves-broken", "glue-sheaves", d.gluing_datum(
        rng, "discrete", 1, 2, d._triple_whole, twists=d._broken)[0])
    add("glue-map", "glue-map", d.glue_map_doc(rng, "sierpinski", 2, 2, 2)[0])
    add("refine-limit", "refine", d.limit_refinement(rng, 3, 3, 3))
    add("refine-colimit", "refine", d.colimit_refinement(rng, 2, 3, 1,
                                                         "chain"))
    add("exit2-cap", "glue", d._doc("gluing", d.colour_limit(rng, 2, 3, 3)),
        "--side", "limit", "--cap", "3")
    bad_mode = d._doc("gluing", d.chart_colimit(rng, 2, 2, 1))
    bad_mode["payload"]["mode"] = "diagonal"
    add("exit2-schema", "glue", bad_mode)
    reserved = d._doc("gluing", d.chart_colimit(rng, 2, 2, 1))
    reserved["payload"]["objects"]["1"][0] = "x|y"
    add("exit2-reserved-label", "glue", reserved)
    add("exit2-wrong-side", "glue",
        d._doc("gluing", d.chart_colimit(rng, 2, 2, 1)), "--side", "limit")
    return out


def _run(argv, path):
    from glueforge import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], "--input", path] + argv[1:])
    return out.getvalue().encode(), err.getvalue().encode(), code


def make():
    if os.path.isdir(CORPUS):
        shutil.rmtree(CORPUS)
    os.makedirs(CORPUS)
    manifest = []
    for name, argv, doc in _cases():
        path = os.path.join(CORPUS, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        out, err, code = _run(argv, path)
        for suffix, data in ((".out", out), (".err", err)):
            with open(os.path.join(CORPUS, name + suffix), "wb") as handle:
                handle.write(data)
        manifest.append({"name": name, "argv": argv, "exit": code})
    with open(os.path.join(CORPUS, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")
    print("wrote %d cases to %s" % (len(manifest), CORPUS))


def check():
    with open(os.path.join(CORPUS, "manifest.json"), encoding="utf-8") as h:
        manifest = json.load(h)
    bad = 0
    for case in manifest:
        base = os.path.join(CORPUS, case["name"])
        out, err, code = _run(case["argv"], base + ".json")
        with open(base + ".out", "rb") as h:
            want_out = h.read()
        with open(base + ".err", "rb") as h:
            want_err = h.read()
        if (out, err, code) != (want_out, want_err, case["exit"]):
            bad += 1
            print("DIFFERS %s (exit %s, want %s)" % (case["name"], code,
                                                      case["exit"]))
    print("%d of %d golden cases identical" % (len(manifest) - bad,
                                                len(manifest)))
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["make"]:
        make()
    elif sys.argv[1:] == ["check"]:
        sys.exit(check())
    else:
        sys.exit("usage: golden.py make|check")
