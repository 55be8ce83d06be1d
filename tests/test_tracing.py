"""perfbench/tracing.py binds glueforge functions by name; a rename in the
engine must fail here rather than break traced benchmark runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.install()
from glueforge import cli, fincat
from glueforge.fincat import FinFn, FinSet, FinTop

# the discrete and the indiscrete space on two points
x = FinTop.from_nbhd(FinSet(["a0", "a1"]), [0b01, 0b10])
y = FinTop.from_nbhd(FinSet(["b0", "b1"]), [0b11, 0b11])
z = FinSet(["z"])
ps = fincat.pullback(FinFn(x.carrier, z, {"a0": "z", "a1": "z"}),
                     FinFn(y.carrier, z, {"b0": "z", "b1": "z"}), x, y)
assert len(ps.space.opens) == 4

def discrete(points):
    return {"points": points,
            "opens": [[]] + [[p] for p in points] + [points]}

doc = cli.Document("gluing", {
    "mode": "split", "ambient": "top", "direction": "from-overlaps",
    "index": ["1", "2"],
    "objects": {"1": discrete(["x0", "x1"]), "2": discrete(["y0", "y1"]),
                "1,2": discrete(["o"]), "2,1": discrete(["o"])},
    "arrows": [
        {"kind": "edge", "from": "1", "pair": "1,2", "map": {"o": "x1"}},
        {"kind": "edge", "from": "2", "pair": "2,1", "map": {"o": "y1"}},
        {"kind": "tau", "pair": "1,2", "map": {"o": "o"}}]}, "1")
report = cli.execute("glue", doc)
assert len(report["artifacts"]["glued"]["apex"]["opens"]) == 8
layers = tracing.per_layer(tracer, 1)
# the two equal overlap spaces are one space, built once; the pullback's
# members get their rows without a call to induce_topology, the glued
# apex along the legs with one
assert layers["fincat.FinTop.calls"]["value"] == 3
assert layers["fincat.induce_topology.opens"]["value"] == 8
assert layers["fincat.pullback.members"]["value"] == 4
assert tracer.calls["gluing.colimit_glue"] == 1
"""


def test_tracing_installs_and_counts_top_operations():
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
