"""glueforge benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; glueforge is imported from ./src.
With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s`` (the
median wall time of fresh interpreters that import ``glueforge.cli`` and
load the workload's first document) and, from one fresh worker process, the
document throughput, the median and 90th-percentile time per document and
the worker's peak resident memory.  Times are scaled to a reference machine
speed (speed.py); a line before the result gives the unscaled figures.
With ``--trace 1`` the worker wraps the glueforge module boundaries,
reports the per-layer metrics instead and writes its spans to
perfbench/out/.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import docs  # noqa: E402
import speed  # noqa: E402

SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 170

PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
         "from glueforge.cli import load_document; load_document(sys.stdin); "
         "import speed; print(speed.median_sample(9))")


def setup_seconds(first_doc):
    """Median wall time of fresh interpreters that import the CLI and load
    one document, scaled to the reference speed by calibration samples each
    interpreter takes once it is done (its last few milliseconds, included
    in the time); one untimed spawn first, so byte-code caches exist.
    Returns the scaled and the raw median."""
    text = json.dumps(first_doc).encode()
    scaled = []
    raw = []
    for k in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, SRC, HERE],
                              input=text, stdout=subprocess.PIPE, check=True,
                              timeout=60)
        took = time.perf_counter() - t0
        if k:
            raw.append(took)
            scaled.append(took * speed.REFERENCE_NS / float(proc.stdout))
    return statistics.median(scaled), statistics.median(raw)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(docs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "glueforge", "cli.py")):
        sys.stderr.write("perfbench: no glueforge sources under %s\n" % SRC)
        return 1
    metrics = {}
    if args.trace == "0":
        first = docs.build(args.workload, args.seed)[0]["doc"]
        setup, setup_raw = setup_seconds(first)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    trace_file = os.path.join(HERE, "out", "trace-%s-%d.json"
                              % (args.workload, args.seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
         str(args.seed), str(args.seconds), args.trace, trace_file],
        stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: worker exited with %d\n"
                         % proc.returncode)
        return 1
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if args.trace == "0":
        # unscaled wall times, for reference; the metrics below are scaled
        print(json.dumps({"raw": dict(result["raw"], setup_s=setup_raw),
                          "rounds": result["rounds"]}))
    if args.trace == "1":
        metrics = result["per_layer"]
    else:
        metrics["docs_per_s"] = {"value": result["docs_per_s"],
                                 "unit": "docs/s"}
        for name in ("doc_p50_ms", "doc_p90_ms"):
            metrics[name] = {"value": result[name], "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"],
                                  "unit": "MB"}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
