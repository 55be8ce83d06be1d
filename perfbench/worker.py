"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE TRACE_FILE

Builds the workload's documents from the seed, passes each through
glueforge once and checks the report against the reference checkers, then
loops over the fixed list in whole rounds (a closed loop, one client, one
thread) until ``SECONDS`` have passed and at least ``MIN_DOCS`` documents
were timed.  Each document is timed from ``load_document`` (reading from
memory) through ``execute``, ``render_report`` and ``report_exit_code``.
Times are scaled to a reference machine speed (see speed.py); the raw wall
times are reported beside them.  Every later output must repeat the checked
one byte for byte.  With TRACE 1 the glueforge boundaries are wrapped (see
tracing.py) and the spans of the first round are written to TRACE_FILE.
Prints one JSON line of results.
"""

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import docs  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
from glueforge import cli  # noqa: E402
from glueforge.errors import GlueforgeError  # noqa: E402

MIN_DOCS = 100


def run_once(item, text):
    """One document through the CLI's public functions."""
    try:
        doc = cli.load_document(io.StringIO(text))
        report = cli.execute(item["command"], doc, item["flags"])
        out = cli.render_report(report)
        return out, cli.report_exit_code(report)
    except GlueforgeError as err:
        return "error: %s" % err, 2


def verify(items, texts):
    """Check one pass against the reference; the digest of each output that
    agrees, or None where the report is wrong."""
    verified = []
    for item, text in zip(items, texts):
        out, code = run_once(item, text)
        report = json.loads(out) if code != 2 else None
        problems = reference.check(item, report, code)
        if problems:
            sys.stderr.write("perfbench: %s fails: %s\n"
                             % (item["name"], "; ".join(problems[:3])))
            verified.append(None)
        else:
            verified.append((hashlib.sha256(out.encode()).digest(), code))
    return verified


def measure(items, texts, verified, seconds, tracer):
    """Whole rounds over the list.  A calibration sample (speed.py) is taken
    between every two documents; each document's time is scaled to the
    reference speed by the mean of the samples just before and after it,
    and the traced self times of a round by the median of its samples."""
    raw = []
    times = []
    failed = 0
    rounds = 0
    layer_ns = {}
    calib = [speed.sample()]
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(times) < MIN_DOCS):
        before = dict(tracer.self_ns) if tracer is not None else None
        first = len(calib) - 1
        for k, (item, text) in enumerate(zip(items, texts)):
            if tracer is not None:
                tracer.doc = "%d/%s" % (rounds, item["name"])
            t0 = time.perf_counter_ns()
            out, code = run_once(item, text)
            t1 = time.perf_counter_ns()
            calib.append(speed.sample())
            raw.append(t1 - t0)
            times.append((t1 - t0) * speed.REFERENCE_NS * 2
                         / (calib[-2] + calib[-1]))
            if verified[k] != (hashlib.sha256(out.encode()).digest(), code):
                failed += 1
        if tracer is not None:
            tracer.keep = False
            scale = speed.factor(calib[first:])
            for name, ns in tracer.self_ns.items():
                layer_ns[name] = layer_ns.get(name, 0) \
                    + (ns - before.get(name, 0)) * scale
        rounds += 1
    return raw, times, failed, rounds, layer_ns


def _summary(times):
    return {"docs_per_s": len(times) / (sum(times) / 1e9),
            "doc_p50_ms": statistics.median(times) / 1e6,
            "doc_p90_ms": statistics.quantiles(times, n=10)[8] / 1e6}


def main(argv):
    workload, seed, seconds, trace, trace_file = argv
    items = docs.build(workload, int(seed))
    texts = [json.dumps(item["doc"]) for item in items]
    verified = verify(items, texts)
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.install()
        tracer.keep = True
    raw, times, failed, rounds, layer_ns = measure(
        items, texts, verified, float(seconds), tracer)
    result = {"attempted": len(times), "failed": failed, "rounds": rounds,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "raw": _summary(raw)}
    result.update(_summary(times))
    if tracer is not None:
        tracer.self_ns = layer_ns
        result["per_layer"] = tracing.per_layer(tracer, rounds)
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": int(seed),
                       "rounds": rounds,
                       "traced_docs_per_s": result["docs_per_s"],
                       "traced_doc_p50_ms": result["doc_p50_ms"],
                       "fields": ["id", "parent", "doc", "name", "start_ns",
                                  "end_ns"],
                       "spans": tracer.spans}, handle)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
