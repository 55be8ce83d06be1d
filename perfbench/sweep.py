"""Size sweep of each workload's largest document class.

    python3 perfbench/sweep.py

Times one document per size, three times each, from ``load_document`` to
the report bytes, and prints a Markdown table (median wall milliseconds,
unscaled), so the order of growth of each class is visible.
"""

import io
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import docs  # noqa: E402
from glueforge import cli  # noqa: E402

REPEATS = 3


def _time(command, doc, flags):
    text = json.dumps(doc)
    took = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = cli.execute(command, cli.load_document(io.StringIO(text)),
                             flags)
        cli.render_report(report)
        took.append(time.perf_counter() - t0)
    return statistics.median(took) * 1e3


def classes(rng):
    d = docs
    for m in (3, 4, 5, 6, 7):
        yield ("limit-sets", "glue --side limit, m components of 6, 6 colours",
               "m=%d (%d candidates, 6 families)" % (m, 6 ** m), "glue",
               d._doc("gluing", d.colour_limit(rng, m, 6, 6)),
               {"side": "limit"})
    for b in (2, 3, 4, 5):
        yield ("top-spaces", "check-cover on b charts of depth 2",
               "b=%d (%d points)" % (b, 1 + 2 * b), "check-cover",
               d.top_chart_sink(rng, b, 2), {})
    for n in (1, 2, 3):
        yield ("sheaf-checks", "check-sheaf --covers exhaustive, discrete",
               "n=%d points (%d opens)" % (n, 2 ** n), "check-sheaf",
               d.sheaf_doc(rng, "discrete", n, 2), {"covers": "exhaustive"})
    for n in (2, 3, 4):
        yield ("sheaf-checks", "check-sheaf, default covers, discrete",
               "n=%d points (%d opens)" % (n, 2 ** n), "check-sheaf",
               d.sheaf_doc(rng, "discrete", n, 2), {})
    for n in (300, 600, 1200, 2400):
        yield ("colimit-atlas", "glue, ring of 6 components of n points",
               "n=%d" % n, "glue",
               d._doc("gluing", d.chart_colimit(rng, 6, n, n // 10,
                                                shape="ring")), {})


def main():
    rng = random.Random("sweep")
    print("| workload | class | size | median ms |")
    print("|---|---|---|---|")
    for workload, what, size, command, doc, flags in classes(rng):
        print("| %s | %s | %s | %.1f |" % (workload, what, size,
                                          _time(command, doc, flags)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
