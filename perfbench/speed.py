"""Machine-speed calibration for the benchmark's timings.

Shared virtual machines, like the one the reference figures come from,
change speed by 20-40 % from one minute to the next as other tenants load
the host, which swamps the changes a benchmark must resolve.  So the worker
times a fixed pure-Python snippet (dict, set, string and sort work, like
glueforge's own) between every two documents and scales each document's
time by ``REFERENCE_NS`` over the mean of the snippet times just before and
after it.  Reported times are thus milliseconds on a machine where the
snippet takes ``REFERENCE_NS`` between documents; on the 2-vCPU virtual
machine of the reference figures it took 0.2 to 0.35 ms.  The snippet runs
once untimed and once timed, with the garbage collector off, so neither the
caches nor the heap the program leaves behind change its time.  The worker
reports the unscaled figures as well.
"""

import gc
import statistics
from time import perf_counter_ns

REFERENCE_NS = 300_000

_KEYS = ["k%d|%d" % (i, i * 7 % 13) for i in range(600)]


def _snippet():
    table = {}
    for key in _KEYS:
        table[key] = key.split("|")[0]
    ",".join(sorted(set(table.values()), key=len))
    window = frozenset(_KEYS[:200]) | frozenset(_KEYS[100:300])
    [k for k in _KEYS if k in window]


def sample():
    """Wall time of one run of the calibration snippet, in nanoseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _snippet()
        start = perf_counter_ns()
        _snippet()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def median_sample(n):
    return statistics.median(sample() for _ in range(n))


def factor(samples):
    """Scale from this machine's current speed to the reference speed."""
    return REFERENCE_NS / statistics.median(samples)
