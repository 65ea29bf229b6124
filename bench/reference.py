"""Machine-speed correction: times in reference seconds.

Times are reported in reference seconds.  The shared machine this was
built on switches, for seconds to minutes at a time, between a fast state
and one in which the package runs up to twice as slowly, so raw wall
times of two runs of the same code can differ by half.  Around every
block of operations the benchmark times ``reference_work``, a fixed piece
of pure Python shaped like the package's hot loops, and divides the
block's wall time by how much slower than ``REFERENCE_S`` that work ran.
A block whose two reference timings differ by more than a tenth straddled
a change of state; it is left out of the figures, unless no block was
steady.  Raw wall times are kept next to the corrected ones in every
result.

This module imports nothing from the package, so a fresh interpreter can
use it before timing the package's import.
"""

from __future__ import annotations

import random
import time

# reference_work() on an idle 2-core Intel Xeon at 2.0 GHz under CPython
# 3.11.7 (the machine the first baseline was taken on).
REFERENCE_S = 0.0107
_WORDS = tuple(tuple(random.Random(i).sample(range(1, 9), 8)) for i in range(64))


def reference_work() -> float:
    """Seconds taken by fixed work like the package's inner loops: sorting
    small tuples and building the dicts and tuples of relative orders."""
    start = time.perf_counter()
    for _ in range(80):
        for w in _WORDS:
            rank = {v: r for r, v in enumerate(sorted(w))}
            tuple(rank[v] for v in w)
    return time.perf_counter() - start


def slowdown() -> float:
    """How many times slower than the reference state the machine runs now."""
    return reference_work() / REFERENCE_S


# Runs in a fresh interpreter from the checkout root.  Set-up is timed
# from the script's first statement to the first verdict of
# ``classify 12345``: import, catalog self-check and one classification.
# Interpreter start-up is not the package's cost and is left out.  Only
# modules loaded at interpreter start are used before the verdict.
SETUP_CHILD = r"""
import io, sys, time
sys.path.insert(0, "bench")
from reference import slowdown
slowdown()
before = slowdown()
t0 = time.perf_counter()
sys.path.insert(0, "src")
import spherical
t1 = time.perf_counter()
spherical.catalog()
t2 = time.perf_counter()
from spherical import cli
out, sys.stdout = sys.stdout, io.StringIO()
status = cli.main(["classify", "12345"])
out, sys.stdout = sys.stdout, out
t3 = time.perf_counter()
after = slowdown()
import json
print(json.dumps({"setup_s": t3 - t0, "before": before, "after": after,
                  "import_s": t1 - t0, "catalog_s": t2 - t1,
                  "status": status, "out": out.getvalue()}))
"""
