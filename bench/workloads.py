"""The three timed workloads and the checks on their outputs.

Each workload runs whole operations until its time is up and returns the
per-operation samples; ``end_to_end`` turns them into the reported
metrics.  Only the call into the program is timed: generating inputs and
checking outputs happen outside the timed region.

Times are in reference seconds; see ``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spherical import (
    BACKENDS,
    Permutation,
    catalog,
    cross_check,
    density_table,
    relative_order,
    word_to_permutation,
)
from spherical import cli

from metrics import tail_percentile
from reference import SETUP_CHILD, slowdown
from streams import Query, QueryStream, describe

SCAN_BACKENDS = ("pattern", "boolean_quotient", "divisibility")
# (degree, backends, total, spherical) of each crosscheck call.
CROSSCHECKS = ((7, SCAN_BACKENDS, 5040, 1590), (6, BACKENDS, 720, 400))
SPHERICAL_COUNTS = (1, 2, 6, 24, 99, 400, 1590, 6277)
# The count workload repeats density_table(COUNT_DEGREE) serially.  At
# jobs=2 (the CLI default on 2 cores), and at degree 8 (about 2 s a call)
# even serially, its corrected time spread by a fifth of the median from
# run to run, because the machine changes speed within a call.  Degree 7
# takes about 0.13 s.  The traced run still times density_table(8) at
# jobs=1 and jobs=2 (classify.density_table8_ms, classify.parallel_speedup).
COUNT_DEGREE = 7
COUNT_JOBS = 1
PARALLEL_JOBS = 2
# Largest relative gap between the reference timings around a segment for
# it to count as steady.  A segment that straddles a change of machine
# state is left out of the latency figures, and a group with more than
# MOSTLY of its time in such segments is left out of the rates (unless
# nothing is steady).  The notes count them.
STEADY = 0.10
MOSTLY = 0.20
# Queries between reference timings: short segments rarely straddle a
# change of state.
SEGMENT = 6

_WITNESS = re.compile(r"witness: contains (\d+) at positions ([\d,]+)$")


@dataclass
class Tally:
    """Checks attempted and missed; documented refusals are not misses."""

    attempted: int = 0
    failed: int = 0
    refusals: int = 0
    misses: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 10:
                self.misses.append(what)
        return ok


@dataclass
class Block:
    """Operations timed between two reference timings (``reference.py``).

    Blocks of one ``group`` together make one unit of the workload's mix:
    a crosscheck round, a count call, or a whole queries-stream block.
    """

    walls: list[float]  # raw seconds per operation
    before: float  # slowdown measured just before the block
    after: float  # and just after it
    decided: int  # permutations decided in the block
    deciding_s: float  # raw seconds spent deciding them
    group: int = 0

    @property
    def slowdown(self) -> float:
        return (self.before + self.after) / 2

    @property
    def steady(self) -> bool:
        """The machine kept one speed across the block, so the correction holds."""
        return abs(self.after - self.before) <= STEADY * min(self.before, self.after)


@dataclass
class Samples:
    """The blocks of one timed run; a scan block is one operation and its own group."""

    blocks: list[Block] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)


def call_cli(argv) -> tuple[int, str, float]:
    """Run one CLI verb in process; return exit status, stdout and seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        status = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return status, out.getvalue(), elapsed


def measure_setup(root: Path, runs: int, tally: Tally) -> dict[str, list[float]]:
    """Set-up in fresh interpreters: import, catalog self-check and the
    first classify verdict, timed inside each child (see ``SETUP_CHILD``).
    ``setup_s`` is in reference seconds, from steady children only."""
    got: dict[str, list[float]] = {"import_s": [], "catalog_s": []}
    children: list[Block] = []
    for i in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        tally.check(
            child["status"] == 0 and child["out"] == "spherical\n",
            "classify 12345 in a fresh interpreter",
        )
        if i == 0:
            continue  # the first child may compile bytecode; not timed
        children.append(Block([child["setup_s"]], child["before"], child["after"], 0, 0.0))
        got["import_s"].append(child["import_s"])
        got["catalog_s"].append(child["catalog_s"])
    used = [b for b in children if b.steady] or children
    got["setup_s"] = [b.walls[0] / b.slowdown for b in used]
    got["raw_setup_s"] = [b.walls[0] for b in children]
    return got


def check_crosscheck(report, total: int, spherical: int, tally: Tally) -> None:
    tally.check(
        report.total == total
        and report.spherical == spherical
        and report.disagreement_count == 0,
        f"cross_check({report.n}): {report.summary_line()}",
    )


def check_density(rows, tally: Tally) -> None:
    got = tuple(r.spherical for r in rows)
    totals = tuple(r.total for r in rows)
    tally.check(
        got == SPHERICAL_COUNTS[: len(rows)]
        and totals == tuple(math.factorial(n) for n in range(1, len(rows) + 1)),
        f"density_table({len(rows)}): {got}",
    )


def _classify_ok(q: Query, status: int, lines: list[str]) -> bool:
    verdict = "spherical" if q.expect else "not spherical"
    if status != (0 if q.expect else 1) or not lines or lines[0] != verdict:
        return False
    if q.verb == "classify_all":
        return lines[1] == "backends agree: yes" and len(lines) == 2 + len(BACKENDS)
    if q.expect:
        return lines[1] == "witness: avoids all 21 blocking patterns"
    # The witness must name a catalog pattern at positions realising it.
    m = _WITNESS.match(lines[1])
    if not m:
        return False
    pattern = Permutation.from_text(m.group(1))
    spots = [int(i) for i in m.group(2).split(",")]
    host = q.perms[0]
    return pattern in catalog().all and relative_order(
        [host[i - 1] for i in spots]
    ) == pattern.oneline


def _words_ok(q: Query, status: int, lines: list[str]) -> bool:
    w = q.perms[0]
    if status != 0 or not lines:
        return False
    length = Permutation(w).length()
    words = set()
    for line in lines:
        word = tuple(int(t) for t in line.strip("[]").split(",") if t)
        if len(word) != length or word_to_permutation(word, len(w)).oneline != w:
            return False
        words.add(word)
    return len(words) == len(lines) and (q.limit is None or len(lines) <= q.limit)


def check_query(q: Query, status: int, out: str, tally: Tally) -> None:
    """Check one CLI answer against what the input was built to give."""
    lines = out.splitlines()
    if q.refused:
        # A documented refusal: usage status and nothing on stdout.
        if tally.check(status == 2 and not out, f"{' '.join(q.argv)} was not refused"):
            tally.refusals += 1
        return
    if q.verb in ("classify", "classify_all"):
        ok = _classify_ok(q, status, lines)
    elif q.verb == "words":
        ok = _words_ok(q, status, lines)
    elif q.verb == "bruhat":
        ok = (
            status == 0
            and len(lines) == 2
            and lines[0] == ("true" if q.expect else "false")
        )
    else:
        m = re.match(r"(\d+) elements, boolean: (true|false)$", lines[0]) if lines else None
        ok = (
            status == 0
            and m is not None
            and (m.group(2) == "true") == q.expect
            and (not q.expect or int(m.group(1)) == 2 ** Permutation(q.perms[0]).length())
        )
    tally.check(ok, " ".join(q.argv))


def run_crosscheck(seconds: float, seed: int, tally: Tally) -> Samples:
    """Rounds of cross_check(7, three backends) and cross_check(6, all four).

    The scans are exhaustive, so the seed only orders the two calls.
    """
    rng = random.Random(seed)
    samples = Samples(inputs={"degrees": {7: 5040, 6: 720}, "jobs": 1})
    decided = sum(total for _, _, total, _ in CROSSCHECKS)
    for n, backends, total, spherical in CROSSCHECKS:  # warm-up
        check_crosscheck(cross_check(n, backends, jobs=1), total, spherical, tally)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        calls = list(CROSSCHECKS)
        rng.shuffle(calls)
        before = slowdown()
        elapsed = 0.0
        for n, backends, total, spherical in calls:
            start = time.perf_counter()
            report = cross_check(n, backends, jobs=1)
            elapsed += time.perf_counter() - start
            check_crosscheck(report, total, spherical, tally)
        samples.blocks.append(Block([elapsed], before, slowdown(), decided, elapsed, len(samples.blocks)))
    return samples


def run_count(seconds: float, tally: Tally) -> Samples:
    """Repeated density_table(COUNT_DEGREE); no seeded inputs."""
    samples = Samples(inputs={"degrees": f"1..{COUNT_DEGREE}", "jobs": COUNT_JOBS})
    decided = sum(math.factorial(n) for n in range(1, COUNT_DEGREE + 1))
    check_density(density_table(COUNT_DEGREE, jobs=COUNT_JOBS), tally)  # warm-up
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        before = slowdown()
        start = time.perf_counter()
        rows = density_table(COUNT_DEGREE, jobs=COUNT_JOBS)
        elapsed = time.perf_counter() - start
        check_density(rows, tally)
        samples.blocks.append(Block([elapsed], before, slowdown(), decided, elapsed, len(samples.blocks)))
    return samples


def run_queries(seconds: float, stream: QueryStream, tally: Tally) -> Samples:
    """A closed loop with one client sending whole blocks of CLI verbs."""
    samples = Samples()
    sent: list[Query] = []
    for q in stream.block():  # warm-up
        status, out, _ = call_cli(q.argv)
        check_query(q, status, out, tally)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        block = stream.block()
        mark = slowdown()
        for start in range(0, len(block), SEGMENT):
            walls = []
            classified = 0
            classify_s = 0.0
            for q in block[start : start + SEGMENT]:
                status, out, elapsed = call_cli(q.argv)
                check_query(q, status, out, tally)
                walls.append(elapsed)
                if q.verb in ("classify", "classify_all"):
                    classified += 1
                    classify_s += elapsed
            before, mark = mark, slowdown()
            samples.blocks.append(Block(walls, before, mark, classified, classify_s, len(sent)))
        sent.extend(block)
    samples.inputs = describe(sent)
    return samples


def end_to_end(samples: Samples) -> tuple[dict[str, tuple[float, str, int]], dict]:
    """Throughput and latency metrics as (value, unit, sample count), and
    notes: the tail's percentile, raw wall-time figures, the slowdowns.

    Times are corrected to reference seconds.  Latencies come from steady
    blocks; rates are medians over mostly steady groups, so a short stall
    moves one group rather than the whole figure.
    """
    steady = [b for b in samples.blocks if b.steady] or samples.blocks
    lat_ms = [w / b.slowdown * 1e3 for b in steady for w in b.walls]
    pct, tail, n = tail_percentile(lat_ms)

    groups: dict[int, list[Block]] = defaultdict(list)
    for b in samples.blocks:
        groups[b.group].append(b)

    def mostly_steady(g: list[Block]) -> bool:
        shaky = sum(sum(b.walls) for b in g if not b.steady)
        return shaky <= MOSTLY * sum(sum(b.walls) for b in g)

    used = [g for g in groups.values() if mostly_steady(g)] or list(groups.values())
    query_rate = statistics.median(
        sum(len(b.walls) for b in g) / sum(sum(b.walls) / b.slowdown for b in g) for g in used
    )
    perms_rate = statistics.median(
        sum(b.decided for b in g) / sum(b.deciding_s / b.slowdown for b in g) for g in used
    )
    metrics = {
        "perms_per_s": (perms_rate, "perm/s", len(used)),
        "queries_per_s": (query_rate, "query/s", len(used)),
        "query_p50_ms": (statistics.median(lat_ms), "ms", n),
        "query_p99_ms": (tail, "ms", n),
    }
    raw_ms = [w * 1e3 for b in samples.blocks for w in b.walls]
    slowdowns = [b.slowdown for b in samples.blocks]
    notes = {
        "query_tail_percentile": pct,
        "groups": len(groups),
        "steady_groups": len(used),
        "blocks": len(samples.blocks),
        "steady_blocks": len(steady),
        "raw_query_p50_ms": statistics.median(raw_ms),
        "raw_query_tail_ms": tail_percentile(raw_ms)[1],
        "slowdown_median": statistics.median(slowdowns),
        "slowdown_range": [min(slowdowns), max(slowdowns)],
    }
    return metrics, notes
