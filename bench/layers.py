"""The traced run: per-layer metrics for the six modules of the package.

Each layer is measured from outside.  The benchmark records a span around
each of its own calls into a module's public functions (or around a sweep
of such calls), never inside the program.  A span has a name, its layer,
start, end, parent and the id of the query or scan it belongs to; spans
stay in memory and are written out when the run ends.  A layer's self
time is its spans' time minus what their child spans cover.

The tracing overhead is measured on a replay of the workload at jobs=1:
the same operations once without spans and once with them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from spherical import (
    BACKENDS,
    Permutation,
    bruhat_leq,
    build_interval,
    catalog,
    cross_check,
    density_table,
    enumerate_reduced_words,
    explain,
    first_dominance_failure,
    first_pattern_occurrence,
    is_boolean_lattice,
    is_divisible,
    is_spherical,
    longest_parabolic,
    parabolic_quotient,
    repetition_free_word,
    spherical_witness_word,
    symmetric_group,
    word_to_text,
)

import streams
import workloads as wl

LAYERS = ("permutations", "classify", "divisibility", "reduced_words", "bruhat", "cli")
PROBE_BLOCKS = 2  # queries-stream blocks whose inputs the layer probes use
LEQ_REPEAT = 200  # bruhat_leq is a few microseconds; repeat to time it

# Layer metric -> (unit, end-to-end metric it should move, on which workloads).
LAYER_MAP = {
    "permutations.construct_us": ("us", "perms_per_s", "crosscheck, count"),
    "permutations.left_descents_us": ("us", "perms_per_s", "crosscheck"),
    "permutations.longest_parabolic_us": ("us", "perms_per_s", "crosscheck"),
    "permutations.first_occurrence_us": ("us", "query_p50_ms", "queries"),
    "classify.catalog_check_ms": ("ms", "setup_s", "all"),
    "classify.parabolic_quotient_us": ("us", "perms_per_s", "crosscheck"),
    "classify.pattern_spherical_us": ("us", "perms_per_s", "count"),
    "classify.pattern_rejected_us": ("us", "perms_per_s", "count"),
    "classify.pattern_large_ms": ("ms", "query_p99_ms", "queries"),
    "classify.boolean_quotient_us": ("us", "perms_per_s", "crosscheck"),
    "classify.divisibility_us": ("us", "perms_per_s", "crosscheck"),
    "classify.definition_us": ("us", "perms_per_s", "crosscheck"),
    "classify.explain_us": ("us", "query_p50_ms", "queries"),
    "classify.scan_share": ("ratio", "perms_per_s", "crosscheck"),
    "classify.parallel_speedup": ("ratio", "perms_per_s", "count"),
    "classify.density_table8_ms": ("ms", "perms_per_s", "count"),
    "divisibility.is_divisible_us": ("us", "perms_per_s", "crosscheck"),
    "divisibility.witness_after": ("count", "(count)", "crosscheck"),
    "divisibility.witness_at": ("count", "(count)", "crosscheck"),
    "divisibility.witness_none": ("count", "(count)", "crosscheck"),
    "reduced_words.repetition_free_word_us": ("us", "perms_per_s", "crosscheck"),
    "reduced_words.spherical_witness_word_us": ("us", "perms_per_s", "crosscheck"),
    "reduced_words.enumerate_us_per_word": ("us", "query_p99_ms", "queries"),
    "reduced_words.words_emitted": ("count", "query_p99_ms", "queries"),
    "reduced_words.refusals": ("count", "query_p50_ms", "queries"),
    "reduced_words.refusal_ms": ("ms", "query_p50_ms", "queries"),
    "bruhat.build_interval_small_ms": ("ms", "query_p99_ms", "queries"),
    "bruhat.build_interval_large_ms": ("ms", "query_p99_ms", "queries"),
    "bruhat.interval_elements": ("count", "(count)", "queries"),
    "bruhat.is_boolean_lattice_ms": ("ms", "query_p50_ms", "queries"),
    "bruhat.leq_us": ("us", "query_p50_ms", "queries"),
    "cli.overhead_ms": ("ms", "query_p50_ms", "queries"),
    "cli.import_ms": ("ms", "setup_s", "all"),
}


class Span:
    __slots__ = ("tracer", "id", "layer", "name", "op", "calls", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", layer: str, name: str, op, calls: int) -> None:
        self.tracer = tracer
        self.layer, self.name, self.op, self.calls = layer, name, op, calls
        self.parent = None

    def __enter__(self) -> "Span":
        t = self.tracer
        self.id = next(t.ids)
        if t.open:
            self.parent = t.open[-1].id
            if self.op is None:
                self.op = t.open[-1].op
        t.open.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.open.pop()
        self.tracer.spans.append(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "tracer"}


class Tracer:
    """Spans kept in memory for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.open: list[Span] = []
        self.ids = itertools.count()

    def span(self, layer: str, name: str, op=None, calls: int = 1) -> Span:
        return Span(self, layer, name, op, calls)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per layer: (self seconds, calls into the layer)."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            out[s.layer][0] += s.seconds - covered[s.id]
            out[s.layer][1] += s.calls
        return {layer: (sec, calls) for layer, (sec, calls) in out.items()}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([s.as_dict() for s in self.spans]))


def timed_sweep(tr: Tracer, layer: str, name: str, fn, items) -> tuple[float, list]:
    """Call ``fn`` on every item inside one span; (seconds per call, results)."""
    with tr.span(layer, name, calls=len(items)) as s:
        results = [fn(x) for x in items]
    return s.seconds / len(items), results


def probe_groups(tr: Tracer, tally: wl.Tally) -> dict[str, float]:
    """Layer costs per permutation over whole symmetric groups."""
    m: dict[str, float] = {}
    s6 = list(symmetric_group(6))
    s7 = list(symmetric_group(7))
    s8_words = list(itertools.permutations(range(1, 9)))

    sec, s8 = timed_sweep(tr, "permutations", "Permutation S_8", Permutation, s8_words)
    m["permutations.construct_us"] = sec * 1e6
    sec, descents = timed_sweep(tr, "permutations", "left_descents S_7", Permutation.left_descents, s7)
    m["permutations.left_descents_us"] = sec * 1e6
    sec, w0s = timed_sweep(tr, "permutations", "longest_parabolic S_7", longest_parabolic, descents)
    m["permutations.longest_parabolic_us"] = sec * 1e6
    sec, quotients = timed_sweep(tr, "classify", "parabolic_quotient S_7", parabolic_quotient, s7)
    m["classify.parabolic_quotient_us"] = sec * 1e6

    by_verdict: dict[bool, list[float]] = {True: [], False: []}
    with tr.span("classify", "is_spherical pattern S_8", calls=len(s8)):
        for w in s8:
            start = time.perf_counter()
            verdict = is_spherical(w, "pattern")
            by_verdict[verdict].append(time.perf_counter() - start)
    tally.check(len(by_verdict[True]) == 6277, "pattern count over S_8")
    m["classify.pattern_spherical_us"] = statistics.fmean(by_verdict[True]) * 1e6
    m["classify.pattern_rejected_us"] = statistics.fmean(by_verdict[False]) * 1e6
    del s8, s8_words, by_verdict

    backend_s = 0.0
    for backend in wl.SCAN_BACKENDS:
        sec, verdicts = timed_sweep(
            tr, "classify", f"is_spherical {backend} S_7",
            lambda w, b=backend: is_spherical(w, b), s7,
        )
        tally.check(sum(verdicts) == 1590, f"{backend} count over S_7")
        backend_s += sec * len(s7)
        if backend != "pattern":
            m[f"classify.{backend}_us"] = sec * 1e6
    sec, verdicts = timed_sweep(
        tr, "classify", "is_spherical definition S_6",
        lambda w: is_spherical(w, "definition"), s6,
    )
    tally.check(sum(verdicts) == 400, "definition count over S_6")
    m["classify.definition_us"] = sec * 1e6

    with tr.span("classify", "cross_check(7) jobs=1") as s:
        report = cross_check(7, wl.SCAN_BACKENDS, jobs=1)
    wl.check_crosscheck(report, 5040, 1590, tally)
    m["classify.scan_share"] = s.seconds / backend_s

    walls = {}
    for jobs in (1, wl.PARALLEL_JOBS):
        with tr.span("classify", f"density_table(8) jobs={jobs}") as s:
            rows = density_table(8, jobs=jobs)
        wl.check_density(rows, tally)
        walls[jobs] = s.seconds
    m["classify.parallel_speedup"] = walls[1] / walls[wl.PARALLEL_JOBS]
    m["classify.density_table8_ms"] = walls[1] * 1e3

    sec, witnesses = timed_sweep(
        tr, "divisibility", "is_divisible S_7", lambda vw: is_divisible(*vw), list(zip(w0s, s7)),
    )
    m["divisibility.is_divisible_us"] = sec * 1e6
    kinds = Counter("none" if x is None else x.kind for x in witnesses)
    for kind in ("after", "at", "none"):
        m[f"divisibility.witness_{kind}"] = kinds[kind]
    tally.check(kinds["none"] == 1590, "pairs (w0(J(w)), w) of S_7 not divisible")

    sec, words = timed_sweep(
        tr, "reduced_words", "repetition_free_word quotients S_7", repetition_free_word, quotients,
    )
    tally.check(sum(x is not None for x in words) == 1590, "repetition-free quotients of S_7")
    m["reduced_words.repetition_free_word_us"] = sec * 1e6
    sec, words = timed_sweep(tr, "reduced_words", "spherical_witness_word S_6", spherical_witness_word, s6)
    tally.check(sum(x is not None for x in words) == 400, "budgeted words over S_6")
    m["reduced_words.spherical_witness_word_us"] = sec * 1e6
    return m


# The module each verb's library calls belong to.
VERB_LAYER = {
    "classify": "classify",
    "classify_all": "classify",
    "words": "reduced_words",
    "bruhat": "bruhat",
    "interval": "bruhat",
}


def direct_call(q: streams.Query) -> None:
    """The library calls a CLI verb makes, made directly."""
    w = Permutation(q.perms[-1])
    if q.verb == "classify":
        is_spherical(w, "pattern")
        explain(w, "pattern")
    elif q.verb == "classify_all":
        for b in BACKENDS:
            is_spherical(w, b)
        for b in BACKENDS:
            explain(w, b)
    elif q.verb == "words":
        try:
            "\n".join(word_to_text(x) for x in enumerate_reduced_words(w, q.limit))
        except ValueError:
            pass
    elif q.verb == "bruhat":
        first_dominance_failure(Permutation(q.perms[0]), w)
    else:
        is_boolean_lattice(build_interval(w))


def probe_queries(tr: Tracer, tally: wl.Tally, queries: list[streams.Query]) -> dict[str, float]:
    """Layer costs on the inputs of the ``queries`` stream."""
    m: dict[str, float] = {}
    perms = {q.qid: Permutation(q.perms[-1]) for q in queries}
    classify = [q for q in queries if q.verb in ("classify", "classify_all")]
    by_verb = {v: [q for q in queries if q.verb == v] for v in ("words", "bruhat", "interval")}

    pairs = [(perms[q.qid], p) for q in classify for p in catalog().all if p.degree <= q.degree]
    sec, _ = timed_sweep(
        tr, "permutations", "first_pattern_occurrence", lambda a: first_pattern_occurrence(*a), pairs,
    )
    m["permutations.first_occurrence_us"] = sec * 1e6

    large = [q for q in classify if q.kind == "sum" and q.degree >= 15]
    sec, verdicts = timed_sweep(
        tr, "classify", "is_spherical pattern n>=15", lambda q: is_spherical(perms[q.qid], "pattern"), large,
    )
    tally.check(all(verdicts), "direct sums of degree >= 15 are spherical")
    m["classify.pattern_large_ms"] = sec * 1e3

    calls = [
        (perms[q.qid], b)
        for q in classify
        for b in (BACKENDS if q.verb == "classify_all" else ("pattern",))
    ]
    sec, _ = timed_sweep(tr, "classify", "explain", lambda a: explain(*a), calls)
    m["classify.explain_us"] = sec * 1e6

    enumerate_qs = [q for q in by_verb["words"] if not q.refused]
    sec, lists = timed_sweep(
        tr, "reduced_words", "enumerate_reduced_words",
        lambda q: enumerate_reduced_words(perms[q.qid], q.limit), enumerate_qs,
    )
    emitted = sum(len(x) for x in lists)
    tally.check(all(lists), "every enumeration emits a word")
    m["reduced_words.enumerate_us_per_word"] = sec * len(enumerate_qs) / emitted * 1e6
    m["reduced_words.words_emitted"] = emitted

    refusal_s = []
    for q in (q for q in by_verb["words"] if q.refused):
        with tr.span("reduced_words", "enumerate_reduced_words refusal", op=q.qid) as s:
            try:
                enumerate_reduced_words(perms[q.qid])
                refused = False
            except ValueError:
                refused = True
        if tally.check(refused, f"guard refuses {q.argv[1]}"):
            refusal_s.append(s.seconds)
    m["reduced_words.refusals"] = len(refusal_s)
    m["reduced_words.refusal_ms"] = statistics.fmean(refusal_s) * 1e3

    # build_interval caches cover relations.  The queries replay has built
    # these intervals already, so build each once here too, and every
    # workload's traced run times the same warm state.
    for q in by_verb["interval"]:
        build_interval(perms[q.qid])
    intervals = {True: [], False: []}
    lattice_s = []
    elements = 0
    for q in by_verb["interval"]:
        with tr.span("bruhat", "build_interval", op=q.qid) as s:
            iv = build_interval(perms[q.qid])
        intervals[q.degree <= 8].append(s.seconds)
        elements += len(iv.elements)
        with tr.span("bruhat", "is_boolean_lattice", op=q.qid) as s:
            boolean = is_boolean_lattice(iv)
        lattice_s.append(s.seconds)
        tally.check(boolean == q.expect, f"interval {q.argv[1]} Boolean answer")
    m["bruhat.build_interval_small_ms"] = statistics.fmean(intervals[True]) * 1e3
    m["bruhat.build_interval_large_ms"] = statistics.fmean(intervals[False]) * 1e3
    m["bruhat.interval_elements"] = elements
    m["bruhat.is_boolean_lattice_ms"] = statistics.fmean(lattice_s) * 1e3

    pairs = [(Permutation(q.perms[0]), perms[q.qid], q.expect) for q in by_verb["bruhat"]]
    with tr.span("bruhat", "bruhat_leq", calls=len(pairs) * LEQ_REPEAT) as s:
        for _ in range(LEQ_REPEAT):
            answers = [bruhat_leq(v, w) for v, w, _ in pairs]
    tally.check(answers == [e for _, _, e in pairs], "bruhat_leq answers")
    m["bruhat.leq_us"] = s.seconds / (len(pairs) * LEQ_REPEAT) * 1e6

    # CLI overhead: each verb through cli.main, then the same library calls.
    overhead = []
    for q in queries:
        with tr.span("bench", "query", op=q.qid):
            with tr.span("cli", "cli.main") as via_cli:
                status, out, _ = wl.call_cli(q.argv)
            wl.check_query(q, status, out, tally)
            with tr.span(VERB_LAYER[q.verb], "direct") as direct:
                direct_call(q)
        overhead.append(via_cli.seconds - direct.seconds)
    m["cli.overhead_ms"] = statistics.median(overhead) * 1e3
    return m


def replay(workload: str, queries: list[streams.Query], tally: wl.Tally, tr: Tracer | None) -> float:
    """One fixed slice of the workload at jobs=1; spans only when ``tr`` is set."""

    def spanned(layer, name, op):
        return tr.span(layer, name, op=op) if tr else contextlib.nullcontext()

    start = time.perf_counter()
    if workload == "crosscheck":
        for n, backends, total, spherical in wl.CROSSCHECKS:
            with spanned("classify", f"cross_check({n})", f"scan-{n}"):
                report = cross_check(n, backends, jobs=1)
            wl.check_crosscheck(report, total, spherical, tally)
    elif workload == "count":
        with spanned("classify", f"density_table({wl.COUNT_DEGREE})", "scan-count"):
            rows = density_table(wl.COUNT_DEGREE, jobs=wl.COUNT_JOBS)
        wl.check_density(rows, tally)
    else:
        for q in queries:
            with spanned("cli", "cli.main", q.qid):
                status, out, _ = wl.call_cli(q.argv)
            wl.check_query(q, status, out, tally)
    return time.perf_counter() - start


def traced_run(workload: str, seed: int, root: Path):
    """Per-layer metrics, the self-time table and the tracing overhead."""
    tally = wl.Tally()
    tr = Tracer()
    stream = streams.QueryStream(seed, streams.SphericalBlocks())
    queries = [q for _ in range(PROBE_BLOCKS) for q in stream.block()]

    slowdowns = [wl.slowdown()]
    setup = wl.measure_setup(root, 3, tally)
    m: dict[str, float] = {
        "cli.import_ms": statistics.median(setup["import_s"]) * 1e3,
        "classify.catalog_check_ms": statistics.median(setup["catalog_s"]) * 1e3,
    }

    replay(workload, queries, tally, None)  # warm-up
    untraced_s = replay(workload, queries, tally, None)
    traced_s = replay(workload, queries, tally, tr)
    slowdowns.append(wl.slowdown())
    m.update(probe_groups(tr, tally))
    slowdowns.append(wl.slowdown())
    m.update(probe_queries(tr, tally, queries))
    slowdowns.append(wl.slowdown())

    metrics = {name: (m[name], unit, 1) for name, (unit, _, _) in LAYER_MAP.items()}
    own = tr.self_times()
    for layer in LAYERS:
        sec, calls = own.get(layer, (0.0, 0))
        metrics[f"{layer}.self_ms"] = (sec * 1e3, "ms", calls)
        metrics[f"{layer}.calls"] = (calls, "count", calls)
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms", 1)
    metrics["trace.replay_ms"] = (untraced_s * 1e3, "ms", 1)
    metrics["trace.spans"] = (len(tr.spans), "count", 1)

    for line in report_lines(metrics, own):
        print(line)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"spans-{workload}-seed{seed}.json")
    # Per-layer figures are raw wall time; the slowdowns say how fast the
    # machine was running while they were taken.
    notes = {"refusals": tally.refusals, "slowdowns": slowdowns}
    info = {"inputs": streams.describe(queries), "notes": notes}
    return tally, metrics, info


def report_lines(metrics: dict, own: dict) -> list[str]:
    """The per-layer table: self time, calls, and each layer's metrics."""
    lines = [f"{'layer':<15} {'self ms':>10} {'calls':>10}"]
    for layer in (*LAYERS, "bench"):
        sec, calls = own.get(layer, (0.0, 0))
        lines.append(f"{layer:<15} {sec * 1e3:>10.2f} {calls:>10}")
        for name, (unit, target, where) in LAYER_MAP.items():
            if name.startswith(layer + "."):
                value = metrics[name][0]
                lines.append(f"    {name:<42} {value:>12.4g} {unit:<6} -> {target} on {where}")
    overhead = metrics["trace.overhead_ms"][0]
    lines.append(
        f"tracing overhead {overhead:.2f} ms on a replay of "
        f"{metrics['trace.replay_ms'][0]:.1f} ms; no metric was dropped"
    )
    return lines
