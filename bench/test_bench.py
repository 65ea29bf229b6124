"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import doctest
import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
import workloads as wl  # noqa: E402
from spherical import Permutation, bruhat_leq, catalog, is_spherical  # noqa: E402


@pytest.fixture(scope="module")
def blocks():
    return streams.SphericalBlocks()


def argvs(seed, blocks, count=2):
    stream = streams.QueryStream(seed, blocks)
    return [q.argv for _ in range(count) for q in stream.block()]


def test_stream_is_deterministic_for_a_seed(blocks):
    assert argvs(7, blocks) == argvs(7, blocks)


def test_stream_changes_with_the_seed(blocks):
    assert argvs(7, blocks) != argvs(8, blocks)


def test_every_block_follows_the_recipe(blocks):
    stream = streams.QueryStream(3, blocks)
    for _ in range(3):
        block = stream.block()
        got = sorted((q.verb, q.kind, q.degree) for q in block if not q.refused)
        want = sorted(s for s in streams.RECIPE if s[1] != "refuse")
        assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_direct_sums_are_spherical_under_pattern_and_divisibility(blocks, seed):
    rng = streams.random.Random(seed)
    for n in (8, 11, 14, 20):
        w = Permutation(blocks.sample(rng, n))
        assert w.degree == n
        assert is_spherical(w, "pattern")
        assert is_spherical(w, "divisibility")


def test_catalog_patterns_are_sum_indecomposable():
    assert all(streams.is_sum_indecomposable(p.oneline) for p in catalog().all)
    assert not streams.is_sum_indecomposable((2, 1, 3))
    assert streams.direct_sum([(2, 1), (1,), (2, 3, 1)]) == (2, 1, 3, 5, 6, 4)


def test_rank_oracle_matches_bruhat_leq_on_s4():
    s4 = list(itertools.permutations(range(1, 5)))
    for v, w in itertools.product(s4, repeat=2):
        assert streams.bruhat_leq_by_ranks(v, w) == bruhat_leq(Permutation(v), Permutation(w))


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value, n = metrics.tail_percentile(range(1, 1001))
    assert (pct, value, n) == (99.0, 990, 1000)
    pct, value, n = metrics.tail_percentile(range(1, 101))
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    pct, value, n = metrics.tail_percentile(range(1, 501))
    assert (pct, value, n) == (98.0, 490, 500)


def test_tail_percentile_never_reads_below_the_median():
    pct, value, n = metrics.tail_percentile([5.0, 1.0, 3.0])
    assert (pct, value, n) == (pytest.approx(200 / 3), 3.0, 3)
    with pytest.raises(ValueError):
        metrics.tail_percentile([])


def test_metrics_doctests():
    assert doctest.testmod(metrics).failed == 0


def test_correctness_gate_counts_wrong_answers(blocks):
    stream = streams.QueryStream(11, blocks)
    tally = wl.Tally()
    for q in stream.block():
        status, out, _ = wl.call_cli(q.argv)
        wl.check_query(q, status, out, tally)
    assert tally.failed == 0 and tally.refusals == 1

    q = next(q for q in stream.block() if q.verb == "classify")
    status, out, _ = wl.call_cli(q.argv)
    flipped = out.replace("not spherical", "spherical") if not q.expect else "not " + out
    wl.check_query(q, status, flipped, tally)
    words = next(q for q in stream.block() if q.kind == "limit")
    wl.check_query(words, 0, "[1]\n", tally)
    assert tally.failed == 2


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = wl.Samples([wl.Block([0.1, 0.2], 1.5, 1.6, 5, 0.1)])
    end_to_end = {"setup_s", "peak_rss_mb", "success_ratio", *wl.end_to_end(fake)[0]}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    per_layer = set(layers.LAYER_MAP)
    per_layer |= {f"{layer}.{k}" for layer in layers.LAYERS for k in ("self_ms", "calls")}
    per_layer |= {"trace.overhead_ms", "trace.replay_ms", "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
