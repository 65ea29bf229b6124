"""Benchmark for the spherical package: one command, three workloads.

    python3 bench/run.py --workload {crosscheck,count,queries} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/``.  With ``--trace 0`` it times the workload and reports the
end-to-end metrics; with ``--trace 1`` it makes the traced run and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with machine context and input properties,
and the spans of a traced run, go to ``bench/out/``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

WORKLOADS = ("crosscheck", "count", "queries")
SETUP_RUNS = 15


def machine_context(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus the largest of its children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def untraced(workload: str, seed: int, seconds: float, root: Path):
    import streams
    import workloads as wl

    tally = wl.Tally()
    setup = wl.measure_setup(root, SETUP_RUNS, tally)
    if workload == "crosscheck":
        samples = wl.run_crosscheck(seconds, seed, tally)
    elif workload == "count":
        samples = wl.run_count(seconds, tally)
    else:
        stream = streams.QueryStream(seed, streams.SphericalBlocks())
        samples = wl.run_queries(seconds, stream, tally)
    metrics = {"setup_s": (statistics.median(setup["setup_s"]), "s", len(setup["setup_s"]))}
    timed, notes = wl.end_to_end(samples)
    metrics.update(timed)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    metrics["success_ratio"] = (
        (tally.attempted - tally.failed) / tally.attempted, "ratio", tally.attempted,
    )
    notes["raw_setup_s"] = statistics.median(setup["raw_setup_s"])
    notes["error_ratio"] = tally.failed / tally.attempted
    notes["refusals"] = tally.refusals
    return tally, metrics, {"inputs": samples.inputs, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spherical" / "__init__.py").is_file():
        print("bench: run from the root of a source checkout (no src/spherical here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    context = machine_context(args.seed)
    context.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    if args.trace:
        import layers

        tally, metrics, info = layers.traced_run(args.workload, args.seed, root)
    else:
        tally, metrics, info = untraced(args.workload, args.seed, args.seconds, root)
    context["loadavg_1m_end"] = os.getloadavg()[0]

    for name, (value, unit, count) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit:<8} n={count}")
    for miss in tally.misses:
        print(f"FAILED: {miss}")
    print("context: " + json.dumps(context))
    for key, value in info.items():
        print(f"{key}: " + json.dumps(value, default=str))

    reported = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {**result, "samples": {k: v[2] for k, v in metrics.items()},
            "context": context, **info}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(full, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
