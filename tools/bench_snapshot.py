"""Run the benchmark on a parent and a changed checkout; write ``BENCH_<date>.json``.

    python3 tools/bench_snapshot.py --parent ../parent --change .

For each workload of ``BENCHMARK.json`` and each seed 1..10, both
checkouts run ``python3 bench/run.py --workload W --seed S --seconds T``
from their own roots, T being the file's ``run_seconds``; which side runs
first alternates from one seed to the next.  Each checkout also makes one
traced run per workload (``--trace 1``, the per-layer rows) and one tier-1
test run, whose wall time is recorded.  Each checkout is identified by its
git HEAD, whether its work tree differs from HEAD, and a hash of its
``src`` files, so a measured tree that is not yet committed is never
taken for its parent.  The file holds the last-line metrics of every run,
the machine context, and per workload and metric each side's median and
quartiles and the number of seeds on which the change did better, by the
direction ``BENCHMARK.json`` gives.  Any run that fails or reports
``correct: false`` is kept in the file, and the script exits 1.  The file
is written to the root of the checkout this script lives in.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)  # ten pairs, the fewest that can back a claimed gain
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def git(root: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def tree(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    head = git(root, "rev-parse", "HEAD")
    status = git(root, "status", "--porcelain") if head else None
    return {"head": head, "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace,
           "wall_s": round(time.perf_counter() - start, 2), "status": done.returncode,
           "loadavg_1m": os.getloadavg()[0]}
    try:
        last = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        run["correct"] = False
        run["stderr"] = done.stderr[-2000:]
        return run
    run.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
               metrics={k: v["value"] for k, v in last["metrics"].items()})
    return run


def tier1(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 2), "status": done.returncode,
            "summary": lines[-1] if lines else done.stderr[-500:]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], spec: dict) -> dict:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out: dict = {}
    for w in (w["name"] for w in spec["workloads"]):
        timed = [r for r in runs if r["workload"] == w and r["trace"] == 0 and "metrics" in r]
        rows: dict = {}
        for metric, direction in better.items():
            by = {side: {r["seed"]: r["metrics"][metric] for r in timed
                         if r["checkout"] == side and metric in r["metrics"]} for side in SIDES}
            row = {side: quartiles(list(v.values())) for side, v in by.items()}
            pairs = [(by["parent"][s], by["change"][s]) for s in by["parent"] if s in by["change"]]
            won = sum((y < x) if direction == "lower" else (y > x) for x, y in pairs)
            row["change_better_pairs"] = f"{won} of {len(pairs)}"
            rows[metric] = row
        out[w] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for side in SIDES:
        parser.add_argument(f"--{side}", required=True, type=Path, metavar="DIR",
                            help=f"the {side} source checkout, holding bench/run.py")
    args = parser.parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    for side, root in checkouts.items():
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"--{side} {root}: no bench/run.py there")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    today = datetime.date.today().isoformat()

    runs = []
    for w in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                run = bench(checkouts[side], w, seed, seconds, 0)
                runs.append({"checkout": side, **run})
                print(f"{side:>6} {w:<10} seed {seed:>2}: correct={run['correct']}",
                      file=sys.stderr)
    for side, root in checkouts.items():
        for w in (w["name"] for w in spec["workloads"]):
            runs.append({"checkout": side, **bench(root, w, 1, seconds, 1)})
    tests = {side: tier1(root) for side, root in checkouts.items()}

    snapshot = {
        "date": today,
        "command": "python3 bench/run.py --workload W --seed S --seconds T [--trace 1]",
        "seconds": seconds,
        "machine": machine(),
        "checkouts": {side: {**tree(root), "tier1": tests[side]}
                      for side, root in checkouts.items()},
        "summary": summarize(runs, spec),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{today}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    bad = [r for r in runs if not r["correct"] or r["status"] != 0]
    return 1 if bad or any(t["status"] != 0 for t in tests.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
