"""Run the benchmark on a parent and a changed checkout; write ``BENCH_<date>.json``.

    python3 tools/bench_snapshot.py --parent ../parent --change .

For each workload of ``BENCHMARK.json`` and each seed 1..10, both
checkouts run ``python3 bench/run.py --workload W --seed S --seconds T``
from their own roots, T being the file's ``run_seconds``; which side runs
first alternates from one seed to the next.  Each checkout then makes
three traced runs per workload (``--trace 1``, the per-layer rows), seeds
1..3, alternating likewise, since a single traced run's rows swing up to
2x on unchanged code; and one tier-1 test run, whose wall time is
recorded.  Each checkout's benchmark runs
share one bytecode cache of their own (``PYTHONPYCACHEPREFIX``), empty at
the start and removed at the end, so neither side reads bytecode that the
other side, an earlier run or the caller's environment left behind.
Each checkout is identified by its git HEAD, whether its work tree
differs from HEAD, and a hash of its ``src`` files, so a measured tree
that is not yet committed is never taken for its parent; the total line
count of those files is recorded beside the hash, and so is their count
of code lines, which leaves out blank and comment-only lines and
docstrings, in all and per file, so that a snapshot shows which module a
change shrank.  The file
holds the last-line metrics of every run, the machine context, and per
workload and metric each side's median and quartiles and the number of
seeds on which the change did better, by the direction
``BENCHMARK.json`` gives.  Any run that fails or reports
``correct: false`` is kept in the file, and the script exits 1.  The file
is written to the root of the checkout this script lives in, and never
over an existing one: when ``BENCH_<date>.json`` is taken the name is
``BENCH_<date>-<short hash of the change's HEAD>.json``, and when that is
taken too the script refuses before running anything.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)  # ten pairs, the fewest that can back a claimed gain
TRACE_SEEDS = range(1, 4)  # traced runs per workload and side, all kept
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


# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of a Python source that hold code: not blank, not
    comment-only, and not inside a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def tree(root: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    code = {}  # code lines per file, keyed by its path from the root
    for path in sorted((root / "src").rglob("*.py")):
        text = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(name.encode() + b"\0")
        digest.update(text)
        lines += text.count(b"\n")
        code[name] = code_lines(text.decode())
    head = git(root, "rev-parse", "HEAD")
    status = git(root, "status", "--porcelain") if head else None
    return {"head": head, "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest(), "src_lines": lines,
            "src_code_lines": sum(code.values()), "src_code_lines_by_file": code}


def snapshot_path(root: Path, today: str, head: str | None) -> Path | None:
    # the first free name of BENCH_<today>.json and, given the short hash
    # of the change's HEAD, BENCH_<today>-<head>.json
    names = [f"BENCH_{today}.json", *([f"BENCH_{today}-{head}.json"] if head else [])]
    return next((root / name for name in names if not (root / name).exists()), None)


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int,
          env: dict) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
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
    out = snapshot_path(ROOT, today, git(checkouts["change"], "rev-parse", "--short", "HEAD"))
    if out is None:
        parser.error(f"every snapshot name for {today} in {ROOT} is taken")

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as caches:
        envs = {side: {**os.environ, "PYTHONPYCACHEPREFIX": os.path.join(caches, side)}
                for side in SIDES}
        for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS)):
            for w in (w["name"] for w in spec["workloads"]):
                for seed in seeds:
                    for side in SIDES if seed % 2 else SIDES[::-1]:
                        run = bench(checkouts[side], w, seed, seconds, trace, envs[side])
                        runs.append({"checkout": side, **run})
                        print(f"{side:>6} {w:<10} seed {seed:>2} trace {trace}: "
                              f"correct={run['correct']}", file=sys.stderr)
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
    with open(out, "x") as f:  # fails rather than overwrite
        f.write(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    bad = [r for r in runs if not r["correct"] or r["status"] != 0]
    return 1 if bad or any(t["status"] != 0 for t in tests.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
