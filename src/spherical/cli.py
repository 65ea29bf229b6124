"""Command-line front end.

Verbs: classify, crosscheck, count, patterns, reduced-words, bruhat,
interval.  Exit status 0 is success (for classify: spherical), 1 is a
negative verdict or disagreement, 2 is a usage error.  Refusals have one
path: the library checks each input once, and ``main`` turns any
``ValueError`` into its message on stderr and status 2; other exceptions
are faults and surface as tracebacks.  A verb never emits partial stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, Sequence

from .bruhat import build_interval, first_dominance_failure, is_boolean_lattice
from .classify import (
    BACKENDS,
    _DECIDERS,
    _check_jobs,
    _describe,
    catalog,
    cross_check,
    density_table,
    estimate_seconds,
    verify_catalog_characterizations,
)
from .permutations import Permutation
from .reduced_words import enumerate_reduced_words

_BACKEND_FLAGS = {
    "pattern": "pattern",
    "boolean": "boolean_quotient",
    "divisible": "divisibility",
    "definition": "definition",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherical",
        description="Classify spherical permutations and cross-check the equivalent criteria.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify one permutation")
    p.add_argument("perm")
    p.add_argument(
        "--backend",
        choices=[*_BACKEND_FLAGS, "all"],
        default="pattern",
    )
    p.add_argument("--explain", action="store_true")

    p = sub.add_parser("crosscheck", help="compare backends across all of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--backends", default="pattern,boolean,divisible")
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=["table", "json"], default=None)
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("count", help="spherical counts per degree")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("patterns", help="list the blocking-pattern catalog")
    p.add_argument("--subset", choices=["all", "321", "3412", "both"], default="all")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("reduced-words", help="enumerate reduced words")
    p.add_argument("perm")
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("bruhat", help="compare two permutations in Bruhat order")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--explain", action="store_true")

    p = sub.add_parser("interval", help="build the interval below a permutation")
    p.add_argument("perm")
    p.add_argument("--edges", action="store_true")

    return parser


# One parser serves every call in the process; it keeps no state between
# parses.
_parser = functools.cache(build_parser)


def _jobs(ns: argparse.Namespace) -> int:
    # --jobs defaults to the CPU count at the time the command runs; a
    # given count is checked here, before a forced scan times its estimate.
    return _check_jobs(ns.jobs) if ns.jobs is not None else os.cpu_count() or 1


def _cmd_classify(ns: argparse.Namespace) -> tuple[int, str]:
    # One search per backend gives both the verdict and the witness, which
    # becomes text only under --explain.
    w = Permutation.from_text(ns.perm)
    if ns.backend == "all":
        judged = {b: _DECIDERS[b](w.oneline) for b in BACKENDS}
        verdicts = {b: v for b, (v, _) in judged.items()}
        agree = len(set(verdicts.values())) == 1
        verdict = verdicts["pattern"]
        lines = [
            "spherical" if verdict else "not spherical",
            f"backends agree: {'yes' if agree else 'no'}",
        ]
        if not agree:
            lines.extend(
                f"  {b}: {'spherical' if v else 'not spherical'}"
                for b, v in verdicts.items()
            )
        if ns.explain:
            lines.extend(f"{b}: {_describe(w, b, found)}" for b, (_, found) in judged.items())
        return (0 if verdict else 1), "\n".join(lines)
    backend = _BACKEND_FLAGS[ns.backend]
    verdict, found = _DECIDERS[backend](w.oneline)
    lines = ["spherical" if verdict else "not spherical"]
    if ns.explain:
        lines.append(f"witness: {_describe(w, backend, found)}")
    return (0 if verdict else 1), "\n".join(lines)


def _cmd_crosscheck(ns: argparse.Namespace) -> tuple[int, str]:
    # Short names map to full ones; the library refuses unknown names.
    backends = tuple(_BACKEND_FLAGS.get(t, t) for t in ns.backends.split(",") if t)
    jobs = _jobs(ns)
    if ns.force:
        secs = estimate_seconds(ns.n, backends)
        print(
            f"estimated {secs:.1f}s for {math.factorial(ns.n)} permutations",
            file=sys.stderr,
        )
    report = cross_check(ns.n, backends, force=ns.force, jobs=jobs)
    if ns.format == "json":
        import json  # only JSON output needs it; classify starts without it

        text = json.dumps(report.as_dict(), indent=2)
    elif ns.format == "table":
        text = "\n".join(report.table_lines())
    else:
        lines = [report.summary_line()]
        lines.extend(report.disagreement_lines())
        text = "\n".join(lines)
    return (0 if report.disagreement_count == 0 else 1), text


def _cmd_count(ns: argparse.Namespace) -> tuple[int, str]:
    # No estimate even when forced: the generating tree's cost follows the
    # class size, which is what it counts.
    rows = density_table(ns.max_n, force=ns.force, jobs=_jobs(ns))
    if ns.format == "csv":
        text = "\n".join(
            f"{r.n},{r.spherical},{r.total},{r.ratio}" for r in rows
        )
    elif ns.format == "json":
        import json

        text = json.dumps([r._asdict() for r in rows], indent=2)
    else:
        lines = [f"{'n':>3} {'spherical':>12} {'total':>12} {'ratio':>10}"]
        lines.extend(
            f"{r.n:>3} {r.spherical:>12} {r.total:>12} {r.ratio:>10.6f}"
            for r in rows
        )
        text = "\n".join(lines)
    return 0, text


def _cmd_patterns(ns: argparse.Namespace) -> tuple[int, str]:
    if ns.verify:
        ok = verify_catalog_characterizations()
        return (0 if ok else 1), f"catalog characterizations: {'PASS' if ok else 'FAIL'}"
    cat = catalog()
    subset = {
        "all": cat.all,
        "321": cat.sub321,
        "3412": cat.sub3412,
        "both": cat.in_both,
    }[ns.subset]
    in321 = set(cat.sub321)
    in3412 = set(cat.sub3412)
    lines = []
    for p in subset:
        tags = [t for t, hit in (("321", p in in321), ("3412", p in in3412)) if hit]
        lines.append(f"{p}  {','.join(tags)}")
    return 0, "\n".join(lines)


def _cmd_reduced_words(ns: argparse.Namespace) -> tuple[int, str]:
    w = Permutation.from_text(ns.perm)
    words = enumerate_reduced_words(w, ns.limit)
    # word_to_text's form, with each letter's text built once per call
    names = [str(i) for i in range(w.degree)]
    return 0, "\n".join("[" + ",".join(map(names.__getitem__, word)) + "]" for word in words)


def _cmd_bruhat(ns: argparse.Namespace) -> tuple[int, str]:
    v = Permutation.from_text(ns.v)
    w = Permutation.from_text(ns.w)
    failure = first_dominance_failure(v, w)
    lines = ["true" if failure is None else "false"]
    if ns.explain:
        if failure is None:
            lines.append("all prefixes dominate")
        else:
            lines.append(f"prefix dominance fails at index {failure}")
    return 0, "\n".join(lines)


def _cmd_interval(ns: argparse.Namespace) -> tuple[int, str]:
    w = Permutation.from_text(ns.perm)
    iv = build_interval(w)
    boolean = "true" if is_boolean_lattice(iv) else "false"
    lines = [f"{len(iv.elements)} elements, boolean: {boolean}"]
    if ns.edges:
        lines.extend(f"{lo} < {up}" for lo, up in iv.covers)
    return 0, "\n".join(lines)


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[int, str]]] = {
    "classify": _cmd_classify,
    "crosscheck": _cmd_crosscheck,
    "count": _cmd_count,
    "patterns": _cmd_patterns,
    "reduced-words": _cmd_reduced_words,
    "bruhat": _cmd_bruhat,
    "interval": _cmd_interval,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with status 2
        return int(exc.code or 0)
    try:
        status, text = _HANDLERS[ns.verb](ns)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    if text:
        print(text)
    return status


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
