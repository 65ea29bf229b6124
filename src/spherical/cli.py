"""Command-line front end.

Verbs: classify, crosscheck, count, patterns, reduced-words, bruhat,
interval.  Exit status 0 is success (for classify: spherical), 1 is a
negative verdict or disagreement, 2 is a usage error.  Refusals have one
path: the library checks each input once, and ``main`` turns any
``ValueError`` into its message on stderr and status 2; other exceptions
are faults and surface as tracebacks.  A verb never emits partial stdout.

One table, ``_VERBS``, lists each verb's help line, positionals and
options, and names its handler.  ``parse_args`` reads argv against it,
prints help and usage errors from it, and accepts what argparse's
subparsers accepted, namespace for namespace (``tests/oracles.py`` keeps
that parser as the reference); ``main`` calls the handler it names.
argparse and gettext stay off the start-up path, and a query pays a few
microseconds for its arguments, not argparse's 30-50.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from .bruhat import build_interval, first_dominance_failure, is_boolean_lattice
from .classify import (
    BACKENDS,
    _describe,
    _judge,
    catalog,
    cross_check,
    verify_catalog_characterizations,
)
from .permutations import Permutation
from .reduced_words import enumerate_reduced_words
from .tree import density_table

_BACKEND_FLAGS = {
    "pattern": "pattern",
    "boolean": "boolean_quotient",
    "divisible": "divisibility",
    "definition": "definition",
}


def _jobs(ns: SimpleNamespace) -> int:
    # --jobs defaults to the CPU count at the time the command runs; the
    # scan driver checks a given count.
    return ns.jobs if ns.jobs is not None else os.cpu_count() or 1


def _cmd_classify(ns: SimpleNamespace) -> tuple[int, str]:
    # One search per backend gives both the verdict and the witness, which
    # becomes text only under --explain.  Every backend run shares one
    # lookup of w's parabolic table entry (none for pattern alone).
    w = Permutation.from_text(ns.perm)
    every = ns.backend == "all"
    backends = BACKENDS if every else (_BACKEND_FLAGS[ns.backend],)
    entry, judged = _judge(w.oneline, backends)
    verdict = judged[0][0]  # pattern's, under --backend=all
    lines = ["spherical" if verdict else "not spherical"]
    if every:
        agree = all(v == verdict for v, _ in judged)
        lines.append(f"backends agree: {'yes' if agree else 'no'}")
        if not agree:
            lines.extend(
                f"  {b}: {'spherical' if v else 'not spherical'}"
                for b, (v, _) in zip(backends, judged)
            )
    if ns.explain:
        lines.extend(
            f"{b if every else 'witness'}: {_describe(w, b, found, entry)}"
            for b, (_, found) in zip(backends, judged)
        )
    return (0 if verdict else 1), "\n".join(lines)


def _cmd_crosscheck(ns: SimpleNamespace) -> tuple[int, str]:
    # Short names map to full ones; the library refuses unknown names.
    backends = tuple(_BACKEND_FLAGS.get(t, t) for t in ns.backends.split(",") if t)
    report = cross_check(ns.n, backends, force=ns.force, jobs=_jobs(ns))
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


def _cmd_count(ns: SimpleNamespace) -> tuple[int, str]:
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


def _cmd_patterns(ns: SimpleNamespace) -> tuple[int, str]:
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


def _cmd_reduced_words(ns: SimpleNamespace) -> tuple[int, str]:
    w = Permutation.from_text(ns.perm)
    words = enumerate_reduced_words(w, ns.limit)
    # word_to_text's form, with each letter's text built once per call
    names = [str(i) for i in range(w.degree)]
    return 0, "\n".join("[" + ",".join(map(names.__getitem__, word)) + "]" for word in words)


def _cmd_bruhat(ns: SimpleNamespace) -> tuple[int, str]:
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


def _cmd_interval(ns: SimpleNamespace) -> tuple[int, str]:
    w = Permutation.from_text(ns.perm)
    iv = build_interval(w)
    boolean = "true" if is_boolean_lattice(iv) else "false"
    lines = [f"{len(iv.elements)} elements, boolean: {boolean}"]
    if ns.edges:
        lines.extend(f"{lo} < {up}" for lo, up in iv.covers)
    return 0, "\n".join(lines)


# The verb table.  Per verb: its help line, its positionals, its options
# and its handler, which turns the parsed namespace into the exit status
# and the stdout text.  An option is (name, kind, default, required,
# metavar), where kind is "flag", int, str or the tuple of its choices,
# and metavar names an int or str value in the synopsis.  Its dest is the
# name without its dashes, "-" read as "_".
_VERBS: dict[str, tuple[str, tuple[str, ...], tuple[tuple, ...], Callable]] = {
    "classify": (
        "classify one permutation",
        ("perm",),
        (
            ("--backend", (*_BACKEND_FLAGS, "all"), "pattern", False, None),
            ("--explain", "flag", False, False, None),
        ),
        _cmd_classify,
    ),
    "crosscheck": (
        "compare backends across all of S_n",
        (),
        (
            ("--n", int, None, True, "<k>"),
            ("--backends", str, "pattern,boolean,divisible", False, "..."),
            ("--force", "flag", False, False, None),
            ("--format", ("table", "json"), None, False, None),
            ("--jobs", int, None, False, "<j>"),
        ),
        _cmd_crosscheck,
    ),
    "count": (
        "spherical counts per degree",
        (),
        (
            ("--max-n", int, None, True, "<k>"),
            ("--format", ("table", "csv", "json"), "table", False, None),
            ("--force", "flag", False, False, None),
            ("--jobs", int, None, False, "<j>"),
        ),
        _cmd_count,
    ),
    "patterns": (
        "list the blocking-pattern catalog",
        (),
        (
            ("--subset", ("all", "321", "3412", "both"), "all", False, None),
            ("--verify", "flag", False, False, None),
        ),
        _cmd_patterns,
    ),
    "reduced-words": (
        "enumerate reduced words",
        ("perm",),
        (("--limit", int, None, False, "<m>"),),
        _cmd_reduced_words,
    ),
    "bruhat": (
        "compare two permutations in Bruhat order",
        ("v", "w"),
        (("--explain", "flag", False, False, None),),
        _cmd_bruhat,
    ),
    "interval": (
        "build the interval below a permutation",
        ("perm",),
        (("--edges", "flag", False, False, None),),
        _cmd_interval,
    ),
}

_ABOUT = "Classify spherical permutations and cross-check the equivalent criteria."
_FORMS = (
    "Options take --name=value or --name value, before, between or after the\n"
    "positionals, and any unique prefix of their name; the last of a repeated\n"
    "option wins, and -- ends the options."
)


def _compile(positionals, options):
    # The lookup from option name to (dest, kind), -h and --help included,
    # and the namespace before any argument is read.
    names = dict.fromkeys(("-h", "--help"), ("", "help"))
    start = dict.fromkeys(positionals)
    for name, kind, default, _, _ in options:
        dest = name[2:].replace("-", "_")
        names[name] = (dest, kind)
        start[dest] = default
    return names, start


_COMPILED = {verb: _compile(p, o) for verb, (_, p, o, _) in _VERBS.items()}
_TOP = _compile((), ())[0]
# argparse reads these as positionals, not as unknown options
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _synopsis(verb: str) -> str:
    _, positionals, options, _ = _VERBS[verb]
    parts = [f"spherical {verb}", *(f"<{p}>" for p in positionals)]
    for name, kind, _, required, metavar in options:
        form = name if kind == "flag" else f"{name}={metavar or '|'.join(kind)}"
        parts.append(form if required else f"[{form}]")
    return " ".join(parts)


def _usage(verb: str | None) -> str:
    return "usage: " + (_synopsis(verb) if verb else "spherical <verb> [<arguments>]")


def _fail(verb: str | None, message: str):
    prog = f"spherical {verb}" if verb else "spherical"
    print(f"{_usage(verb)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read(tok: str, names: dict, verb: str | None):
    # argparse's reading of one token: None for a positional, else the
    # option's name (None when unknown) and its explicit value, if any.
    if tok[:1] != "-" or tok in ("-", "--"):
        return None
    if tok in names:
        return tok, None
    name, eq, value = tok.partition("=")
    if eq and name in names:
        return name, value
    if tok[1] == "-":
        # a unique prefix, looked up only once the exact name is missing
        found = [n for n in names if n.startswith(name)]
        if len(found) > 1:
            _fail(verb, f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif tok[1] == "h":
        return "-h", tok[2:]  # short flags run together: -hh is -h -h
    if " " in tok or _NEGATIVE.match(tok):
        return None
    return None, None


def _help(verb: str | None, name: str, value: str | None, rest: Sequence[str]):
    # -h or --help, read at its place in argv: the help on stdout, status 0
    if value is not None and (name != "-h" or not value or value.strip("h")):
        _fail(verb, f"argument -h/--help: ignored explicit argument {value!r}")
    if verb:
        # argparse reads every option before it acts on any, so an
        # ambiguous one after -h still fails
        for tok in rest:
            if tok == "--":
                break
            _read(tok, _COMPILED[verb][0], verb)
        text = f"{_usage(verb)}\n\n{_VERBS[verb][0]}\n\n{_FORMS}"
    else:
        verbs = "\n".join(f"  {_synopsis(v)}" for v in _VERBS)
        text = (
            f"{_usage(None)}\n\n{_ABOUT}\n\n{verbs}\n\n{_FORMS}\n"
            "`spherical <verb> -h` describes one verb."
        )
    print(text)
    raise SystemExit(0)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read argv against the verb table into the namespace the handlers
    read: ``verb``, then the verb's positionals and option dests.

    Accepts what argparse's two-level subparser parse accepted (``--opt=v``
    and ``--opt v``, options anywhere around the positionals, the last
    repeat winning, unique prefixes, negative numbers as values, ``--``
    ending the options) and gives the same namespace.  ``-h``/``--help``
    prints help to stdout and raises ``SystemExit(0)``; a usage error
    prints the usage and the error to stderr and raises ``SystemExit(2)``.
    """
    extras: list[str] = []
    for i, tok in enumerate(argv):
        read = _read(tok, _TOP, None)
        if read is None:
            verb = tok
            break
        if read[0] is None:
            extras.append(tok)
        else:
            _help(None, *read, ())
    else:
        _fail(None, "the following arguments are required: verb")
    if verb not in _VERBS:
        choices = ", ".join(_VERBS)
        _fail(None, f"argument verb: invalid choice: {verb!r} (choose from {choices})")
    names, start = _COMPILED[verb]
    _, positionals, options, _ = _VERBS[verb]
    ns = {"verb": verb, **start}
    seen = set()
    taken = 0  # positionals filled
    ended = after_positional = False  # past --; the last token filled a positional
    args = argv[i + 1:]
    j = 0
    while j < len(args):
        tok = args[j]
        j += 1
        if ended:
            read = None
        elif tok == "--":
            ended = True
            # argparse drops the first -- only where a positional takes it
            if taken == len(positionals) and not after_positional:
                extras.append(tok)
            continue
        else:
            read = _read(tok, names, verb)
        after_positional = read is None
        if read is None:
            if taken < len(positionals):
                ns[positionals[taken]] = tok
                taken += 1
            else:
                extras.append(tok)
            continue
        name, value = read
        if name is None:
            extras.append(tok)
            continue
        dest, kind = names[name]
        if kind == "help":
            _help(verb, name, value, args[j:])
        if kind == "flag":
            if value is not None:
                _fail(verb, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:
                if j == len(args) or args[j] == "--" or _read(args[j], names, verb) is not None:
                    _fail(verb, f"argument {name}: expected one argument")
                value = args[j]
                j += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(verb, f"argument {name}: invalid int value: {value!r}")
            elif kind is not str and value not in kind:
                choices = ", ".join(kind)
                _fail(verb, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        ns[dest] = value
        seen.add(name)
    missing = [*positionals[taken:], *(o[0] for o in options if o[3] and o[0] not in seen)]
    if missing:
        _fail(verb, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(verb, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**ns)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # 0 after help, 2 after a usage error
        return int(exc.code)
    try:
        status, text = _VERBS[ns.verb][3](ns)
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
