"""Spherical permutation classification.

Four interchangeable backends decide the same predicate:

* ``pattern``           -- w avoids a fixed catalog of 21 degree-5 patterns
* ``boolean_quotient``  -- the parabolic quotient w0(J(w)) * w has a
                           repetition-free reduced word
* ``divisibility``      -- the pair (w0(J(w)), w) is not divisible
* ``definition``        -- some reduced word of w fits the generator budgets

``_DECIDERS`` maps each backend name to one search over the raw one-line
tuple, which returns the verdict and its witness together: ``is_spherical``
and the scan loop read the verdict, and ``explain`` formats the witness
from the same call.
``cross_check`` runs several backends over a whole symmetric group and
reports any disagreement; ``density_table`` tabulates spherical counts
per degree.  Both scan S_n in blocks by first value, which joined in order
give the lexicographic stream; ``jobs`` only sets how many worker
processes share the blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .divisibility import _first_witness, witness_text
from .permutations import (
    Permutation,
    _left_descents,
    _longest_parabolic,
    _occurrences,
    _trie,
    contains_pattern,
    symmetric_group,
)
from .reduced_words import _repetition_free_word, _spherical_witness_word, word_to_text

DEFAULT_CROSSCHECK_BOUND = 7
DEFINITION_CROSSCHECK_BOUND = 6
DENSITY_BOUND = 8
MAX_REPORTED_DISAGREEMENTS = 20

# The 21 blocking patterns.  The two sublists record which base pattern
# (321 or 3412) the parabolic quotient w0(J(p)) * p acquires; two patterns
# belong to both.  catalog() revalidates all of this from scratch, so a
# mistyped literal cannot slip through.
_ALL_PATTERNS = (
    "24531", "25314", "25341", "34512", "34521", "35412", "35421",
    "42531", "45123", "45213", "45231", "45312", "52314", "52341",
    "53124", "53142", "53412", "53421", "54123", "54213", "54231",
)
_SUB_321 = (
    "24531", "25314", "25341", "42531", "45231", "45312", "52314",
    "52341", "53124", "53142", "53412",
)
_SUB_3412 = (
    "34512", "34521", "35412", "35421", "45123", "45213", "45231",
    "53412", "53421", "54123", "54213", "54231",
)


@dataclass(frozen=True)
class PatternCatalog:
    """The 21 degree-5 blocking patterns and their two overlapping halves."""

    all: tuple[Permutation, ...]
    sub321: tuple[Permutation, ...]
    sub3412: tuple[Permutation, ...]

    @property
    def in_both(self) -> tuple[Permutation, ...]:
        members = set(self.sub3412)
        return tuple(p for p in self.sub321 if p in members)


def _raw_catalog() -> PatternCatalog:
    parse = Permutation.from_text
    return PatternCatalog(
        tuple(parse(t) for t in _ALL_PATTERNS),
        tuple(parse(t) for t in _SUB_321),
        tuple(parse(t) for t in _SUB_3412),
    )


def parabolic_quotient(w: Permutation) -> Permutation:
    """The product w0(J(w)) * w, with J(w) the left descent set of w."""
    return Permutation(_quotient(w.oneline))


def _longest_below(word: tuple[int, ...]) -> tuple[int, ...]:
    # w0(J(w)): the longest element generated by the left descents of w.
    return _longest_parabolic(len(word), set(_left_descents(word)))


def _quotient(word: tuple[int, ...]) -> tuple[int, ...]:
    v = _longest_below(word)
    return tuple(v[j - 1] for j in word)


def _position_test_321(p: Permutation) -> bool:
    # 5, 3, 1 appear in that order; 4 avoids the stretch between 5 and 3;
    # 2 avoids the stretch between 3 and 1.
    inv = p.inverse()
    i1, i2, i3, i4, i5 = (inv(v) for v in (1, 2, 3, 4, 5))
    return i5 < i3 < i1 and not (i5 <= i4 <= i3) and not (i3 <= i2 <= i1)


def _position_test_3412(p: Permutation) -> bool:
    # 4 and 5 both appear before 1 and 2; 3 avoids the stretch between
    # the positions of 4 and 2.
    inv = p.inverse()
    i1, i2, i3, i4, i5 = (inv(v) for v in (1, 2, 3, 4, 5))
    return max(i4, i5) < min(i1, i2) and not (i4 <= i3 <= i2)


def _characterizations_hold(cat: PatternCatalog) -> bool:
    all_set = set(cat.all)
    s321 = set(cat.sub321)
    s3412 = set(cat.sub3412)
    if len(cat.all) != 21 or len(all_set) != 21:
        return False
    if len(s321) != 11 or len(s3412) != 12:
        return False
    if s321 | s3412 != all_set:
        return False
    if {str(p) for p in s321 & s3412} != {"45231", "53412"}:
        return False
    fives = list(symmetric_group(5))
    if {p for p in fives if _position_test_321(p)} != s321:
        return False
    if {p for p in fives if _position_test_3412(p)} != s3412:
        return False
    base321 = Permutation.from_text("321")
    base3412 = Permutation.from_text("3412")
    if {p for p in cat.all if contains_pattern(parabolic_quotient(p), base321)} != s321:
        return False
    if {p for p in cat.all if contains_pattern(parabolic_quotient(p), base3412)} != s3412:
        return False
    return True


def verify_catalog_characterizations() -> bool:
    """Recompute the catalog's defining properties from scratch.

    True when the embedded literals match both position-based
    characterizations over all of S5 and the quotient-containment split,
    with the expected sizes and overlap.
    """
    return _characterizations_hold(_raw_catalog())


@functools.cache
def catalog() -> PatternCatalog:
    """The validated pattern catalog; checked once per process."""
    cat = _raw_catalog()
    if not _characterizations_hold(cat):
        raise RuntimeError("pattern catalog failed its self-check")
    return cat


@functools.cache
def _catalog_trie() -> list:
    return _trie(tuple(p.oneline for p in catalog().all))


# Each backend is one search from a one-line tuple to (verdict, witness).
def _by_pattern(word: tuple[int, ...]) -> tuple[bool, tuple | None]:
    # The first occurrence in position order among all 21 patterns.
    hit = next(_occurrences(word, _catalog_trie()), None)
    return hit is None, hit


def _by_quotient(word: tuple[int, ...]) -> tuple[bool, tuple]:
    q = _quotient(word)
    found = _repetition_free_word(q)
    return found is not None, (q, found)


def _by_divisibility(word: tuple[int, ...]) -> tuple[bool, tuple]:
    v = _longest_below(word)
    found = _first_witness(v, word)
    return found is None, (v, found)


def _by_definition(word: tuple[int, ...]) -> tuple[bool, tuple[int, ...] | None]:
    found = _spherical_witness_word(word)
    return found is not None, found


_DECIDERS = {
    "pattern": _by_pattern,
    "boolean_quotient": _by_quotient,
    "divisibility": _by_divisibility,
    "definition": _by_definition,
}
BACKENDS = tuple(_DECIDERS)


def _check_backend(backend: str) -> None:
    if backend not in _DECIDERS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def is_spherical(w: Permutation, backend: str = "pattern") -> bool:
    """Classify w with one of the four equivalent backends.

    >>> is_spherical(Permutation.from_text("54321"))
    True
    >>> is_spherical(Permutation.from_text("24531"), "definition")
    False
    """
    _check_backend(backend)
    return _DECIDERS[backend](w.oneline)[0]


def _explained(w: Permutation, backend: str) -> tuple[bool, str]:
    # The backend's verdict on w and its witness as text, from one search.
    _check_backend(backend)
    verdict, witness = _DECIDERS[backend](w.oneline)
    if backend == "pattern":
        if witness is None:
            text = "avoids all 21 blocking patterns"
        else:
            positions, p = witness
            spots = ",".join(str(i) for i in positions)
            text = f"contains {Permutation(p)} at positions {spots}"
    elif backend == "boolean_quotient":
        q, word = witness
        if word is None:
            text = f"parabolic quotient {Permutation(q)} has no repetition-free reduced word"
        else:
            text = (
                f"parabolic quotient {Permutation(q)} has repetition-free "
                f"reduced word {word_to_text(word)}"
            )
    elif backend == "divisibility":
        v, found = witness
        text = f"({Permutation(v)}, {w}) divisibility witness {witness_text(found)}"
    elif witness is None:  # the definition backend
        text = "no reduced word fits the generator budgets"
    else:
        text = f"reduced word {word_to_text(witness)} fits the generator budgets"
    return verdict, text


def explain(w: Permutation, backend: str) -> str:
    """A one-line witness for the backend's verdict on w.

    The ``pattern`` witness names the occurrence that comes first in
    position order among all 21 catalog patterns.

    >>> explain(Permutation.from_text("263415"), "pattern")
    'contains 25341 at positions 1,2,3,4,5'
    """
    return _explained(w, backend)[1]


class Disagreement(NamedTuple):
    """One permutation on which the enabled backends differ."""

    perm: Permutation
    verdicts: tuple[bool, ...]
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of evaluating several backends over all of S_n.

    ``spherical`` counts by the first listed backend; ``disagreements``
    holds at most the first 20 offenders in lexicographic order while
    ``disagreement_count`` is the full tally.
    """

    n: int
    total: int
    spherical: int
    backends: tuple[str, ...]
    disagreements: tuple[Disagreement, ...]
    disagreement_count: int

    def summary_line(self) -> str:
        perms = "permutation" if self.total == 1 else "permutations"
        dis = "disagreement" if self.disagreement_count == 1 else "disagreements"
        return (
            f"{self.total} {perms}, {self.spherical} spherical, "
            f"{self.disagreement_count} {dis}"
        )

    def table_lines(self) -> list[str]:
        rows = [
            ("n", str(self.n)),
            ("total", str(self.total)),
            ("spherical", str(self.spherical)),
            ("backends", ", ".join(self.backends)),
            ("disagreements", str(self.disagreement_count)),
        ]
        width = max(len(key) for key, _ in rows)
        lines = [f"{key:<{width}}  {value}" for key, value in rows]
        lines.extend(self.disagreement_lines())
        return lines

    def disagreement_lines(self) -> list[str]:
        lines = []
        for d in self.disagreements:
            verdicts = ", ".join(
                f"{b}={'spherical' if v else 'not-spherical'}"
                for b, v in zip(self.backends, d.verdicts)
            )
            lines.append(f"disagree {d.perm}: {verdicts}")
            for b, witness in zip(self.backends, d.witnesses):
                lines.append(f"  {b}: {witness}")
        return lines

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "spherical": self.spherical,
            "backends": list(self.backends),
            "disagreement_count": self.disagreement_count,
            "disagreements": [
                {
                    "perm": str(d.perm),
                    "verdicts": dict(zip(self.backends, d.verdicts)),
                    "witnesses": dict(zip(self.backends, d.witnesses)),
                }
                for d in self.disagreements
            ],
        }


def _scan_chunk(
    args: tuple[int, tuple[int, ...], tuple[str, ...]]
) -> tuple[int, int, list[tuple[tuple[int, ...], tuple[bool, ...]]]]:
    # One block of S_n: the words that start with ``head``, in
    # lexicographic order.
    n, head, backends = args
    total = 0
    spherical = 0
    bad: list[tuple[tuple[int, ...], tuple[bool, ...]]] = []
    rest = [v for v in range(1, n + 1) if v not in head]
    deciders = [_DECIDERS[b] for b in backends]
    for tail in itertools.permutations(rest):
        word = head + tail
        verdicts = tuple(decide(word)[0] for decide in deciders)
        total += 1
        if verdicts[0]:
            spherical += 1
        if any(v != verdicts[0] for v in verdicts[1:]):
            bad.append((word, verdicts))
    return total, spherical, bad


def _scan(
    chunks: list[tuple[int, tuple[int, ...], tuple[str, ...]]], jobs: int
) -> list[tuple[int, int, list[tuple[tuple[int, ...], tuple[bool, ...]]]]]:
    """Scan every chunk, on at most ``jobs`` worker processes; the results
    come back in chunk order."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    size = sum(math.factorial(n - len(head)) for n, head, _ in chunks)
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers < 2 or size < 4 * jobs:
        return [_scan_chunk(c) for c in chunks]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_scan_chunk, chunks))
    except (OSError, BrokenProcessPool) as err:
        warnings.warn(f"process pool unavailable ({err}); scanning serially")
        return [_scan_chunk(c) for c in chunks]


def cross_check(
    n: int,
    backends: Sequence[str] = ("pattern", "boolean_quotient", "divisibility"),
    *,
    force: bool = False,
    jobs: int = 1,
) -> CrossCheckReport:
    """Evaluate every listed backend on all of S_n and collect disagreements.

    S_n streams in lexicographic order.  The default exhaustive bound is
    degree 7, or 6 whenever the slower ``definition`` backend is included;
    ``force=True`` overrides the bound.  At least two backends must be
    listed, since a single backend cross-checks nothing.

    >>> cross_check(4).summary_line()
    '24 permutations, 24 spherical, 0 disagreements'
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    names = tuple(backends)
    for b in names:
        _check_backend(b)
    if len(set(names)) < 2:
        raise ValueError("cross_check needs at least two distinct backends")
    bound = (
        DEFINITION_CROSSCHECK_BOUND
        if "definition" in names
        else DEFAULT_CROSSCHECK_BOUND
    )
    if n > bound and not force:
        raise ValueError(
            f"degree {n} exceeds the exhaustive bound {bound} for backends "
            f"{names}; pass force=True to run anyway"
        )
    # S_n in blocks by first value: joined in order they give the
    # lexicographic stream, so disagreements keep their order.
    results = _scan([(n, (first,), names) for first in range(1, n + 1)], jobs)
    bad = [item for _, _, block_bad in results for item in block_bad]
    reported = []
    for word, verdicts in bad[:MAX_REPORTED_DISAGREEMENTS]:
        w = Permutation(word)
        witnesses = tuple(explain(w, b) for b in names)
        reported.append(Disagreement(w, verdicts, witnesses))
    return CrossCheckReport(
        n=n,
        total=sum(r[0] for r in results),
        spherical=sum(r[1] for r in results),
        backends=names,
        disagreements=tuple(reported),
        disagreement_count=len(bad),
    )


class DensityRow(NamedTuple):
    """One degree's spherical count: (n, spherical, n!, spherical/n!)."""

    n: int
    spherical: int
    total: int
    ratio: float


def density_table(
    max_n: int, *, force: bool = False, jobs: int = 1
) -> list[DensityRow]:
    """Spherical counts and densities for every degree 1..max_n.

    Counting uses the pattern backend.  The default bound is degree 8;
    ``force=True`` overrides it.

    >>> density_table(5)[-1]
    DensityRow(n=5, spherical=99, total=120, ratio=0.825)
    """
    if max_n < 1:
        raise ValueError("degree must be at least 1")
    if max_n > DENSITY_BOUND and not force:
        raise ValueError(
            f"degree {max_n} exceeds the density bound {DENSITY_BOUND}; "
            "pass force=True to run anyway"
        )
    chunks = [
        (n, (first,), ("pattern",))
        for n in range(1, max_n + 1)
        for first in range(1, n + 1)
    ]
    totals = [0] * (max_n + 1)
    spherical = [0] * (max_n + 1)
    for (n, _, _), (total, count, _) in zip(chunks, _scan(chunks, jobs)):
        totals[n] += total
        spherical[n] += count
    return [
        DensityRow(n, spherical[n], totals[n], spherical[n] / totals[n])
        for n in range(1, max_n + 1)
    ]


def estimate_seconds(n: int, backends: Sequence[str]) -> float:
    """Rough wall-clock estimate for a full degree-n scan: time the block
    of S_n that fixes all but the last min(n, 6) values and scale it up by
    the number of such blocks."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not backends:
        raise ValueError("estimate_seconds needs at least one backend")
    for b in backends:
        _check_backend(b)
    free = min(n, 6)
    start = time.perf_counter()
    _scan_chunk((n, tuple(range(1, n - free + 1)), tuple(backends)))
    elapsed = time.perf_counter() - start
    return elapsed * math.factorial(n) / math.factorial(free)
