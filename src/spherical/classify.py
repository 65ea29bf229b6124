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
from the same call.  The ``pattern`` search never lists occurrences: the
catalog's self-check proves its 21 literals are the patterns passing two
positional tests, and the search reads those tests on w in O(n^2) steps.
Its witness is a certificate of where the search stopped (the 3 of a
321-half occurrence, or the 4 and the 2 of a 3412-half one), which only
``explain`` expands into five positions, in O(n) steps and no second
search.  ``cross_check`` runs several backends over a whole symmetric
group and reports any disagreement; it scans S_n in blocks by first value,
which joined in order give the lexicographic stream.  Within a block it
runs backend by backend over slices of at most 5,040 words, compares the
verdict columns, and times each backend.  ``density_table``
tabulates spherical counts per degree by walking the generating tree of
the class: each spherical word of degree n+1 is a spherical word of
degree n with n+1 inserted, and the catalog's two positional tests say
where the insertion is allowed.  The same pass over a member also says
how many sites each of its children has, so the walk stops two degrees
short of the last and counts the last two from the sites.  Both hand
their blocks (subtrees for the tree) to one scan driver; below its degree
bound a scan is one block, run in-process, since a pool costs more to
start than such a scan takes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from .divisibility import _first_witness, witness_text
from .permutations import (
    Permutation,
    _reverse_blocks,
    contains_pattern,
    relative_order,
    symmetric_group,
)
from .reduced_words import _repetition_free_word, _spherical_witness_word, word_to_text

DEFAULT_CROSSCHECK_BOUND = 7
DENSITY_BOUND = 10
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
    # w0(J(w)): the longest element generated by the left descents of w,
    # read from the position table.  s_i is a left descent when the value
    # i+1 sits left of i, so a block of w0(J(w)) ends at each i whose
    # successor sits to its right, and at n.
    n = len(word)
    pos = [0] * (n + 2)
    for p, v in enumerate(word):
        pos[v] = p
    pos[n + 1] = n
    return _reverse_blocks([i for i in range(1, n + 1) if pos[i] < pos[i + 1]])


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


# The pattern backend.  catalog() proves over S_5 that the 21 literals are
# exactly the patterns that pass _position_test_321 or _position_test_3412,
# so w contains one exactly when five of its letters pass a test.  Read on
# w, each test is one quadratic search, which stops at a certificate: the
# 3 of an occurrence in the 321 half, or the 4 and the 2 of one in the 3412
# half.  A scan reads only whether there is one; ``explain`` expands it into
# the five positions.  Below, "the 5" of five letters is the largest, and
# so on down to "the 1".
def _catalog_certificate(w: tuple[int, ...]) -> tuple[int, ...] | None:
    """Where the search for the occurrence that ``explain`` names stops:
    ``(j,)`` when w_j is its 3 (321 half), ``(x, y)`` when w_x and w_y are
    its 4 and its 2 (3412 half), or None when w avoids the catalog.

    The 321 half comes first, with w_j as the 3.  A 5 before j with a 4
    before the 5 or after j exists unless the values above w_j before j
    are w_j+L, ..., w_j+1 in that order.  A 1 after j with a 2 before j or
    after the 1 exists unless the values below w_j after j are
    w_j-1, ..., w_j-L in that order.  The two sides are independent once
    j is fixed.
    """
    n = len(w)
    for j in range(1, n - 1):
        c = w[j]
        if c < 3 or c > n - 2:  # a 3 needs two values on either side
            continue
        highs = [v for v in w[:j] if v > c]
        if highs == list(range(c + len(highs), c, -1)):
            continue
        lows = [v for v in w[j + 1:] if v < c]
        if lows == list(range(c - 1, c - 1 - len(lows), -1)):
            continue
        return (j,)
    # The 3412 half: w_x > w_y with x < y are the 4 and the 2.  The 5 must
    # sit before y, the 1 after x, and the 5 before the 1, so the earliest
    # value above w_x and the latest value below w_y are the ones to try.
    # A 3 valued in (w_y, w_x) before x or after y exists exactly when the
    # greatest value below w_x before x exceeds w_y, or the least value
    # above w_y after y is below w_x; each is found only once a pair passes
    # the rest.
    pos = [-1] * (n + 2)
    for p, v in enumerate(w):
        pos[v] = p
    pos[n + 1] = n
    # last_upto[v]: the last position of a value at most v, or -1;
    # first_from[v]: the first position of a value at least v, or n.
    last_upto = pos[: n + 1]
    for v in range(1, n + 1):
        if last_upto[v] < last_upto[v - 1]:
            last_upto[v] = last_upto[v - 1]
    first_from = pos[:]
    for v in range(n, 0, -1):
        if first_from[v] > first_from[v + 1]:
            first_from[v] = first_from[v + 1]
    least_above: dict[int, int] = {}
    for x in range(n - 2):
        wx = w[x]
        if wx < 4:  # a 4 needs three values below it
            continue
        m = max(x, first_from[wx + 1])
        greatest = None
        for y in range(m + 1, n):
            wy = w[y]
            if wy > wx or last_upto[wy - 1] <= m:
                continue
            if greatest is None:
                greatest = max([v for v in w[:x] if v < wx], default=0)
            if greatest <= wy:
                if y not in least_above:
                    least_above[y] = min([v for v in w[y + 1:] if v > wy], default=n + 1)
                if least_above[y] > wx:
                    continue
            return (x, y)
    return None


def _certificate_positions(
    w: tuple[int, ...], certificate: tuple[int, ...]
) -> tuple[int, ...]:
    """The positions, 1-based and ascending, of the occurrence that
    ``explain`` names, from the certificate ``_catalog_certificate`` found
    on w; O(n) steps."""
    if len(certificate) == 1:
        (j,) = certificate
        c = w[j]
        highs = [v for v in w[:j] if v > c]
        lows = [v for v in w[j + 1:] if v < c]
        # The leftmost 5 is the first of highs above some value above w_j
        # before it or after j; the leftmost 1 the first of lows below some
        # value below w_j before j or after it.
        least = min([v for v in w[j + 1:] if v > c], default=len(w) + 1)
        for five in highs:
            if five > least:
                break
            least = five
        greatest = max([v for v in w[:j] if v < c], default=0)
        for v in reversed(lows):
            if v < greatest:
                one = v
            else:
                greatest = v
        four = next(v for v in w[: w.index(five)] + w[j + 1:] if c < v < five)
        two = next(v for v in w[:j] + w[w.index(one) + 1:] if one < v < c)
        return _positions(w, (five, four, c, two, one))
    # The 5 is the earliest value above w_x; the 1 and the 3 are the
    # earliest that fit.
    x, y = certificate
    wx, wy = w[x], w[y]
    i5 = next(p for p, v in enumerate(w) if v > wx)
    one = next(v for v in w[max(x, i5) + 1:] if v < wy)
    three = next(v for v in w[:x] + w[y + 1:] if wy < v < wx)
    return _positions(w, (w[i5], wx, three, wy, one))


def _positions(w: tuple[int, ...], values: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(w.index(v) + 1 for v in values))


# Each backend is one search from a one-line tuple to (verdict, witness).
def _by_pattern(word: tuple[int, ...]) -> tuple[bool, tuple[int, ...] | None]:
    catalog()  # the search rests on the self-checked characterizations
    stop = _catalog_certificate(word)
    return stop is None, stop


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
            positions = _certificate_positions(w.oneline, witness)
            p = relative_order([w.oneline[i - 1] for i in positions])
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

    The ``pattern`` witness is the occurrence of a 321-half pattern
    (``catalog().sub321``) whose letters ranked 3, 5, 4, 1 and 2 sit
    leftmost, compared in that order, or, when w has none, the occurrence
    of a 3412-half pattern whose letters ranked 4, 2, 5, 1 and 3 sit
    leftmost, compared likewise.  In 256314 the 24531 at positions 1-5
    comes first in position order, but the 25314 below shares its 3 and
    has its 5 further left.

    >>> explain(Permutation.from_text("256314"), "pattern")
    'contains 25314 at positions 1,2,4,5,6'
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
    # wall seconds spent in each backend, summed over slices and workers;
    # they vary from run to run, so reports compare without them
    backend_seconds: dict[str, float] = field(default_factory=dict, compare=False)

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
            "backend_seconds": dict(self.backend_seconds),
        }


# (words, spherical by the first backend, disagreeing words with their
# verdicts in order, seconds spent in each backend)
_Tally = tuple[int, int, list[tuple[tuple[int, ...], tuple[bool, ...]]], list[float]]

# Words decided per backend in one go: a scan keeps one slice and one
# verdict column per backend in memory, whatever the degree.
_SLICE = 5040


def _scan_chunk(args: tuple[int, tuple[int, ...], tuple[str, ...]]) -> _Tally:
    # One block of S_n: the words that start with ``head``, in
    # lexicographic order.
    n, head, backends = args
    rest = [v for v in range(1, n + 1) if v not in head]
    return _tally(map(head.__add__, itertools.permutations(rest)), backends)


def _tally(words: Iterable[tuple[int, ...]], backends: tuple[str, ...]) -> _Tally:
    # Backend by backend over each slice of ``words``: every backend fills
    # a column of verdicts, and only a slice whose columns differ is read
    # word by word.
    total = 0
    spherical = 0
    bad: list[tuple[tuple[int, ...], tuple[bool, ...]]] = []
    seconds = [0.0] * len(backends)
    deciders = [_DECIDERS[b] for b in backends]
    words = iter(words)
    while block := list(itertools.islice(words, _SLICE)):
        columns = []
        for k, decide in enumerate(deciders):
            start = time.perf_counter()
            columns.append([decide(word)[0] for word in block])
            seconds[k] += time.perf_counter() - start
        first = columns[0]
        total += len(block)
        spherical += sum(first)
        if any(column != first for column in columns[1:]):
            for word, verdicts in zip(block, zip(*columns)):
                if any(v != verdicts[0] for v in verdicts[1:]):
                    bad.append((word, verdicts))
    return total, spherical, bad, seconds


def _check_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


def _scan(work: Callable, chunks: list, jobs: int) -> list:
    """Apply ``work`` to every chunk, on at most ``jobs`` worker processes;
    the results come back in chunk order."""
    _check_jobs(jobs)
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers < 2:
        return [work(c) for c in chunks]
    # Imported here: a fifth of the package's import time, for pools only.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, chunks))
    except (OSError, BrokenProcessPool) as err:
        warnings.warn(f"process pool unavailable ({err}); scanning serially")
        return [work(c) for c in chunks]


def _cross_check_names(n: int, backends: Sequence[str]) -> tuple[str, ...]:
    # Every refusal of a cross-check but its bound, before any work starts.
    if n < 1:
        raise ValueError("degree must be at least 1")
    names = tuple(backends)
    for b in names:
        _check_backend(b)
    if len(set(names)) < 2:
        raise ValueError("a cross-check needs at least two distinct backends")
    return names


def cross_check(
    n: int,
    backends: Sequence[str] = ("pattern", "boolean_quotient", "divisibility"),
    *,
    force: bool = False,
    jobs: int = 1,
) -> CrossCheckReport:
    """Evaluate every listed backend on all of S_n and collect disagreements.

    S_n streams in lexicographic order.  The exhaustive bound is degree 7
    for any list of backends; ``force=True`` overrides it.  At least two
    backends must be listed, since a single backend cross-checks nothing.
    Below the bound S_n is scanned in-process as one block whatever
    ``jobs`` says.

    >>> cross_check(4).summary_line()
    '24 permutations, 24 spherical, 0 disagreements'
    """
    names = _cross_check_names(n, backends)
    bound = DEFAULT_CROSSCHECK_BOUND
    if n > bound and not force:
        raise ValueError(
            f"degree {n} exceeds the exhaustive bound {bound}; "
            "pass --force (force=True) to run anyway"
        )
    # From the bound up, S_n in blocks by first value: joined in order they
    # give the lexicographic stream, so disagreements keep their order.
    heads = [(first,) for first in range(1, n + 1)] if n >= bound else [()]
    results = _scan(_scan_chunk, [(n, head, names) for head in heads], jobs)
    bad = [item for _, _, block_bad, _ in results for item in block_bad]
    seconds = [sum(column) for column in zip(*(r[3] for r in results))]
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
        backend_seconds=dict(zip(names, seconds)),
    )


class DensityRow(NamedTuple):
    """One degree's spherical count: (n, spherical, n!, spherical/n!)."""

    n: int
    spherical: int
    total: int
    ratio: float


# The generating tree.  Deleting the maximum from a spherical word leaves a
# spherical word (the class is closed under patterns), so each member of
# degree n+1 is a member w of degree n with n+1 inserted at one site: site
# s puts it after the first s letters of w.  The walk builds members down
# to degree max_n-2 and counts the last two degrees from their sites: a
# child's allowed sites are its parent's, lifted past the new maximum, less
# those where the next maximum would complete an occurrence with it.  From
# DENSITY_BOUND up, each subtree below a member of degree _TREE_CUT (found
# by one serial walk) is one chunk for the scan driver; below the bound the
# tree is one chunk.
_TREE_CUT = 5


def _site_pass(w: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """One quadratic pass over the spherical word w, where M = len(w)+1 is
    inserted.  It returns the allowed sites, in increasing order; the
    middles, the positions j where a "1" and a "2" of the 321 half exist
    with w_j as the "3"; and ``reach_at``, whose entry at site t is the
    greatest ``reach`` among the j whose ``opens`` is t, or -1 (both are
    defined below).  A child with M at a site s in opens..reach of some j
    has M as that j's "4" in the 3412 half.

    w avoids the catalog, so an occurrence in a child uses the new
    maximum, and only as its "5".  The catalog's positional tests
    (``_position_test_321``, ``_position_test_3412``) then read as
    forbidden sites on w: a prefix of sites, and one stretch per middle
    entry of the 321 half.
    """
    n = len(w)
    pos = [-1] * (n + 1)
    for i, v in enumerate(w):
        pos[v] = i
    # last_upto[v]: the last position holding a value at most v, or -1.
    last_upto = list(itertools.accumulate(pos, max))
    prefix = -1  # sites 0..prefix are forbidden; never past the current j
    starts = [n + 1] * (n + 1)  # sites starts[j]..j are forbidden
    middles = []
    reach_at = [-1] * (n + 1)
    for j, wj in enumerate(w):
        after = w[j + 1:]
        lows = [y for y in after if y < wj]
        # opens: the least site s such that a value above w_j lies after j
        # or among the first s letters of w; n+1 when none is above w_j.
        if len(lows) < len(after):
            opens = 0
        else:
            opens = 1 + min(pos[wj + 1:], default=n)
        # 321 half, w_j the "3": a "1" at k > j with w_k < w_j and a "2"
        # valued in (w_k, w_j) before j or after k.  Among the values below
        # w_j after j, such a "1" exists unless they fall and the last of
        # them is above every value below w_j before j.  The new "5" must
        # then come before j, with a "4" (any value above w_j) before it
        # or after j: sites opens..j are forbidden.
        if lows and (
            lows != sorted(lows, reverse=True)
            or lows[-1] < max([y for y in w[:j] if y < wj], default=0)
        ):
            middles.append(j)
            if opens:
                starts[j] = opens
            else:
                prefix = j
        # 3412 half, w_j the "2": a "4" at i < j with w_i > w_j, a "3"
        # valued in (w_j, w_i) before i or after j, and a "1" (any value
        # below w_j) after i, the latest at last_upto[w_j - 1].  Among the
        # values above w_j before both, such a "4" exists unless they fall
        # and the first of them is below every value above w_j after j.
        # The new "5" must then come before both j and that "1".
        reach = min(j, last_upto[wj - 1])
        if reach > prefix:
            highs = [y for y in w[:reach] if y > wj]
            if highs and (
                highs != sorted(highs, reverse=True)
                or highs[0] > min([y for y in after if y > wj], default=n + 1)
            ):
                prefix = reach
        # In a child with M at a site s <= reach, M is such a "4", with a
        # "3" exactly when s >= opens; M+1 is then forbidden at 0..reach+1.
        if reach >= opens and reach > reach_at[opens]:
            reach_at[opens] = reach
    allowed = []
    start = n + 1  # the least start among stretches ending at or after s
    for s in range(n, prefix, -1):
        start = min(start, starts[s])
        if start > s:
            allowed.append(s)
    allowed.reverse()
    return allowed, middles, reach_at


def _allowed_sites(w: tuple[int, ...]) -> list[int]:
    """The sites where inserting len(w)+1 into the spherical word w keeps
    it spherical, in increasing order."""
    return _site_pass(w)[0]


def _child_site_counts(w: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The allowed sites of the spherical word w and, for each site s, the
    number of allowed sites of the child made by inserting M = len(w)+1
    at s, all from one pass over w.

    The child's sites are w's, lifted: s splits into s and s+1, and every
    later site moves up by one.  Any occurrence that the child's next
    maximum M+1 completes without M would also be completed in w by
    inserting M at the matching site.  So the lifted sites are all that
    can remain, and only an occurrence with M as its "4" removes any.  In
    the child's numbering, M+1 is then forbidden at sites 0..(the last
    middle before s), at sites s+1..(the last middle)+1 when a middle lies
    at or after s, and at sites 0..r+1 when r, the greatest reach among
    the j whose opens is at most s, is at least s.
    """
    sites, middles, reach_at = _site_pass(w)
    reach_from = list(itertools.accumulate(reach_at, max))
    last = middles[-1] if middles else -1

    def above(x: int) -> int:  # the sites of w past x
        return len(sites) - bisect.bisect_right(sites, x)

    counts = []
    for s in sites:
        reach = reach_from[s]
        if reach >= s:
            # sites 0..reach+1 take s, s+1 and each t+1 with t <= reach
            counts.append(above(max(reach, last)))
            continue
        i = bisect.bisect_left(middles, s)
        before = middles[i - 1] if i else -1
        # what remains: the sites of w in (before, s], s+1 unless a middle
        # lies at or after s, and t+1 for each site t of w past s and last
        counts.append(above(before) - above(s) + (last < s) + above(max(s, last)))
    return sites, counts


def _count_subtree(args: tuple[tuple[int, ...], int]) -> list[int]:
    """Members of each degree len(root)+1..max_n below ``root``, walked
    depth-first; the last two degrees are counted from the sites alone."""
    root, max_n = args
    counts = [0] * (max_n - len(root))
    stack = [root]
    while stack:
        w = stack.pop()
        n = len(w)
        depth = n - len(root)
        if n + 2 < max_n:
            sites = _allowed_sites(w)
            top = (n + 1,)
            stack.extend(w[:s] + top + w[s:] for s in sites)
        else:
            sites, grandchildren = _child_site_counts(w)
            if n + 2 == max_n:  # otherwise w is a root of degree max_n-1
                counts[depth + 1] += sum(grandchildren)
        counts[depth] += len(sites)
    return counts


def density_table(
    max_n: int, *, force: bool = False, jobs: int = 1
) -> list[DensityRow]:
    """Spherical counts and densities for every degree 1..max_n.

    Counting walks the generating tree of the class from (1,): the
    children of a spherical word of degree n are the words made by
    inserting n+1 at each site where the result still avoids the catalog,
    found in one quadratic pass over the parent.  That pass also gives
    each child's number of sites, so members are built only to degree
    max_n-2.  The cost follows the class size, not n!.  The default bound
    is degree 10; ``force=True`` overrides it.  Below the bound the walk
    runs in-process for any ``jobs``.

    >>> density_table(5)[-1]
    DensityRow(n=5, spherical=99, total=120, ratio=0.825)
    """
    if max_n < 1:
        raise ValueError("degree must be at least 1")
    if max_n > DENSITY_BOUND and not force:
        raise ValueError(
            f"degree {max_n} exceeds the density bound {DENSITY_BOUND}; "
            "pass --force (force=True) to run anyway"
        )
    catalog()  # the tree rests on the self-checked characterizations
    level = [(1,)]
    counts = [1]
    while max_n >= DENSITY_BOUND and len(level[0]) < min(max_n, _TREE_CUT):
        top = (len(level[0]) + 1,)
        level = [w[:s] + top + w[s:] for w in level for s in _allowed_sites(w)]
        counts.append(len(level))
    chunks = [(w, max_n) for w in level] if max_n > len(level[0]) else []
    below = _scan(_count_subtree, chunks, jobs)
    counts.extend(sum(col) for col in zip(*below))
    return [
        DensityRow(n, count, math.factorial(n), count / math.factorial(n))
        for n, count in enumerate(counts, start=1)
    ]


def _unrank(n: int, rank: int) -> tuple[int, ...]:
    # The word of S_n at ``rank`` (from 0) in lexicographic order.
    rest = list(range(1, n + 1))
    word = []
    for k in range(n - 1, -1, -1):
        i, rank = divmod(rank, math.factorial(k))
        word.append(rest.pop(i))
    return tuple(word)


def estimate_seconds(n: int, backends: Sequence[str]) -> float:
    """Rough wall-clock estimate for a full degree-n scan: time at most 720
    words of S_n, evenly spaced in lexicographic order so that every first
    value gets its share, and scale up to n!.  Refuses the inputs
    ``cross_check`` refuses, other than a degree past its bound."""
    names = _cross_check_names(n, backends)
    total = math.factorial(n)
    count = min(total, 720)
    sample = [_unrank(n, r * total // count) for r in range(count)]
    start = time.perf_counter()
    _tally(sample, names)
    elapsed = time.perf_counter() - start
    return elapsed * total / count
