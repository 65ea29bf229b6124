"""Spherical permutation classification.

Four interchangeable backends decide the same predicate:

* ``pattern``           -- w avoids a fixed catalog of 21 degree-5 patterns
* ``boolean_quotient``  -- the parabolic quotient w0(J(w)) * w has a
                           repetition-free reduced word
* ``divisibility``      -- the pair (w0(J(w)), w) is not divisible
* ``definition``        -- some reduced word of w0(J(w)) * w fits the pools

``_DECIDERS`` maps each backend name to its bare search over the raw
one-line tuple, which returns a witness or None, and to whether a found
witness means spherical: ``is_spherical`` and the scan loop read the
verdict from that alone, the scan as one comprehension per verdict
column, and ``explain`` formats the witness from the same call.  Each
search also takes the parabolic table's entry of J(w)
(``permutations._parabolic_of``), through which the last three read w;
``boolean_quotient`` and ``definition`` read the quotient w0(J(w)) * w
straight off w through it, and only the ``boolean_quotient`` ``explain``
text forms the quotient.  Whoever holds the word looks it up once for
all the backends it runs: ``_judge`` once per call, or never for ``pattern``
alone, and the scan loop once per tail mask of a block, for all the
words of the mask, which share J(w).  The ``pattern`` search never lists
occurrences: the catalog's self-check proves its 21 literals are the
patterns passing two positional tests, and the search reads those tests
on w with running state: chains of consecutive values, and sets of
values held as the bits of an int, in O(n) steps on ints of n bits.  That
self-check, ``catalog()``, gates the search once per call or scan,
never per word: ``_judge`` runs it once when
``pattern`` is listed, and ``cross_check`` once before its scan.  Its
witness is a certificate of where the search stopped (the 3 of a
321-half occurrence, or the 4 and the 2 of a 3412-half one), which only
``explain`` expands into five positions, in O(n) steps and no second
search.  The ``definition`` search likewise returns only the quotient's
fitting word; ``explain`` puts the first reduced word of w0(J(w)) in
front, so a scan never builds that word.  The ``divisibility`` search
returns its witness as a plain tuple, which only ``explain`` turns into a
``DivisibilityWitness``, so a scan builds no object per word either.
``cross_check`` runs several backends over a whole symmetric group and
reports any disagreement.  It cuts S_n once, into blocks of the words
that share their first n - 7 letters, at most 7! = 5,040 words each,
which joined in order give the lexicographic stream; through degree 7
S_n is one block, run in-process, since a pool costs more to start than
such a scan takes.  Within a block it looks up the table entries once
per tail mask (``_tail_masks``), runs backend by backend, compares the
verdict columns, and times each backend and the lookups.  With the
lookups it fills a length table, l(q) for every word of the block with
no pass over the word: l(w) is the inversions of the block's first word,
the head followed by the rest in increasing order, plus those of the
tail, from a table built with the tails' masks, and l(w0(J)) is one
number per mask.  One rule, ``reduced_words._fits``, says that a q with
more than n - 1 letters has neither a repetition-free word nor one that
fits the pools; the scan calls neither the ``boolean_quotient`` nor the
``definition`` search on a word it refuses, and the walker's set-up
refuses through the same rule.  ``pattern`` and ``divisibility`` never
read the lengths, so a wrong table shows up as a disagreement, and
``_judge`` calls every search as it is.  It hands its blocks to one scan
driver, ``_scan``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import time
import warnings
from typing import Callable, NamedTuple, Sequence

from .divisibility import DivisibilityWitness, _first_witness
from .permutations import (
    Permutation,
    _Frozen,
    _Parabolic,
    _check_degree,
    _length,
    _parabolic_of,
    _quotient,
    avoids_all,
    relative_order,
    symmetric_group,
)
from .reduced_words import (
    _after_parabolic_word,
    _fits,
    _fitting_quotient_word,
    _repetition_free_word,
    word_to_text,
)

DEFAULT_CROSSCHECK_BOUND = 8
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


class PatternCatalog(_Frozen):
    """The 21 degree-5 blocking patterns and their two overlapping halves."""

    __slots__ = ("all", "sub321", "sub3412")
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
    return Permutation(_quotient(w.oneline, _parabolic_of(w.oneline)))


def _position_test_321(p: Permutation) -> bool:
    # 5, 3, 1 appear in that order; 4 avoids the stretch between 5 and 3;
    # 2 avoids the stretch between 3 and 1.
    i1, i2, i3, i4, i5 = map(p.oneline.index, (1, 2, 3, 4, 5))
    return i5 < i3 < i1 and not (i5 <= i4 <= i3) and not (i3 <= i2 <= i1)


def _position_test_3412(p: Permutation) -> bool:
    # 4 and 5 both appear before 1 and 2; 3 avoids the stretch between
    # the positions of 4 and 2.
    i1, i2, i3, i4, i5 = map(p.oneline.index, (1, 2, 3, 4, 5))
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
    for text, half in (("321", s321), ("3412", s3412)):
        base = (Permutation.from_text(text),)
        if {p for p in cat.all if not avoids_all(parabolic_quotient(p), base)} != half:
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
# w, each test is one search with running state, which stops at a
# certificate: the 3 of an occurrence in the 321 half, or the 4 and the 2
# of one in the 3412 half.  A scan reads only whether there is one;
# ``explain`` expands it into the five positions.  Below, "the 5" of five
# letters is the largest, and so on down to "the 1".
def _catalog_certificate(
    w: tuple[int, ...], entry: _Parabolic | None = None
) -> tuple[int, ...] | None:
    """Where the search for the occurrence that ``explain`` names stops:
    ``(j,)`` when w_j is its 3 (321 half), ``(x, y)`` when w_x and w_y are
    its 4 and its 2 (3412 half), or None when w avoids the catalog.
    ``entry`` is not read; the deciders' calling convention passes it.

    The 321 half comes first, with w_j as the 3.  A 5 before j with a 4
    before the 5 or after j exists unless the values above w_j before j
    are w_j+L, ..., w_j+1 in that order.  A 1 after j with a 2 before j or
    after the 1 exists unless the values below w_j after j are
    w_j-1, ..., w_j-L in that order.  The two sides are independent once
    j is fixed, and each is one comparison against a chain of consecutive
    values.  The first side's chains are recorded as w is read.  The first
    letter to pass that side walks the second side itself, which mostly
    ends after a few letters; the later ones read its chains from one
    pass from the right.  So the 321 half is O(n) steps.

    The 3412 half then tries the pairs (x, y) in order, with sets of
    values held as the bits of an int, so each step, on an x or on a
    pair, is a few operations on ints of n bits, and the search holds a
    few of them.  It takes O(n) such steps: a few per x, the walks to m,
    which cover the stretches between consecutive left-to-right maxima
    once, and the walks over y.  An x that is not skipped walks its ys up
    to its last 2 to try.  Unless the walk returns, its 2s have no 3
    before x and fall in position order (else a 2 below a 3 before x, or
    a 2 with a greater one after it, returns), so they are not a value
    interval, or the skip would have caught them.  A value missing from
    between them lies between x and m, so w_x is a left-to-right
    maximum.  Take two such x1 < x2: the 2s of x2 exceed w_x1, which
    sits before x2, so a 2 of x1 past m2 is the one value below w_x2
    after m2 that is not a 2 of x2, the 1 of x2.  If three such walks
    x1 < x2 < x3 covered one position, the last 2s of x1 and of x2 would
    both be the 1 of x3, so the last 2 of x2 would be the 1 of x2.  So
    at most two walks that do not return cover any position, and the one
    walk that returns adds at most n steps.
    """
    n = len(w)
    # chain[v]: the greatest t with t, t-1, ..., v read in that order, or 0
    # while v is unread
    chain = [0] * (n + 2)
    hi = 0  # the greatest value before j
    bottom = None
    for j, c in enumerate(w):
        t = chain[c + 1] or c
        chain[c] = t
        if t >= hi:  # the values above c before j are c+1..t, falling
            if c > hi:
                hi = c
            continue
        if bottom is None:
            # The first such j walks the values below c after it, and stops
            # at the first one off the chain c-1, c-2, ...: that settles
            # nearly every word outside the class after a few letters.
            need = c - 1
            for v in w[j + 1:]:
                if v < c:
                    if v != need:
                        return (j,)
                    need -= 1
            # Later ones read the mirror, built from the right over the
            # letters after j: bottom[v] is the least b with v, v-1, ..., b
            # read in that order, and least[k] the least value from
            # position k on.
            bottom = [0] * (n + 1)
            least = [n + 1] * (n + 1)
            lo = n + 1
            for k in range(n - 1, j, -1):
                v = w[k]
                bottom[v] = bottom[v - 1] or v
                if v < lo:
                    lo = v
                least[k] = lo
        elif least[j + 1] < bottom[c]:  # a lower value is off the chain
            return (j,)
    # The 3412 half: w_x > w_y with x < y are the 4 and the 2.  The 5 must
    # sit before y, the 1 after x, and the 5 before the 1, so the earliest
    # value above w_x and the latest value below w_y are the ones to try:
    # with m the later of x and that 5, the 2 sits after m, and so does a
    # smaller value unless w_y is the least value after m.  The earliest 5
    # is before x unless w_x is a new left-to-right maximum, and then it is
    # the next one, so the walks to it cover the stretches between
    # consecutive maxima, O(n) steps in all.  A 3 valued in (w_y, w_x)
    # exists before x exactly when the greatest value below w_x before x
    # exceeds w_y, and after y exactly when a value in (w_y, w_x) after m
    # is not yet passed at y.  So an x is skipped when no 2 is left to
    # try, or when no 2 has its 3 before x and the 2s are the values
    # a..b read falling, which leaves no 3 after any y.  chain[a] >= b
    # tests that exactly: b, ..., a read falling puts every value between
    # them after m.
    top = 0  # the greatest value before x
    before = 0  # bit v set when v is among w[:x+1]
    for x in range(n - 2):
        wx = w[x]
        before |= 1 << wx
        seen = before  # bit v set when v is among w[:m+1], for v < w_x
        if wx < top:
            m = x
        else:
            top = wx
            m = x + 1
            while m < n and w[m] < wx:
                seen |= 1 << w[m]
                m += 1
        # a 4 needs three values below it, and the 2 and the 1 come after m
        if wx < 4 or m > n - 2:
            continue
        # the values below w_x after m but their least: the 2s to try
        below = (1 << wx) - 2
        twos = (seen & below) ^ below
        low = twos & -twos
        twos ^= low
        if not twos:
            continue
        low = low.bit_length() - 1
        # a 2 below the greatest value below w_x before x has its 3 there
        past = (before & below).bit_length()  # that value + 1, or 0
        if not twos & ((1 << past) - 1):
            # nor after y, when the 2s are a..b read falling; b, ..., low
            # read falling (low the 1) says so before a is computed
            b = twos.bit_length() - 1
            if chain[low] >= b or chain[(twos & -twos).bit_length() - 1] >= b:
                continue
        for y in range(m + 1, n):
            wy = w[y]
            if wy >= wx or wy <= low:
                continue
            if wy < past:
                return (x, y)
            twos ^= 1 << wy
            if twos >> wy:
                return (x, y)
            if not twos:  # the last 2 to try
                break
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


# Each backend is one bare search from a one-line tuple and the parabolic
# table's entry of J(w) to a witness or None, paired with whether a found
# witness means spherical.  The last three read w through the entry alone,
# which the caller looks up once for all of them.  The ``pattern`` search
# takes it too, for one calling convention, and ignores it, so a caller
# running ``pattern`` alone passes None.  The ``pattern`` search rests on
# the self-checked catalog, which its callers (``_judge``, ``cross_check``)
# check first, once per call or scan.
_DECIDERS: dict[str, tuple[Callable, bool]] = {
    "pattern": (_catalog_certificate, False),
    "boolean_quotient": (_repetition_free_word, True),
    "divisibility": (_first_witness, False),
    "definition": (_fitting_quotient_word, True),
}
BACKENDS = tuple(_DECIDERS)


def _check_backend(backend: str) -> None:
    if backend not in _DECIDERS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def _judge(word: tuple[int, ...], backends: tuple[str, ...]) -> tuple[_Parabolic | None, list]:
    # Each backend's (verdict, witness) on word, all from one lookup of its
    # table entry, which is returned for ``_describe``; None, and no
    # lookup, when ``pattern`` runs alone.  Behind ``is_spherical``,
    # ``explain``, a report's witnesses and the ``classify`` verb.
    for b in backends:
        _check_backend(b)
    if "pattern" in backends:
        catalog()
    entry = None if backends == ("pattern",) else _parabolic_of(word)
    judged = []
    for b in backends:
        search, spherical_if_found = _DECIDERS[b]
        found = search(word, entry)
        judged.append(((found is not None) == spherical_if_found, found))
    return entry, judged


def is_spherical(w: Permutation, backend: str = "pattern") -> bool:
    """Classify w with one of the four equivalent backends.

    >>> is_spherical(Permutation.from_text("54321"))
    True
    >>> is_spherical(Permutation.from_text("24531"), "definition")
    False
    """
    return _judge(w.oneline, (backend,))[1][0][0]


def _describe(w: Permutation, backend: str, witness, entry: _Parabolic | None) -> str:
    # The witness that the backend's decider returned for w, as text;
    # ``entry`` is the one ``_judge`` returned with it.
    if backend == "pattern":
        if witness is None:
            return "avoids all 21 blocking patterns"
        positions = _certificate_positions(w.oneline, witness)
        p = relative_order([w.oneline[i - 1] for i in positions])
        spots = ",".join(str(i) for i in positions)
        return f"contains {Permutation(p)} at positions {spots}"
    if backend == "boolean_quotient":
        q = Permutation(_quotient(w.oneline, entry))
        if witness is None:
            return f"parabolic quotient {q} has no repetition-free reduced word"
        return (
            f"parabolic quotient {q} has repetition-free "
            f"reduced word {word_to_text(witness)}"
        )
    if backend == "divisibility":
        found = "none" if witness is None else DivisibilityWitness(*witness)
        return f"({Permutation(entry.shifted[1:])}, {w}) divisibility witness {found}"
    if witness is None:  # the definition backend
        return "no reduced word fits the generator budgets"
    word = _after_parabolic_word(w.oneline, witness, entry)
    return f"reduced word {word_to_text(word)} fits the generator budgets"


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
    entry, [(_, witness)] = _judge(w.oneline, (backend,))
    return _describe(w, backend, witness, entry)


class Disagreement(NamedTuple):
    """One permutation on which the enabled backends differ."""

    perm: Permutation
    verdicts: tuple[bool, ...]
    witnesses: tuple[str, ...]


class CrossCheckReport(_Frozen):
    """Outcome of evaluating several backends over all of S_n.

    ``spherical`` counts by the first listed backend; ``disagreements``
    holds at most the first 20 offenders in lexicographic order while
    ``disagreement_count`` is the full tally.  ``backend_seconds`` holds
    the wall seconds spent in each backend, summed over blocks and
    workers.  Like generating the words, looking up the parabolic table
    entries, once per tail mask of a block and shared by the backends
    that read them, is scan input and counts in no backend's seconds, and
    so is the length table built with it; ``lookup_seconds`` holds their
    wall seconds, summed likewise.  The ``boolean_quotient`` and
    ``definition`` seconds cover only the words the scan hands them, those
    whose quotient has at most n - 1 letters.  Both fields vary from run
    to run, so reports compare and hash without them.
    """

    __slots__ = (
        "n", "total", "spherical", "backends", "disagreements",
        "disagreement_count", "backend_seconds", "lookup_seconds",
    )
    n: int
    total: int
    spherical: int
    backends: tuple[str, ...]
    disagreements: tuple[Disagreement, ...]
    disagreement_count: int
    backend_seconds: dict[str, float]
    lookup_seconds: float

    def _key(self) -> tuple:
        return (self.n, self.total, self.spherical, self.backends,
                self.disagreements, self.disagreement_count)

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
            "lookup_seconds": self.lookup_seconds,
        }


# A block of S_n is the words sharing their first n - _BLOCK letters, so a
# scan keeps at most 7! = 5,040 words and one verdict column per backend in
# memory, whatever the degree; S_n through degree 7 is one block.
_BLOCK = 7


@functools.cache
def _tail_masks(k: int) -> tuple[list[int], list[int], list[int]]:
    # The tails of a block, ``itertools.permutations`` of k letters in its
    # order, grouped by the letters' relative order: each tail's mask has
    # bit a set when its (a+1)-th smallest letter sits left of its
    # (a+2)-th.  Returns the masks, tail by tail, the index of the first
    # tail of each mask 0 .. 2^(k-1) - 1, every one of which occurs, and
    # the inversions of each tail, tail by tail.
    bits = [1 << a for a in range(k - 1)]
    masks = []
    firsts: dict[int, int] = {}
    tails = list(itertools.permutations(range(k)))
    for i, tail in enumerate(tails):
        pos = sorted(range(k), key=tail.__getitem__)
        mask = sum(itertools.compress(bits, map(operator.lt, pos, pos[1:])))
        masks.append(mask)
        firsts.setdefault(mask, i)
    return masks, [firsts[mask] for mask in range(1 << (k - 1))], list(map(_length, tails))


def _scan_block(args: tuple[int, tuple[int, ...], tuple[str, ...]]) -> tuple:
    # The words that start with ``head``, in lexicographic order, decided
    # backend by backend: each backend fills a column of verdicts, and only
    # a block whose columns differ is read word by word.  Returns the
    # words, those spherical by the first backend, the disagreeing words
    # with their verdicts in order, the seconds spent in each backend and
    # those spent looking up the table entries.
    n, head, backends = args
    rest = [v for v in range(1, n + 1) if v not in head]
    block = list(map(head.__add__, itertools.permutations(rest)))
    # i and i+1 keep the head's order unless both are rest letters, and
    # then they are consecutive ones, whose order is one bit of the tail's
    # mask: words of one mask share J(w), so the table is read once per
    # mask, and every decider shares the entry.  Like generating the
    # words, the lookup is timed with no decider, and so is the length
    # table: l(q) = l(w) - l(w0(J)), where l(w) is the inversions of the
    # block's first word, head + sorted(rest), plus the tail's, and
    # l(w0(J)) is one number per mask (the 0 in front of ``shifted`` adds
    # no inversion).
    start = time.perf_counter()
    masks, firsts, inversions = _tail_masks(len(rest))
    by_mask = [_parabolic_of(block[i]) for i in firsts]
    entries = list(map(by_mask.__getitem__, masks))
    base = _length(block[0])
    offsets = [base - _length(entry.shifted) for entry in by_mask]
    fits = [_fits(offsets[mask] + inv, n - 1) for mask, inv in zip(masks, inversions)]
    lookup = time.perf_counter() - start
    columns = []
    seconds = []
    for b in backends:
        search, spherical_if_found = _DECIDERS[b]
        start = time.perf_counter()
        if spherical_if_found:
            # both such searches find a word of q, so neither runs where q
            # is too long for one (``_fits``)
            columns.append([
                fit and search(word, entry) is not None
                for word, entry, fit in zip(block, entries, fits)
            ])
        else:
            columns.append([search(word, entry) is None for word, entry in zip(block, entries)])
        seconds.append(time.perf_counter() - start)
    first = columns[0]
    bad = []
    if any(column != first for column in columns[1:]):
        bad = [(word, verdicts) for word, verdicts in zip(block, zip(*columns))
               if any(v != verdicts[0] for v in verdicts[1:])]
    return len(block), sum(first), bad, seconds, lookup


def _scan(work: Callable, chunks: list, jobs: int) -> list:
    """Apply ``work`` to every chunk, on at most ``jobs`` worker processes;
    the results come back in chunk order."""
    if type(jobs) is not int:
        raise ValueError(f"jobs must be an int, not {type(jobs).__name__}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers < 2:
        return [work(c) for c in chunks]
    # Imported here: a fifth of the package's import time, for pools only.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A host without the named semaphores a pool needs refuses it with
    # NotImplementedError before any worker starts.
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, chunks))
    except (OSError, NotImplementedError, BrokenProcessPool) as err:
        warnings.warn(f"process pool unavailable ({err}); scanning serially")
        return [work(c) for c in chunks]


def cross_check(
    n: int,
    backends: Sequence[str] = ("pattern", "boolean_quotient", "divisibility"),
    *,
    force: bool = False,
    jobs: int = 1,
) -> CrossCheckReport:
    """Evaluate every listed backend on all of S_n and collect disagreements.

    S_n streams in lexicographic order.  The exhaustive bound is degree 8
    for any list of backends; ``force=True`` overrides it.  At least two
    backends must be listed, none twice, since a single backend
    cross-checks nothing.  The scan runs in blocks of the words that share
    their first n - 7 letters, on at most ``jobs`` workers; through degree
    7 S_n is one block, scanned in-process whatever ``jobs`` says.

    >>> cross_check(4).summary_line()
    '24 permutations, 24 spherical, 0 disagreements'
    """
    _check_degree(n)
    names = tuple(backends)
    for k, b in enumerate(names):
        _check_backend(b)
        if b in names[:k]:
            raise ValueError(f"backend {b!r} is listed twice")
    if len(names) < 2:
        raise ValueError("a cross-check needs at least two distinct backends")
    bound = DEFAULT_CROSSCHECK_BOUND
    if n > bound and not force:
        raise ValueError(
            f"degree {n} exceeds the exhaustive bound {bound}; "
            "pass --force (force=True) to run anyway"
        )
    # The heads come in lexicographic order, so the blocks joined in order
    # give the lexicographic stream and disagreements keep their order.
    heads = itertools.permutations(range(1, n + 1), max(n - _BLOCK, 0))
    if "pattern" in names:
        # the catalog's self-check runs here, not in pattern's first timed
        # block, and forked workers inherit the checked catalog
        catalog()
    # so does the tails' mask table, built here and not in the first
    # block's lookup
    _tail_masks(min(n, _BLOCK))
    results = _scan(_scan_block, [(n, head, names) for head in heads], jobs)
    bad = [item for _, _, block_bad, _, _ in results for item in block_bad]
    seconds = [sum(column) for column in zip(*(r[3] for r in results))]
    reported = []
    for word, verdicts in bad[:MAX_REPORTED_DISAGREEMENTS]:
        w = Permutation(word)
        entry, judged = _judge(word, names)
        witnesses = tuple(_describe(w, b, found, entry) for b, (_, found) in zip(names, judged))
        reported.append(Disagreement(w, verdicts, witnesses))
    return CrossCheckReport(
        n=n,
        total=sum(r[0] for r in results),
        spherical=sum(r[1] for r in results),
        backends=names,
        disagreements=tuple(reported),
        disagreement_count=len(bad),
        backend_seconds=dict(zip(names, seconds)),
        lookup_seconds=sum(r[4] for r in results),
    )

