"""Bruhat order on the symmetric group.

Bruhat comparison uses prefix value-set dominance: v <= w exactly when,
for every i, the i smallest values among v_1..v_i are componentwise at
most the i smallest among w_1..w_i.  Interval construction and the
Boolean-lattice recognizer build on that test.
"""

from __future__ import annotations

import functools
from bisect import insort
from dataclasses import dataclass

from .permutations import Permutation

DEFAULT_RANK_BOUND = 12


def first_dominance_failure(v: Permutation, w: Permutation) -> int | None:
    """Smallest prefix index i at which v's sorted prefix values fail to be
    dominated by w's, or None when v <= w in Bruhat order."""
    if v.degree != w.degree:
        raise ValueError(f"degree mismatch: {v.degree} vs {w.degree}")
    vo, wo = v.oneline, w.oneline
    if vo == wo:
        return None
    vp: list[int] = []
    wp: list[int] = []
    for i in range(v.degree - 1):  # the full prefix is always equal
        insort(vp, vo[i])
        insort(wp, wo[i])
        for a, b in zip(vp, wp):
            if a > b:
                return i + 1
    return None


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order comparison v <= w.

    >>> bruhat_leq(Permutation((2, 1, 4, 3)), Permutation((3, 1, 4, 2)))
    True
    >>> bruhat_leq(Permutation((3, 2, 1)), Permutation((3, 1, 2)))
    False
    """
    return first_dominance_failure(v, w) is None


@functools.lru_cache(maxsize=100_000)
def _covers_up(w: Permutation) -> tuple[Permutation, ...]:
    # Swapping positions a < b adds exactly one inversion when w[a] < w[b]
    # and no value between them sits between them: scanning right from a,
    # that is each new running minimum among the values above w[a].
    word = list(w.oneline)
    n = w.degree
    out = []
    for a in range(n - 1):
        low = n + 1
        for b in range(a + 1, n):
            if word[a] < word[b] < low:
                low = word[b]
                word[a], word[b] = word[b], word[a]
                out.append(Permutation(tuple(word)))
                word[a], word[b] = word[b], word[a]
    return tuple(sorted(out))


def bruhat_covers_up(w: Permutation) -> list[Permutation]:
    """All permutations covering w: w times a transposition, one longer.

    >>> [str(u) for u in bruhat_covers_up(Permutation((2, 1, 3)))]
    ['231', '312']
    """
    return list(_covers_up(w))


@dataclass(frozen=True)
class BruhatInterval:
    """The full interval [identity, top] with its internal cover relations.

    ``elements`` is sorted lexicographically by one-line notation and
    ``covers`` lists (lower, upper) pairs differing by one transposition
    and one length step, sorted the same way.
    """

    top: Permutation
    elements: tuple[Permutation, ...]
    covers: tuple[tuple[Permutation, Permutation], ...]


def build_interval(w: Permutation, rank_bound: int = DEFAULT_RANK_BOUND) -> BruhatInterval:
    """Construct the interval from the identity up to w.

    Refuses when length(w) exceeds ``rank_bound`` (the element count can
    reach 2**length).  The interval grows upward from the identity through
    cover relations, keeping each cover that passes the Bruhat test
    against w.  Every u <= w is reached, because a chain of covers from
    the identity up to u stays below w.

    >>> iv = build_interval(Permutation((2, 1, 4, 3)))
    >>> len(iv.elements), len(iv.covers)
    (4, 4)
    """
    rank = w.length()
    if rank > rank_bound:
        raise ValueError(
            f"interval rank {rank} exceeds bound {rank_bound}; "
            "pass a larger rank_bound explicitly"
        )
    e = Permutation.identity(w.degree)
    elements = {e}
    frontier = [e]
    while frontier:
        grown: list[Permutation] = []
        for u in frontier:
            for c in _covers_up(u):
                if c not in elements and bruhat_leq(c, w):
                    elements.add(c)
                    grown.append(c)
        frontier = grown
    covers = [
        (u, c) for u in elements for c in _covers_up(u) if c in elements
    ]
    return BruhatInterval(w, tuple(sorted(elements)), tuple(sorted(covers)))


def is_boolean_lattice(iv: BruhatInterval) -> bool:
    """Decide order-isomorphism with the subset lattice of the interval's atoms.

    Checks that the element count is 2**rank, that mapping each element to
    the set of atoms below it is a bijection onto all subsets, and that the
    interval order agrees with subset containment of atom sets.

    >>> is_boolean_lattice(build_interval(Permutation((2, 1, 4, 3))))
    True
    >>> is_boolean_lattice(build_interval(Permutation((3, 2, 1))))
    False
    """
    elements = iv.elements
    rank = iv.top.length()
    if len(elements) != 2**rank:
        return False
    index = {u: i for i, u in enumerate(elements)}
    atoms = [index[u] for u in elements if u.length() == 1]
    if len(atoms) != rank:
        return False

    # Upward reachability through covers; in a graded interval this closure
    # is the induced order.
    reach = [1 << i for i in range(len(elements))]
    by_level: dict[int, list[tuple[int, int]]] = {}
    for lo, up in iv.covers:
        by_level.setdefault(lo.length(), []).append((index[lo], index[up]))
    for level in sorted(by_level, reverse=True):
        for i, j in by_level[level]:
            reach[i] |= reach[j]

    masks = []
    for i in range(len(elements)):
        m = 0
        for k, atom in enumerate(atoms):
            if (reach[atom] >> i) & 1:
                m |= 1 << k
        masks.append(m)
    if len(set(masks)) != len(elements):
        return False

    full = (1 << len(elements)) - 1
    for i in range(len(elements)):
        above_by_mask = full
        m = masks[i]
        k = 0
        while m:
            if m & 1:
                above_by_mask &= reach[atoms[k]]
            m >>= 1
            k += 1
        if above_by_mask != reach[i]:
            return False
    return True


def interval_edge_lines(iv: BruhatInterval) -> list[str]:
    """The cover relations as text lines "u < u'", one per cover."""
    return [f"{lo} < {up}" for lo, up in iv.covers]
