"""Bruhat order on the symmetric group.

Bruhat comparison uses prefix value-set dominance: v <= w exactly when,
for every i, the i smallest values among v_1..v_i are componentwise at
most the i smallest among w_1..w_i.  Interval construction makes no
comparison: it grows down from the top through lower covers, and the
Boolean-lattice recognizer reads the covers it recorded.
"""

from __future__ import annotations

from .permutations import Permutation, _check_int, _check_same_degree, _Frozen

DEFAULT_RANK_BOUND = 12


def first_dominance_failure(v: Permutation, w: Permutation) -> int | None:
    """Smallest prefix index i at which v's sorted prefix values fail to be
    dominated by w's, or None when v <= w in Bruhat order."""
    _check_same_degree(v, w)
    vo, wo = v.oneline, w.oneline
    if vo == wo:
        return None
    # Sorted prefixes dominate exactly when, for every threshold j, the
    # prefix of w holds at least as many values >= j as that of v.
    # surplus[j] keeps that difference; step i moves it only for the
    # thresholds between v_i and w_i, and only a fall can make it negative.
    surplus = [0] * (v.degree + 2)
    for i in range(v.degree - 1):  # the full prefix is always equal
        a, b = vo[i], wo[i]
        if a < b:
            for j in range(a + 1, b + 1):
                surplus[j] += 1
        else:
            for j in range(b + 1, a + 1):
                surplus[j] -= 1
                if surplus[j] < 0:
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


def _covers_down(word: tuple[int, ...], blocks: list[range]) -> list[tuple[int, ...]]:
    # Swapping positions a < b removes exactly one inversion when
    # word[a] > word[b] and no value between them sits between them:
    # scanning right from a, that is each new running maximum among the
    # values below word[a].  Only pairs inside one of ``blocks``, the
    # position ranges of the top's nontrivial sum components, can swap.
    w = list(word)
    out = []
    for block in blocks:
        for a in block[:-1]:
            high = 0
            for b in range(a + 1, block.stop):
                if high < w[b] < w[a]:
                    high = w[b]
                    w[a], w[b] = w[b], w[a]
                    out.append(tuple(w))
                    w[a], w[b] = w[b], w[a]
    return out


class BruhatInterval(_Frozen):
    """The full interval [identity, top] with its internal cover relations.

    ``elements`` is sorted lexicographically by one-line notation and
    ``covers`` lists (lower, upper) pairs differing by one transposition
    and one length step, sorted the same way.
    """

    __slots__ = ("top", "elements", "covers")
    top: Permutation
    elements: tuple[Permutation, ...]
    covers: tuple[tuple[Permutation, Permutation], ...]


def build_interval(w: Permutation, rank_bound: int = DEFAULT_RANK_BOUND) -> BruhatInterval:
    """Construct the interval from the identity up to w.

    Refuses when length(w) exceeds ``rank_bound`` (the element count can
    reach 2**length).  The interval grows down from w through lower
    covers, each element's computed once and each recorded as a cover.
    No candidate needs a Bruhat test: every u <= w lies on a chain of
    covers down from w, and whatever lies below u lies below w.  Every
    such u also permutes within w's sum components, the stretches that
    end at each k with max(w_1..w_k) = k, so covers are sought only
    inside the components longer than one letter.

    >>> iv = build_interval(Permutation((2, 1, 4, 3)))
    >>> len(iv.elements), len(iv.covers)
    (4, 4)
    """
    _check_int("rank_bound", rank_bound)
    rank = w.length()
    if rank > rank_bound:
        raise ValueError(f"interval rank {rank} exceeds bound {rank_bound}")
    blocks = []
    start = high = 0
    for k, v in enumerate(w.oneline, 1):
        high = max(high, v)
        if high == k:
            if k - start > 1:
                blocks.append(range(start, k))
            start = k
    lower = {w.oneline: _covers_down(w.oneline, blocks)}
    stack = [w.oneline]
    while stack:
        for c in lower[stack.pop()]:
            if c not in lower:
                lower[c] = _covers_down(c, blocks)
                stack.append(c)
    # Permutations order as their one-line tuples, so sort those.
    perm = {u: Permutation(u) for u in lower}
    covers = sorted((c, u) for u, below in lower.items() for c in below)
    return BruhatInterval(
        w,
        tuple(perm[u] for u in sorted(lower)),
        tuple((perm[c], perm[u]) for c, u in covers),
    )


def is_boolean_lattice(iv: BruhatInterval) -> bool:
    """Decide order-isomorphism with the subset lattice of the interval's atoms.

    ``iv.covers`` must be the interval's cover relations, sorted, as
    ``build_interval`` records them.  With r the rank, the interval is
    Boolean exactly when it has 2**r elements and r * 2**(r-1) covers,
    the atom sets pushed up the covers are pairwise distinct, and each
    cover's upper end has its lower end's atoms plus exactly one more.
    The atoms need no count of their own: every element lies on a chain
    of r covers from the identity to the top, each cover adds one atom,
    so the top holds all k atoms and k = r.  The atom sets are then all
    2**r subsets, and the covers all the subset covers, so the two orders
    agree.

    >>> is_boolean_lattice(build_interval(Permutation((2, 1, 4, 3))))
    True
    >>> is_boolean_lattice(build_interval(Permutation((3, 2, 1))))
    False
    """
    elements, covers = iv.elements, iv.covers
    rank = iv.top.length()
    if len(elements) != 1 << rank or 2 * len(covers) != rank << rank:
        return False
    e = Permutation.identity(iv.top.degree)
    atoms = [up for lo, up in covers if lo == e]
    below = dict.fromkeys(elements, 0)
    for k, atom in enumerate(atoms):
        below[atom] = 1 << k
    # Going up a cover raises the one-line word lexicographically, so in
    # the sorted covers each lower end's atoms are complete when pushed.
    for lo, up in covers:
        below[up] |= below[lo]
    if len(set(below.values())) != len(elements):
        return False
    return all(below[up].bit_count() == below[lo].bit_count() + 1 for lo, up in covers)
