"""Divisible pairs of permutations.

A pair (v, w) is divisible after position i when the length-i prefixes of
v and w share at most i-2 values, and divisible at position i when
additionally to sharing at most i-1 values the entries v_i and w_i agree.
Divisibility of the pair means some position qualifies either way.

The search beneath, ``_first_witness``, returns the certifying position as
a plain ``(kind, position, size)`` tuple, so the exhaustive scan, which
reads only whether there is one, builds no object per word.  Only the two
readers of the witness wrap it in ``DivisibilityWitness``: ``is_divisible``
and the ``divisibility`` text of ``classify.explain``.  It holds the two
prefix sets as the bits of two ints, so the shared count is the number of
bits set in both.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .permutations import Permutation, _check_same_degree


class DivisibilityWitness(NamedTuple):
    """The certifying position, printed as "after@i" or "at@i"."""

    kind: str  # "after" or "at"
    position: int
    intersection_size: int

    def __str__(self) -> str:
        return f"{self.kind}@{self.position}"


def is_divisible(v: Permutation, w: Permutation) -> DivisibilityWitness | None:
    """Smallest-position witness that (v, w) is divisible, or None.

    On a tie at the same position "after" is preferred over "at".  The
    prefix sets grow one value a step, held as the bits of two ints, so one
    call takes at most n steps on ints of n bits.

    >>> str(is_divisible(Permutation.identity(4), Permutation((3, 4, 1, 2))))
    'after@2'
    >>> is_divisible(Permutation.identity(3), Permutation.identity(3)) is None
    True
    """
    _check_same_degree(v, w)
    found = _first_witness(w.oneline, ((0, *v.oneline),))
    return None if found is None else DivisibilityWitness(*found)


def _first_witness(
    w: tuple[int, ...], entry: Sequence[tuple[int, ...]]
) -> tuple[str, int, int] | None:
    # the fields of ``is_divisible``'s witness for (v, w), or None, v read
    # from ``entry[0]`` behind a 0 (v_i is ``entry[0][i]``), as the
    # parabolic table's entry holds w0(J) in ``shifted``; the search reads
    # nothing else of it, so ``is_divisible`` passes ``(shifted,)``
    v = entry[0]
    seen_v = seen_w = 0  # bit a set when a is among the first i values
    for i, b in enumerate(w, start=1):
        a = v[i]
        seen_v |= 1 << a
        seen_w |= 1 << b
        shared = (seen_v & seen_w).bit_count()
        if shared <= i - 2:
            return "after", i, shared
        if a == b and shared <= i - 1:
            return "at", i, shared
    return None
