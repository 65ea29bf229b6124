"""Divisible pairs of permutations.

A pair (v, w) is divisible after position i when the length-i prefixes of
v and w share at most i-2 values, and divisible at position i when
additionally to sharing at most i-1 values the entries v_i and w_i agree.
Divisibility of the pair means some position qualifies either way.
"""

from __future__ import annotations

from typing import NamedTuple

from .permutations import Permutation


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
    prefix intersection sizes are maintained incrementally, so one call is
    linear in the degree.

    >>> str(is_divisible(Permutation.identity(4), Permutation((3, 4, 1, 2))))
    'after@2'
    >>> is_divisible(Permutation.identity(3), Permutation.identity(3)) is None
    True
    """
    if v.degree != w.degree:
        raise ValueError(f"degree mismatch: {v.degree} vs {w.degree}")
    return _first_witness(v.oneline, w.oneline)


def _first_witness(v: tuple[int, ...], w: tuple[int, ...]) -> DivisibilityWitness | None:
    seen_v: set[int] = set()
    seen_w: set[int] = set()
    shared = 0
    for i, (a, b) in enumerate(zip(v, w), start=1):
        if a == b:
            shared += 1
        else:
            if a in seen_w:
                shared += 1
            if b in seen_v:
                shared += 1
        seen_v.add(a)
        seen_w.add(b)
        if shared <= i - 2:
            return DivisibilityWitness("after", i, shared)
        if a == b and shared <= i - 1:
            return DivisibilityWitness("at", i, shared)
    return None
