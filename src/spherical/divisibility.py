"""Divisible pairs of permutations.

A pair (v, w) is divisible after position i when the length-i prefixes of
v and w share at most i-2 values, and divisible at position i when
additionally to sharing at most i-1 values the entries v_i and w_i agree.
Divisibility of the pair means some position qualifies either way.

The search beneath, ``_first_witness``, returns the certifying position as
a plain ``(kind, position, size)`` tuple, so the exhaustive scan, which
reads only whether there is one, builds no object per word.  Only the two
readers of the witness wrap it in ``DivisibilityWitness``: ``is_divisible``
and the ``divisibility`` text of ``classify.explain``.
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
    found = _first_witness((0, *v.oneline), w.oneline)
    return None if found is None else DivisibilityWitness(*found)


def _first_witness(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[str, int, int] | None:
    # the fields of ``is_divisible``'s witness, or None, with v behind a 0
    # (v_i is ``v[i]``), as the parabolic table's entry holds w0(J)
    seen_v: set[int] = set()
    seen_w: set[int] = set()
    shared = 0
    for i, b in enumerate(w, start=1):
        a = v[i]
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
            return "after", i, shared
        if a == b and shared <= i - 1:
            return "at", i, shared
    return None
