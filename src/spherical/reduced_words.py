"""Reduced words and the word-based classifiers.

Words are tuples of generator indices; the word (i1, ..., il) stands for
the product s_{i1} * s_{i2} * ... * s_{il} in the package's composition
convention (rightmost factor acts first).  Enumeration works from the left:
the first letter of any reduced word of w is a left descent of w, and
stripping it leaves a shorter permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .permutations import GeneratorSet, Permutation, _left_descents

WORD_ESTIMATE_LIMIT = 10_000_000


def _swap_values(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    # Left multiplication by s_i: exchange the values i and i+1.
    return tuple(
        i + 1 if x == i else i if x == i + 1 else x for x in word
    )


def _reduced_word_count(word: tuple[int, ...], cap: int) -> int:
    # Exact count over the weak-order ideal below ``word``: the reduced
    # words of u number the sum, over left descents i, of those of s_i * u.
    # Counts saturate at ``cap``, so a huge element stops the walk as soon
    # as one partial sum reaches it.  An explicit stack keeps long elements
    # clear of the recursion limit.
    def frame(
        u: tuple[int, ...],
    ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        return u, [_swap_values(u, i) for i in _left_descents(u)]

    counts: dict[tuple[int, ...], int] = {}
    stack = [frame(word)]
    while stack:
        u, below = stack[-1]
        total = 0 if below else 1
        pending = None
        for c in below:
            if c not in counts:
                pending = c
                break
            total += counts[c]
            if total >= cap:
                break
        if pending is None:
            counts[u] = min(total, cap)
            stack.pop()
        else:
            stack.append(frame(pending))
    return counts[word]


def enumerate_reduced_words(
    w: Permutation, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All reduced words of w, in lexicographic order (up to ``limit``).

    Without a limit the call refuses outright when w has more than 10**7
    reduced words, instead of hanging; pass an explicit limit to enumerate
    anyway.

    >>> enumerate_reduced_words(Permutation((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    >>> enumerate_reduced_words(Permutation.identity(4))
    [()]
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit == 0:
        return []
    if limit is None:
        count = _reduced_word_count(w.oneline, WORD_ESTIMATE_LIMIT + 1)
        if count > WORD_ESTIMATE_LIMIT:
            raise ValueError(
                f"{w} has more than {WORD_ESTIMATE_LIMIT} reduced words; "
                "pass limit= to enumerate anyway"
            )
    words: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(u: tuple[int, ...]) -> bool:
        ds = _left_descents(u)
        if not ds:
            words.append(tuple(prefix))
            return limit is None or len(words) < limit
        for i in ds:
            prefix.append(i)
            more = walk(_swap_values(u, i))
            prefix.pop()
            if not more:
                return False
        return True

    walk(w.oneline)
    return words


def word_to_permutation(letters: Sequence[int], degree: int) -> Permutation:
    """Multiply out a word of generator indices at the given degree.

    >>> str(word_to_permutation((2, 1), 3))
    '312'
    """
    out = list(range(1, degree + 1))
    for i in letters:
        if not 1 <= i <= degree - 1:
            raise ValueError(f"letter {i} outside 1..{degree - 1}")
        out[i - 1], out[i] = out[i], out[i - 1]
    return Permutation(tuple(out))


def word_to_text(letters: Sequence[int]) -> str:
    """Bracketed comma-separated form, "[1,2,1]"; the empty word is "[]"."""
    return "[" + ",".join(str(i) for i in letters) + "]"


def word_is_repetition_free(letters: Sequence[int]) -> bool:
    """True when no generator index occurs twice in the word."""
    return len(set(letters)) == len(letters)


def repetition_free_word(w: Permutation) -> tuple[int, ...] | None:
    """A reduced word of w that repeats no generator, if one exists."""
    if w.length() > w.degree - 1:
        return None  # a repetition-free word has at most n-1 letters

    def walk(
        u: tuple[int, ...], used: frozenset[int], prefix: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        ds = _left_descents(u)
        if not ds:
            return prefix
        for i in ds:
            if i in used:
                continue
            got = walk(_swap_values(u, i), used | {i}, prefix + (i,))
            if got is not None:
                return got
        return None

    return walk(w.oneline, frozenset(), ())


def is_boolean_by_words(w: Permutation) -> bool:
    """True when some reduced word of w uses every generator at most once.

    >>> is_boolean_by_words(Permutation((2, 1, 4, 3)))
    True
    >>> is_boolean_by_words(Permutation((3, 2, 1)))
    False
    """
    return repetition_free_word(w) is not None


@dataclass(frozen=True)
class SphericalBudget:
    """Letter allowances for the budgeted reduced-word search.

    Each generator outside the left descent set may be used at most once;
    the generators of one descent component C share a pool of
    c(c+1)/2 + c uses for a run of c consecutive indices, which equals
    the length of the component's longest element plus its size.
    """

    degree: int
    singleton_caps: frozenset[int]
    component_caps: tuple[tuple[frozenset[int], int], ...]

    @classmethod
    def from_descents(cls, descents: GeneratorSet) -> "SphericalBudget":
        caps = []
        for comp in descents.components():
            c = len(comp)
            caps.append((comp.members, c * (c + 1) // 2 + c))
        outside = frozenset(range(1, descents.degree)) - descents.members
        return cls(descents.degree, outside, tuple(caps))

    def slots(self) -> tuple[dict[int, int], list[int]]:
        """Generator-to-pool map plus the initial allowance of each pool."""
        slot_of: dict[int, int] = {}
        caps: list[int] = []
        for members, cap in self.component_caps:
            idx = len(caps)
            caps.append(cap)
            for g in members:
                slot_of[g] = idx
        for g in sorted(self.singleton_caps):
            slot_of[g] = len(caps)
            caps.append(1)
        return slot_of, caps


def spherical_witness_word(
    w: Permutation, *, descent_order: str = "ascending"
) -> tuple[int, ...] | None:
    """A reduced word of w that stays within the budgets, if any exists.

    The search walks left descents depth-first, decrementing the budget
    pool of each chosen letter and pruning exhausted branches.  States that
    failed once are memoized.  ``descent_order`` controls which descent is
    tried first; the verdict is independent of it.
    """
    if descent_order not in ("ascending", "descending"):
        raise ValueError(f"bad descent_order {descent_order!r}")
    flip = descent_order == "descending"
    budget = SphericalBudget.from_descents(w.left_descents())
    slot_of, caps = budget.slots()
    dead: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def walk(
        u: tuple[int, ...], left: tuple[int, ...], prefix: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        ds = _left_descents(u)
        if not ds:
            return prefix
        key = (u, left)
        if key in dead:
            return None
        for i in reversed(ds) if flip else ds:
            s = slot_of[i]
            if left[s] == 0:
                continue
            nxt = left[:s] + (left[s] - 1,) + left[s + 1 :]
            got = walk(_swap_values(u, i), nxt, prefix + (i,))
            if got is not None:
                return got
        dead.add(key)
        return None

    return walk(w.oneline, tuple(caps), ())


def is_spherical_by_definition(
    w: Permutation, *, descent_order: str = "ascending"
) -> bool:
    """True when some reduced word of w satisfies both budget rules:
    single use outside the descent set, pooled caps inside each component.

    >>> is_spherical_by_definition(Permutation((3, 2, 1)))
    True
    >>> is_spherical_by_definition(Permutation((2, 4, 5, 3, 1)))
    False
    """
    return spherical_witness_word(w, descent_order=descent_order) is not None
