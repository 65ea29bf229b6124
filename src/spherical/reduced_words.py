"""Reduced words and the word-based classifiers.

Words are tuples of generator indices; the word (i1, ..., il) stands for
the product s_{i1} * s_{i2} * ... * s_{il} in the package's composition
convention (rightmost factor acts first).  Enumeration works from the left:
the first letter of any reduced word of w is a left descent of w, and
stripping it leaves a shorter permutation.

One walker, ``_reduced_words``, serves enumeration and the budgeted
witness of the ``definition`` backend.  Each caller threads its own state
through the walk and prunes letters it may not spend; an (element, state)
pair whose subtree yielded no word is memoized as dead.  The generator
budgets of the ``definition`` search are computed by ``_budget``.

The ``boolean_quotient`` backend needs no search.  All reduced words of w
have length l(w) and use every letter of w's support, so one of them
repeats no letter exactly when all of them do (w is Boolean).
``_repetition_free_word`` therefore builds only the lexicographically
first reduced word, stripping the least left descent at each step, and
stops at the first repeated letter: O(n) steps, no backtracking.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterator, Sequence, TypeVar

from .permutations import Permutation, _left_descents, _length

WORD_ESTIMATE_LIMIT = 1_000_000

_State = TypeVar("_State", bound=Hashable)


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


def _reduced_words(
    word: tuple[int, ...],
    state: _State,
    spend: Callable[[_State, int], _State | None],
) -> Iterator[tuple[int, ...]]:
    # Reduced words of ``word`` in lexicographic order: depth-first over
    # left descents, ascending, with an explicit stack so long elements
    # stay clear of the recursion limit.  ``spend(state, i)`` is the state
    # after letter i, or None to prune it.  A frame records how many words
    # had been yielded when it was pushed; it is dead only if none were
    # yielded beneath it, since the same element is reached along many
    # paths and a subtree that produced words must not be pruned.
    first = _left_descents(word)
    if not first:
        yield ()
        return
    dead: set[tuple[tuple[int, ...], _State]] = set()
    yielded = 0
    prefix: list[int] = []
    stack = [((word, state), iter(first), yielded)]
    while stack:
        (u, s), todo, before = stack[-1]
        i = next(todo, None)
        if i is None:
            stack.pop()
            if yielded == before:
                dead.add((u, s))
            del prefix[-1:]
            continue
        t = spend(s, i)
        if t is None:
            continue
        v = _swap_values(u, i)
        ds = _left_descents(v)
        if not ds:
            yielded += 1
            yield (*prefix, i)
        elif (v, t) not in dead:
            prefix.append(i)
            stack.append(((v, t), iter(ds), yielded))


def enumerate_reduced_words(
    w: Permutation, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All reduced words of w, in lexicographic order (up to ``limit``).

    Without a limit the call refuses outright when w has more than 10**6
    reduced words, instead of running for minutes (listing 10**6 words
    takes on the order of 15 s); pass an explicit limit to enumerate
    anyway.

    >>> enumerate_reduced_words(Permutation((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    >>> enumerate_reduced_words(Permutation.identity(4))
    [()]
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit is None:
        count = _reduced_word_count(w.oneline, WORD_ESTIMATE_LIMIT + 1)
        if count > WORD_ESTIMATE_LIMIT:
            raise ValueError(
                f"{w} has more than {WORD_ESTIMATE_LIMIT} reduced words; "
                "pass --limit (limit=N) to enumerate anyway"
            )
    words = _reduced_words(w.oneline, (), lambda state, i: state)
    return list(itertools.islice(words, limit))


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
    """The lexicographically first reduced word of w, if it repeats no
    generator; then every reduced word of w is repetition-free, else none is.
    """
    return _repetition_free_word(w.oneline)


def _repetition_free_word(word: tuple[int, ...]) -> tuple[int, ...] | None:
    # The lexicographically first reduced word decides (module docstring);
    # it strips the least left descent until none is left.  Swapping the
    # values i and i+1 changes only the descents at i-1, i and i+1, so the
    # scan steps back at most one place per letter; with at most n letters
    # before a repeat, the walk takes O(n) steps.
    n = len(word)
    pos = [0] * (n + 1)
    for p, v in enumerate(word, 1):
        pos[v] = p
    letters: list[int] = []
    used = [False] * (n + 1)
    i = 1
    while i < n:
        if pos[i + 1] < pos[i]:  # i is a left descent
            if used[i]:
                return None
            used[i] = True
            letters.append(i)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
            if i > 1:
                i -= 1
        else:
            i += 1
    return tuple(letters)


def is_boolean_by_words(w: Permutation) -> bool:
    """True when some reduced word of w uses every generator at most once.

    >>> is_boolean_by_words(Permutation((2, 1, 4, 3)))
    True
    >>> is_boolean_by_words(Permutation((3, 2, 1)))
    False
    """
    return repetition_free_word(w) is not None


def _budget(word: tuple[int, ...]) -> tuple[dict[int, int], list[int]]:
    # Generator-to-pool map and the allowance of each pool.  A generator
    # outside the left descent set has a pool of one use; a run of c
    # consecutive descents shares a pool of c(c+1)/2 + c uses, the length
    # of the run's longest element plus its size.
    descents = set(_left_descents(word))
    slot_of: dict[int, int] = {}
    runs: list[int] = []  # descent-run sizes; 0 for a non-descent
    for g in range(1, len(word)):
        if g in descents and g - 1 in descents:
            runs[-1] += 1
        else:
            runs.append(1 if g in descents else 0)
        slot_of[g] = len(runs) - 1
    return slot_of, [c * (c + 1) // 2 + c if c else 1 for c in runs]


def spherical_witness_word(w: Permutation) -> tuple[int, ...] | None:
    """A reduced word of w that stays within the budgets, if any exists.

    The search is the module's one reduced-word walker: left descents
    depth-first, ascending, each chosen letter decrementing its budget
    pool and exhausted pools pruning the letter.  (Element, pools left)
    states that yielded no word are memoized, so the first word found is
    the lexicographically first that fits.
    """
    return _spherical_witness_word(w.oneline)


def _spherical_witness_word(word: tuple[int, ...]) -> tuple[int, ...] | None:
    # The state is the tuple of uses left in each pool.
    slot_of, caps = _budget(word)
    if _length(word) > sum(caps):
        return None  # every letter spends one use from some pool

    def spend(left: tuple[int, ...], i: int) -> tuple[int, ...] | None:
        s = slot_of[i]
        if left[s] == 0:
            return None
        return left[:s] + (left[s] - 1,) + left[s + 1 :]

    return next(_reduced_words(word, tuple(caps), spend), None)
