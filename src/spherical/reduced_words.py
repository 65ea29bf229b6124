"""Reduced words and the word-based classifiers.

Words are tuples of generator indices; the word (i1, ..., il) stands for
the product s_{i1} * s_{i2} * ... * s_{il} in the package's composition
convention (rightmost factor acts first).  Enumeration works from the left:
the first letter of any reduced word of w is a left descent of w, and
stripping it leaves a shorter permutation.

One walker, ``_reduced_words``, serves enumeration and the ``definition``
backend.  Budgets are data: letter i spends one use of pool ``slot_of[i]``,
letters of an empty pool are pruned, and an (element, uses left) state
whose subtree yielded no word is memoized as dead.  Enumeration passes one
pool of l(w) uses, which every reduced word fills, so nothing is pruned.
The ``definition`` search walks only the quotient q = w0(J(w)) * w, whose
length adds to that of w0(J(w)), under ``_budget``'s pools: a maximal run
of consecutive left descents of w shares one pool, every other generator
has its own, and each pool holds one use per generator in it.
The walks hold each element u as its inverse: i is a left descent of u
exactly when its entries i and i+1 are out of order, and s_i * u swaps them.

The ``boolean_quotient`` backend needs no search.  All reduced words of w
have length l(w) and use every letter of w's support, so one of them
repeats no letter exactly when all of them do (w is Boolean).
``_repetition_free_word`` therefore builds only the lexicographically
first reduced word, stripping the least left descent at each step, and
stops at the first repeated letter: O(n) steps, no backtracking.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Mapping, Sequence

from .permutations import Permutation, _left_descents, _length, _longest_below, _quotient

WORD_ESTIMATE_LIMIT = 1_000_000


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p for _, p in sorted(zip(word, itertools.count(1))))


def _descents(inverse: tuple[int, ...]) -> list[int]:
    # Left descents, ascending, of the element with this inverse.
    flags = map(operator.gt, inverse, inverse[1:])
    return list(itertools.compress(range(1, len(inverse)), flags))


def _reduced_word_count(word: tuple[int, ...], cap: int) -> int:
    # Exact count over the weak-order ideal below ``word``: the reduced
    # words of u number the sum, over left descents i, of those of s_i * u.
    # Counts saturate at ``cap``, so a huge element stops the walk as soon
    # as one partial sum reaches it.  An explicit stack keeps long elements
    # clear of the recursion limit; a frame holds an inverse, its untried
    # descents and its running total, which a finished child adds to.
    def frame(u: tuple[int, ...]) -> list:
        ds = _descents(u)
        return [u, iter(ds), 0 if ds else 1]

    counts: dict[tuple[int, ...], int] = {}
    top = _inverse(word)
    stack = [frame(top)]
    while stack:
        entry = stack[-1]
        u, todo, total = entry
        i = next(todo, None) if total < cap else None
        if i is None:
            counts[u] = min(total, cap)
            stack.pop()
            if stack:
                stack[-1][2] += counts[u]
            continue
        v = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
        if v in counts:
            entry[2] += counts[v]
        else:
            stack.append(frame(v))
    return counts[top]


def _reduced_words(
    word: tuple[int, ...], slot_of: Mapping[int, int], caps: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    # Reduced words of ``word`` that fit the pools, in lexicographic order:
    # depth-first over left descents, ascending, on an explicit stack.  Each
    # has l(word) letters, so none fits pools holding fewer uses.  A frame
    # records how many words had been yielded when it was pushed; its state
    # is dead only if none were yielded beneath it, since the same element
    # is reached along many paths and a subtree that produced words must
    # not be pruned.
    length = _length(word)
    if length > sum(caps):
        return
    if not length:
        yield ()
        return
    dead: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    yielded = 0
    prefix: list[int] = []
    top = _inverse(word)
    stack = [(top, tuple(caps), iter(_descents(top)), yielded)]
    while stack:
        u, left, todo, before = stack[-1]
        i = next(todo, None)
        if i is None:
            stack.pop()
            if yielded == before:
                dead.add((u, left))
            del prefix[-1:]
            continue
        s = slot_of[i]
        if not left[s]:
            continue
        if len(prefix) + 1 == length:
            yielded += 1
            yield (*prefix, i)
            continue
        v = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
        t = left[:s] + (left[s] - 1,) + left[s + 1 :]
        if (v, t) not in dead:
            prefix.append(i)
            stack.append((v, t, iter(_descents(v)), yielded))


def enumerate_reduced_words(
    w: Permutation, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All reduced words of w, in lexicographic order (up to ``limit``).

    Without a limit the call refuses outright when w has more than 10**6
    reduced words, instead of running for minutes (listing 10**6 words
    takes about 10 s on a 2-core VM); pass an explicit limit to enumerate
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
    words = _reduced_words(w.oneline, dict.fromkeys(range(w.degree), 0), (w.length(),))
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
    # Generator-to-pool map and the uses each pool holds (module docstring).
    descents = set(_left_descents(word))
    slot_of: dict[int, int] = {}
    caps = [0] * len(word)
    for g in range(1, len(word)):
        slot_of[g] = slot_of[g - 1] if g in descents and g - 1 in descents else g
        caps[slot_of[g]] += 1
    return slot_of, caps


def spherical_witness_word(w: Permutation) -> tuple[int, ...] | None:
    """A reduced word of w whose letters after those of w0(J(w)) fit the
    pools, if the quotient q = w0(J(w)) * w has a reduced word that does.

    The word is the first reduced word of w0(J(w)) followed by the
    lexicographically first reduced word of q that fits the pools (module
    docstring); l(w) = l(w0(J(w))) + l(q), so it is a reduced word of w.
    """
    return _spherical_witness_word(w.oneline)


def _spherical_witness_word(word: tuple[int, ...]) -> tuple[int, ...] | None:
    rest = next(_reduced_words(_quotient(word), *_budget(word)), None)
    if rest is None:
        return None
    # the first reduced word of w0(J(w)), from the one-pool walk
    v = _longest_below(word)
    return next(_reduced_words(v, dict.fromkeys(range(len(v)), 0), (_length(v),))) + rest
