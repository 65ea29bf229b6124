"""Reduced words and the word-based classifiers.

Words are tuples of generator indices; the word (i1, ..., il) stands for
the product s_{i1} * s_{i2} * ... * s_{il} in the package's composition
convention (rightmost factor acts first).  Enumeration works from the left:
the first letter of any reduced word of w is a left descent of w, and
stripping it leaves a shorter permutation.

One walker, ``_reduced_words``, runs the two searches: enumeration and
the ``definition`` backend.  Budgets are data: letter i spends one use of
pool ``slot_of[i]``.  Enumeration passes one pool of l(w) uses, which
every reduced word fills.  The ``definition`` search walks only the
quotient q = w0(J(w)) * w, whose length adds to that of w0(J(w)), under
the pools of J(w): a maximal run of consecutive left descents of w
shares one pool, every other generator has its own, and each pool holds
one use per generator in it.  The pools and q's map depend on J(w) alone,
so both come from the per-descent-set table in ``permutations``, built
once per J; the caller hands the search its word's entry, looked up once
for all the backends that read it, and in a scan once for all the words
of a block that share J.  The walker is handed w and the map
``shifted`` of the entry, which holds w0(J(w)) behind a 0, and reads q
off w through it (enumeration passes the identity map), so the search
forms no quotient tuple.  The search returns q's first fitting word
alone; ``spherical_witness_word`` and ``explain`` put the first
reduced word of w0(J(w)) in front of it, which needs no search: for each
run a..b of J, in increasing order, it is a; a+1, a; ...; b, ..., a,
read off the same entry.

The walker holds each element as its inverse u, one list stepped in
place: i is a left descent exactly when u_i > u_{i+1}, the step to s_i
times the element swaps u_i and u_{i+1}, and stepping back swaps them
again.  Its left descents are one int, the mask with bit i set when i is
a descent.  A step at i clears bit i and can only set bits i-1 and i+1,
each exactly when its outer neighbour u_{i-1} or u_{i+2} lies between
the two values swapped; stepping back undoes the same three bits.  So a
step reads four entries of u instead of scanning it, and a frame's next
letter is the lowest set bit of its untried mask.  Letters are tried in
ascending order, so a frame that returns from its child at i has the
mask's bits above i untried: no frame holds more than its letter.  Each
letter is taken from one table of the letter ints, so the prefix and the
words yielded hold one int object per letter value, not one per place.

The crossing number c_i = #{j <= i : u_j > i}, the same for an element
and its inverse, counts the values that a reduced word must carry across
place i, one per letter i, so every reduced word has at least c_i letters
i.  The walker keeps, per pool, a slack: its uses left minus the sum of
c_i over its generators.  Its set-up fills the root's inverse, its
length and its crossing numbers in one pass over w, placing q_p =
w0(J(w))(w_p) and holding the values placed so far as the bits of an
int.  A root longer than the pools hold, or with a negative slack, has
no fitting word; the length is refused through ``_fits``, the one
length rule, which a scan in ``classify`` also applies from its length
table before it calls either quotient search.  A step at i lowers c_i
by one exactly when u_i > i >= u_{i+1}; that step keeps the slack, any other step spends
one, and a step the slack cannot pay for is pruned.  A state left before the first word is
yielded is remembered as dead under the key (u, slack), built only once
some state has died; the ``definition`` search reads no later word.
Under enumeration's one pool the slack is the length left minus the sum
of the c_i, never negative, and a state of slack 0 has only steps that
lower some c_i, so nothing is pruned and no key is built.

``enumerate_reduced_words`` without a limit refuses an element with more
than 10**6 reduced words, and decides that first from the shapes of the
Lehmer codes of w and w^-1, before any walk; both codes, like every
length but the one the walker's set-up counts, come from the one sweep
``permutations._code``.  The Stanley symmetric function of w holds the
Schur function of lambda(w), the code sorted into a partition, with
coefficient 1 (Stanley, "On the number of reduced decompositions of
elements of Coxeter groups", 1984; Edelman and Greene, "Balanced
tableaux", 1987), so w has at least f^lambda(w) reduced words, the number of standard Young tableaux of that shape.  It
also holds the Schur function of lambda(w^-1)' with coefficient 1, and
the two shapes differ exactly when w contains 2143; then w has at least
f^lambda(w) + f^lambda(w^-1) reduced words, a conjugate shape having as
many tableaux.  When w avoids 2143 the first term is the count.
``_shape_bound`` keeps the 16 largest parts of each shape, each cut to
16: a shape inside lambda has no more tableaux, so the value stays a
lower bound, and the hook-length formula on at most 256 cells costs
microseconds whatever l(w) is.  It reads w^-1's shape only when the
first term does not already pass the cap.  Only a bound past the cap
refuses; any other element takes ``_reduced_word_count``, the exact
capped count.  It sweeps down the weak order one length at a time and
keeps one level: the number of paths from w down to each element of that
length.  Every element below w has a reduced word, so a level's sum
never falls and never passes w's count; the identity's level holds the
count, and the sweep stops as soon as a partial sum reaches the cap.

The ``boolean_quotient`` backend needs no search.  All reduced words of w
have length l(w) and use every letter of w's support, so one of them
repeats no letter exactly when all of them do (w is Boolean).
``_repetition_free_word`` therefore builds only the lexicographically
first reduced word, stripping the least left descent at each step, and
stops at the first repeated letter: O(n) steps, no backtracking.  It
walks the position table of q = w0(J(w)) * w, which it fills from w and
the table entry's w0(J(w)) in one pass, so q itself is never formed; the
public ``repetition_free_word`` passes the identity in its place.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator, Sequence

from .permutations import (
    Permutation, _code, _inverse, _length, _letters, _Parabolic, _parabolic_of,
)

WORD_ESTIMATE_LIMIT = 1_000_000
# ``_shape_bound`` cuts lambda(w) to a square of this side.
SHAPE_BOX = 16


def _code_shape(word: Sequence[int]) -> list[int]:
    # lambda(w): the nonzero entries of w's Lehmer code, in decreasing
    # order.
    return sorted(filter(None, _code(word)), reverse=True)


def _box_tableaux(shape: list[int]) -> int:
    # f^mu for mu = ``shape`` cut to the SHAPE_BOX square, by the hook
    # length formula: the hook of cell (r, c) is the cells right of it in
    # row r, below it in column c, and itself.
    rows = [min(part, SHAPE_BOX) for part in shape[:SHAPE_BOX]]
    columns = [sum(r > c for r in rows) for c in range(SHAPE_BOX)]
    hooks = 1
    for r, row in enumerate(rows):
        for c in range(row):
            hooks *= row - c + columns[c] - r - 1
    return math.factorial(sum(rows)) // hooks


def _shape_bound(word: tuple[int, ...], cap: int) -> int:
    # A lower bound on the number of reduced words of ``word`` from the
    # shapes of its code (module docstring): f^lambda(w) in the box, and
    # when that is at most ``cap`` and lambda(w^-1)' differs from
    # lambda(w), f^lambda(w^-1) in the box added on.
    shape = _code_shape(word)
    bound = _box_tableaux(shape)
    if bound <= cap:
        other = _code_shape(_inverse(word))
        # column c of lambda(w^-1) holds the parts longer than c
        ascending = other[::-1]
        columns = [len(other) - bisect.bisect(ascending, c) for c in range(max(other, default=0))]
        if columns != shape:
            bound += _box_tableaux(other)
    return bound


def _reduced_word_count(word: tuple[int, ...], cap: int) -> int:
    # The number of reduced words of ``word``, saturated at ``cap``, by the
    # level sweep of the module docstring: a level maps each element's
    # inverse to its number of paths from ``word``, and the step at a left
    # descent i swaps the inverse's entries i and i+1.
    level = {tuple(_inverse(word)): 1}
    places = range(1, len(word))
    for _ in range(_length(word)):
        below: dict[tuple[int, ...], int] = {}
        total = 0
        for u, c in level.items():
            for i in places:
                if u[i - 1] > u[i]:
                    v = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
                    below[v] = below.get(v, 0) + c
                    total += c
                    if total >= cap:
                        return cap
        level = below
    return min(sum(level.values()), cap)


def _fits(length: int, uses: int) -> bool:
    # The one length rule: a reduced word of q has l(q) letters, and one
    # that fits pools of ``uses`` uses in all has at most ``uses``.  S_n's
    # pools hold n - 1, one per generator, as many as a repetition-free
    # word can have, so a q longer than n - 1 has neither word: the
    # walker's set-up refuses it here, and so does a scan, from its length
    # table, before either search.
    return length <= uses


def _reduced_words(
    word: tuple[int, ...], shifted: tuple[int, ...], slot_of: Sequence[int], caps: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    # Reduced words of q, q_p being ``shifted[word[p]]``, that fit the
    # pools, in lexicographic order: depth-first over left descents,
    # ascending, stepping one inverse, one descent mask and one slack list
    # in place (module docstring).  The prefix is the stack: a frame's
    # untried letters are its mask above the letter that led to its
    # child, so frames hold nothing else.  Frames stop two letters above
    # the identity: the last letter is forced and free.  A state is dead
    # only if no word was yielded beneath it, since the same element is
    # reached along many paths and a subtree that produced words must not
    # be pruned.  Every state left before the first word is dead, so those
    # are recorded, and no later one: the ``definition`` search reads only
    # the first word, and under enumeration's one pool no state dies.
    # ``letters[k]`` is k - 1, the letter of a bit whose ``bit_length`` is
    # k: the prefix and the words take their letters from it, one int per
    # letter value.
    n = len(word)
    # One pass over q read off ``word``: q's inverse, its length and, into
    # the slacks, its crossing numbers.  ``seen`` has bit x set when x is
    # among q_1..q_p, and ``small`` counts the values at most p there, so
    # c_p = p - small.
    u = [0] * (n + 1) + [n + 1]  # the sentinels keep bits 0 and n clear
    slack = list(caps)
    seen = length = small = 0
    for p, v in enumerate(word, 1):
        x = shifted[v]
        u[x] = p
        length += p - 1 - (seen & ((1 << x) - 1)).bit_count()
        small += (x <= p) + (seen >> p & 1)
        seen |= 1 << x
        if p < n:
            slack[slot_of[p]] -= p - small
    if not _fits(length, sum(caps)) or min(slack) < 0:
        return
    mask = 0
    for i in range(1, n):
        if u[i] > u[i + 1]:
            mask |= 1 << i
    if length < 2:
        yield (mask.bit_length() - 1,) if mask else ()
        return
    letters = list(range(-1, n))
    dead: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    fresh = True  # no word yielded yet
    prefix: list[int] = []
    last = length - 2
    todo = mask
    while True:
        if not todo:
            if not prefix:
                return
            if fresh:
                dead.add((tuple(u), tuple(slack)))
            i = prefix.pop()
            b, a = u[i], u[i + 1]
            u[i], u[i + 1] = a, b
            low = 1 << i
            mask |= low
            if b < u[i - 1] < a:
                mask ^= low >> 1
            if b < u[i + 2] < a:
                mask ^= low << 1
            todo = mask & -(low << 1)
            if not a > i >= b:
                slack[slot_of[i]] += 1
            continue
        low = todo & -todo
        todo ^= low
        i = letters[low.bit_length()]
        a, b = u[i], u[i + 1]
        free = a > i >= b  # the step lowers c_i
        if not free:
            s = slot_of[i]
            if not slack[s]:
                continue
        u[i], u[i + 1] = b, a
        if len(prefix) == last:
            # s_i * u is some s_j, and the step at j lowers c_j = 1
            fresh = False
            j = mask ^ low
            if b < u[i - 1] < a:
                j |= low >> 1
            if b < u[i + 2] < a:
                j |= low << 1
            yield (*prefix, i, letters[j.bit_length()])
            u[i], u[i + 1] = a, b
            continue
        if not free:
            slack[s] -= 1
        if dead and (tuple(u), tuple(slack)) in dead:
            u[i], u[i + 1] = a, b
            if not free:
                slack[s] += 1
            continue
        prefix.append(i)
        mask ^= low
        if b < u[i - 1] < a:
            mask |= low >> 1
        if b < u[i + 2] < a:
            mask |= low << 1
        todo = mask


def enumerate_reduced_words(
    w: Permutation, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All reduced words of w, in lexicographic order (up to ``limit``).

    Without a limit the call refuses outright when w has more than 10**6
    reduced words, instead of running for minutes (listing 10**6 words of
    the longest element of S_7 takes about 7 s on a 2-core VM); pass an
    explicit limit to enumerate anyway.  The refusal reads the shapes of
    the Lehmer codes of w and its inverse first: when their tableaux, cut
    to a 16 x 16 box, already number more than 10**6, it refuses without
    a walk.  Otherwise the capped count over w's weak-order ideal decides.

    >>> enumerate_reduced_words(Permutation((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    >>> enumerate_reduced_words(Permutation.identity(4))
    [()]
    """
    if limit is None:
        cap = WORD_ESTIMATE_LIMIT
        if _shape_bound(w.oneline, cap) > cap or _reduced_word_count(w.oneline, cap + 1) > cap:
            raise ValueError(
                f"{w} has more than {cap} reduced words; "
                "pass --limit (limit=N) to enumerate anyway"
            )
    # ints only, as in ``_check_degree``: True would list one word
    elif type(limit) is not int:
        raise ValueError(f"limit must be an int, not {type(limit).__name__}")
    elif limit < 0:
        raise ValueError("limit must be nonnegative")
    words = _reduced_words(w.oneline, _letters(w.degree), (0,) * w.degree, (w.length(),))
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
    # one text per letter value, shared by every place that letter takes
    names = [str(i) for i in range(max(letters, default=0) + 1)]
    return "[" + ",".join(map(names.__getitem__, letters)) + "]"


def repetition_free_word(w: Permutation) -> tuple[int, ...] | None:
    """The lexicographically first reduced word of w, if it repeats no
    generator; then every reduced word of w is repetition-free, else none is.
    """
    return _repetition_free_word(w.oneline, (_letters(w.degree),))


def _repetition_free_word(
    word: tuple[int, ...], entry: Sequence[tuple[int, ...]]
) -> tuple[int, ...] | None:
    # The same for q = u * w, ``entry[0][j]`` being u(j) behind a 0, as a
    # table entry's ``shifted`` holds w0(J): nothing else of the entry is
    # read, so ``repetition_free_word`` passes the identity as
    # ``(shifted,)``.  It walks q's position table, filled straight off w.
    # The lexicographically first reduced word decides (module docstring);
    # it strips the least left descent until none is left.  Swapping the
    # values i and i+1 changes only the descents at i-1, i and i+1, so the
    # scan steps back at most one place per letter; with at most n letters
    # before a repeat, the walk takes O(n) steps.
    n = len(word)
    shifted = entry[0]
    pos = [0] * (n + 1)
    for p, v in enumerate(word, 1):
        pos[shifted[v]] = p
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


def spherical_witness_word(w: Permutation) -> tuple[int, ...] | None:
    """A reduced word of w whose letters after those of w0(J(w)) fit the
    pools, if the quotient q = w0(J(w)) * w has a reduced word that does.

    The word is the first reduced word of w0(J(w)) followed by the
    lexicographically first reduced word of q that fits the pools (module
    docstring); l(w) = l(w0(J(w))) + l(q), so it is a reduced word of w.

    >>> spherical_witness_word(Permutation.from_text("4321"))
    (1, 2, 1, 3, 2, 1)
    """
    entry = _parabolic_of(w.oneline)
    rest = _fitting_quotient_word(w.oneline, entry)
    return None if rest is None else _after_parabolic_word(w.oneline, rest, entry)


def _fitting_quotient_word(word: tuple[int, ...], entry: _Parabolic) -> tuple[int, ...] | None:
    # The definition search: q's first reduced word that fits the pools,
    # both read off ``entry``, the table's entry of J(w), whose fields are
    # the walker's last three arguments in order.
    return next(_reduced_words(word, *entry), None)


def _after_parabolic_word(
    word: tuple[int, ...], rest: tuple[int, ...], entry: _Parabolic
) -> tuple[int, ...]:
    # The first reduced word of w0(J(w)), read off the pools' runs of
    # ``entry`` (module docstring), then rest: g is in J exactly when w0(J)
    # descends at g, w0[g] being w0(J)(g), and its run starts at
    # ``slot_of[g]``.  The runs are slices of one letter table, so every
    # place of a letter holds the same int.
    w0, slot_of, _ = entry
    letters = _letters(len(word))
    return (
        *(j for g in range(1, len(word)) if w0[g] > w0[g + 1] for j in letters[g : slot_of[g] - 1 : -1]),
        *rest,
    )
