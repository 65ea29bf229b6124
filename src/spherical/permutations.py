"""Permutations of {1, ..., n} in one-line notation.

Values and positions are 1-based in every public interface, matching the
usual one-line notation w = w_1 w_2 ... w_n.

Composition convention: ``u * w`` is the permutation mapping ``i`` to
``u(w(i))``, so the right-hand factor acts first.  Every product in this
package (parabolic quotients ``longest_parabolic(J) * w``, weak-order
quotients ``v.inverse() * w``) is written in this convention and reads
left to right as a formula.

``Permutation`` and ``GeneratorSet`` are slotted immutable value classes:
assigning to a field raises ``AttributeError``, and pickle and copy rebuild
them through their constructors.  They are written out by hand rather than
with ``dataclasses``, whose import (it pulls in ``inspect`` and ``ast``) and
decorations would cost more than the first verdict of a ``classify`` run.

Three of the four backends split w as w0(J(w)) * q, J(w) being the left
descent set of w: ``boolean_quotient`` and ``definition`` read the
quotient q, ``divisibility`` the pair (w0(J(w)), w), and ``definition``
also its generator pools.  All of that depends on J alone, and S_n has
2^(n-1) descent sets against n! words, so ``_parabolic`` builds it once
per descent set, in one bounded cache that ``_parabolic_of`` reads for a
word.  Every reader but ``longest_parabolic`` takes the entry from
whoever holds the word, which looks it up once, or, in a scan, once for
all the words of a block that share J (``classify._tails``):
``_quotient``, the three backends' searches (``_repetition_free_word``,
``divisibility._first_witness`` and ``_fitting_quotient_word``, which
``classify._DECIDERS`` holds bare) and ``_after_parabolic_word``.  No
search forms q: the ``boolean_quotient`` search reads q's positions and
the ``definition`` walker q's inverse off w through ``shifted``, and
``parabolic_quotient`` and ``explain`` form q with ``_quotient`` for a
caller who asks for it.
Its entries hold only tuples, so no caller can change what the next one
reads.  The ``pattern`` backend reads nothing from it.

The Lehmer code of a word has one sweep, ``_code``, which holds the
values read so far as the bits of an int: ``_length``, the number of
inversions, is its sum, and ``reduced_words._code_shape`` sorts its
nonzero entries into the shape lambda(w).

``avoids_all`` and ``first_pattern_occurrence`` share one scanner,
``_occurrences``.  It walks a trie of the patterns keyed by each letter's
rank among the letters before it, so patterns of any degree share one walk,
and it leaves a trie node once too few host letters remain to complete a
pattern below it.  Occurrences come out with their positions in
lexicographic order.  The ``pattern`` backend's decider does not scan with
it (the catalog self-check does, on degree-5 words); the trie stays as the
reference that decider is tested against at degrees a plain subset scan
cannot reach, where one walk over all 21 catalog patterns is much cheaper
than 21 separate scans.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence


class _Frozen:
    # Base of the package's immutable value classes.  Each subclass lists
    # its fields in ``__slots__``, in constructor order, and ``__init__``
    # sets each once, from values given by position or by name; a subclass
    # that validates its values passes them on to it (or sets them with
    # ``object.__setattr__``).  The objects are not tuples: they neither
    # unpack nor equal a tuple.
    # Objects of one class compare and hash by ``_key``, all fields unless
    # a subclass narrows it.
    # ``__reduce__`` rebuilds an object through its constructor, so pickle
    # and copy re-validate it and never meet the assignment guard.
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __init__(self, *values: object, **named: object) -> None:
        names = self.__slots__
        fields = dict(zip(names, values), **named)
        # a named value silently replaces a positional one in ``fields``,
        # and ``zip`` drops an extra positional one, so count them as well
        if len(values) + len(named) != len(fields) or fields.keys() != set(names):
            missing = [name for name in names if name not in fields]
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields once each, got "
                            f"{len(values)} positional, named {sorted(named)}, missing {missing}")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


@functools.total_ordering
class Permutation(_Frozen):
    """A permutation of {1, ..., n}, stored as the tuple of its values.

    Permutations are immutable; they compare, hash and order as their
    one-line tuples.

    >>> w = Permutation((2, 5, 3, 1, 4))
    >>> w(1), w(4)
    (2, 1)
    >>> str(w)
    '25314'
    >>> w.length()
    5
    """

    __slots__ = ("oneline",)
    oneline: tuple[int, ...]

    def __init__(self, oneline: tuple[int, ...]) -> None:
        word = tuple(oneline)
        n = len(word)
        if n == 0:
            raise ValueError("degree must be at least 1")
        # equality alone would take 2.0 and True for 2 and 1
        if {*map(type, word)} != {int} or sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")
        object.__setattr__(self, "oneline", word)

    # Spelled out, not derived from ``_key``: sets and dicts of
    # permutations call these once per element.  Putting 17,388 interval
    # elements into a set and a dict, and looking each one up, took 17 ms
    # this way against 116 ms through the generic ``_key`` (2-core VM,
    # Python 3.11).
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.oneline == other.oneline
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.oneline,))

    def __lt__(self, other: "Permutation") -> bool:
        if other.__class__ is self.__class__:
            return self.oneline < other.oneline
        return NotImplemented

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity permutation (1, 2, ..., n).

        >>> str(Permutation.identity(3))
        '123'
        """
        _check_int("degree", n, 1)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse either digit-string form ("25314") or comma form ("2,5,3,1,4").

        Degrees of 10 and above must use the comma form.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty permutation text")
        # int() alone would also take "+1", "1_0" and non-ASCII digits
        tokens = [tok.strip() for tok in s.split(",")] if "," in s else list(s)
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"bad permutation text: {text!r}")
        return cls(tuple(map(int, tokens)))

    def to_text(self) -> str:
        """Digit string for degree at most 9, comma-separated otherwise."""
        if self.degree <= 9:
            return "".join(str(v) for v in self.oneline)
        return ",".join(str(v) for v in self.oneline)

    def __str__(self) -> str:
        return self.to_text()

    @property
    def degree(self) -> int:
        return len(self.oneline)

    def __len__(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        """The value w(i), with i in 1..n."""
        _check_int("position", i)
        if not 1 <= i <= self.degree:
            raise ValueError(f"position {i} outside 1..{self.degree}")
        return self.oneline[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition u * w: apply w first, then u (i maps to u(w(i))).

        >>> str(Permutation((2, 1, 3)) * Permutation((1, 3, 2)))
        '231'
        """
        if not isinstance(other, Permutation):
            return NotImplemented
        _check_same_degree(self, other)
        u = self.oneline
        return Permutation(tuple(u[j - 1] for j in other.oneline))

    def inverse(self) -> "Permutation":
        """The inverse permutation: position of each value.

        >>> str(Permutation((2, 3, 1)).inverse())
        '312'
        """
        return Permutation(tuple(_inverse(self.oneline)))

    def length(self) -> int:
        """Number of inversions, which is the minimal word length in the
        adjacent transpositions."""
        return _length(self.oneline)

    def left_descents(self) -> "GeneratorSet":
        """Generators s_i whose value i+1 appears before the value i.

        >>> sorted(Permutation((2, 3, 1)).left_descents())
        [1]
        """
        return GeneratorSet(self.degree, frozenset(_left_descents(self.oneline)))


# The package's refusals of a value that is not an int, of two degrees
# that differ and of a scan past its bound, each worded here once for
# every entry point.
def _check_int(name: str, value: object, least: int | None = None) -> None:
    # ints only, as in ``Permutation``: True would pass for 1, and 4.0
    # would pass some checks and fail later with a TypeError
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")


def _check_same_degree(v: Permutation, w: Permutation) -> None:
    if v.degree != w.degree:
        raise ValueError(f"degree mismatch: {v.degree} vs {w.degree}")


def _check_bound(n: int, bound: int, force: bool, what: str) -> None:
    if n > bound and not force:
        raise ValueError(f"degree {n} exceeds the {what} bound {bound}; "
                         "pass --force (force=True) to run anyway")


def _code(word: Sequence[int]) -> list[int]:
    # The Lehmer code, the package's one sweep of it: entry i counts the
    # smaller values right of place i, read from the right with the values
    # passed so far held as the bits of an int.
    seen = 0
    code: list[int] = []
    for v in reversed(word):
        code.append((seen & ((1 << v) - 1)).bit_count())
        seen |= 1 << v
    return code[::-1]


def _length(word: tuple[int, ...]) -> int:
    # Inversions: the sum of the code.
    return sum(_code(word))


def _inverse(word: tuple[int, ...]) -> list[int]:
    # The position, 1-based, of each value 1..n.
    inverse = [0] * len(word)
    for p, v in enumerate(word, 1):
        inverse[v - 1] = p
    return inverse


def _left_descents(word: tuple[int, ...]) -> list[int]:
    # Indices i, ascending, whose value i+1 sits left of the value i.
    n = len(word)
    pos = [0] * (n + 1)
    for p, v in enumerate(word):
        pos[v] = p
    return [i for i in range(1, n) if pos[i + 1] < pos[i]]


class GeneratorSet(_Frozen):
    """A subset of the adjacent-transposition generators s_1 .. s_{n-1}.

    The integer i stands for the generator s_i = (i i+1).
    """

    __slots__ = ("degree", "members")
    degree: int
    members: frozenset[int]

    def __init__(self, degree: int, members: frozenset[int] = frozenset()) -> None:
        members = frozenset(members)
        _check_int("degree", degree, 1)
        # ints only, as in ``_check_int``: equality alone would take 2.0
        # and True for 2 and 1
        bad = [i for i in members if type(i) is not int or not 1 <= i <= degree - 1]
        if bad:
            raise ValueError(
                f"generator indices {sorted(bad, key=repr)} are not ints in 1..{degree - 1}"
            )
        super().__init__(degree, members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members


def longest_parabolic(gens: GeneratorSet) -> Permutation:
    """Longest element of the subgroup generated by ``gens``.

    In one-line form: split 1..n into maximal blocks of consecutive values
    linked by members of ``gens`` and reverse each block in place.

    >>> str(longest_parabolic(GeneratorSet(5, frozenset({1, 2, 4}))))
    '32154'
    >>> str(longest_parabolic(GeneratorSet(4)))
    '1234'
    """
    # a block ends at each i with s_i outside gens, n among them
    ends = tuple([i for i in range(1, gens.degree + 1) if i not in gens.members])
    return Permutation(_parabolic(ends).shifted[1:])


class _Parabolic(NamedTuple):
    # What the backends read off J: w0(J) behind a 0, so that
    # ``shifted[j]`` is w0(J)(j), and w0(J) itself is ``shifted[1:]``; and
    # the ``definition`` pools, where generator i spends one use of pool
    # ``slot_of[i]`` (``slot_of[0]`` is unused), pool s holds ``caps[s]``
    # uses, a maximal run of J shares one pool and every other generator
    # has its own.
    shifted: tuple[int, ...]
    slot_of: tuple[int, ...]
    caps: tuple[int, ...]


@functools.lru_cache(maxsize=16)
def _letters(n: int) -> tuple[int, ...]:
    # 0..n, one int object per value (past 256 each ``range`` step makes a
    # fresh one), shared by the entries of degree n and their keys.
    return tuple(range(n + 1))


# Keyed by the ends of the blocks of J, ascending, the last being n.  S_n
# has 2^(n-1) descent sets against n! words, and an exhaustive scan looks
# up one entry per tail mask of a block, at most 64 for its 5,040 words:
# a scan of S_8, the largest ``cross_check`` runs unforced, reads 128
# descent sets, and a forced one of S_9 reads 256, which this bound holds
# whole, so such a scan builds each entry once.  S_10's 512 and S_12's
# 2,048 take turns in it, and queries outside a scan rarely share a
# descent set.  The bound is also
# what a long-lived process keeps: an entry with its key holds about 28
# bytes per letter, its tuples and key pointing into the one ``_letters``
# table of its degree, so 0.08 MB at degree 3000 and at most about 22 MB
# there.
@functools.lru_cache(maxsize=256)
def _parabolic(ends: tuple[int, ...]) -> _Parabolic:
    n = ends[-1]
    letters = _letters(n)
    shifted = [0]
    slot_of = [0]
    caps = [0] * n
    start = 1
    for end in ends:
        # the block start..end: its generators but the last form a run of
        # J in pool ``start``; s_end is outside J, a pool of its own
        shifted.extend(letters[end : start - 1 : -1])
        if end > start:
            slot_of.extend([letters[start]] * (end - start))
            caps[start] = end - start
        if end < n:
            slot_of.append(end)
            caps[end] = 1
        start = end + 1
    return _Parabolic(tuple(shifted), tuple(slot_of), tuple(caps))


def _parabolic_of(word: tuple[int, ...]) -> _Parabolic:
    # The entry of J(w), read from the position table: s_i is a left
    # descent when the value i+1 sits left of i, so a block of w0(J(w))
    # ends at each i whose successor sits to its right, and at n.  The
    # sentinels pos[0] = pos[n+1] = n make 0 no end and n one.  The ends
    # are taken from the degree's letter table, so the cached keys share
    # its ints.
    n = len(word)
    pos = [n] * (n + 2)
    for p, v in enumerate(word):
        pos[v] = p
    return _parabolic(tuple([i for i in _letters(n) if pos[i] < pos[i + 1]]))


def _quotient(word: tuple[int, ...], entry: _Parabolic) -> tuple[int, ...]:
    # w0(J(w)) * w, read off ``entry``, the table's entry of J(w)
    return tuple(map(entry.shifted.__getitem__, word))


def relative_order(values: Sequence[int]) -> tuple[int, ...]:
    """Ranks 1..k of the values, in the order given (the pattern they form).

    >>> relative_order((5, 4, 2))
    (3, 2, 1)
    """
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    if len(rank) < len(values):
        raise ValueError(f"repeated values form no pattern: {tuple(values)!r}")
    return tuple(rank[v] for v in values)


class PatternOccurrence(NamedTuple):
    """Positions in a host permutation realizing a pattern."""

    positions: tuple[int, ...]
    pattern: Permutation


@functools.lru_cache(maxsize=256)
def _trie(patterns: tuple[tuple[int, ...], ...]) -> list:
    # A node is [children by rank, need, whether a pattern ends here], where
    # ``need`` is the fewest further letters that complete a pattern below it.
    longest = max(map(len, patterns), default=1)
    root: list = [{}, longest, False]
    for p in patterns:
        node = root
        for j in range(len(p)):
            node[1] = min(node[1], len(p) - j)
            rank = relative_order(p[: j + 1])[-1] - 1
            node = node[0].setdefault(rank, [{}, longest, False])
        node[2] = True
    return root


def _occurrences(host: tuple[int, ...], trie: list) -> Iterator[tuple[int, ...]]:
    # Depth-first over increasing 1-based positions; the explicit stack
    # keeps patterns a thousand letters deep clear of the recursion limit.
    n = len(host)
    stack = [(trie[0], iter(range(n + 1 - trie[1])), (), ())]
    while stack:
        children, todo, taken, values = stack[-1]
        for i in todo:
            x = host[i]
            rank = 0
            for y in values:
                if y < x:
                    rank += 1
            node = children.get(rank)
            if node is not None:
                break
        else:
            stack.pop()
            continue
        below, need, ends = node
        if ends:
            yield (*taken, i + 1)
        if below and need < n - i:
            todo = iter(range(i + 1, n + 1 - need))
            stack.append((below, todo, (*taken, i + 1), (*values, x)))


def first_pattern_occurrence(w: Permutation, p: Permutation) -> PatternOccurrence | None:
    """The lexicographically first occurrence of p in w, or None.

    >>> first_pattern_occurrence(Permutation((3, 5, 1, 4, 2)), Permutation((3, 2, 1))).positions
    (2, 4, 5)
    """
    if p.degree > w.degree:
        raise ValueError(f"pattern degree {p.degree} exceeds host degree {w.degree}")
    hit = next(_occurrences(w.oneline, _trie((p.oneline,))), None)
    return None if hit is None else PatternOccurrence(hit, p)


def avoids_all(w: Permutation, patterns: Iterable[Permutation]) -> bool:
    """True when w has no occurrence of any listed pattern.

    Patterns longer than w cannot occur and are skipped.

    >>> avoids_all(Permutation((2, 1, 4, 3)), [Permutation((3, 2, 1)), Permutation((3, 4, 1, 2))])
    True
    """
    trie = _trie(tuple(p.oneline for p in patterns))
    return next(_occurrences(w.oneline, trie), None) is None


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All degree-n permutations, in lexicographic one-line order."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)
