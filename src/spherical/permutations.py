"""Permutations of {1, ..., n} in one-line notation.

Values and positions are 1-based in every public interface, matching the
usual one-line notation w = w_1 w_2 ... w_n.

Composition convention: ``u * w`` is the permutation mapping ``i`` to
``u(w(i))``, so the right-hand factor acts first.  Every product in this
package (parabolic quotients ``longest_parabolic(J) * w``, weak-order
quotients ``v.inverse() * w``) is written in this convention and reads
left to right as a formula.

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

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {1, ..., n}, stored as the tuple of its values.

    >>> w = Permutation((2, 5, 3, 1, 4))
    >>> w(1), w(4)
    (2, 1)
    >>> str(w)
    '25314'
    >>> w.length()
    5
    """

    oneline: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.oneline)
        if word is not self.oneline:
            object.__setattr__(self, "oneline", word)
        n = len(word)
        if n == 0:
            raise ValueError("degree must be at least 1")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity permutation (1, 2, ..., n).

        >>> str(Permutation.identity(3))
        '123'
        """
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
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        u = self.oneline
        return Permutation(tuple(u[j - 1] for j in other.oneline))

    def inverse(self) -> "Permutation":
        """The inverse permutation: position of each value.

        >>> str(Permutation((2, 3, 1)).inverse())
        '312'
        """
        inv = [0] * self.degree
        for pos, v in enumerate(self.oneline, start=1):
            inv[v - 1] = pos
        return Permutation(tuple(inv))

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


def _length(word: tuple[int, ...]) -> int:
    # Inversions: each value counts the larger values before it, found by
    # bisecting the sorted prefix.
    seen: list[int] = []
    total = 0
    for v in word:
        k = bisect.bisect(seen, v)
        total += len(seen) - k
        seen.insert(k, v)
    return total


def _left_descents(word: tuple[int, ...]) -> list[int]:
    # Indices i, ascending, whose value i+1 sits left of the value i.
    n = len(word)
    pos = [0] * (n + 1)
    for p, v in enumerate(word):
        pos[v] = p
    return [i for i in range(1, n) if pos[i + 1] < pos[i]]


@dataclass(frozen=True)
class GeneratorSet:
    """A subset of the adjacent-transposition generators s_1 .. s_{n-1}.

    The integer i stands for the generator s_i = (i i+1).
    """

    degree: int
    members: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        members = frozenset(self.members)
        if members is not self.members:
            object.__setattr__(self, "members", members)
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        bad = [i for i in members if not 1 <= i <= self.degree - 1]
        if bad:
            raise ValueError(
                f"generator indices {sorted(bad)} outside 1..{self.degree - 1}"
            )

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
    ends = [i for i in range(1, gens.degree + 1) if i not in gens.members]
    return Permutation(_reverse_blocks(ends))


def _reverse_blocks(ends: Iterable[int]) -> tuple[int, ...]:
    # 1..n with each block of consecutive values reversed in place; ``ends``
    # lists the last value of every block, ascending, the last being n.
    out: list[int] = []
    start = 1
    for end in ends:
        out.extend(range(end, start - 1, -1))
        start = end + 1
    return tuple(out)


def _longest_below(word: tuple[int, ...]) -> tuple[int, ...]:
    # w0(J(w)): the longest element generated by the left descents of w,
    # read from the position table.  s_i is a left descent when the value
    # i+1 sits left of i, so a block of w0(J(w)) ends at each i whose
    # successor sits to its right, and at n.
    n = len(word)
    pos = [0] * (n + 2)
    for p, v in enumerate(word):
        pos[v] = p
    pos[n + 1] = n
    return _reverse_blocks([i for i in range(1, n + 1) if pos[i] < pos[i + 1]])


def _quotient(word: tuple[int, ...]) -> tuple[int, ...]:
    v = _longest_below(word)
    return tuple(v[j - 1] for j in word)


def relative_order(values: Sequence[int]) -> tuple[int, ...]:
    """Ranks 1..k of the values, in the order given (the pattern they form).

    >>> relative_order((5, 4, 2))
    (3, 2, 1)
    """
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
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
