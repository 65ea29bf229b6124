"""Seeded inputs for the benchmark workloads.

The ``queries`` stream is an endless sequence of blocks.  Every block holds
the same recipe of verbs and degrees (``RECIPE``) in a seeded order, filled
with seeded permutations, so two seeds differ in content but not in the
mix.  That keeps per-block cost, and so the figures, comparable from seed
to seed.  Each query carries the answer expected of the program, derived
from how the input was built or from an oracle independent of the code
under test.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from spherical import (
    Permutation,
    catalog,
    is_boolean_by_words,
    is_spherical,
    symmetric_group,
)

# Largest block degree used in direct sums; S_7 is small enough to list.
MAX_BLOCK = 7
# Longest elements: their reduced-word counts are far past the guard, so
# ``reduced-words`` without ``--limit`` must refuse them.
REFUSED = ("7654321", "87654321", "987654321")

# One block of the queries stream: (verb, kind, degree).
#   classify/sum      pattern backend on a direct sum of spherical blocks
#   classify/uniform  pattern backend on a uniform random permutation
#   classify_all      every backend, degree <= 8 (definition is exponential)
#   words/limit       reduced-words with --limit
#   words/full        reduced-words without --limit, small enough to finish
#   words/refuse      reduced-words without --limit on a longest element
#   bruhat/below      a pair built so that v <= w
#   bruhat/uniform    a uniform random pair
#   interval          degrees 7, 8 take the branch that filters all of S_n,
#                     9 and above grow the interval through covers
RECIPE = (
    ("classify", "sum", 8),
    ("classify", "sum", 11),
    ("classify", "sum", 14),
    ("classify", "sum", 17),
    ("classify", "sum", 20),
    ("classify", "sum", 22),
    ("classify", "sum", 25),
    ("classify", "uniform", 8),
    ("classify", "uniform", 10),
    ("classify", "uniform", 13),
    ("classify", "uniform", 16),
    ("classify", "uniform", 19),
    ("classify", "uniform", 22),
    ("classify", "uniform", 25),
    ("classify_all", "uniform", 4),
    ("classify_all", "uniform", 5),
    ("classify_all", "uniform", 6),
    ("classify_all", "uniform", 7),
    ("classify_all", "uniform", 8),
    ("classify_all", "sum", 8),
    ("words", "limit", 5),
    ("words", "limit", 6),
    ("words", "limit", 7),
    ("words", "limit", 8),
    ("words", "full", 5),
    ("words", "refuse", 0),
    ("bruhat", "below", 6),
    ("bruhat", "below", 15),
    ("bruhat", "uniform", 9),
    ("bruhat", "uniform", 20),
    ("interval", "small", 7),
    ("interval", "small", 8),
    ("interval", "large", 10),
    ("interval", "large", 12),
)


@dataclass(frozen=True)
class Query:
    """One CLI call and what it must answer.

    ``expect`` is the verdict for classify (True = spherical), the Bruhat
    answer for bruhat, the Boolean answer for interval, and None for
    reduced-words, whose words are checked by multiplying them out.
    """

    qid: int
    verb: str
    kind: str
    perms: tuple[tuple[int, ...], ...]
    argv: tuple[str, ...]
    expect: bool | None
    limit: int | None = None

    @property
    def degree(self) -> int:
        return len(self.perms[-1])

    @property
    def refused(self) -> bool:
        return self.kind == "refuse"


def text(word: tuple[int, ...]) -> str:
    return Permutation(word).to_text()


def is_sum_indecomposable(word: tuple[int, ...]) -> bool:
    """No proper prefix of w holds exactly the values 1..k."""
    top = 0
    for k, v in enumerate(word[:-1], start=1):
        top = max(top, v)
        if top == k:
            return False
    return True


def direct_sum(blocks) -> tuple[int, ...]:
    out: list[int] = []
    for b in blocks:
        offset = len(out)
        out.extend(v + offset for v in b)
    return tuple(out)


def bruhat_leq_by_ranks(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Bruhat order by the rank-matrix criterion: v <= w exactly when, for
    every i and j, #{a <= i : v_a >= j} <= #{a <= i : w_a >= j}."""
    n = len(v)
    cv = [0] * (n + 2)
    cw = [0] * (n + 2)
    for a in range(n):
        for j in range(1, v[a] + 1):
            cv[j] += 1
        for j in range(1, w[a] + 1):
            cw[j] += 1
        if any(cv[j] > cw[j] for j in range(1, n + 1)):
            return False
    return True


class SphericalBlocks:
    """Spherical permutations of degree <= 7, for building direct sums.

    A member is admitted only when the pattern and divisibility backends
    agree on it.  Building it checks that no catalog pattern is
    sum-decomposable, which is what makes the class closed under direct
    sum: an occurrence of a sum-indecomposable pattern in u (+) v lies
    inside u or inside v.
    """

    def __init__(self) -> None:
        bad = [str(p) for p in catalog().all if not is_sum_indecomposable(p.oneline)]
        if bad:
            raise RuntimeError(f"sum-decomposable catalog patterns: {bad}")
        self.by_degree: dict[int, list[tuple[int, ...]]] = {}
        for k in range(1, MAX_BLOCK + 1):
            members = []
            for w in symmetric_group(k):
                a = is_spherical(w, "pattern")
                if a != is_spherical(w, "divisibility"):
                    raise RuntimeError(f"backends disagree on {w}")
                if a:
                    members.append(w.oneline)
            self.by_degree[k] = members

    def sample(self, rng: random.Random, n: int) -> tuple[int, ...]:
        blocks = []
        left = n
        while left:
            k = rng.randint(1, min(MAX_BLOCK, left))
            blocks.append(rng.choice(self.by_degree[k]))
            left -= k
        return direct_sum(blocks)


def uniform(rng: random.Random, n: int) -> tuple[int, ...]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def below(rng: random.Random, w: tuple[int, ...], steps: int) -> tuple[int, ...]:
    """Swap inverted pairs of w a few times; each swap goes down in Bruhat order."""
    v = list(w)
    for _ in range(steps):
        pairs = [
            (a, b)
            for a, b in itertools.combinations(range(len(v)), 2)
            if v[a] > v[b]
        ]
        if not pairs:
            break
        a, b = rng.choice(pairs)
        v[a], v[b] = v[b], v[a]
    return tuple(v)


def short(rng: random.Random, n: int, steps: int) -> tuple[int, ...]:
    """A product of a few random adjacent transpositions (length <= steps)."""
    w = list(range(1, n + 1))
    for _ in range(steps):
        i = rng.randrange(n - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


class QueryStream:
    """Endless seeded stream of ``queries`` workload blocks."""

    def __init__(self, seed: int, blocks: SphericalBlocks) -> None:
        self.rng = random.Random(seed)
        self.blocks = blocks
        self.next_qid = 0

    def block(self) -> list[Query]:
        slots = list(RECIPE)
        self.rng.shuffle(slots)
        return [self._make(*slot) for slot in slots]

    def _make(self, verb: str, kind: str, n: int) -> Query:
        rng = self.rng
        qid = self.next_qid
        self.next_qid += 1
        if verb in ("classify", "classify_all"):
            if kind == "sum":
                w = self.blocks.sample(rng, n)
                expect = True
                if not is_spherical(Permutation(w), "divisibility"):
                    raise RuntimeError(f"direct sum {text(w)} is not spherical")
            else:
                w = uniform(rng, n)
                expect = is_spherical(Permutation(w), "divisibility")
            flags = ("--explain",) if verb == "classify" else ("--backend=all", "--explain")
            return Query(qid, verb, kind, (w,), ("classify", text(w), *flags), expect)
        if verb == "words":
            if kind == "refuse":
                w = Permutation.from_text(rng.choice(REFUSED)).oneline
                return Query(qid, verb, kind, (w,), ("reduced-words", text(w)), None)
            w = uniform(rng, n)
            if kind == "full":
                return Query(qid, verb, kind, (w,), ("reduced-words", text(w)), None)
            limit = rng.randint(20, 300)
            argv = ("reduced-words", text(w), f"--limit={limit}")
            return Query(qid, verb, kind, (w,), argv, None, limit)
        if verb == "bruhat":
            w = uniform(rng, n)
            v = below(rng, w, rng.randint(1, 4)) if kind == "below" else uniform(rng, n)
            expect = bruhat_leq_by_ranks(v, w)
            if kind == "below" and not expect:
                raise RuntimeError(f"{text(v)} was built below {text(w)}")
            argv = ("bruhat", text(v), text(w), "--explain")
            return Query(qid, verb, kind, (v, w), argv, expect)
        if verb == "interval":
            w = short(rng, n, rng.randint(3, 6))
            expect = is_boolean_by_words(Permutation(w))
            return Query(qid, verb, kind, (w,), ("interval", text(w)), expect)
        raise ValueError(f"unknown verb {verb!r}")


def describe(queries: list[Query]) -> dict:
    """Input properties recorded with every result."""
    classify = [q for q in queries if q.verb in ("classify", "classify_all")]
    return {
        "queries": len(queries),
        "verbs": dict(sorted(Counter(f"{q.verb}/{q.kind}" for q in queries).items())),
        "degrees": dict(sorted(Counter(q.degree for q in queries).items())),
        "spherical_share": (
            sum(1 for q in classify if q.expect) / len(classify) if classify else None
        ),
    }
