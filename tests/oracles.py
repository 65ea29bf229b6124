"""Independent brute-force oracles.

These deliberately avoid the library's own search strategies: pattern
containment scans every position subset with no pruning, word counting
multiplies out every generator sequence, Bruhat covers are the swaps that
add exactly one inversion, and Bruhat comparison comes from closing that
cover relation.  They exist to pin expected values, so keep them dumb.
"""

from __future__ import annotations

import itertools
from collections import Counter

from spherical.classify import catalog
from spherical.permutations import Permutation, symmetric_group


def standardize(values) -> tuple[int, ...]:
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def subset_occurrences(w: Permutation, p: Permutation) -> list[tuple[int, ...]]:
    """All occurrences of p in w by scanning every position subset."""
    host = w.oneline
    out = []
    for combo in itertools.combinations(range(1, w.degree + 1), p.degree):
        if standardize([host[i - 1] for i in combo]) == p.oneline:
            out.append(combo)
    return out


def avoids_by_subsets(w: Permutation, patterns) -> bool:
    """True when no subset of w's letters standardizes to a listed pattern."""
    targets = {p.oneline for p in patterns}
    for k in {len(t) for t in targets}:
        for picked in itertools.combinations(w.oneline, k):
            if standardize(picked) in targets:
                return False
    return True


def first_catalog_occurrence(w: Permutation):
    """The first position 5-subset, in lexicographic order, at which w
    realizes a catalog pattern, as (positions, pattern); None if w avoids
    them all."""
    targets = {p.oneline for p in catalog().all}
    for combo in itertools.combinations(range(1, w.degree + 1), 5):
        picked = standardize([w.oneline[i - 1] for i in combo])
        if picked in targets:
            return combo, Permutation(picked)
    return None


def inversion_count(word) -> int:
    word = list(word)
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def generator_sequence_products(n: int, length: int) -> Counter:
    """Count every product of `length` adjacent transpositions.

    Keys are one-line tuples; the value at w counts the generator
    sequences multiplying to w.  Sequences of minimal length are exactly
    the reduced words.
    """
    counter: Counter = Counter()
    u = list(range(1, n + 1))

    def walk(depth: int) -> None:
        if depth == length:
            counter[tuple(u)] += 1
            return
        for i in range(n - 1):
            u[i], u[i + 1] = u[i + 1], u[i]
            walk(depth + 1)
            u[i], u[i + 1] = u[i + 1], u[i]

    walk(0)
    return counter


def covers_by_length(w: Permutation) -> list[Permutation]:
    """The words made from w by swapping two positions that add exactly one
    inversion, sorted: the upward Bruhat covers of w."""
    base = inversion_count(w.oneline)
    out = []
    for a, b in itertools.combinations(range(w.degree), 2):
        u = list(w.oneline)
        u[a], u[b] = u[b], u[a]
        if inversion_count(u) == base + 1:
            out.append(Permutation(tuple(u)))
    return sorted(out)


def leq_by_cover_closure(n: int) -> dict[Permutation, set[Permutation]]:
    """Reflexive-transitive closure of the upward cover relation.

    up[w] is the set of all u with w <= u, built from the top down.
    """
    by_length_desc = sorted(
        symmetric_group(n), key=lambda w: -inversion_count(w.oneline)
    )
    up: dict[Permutation, set[Permutation]] = {}
    for w in by_length_desc:
        reach = {w}
        for c in covers_by_length(w):
            reach |= up[c]
        up[w] = reach
    return up
