import random

import pytest
from hypothesis import given, strategies as st

from spherical.divisibility import DivisibilityWitness, is_divisible
from spherical.permutations import Permutation, symmetric_group
from spherical.reduced_words import is_boolean_by_words

from oracles import divisible_after, divisible_at


class TestPositionTests:
    # the prefix-set definitions the witness search is pinned against
    def test_after_examples(self):
        e = Permutation.identity(4)
        w = Permutation((3, 4, 1, 2))
        assert divisible_after(e, w, 2)
        assert not divisible_after(e, w, 1)  # the bound i-2 is negative
        assert not divisible_after(w, w, 3)  # equal prefixes share i values

    def test_at_examples(self):
        e = Permutation.identity(3)
        assert divisible_at(e, Permutation((3, 2, 1)), 2)
        assert not divisible_at(e, e, 2)
        assert not divisible_at(e, Permutation((2, 1, 3)), 3)

    @given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
    def test_never_divisible_after_position_one(self, a, b):
        assert not divisible_after(Permutation(tuple(a)), Permutation(tuple(b)), 1)


class TestWitness:
    def test_examples(self):
        e = Permutation.identity(4)
        assert is_divisible(e, Permutation((3, 4, 1, 2))) == DivisibilityWitness(
            "after", 2, 0
        )
        assert is_divisible(e, e) is None
        e3 = Permutation.identity(3)
        got = is_divisible(e3, Permutation((3, 2, 1)))
        assert got == DivisibilityWitness("at", 2, 1)
        assert str(got) == "at@2"

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_divisible(Permutation.identity(3), Permutation.identity(4))

    def test_witness_is_smallest_position_after_preferred(self):
        for v in symmetric_group(4):
            for w in symmetric_group(4):
                got = is_divisible(v, w)
                flags = [
                    (i, kind)
                    for i in range(1, 5)
                    for kind, test in (
                        ("after", divisible_after),
                        ("at", divisible_at),
                    )
                    if test(v, w, i)
                ]
                if got is None:
                    assert flags == []
                else:
                    assert (got.position, got.kind) == flags[0]

    def test_translation_invariance(self):
        for n in (3, 4):
            perms = list(symmetric_group(n))
            present = {
                (v, w): is_divisible(v, w) is not None
                for v in perms
                for w in perms
            }
            for u in perms:
                for v in perms:
                    for w in perms:
                        assert present[(u * v, u * w)] == present[(v, w)]

    def test_translation_invariance_degree_five(self):
        perms = list(symmetric_group(5))
        table = {w: {} for w in perms}
        for v in perms:
            row = table[v]
            for w in perms:
                row[w] = is_divisible(v, w) is not None
        products = {
            (u, v): u * v for u in perms for v in perms
        }
        for u in perms:
            for v in perms:
                uv = products[(u, v)]
                for w in perms:
                    assert table[uv][products[(u, w)]] == table[v][w]


class TestQuotientEquivalence:
    def test_matches_non_boolean_quotient_random_degree_six(self):
        rng = random.Random(61261)
        values = list(range(1, 7))
        for _ in range(2000):
            v = Permutation(tuple(rng.sample(values, 6)))
            w = Permutation(tuple(rng.sample(values, 6)))
            divisible = is_divisible(v, w) is not None
            assert divisible == (not is_boolean_by_words(v.inverse() * w))
