import itertools
import random

import pytest
from hypothesis import given, strategies as st

from spherical.classify import cross_check
from spherical.divisibility import DivisibilityWitness, _first_witness, is_divisible
from spherical.permutations import Permutation, symmetric_group
from spherical.reduced_words import is_boolean_by_words

from oracles import divisible_after, divisible_at, first_witness_by_sets


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
        # a plain tuple would compare equal, but not print or read as one
        assert isinstance(got, DivisibilityWitness)
        assert (got.kind, got.position, got.intersection_size) == ("at", 2, 1)
        assert str(got) == "at@2"

    def test_a_scan_builds_no_witness_object(self, monkeypatch):
        # the scan reads only whether a pair is divisible, so it builds no
        # DivisibilityWitness for the 320 words of S_6 it rejects; the one
        # is_divisible call below shows that the count sees a construction
        built = []
        new = DivisibilityWitness.__new__

        def counting(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(DivisibilityWitness, "__new__", counting)
        report = cross_check(6, ("pattern", "divisibility"))
        assert (report.total, report.spherical, report.disagreement_count) == (720, 400, 0)
        assert built == []
        is_divisible(Permutation.identity(3), Permutation((3, 2, 1)))
        assert built == [("at", 2, 1)]

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

    def test_matches_the_set_reference_exhaustive(self):
        # the whole witness tuple, on every ordered pair of S_1..S_6
        for n in range(1, 7):
            words = list(itertools.permutations(range(1, n + 1)))
            for v in words:
                shifted = (0, *v)
                got = [_first_witness(w, (shifted,)) for w in words]
                assert got == [first_witness_by_sets(shifted, w) for w in words], v

    def test_matches_the_set_reference_on_seeded_pairs(self):
        # 2,000 pairs of degree 7-500: a third drawn apart, which mostly
        # stop early, a third with w a few transpositions from v, and a
        # third with w = v, which read every position and find none
        rng = random.Random(4000)
        found = set()
        for trial in range(2000):
            n = rng.randint(7, 500)
            v = rng.sample(range(1, n + 1), n)
            if trial % 3 == 0:
                w = rng.sample(range(1, n + 1), n)
            else:
                w = list(v)
                for _ in range(rng.randint(1, 4) if trial % 3 == 1 else 0):
                    i, j = rng.sample(range(n), 2)
                    w[i], w[j] = w[j], w[i]
            shifted, w = (0, *v), tuple(w)
            expected = first_witness_by_sets(shifted, w)
            assert _first_witness(w, (shifted,)) == expected, (v, w)
            found.add(None if expected is None else expected[0])
        assert found == {None, "after", "at"}

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
        # S_5 indexed by rank: divisible[v][w] is the verdict on (v, w) and
        # product[u][v] the rank of u * v, so one row comparison per (u, v)
        # checks (u * v, u * w) against (v, w) for every w
        perms = list(symmetric_group(5))
        rank = {w: r for r, w in enumerate(perms)}
        divisible = [[is_divisible(v, w) is not None for w in perms] for v in perms]
        product = [[rank[u * v] for v in perms] for u in perms]
        for u, by_u in zip(perms, product):
            for v, uv, row in zip(perms, by_u, divisible):
                translated = list(map(divisible[uv].__getitem__, by_u))
                assert translated == row, (str(u), str(v))


class TestQuotientEquivalence:
    def test_matches_non_boolean_quotient_random_degree_six(self):
        rng = random.Random(61261)
        values = list(range(1, 7))
        for _ in range(2000):
            v = Permutation(tuple(rng.sample(values, 6)))
            w = Permutation(tuple(rng.sample(values, 6)))
            divisible = is_divisible(v, w) is not None
            assert divisible == (not is_boolean_by_words(v.inverse() * w))
