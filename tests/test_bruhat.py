import pytest

from spherical.bruhat import (
    BruhatInterval,
    bruhat_covers_up,
    bruhat_leq,
    build_interval,
    first_dominance_failure,
    interval_edge_lines,
    is_boolean_lattice,
)
from spherical.permutations import Permutation, avoids_all, symmetric_group

from oracles import covers_by_length, leq_by_cover_closure


class TestBruhatLeq:
    def test_identity_is_minimum(self):
        e = Permutation.identity(4)
        for w in symmetric_group(4):
            assert bruhat_leq(e, w)

    def test_examples(self):
        assert bruhat_leq(Permutation((2, 1, 4, 3)), Permutation((3, 1, 4, 2)))
        assert not bruhat_leq(Permutation((3, 2, 1)), Permutation((3, 1, 2)))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq(Permutation((2, 1)), Permutation((2, 1, 3)))

    def test_first_failure_index(self):
        assert first_dominance_failure(
            Permutation((3, 2, 1)), Permutation((3, 1, 2))
        ) == 2
        assert first_dominance_failure(
            Permutation((2, 1, 3)), Permutation((3, 1, 2))
        ) is None

    def test_partial_order_axioms_exhaustive(self):
        for n in range(1, 6):
            perms = list(symmetric_group(n))
            index = {w: i for i, w in enumerate(perms)}
            up = [0] * len(perms)
            for w in perms:
                for u in perms:
                    if bruhat_leq(w, u):
                        up[index[w]] |= 1 << index[u]
            for i, w in enumerate(perms):
                assert (up[i] >> i) & 1  # reflexive
                for j, u in enumerate(perms):
                    if (up[i] >> j) & 1:
                        # antisymmetric
                        assert i == j or not (up[j] >> i) & 1
                        # transitive: everything above u is above w
                        assert up[j] & ~up[i] == 0


class TestCovers:
    def test_covers_of_identity(self):
        got = {str(u) for u in bruhat_covers_up(Permutation.identity(3))}
        assert got == {"213", "132"}

    def test_maximum_has_no_covers(self):
        assert bruhat_covers_up(Permutation((3, 2, 1))) == []

    def test_covers_of_s1(self):
        got = {str(u) for u in bruhat_covers_up(Permutation((2, 1, 3)))}
        assert got == {"312", "231"}

    def test_covers_match_length_oracle(self):
        for n in range(1, 7):
            for w in symmetric_group(n):
                assert bruhat_covers_up(w) == covers_by_length(w)

    def test_cover_shape(self):
        # each cover differs in exactly two positions and one length step
        for w in symmetric_group(4):
            for u in bruhat_covers_up(w):
                assert u.length() == w.length() + 1
                diff = [i for i in range(4) if u.oneline[i] != w.oneline[i]]
                assert len(diff) == 2


def test_degree_six_order_invariants():
    # One pass over all of S6: the dominance test must agree with the
    # closure of the cover relation.
    up = leq_by_cover_closure(6)
    perms = list(symmetric_group(6))
    for v in perms:
        reachable = up[v]
        for w in perms:
            leq = bruhat_leq(v, w)
            assert leq == (w in reachable)


class TestIntervals:
    def test_interval_2143(self):
        iv = build_interval(Permutation((2, 1, 4, 3)))
        assert {str(u) for u in iv.elements} == {"1234", "1243", "2134", "2143"}
        assert len(iv.covers) == 4

    def test_interval_identity(self):
        iv = build_interval(Permutation.identity(3))
        assert len(iv.elements) == 1
        assert iv.covers == ()

    def test_interval_longest_element(self):
        iv = build_interval(Permutation((3, 2, 1)))
        assert len(iv.elements) == 6

    def test_elements_and_covers_sorted(self):
        iv = build_interval(Permutation((3, 1, 4, 2)))
        assert list(iv.elements) == sorted(iv.elements)
        assert list(iv.covers) == sorted(iv.covers)
        for lo, up in iv.covers:
            assert up.length() == lo.length() + 1

    def test_rank_bound(self):
        w0 = Permutation((5, 4, 3, 2, 1))  # length 10
        with pytest.raises(ValueError):
            build_interval(w0, rank_bound=9)
        iv = build_interval(w0)
        assert len(iv.elements) == 120

    def test_upward_growth_matches_filtering(self):
        # fixed points appended past the end leave the interval's shape
        # unchanged; embed a small permutation into S9 and compare
        w = Permutation((2, 1, 4, 3, 5, 6, 7, 8, 9))
        small = build_interval(Permutation((2, 1, 4, 3)))
        grown = build_interval(w)
        assert len(grown.elements) == len(small.elements)
        assert len(grown.covers) == len(small.covers)

    def test_elements_match_cover_closure_oracle(self):
        for n in range(1, 6):
            up = leq_by_cover_closure(n)
            for w in symmetric_group(n):
                below = {u for u, reach in up.items() if w in reach}
                assert set(build_interval(w).elements) == below

    def test_edge_lines(self):
        iv = build_interval(Permutation((2, 1, 4, 3)))
        assert interval_edge_lines(iv) == [
            "1234 < 1243",
            "1234 < 2134",
            "1243 < 2143",
            "2134 < 2143",
        ]


class TestBooleanLattice:
    def test_examples(self):
        assert is_boolean_lattice(build_interval(Permutation((2, 1, 4, 3))))
        assert is_boolean_lattice(build_interval(Permutation.identity(4)))
        assert not is_boolean_lattice(build_interval(Permutation((3, 2, 1))))

    def test_short_boolean_intervals(self):
        assert is_boolean_lattice(build_interval(Permutation((3, 1, 2))))
        assert not is_boolean_lattice(build_interval(Permutation((3, 4, 1, 2))))

    def test_atom_count_rejects_synthetic_interval(self):
        # right size (4 = 2**2) but only one atom
        e = Permutation.identity(3)
        s1, top, extra = (
            Permutation((2, 1, 3)),
            Permutation((3, 1, 2)),
            Permutation((2, 3, 1)),
        )
        fake = BruhatInterval(
            top,
            (e, s1, extra, top),
            ((e, s1), (s1, top), (s1, extra)),
        )
        assert not is_boolean_lattice(fake)

    def test_atom_set_bijection_rejects_synthetic_interval(self):
        # two atoms but an element reachable from only one of them
        e = Permutation.identity(3)
        s1, s2, top = (
            Permutation((2, 1, 3)),
            Permutation((1, 3, 2)),
            Permutation((3, 1, 2)),
        )
        fake = BruhatInterval(
            top,
            (e, s2, s1, top),
            ((e, s1), (e, s2), (s1, top)),
        )
        assert not is_boolean_lattice(fake)

    def test_cover_closure_matches_bruhat_inside_intervals(self):
        # the recognizer trusts the cover closure as the interval order;
        # check that against the dominance test on sample intervals
        for text in ["2143", "3412", "4231", "21435", "35142"]:
            iv = build_interval(Permutation.from_text(text))
            reach = {u: {u} for u in iv.elements}
            for lo, up in sorted(iv.covers, key=lambda c: -c[0].length()):
                reach[lo] |= reach[up]
            for v in iv.elements:
                for w in iv.elements:
                    assert (w in reach[v]) == bruhat_leq(v, w)

    def test_matches_pattern_criterion_degree_five(self):
        blockers = [Permutation((3, 2, 1)), Permutation((3, 4, 1, 2))]
        for w in symmetric_group(5):
            expected = avoids_all(w, blockers)
            assert is_boolean_lattice(build_interval(w)) == expected
