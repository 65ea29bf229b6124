import copy
import pickle
import time

import pytest

import spherical.bruhat
from spherical.bruhat import (
    BruhatInterval,
    bruhat_leq,
    build_interval,
    first_dominance_failure,
    is_boolean_lattice,
)
from spherical.cli import main
from spherical.permutations import Permutation, symmetric_group

from oracles import (
    covers_by_length,
    dominance_failure_by_sorted_prefixes,
    leq_by_cover_closure,
    sorted_prefixes,
)


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

    def test_failure_index_matches_sorted_prefix_oracle(self):
        # every pair of S_1..S_6, each permutation's prefixes sorted once
        for n in range(1, 7):
            perms = [(w, sorted_prefixes(w)) for w in symmetric_group(n)]
            for v, v_sorted in perms:
                for w, w_sorted in perms:
                    assert first_dominance_failure(
                        v, w
                    ) == dominance_failure_by_sorted_prefixes(v_sorted, w_sorted), (v, w)

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


def _covers_from(u, top):
    return {str(c) for v, c in build_interval(top).covers if v == u}


class TestCovers:
    def test_covers_of_identity(self):
        top = Permutation((3, 2, 1))
        assert _covers_from(Permutation.identity(3), top) == {"213", "132"}

    def test_maximum_has_no_covers(self):
        top = Permutation((3, 2, 1))
        assert _covers_from(top, top) == set()

    def test_covers_of_s1(self):
        top = Permutation((3, 2, 1))
        assert _covers_from(Permutation((2, 1, 3)), top) == {"312", "231"}

    def test_cover_shape(self):
        # each recorded cover differs in exactly two positions and one
        # length step
        for w in symmetric_group(4):
            for u, c in build_interval(w).covers:
                assert c.length() == u.length() + 1
                diff = [i for i in range(4) if c.oneline[i] != u.oneline[i]]
                assert len(diff) == 2

    def test_covers_match_length_oracle(self):
        # the recorded covers are exactly the oracle's covers between the
        # interval's elements
        for n in range(1, 6):
            for w in symmetric_group(n):
                iv = build_interval(w)
                inside = set(iv.elements)
                expected = sorted(
                    (u, c) for u in inside for c in covers_by_length(u) if c in inside
                )
                assert list(iv.covers) == expected, w
        # the interval below the longest element of S6 is all of S6
        w0 = Permutation((6, 5, 4, 3, 2, 1))
        expected = sorted(
            (u, c) for u in symmetric_group(6) for c in covers_by_length(u)
        )
        assert len(expected) == 3708
        assert list(build_interval(w0, rank_bound=15).covers) == expected


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
        # ints only: True refused with "interval rank 10 exceeds bound
        # True", 12.0 built the interval and "12" raised TypeError
        for bound in (True, 12.0, "12"):
            name = type(bound).__name__
            with pytest.raises(ValueError, match=f"^rank_bound must be an int, not {name}$"):
                build_interval(w0, bound)

    def test_fixed_points_past_the_end_keep_the_shape(self):
        # fixed points appended past the end add no cover below the top;
        # embed a small permutation into S9 and compare
        w = Permutation((2, 1, 4, 3, 5, 6, 7, 8, 9))
        small = build_interval(Permutation((2, 1, 4, 3)))
        grown = build_interval(w)
        assert len(grown.elements) == len(small.elements)
        assert len(grown.covers) == len(small.covers)

    def test_rank_six_at_degree_two_thousand_within_a_second(self):
        # covers are sought only inside the top's six two-letter components,
        # not over all pairs of 2000 positions
        top = list(range(1, 2001))
        for i in range(0, 12, 2):
            top[i], top[i + 1] = top[i + 1], top[i]
        start = time.perf_counter()
        iv = build_interval(Permutation(tuple(top)))
        assert time.perf_counter() - start < 1
        assert (len(iv.elements), len(iv.covers)) == (64, 192)
        assert is_boolean_lattice(iv)

    def test_elements_match_cover_closure_oracle(self):
        for n in range(1, 6):
            up = leq_by_cover_closure(n)
            for w in symmetric_group(n):
                below = {u for u, reach in up.items() if w in reach}
                assert set(build_interval(w).elements) == below

    def test_no_bruhat_comparison(self, monkeypatch):
        # growth down through covers needs no candidate test
        def refuse(v, w):
            raise AssertionError("build_interval compared two permutations")

        monkeypatch.setattr(spherical.bruhat, "first_dominance_failure", refuse)
        for text in ["2143", "3412", "54321"]:
            build_interval(Permutation.from_text(text))

    def test_edge_lines(self, capsys):
        assert main(["interval", "2143", "--edges"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "1234 < 1243",
            "1234 < 2134",
            "1243 < 2143",
            "2134 < 2143",
        ]

    def test_value_semantics(self):
        iv = build_interval(Permutation((2, 1, 4, 3)))
        for clone in (pickle.loads(pickle.dumps(iv)), copy.deepcopy(iv)):
            assert type(clone) is BruhatInterval
            assert clone == iv and hash(clone) == hash(iv)
            assert repr(clone) == repr(iv)
        assert repr(build_interval(Permutation((1, 2)))) == (
            "BruhatInterval(top=Permutation(oneline=(1, 2)), "
            "elements=(Permutation(oneline=(1, 2)),), covers=())"
        )
        with pytest.raises(AttributeError):
            iv.top = Permutation.identity(4)
        assert iv.top == Permutation((2, 1, 4, 3))
        # a value, not a tuple: it neither equals nor unpacks as one
        assert iv != (iv.top, iv.elements, iv.covers)
        with pytest.raises(TypeError):
            top, elements, covers = iv


class TestBooleanLattice:
    def test_examples(self):
        assert is_boolean_lattice(build_interval(Permutation((2, 1, 4, 3))))
        assert is_boolean_lattice(build_interval(Permutation.identity(4)))
        assert not is_boolean_lattice(build_interval(Permutation((3, 2, 1))))

    def test_short_boolean_intervals(self):
        assert is_boolean_lattice(build_interval(Permutation((3, 1, 2))))
        assert not is_boolean_lattice(build_interval(Permutation((3, 4, 1, 2))))

    @pytest.mark.parametrize(
        "elements, covers",
        [
            # one atom, and a cover to 231, which lies outside [e, 312]
            (("123", "213", "231", "312"), (("123", "213"), ("213", "312"), ("213", "231"))),
            # two atoms, but 312 covers only one of them
            (("123", "132", "213", "312"), (("123", "213"), ("123", "132"), ("213", "312"))),
        ],
        ids=["one-atom", "top-above-one-atom"],
    )
    def test_cover_count_rejects_synthetic_interval(self, elements, covers):
        # the right number of elements (4 = 2**2) but 3 covers where rank 2
        # needs 4, so the cover count refuses before any atom set is read
        parse = Permutation.from_text
        fake = BruhatInterval(
            parse("312"),
            tuple(map(parse, elements)),
            tuple((parse(lo), parse(up)) for lo, up in covers),
        )
        assert not is_boolean_lattice(fake)

    def test_repeated_atom_set_rejects_synthetic_interval(self):
        # the Boolean lattice's counts at every rank, but two coatoms
        # above the same two atoms
        e, a1, a2, a3, c1, c2, c3, top = map(
            Permutation.from_text,
            ["1234", "1243", "1324", "2134", "1342", "1423", "2314", "3214"],
        )
        covers = [(e, a1), (e, a2), (e, a3), (a1, c1), (a2, c1), (a1, c2)]
        covers += [(a2, c2), (a2, c3), (a3, c3), (c1, top), (c2, top), (c3, top)]
        elements = tuple(sorted({u for pair in covers for u in pair}))
        fake = BruhatInterval(top, elements, tuple(sorted(covers)))
        assert not is_boolean_lattice(fake)

    def test_cover_adding_two_atoms_rejects_synthetic_interval(self):
        # the Boolean lattice's element and cover counts with pairwise
        # distinct atom sets, but 1243 < 3214 adds two atoms at once
        texts = "1234 1243 1324 1342 2134 2314 3124 3214".split()
        e, a1, a2, c1, a3, c2, c3, top = map(Permutation.from_text, texts)
        covers = [(e, a1), (e, a2), (e, a3), (a1, c2), (a1, c3), (a1, top)]
        covers += [(a2, c1), (a2, c3), (a2, top), (a3, c1), (a3, c2), (c2, top)]
        elements = tuple(map(Permutation.from_text, texts))
        fake = BruhatInterval(top, elements, tuple(sorted(covers)))
        assert not is_boolean_lattice(fake)

    def test_non_cover_pair_is_not_boolean(self):
        # covers must be the interval's cover relations: a pair two
        # length steps apart among them is refused
        iv = build_interval(Permutation((2, 1, 4, 3)))
        e, top = Permutation.identity(4), iv.top
        fake = BruhatInterval(top, iv.elements, tuple(sorted(iv.covers + ((e, top),))))
        assert not is_boolean_lattice(fake)

    def test_cover_closure_matches_bruhat_inside_intervals(self):
        # the recognizer reads the recorded covers as the interval order;
        # check their closure against the dominance test on sample intervals
        for text in ["2143", "3412", "4231", "21435", "35142"]:
            iv = build_interval(Permutation.from_text(text))
            reach = {u: {u} for u in iv.elements}
            for lo, up in sorted(iv.covers, key=lambda c: -c[0].length()):
                reach[lo] |= reach[up]
            for v in iv.elements:
                for w in iv.elements:
                    assert (w in reach[v]) == bruhat_leq(v, w)
