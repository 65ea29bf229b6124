import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from spherical.permutations import (
    GeneratorSet,
    Permutation,
    avoids_all,
    first_pattern_occurrence,
    longest_parabolic,
    relative_order,
    symmetric_group,
)

from oracles import avoids_by_subsets, inversion_count, standardize, subset_occurrences

perms_of_degree = lambda n: st.permutations(list(range(1, n + 1))).map(
    lambda vals: Permutation(tuple(vals))
)
small_perms = st.integers(min_value=1, max_value=7).flatmap(perms_of_degree)


class TestConstruction:
    def test_identity(self):
        assert Permutation.identity(3).oneline == (1, 2, 3)
        assert Permutation.identity(1).oneline == (1,)
        assert Permutation.identity(5).oneline == (1, 2, 3, 4, 5)

    def test_identity_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            Permutation.identity(0)

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_identity_rejects_non_int_degree(self, n):
        # 3.0 raised TypeError, and True gave the identity of degree 1
        with pytest.raises(ValueError, match="degree must be an int"):
            Permutation.identity(n)

    @pytest.mark.parametrize(
        "values",
        # the last five only equal integers: 2.0 == 2 and True == 1
        [(), (0, 1), (1, 1), (1, 3), (2, 3, 4), (2.0, 1.0), (2, 1.0), (True,), (2, True),
         (1, 2, 3.0)],
    )
    def test_rejects_non_permutations(self, values):
        with pytest.raises(ValueError):
            Permutation(values)

    def test_accepts_any_iterable(self):
        assert Permutation([2, 1]).oneline == (2, 1)
        assert Permutation(v for v in (3, 1, 2)).oneline == (3, 1, 2)


class TestValueSemantics:
    # the classes are slotted by hand; pickle and copy must go round the
    # assignment guard, and everything else must read as before
    def test_pickle_and_copies_round_trip(self):
        for value in (
            Permutation((2, 5, 3, 1, 4)),
            Permutation.identity(1),
            GeneratorSet(5, frozenset({1, 2, 4})),
            GeneratorSet(3),
        ):
            for clone in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert type(clone) is type(value)
                assert clone == value and hash(clone) == hash(value)
                assert repr(clone) == repr(value)

    def test_repr(self):
        assert repr(Permutation((2, 1, 3))) == "Permutation(oneline=(2, 1, 3))"
        assert repr(GeneratorSet(4, frozenset({2}))) == (
            "GeneratorSet(degree=4, members=frozenset({2}))"
        )
        assert repr(GeneratorSet(2)) == "GeneratorSet(degree=2, members=frozenset())"

    def test_fields_refuse_assignment(self):
        w = Permutation((2, 1, 3))
        gens = GeneratorSet(3, frozenset({1}))
        for value, name, new in (
            (w, "oneline", (1, 2, 3)),
            (w, "other", 0),
            (gens, "degree", 4),
            (gens, "members", frozenset()),
        ):
            with pytest.raises(AttributeError):
                setattr(value, name, new)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert w.oneline == (2, 1, 3)
        assert (gens.degree, gens.members) == (3, frozenset({1}))

    def test_equal_values_hash_equal(self):
        assert Permutation([3, 1, 2]) == Permutation((3, 1, 2))
        assert hash(Permutation([3, 1, 2])) == hash(Permutation((3, 1, 2)))
        assert GeneratorSet(4, {1, 3}) == GeneratorSet(4, frozenset({3, 1}))
        assert hash(GeneratorSet(4, {1, 3})) == hash(GeneratorSet(4, frozenset({1, 3})))
        assert GeneratorSet(4, {1}) != GeneratorSet(5, {1})
        assert Permutation((1, 2)) != (1, 2)
        assert len({Permutation(w) for w in itertools.permutations((1, 2, 3))}) == 6

    def test_order_is_the_one_line_order(self):
        perms = [Permutation(w) for n in (3, 4) for w in itertools.permutations(range(1, n + 1))]
        random.Random(7).shuffle(perms)
        assert [w.oneline for w in sorted(perms)] == sorted(w.oneline for w in perms)
        v, w = Permutation((1, 3, 2)), Permutation((2, 1, 3))
        assert v < w and v <= w and w > v and w >= v and v <= v and v >= v
        assert not (v > w or v >= w or w < v or w <= v)
        with pytest.raises(TypeError):
            v < (2, 1, 3)


class TestTextEncoding:
    def test_digit_form_roundtrip(self):
        w = Permutation.from_text("25314")
        assert w.oneline == (2, 5, 3, 1, 4)
        assert str(w) == "25314"

    def test_comma_form(self):
        assert Permutation.from_text("2,5,3,1,4").oneline == (2, 5, 3, 1, 4)
        big = Permutation.from_text("2,5,3,1,4,10,6,7,8,9")
        assert big.degree == 10
        assert str(big) == "2,5,3,1,4,10,6,7,8,9"
        assert Permutation.from_text(" 2 , 1 ").oneline == (2, 1)

    # int() would read the last three: a sign, a digit separator and a
    # fullwidth digit
    @pytest.mark.parametrize(
        "text",
        ["", "  ", "1a2", "120", "1,2,x", "0", "2,+1", "1_0,1,2,3,4,5,6,7,8,9", "\uff12,1"],
    )
    def test_bad_text(self, text):
        with pytest.raises(ValueError):
            Permutation.from_text(text)

    @given(st.integers(min_value=1, max_value=12).flatmap(perms_of_degree))
    def test_roundtrip(self, w):
        assert Permutation.from_text(str(w)) == w


class TestGroupOperations:
    def test_compose_applies_right_factor_first(self):
        u = Permutation((2, 1, 3))
        w = Permutation((1, 3, 2))
        assert (u * w).oneline == (2, 3, 1)

    def test_compose_identity_law(self):
        w = Permutation((3, 1, 2))
        assert Permutation.identity(3) * w == w

    def test_longest_element_is_involution(self):
        w0 = Permutation((3, 2, 1))
        assert (w0 * w0) == Permutation.identity(3)

    def test_call_and_len(self):
        w = Permutation((2, 5, 3, 1, 4))
        assert len(w) == w.degree == 5
        assert [w(i) for i in range(1, 6)] == [2, 5, 3, 1, 4]
        for i in (0, 6, -1):
            with pytest.raises(ValueError, match=f"position {i} outside 1..5"):
                w(i)

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation((1, 2)) * Permutation((1, 2, 3))

    def test_inverse(self):
        assert Permutation((2, 3, 1)).inverse().oneline == (3, 1, 2)
        e = Permutation.identity(4)
        assert e.inverse() == e
        w0 = Permutation((3, 2, 1))
        assert w0.inverse() == w0

    @given(small_perms)
    def test_inverse_cancels(self, w):
        assert w * w.inverse() == Permutation.identity(w.degree)
        assert w.inverse() * w == Permutation.identity(w.degree)

    def test_length(self):
        assert Permutation.identity(5).length() == 0
        assert Permutation((3, 2, 1)).length() == 3
        assert Permutation((3, 4, 1, 2)).length() == 4

    @given(small_perms)
    def test_length_matches_inversion_oracle(self, w):
        assert w.length() == inversion_count(w.oneline)

    def test_length_invariant_under_inverse_exhaustive(self):
        for n in range(1, 7):
            for w in symmetric_group(n):
                assert w.length() == w.inverse().length()

    def test_compose_length_subadditive_with_parity(self):
        for n in range(1, 6):
            lengths = {w: w.length() for w in symmetric_group(n)}
            for u in lengths:
                for w in lengths:
                    both = lengths[u] + lengths[w]
                    prod = (u * w).length()
                    assert prod <= both
                    assert prod % 2 == both % 2


class TestDescentsAndParabolics:
    def test_left_descents(self):
        assert set(Permutation.identity(4).left_descents()) == set()
        assert set(Permutation((3, 2, 1)).left_descents()) == {1, 2}
        assert set(Permutation((2, 3, 1)).left_descents()) == {1}

    def test_generator_set_validation(self):
        with pytest.raises(ValueError):
            GeneratorSet(3, frozenset({3}))
        with pytest.raises(ValueError):
            GeneratorSet(0, frozenset())
        assert not GeneratorSet(1, frozenset())

    @pytest.mark.parametrize("degree", [4.0, True, "4"])
    def test_generator_set_rejects_non_int_degree(self, degree):
        # 4.0 and True were accepted, and longest_parabolic of the first
        # raised TypeError
        with pytest.raises(ValueError, match="degree must be an int"):
            GeneratorSet(degree, frozenset({1}))

    @pytest.mark.parametrize("members", [{1.5}, {True}, {2.0}, {"1"}])
    def test_generator_set_rejects_non_int_members(self, members):
        # 1.5 would make longest_parabolic the identity; True and 2.0 only
        # equal generators; "1" would fail the range test with a TypeError
        with pytest.raises(ValueError, match="not ints"):
            GeneratorSet(4, frozenset(members))

    def test_longest_parabolic(self):
        assert longest_parabolic(GeneratorSet(4)).oneline == (1, 2, 3, 4)
        assert longest_parabolic(
            GeneratorSet(5, frozenset({1, 2, 4}))
        ).oneline == (3, 2, 1, 5, 4)
        assert longest_parabolic(
            GeneratorSet(3, frozenset({1, 2}))
        ).oneline == (3, 2, 1)

    def test_longest_parabolic_involution_with_descents_exhaustive(self):
        for n in range(1, 7):
            for size in range(n):
                for members in itertools.combinations(range(1, n), size):
                    gens = GeneratorSet(n, frozenset(members))
                    w0 = longest_parabolic(gens)
                    assert w0 * w0 == Permutation.identity(n)
                    assert w0.left_descents() == gens


class TestPatterns:
    def test_relative_order(self):
        assert relative_order((5, 4, 2)) == (3, 2, 1)
        assert relative_order((2, 9, 4)) == (1, 3, 2)

    def test_occurrences_of_321(self):
        w = Permutation((3, 5, 1, 4, 2))
        occ = first_pattern_occurrence(w, Permutation((3, 2, 1)))
        assert occ == ((2, 4, 5), Permutation((3, 2, 1)))

    def test_identity_host_avoids_everything(self):
        e = Permutation.identity(6)
        assert first_pattern_occurrence(e, Permutation((2, 1))) is None
        assert avoids_all(e, [Permutation((2, 1)), Permutation((3, 1, 2))])

    def test_equal_degree_occurrence_is_equality(self):
        w = Permutation((2, 4, 5, 3, 1))
        assert first_pattern_occurrence(w, w).positions == (1, 2, 3, 4, 5)
        assert not avoids_all(w, [w])
        other = Permutation((2, 4, 5, 1, 3))
        assert first_pattern_occurrence(other, w) is None

    def test_pattern_longer_than_host(self):
        with pytest.raises(ValueError):
            first_pattern_occurrence(Permutation((2, 1)), Permutation((2, 1, 3)))

    def test_avoids_all_skips_long_patterns(self):
        assert avoids_all(Permutation((2, 1)), [Permutation((2, 4, 5, 3, 1))])

    def test_deep_self_occurrence(self):
        e = Permutation.identity(1100)
        assert first_pattern_occurrence(e, e).positions == tuple(range(1, 1101))

    def test_avoids_long_decreasing_pattern(self):
        # C(40, 20) position subsets; the rank trie rejects each start at
        # its second letter
        w0 = Permutation(tuple(range(20, 0, -1)))
        assert avoids_all(Permutation.identity(40), [w0])

    def test_avoids_321_and_3412(self):
        assert avoids_all(
            Permutation((2, 1, 4, 3)),
            [Permutation((3, 2, 1)), Permutation((3, 4, 1, 2))],
        )

    def test_occurrences_match_subset_oracle_exhaustive(self):
        # the subset scan of ``subset_occurrences``, run once per (w, k):
        # each pattern of degree k maps to its first occurrence in w
        patterns = {k: list(symmetric_group(k)) for k in range(1, 6)}
        for n in range(1, 7):
            for w in symmetric_group(n):
                for k in range(1, min(n, 5) + 1):
                    first: dict[tuple[int, ...], tuple[int, ...]] = {}
                    for combo in itertools.combinations(range(1, n + 1), k):
                        picked = standardize([w.oneline[i - 1] for i in combo])
                        first.setdefault(picked, combo)
                    for p in patterns[k]:
                        got = first_pattern_occurrence(w, p)
                        expected = [first[p.oneline]] if p.oneline in first else []
                        assert ([got.positions] if got else []) == expected

    @given(
        perms_of_degree(7),
        st.integers(min_value=1, max_value=5).flatmap(perms_of_degree),
    )
    def test_occurrences_match_subset_oracle_degree_seven(self, w, p):
        got = first_pattern_occurrence(w, p)
        assert ([got.positions] if got else []) == subset_occurrences(w, p)[:1]

    @given(
        st.integers(min_value=1, max_value=6).flatmap(perms_of_degree),
        st.lists(
            st.integers(min_value=1, max_value=4).flatmap(perms_of_degree),
            max_size=4,
        ),
    )
    def test_avoids_all_agrees_with_per_pattern_scan(self, w, patterns):
        expected = all(
            first_pattern_occurrence(w, p) is None
            for p in patterns
            if p.degree <= w.degree
        )
        assert avoids_all(w, patterns) == expected
        assert avoids_by_subsets(w, patterns) == expected
