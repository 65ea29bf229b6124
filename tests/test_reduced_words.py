import itertools

import pytest
from hypothesis import given, strategies as st

from spherical.classify import is_spherical
from spherical.permutations import (
    GeneratorSet,
    Permutation,
    avoids_all,
    longest_parabolic,
    symmetric_group,
)
from spherical.reduced_words import (
    _budget,
    _reduced_word_count,
    enumerate_reduced_words,
    is_boolean_by_words,
    repetition_free_word,
    spherical_witness_word,
    word_is_repetition_free,
    word_to_permutation,
    word_to_text,
)

from oracles import generator_sequence_products


# The six elements of S_7 one step below the longest; each has between
# 141,892,608 and 214,988,800 reduced words.
NEAR_LONGEST_S7 = [w for w in symmetric_group(7) if w.length() == 20]


def fits_budget(w):
    # the definition's budget rule for words of w, read straight off _budget
    slot_of, caps = _budget(w.oneline)

    def fits(word):
        used = [0] * len(caps)
        for letter in word:
            used[slot_of[letter]] += 1
        return all(u <= c for u, c in zip(used, caps))

    return fits


def first(words, keep):
    return next((word for word in words if keep(word)), None)


class TestEnumeration:
    def test_examples(self):
        assert enumerate_reduced_words(Permutation((3, 2, 1))) == [
            (1, 2, 1),
            (2, 1, 2),
        ]
        assert enumerate_reduced_words(Permutation.identity(3)) == [()]
        assert enumerate_reduced_words(Permutation((2, 1, 3))) == [(1,)]

    def test_limit(self):
        w0 = Permutation((4, 3, 2, 1))
        assert len(enumerate_reduced_words(w0)) == 16
        assert len(enumerate_reduced_words(w0, limit=5)) == 5
        assert enumerate_reduced_words(w0, limit=0) == []
        with pytest.raises(ValueError):
            enumerate_reduced_words(w0, limit=-1)

    def test_refuses_huge_enumerations_without_limit(self):
        w0 = Permutation.from_text("7654321")
        with pytest.raises(ValueError):
            enumerate_reduced_words(w0)
        assert len(enumerate_reduced_words(w0, limit=3)) == 3

    @pytest.mark.parametrize("w", NEAR_LONGEST_S7, ids=str)
    def test_refuses_elements_just_below_the_longest(self, w):
        with pytest.raises(ValueError, match="limit"):
            enumerate_reduced_words(w)

    def test_words_multiply_back_exhaustive(self):
        for n in range(1, 5):
            for w in symmetric_group(n):
                words = enumerate_reduced_words(w)
                assert len(set(words)) == len(words)
                assert words == sorted(words)
                for word in words:
                    assert len(word) == w.length()
                    assert word_to_permutation(word, n) == w

    def test_longest_element_of_s5(self):
        w0 = Permutation((5, 4, 3, 2, 1))
        words = enumerate_reduced_words(w0)
        assert len(words) == 768
        assert _reduced_word_count(w0.oneline, 10**9) == 768
        assert _reduced_word_count(w0.oneline, 100) == 100
        assert all(word_to_permutation(word, 5) == w0 for word in words[:50])

    @pytest.mark.parametrize("k", [1, 17, 768, 900])
    def test_limit_keeps_the_lexicographic_prefix(self, k):
        w0 = Permutation((5, 4, 3, 2, 1))
        assert enumerate_reduced_words(w0, limit=k) == enumerate_reduced_words(w0)[:k]

    def test_counts_match_sequence_oracle_up_to_degree_five(self):
        for n in range(1, 6):
            by_length: dict[int, list[Permutation]] = {}
            for w in symmetric_group(n):
                by_length.setdefault(w.length(), []).append(w)
            for length, group in by_length.items():
                counter = generator_sequence_products(n, length)
                for w in group:
                    assert len(enumerate_reduced_words(w)) == counter[w.oneline]
                    assert _reduced_word_count(w.oneline, 10**9) == counter[w.oneline]


class TestWordHelpers:
    def test_word_to_text(self):
        assert word_to_text((1, 2, 1)) == "[1,2,1]"
        assert word_to_text(()) == "[]"

    def test_word_to_permutation_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            word_to_permutation((3,), 3)

    def test_repetition_free(self):
        assert not word_is_repetition_free((1, 2, 1))
        assert word_is_repetition_free(())
        assert word_is_repetition_free((2, 1, 3))


class TestBooleanByWords:
    def test_examples(self):
        assert not is_boolean_by_words(Permutation((3, 2, 1)))
        assert not is_boolean_by_words(Permutation((3, 4, 1, 2)))
        assert is_boolean_by_words(Permutation((2, 1, 4, 3)))

    def test_witness_word_is_reduced_and_repetition_free(self):
        w = Permutation((2, 1, 4, 3))
        word = repetition_free_word(w)
        assert word is not None
        assert word_is_repetition_free(word)
        assert len(word) == w.length()
        assert word_to_permutation(word, 4) == w

    def test_witness_is_the_first_repetition_free_word(self):
        for n in range(1, 6):
            for w in symmetric_group(n):
                words = enumerate_reduced_words(w)
                assert repetition_free_word(w) == first(
                    words, word_is_repetition_free
                )

    def test_matches_pattern_criterion_degree_five(self):
        blockers = [Permutation((3, 2, 1)), Permutation((3, 4, 1, 2))]
        for w in symmetric_group(5):
            assert is_boolean_by_words(w) == avoids_all(w, blockers)

    def test_boolean_means_every_word_repetition_free(self):
        # the some-word and every-word readings coincide; check the
        # stronger one exhaustively on small degrees
        for n in range(1, 7):
            for w in symmetric_group(n):
                if is_boolean_by_words(w):
                    assert all(
                        word_is_repetition_free(word)
                        for word in enumerate_reduced_words(w)
                    )


def pools(slot_of):
    # Generators grouped by the budget pool they draw on, keyed by pool.
    out = {}
    for g in sorted(slot_of):
        out.setdefault(slot_of[g], []).append(g)
    return out


class TestBudgets:
    def test_component_caps_match_longest_elements(self):
        for n in range(2, 8):
            for size in range(n):
                for members in itertools.combinations(range(1, n), size):
                    gens = GeneratorSet(n, frozenset(members))
                    # w0(J) has left descent set exactly J
                    slot_of, caps = _budget(longest_parabolic(gens).oneline)
                    by_pool = pools(slot_of)
                    singletons = {
                        g
                        for g, s in slot_of.items()
                        if by_pool[s] == [g] and caps[s] == 1
                    }
                    assert singletons == frozenset(range(1, n)) - gens.members
                    runs = [
                        [g for _, g in run]
                        for _, run in itertools.groupby(
                            enumerate(members), lambda t: t[1] - t[0]
                        )
                    ]
                    for run in runs:
                        assert by_pool[slot_of[run[0]]] == run
                        comp = GeneratorSet(n, frozenset(run))
                        c = len(run)
                        cap = caps[slot_of[run[0]]]
                        assert cap == c * (c + 1) // 2 + c
                        assert cap == longest_parabolic(comp).length() + c

    def test_slots_cover_every_generator(self):
        slot_of, caps = _budget(
            longest_parabolic(GeneratorSet(6, frozenset({1, 2, 4}))).oneline
        )
        assert set(slot_of) == {1, 2, 3, 4, 5}
        assert slot_of[1] == slot_of[2] != slot_of[4]
        assert caps[slot_of[1]] == 5 and caps[slot_of[4]] == 2
        assert caps[slot_of[3]] == 1 and caps[slot_of[5]] == 1


class TestDefinitionSearch:
    def test_examples(self):
        assert is_spherical(Permutation.identity(4), "definition")
        assert not is_spherical(Permutation((2, 4, 5, 3, 1)), "definition")
        assert is_spherical(Permutation((3, 2, 1)), "definition")

    def test_witness_respects_budgets(self):
        for w in symmetric_group(5):
            word = spherical_witness_word(w)
            if word is None:
                continue
            assert word_to_permutation(word, 5) == w
            assert len(word) == w.length()
            assert fits_budget(w)(word)

    def test_witness_is_the_first_fitting_word(self):
        for n in range(1, 6):
            for w in symmetric_group(n):
                words = enumerate_reduced_words(w)
                assert spherical_witness_word(w) == first(words, fits_budget(w))

    @given(st.permutations(list(range(1, 7))))
    def test_budget_search_agrees_with_unbudgeted_word_scan(self, values):
        # independently check the search by filtering a full enumeration
        w = Permutation(tuple(values))
        expected = first(enumerate_reduced_words(w), fits_budget(w))
        assert spherical_witness_word(w) == expected
        assert is_spherical(w, "definition") == (expected is not None)
