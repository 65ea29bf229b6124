import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from spherical.classify import _judge, is_spherical
from spherical.permutations import (
    GeneratorSet,
    Permutation,
    _parabolic_of,
    longest_parabolic,
    symmetric_group,
)
from spherical.classify import parabolic_quotient
from spherical import reduced_words
from spherical.reduced_words import (
    SHAPE_BOX,
    WORD_ESTIMATE_LIMIT,
    _box_tableaux,
    _code_shape,
    _reduced_word_count,
    _shape_bound,
    enumerate_reduced_words,
    is_boolean_by_words,
    repetition_free_word,
    spherical_witness_word,
    word_to_permutation,
    word_to_text,
)

from oracles import (
    avoids_by_subsets,
    budgeted_words,
    first_fitting_word_by_quotient,
    first_repetition_free_word_by_walk,
    first_word_in_w_form_allowance,
    generator_sequence_products,
    is_boolean_by_support,
    lehmer_shape,
    reduced_word_counts,
    standard_tableaux,
    w_form_allowance,
)


# The six elements of S_7 one step below the longest; each has between
# 141,892,608 and 214,988,800 reduced words.
NEAR_LONGEST_S7 = [w for w in symmetric_group(7) if w.length() == 20]
P2143 = Permutation((2, 1, 4, 3))


def longest(n):
    return Permutation(tuple(range(n, 0, -1)))


def first_shape(w):
    # the tableaux of lambda(w) alone, cut to the box: the bound's first term
    return _box_tableaux(_code_shape(w.oneline))


def fits(slot_of, caps):
    # whether a word spends at most each pool's uses
    def fits_word(word):
        used = [0] * len(caps)
        for letter in word:
            used[slot_of[letter]] += 1
        return all(u <= c for u, c in zip(used, caps))

    return fits_word


def fits_pools(w):
    # the definition's pool rule for words of the quotient q, read straight
    # off the parabolic table's entry of J(w)
    entry = _parabolic_of(w.oneline)
    return fits(entry.slot_of, entry.caps)


def expected_witness(w):
    # the first reduced word of w0(J) and then the first of q that fits
    # the pools, both filtered from full enumerations
    rest = first(enumerate_reduced_words(parabolic_quotient(w)), fits_pools(w))
    if rest is None:
        return None
    v = longest_parabolic(w.left_descents())
    return enumerate_reduced_words(v, limit=1)[0] + rest


def first(words, keep):
    return next((word for word in words if keep(word)), None)


def seeded_words(seed, degrees, count, extra):
    # A product of distinct generators in random order is Boolean; each of
    # ``extra`` further random generators may break that, often while the
    # length stays under n, the walk's pruning bound.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(degrees)
        letters = rng.sample(range(1, n), rng.randint(0, n - 1))
        letters += [rng.randrange(1, n) for _ in range(extra)]
        yield word_to_permutation(letters, n)


def commuting_pairs_then_321(n):
    # s_1, s_3, ..., s_{n-5} applied to the identity, then the last three
    # values reversed: l(w) = k + 3 <= n - 1 for k swapped pairs, and a
    # backtracking walk meets 2^k dead orders of those commuting letters.
    w = list(range(1, n + 1))
    for i in range(1, n - 4, 2):
        w[i - 1], w[i] = w[i], w[i - 1]
    w[-3:] = w[-3:][::-1]
    return Permutation(tuple(w))


def crossing_numbers(w):
    # c_i = #{j <= i : w_j > i}, for i = 0..n-1 (c_0 = 0 pads the index)
    return [sum(v > i for v in w.oneline[:i]) for i in range(w.degree)]


@functools.cache
def fewest_uses(word):
    # For each letter i of the one-line ``word``, the fewest times any of
    # its reduced words uses i: the least, over left descents d, of the
    # fewest for s_d * w (the values d and d+1 swapped), plus one at d.
    best = None
    for d in range(1, len(word)):
        a, b = word.index(d), word.index(d + 1)
        if b < a:
            below = list(word)
            below[a], below[b] = d + 1, d
            sub = list(fewest_uses(tuple(below)))
            sub[d] += 1
            best = sub if best is None else list(map(min, best, sub))
    return tuple(best or [0] * len(word))


def repetition_free(word) -> bool:
    return len(set(word)) == len(word)


def assert_repetition_free_word_of(word, w):
    assert word_to_permutation(word, w.degree) == w
    assert len(word) == w.length()
    assert repetition_free(word)


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
        # ints only: True listed one word, 2.5 surfaced islice's message
        # and "2" raised TypeError
        for limit in (True, 2.5, "2", 2.0):
            with pytest.raises(ValueError, match=f"^limit must be an int, not {type(limit).__name__}$"):
                enumerate_reduced_words(w0, limit)

    def test_refuses_huge_enumerations_without_limit(self):
        w0 = Permutation.from_text("7654321")
        with pytest.raises(ValueError):
            enumerate_reduced_words(w0)
        assert len(enumerate_reduced_words(w0, limit=3)) == 3

    def test_refuses_past_a_million_words(self):
        w = Permutation.from_text("7654123")  # 3,734,016 reduced words
        with pytest.raises(ValueError, match="limit"):
            enumerate_reduced_words(w)
        assert enumerate_reduced_words(w, limit=2) == [
            (3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 1),
            (3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 6, 1, 5, 4, 3, 2, 1),
        ]

    def test_admits_the_longest_element_of_s6(self, monkeypatch):
        # 292,864 reduced words, under the cap; listing them all takes
        # seconds, so the walk is stubbed and only the guard runs
        monkeypatch.setattr(
            reduced_words, "_reduced_words", lambda word, shifted, slot_of, caps: iter([()])
        )
        assert enumerate_reduced_words(Permutation.from_text("654321")) == [()]

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

    def test_first_words_match_the_reference_through_degree_seven(self):
        # the descent-mask walk against the plain tuple-copying one under a
        # single pool of l(w) uses: the first 300 words of every element
        # through S_6, and the first 20 of S_7's
        for n in range(1, 8):
            k = 300 if n < 7 else 20
            for w in symmetric_group(n):
                expected = budgeted_words(w, dict.fromkeys(range(n), 0), (w.length(),))
                assert enumerate_reduced_words(w, k) == list(itertools.islice(expected, k)), str(w)

    def test_letters_share_one_int_per_value(self):
        # w0's 499,500 letters come from one table of letter ints; a fresh
        # int per letter above 256 took 20.6 MB traced against 12.2 MB
        word = enumerate_reduced_words(longest(1000), limit=1)[0]
        assert len(word) == 1000 * 999 // 2
        assert len({id(letter) for letter in word}) <= 999

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

    def test_every_word_uses_each_letter_its_crossing_number(self):
        # the walker's pruning bound is sound: the c_i values above i in
        # the first i places cross place i one per letter i.  Every word is
        # read through S_5; S_6's 1,095,266 words are covered by the fewest
        # uses of each letter over all of them.
        for n in range(1, 7):
            for w in symmetric_group(n):
                floor = crossing_numbers(w)
                assert all(map(int.__ge__, fewest_uses(w.oneline), floor)), str(w)
                if n <= 5:
                    for word in enumerate_reduced_words(w):
                        uses = [word.count(i) for i in range(n)]
                        assert all(map(int.__ge__, uses, floor)), (str(w), word)


class TestCountSweep:
    # _reduced_word_count sweeps the weak order one length at a time and
    # stops once a level's partial sum reaches the cap.

    @pytest.mark.parametrize("cap", [1, 2, 100, 10**9])
    def test_saturated_counts_match_the_oracle_on_s6(self, cap):
        counts = reduced_word_counts(6)
        for w in symmetric_group(6):
            assert _reduced_word_count(w.oneline, cap) == min(counts[w.oneline], cap), str(w)

    def test_a_long_chain_keeps_one_element(self):
        # the cycle 2,...,1100,1 has one reduced word, 1,099 letters long;
        # a memo of every visited element held 19.9 MB
        cycle = (*range(2, 1101), 1)
        tracemalloc.start()
        try:
            assert _reduced_word_count(cycle, WORD_ESTIMATE_LIMIT + 1) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestShapeBound:
    # The guard's lower bound on the number of reduced words: the tableaux
    # of w's code shape cut to a SHAPE_BOX square, and of w^-1's when w
    # contains 2143.

    def test_at_most_the_count_and_equal_on_2143_avoiders(self):
        # a cap this high always adds the second shape where there is one
        for n in range(1, 8):
            counts = reduced_word_counts(n)
            for w in symmetric_group(n):
                bound, count = _shape_bound(w.oneline, 10**12), counts[w.oneline]
                assert bound <= count, str(w)
                if avoids_by_subsets(w, [P2143]):
                    assert bound == first_shape(w) == count, str(w)
                else:
                    assert bound == first_shape(w) + first_shape(w.inverse()), str(w)
                if n <= 6:
                    assert _reduced_word_count(w.oneline, 10**12) == count

    def test_no_cut_below_degree_seventeen(self):
        # code entries are at most n - 1 and at most n - 1 of them are
        # nonzero, so up to degree 17 the shape fits the box whole
        for n in range(1, 8):
            for w in symmetric_group(n):
                assert first_shape(w) == standard_tableaux(lehmer_shape(w)), str(w)
        for n in (16, 17):
            assert first_shape(longest(n)) == standard_tableaux(range(n - 1, 0, -1))

    def test_box_cut_gives_at_most_the_whole_shape(self):
        rng = random.Random(19)
        uniform = [Permutation(tuple(rng.sample(range(1, n + 1), n))) for n in (20, 40, 60)]
        cycle = Permutation((*range(2, 41), 1))
        for w in [longest(18), longest(25), longest(50), cycle, *uniform]:
            shape = lehmer_shape(w)
            cut = [min(part, SHAPE_BOX) for part in shape[:SHAPE_BOX]]
            assert cut != shape
            assert first_shape(w) == standard_tableaux(cut)
            assert standard_tableaux(cut) <= standard_tableaux(shape)

    def test_large_shapes_refused_without_a_walk(self, monkeypatch):
        def no_walk(word, cap):
            raise AssertionError("walked")

        monkeypatch.setattr(reduced_words, "_reduced_word_count", no_walk)
        # 15847632's first shape gives 648,648 tableaux, and the second
        # 630,630 more
        refused = [longest(7), longest(400), longest(1000), Permutation.from_text("7654123"),
                   Permutation.from_text("15847632")]
        for w in refused + NEAR_LONGEST_S7:
            with pytest.raises(ValueError, match=f"more than {WORD_ESTIMATE_LIMIT}"):
                enumerate_reduced_words(w)

    def test_second_shape_only_refuses_over_the_cap_on_s8(self):
        # of S_8's 12,829 elements past the cap, the first shape alone
        # refuses 11,137 without a sweep and both shapes 12,357; no element
        # under the cap is refused
        counts = reduced_word_counts(8)
        over = first = both = 0
        for w in symmetric_group(8):
            bound, count = _shape_bound(w.oneline, WORD_ESTIMATE_LIMIT), counts[w.oneline]
            assert bound <= WORD_ESTIMATE_LIMIT or count > WORD_ESTIMATE_LIMIT, str(w)
            if count > WORD_ESTIMATE_LIMIT:
                over += 1
                first += first_shape(w) > WORD_ESTIMATE_LIMIT
                both += bound > WORD_ESTIMATE_LIMIT
        assert (over, first, both) == (12_829, 11_137, 12_357)

    def test_small_shape_falls_through_to_the_walk(self):
        # a 2143-containing element whose two shapes sit under the cap
        # while its words do not: the walk refuses it
        w = Permutation.from_text("63821754")
        assert _shape_bound(w.oneline, WORD_ESTIMATE_LIMIT) == 816_816
        assert _reduced_word_count(w.oneline, WORD_ESTIMATE_LIMIT + 1) > WORD_ESTIMATE_LIMIT
        with pytest.raises(ValueError, match="limit"):
            enumerate_reduced_words(w)


class TestWordHelpers:
    def test_word_to_text(self):
        assert word_to_text((1, 2, 1)) == "[1,2,1]"
        assert word_to_text(()) == "[]"
        word = (*range(300, 0, -1), 12, 1)
        assert word_to_text(word) == "[" + ",".join(map(str, word)) + "]"

    def test_word_to_permutation_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            word_to_permutation((3,), 3)
        # ints only: True passed as letter 1, and 1.0 raised TypeError
        for letters in [(True,), (1.0,), (1, 2.0), ("1",)]:
            with pytest.raises(ValueError, match="is not an int"):
                word_to_permutation(letters, 3)
        for degree in [3.0, True, "3", 0]:
            with pytest.raises(ValueError, match="degree must be"):
                word_to_permutation((1,), degree)


class TestBooleanByWords:
    def test_examples(self):
        assert not is_boolean_by_words(Permutation((3, 2, 1)))
        assert not is_boolean_by_words(Permutation((3, 4, 1, 2)))
        assert is_boolean_by_words(Permutation((2, 1, 4, 3)))

    def test_witness_word_is_reduced_and_repetition_free(self):
        w = Permutation((2, 1, 4, 3))
        word = repetition_free_word(w)
        assert word is not None
        assert repetition_free(word)
        assert len(word) == w.length()
        assert word_to_permutation(word, 4) == w

    def test_witness_is_the_first_repetition_free_word(self):
        for n in range(1, 6):
            for w in symmetric_group(n):
                words = enumerate_reduced_words(w)
                assert repetition_free_word(w) == first(
                    words, repetition_free
                )

    def test_witness_matches_the_walk_through_degree_eight(self):
        for n in range(1, 9):
            for w in symmetric_group(n):
                word = repetition_free_word(w)
                assert word == first_repetition_free_word_by_walk(w), str(w)
                if word is not None:
                    assert_repetition_free_word_of(word, w)

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_witness_matches_the_walk_on_seeded_words(self, extra):
        verdicts = set()
        for w in seeded_words(910 + extra, range(9, 23), 40, extra):
            word = repetition_free_word(w)
            assert word == first_repetition_free_word_by_walk(w), str(w)
            verdicts.add(word is not None)
            if word is not None:
                assert_repetition_free_word_of(word, w)
        assert verdicts == ({True} if extra == 0 else {True, False})

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_verdict_matches_the_support_past_the_walk(self, extra):
        verdicts = set()
        for w in seeded_words(920 + extra, range(23, 61), 300, extra):
            word = repetition_free_word(w)
            assert (word is not None) == is_boolean_by_support(w), str(w)
            verdicts.add(word is not None)
            if word is not None:
                assert_repetition_free_word_of(word, w)
        assert verdicts == ({True} if extra == 0 else {True, False})

    @pytest.mark.parametrize("n", [40, 1100])
    def test_exponentially_many_dead_orders_cost_nothing(self, n):
        w = commuting_pairs_then_321(n)
        assert w.length() <= n - 1
        assert not is_boolean_by_words(w)
        assert not is_boolean_by_support(w)

    def test_boolean_means_every_word_repetition_free(self):
        # the some-word and every-word readings coincide; check the
        # stronger one exhaustively on small degrees
        for n in range(1, 7):
            for w in symmetric_group(n):
                if is_boolean_by_words(w):
                    assert all(
                        repetition_free(word)
                        for word in enumerate_reduced_words(w)
                    )


def pools(slot_of):
    # Generators grouped by the budget pool they draw on, keyed by pool;
    # slot_of[0] stands for no generator.
    out = {}
    for g in range(1, len(slot_of)):
        out.setdefault(slot_of[g], []).append(g)
    return out


class TestBudgets:
    def test_component_caps_match_longest_elements(self):
        # w0(J) has left descent set exactly J; its pools are the maximal
        # runs of J and the generators outside J, one use per member
        for n in range(2, 8):
            for size in range(n):
                for members in itertools.combinations(range(1, n), size):
                    gens = GeneratorSet(n, frozenset(members))
                    entry = _parabolic_of(longest_parabolic(gens).oneline)
                    slot_of, caps = entry.slot_of, entry.caps
                    by_pool = pools(slot_of)
                    runs = [
                        [g for _, g in run]
                        for _, run in itertools.groupby(
                            enumerate(members), lambda t: t[1] - t[0]
                        )
                    ]
                    outside = [[g] for g in range(1, n) if g not in gens]
                    assert sorted(by_pool.values()) == sorted(runs + outside)
                    for s, pool in by_pool.items():
                        assert caps[s] == len(pool)
                    assert sum(caps) == n - 1

    def test_slots_cover_every_generator(self):
        entry = _parabolic_of(
            longest_parabolic(GeneratorSet(6, frozenset({1, 2, 4}))).oneline
        )
        slot_of, caps = entry.slot_of, entry.caps
        assert set(range(1, len(slot_of))) == {1, 2, 3, 4, 5}
        assert slot_of[1] == slot_of[2] != slot_of[4]
        assert caps[slot_of[1]] == 2 and caps[slot_of[4]] == 1
        assert caps[slot_of[3]] == 1 and caps[slot_of[5]] == 1


class TestDefinitionSearch:
    def test_examples(self):
        assert is_spherical(Permutation.identity(4), "definition")
        assert not is_spherical(Permutation((2, 4, 5, 3, 1)), "definition")
        assert is_spherical(Permutation((3, 2, 1)), "definition")

    def test_witness_respects_budgets(self):
        # a reduced word of w within the allowance once searched on all of
        # w, whose part after w0(J) fits the quotient's pools
        for n in range(1, 7):
            for w in symmetric_group(n):
                word = spherical_witness_word(w)
                if word is None:
                    continue
                assert word_to_permutation(word, n) == w
                assert len(word) == w.length()
                assert fits(*w_form_allowance(w))(word)
                head = longest_parabolic(w.left_descents()).length()
                assert fits_pools(w)(word[head:])

    def test_witness_is_the_first_fitting_word(self):
        for n in range(1, 6):
            for w in symmetric_group(n):
                assert spherical_witness_word(w) == expected_witness(w)

    def test_verdict_matches_the_w_form_through_degree_seven(self):
        for n in range(1, 8):
            for w in symmetric_group(n):
                expected = first_word_in_w_form_allowance(w) is not None
                assert is_spherical(w, "definition") == expected, str(w)

    def test_first_fitting_quotient_word_matches_the_reference(self):
        # The pruned, in-place walk, set up straight off w, against the
        # plain tuple-copying one on the formed quotient, set up as the
        # library did before, with the verdict: every word of S_1..S_8 and
        # the longest element of degree 1000.
        words = [w for n in range(1, 9) for w in itertools.permutations(range(1, n + 1))]
        for word in [*words, longest(1000).oneline]:
            expected = first_fitting_word_by_quotient(word)
            _, [(verdict, found)] = _judge(word, ("definition",))
            assert (verdict, found) == (expected is not None, expected), word

    def test_walker_matches_the_reference_under_arbitrary_pools(self):
        # Pools drawn at random, not from the parabolic table: they reach
        # the restore of a paid step that lands on a dead state, which no
        # table pool through S_8 reaches.  The first case takes that
        # branch, and neither walk finds a word.
        cases = [((5, 2, 3, 4, 1), (0, 1, 2, 3, 2), (0, 2, 3, 1, 2))]
        rng = random.Random(35)
        for n in range(3, 7):
            group = list(symmetric_group(n))
            for _ in range(200):
                pools = rng.randint(1, n - 1)
                slot_of = (0, *(rng.randrange(pools) for _ in range(n - 1)))
                caps = tuple(rng.randint(0, 8) for _ in range(pools))
                cases.append((rng.choice(group).oneline, slot_of, caps))
        for word, slot_of, caps in cases:
            expected = list(budgeted_words(Permutation(word), slot_of, caps))
            identity = tuple(range(len(word) + 1))
            got = list(reduced_words._reduced_words(word, identity, slot_of, caps))
            assert got == expected, (word, slot_of, caps)
        word, slot_of, caps = cases[0]
        assert not list(reduced_words._reduced_words(word, (0, 1, 2, 3, 4, 5), slot_of, caps))

    def test_parabolic_word_matches_the_walk(self):
        # the closed form of w0(J)'s first reduced word against the walker
        for n in range(1, 8):
            for w in symmetric_group(n):
                v = longest_parabolic(w.left_descents())
                expected = enumerate_reduced_words(v, limit=1)[0]
                entry = _parabolic_of(w.oneline)
                assert reduced_words._after_parabolic_word(w.oneline, (), entry) == expected, str(w)

    def test_longer_than_the_pools_answers_at_once(self):
        # a quotient of length 59 against pools holding 17 uses: no word
        # can fit
        w = Permutation.from_text("11,9,7,15,6,12,3,2,4,5,8,18,16,17,10,14,13,1")
        assert parabolic_quotient(w).length() > sum(_parabolic_of(w.oneline).caps)
        assert spherical_witness_word(w) is None
        assert not is_spherical(w, "definition")

    @given(st.permutations(list(range(1, 7))))
    def test_budget_search_agrees_with_unbudgeted_word_scan(self, values):
        # independently check the search by filtering full enumerations
        w = Permutation(tuple(values))
        expected = expected_witness(w)
        assert spherical_witness_word(w) == expected
        assert is_spherical(w, "definition") == (expected is not None)
