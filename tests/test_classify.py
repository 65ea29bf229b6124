import copy
import itertools
import math
import pickle
import random
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, strategies as st

import oracles
from spherical import classify, cli, divisibility, permutations, reduced_words, tree
from spherical.bruhat import BruhatInterval
from spherical.classify import (
    BACKENDS,
    CrossCheckReport,
    Disagreement,
    PatternCatalog,
    _characterizations_hold,
    _raw_catalog,
    catalog,
    cross_check,
    explain,
    is_spherical,
    parabolic_quotient,
    verify_catalog_characterizations,
)
from spherical.permutations import (
    GeneratorSet,
    Permutation,
    _length,
    _parabolic,
    _parabolic_of,
    _quotient,
    avoids_all,
    longest_parabolic,
    relative_order,
    symmetric_group,
)
from spherical.tree import DensityRow, density_table

from oracles import avoids_by_subsets, leftmost_occurrence, own_site_counts


@pytest.fixture
def recording_pool(monkeypatch):
    # an in-process stand-in for ProcessPoolExecutor; returns the worker
    # count of every pool built
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return built


@pytest.fixture(params=["worker-died", "no-semaphores"])
def broken_pool(request, monkeypatch):
    # a stand-in for ProcessPoolExecutor that fails the two ways a real one
    # can: a worker dies during the map, or the host lacks the named
    # semaphores a pool needs, which the constructor reports as
    # NotImplementedError; either way a scan falls back to serial
    class BrokenPool:
        def __init__(self, max_workers):
            if request.param == "no-semaphores":
                raise NotImplementedError("this host lacks named semaphores")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            raise BrokenProcessPool("a worker died")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)


@st.composite
def block_sums(draw, degrees):
    # Direct sum of random blocks of degree at most 5.  Every catalog
    # pattern is sum-indecomposable, so the sum is spherical exactly when
    # its blocks are, which most small blocks are: both verdicts occur.
    n = draw(degrees)
    out: list[int] = []
    while len(out) < n:
        shift = len(out)
        k = draw(st.integers(1, min(5, n - shift)))
        out.extend(v + shift for v in draw(st.permutations(range(1, k + 1))))
    return Permutation(tuple(out))


def uniform(degrees):
    return degrees.flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(
            lambda values: Permutation(tuple(values))
        )
    )


def oracle_pattern_text(w):
    hit = leftmost_occurrence(w)
    if hit is None:
        return "avoids all 21 blocking patterns"
    positions, p = hit
    return f"contains {p} at positions {','.join(map(str, positions))}"


def flip_on_second_letter_three(monkeypatch):
    # a stub backend that flips the pattern verdict on every word whose
    # second letter is 3; returns its offenders in S_5, 24 of them spread
    # over every block
    pattern, _ = classify._DECIDERS["pattern"]

    def stub(word, entry):
        # a witness, (), exactly when the flipped verdict is not spherical
        return None if (pattern(word, entry) is None) ^ (word[1] == 3) else ()

    monkeypatch.setitem(classify._DECIDERS, "stub", (stub, False))
    return [p for p in symmetric_group(5) if p.oneline[1] == 3]


def assert_backends_agree(w, backends):
    verdicts = {b: is_spherical(w, b) for b in backends}
    assert len(set(verdicts.values())) == 1, (str(w), verdicts)


class TestCatalog:
    def test_membership_examples(self):
        cat = catalog()
        assert Permutation.from_text("53142") in cat.sub321
        assert Permutation.from_text("34512") in cat.sub3412
        assert Permutation.from_text("12345") not in cat.all
        assert Permutation.from_text("54321") not in cat.all

    def test_sizes_and_overlap(self):
        cat = catalog()
        assert len(cat.all) == 21
        assert len(cat.sub321) == 11
        assert len(cat.sub3412) == 12
        assert set(cat.sub321) | set(cat.sub3412) == set(cat.all)
        assert {str(p) for p in cat.in_both} == {"45231", "53412"}

    def test_characterizations_pass(self):
        assert verify_catalog_characterizations()

    def test_catalog_is_a_value_not_a_tuple(self):
        cat = catalog()
        fields = (cat.all, cat.sub321, cat.sub3412)
        assert cat == _raw_catalog() and hash(cat) == hash(_raw_catalog())
        assert cat != fields
        with pytest.raises(TypeError):
            len(cat)
        with pytest.raises(AttributeError):
            cat.all = ()
        assert repr(cat).startswith("PatternCatalog(all=(Permutation(oneline=(2, 4, 5, 3, 1)),")

    def test_tampered_catalog_fails_the_checker(self):
        good = _raw_catalog()
        swapped = list(good.all)
        swapped[0] = Permutation.from_text("24513")  # not a member
        bad = type(good)(tuple(swapped), good.sub321, good.sub3412)
        assert not _characterizations_hold(bad)
        bad_split = type(good)(good.all, good.sub3412, good.sub321)
        assert not _characterizations_hold(bad_split)

    def test_pattern_backend_runs_behind_the_self_check(self, monkeypatch):
        # the positional search is only as sound as the characterizations
        monkeypatch.setattr(classify, "_characterizations_hold", lambda cat: False)
        catalog.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="self-check"):
                is_spherical(Permutation.identity(5))
        finally:
            catalog.cache_clear()

    def test_position_characterization_on_53142(self):
        from spherical.classify import _position_test_321, _position_test_3412

        p = Permutation.from_text("53142")
        assert _position_test_321(p)
        assert not _position_test_3412(p)


class TestBackends:
    def test_identity_spherical_everywhere(self):
        e = Permutation.identity(5)
        assert all(is_spherical(e, b) for b in BACKENDS)

    def test_catalog_member_not_spherical(self):
        w = Permutation.from_text("24531")
        assert not any(is_spherical(w, b) for b in BACKENDS)

    def test_longest_element_spherical(self):
        w = Permutation.from_text("54321")
        assert all(is_spherical(w, b) for b in BACKENDS)

    def test_degree_six_sample_agrees(self):
        w = Permutation.from_text("351426")
        verdicts = {is_spherical(w, b) for b in BACKENDS}
        assert len(verdicts) == 1

    def test_pattern_backend_matches_generic_avoidance(self):
        # the subset oracle is acceptance criterion 10, to degree 8
        pats = catalog().all
        for n in range(1, 8):
            for w in symmetric_group(n):
                assert is_spherical(w, "pattern") == avoids_all(w, pats)

    def test_reverse_complement_keeps_every_verdict(self):
        # w -> w0 w w0, the diagram automorphism, maps the 21 patterns onto
        # themselves; inverse, another symmetry of the square, does not
        def reverse_complement(p):
            n = p.degree
            return Permutation(tuple(n + 1 - v for v in reversed(p.oneline)))

        pats = set(catalog().all)
        assert {reverse_complement(p) for p in pats} == pats
        assert sum(p.inverse() in pats for p in pats) == 10
        for n in range(1, 8):
            for w in symmetric_group(n):
                flipped = reverse_complement(w)
                for b in BACKENDS:
                    assert is_spherical(w, b) == is_spherical(flipped, b), (str(w), b)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            is_spherical(Permutation.identity(3), "astral")
        with pytest.raises(ValueError):
            explain(Permutation.identity(3), "astral")

    def test_quotient_gains_321_from_sub321_containment(self):
        # containing a pattern from the 321 half forces a 321 in the
        # parabolic quotient; the 3412 half forces a 3412 or a 321
        cat = catalog()
        base321 = [Permutation.from_text("321")]
        base3412 = [Permutation.from_text("3412")]
        for n in (5, 6):
            for w in symmetric_group(n):
                q = parabolic_quotient(w)
                if not avoids_all(w, cat.sub321):
                    assert not avoids_all(q, base321)
                if not avoids_all(w, cat.sub3412):
                    assert not avoids_all(q, base3412 + base321)


class TestRandomPastDegreeEight:
    FAST = ("pattern", "boolean_quotient", "divisibility")

    @given(uniform(st.integers(9, 12)))
    def test_uniform(self, w):
        assert_backends_agree(w, self.FAST)
        assert is_spherical(w) == avoids_by_subsets(w, catalog().all)

    @given(block_sums(st.integers(9, 12)))
    def test_block_sums(self, w):
        assert_backends_agree(w, self.FAST)
        assert is_spherical(w) == avoids_by_subsets(w, catalog().all)

    @given(st.one_of(uniform(st.just(9)), block_sums(st.just(9))))
    def test_definition_at_degree_nine(self, w):
        assert_backends_agree(w, BACKENDS)

    def test_definition_matches_divisibility_to_degree_thirty(self):
        # In turn: a uniform word (one block of degree n), a direct sum of
        # blocks of degree at most 5, and such a sum with two letters
        # swapped, the kind whose searches ran longest before the
        # crossing-number bound.
        rng = random.Random(1810)
        verdicts = set()
        for trial in range(180):
            n = rng.randint(10, 30)
            word = []
            while len(word) < n:
                shift = len(word)
                k = rng.randint(1, min(5, n - shift)) if trial % 3 else n
                word.extend(v + shift for v in rng.sample(range(1, k + 1), k))
            if trial % 3 == 2:
                i, j = rng.sample(range(n), 2)
                word[i], word[j] = word[j], word[i]
            word = tuple(word)
            _, [(verdict, _), (divisible, _)] = classify._judge(word, ("definition", "divisibility"))
            assert verdict == divisible, word
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_spherical_sums_to_degree_sixty(self):
        # Direct sums of blocks that avoid the catalog, half of them with
        # two letters swapped: the pattern decider against the trie scanner
        # behind avoids_all, at degrees the subset oracle cannot reach, and
        # its certificate expanded into five positions of a catalog pattern;
        # the definition search agrees.
        cat = catalog()
        members = {p.oneline for p in cat.all}
        rng = random.Random(2104)
        verdicts = set()
        for trial in range(40):
            n = rng.randint(13, 60)
            word: list[int] = []
            while len(word) < n:
                shift = len(word)
                k = rng.randint(1, min(5, n - shift))
                block = tuple(rng.sample(range(1, k + 1), k))
                if block not in members:
                    word.extend(v + shift for v in block)
            if trial % 2:
                i, j = rng.sample(range(n), 2)
                word[i], word[j] = word[j], word[i]
            w = Permutation(tuple(word))
            _, [(verdict, certificate), (definition, _)] = classify._judge(
                w.oneline, ("pattern", "definition")
            )
            assert verdict == avoids_all(w, cat.all), str(w)
            assert definition == verdict, str(w)
            if certificate is not None:
                positions = classify._certificate_positions(w.oneline, certificate)
                assert list(positions) == sorted(set(positions))
                assert relative_order([w(i) for i in positions]) in members
            verdicts.add(verdict)
        assert verdicts == {True, False}


# w0, the cycle 2, ..., n, 1, its inverse, the direct sum of 250 copies
# of 4321 and that of two falling runs, at degree 1000
LONG_WORDS = {
    "longest": tuple(range(1000, 0, -1)),
    "cycle": (*range(2, 1001), 1),
    "inverse-cycle": (1000, *range(1, 1000)),
    "falling-blocks": tuple(v for i in range(0, 1000, 4) for v in range(i + 4, i, -1)),
    "falling-runs": (*range(500, 0, -1), *range(1000, 500, -1)),
}


def certificate_corpus():
    # Seeded words that reach every branch of the pattern search, in turn:
    # a direct sum of blocks of degree at most 7 topped by a falling run,
    # such a sum with w0 or a cycle of degree 5-40 among its blocks, such a
    # sum topped by a rising run (so every value after m exceeds w_x for
    # each x below the run), and a uniform word.  The blocks avoid the
    # catalog, but for one in twenty that the 3412 half certifies.  Each
    # second word has two letters swapped.  The degrees sit at 9-200 and at
    # the edges of CPython's 30-bit int digits.  Then come words made of a
    # shuffled head of the least or the greatest values and a falling tail,
    # the inputs on which the 3412 half once skipped an x because the word
    # fell after m, and last LONG_WORDS.
    rng = random.Random(2104)
    members = [[] for _ in range(8)]
    near = [[] for _ in range(8)]  # the words certified by the 3412 half
    for k in range(8):
        for w in itertools.permutations(range(1, k + 1)):
            found = oracles.catalog_certificate_by_tables(w)
            if found is None:
                members[k].append(w)
            elif len(found) == 2:
                near[k].append(w)
    degrees = [29, 30, 31, 59, 60, 61, 89, 90, 91]
    for trial in range(480):
        n = degrees[trial % 9] if trial % 2 else rng.randint(9, 200)
        kind = trial % 8 // 2
        if kind == 3:
            word = rng.sample(range(1, n + 1), n)
        else:
            run = rng.randint(2, n // 3)  # the length of the top run
            word = []
            while len(word) < n - run:
                room = n - run - len(word)
                k = rng.randint(1, min(7, room))
                block = rng.choice(near[k] if k > 4 and rng.random() < 0.05 else members[k])
                if kind == 1 and rng.random() < 0.3:
                    k = rng.randint(min(5, room), min(40, room))
                    block = rng.choice([range(k, 0, -1), (*range(2, k + 1), 1), (k, *range(1, k))])
                shift = len(word)
                word.extend(v + shift for v in block)
            top = range(n - run + 1, n + 1)
            word.extend(reversed(top) if kind < 2 else top)
        if trial % 2:
            i, j = rng.sample(range(n), 2)
            word[i], word[j] = word[j], word[i]
        yield tuple(word)
    for trial in range(60):
        n = rng.randint(9, 200)
        k = rng.randint(2, 12)
        head = rng.sample(range(1, k + 1) if trial % 2 else range(n - k + 1, n + 1), k)
        yield (*head, *sorted(set(range(1, n + 1)).difference(head), reverse=True))
    yield from LONG_WORDS.values()


class TestCertificate:
    """The pattern search against the table-based search it replaced."""

    def test_equals_the_table_search_exhaustive(self):
        for n in range(1, 9):
            for word in itertools.permutations(range(1, n + 1)):
                assert classify._catalog_certificate(word) == (
                    oracles.catalog_certificate_by_tables(word)
                ), word

    def test_equals_the_table_search_to_degree_two_hundred(self):
        # In turn: a uniform word, a direct sum of blocks of degree at most
        # 5 that avoid the catalog (which reaches the 3412 half and walks
        # all of it), such a sum with two letters swapped, and a sum of any
        # blocks.
        members = {p.oneline for p in catalog().all}
        rng = random.Random(3412)
        kinds = set()
        for trial in range(480):
            n = rng.randint(9, 200)
            if trial % 4 == 0:
                word = rng.sample(range(1, n + 1), n)
            else:
                word = []
                while len(word) < n:
                    shift = len(word)
                    k = rng.randint(1, min(5, n - shift))
                    block = tuple(rng.sample(range(1, k + 1), k))
                    if trial % 4 == 3 or block not in members:
                        word.extend(v + shift for v in block)
                if trial % 4 == 2:
                    i, j = rng.sample(range(n), 2)
                    word[i], word[j] = word[j], word[i]
            word = tuple(word)
            found = classify._catalog_certificate(word)
            assert found == oracles.catalog_certificate_by_tables(word), word
            kinds.add(None if found is None else len(found))
        assert kinds == {None, 1, 2}

    @pytest.mark.parametrize(
        "word",
        [tuple(range(300, 0, -1)), (*range(2, 301), 1)],
        ids=["longest", "cycle"],
    )
    def test_equals_the_table_search_at_degree_three_hundred(self, word):
        assert classify._catalog_certificate(word) == oracles.catalog_certificate_by_tables(word)

    def test_equals_the_table_search_on_every_branch(self):
        kinds = set()
        for word in certificate_corpus():
            found = classify._catalog_certificate(word)
            assert found == oracles.catalog_certificate_by_tables(word), word
            kinds.add(None if found is None else len(found))
        assert kinds == {None, 1, 2}

    @pytest.mark.parametrize("word", LONG_WORDS.values(), ids=LONG_WORDS)
    def test_runs_linear_lines_on_long_words(self, word):
        # Each x of w0, the cycles and the falling runs is skipped before
        # its walk over y (the 2s of a falling run are a value interval
        # read falling), and each x of the falling blocks stops its walk at
        # its block's last 2, so the search runs O(n) lines; a walk over
        # every y after each x would be O(n^2).
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if frame.f_code is classify._catalog_certificate.__code__:
                lines += event == "line"
                return count
            return None

        previous = sys.gettrace()
        sys.settrace(count)
        try:
            classify._catalog_certificate(word)
        finally:
            sys.settrace(previous)
        assert lines < 40 * len(word)


class TestTuplePath:
    def test_longest_below_equals_public_longest_parabolic(self):
        rng = random.Random(1404)
        words = [p.oneline for n in range(1, 9) for p in symmetric_group(n)]
        for _ in range(300):
            n = rng.randint(9, 200)
            words.append(tuple(rng.sample(range(1, n + 1), n)))
        for word in words:
            w = Permutation(word)
            assert _parabolic_of(word).shifted[1:] == (
                longest_parabolic(w.left_descents()).oneline
            ), word

    def test_quotient_equals_public_product(self):
        for n in range(1, 8):
            for w in symmetric_group(n):
                assert parabolic_quotient(w) == longest_parabolic(w.left_descents()) * w

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explain_agrees_with_verdict(self, backend):
        says_spherical = {
            "pattern": lambda text: text.startswith("avoids"),
            "boolean_quotient": lambda text: " has repetition-free " in text,
            "divisibility": lambda text: text.endswith("witness none"),
            "definition": lambda text: text.startswith("reduced word "),
        }[backend]
        for n in range(1, 7):
            for w in symmetric_group(n):
                assert says_spherical(explain(w, backend)) == is_spherical(w, backend)


def table_words():
    # S_1..S_8, 2,000 seeded words of degree 9-60, and w0 of degree 1000
    words = [p for n in range(1, 9) for p in itertools.permutations(range(1, n + 1))]
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(9, 60)
        words.append(tuple(rng.sample(range(1, n + 1), n)))
    words.append(tuple(range(1000, 0, -1)))
    return words


def lookups():
    # the parabolic table's lookups so far, hits plus misses
    info = _parabolic.cache_info()
    return info.hits + info.misses


def rebuilt_entry(word):
    # the table's entry of J(w), from the builders it replaced
    v = oracles.longest_below(word)
    slot_of, caps = oracles.budget(word)
    return (0, *v), (0, *slot_of.values()), tuple(caps)


class TestParabolicTable:
    def test_equals_the_builders_it_replaced(self):
        for word in table_words():
            shifted, slot_of, caps = rebuilt_entry(word)
            v = shifted[1:]
            entry = _parabolic_of(word)
            assert entry.shifted == shifted, word
            assert _quotient(word, entry) == oracles.quotient(word), word
            assert (entry.slot_of, entry.caps) == (slot_of, caps), word
            gens = GeneratorSet(len(word), frozenset(i for i in range(1, len(word)) if v[i - 1] > v[i]))
            assert longest_parabolic(gens) == oracles.longest_parabolic(gens), word

    def test_entries_equal_a_fresh_rebuild_after_every_backend(self):
        s6 = list(symmetric_group(6))
        for w in s6:
            for backend in BACKENDS:
                is_spherical(w, backend)
                explain(w, backend)
        misses = _parabolic.cache_info().misses
        for w in s6:
            entry = _parabolic_of(w.oneline)
            assert tuple(entry) == rebuilt_entry(w.oneline), str(w)
            assert all(type(part) is tuple for part in entry), str(w)
        assert _parabolic.cache_info().misses == misses  # read the cached entries

    def test_pattern_backend_reads_nothing_from_the_table(self, capsys):
        catalog()
        before = _parabolic.cache_info()
        for w in symmetric_group(6):
            is_spherical(w, "pattern")
            explain(w, "pattern")
            for explained in ((), ("--explain",)):
                cli.main(["classify", str(w), "--backend=pattern", *explained])
        capsys.readouterr()
        assert _parabolic.cache_info()[:2] == before[:2]

    def test_entries_share_one_letter_table_per_degree(self):
        # 64 distinct degree-3000 descent sets: about 5.5 MB, against 7.1 MB
        # with w0(J) held twice in each entry, 9.9 MB with a fresh int per
        # block end in each key and about 17 MB with one per letter in each
        # entry's tuples
        rng = random.Random(3000)
        words = [tuple(rng.sample(range(1, 3001), 3000)) for _ in range(64)]
        _parabolic.cache_clear()
        tracemalloc.start()
        try:
            for word in words:
                _parabolic_of(word)
            traced = tracemalloc.get_traced_memory()[0]
            held = _parabolic.cache_info().currsize
        finally:
            tracemalloc.stop()
            _parabolic.cache_clear()
        assert held == 64
        assert traced < 6.5e6

    @pytest.mark.parametrize(
        "n, backends, lookups",
        [(6, BACKENDS, 32), (7, ("pattern", "boolean_quotient", "divisibility"), 64)],
    )
    def test_a_scan_looks_up_each_descent_mask_once(self, n, backends, lookups):
        # S_n through degree 7 is one block, whose words fall into 2^(n-1)
        # tail masks: one lookup each, shared by every word of the mask and
        # every decider of the scan
        catalog()
        before = _parabolic.cache_info()
        assert cross_check(n, backends).disagreement_count == 0
        after = _parabolic.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == lookups

    def test_a_scan_hands_each_word_its_own_entry(self, monkeypatch):
        # a recording decider sees every word of S_1..S_8, and of the first
        # and last blocks of S_9 and S_10, with the entry of its own J(w)
        seen = []

        def record(word, entry):
            seen.append((word, entry))

        # no witness found, and none means spherical
        monkeypatch.setitem(classify._DECIDERS, "record", (record, False))
        monkeypatch.setitem(classify._DECIDERS, "agree", (lambda word, entry: None, False))
        for n in range(1, 9):
            seen.clear()
            assert cross_check(n, ("record", "agree")).total == math.factorial(n)
            assert len(seen) == math.factorial(n)
            assert all(entry == _parabolic_of(word) for word, entry in seen), n
        scan = classify._scan
        monkeypatch.setattr(
            classify, "_scan", lambda work, chunks, jobs: scan(work, [chunks[0], chunks[-1]], jobs)
        )
        for n, heads in ((9, [(1, 2), (9, 8)]), (10, [(1, 2, 3), (10, 9, 8)])):
            seen.clear()
            assert cross_check(n, ("record", "agree"), force=True).total == 2 * 5040
            assert [word[: n - 7] for word, _ in seen[::5040]] == heads
            assert all(entry == _parabolic_of(word) for word, entry in seen), n

    @pytest.mark.parametrize(
        "backends, formed",
        [(BACKENDS, 0), (("pattern", "boolean_quotient", "divisibility"), 0)],
        ids=["all", "without-definition"],
    )
    def test_a_scan_forms_only_the_definition_quotients(self, monkeypatch, backends, formed):
        # boolean_quotient reads q's positions off w, and the definition
        # walker q's inverse: no search forms q
        catalog()  # its self-check forms the quotients of the 21 patterns
        calls = []
        form = permutations._quotient

        def counting(word, entry):
            calls.append(word)
            return form(word, entry)

        # set in every module of the deciders, also one that does not
        # import it now, so a search that takes it up again is counted
        for module in (permutations, classify, reduced_words, divisibility):
            monkeypatch.setattr(module, "_quotient", counting, raising=False)
        assert cross_check(6, backends).disagreement_count == 0
        assert len(calls) == formed

    def test_explain_looks_up_each_word_once(self):
        # the definition verdict and its w0(J) letters share one entry
        before = lookups()
        for w in symmetric_group(5):
            explain(w, "definition")
        assert lookups() - before == 120

    def test_reported_witnesses_look_up_each_word_once(self, monkeypatch):
        # 16 for the scan, one per tail mask of S_5, and one for each of
        # the 20 reported words' witnesses, shared by the three backends
        flip_on_second_letter_three(monkeypatch)
        catalog()
        before = lookups()
        report = cross_check(5, ("boolean_quotient", "definition", "stub"))
        assert len(report.disagreements) == 20
        assert lookups() - before == 16 + 20

    def test_stays_within_its_bound(self):
        rng = random.Random(40)
        words = set()
        while len(words) < 2000:
            words.add(tuple(rng.sample(range(1, 41), 40)))
        misses = _parabolic.cache_info().misses
        for word in words:
            for backend in ("boolean_quotient", "divisibility", "definition"):
                is_spherical(Permutation(word), backend)
        info = _parabolic.cache_info()
        assert info.misses - misses > info.maxsize  # the bound was reached
        assert info.currsize <= info.maxsize


def scanned_lengths(monkeypatch, n, head):
    # The block of ``head`` in S_n, and the l(q) that a scan of it hands
    # the length rule, word by word; one stub backend, which reads nothing.
    lengths = []
    fits = reduced_words._fits

    def record(length, uses):
        assert uses == n - 1
        lengths.append(length)
        return fits(length, uses)

    monkeypatch.setattr(classify, "_fits", record)
    monkeypatch.setitem(classify._DECIDERS, "none", (lambda word, entry: None, False))
    classify._scan_block((n, head, ("none",)))
    rest = sorted(set(range(1, n + 1)) - set(head))
    return [head + tail for tail in itertools.permutations(rest)], lengths


def quotient_length(word):
    return _length(_quotient(word, _parabolic_of(word)))


class TestLengthTable:
    # The scan's l(q) = l(head + sorted(rest)) + inv(tail) - l(w0(J)),
    # pinned to ``_length`` part by part, and word by word through S_8.

    def test_tail_inversions_equal_the_length_of_each_tail(self):
        for k in range(1, 8):
            inversions = classify._tail_masks(k)[2]
            assert inversions == [_length(t) for t in itertools.permutations(range(k))], k

    def test_w0_length_of_every_descent_set_to_degree_nine(self):
        # the scan reads l(w0(J)) as the inversions of ``shifted``, whose
        # leading 0 adds none
        for n in range(1, 10):
            for ends in itertools.product((False, True), repeat=n - 1):
                entry = _parabolic((*itertools.compress(range(1, n), ends), n))
                assert _length(entry.shifted) == _length(entry.shifted[1:]), (n, ends)

    def test_every_block_of_s9_from_its_parts(self, monkeypatch):
        # each of S_9's 72 blocks: every word's l(q) is the block's base,
        # ``_length(head + sorted(rest))``, plus its tail's inversions less
        # l(w0(J)), read once per tail mask, whose words share J(w)
        masks, firsts, inversions = classify._tail_masks(7)
        heads = list(itertools.permutations(range(1, 10), 2))
        assert len(heads) == 72
        for head in heads:
            block, lengths = scanned_lengths(monkeypatch, 9, head)
            base = _length(head + tuple(sorted(set(range(1, 10)) - set(head))))
            w0_lengths = [_length(_parabolic_of(block[i]).shifted[1:]) for i in firsts]
            expected = [base + inv - w0_lengths[mask] for mask, inv in zip(masks, inversions)]
            assert lengths == expected, head

    def test_every_word_of_s1_to_s8(self, monkeypatch):
        for n in range(1, 9):
            for head in itertools.permutations(range(1, n + 1), max(n - 7, 0)):
                block, lengths = scanned_lengths(monkeypatch, n, head)
                assert lengths == list(map(quotient_length, block)), (n, head)

    def test_a_corrupted_table_shows_as_disagreements(self, monkeypatch):
        # every tail's inversions raised by n: the quotient backends refuse
        # every word, while pattern and divisibility, which never read the
        # lengths, still find S_6's 400 spherical words
        tail_masks = classify._tail_masks

        def raised(k):
            masks, firsts, inversions = tail_masks(k)
            return masks, firsts, [inv + 6 for inv in inversions]

        monkeypatch.setattr(classify, "_tail_masks", raised)
        report = cross_check(6, BACKENDS)
        assert (report.spherical, report.disagreement_count) == (400, 400)
        spherical = [w for w in symmetric_group(6) if is_spherical(w, "divisibility")]
        assert [d.perm for d in report.disagreements] == spherical[:20]
        assert all(d.verdicts == (True, False, True, False) for d in report.disagreements)

    def test_the_scan_skips_both_searches_on_long_quotients(self, counted_searches):
        # 205 words of S_6 have l(q) > 5, so 515 reach each quotient search
        long = sum(quotient_length(w) > 5 for w in itertools.permutations(range(1, 7)))
        assert long == 205
        assert cross_check(6, BACKENDS).disagreement_count == 0
        searched = {"pattern": 720, "boolean_quotient": 515, "divisibility": 720, "definition": 515}
        assert counted_searches["decider"] == searched
        assert counted_searches["search"] == searched
        assert counted_searches["walker"] == {"definition": 515}


class TestExplain:
    def test_pattern_witness(self):
        text = explain(Permutation.from_text("24531"), "pattern")
        assert text == "contains 24531 at positions 1,2,3,4,5"
        assert "avoids" in explain(Permutation.identity(5), "pattern")

    def test_pattern_witness_is_leftmost_occurrence(self):
        # the rule in explain's docstring, applied to every 5-subset
        for n in range(1, 8):
            for w in symmetric_group(n):
                assert explain(w, "pattern") == oracle_pattern_text(w)

    def test_pattern_witness_on_sampled_degree_eight(self):
        rng = random.Random(1408)
        for _ in range(2000):
            w = Permutation(tuple(rng.sample(range(1, 9), 8)))
            assert explain(w, "pattern") == oracle_pattern_text(w)

    @given(st.one_of(uniform(st.integers(9, 12)), block_sums(st.integers(9, 12))))
    def test_pattern_witness_past_degree_eight(self, w):
        assert explain(w, "pattern") == oracle_pattern_text(w)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_search_per_call(self, counted_searches, backend):
        explain(Permutation.from_text("263415"), backend)
        assert counted_searches["decider"] == {backend: 1}
        assert counted_searches["search"] == {backend: 1}
        walks = {"definition": 1} if backend == "definition" else {}
        assert counted_searches["walker"] == walks

    def test_quotient_witness(self):
        text = explain(Permutation.from_text("54321"), "boolean_quotient")
        assert "repetition-free" in text and "12345" in text

    def test_divisibility_witness(self):
        text = explain(Permutation.from_text("24531"), "divisibility")
        assert text.endswith("divisibility witness at@4")
        assert explain(Permutation.identity(4), "divisibility").endswith(
            "witness none"
        )

    def test_definition_witness(self):
        text = explain(Permutation.from_text("321"), "definition")
        assert text.startswith("reduced word [")
        assert "no reduced word" in explain(
            Permutation.from_text("24531"), "definition"
        )


class TestCrossCheck:
    def test_degree_four_all_spherical(self):
        report = cross_check(4)
        assert (report.total, report.spherical) == (24, 24)
        assert report.disagreement_count == 0
        assert report.disagreements == ()

    def test_degree_five_count(self):
        report = cross_check(5)
        assert (report.total, report.spherical) == (120, 99)
        assert report.summary_line() == (
            "120 permutations, 99 spherical, 0 disagreements"
        )

    def test_degree_one(self):
        report = cross_check(1)
        assert report.summary_line() == "1 permutation, 1 spherical, 0 disagreements"

    def test_bound_needs_force(self):
        with pytest.raises(ValueError, match="force"):
            cross_check(9)
        with pytest.raises(ValueError, match="force"):
            cross_check(9, BACKENDS)

    def test_all_four_backends_at_degree_seven_unforced(self):
        report = cross_check(7, BACKENDS)
        assert report.summary_line() == (
            "5040 permutations, 1590 spherical, 0 disagreements"
        )

    def test_needs_two_distinct_backends(self):
        with pytest.raises(ValueError):
            cross_check(3, ("pattern",))
        with pytest.raises(ValueError):
            cross_check(3, ("pattern", "pattern"))

    def test_backend_listed_twice_rejected(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(classify, "_scan", no_scan)
        with pytest.raises(ValueError, match="'pattern' is listed twice"):
            cross_check(5, ("pattern", "boolean_quotient", "pattern"))
        with pytest.raises(ValueError, match="listed twice"):
            cross_check(5, BACKENDS + ("definition",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            cross_check(3, ("pattern", "astral"))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            cross_check(0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            cross_check(4, jobs=jobs)

    @pytest.mark.parametrize("n", [5.0, True, "5", None])
    def test_non_int_degree_rejected(self, n):
        # 5.0 and "5" raised TypeError, and True answered for S_1
        with pytest.raises(ValueError, match="degree must be an int"):
            cross_check(n, ("pattern", "divisibility"))

    @pytest.mark.parametrize("jobs", [2.5, 2.0, True, "2"])
    def test_non_int_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be an int"):
            cross_check(4, jobs=jobs)

    def test_parallel_matches_serial(self, monkeypatch):
        # blocks of 4! words cut S_5 into five, scanned on a real pool
        monkeypatch.setattr(classify, "_BLOCK", 4)
        serial = cross_check(5)
        parallel = cross_check(5, jobs=3)
        assert serial == parallel

    def test_broken_pool_falls_back_to_serial(self, monkeypatch, broken_pool):
        serial = cross_check(5)
        monkeypatch.setattr(classify, "_BLOCK", 4)
        with pytest.warns(UserWarning, match="scanning serially"):
            fallback = cross_check(5, jobs=3)
        assert fallback == serial

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [(3, 8, 3), (30, 2, 2), (30, None, 1)]
    )
    def test_workers_capped_at_cpu_count(
        self, monkeypatch, recording_pool, jobs, cpus, workers
    ):
        # In blocks of 4! words S_5 scans as 5 blocks by first value whatever
        # jobs is; the pool gets at most one worker per block and per CPU,
        # and a single worker scans in-process with no pool at all
        monkeypatch.setattr(classify, "_BLOCK", 4)
        serial = cross_check(5)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: cpus)
        assert cross_check(5, jobs=jobs) == serial
        assert recording_pool == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scan_columns_equal_the_judged_verdicts(self, monkeypatch, backend):
        # A stub answers _judge's verdict on each word as a witness found
        # or not, under either polarity.  Scanned first, its spherical
        # count pins how the scan reads both polarities; the backend's own
        # column must equal it word for word, and its count the generating
        # tree's, which no decider computes.
        catalog()
        counts = [row.spherical for row in density_table(7)]
        for n in range(1, 8):
            words = itertools.permutations(range(1, n + 1))
            judged = {word: classify._judge(word, (backend,))[1][0][0] for word in words}
            assert sum(judged.values()) == counts[n - 1]
            for spherical_if_found in (False, True):

                def stub(word, entry):
                    return () if judged[word] == spherical_if_found else None

                monkeypatch.setitem(classify._DECIDERS, "judged", (stub, spherical_if_found))
                total, spherical, bad, _, _ = classify._scan_block((n, (), ("judged", backend)))
                assert (total, spherical, bad) == (math.factorial(n), counts[n - 1], []), n

    def test_disagreements_through_a_scan(self, monkeypatch, recording_pool):
        offenders = flip_on_second_letter_three(monkeypatch)
        monkeypatch.setattr(classify, "_BLOCK", 4)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        serial = cross_check(5, ("pattern", "stub"))
        parallel = cross_check(5, ("pattern", "stub"), jobs=3)
        assert recording_pool == [3]
        for report in (serial, parallel):
            assert report.disagreement_count == len(offenders) == 24
            assert [d.perm for d in report.disagreements] == offenders[:20]
        assert parallel == serial

    def test_finer_blocks_leave_reports_unchanged(self, monkeypatch, recording_pool):
        # blocks of 3! words cut S_6 into 120 blocks by its first three
        # letters, one in-process block below the bound
        whole = cross_check(6)
        flip_on_second_letter_three(monkeypatch)
        offenders = [p for p in symmetric_group(6) if p.oneline[1] == 3]
        stubbed = cross_check(6, ("pattern", "stub"))
        monkeypatch.setattr(classify, "_BLOCK", 3)
        assert cross_check(6) == whole
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        for jobs in (1, 3):
            report = cross_check(6, ("pattern", "stub"), jobs=jobs)
            assert report == stubbed
            assert report.disagreement_count == len(offenders) == 120
            assert [d.perm for d in report.disagreements] == offenders[:20]
        assert recording_pool == [3]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_blocks_share_all_but_seven_letters(self, monkeypatch, n):
        # one block through degree 7, then one per head of n - 7 letters,
        # in lexicographic order; the recorder scans nothing
        heads = []

        def record(work, chunks, jobs):
            heads.extend(head for _, head, _ in chunks)
            return [(0, 0, [], [0.0, 0.0, 0.0], 0.0) for _ in chunks]

        monkeypatch.setattr(classify, "_scan", record)
        assert cross_check(n, force=True).total == 0
        if n <= 7:
            assert heads == [()]
        else:
            assert len(heads) == math.factorial(n) // 5040
            assert heads == sorted(itertools.permutations(range(1, n + 1), n - 7))

    def test_scan_expands_only_reported_witnesses(self, monkeypatch):
        # a scan reads verdicts only; positions are built for the words a
        # report shows, here 53124 and 53142 among the stub's first 20
        expanded = []
        expand = classify._certificate_positions

        def counting(word, certificate):
            expanded.append(word)
            return expand(word, certificate)

        monkeypatch.setattr(classify, "_certificate_positions", counting)
        assert cross_check(6).summary_line() == (
            "720 permutations, 400 spherical, 0 disagreements"
        )
        assert expanded == []
        flip_on_second_letter_three(monkeypatch)
        report = cross_check(5, ("pattern", "stub"))
        assert expanded == [(5, 3, 1, 2, 4), (5, 3, 1, 4, 2)]
        witnesses = {str(d.perm): d.witnesses[0] for d in report.disagreements}
        assert witnesses["53124"] == "contains 53124 at positions 1,2,3,4,5"
        assert witnesses["13245"] == "avoids all 21 blocking patterns"

    def test_catalog_self_check_counts_in_no_backend(self, monkeypatch):
        # a cold process checks the catalog before the scan, not inside
        # pattern's first timed block
        check = classify._characterizations_hold

        def slow_check(cat):
            time.sleep(0.2)
            return check(cat)

        monkeypatch.setattr(classify, "_characterizations_hold", slow_check)
        catalog.cache_clear()
        try:
            report = cross_check(3, ("pattern", "divisibility"))
        finally:
            catalog.cache_clear()
        assert report.backend_seconds["pattern"] < 0.1

    def test_backend_seconds(self):
        report = cross_check(5, BACKENDS)
        assert tuple(report.backend_seconds) == BACKENDS
        assert all(seconds >= 0 for seconds in report.backend_seconds.values())
        assert report.as_dict()["backend_seconds"] == report.backend_seconds

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_lookup_seconds_sum_over_blocks(self, monkeypatch, jobs):
        # S_5 in blocks of 4! words is five blocks of 8 tail masks: 40
        # lookups, here 2 ms each, summed over blocks and workers and
        # counted in no backend's seconds
        lookup = permutations._parabolic_of

        def slow_lookup(word):
            time.sleep(0.002)
            return lookup(word)

        monkeypatch.setattr(classify, "_BLOCK", 4)
        monkeypatch.setattr(classify, "_parabolic_of", slow_lookup)
        report = cross_check(5, ("pattern", "divisibility"), jobs=jobs)
        assert report.lookup_seconds >= 40 * 0.002
        assert max(report.backend_seconds.values()) < 0.05
        assert report.as_dict()["lookup_seconds"] == report.lookup_seconds

    def test_report_serialization(self):
        report = cross_check(4)
        data = report.as_dict()
        assert data["n"] == 4
        assert data["total"] == 24
        assert data["spherical"] == 24
        assert data["disagreements"] == []
        lines = report.table_lines()
        assert any(line.startswith("spherical") for line in lines)

    def test_disagreement_rendering(self):
        fake = CrossCheckReport(
            n=3,
            total=6,
            spherical=5,
            backends=("pattern", "divisibility"),
            disagreements=(
                Disagreement(
                    Permutation((3, 2, 1)),
                    (True, False),
                    ("witness a", "witness b"),
                ),
            ),
            disagreement_count=1,
            backend_seconds={},
            lookup_seconds=0.0,
        )
        assert "1 disagreement" in fake.summary_line()
        lines = fake.disagreement_lines()
        assert lines[0].startswith("disagree 321:")
        assert fake.as_dict()["disagreements"][0]["verdicts"] == {
            "pattern": True,
            "divisibility": False,
        }

    def test_report_value_semantics(self):
        report = cross_check(4)
        for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert type(clone) is CrossCheckReport
            assert clone == report and hash(clone) == hash(report)
            assert clone.backend_seconds == report.backend_seconds
            assert repr(clone) == repr(report)
        with pytest.raises(AttributeError):
            report.total = 0
        with pytest.raises(AttributeError):
            del report.backend_seconds
        assert report.total == 24

    def test_report_compares_without_backend_seconds(self):
        fields = dict(
            n=2, total=2, spherical=2, backends=("pattern",), disagreements=(),
            disagreement_count=0,
        )
        timed = CrossCheckReport(**fields, backend_seconds={"pattern": 0.5}, lookup_seconds=0.25)
        untimed = CrossCheckReport(**fields, backend_seconds={}, lookup_seconds=0.0)
        assert timed == untimed and hash(timed) == hash(untimed)
        assert untimed != CrossCheckReport(
            **{**fields, "spherical": 1}, backend_seconds={}, lookup_seconds=0.0
        )
        assert repr(untimed) == (
            "CrossCheckReport(n=2, total=2, spherical=2, backends=('pattern',), "
            "disagreements=(), disagreement_count=0, backend_seconds={}, lookup_seconds=0.0)"
        )
        with pytest.raises(TypeError, match="backend_seconds"):
            CrossCheckReport(**fields)
        with pytest.raises(TypeError, match="lookup_seconds"):
            CrossCheckReport(**fields, backend_seconds={})

    @pytest.mark.parametrize(
        "cls", [CrossCheckReport, BruhatInterval, PatternCatalog], ids=lambda cls: cls.__name__
    )
    def test_value_classes_take_each_field_once(self, cls):
        # The one constructor of ``_Frozen`` binds the fields in
        # ``__slots__`` order, by position or by name.
        names = cls.__slots__
        values = [f"value of {name}" for name in names]
        made = cls(*values)
        assert [getattr(made, name) for name in names] == values
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == made
        with pytest.raises(TypeError, match=r"named \['unknown'\]"):
            cls(*values, unknown=0)  # an unknown field
        with pytest.raises(TypeError, match=f"1 positional, named .*'{names[0]}'"):
            cls(values[0], **dict(zip(names, values)))  # the first field twice
        with pytest.raises(TypeError, match=f"{len(names) + 1} positional"):
            cls(*values, "one value too many")


class TestDensity:
    def test_row_value_semantics(self):
        row = density_table(5)[-1]
        assert repr(row) == "DensityRow(n=5, spherical=99, total=120, ratio=0.825)"
        for clone in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
            assert type(clone) is DensityRow
            assert clone == row and hash(clone) == hash(row)
        with pytest.raises(AttributeError):
            row.spherical = 0

    def test_rows_up_to_five(self):
        assert density_table(5) == [
            DensityRow(1, 1, 1, 1.0),
            DensityRow(2, 2, 2, 1.0),
            DensityRow(3, 6, 6, 1.0),
            DensityRow(4, 24, 24, 1.0),
            DensityRow(5, 99, 120, 0.825),
        ]

    def test_one_pool_for_all_degrees(self, monkeypatch, recording_pool):
        # the chunk roots, of degree 4 at max_n = 6 and 5 at max_n = 7, sit
        # two degrees below max_n, where the walk counts from the sites alone
        whole = {max_n: density_table(max_n) for max_n in (6, 7)}
        monkeypatch.setattr(tree, "DENSITY_BOUND", 6)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 2)
        for max_n, rows in whole.items():
            assert density_table(max_n, force=True) == rows
            assert density_table(max_n, force=True, jobs=2) == rows
        assert recording_pool == [2, 2]

    def test_broken_pool_falls_back_to_serial(self, monkeypatch, broken_pool):
        serial = density_table(7)
        monkeypatch.setattr(tree, "DENSITY_BOUND", 6)
        with pytest.warns(UserWarning, match="scanning serially"):
            fallback = density_table(7, force=True, jobs=2)
        assert fallback == serial

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_rows_identical_for_any_jobs(self, monkeypatch, recording_pool, jobs):
        monkeypatch.setattr(tree, "DENSITY_BOUND", 8)
        serial = density_table(8)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        assert density_table(8, jobs=jobs) == serial
        assert recording_pool == [jobs]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_no_pool_below_the_bounds(self, monkeypatch, recording_pool, jobs):
        # a pool costs more to start than a scan below its bound takes
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        assert cross_check(6, jobs=jobs) == cross_check(6)
        assert density_table(9, jobs=jobs) == density_table(9)
        assert recording_pool == []

    def test_allowed_sites_match_brute_force_children(self):
        # every spherical parent of degree at most 6, found by the oracle;
        # a site is allowed exactly when the child avoids the catalog
        patterns = catalog().all
        for n in range(1, 7):
            for parent in symmetric_group(n):
                if not avoids_by_subsets(parent, patterns):
                    continue
                w = parent.oneline
                children = [w[:s] + (n + 1,) + w[s:] for s in range(n + 1)]
                expected = [
                    s
                    for s, child in enumerate(children)
                    if avoids_by_subsets(Permutation(child), patterns)
                ]
                assert tree._site_pass(w)[0] == expected, parent

    def test_seed_is_the_site_rule_on_the_top_levels(self):
        # every site is allowed on every word of degree at most 3, so S_1..S_4
        # are the tree's first four levels, and the degree-5 members read off
        # the catalog are the children the site rule allows on S_4
        for n in range(1, 4):
            for w in itertools.permutations(range(1, n + 1)):
                assert tree._site_pass(w)[0] == list(range(n + 1)), w
        for n in range(1, 5):
            assert tree._seed(n) == tuple(itertools.permutations(range(1, n + 1)))
        grown = {
            w[:s] + (5,) + w[s:] for w in tree._seed(4) for s in tree._site_pass(w)[0]
        }
        assert set(tree._seed(5)) == grown
        assert len(tree._seed(5)) == 99

    def test_walk_cost_in_site_passes(self, monkeypatch):
        # one pass per member of degree min(5, n-2)..n-2; none up to degree 5
        calls = []
        site_pass = tree._site_pass
        monkeypatch.setattr(tree, "_site_pass", lambda w: calls.append(w) or site_pass(w))
        for n, passes in [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 24), (7, 99), (8, 499)]:
            calls.clear()
            density_table(n)
            assert len(calls) == passes, n

    def test_child_site_counts_match_the_children(self):
        # every spherical parent of degree at most 7 (2,122 of them): each
        # child's site count, read from the parent alone, against the sites
        # found on the child itself
        level = [(1,)]
        for n in range(1, 8):
            grown = []
            for w in level:
                sites, counts = tree._child_site_counts(w)
                children = [w[:s] + (n + 1,) + w[s:] for s in sites]
                assert counts == own_site_counts(children), w
                grown.extend(children)
            level = grown
        assert len(level) == 6277

    def test_bound_needs_force(self):
        with pytest.raises(ValueError):
            density_table(11)
        with pytest.raises(ValueError):
            density_table(0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            density_table(3, jobs=jobs)

    @pytest.mark.parametrize("max_n", [5.0, True, "5"])
    def test_non_int_degree_rejected(self, max_n):
        with pytest.raises(ValueError, match="degree must be an int"):
            density_table(max_n)

    @pytest.mark.parametrize("jobs", [2.5, True])
    def test_non_int_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be an int"):
            density_table(3, jobs=jobs)

    def test_rows_through_degree_eleven(self):
        # a regression guard past the exhaustive oracle degrees; the counts
        # at degrees 10 and 11 were confirmed by the divisibility backend
        # over every child of every member, outside the suite
        rows = density_table(11, force=True, jobs=1)
        assert [row.spherical for row in rows] == [
            1, 2, 6, 24, 99, 400, 1590, 6277, 24732, 97422, 383797,
        ]
        assert [row.n for row in rows] == list(range(1, 12))

    def test_degree_six_to_eight_pins(self):
        # computed values; each count was confirmed by two independent
        # backends (pattern and boolean quotient) agreeing pointwise
        rows = density_table(8)
        counts = {r.n: r.spherical for r in rows}
        assert counts[6] == 400
        assert counts[7] == 1590
        assert counts[8] == 6277
        for row in rows:
            assert row.total == math.factorial(row.n)
            assert row.ratio == row.spherical / row.total


def member_sum(rng, n, by_degree):
    # A direct sum of members drawn from ``by_degree``, of degree n; every
    # catalog pattern is sum-indecomposable, so the sum is spherical.
    word: list[int] = []
    while len(word) < n:
        shift = len(word)
        k = rng.randint(1, min(len(by_degree), n - shift))
        word.extend(v + shift for v in rng.choice(by_degree[k - 1]))
    return tuple(word)


class TestSitePass:
    """The sweeps' site pass against the quadratic one in the oracles."""

    def test_every_member_through_degree_nine(self):
        level = [(1,)]
        seen = 0
        for n in range(1, 10):
            grown = []
            for w in level:
                expected = oracles.site_pass(w)
                assert tree._site_pass(w) == expected, w
                grown.extend(w[:s] + (n + 1,) + w[s:] for s in expected[0])
            seen += len(level)
            level = grown
        assert seen == 33131

    @staticmethod
    def members_by_degree(max_n):
        # by_degree[k - 1]: the members of degree k, for k = 1..max_n
        by_degree = [[(1,)]]
        while len(by_degree) < max_n:
            top = (len(by_degree) + 1,)
            by_degree.append(
                [w[:s] + top + w[s:] for w in by_degree[-1] for s in oracles.site_pass(w)[0]]
            )
        return by_degree

    def test_sums_of_members_from_degree_twenty_to_four_hundred(self):
        by_degree = self.members_by_degree(7)
        rng = random.Random(2503)
        for n in [20, 400, *(rng.randint(20, 400) for _ in range(22))]:
            w = member_sum(rng, n, by_degree)
            assert is_spherical(Permutation(w)), w
            assert tree._site_pass(w) == oracles.site_pass(w), w

    def test_degree_one_thousand(self):
        n = 1000
        words = [
            tuple(range(n, 0, -1)),
            tuple(range(1, n + 1)),
            member_sum(random.Random(1000), n, self.members_by_degree(7)),
        ]
        for w in words:
            assert tree._site_pass(w) == oracles.site_pass(w)
