import copy
import math
import pickle
import random
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, strategies as st

from spherical import classify
from spherical.classify import (
    BACKENDS,
    CrossCheckReport,
    DensityRow,
    Disagreement,
    _characterizations_hold,
    _raw_catalog,
    catalog,
    cross_check,
    density_table,
    explain,
    is_spherical,
    parabolic_quotient,
    verify_catalog_characterizations,
)
from spherical.permutations import (
    Permutation,
    avoids_all,
    longest_parabolic,
    relative_order,
    symmetric_group,
)

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
    pattern = classify._DECIDERS["pattern"]
    monkeypatch.setitem(
        classify._DECIDERS,
        "stub",
        lambda word: (pattern(word)[0] ^ (word[1] == 3), None),
    )
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
        # the quadratic search is only as sound as the characterizations
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
            verdict = classify._DECIDERS["definition"](tuple(word))[0]
            assert verdict == classify._DECIDERS["divisibility"](tuple(word))[0], word
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
            verdict, certificate = classify._DECIDERS["pattern"](w.oneline)
            assert verdict == avoids_all(w, cat.all), str(w)
            assert classify._DECIDERS["definition"](w.oneline)[0] == verdict, str(w)
            if certificate is not None:
                positions = classify._certificate_positions(w.oneline, certificate)
                assert list(positions) == sorted(set(positions))
                assert relative_order([w(i) for i in positions]) in members
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestTuplePath:
    def test_longest_below_equals_public_longest_parabolic(self):
        rng = random.Random(1404)
        words = [p.oneline for n in range(1, 9) for p in symmetric_group(n)]
        for _ in range(300):
            n = rng.randint(9, 200)
            words.append(tuple(rng.sample(range(1, n + 1), n)))
        for word in words:
            w = Permutation(word)
            assert classify._longest_below(word) == (
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

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            cross_check(3, ("pattern", "astral"))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            cross_check(0)

    @pytest.mark.parametrize("n", [4, 6, 8, 9])
    def test_estimate_samples_every_first_value_evenly(self, monkeypatch, n):
        # the cost per word depends on its first values, so the timed
        # sample is spread over S_n rather than taken from its first block
        timed = []
        monkeypatch.setattr(
            classify, "_tally", lambda words, backends: timed.extend(words)
        )
        classify.estimate_seconds(n, ("pattern", "divisibility"))
        assert len(timed) == min(math.factorial(n), 720)
        assert len(set(timed)) == len(timed)
        assert timed == sorted(timed)
        assert all(sorted(w) == list(range(1, n + 1)) for w in timed)
        shares = [sum(w[0] == v for w in timed) for v in range(1, n + 1)]
        assert max(shares) - min(shares) <= 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            cross_check(4, jobs=jobs)

    def test_parallel_matches_serial(self, monkeypatch):
        # a scan at its bound runs in blocks on a real pool
        monkeypatch.setattr(classify, "DEFAULT_CROSSCHECK_BOUND", 5)
        serial = cross_check(5)
        parallel = cross_check(5, jobs=3)
        assert serial == parallel

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class CrashingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                raise BrokenProcessPool("a worker died")

        serial = cross_check(5)
        monkeypatch.setattr(classify, "DEFAULT_CROSSCHECK_BOUND", 5)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CrashingPool)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        with pytest.warns(UserWarning, match="scanning serially"):
            fallback = cross_check(5, jobs=3)
        assert fallback == serial

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [(3, 8, 3), (30, 2, 2), (30, None, 1)]
    )
    def test_workers_capped_at_cpu_count(
        self, monkeypatch, recording_pool, jobs, cpus, workers
    ):
        # At its bound S_5 scans as 5 blocks by first value whatever jobs
        # is; the pool gets at most one worker per block and per CPU, and a
        # single worker scans in-process with no pool at all
        monkeypatch.setattr(classify, "DEFAULT_CROSSCHECK_BOUND", 5)
        serial = cross_check(5)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: cpus)
        assert cross_check(5, jobs=jobs) == serial
        assert recording_pool == ([workers] if workers > 1 else [])

    def test_disagreements_through_a_scan(self, monkeypatch, recording_pool):
        offenders = flip_on_second_letter_three(monkeypatch)
        monkeypatch.setattr(classify, "DEFAULT_CROSSCHECK_BOUND", 5)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        serial = cross_check(5, ("pattern", "stub"))
        parallel = cross_check(5, ("pattern", "stub"), jobs=3)
        assert recording_pool == [3]
        for report in (serial, parallel):
            assert report.disagreement_count == len(offenders) == 24
            assert [d.perm for d in report.disagreements] == offenders[:20]
        assert parallel == serial

    def test_slices_leave_reports_unchanged(self, monkeypatch, recording_pool):
        # slices of 7 words split every block of S_5, and the one block
        # below the bound, mid-way
        whole = cross_check(5)
        offenders = flip_on_second_letter_three(monkeypatch)
        monkeypatch.setattr(classify, "_SLICE", 7)
        assert cross_check(5) == whole
        monkeypatch.setattr(classify, "DEFAULT_CROSSCHECK_BOUND", 5)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        for jobs in (1, 3):
            report = cross_check(5, ("pattern", "stub"), jobs=jobs)
            assert report.disagreement_count == 24
            assert [d.perm for d in report.disagreements] == offenders[:20]
        assert recording_pool == [3]

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

    def test_backend_seconds(self):
        report = cross_check(5, BACKENDS)
        assert tuple(report.backend_seconds) == BACKENDS
        assert all(seconds >= 0 for seconds in report.backend_seconds.values())
        assert report.as_dict()["backend_seconds"] == report.backend_seconds

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
        timed = CrossCheckReport(**fields, backend_seconds={"pattern": 0.5})
        untimed = CrossCheckReport(**fields)
        assert timed == untimed and hash(timed) == hash(untimed)
        assert untimed != CrossCheckReport(**{**fields, "spherical": 1})
        assert repr(untimed) == (
            "CrossCheckReport(n=2, total=2, spherical=2, backends=('pattern',), "
            "disagreements=(), disagreement_count=0, backend_seconds={})"
        )
        # each report gets its own empty dict
        assert untimed.backend_seconds is not CrossCheckReport(**fields).backend_seconds


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
        # the chunk roots, of degree 5, sit one and two degrees below max_n,
        # where the walk counts from the sites alone
        whole = {max_n: density_table(max_n) for max_n in (6, 7)}
        monkeypatch.setattr(classify, "DENSITY_BOUND", 6)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 2)
        for max_n, rows in whole.items():
            assert density_table(max_n, force=True) == rows
            assert density_table(max_n, force=True, jobs=2) == rows
        assert recording_pool == [2, 2]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_rows_identical_for_any_jobs(self, monkeypatch, recording_pool, jobs):
        monkeypatch.setattr(classify, "DENSITY_BOUND", 8)
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
                assert classify._allowed_sites(w) == expected, parent

    def test_child_site_counts_match_the_children(self):
        # every spherical parent of degree at most 7 (2,122 of them): each
        # child's site count, read from the parent alone, against the sites
        # found on the child itself
        level = [(1,)]
        for n in range(1, 8):
            grown = []
            for w in level:
                sites, counts = classify._child_site_counts(w)
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
