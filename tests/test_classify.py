import math
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
    contains_pattern,
    longest_parabolic,
    symmetric_group,
)

from oracles import avoids_by_subsets, first_catalog_occurrence


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

    monkeypatch.setattr("spherical.classify.ProcessPoolExecutor", RecordingPool)
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
    hit = first_catalog_occurrence(w)
    if hit is None:
        return "avoids all 21 blocking patterns"
    positions, p = hit
    return f"contains {p} at positions {','.join(map(str, positions))}"


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

    def test_tampered_catalog_fails_the_checker(self):
        good = _raw_catalog()
        swapped = list(good.all)
        swapped[0] = Permutation.from_text("24513")  # not a member
        bad = type(good)(tuple(swapped), good.sub321, good.sub3412)
        assert not _characterizations_hold(bad)
        bad_split = type(good)(good.all, good.sub3412, good.sub321)
        assert not _characterizations_hold(bad_split)

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
        pats = catalog().all
        for n in range(1, 8):
            for w in symmetric_group(n):
                verdict = is_spherical(w, "pattern")
                assert verdict == avoids_all(w, pats)
                assert verdict == avoids_by_subsets(w, pats)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            is_spherical(Permutation.identity(3), "astral")
        with pytest.raises(ValueError):
            explain(Permutation.identity(3), "astral")

    def test_quotient_gains_321_from_sub321_containment(self):
        # containing a pattern from the 321 half forces a 321 in the
        # parabolic quotient; the 3412 half forces a 3412 or a 321
        cat = catalog()
        base321 = Permutation.from_text("321")
        base3412 = Permutation.from_text("3412")
        for n in (5, 6):
            for w in symmetric_group(n):
                q = parabolic_quotient(w)
                if not avoids_all(w, cat.sub321):
                    assert contains_pattern(q, base321)
                if not avoids_all(w, cat.sub3412):
                    assert contains_pattern(q, base3412) or contains_pattern(
                        q, base321
                    )


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


class TestTuplePath:
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

    def test_pattern_witness_is_first_occurrence(self):
        # the first catalog occurrence in position order, over all patterns
        for n in range(1, 8):
            for w in symmetric_group(n):
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
        with pytest.raises(ValueError):
            cross_check(8)
        with pytest.raises(ValueError):
            cross_check(7, BACKENDS)

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

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            cross_check(4, jobs=jobs)

    def test_parallel_matches_serial(self):
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
        monkeypatch.setattr("spherical.classify.ProcessPoolExecutor", CrashingPool)
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
        # S_5 scans as 5 blocks by first value whatever jobs is; the pool
        # gets at most one worker per block and per CPU, and a single
        # worker scans in-process with no pool at all
        serial = cross_check(5)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: cpus)
        assert cross_check(5, jobs=jobs) == serial
        assert recording_pool == ([workers] if workers > 1 else [])

    def test_disagreements_through_a_scan(self, monkeypatch, recording_pool):
        # a stub backend that flips the pattern verdict on every word
        # whose second letter is 3: 24 offenders spread over every block
        pattern = classify._DECIDERS["pattern"]
        monkeypatch.setitem(
            classify._DECIDERS,
            "stub",
            lambda word: (pattern(word)[0] ^ (word[1] == 3), None),
        )
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 8)
        offenders = [p for p in symmetric_group(5) if p.oneline[1] == 3]
        serial = cross_check(5, ("pattern", "stub"))
        parallel = cross_check(5, ("pattern", "stub"), jobs=3)
        assert recording_pool == [3]
        for report in (serial, parallel):
            assert report.disagreement_count == len(offenders) == 24
            assert [d.perm for d in report.disagreements] == offenders[:20]
        assert parallel == serial

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


class TestDensity:
    def test_rows_up_to_five(self):
        assert density_table(5) == [
            DensityRow(1, 1, 1, 1.0),
            DensityRow(2, 2, 2, 1.0),
            DensityRow(3, 6, 6, 1.0),
            DensityRow(4, 24, 24, 1.0),
            DensityRow(5, 99, 120, 0.825),
        ]

    def test_one_pool_for_all_degrees(self, monkeypatch, recording_pool):
        serial = density_table(6)
        monkeypatch.setattr("spherical.classify.os.cpu_count", lambda: 2)
        assert density_table(6, jobs=2) == serial
        assert recording_pool == [2]

    def test_bound_needs_force(self):
        with pytest.raises(ValueError):
            density_table(9)
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
