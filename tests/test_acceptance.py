"""Acceptance suite.

Each test is one acceptance criterion, exhaustive at its stated degree,
and prints a single PASS line once its assertions hold (run with
``pytest -s`` to see the lines).
"""

import random

from spherical.bruhat import build_interval, bruhat_leq, is_boolean_lattice
from spherical.classify import (
    BACKENDS,
    catalog,
    cross_check,
    is_spherical,
    verify_catalog_characterizations,
)
from spherical.divisibility import is_divisible
from spherical.permutations import (
    Permutation,
    avoids_all,
    longest_parabolic,
    symmetric_group,
)
from spherical.reduced_words import is_boolean_by_words
from spherical.tree import _site_pass, density_table

from oracles import avoids_by_subsets, leq_by_cover_closure, own_site_counts


def test_criterion_1_backends_agree_exhaustively():
    for n in range(1, 9):
        report = cross_check(n, BACKENDS)
        assert report.disagreement_count == 0, report.disagreement_lines()
        assert report.total == report.spherical or n >= 5
    assert report.summary_line() == "40320 permutations, 6277 spherical, 0 disagreements"
    print("criterion 1 (all four backends to degree 8): PASS")


def test_criterion_2_boolean_interval_criteria_agree():
    blockers = [Permutation((3, 2, 1)), Permutation((3, 4, 1, 2))]
    for n in range(1, 7):
        for w in symmetric_group(n):
            by_interval = is_boolean_lattice(build_interval(w, rank_bound=15))
            by_words = is_boolean_by_words(w)
            by_patterns = avoids_all(w, blockers)
            assert by_interval == by_words == by_patterns, str(w)
    for n in (7, 8):
        for w in symmetric_group(n):
            assert is_boolean_by_words(w) == avoids_all(w, blockers), str(w)
    print(
        "criterion 2 (interval, word, and pattern Boolean tests agree to degree 6; "
        "word and pattern tests to degree 8): PASS"
    )


def test_criterion_3_divisible_pairs_match_non_boolean_quotients():
    checked = 0
    for n in range(1, 6):
        perms = list(symmetric_group(n))
        for v in perms:
            v_inv = v.inverse()
            for w in perms:
                divisible = is_divisible(v, w) is not None
                assert divisible == (not is_boolean_by_words(v_inv * w)), (v, w)
                checked += 1
    assert checked == 1 + 4 + 36 + 576 + 14_400
    rng = random.Random(31415)
    values = list(range(1, 7))
    for _ in range(10_000):
        v = Permutation(tuple(rng.sample(values, 6)))
        w = Permutation(tuple(rng.sample(values, 6)))
        divisible = is_divisible(v, w) is not None
        assert divisible == (not is_boolean_by_words(v.inverse() * w)), (v, w)
    print("criterion 3 (divisibility equals non-Boolean quotient, 14400 pairs + 10000 random): PASS")


def test_criterion_4_catalog_checksum():
    assert verify_catalog_characterizations()
    print("criterion 4 (pattern catalog checksum): PASS")


def test_criterion_5_spherical_counts_and_density():
    rows = density_table(8)
    counts = {row.n: row.spherical for row in rows}
    assert [counts[n] for n in range(1, 5)] == [1, 2, 6, 24]
    assert counts[5] == 99
    for n in (6, 7, 8):
        report = cross_check(
            n, ("pattern", "boolean_quotient"), force=True
        )
        assert report.disagreement_count == 0
        assert report.spherical == counts[n]
    ratios = [row.ratio for row in rows if row.n >= 5]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    print("criterion 5 (count pins 1,2,6,24,99; cross-backend counts and strictly falling density to degree 8): PASS")


def test_criterion_6_dominance_matches_cover_closure():
    for n in range(1, 6):
        up = leq_by_cover_closure(n)
        perms = list(symmetric_group(n))
        for v in perms:
            reachable = up[v]
            for w in perms:
                assert bruhat_leq(v, w) == (w in reachable), (v, w)
    print("criterion 6 (prefix dominance equals cover closure to degree 5): PASS")


def test_criterion_7_parabolic_run_order_matches_position_chains():
    for n in range(1, 7):
        for w in symmetric_group(n):
            v_inv = longest_parabolic(w.left_descents()).inverse()
            w_inv = w.inverse()
            for a in range(1, n):
                for b in range(a + 1, n + 1):
                    chain = [w_inv(x) for x in range(b, a - 1, -1)]
                    increasing = all(x < y for x, y in zip(chain, chain[1:]))
                    assert (v_inv(b) < v_inv(a)) == increasing, (w, a, b)
    print("criterion 7 (descent-block order matches increasing position chains to degree 6): PASS")


def test_criterion_8_parabolic_factor_lengths_add():
    for n in range(1, 7):
        for w in symmetric_group(n):
            v = longest_parabolic(w.left_descents())
            assert v.length() + (v * w).length() == w.length(), str(w)
    print("criterion 8 (parabolic factorization lengths add to degree 6): PASS")


def test_criterion_9_generating_tree_confirmed_by_divisibility():
    # Every child of every member through degree 8, on an allowed site or
    # not, is classified by the divisibility backend, which shares nothing
    # with the tree's site rule.  Degree 10 is derived a second way: the
    # sites of each confirmed degree-9 member, found on the member itself,
    # against the walk, which counts the last two degrees from the sites of
    # their grandparents.  The divisibility confirmation of degree 10
    # (97,422; about 5 s) runs only outside the suite.
    members = {1: 1}
    rejected = 0
    level = [(1,)]
    for n in range(1, 9):
        grown = []
        for w in level:
            sites = _site_pass(w)[0]
            for s in range(n + 1):
                child = w[:s] + (n + 1,) + w[s:]
                verdict = is_spherical(Permutation(child), "divisibility")
                assert verdict == (s in sites), child
                if verdict:
                    grown.append(child)
                else:
                    rejected += 1
        level = grown
        members[n + 1] = len(level)
    assert sum(members.values()) - 1 == 33_130 and rejected == 39_629
    assert members[9] == 24_732
    rows = density_table(9, force=True)
    assert [row.spherical for row in rows] == [members[n] for n in range(1, 10)]
    by_own_sites = sum(own_site_counts(level))
    assert by_own_sites == density_table(10, force=True)[-1].spherical == 97_422
    print("criterion 9 (generating tree confirmed child by child by divisibility to degree 9, n=9 count 24732; n=10 count 97422 from the degree-9 members' own sites): PASS")


def test_criterion_10_pattern_backend_matches_subset_oracle():
    # The literal catalog is the contract: the positional search beneath the
    # pattern backend against a scan of every letter subset, no pruning.
    patterns = catalog().all
    checked = 0
    for n in range(1, 9):
        for w in symmetric_group(n):
            assert is_spherical(w, "pattern") == avoids_by_subsets(w, patterns), str(w)
            checked += 1
    assert checked == 46_233
    print("criterion 10 (pattern backend equals the subset oracle over the 21 literals to degree 8): PASS")
