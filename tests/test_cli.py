import ast
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from oracles import build_parser
from spherical.classify import BACKENDS, catalog, is_spherical
from spherical import classify, cli
from spherical.cli import main
from spherical.permutations import Permutation, _parabolic, relative_order, symmetric_group


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestClassify:
    def test_catalog_member(self, capsys):
        status, out, _ = run_cli(capsys, "classify", "24531", "--explain")
        assert status == 1
        lines = out.strip().splitlines()
        assert lines[0] == "not spherical"
        assert lines[1] == "witness: contains 24531 at positions 1,2,3,4,5"

    @pytest.mark.parametrize("word", ["24531", "54321", "263415"])
    def test_one_search_per_backend(self, capsys, counted_searches, word):
        # the verdict and the --explain text come from the same call
        run_cli(capsys, "classify", word, "--explain")
        for layer in ("decider", "search"):
            assert counted_searches[layer] == {"pattern": 1}
            counted_searches[layer].clear()
        run_cli(capsys, "classify", word, "--backend=all", "--explain")
        for layer in ("decider", "search"):
            assert counted_searches[layer] == dict.fromkeys(BACKENDS, 1)
        # w0(J)'s letters of the definition witness are read off, not walked
        assert counted_searches["walker"] == {"definition": 1}

    @pytest.mark.parametrize("explain", [(), ("--explain",)], ids=["plain", "explain"])
    def test_all_backends_share_one_table_lookup(self, capsys, explain):
        catalog()
        before = _parabolic.cache_info()
        run_cli(capsys, "classify", "263415", "--backend=all", *explain)
        after = _parabolic.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 1

    def test_explain_shares_one_table_lookup(self, capsys):
        # the definition verdict and its w0(J) letters share one entry
        before = _parabolic.cache_info()
        run_cli(capsys, "classify", "4321", "--backend=definition", "--explain")
        after = _parabolic.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 1

    def test_identity(self, capsys):
        status, out, _ = run_cli(capsys, "classify", "12345")
        assert status == 0
        assert out.strip() == "spherical"

    def test_all_backends_note_agreement(self, capsys):
        status, out, _ = run_cli(capsys, "classify", "513426", "--backend=all")
        assert status in (0, 1)
        assert "backends agree: yes" in out

    def test_all_backends_list_each_verdict_on_disagreement(self, capsys, monkeypatch):
        # divisibility flipped: the verdict stays pattern's, and each
        # backend's verdict follows on a line of its own
        decide = classify._DECIDERS["divisibility"]
        flipped = lambda word, entry: (not decide(word, entry)[0], None)
        monkeypatch.setitem(classify._DECIDERS, "divisibility", flipped)
        status, out, _ = run_cli(capsys, "classify", "54321", "--backend=all")
        assert status == 0
        assert out.splitlines() == [
            "spherical",
            "backends agree: no",
            "  pattern: spherical",
            "  boolean_quotient: spherical",
            "  divisibility: not spherical",
            "  definition: spherical",
        ]

    def test_each_backend_flag(self, capsys):
        for flag in ("pattern", "boolean", "divisible", "definition"):
            status, out, _ = run_cli(
                capsys, "classify", "54321", f"--backend={flag}"
            )
            assert status == 0
            assert out.strip() == "spherical"

    def test_parse_failure_writes_nothing_to_stdout(self, capsys):
        status, out, err = run_cli(capsys, "classify", "1x2")
        assert status == 2
        assert out == ""
        assert err.strip()


# Inputs whose searches run a thousand letters deep or more: the cycle
# 2,3,...,1100,1 (length 1099, one reduced word), the longest elements of
# S_60 (length 1770) up to S_3000, and the longest element of S_1100 with
# its two middle letters swapped, whose catalog occurrences all belong to
# the 3412 half, so the pattern search runs through the whole 321 half
# first.
CYCLE_1100 = ",".join(str(v) for v in [*range(2, 1101), 1])
LONGEST = {n: ",".join(str(v) for v in range(n, 0, -1)) for n in (60, 300, 400, 1000, 3000)}
SWAPPED_S1100 = ",".join(str(v) for v in [*range(1100, 551, -1), 550, 551, *range(549, 0, -1)])
# A spherical direct sum of degree 38 that took a search over reduced
# words of w itself, letters of w0(J) included, about 15 s.
SUM_38 = (
    "5,1,3,4,2,9,7,6,10,8,14,11,16,12,13,15,19,18,17,20,21,24,23,25,22,"
    "27,28,26,29,32,30,31,33,34,35,37,38,36"
)
# A direct sum of degree 58 with two letters swapped, not spherical: the
# crossing-number bound refuses it at the root, where a search of the
# quotient's reduced words without the bound ran past 40 s.
NEAR_SUM_58 = (
    "4,2,3,1,7,8,5,6,10,9,12,11,13,14,18,25,17,15,19,20,21,24,22,16,23,"
    "27,28,26,29,33,31,30,32,34,35,38,36,37,43,39,42,40,41,45,46,44,49,"
    "50,48,47,52,51,56,55,53,54,57,58"
)


class TestDeepInputs:
    @pytest.mark.parametrize(
        "perm, flag, status, verdict",
        [
            (LONGEST[60], "definition", 0, "spherical"),
            (CYCLE_1100, "boolean", 0, "spherical"),
            (CYCLE_1100, "definition", 0, "spherical"),
            (SUM_38, "definition", 0, "spherical"),
            (NEAR_SUM_58, "definition", 1, "not spherical"),
        ],
        ids=[
            "longest-S60-definition",
            "cycle-1100-boolean",
            "cycle-1100-definition",
            "sum-38-definition",
            "near-sum-58-definition",
        ],
    )
    def test_classify(self, capsys, perm, flag, status, verdict):
        result = run_cli(capsys, "classify", perm, f"--backend={flag}")
        assert result == (status, f"{verdict}\n", "")

    def test_pattern_backend(self, capsys):
        status, out, err = run_cli(capsys, "classify", CYCLE_1100)
        assert (status, out, err) == (0, "spherical\n", "")
        status, out, err = run_cli(
            capsys, "classify", CYCLE_1100, "--backend=all", "--explain"
        )
        assert (status, err) == (0, "")
        assert out.splitlines()[:3] == [
            "spherical",
            "backends agree: yes",
            "pattern: avoids all 21 blocking patterns",
        ]

    def test_pattern_witness(self, capsys):
        status, out, err = run_cli(capsys, "classify", SWAPPED_S1100, "--explain")
        assert (status, err) == (1, "")
        verdict, witness = out.splitlines()
        assert verdict == "not spherical"
        pattern, spots = witness.removeprefix("witness: contains ").split(" at positions ")
        w = Permutation.from_text(SWAPPED_S1100)
        assert Permutation.from_text(pattern) in catalog().all
        assert relative_order([w(int(i)) for i in spots.split(",")]) == (
            Permutation.from_text(pattern).oneline
        )
        assert not is_spherical(w, "divisibility")

    def test_boolean_witness_past_the_length_bound(self, capsys):
        # the quotient has length 26 = n - 1 and 2^k orders of commuting
        # letters that all end in a repeat; a backtracking walk took
        # seconds here
        perm = "3,1,6,2,4,5,9,7,12,10,15,8,11,13,16,14,19,23,21,17,26,18,20,22,24,27,25"
        status, out, err = run_cli(
            capsys, "classify", perm, "--backend=boolean", "--explain"
        )
        assert (status, err) == (1, "")
        assert out == (
            "not spherical\n"
            "witness: parabolic quotient 2,1,5,3,4,6,8,7,11,10,14,9,12,13,16,"
            "15,18,22,20,17,25,19,21,23,24,27,26 has no repetition-free "
            "reduced word\n"
        )

    def test_definition_longer_than_its_pools(self, capsys):
        perm = "11,9,7,15,6,12,3,2,4,5,8,18,16,17,10,14,13,1"
        status, out, err = run_cli(capsys, "classify", perm, "--backend=definition")
        assert (status, out, err) == (1, "not spherical\n", "")

    def test_reduced_words(self, capsys):
        status, out, err = run_cli(capsys, "reduced-words", CYCLE_1100)
        assert status == 0 and err == ""
        assert out == "[" + ",".join(str(i) for i in range(1, 1100)) + "]\n"

    def test_reduced_words_refuses_the_longest_element(self, capsys):
        # refused from the shape of its code, with no walk of its ideal
        status, out, err = run_cli(capsys, "reduced-words", LONGEST[400])
        assert (status, out) == (2, "")
        assert err == (
            f"{LONGEST[400]} has more than 1000000 reduced words; "
            "pass --limit (limit=N) to enumerate anyway\n"
        )


def run_bounded(capsys, *argv, traced=False, seconds=15):
    # run_cli under a wall bound, generous by default, with the tracemalloc
    # peak in MB when ``traced``
    if traced:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run_cli(capsys, *argv)
        assert time.perf_counter() - start < seconds, argv[:2]
        peak = tracemalloc.get_traced_memory()[1] / 2**20 if traced else None
    finally:
        tracemalloc.stop()
    return result, peak


class TestLongestElements:
    # The longest element of S_n is spherical, and the definition witness is
    # the first reduced word of w0 itself, n(n-1)/2 letters, which a walk of
    # the weak order built in cubic memory.

    @pytest.mark.parametrize("n", [1000, 3000])
    @pytest.mark.parametrize("flag", ["definition", "all"])
    def test_witness_under_explain(self, capsys, n, flag):
        (status, out, err), _ = run_bounded(
            capsys, "classify", LONGEST[n], f"--backend={flag}", "--explain"
        )
        assert (status, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "spherical"
        prefix = "witness: " if flag == "definition" else "definition: "
        line = next(line for line in lines if line.startswith(prefix))
        word = line.removeprefix(f"{prefix}reduced word ").removesuffix(
            " fits the generator budgets"
        )
        assert word.startswith("[1,2,1,3,2,1,")
        assert word.count(",") + 1 == n * (n - 1) // 2

    # Without --explain no witness becomes text.  tracemalloc follows each
    # object the pattern search allocates, which stretches the quadratic
    # walk over the 3412 half's pairs at degree 3000 to about 25 s, so that
    # run is held to the wall bound and the untouched witness alone.
    @pytest.mark.parametrize(
        "n, flag, traced",
        [
            (1000, "definition", True),
            (3000, "definition", True),
            (1000, "all", True),
            (3000, "all", False),
        ],
    )
    def test_no_witness_text_without_explain(self, capsys, monkeypatch, n, flag, traced):
        def no_text(*args):
            raise AssertionError("witness described without --explain")

        monkeypatch.setattr(cli, "_describe", no_text)
        result, peak = run_bounded(
            capsys, "classify", LONGEST[n], f"--backend={flag}", traced=traced
        )
        verdict = "spherical\n" if flag == "definition" else "spherical\nbackends agree: yes\n"
        assert result == (0, verdict, "")
        assert peak is None or peak < 20

    def test_witness_shares_one_int_per_letter_value(self, capsys):
        # w0's 499,500 letters taken from one table of letter ints: about
        # 9.7 MB traced for word and text, 18.3 MB with a fresh int for
        # every place of a letter above 256
        (status, out, err), peak = run_bounded(
            capsys, "classify", LONGEST[1000], "--backend=definition", "--explain", traced=True
        )
        assert (status, err) == (0, "")
        assert out.count(",") + 1 == 1000 * 999 // 2
        assert peak < 14

    def test_first_reduced_word_holds_no_copy_per_letter(self, capsys):
        # no frame copies the inverse or holds a mask: 127 MB with a slice
        # copied per frame, about 1.3 MB with frames holding only their letter
        (status, out, err), peak = run_bounded(
            capsys, "reduced-words", LONGEST[300], "--limit=1", traced=True
        )
        assert (status, err) == (0, "")
        assert out.startswith("[1,2,1,3,2,1,") and out.count(",") + 1 == 300 * 299 // 2
        assert peak < 50

    def test_first_reduced_word_steps_without_a_scan(self, capsys):
        # a step reads four entries of the inverse: about 0.3 s at degree
        # 1000, where scanning the inverse in every frame took 9 s
        (status, out, err), _ = run_bounded(
            capsys, "reduced-words", LONGEST[1000], "--limit=1", seconds=3
        )
        assert (status, err) == (0, "")
        assert out.startswith("[1,2,1,3,2,1,4,3,2,1,5,4,3,2,1,")
        assert out.count(",") + 1 == 1000 * 999 // 2


class TestCrosscheck:
    def test_degree_five_summary(self, capsys):
        status, out, _ = run_cli(capsys, "crosscheck", "--n=5")
        assert status == 0
        assert out.strip() == "120 permutations, 99 spherical, 0 disagreements"

    def test_degree_one(self, capsys):
        status, out, _ = run_cli(capsys, "crosscheck", "--n=1")
        assert status == 0
        assert out.strip() == "1 permutation, 1 spherical, 0 disagreements"

    def test_degree_six_computed_count(self, capsys):
        status, out, _ = run_cli(capsys, "crosscheck", "--n=6")
        assert status == 0
        assert out.strip() == "720 permutations, 400 spherical, 0 disagreements"

    def test_all_four_backends_at_degree_seven(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "crosscheck",
            "--n=7",
            "--backends=pattern,boolean,divisible,definition",
            "--jobs=1",
        )
        assert status == 0
        assert out.strip() == "5040 permutations, 1590 spherical, 0 disagreements"

    def test_bound_exceeded_without_force(self, capsys):
        status, out, err = run_cli(capsys, "crosscheck", "--n=9")
        assert status == 2
        assert out == ""
        assert "force" in err

    def test_degree_zero_rejected_even_with_force(self, capsys):
        status, out, err = run_cli(capsys, "crosscheck", "--n=0", "--force")
        assert status == 2
        assert out == ""

    def test_no_backends_is_usage_error_with_force(self, capsys):
        status, out, err = run_cli(
            capsys, "crosscheck", "--n=4", "--backends=,", "--force"
        )
        assert status == 2
        assert out == ""
        assert "backend" in err

    def test_force_prints_no_estimate(self, capsys):
        status, out, err = run_cli(
            capsys, "crosscheck", "--n=4", "--force", "--jobs=1"
        )
        assert status == 0
        assert err == ""
        assert out.strip().startswith("24 permutations")

    def test_json_format(self, capsys):
        status, out, _ = run_cli(
            capsys, "crosscheck", "--n=4", "--format=json"
        )
        assert status == 0
        data = json.loads(out)
        assert data["n"] == 4
        assert data["spherical"] == 24
        assert data["disagreements"] == []
        seconds = data["backend_seconds"]
        assert list(seconds) == ["pattern", "boolean_quotient", "divisibility"]
        assert all(value >= 0 for value in seconds.values())
        assert data["lookup_seconds"] >= 0

    def test_table_format(self, capsys):
        status, out, _ = run_cli(
            capsys, "crosscheck", "--n=4", "--format=table"
        )
        assert status == 0
        assert any(line.startswith("backends") for line in out.splitlines())

    def test_backend_names_accept_both_spellings(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "crosscheck",
            "--n=4",
            "--backends=pattern,boolean_quotient,divisible",
        )
        assert status == 0

    def test_unknown_backend(self, capsys):
        status, out, err = run_cli(
            capsys, "crosscheck", "--n=4", "--backends=pattern,astral"
        )
        assert status == 2
        assert out == ""

    def test_zero_jobs_is_usage_error(self, capsys):
        for argv in (
            ("crosscheck", "--n=4", "--jobs=0"),
            ("count", "--max-n=4", "--jobs=0"),
        ):
            status, out, err = run_cli(capsys, *argv)
            assert status == 2
            assert out == ""
            assert "jobs" in err


class TestCount:
    def test_csv_rows(self, capsys):
        status, out, _ = run_cli(
            capsys, "count", "--max-n=5", "--format=csv"
        )
        assert status == 0
        rows = out.strip().splitlines()
        assert rows[0] == "1,1,1,1.0"
        assert rows[-1] == "5,99,120,0.825"
        assert len(rows) == 5

    def test_single_row(self, capsys):
        status, out, _ = run_cli(capsys, "count", "--max-n=1", "--format=csv")
        assert status == 0
        assert out.strip() == "1,1,1,1.0"

    def test_seven_rows_with_falling_ratio(self, capsys):
        status, out, _ = run_cli(capsys, "count", "--max-n=7", "--format=csv")
        rows = out.strip().splitlines()
        assert len(rows) == 7
        ratios = [float(row.split(",")[3]) for row in rows]
        assert all(a >= b for a, b in zip(ratios[4:], ratios[5:]))

    def test_table_has_header(self, capsys):
        status, out, _ = run_cli(capsys, "count", "--max-n=3")
        lines = out.strip().splitlines()
        assert "spherical" in lines[0]
        assert len(lines) == 4

    def test_json(self, capsys):
        status, out, _ = run_cli(capsys, "count", "--max-n=2", "--format=json")
        data = json.loads(out)
        assert data == [
            {"n": 1, "spherical": 1, "total": 1, "ratio": 1.0},
            {"n": 2, "spherical": 2, "total": 2, "ratio": 1.0},
        ]

    def test_bound_exceeded(self, capsys):
        status, out, err = run_cli(capsys, "count", "--max-n=11")
        assert status == 2
        assert out == ""

    def test_force_prints_no_estimate(self, capsys):
        status, out, err = run_cli(
            capsys, "count", "--max-n=9", "--force", "--format=csv", "--jobs=1"
        )
        assert status == 0
        rows = out.strip().splitlines()
        assert len(rows) == 9
        assert rows[-1] == f"9,24732,362880,{24732 / 362880}"
        assert "estimated" not in err


class TestPatterns:
    def test_default_lists_21(self, capsys):
        status, out, _ = run_cli(capsys, "patterns")
        lines = out.strip().splitlines()
        assert status == 0
        assert len(lines) == 21
        for line in lines:
            token = line.split()[0]
            assert Permutation.from_text(token).degree == 5

    def test_subset_both(self, capsys):
        status, out, _ = run_cli(capsys, "patterns", "--subset=both")
        lines = out.strip().splitlines()
        assert [line.split()[0] for line in lines] == ["45231", "53412"]
        assert all("321" in line and "3412" in line for line in lines)

    def test_subset_sizes(self, capsys):
        for subset, size in (("321", 11), ("3412", 12)):
            _, out, _ = run_cli(capsys, "patterns", f"--subset={subset}")
            assert len(out.strip().splitlines()) == size

    def test_verify(self, capsys):
        status, out, _ = run_cli(capsys, "patterns", "--verify")
        assert status == 0
        assert out.strip() == "catalog characterizations: PASS"


class TestReducedWords:
    def test_two_words_of_321(self, capsys):
        status, out, _ = run_cli(capsys, "reduced-words", "321")
        assert status == 0
        assert out.strip().splitlines() == ["[1,2,1]", "[2,1,2]"]

    def test_limit(self, capsys):
        status, out, _ = run_cli(capsys, "reduced-words", "4321", "--limit=3")
        assert len(out.strip().splitlines()) == 3

    def test_refusal_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "reduced-words", "7654321")
        assert status == 2
        assert out == ""
        assert "limit" in err

    @pytest.mark.parametrize(
        "w", [w for w in symmetric_group(7) if w.length() == 20], ids=str
    )
    def test_refuses_elements_just_below_the_longest(self, capsys, w):
        status, out, err = run_cli(capsys, "reduced-words", str(w))
        assert status == 2
        assert out == ""
        assert "limit" in err

    def test_bad_perm(self, capsys):
        status, out, err = run_cli(capsys, "reduced-words", "331")
        assert status == 2
        assert out == ""


class TestBruhat:
    def test_true_comparison(self, capsys):
        status, out, _ = run_cli(capsys, "bruhat", "2143", "3142")
        assert status == 0
        assert out.strip() == "true"

    def test_true_with_explain(self, capsys):
        status, out, _ = run_cli(capsys, "bruhat", "2143", "3142", "--explain")
        assert status == 0
        assert out.splitlines() == ["true", "all prefixes dominate"]

    def test_false_with_explain(self, capsys):
        status, out, _ = run_cli(capsys, "bruhat", "321", "312", "--explain")
        lines = out.strip().splitlines()
        assert lines[0] == "false"
        assert lines[1] == "prefix dominance fails at index 2"

    def test_degree_mismatch(self, capsys):
        status, out, err = run_cli(capsys, "bruhat", "21", "321")
        assert status == 2
        assert out == ""


class TestInterval:
    def test_summary(self, capsys):
        status, out, _ = run_cli(capsys, "interval", "2143")
        assert status == 0
        assert out.strip() == "4 elements, boolean: true"

    def test_edges_roundtrip(self, capsys):
        status, out, _ = run_cli(capsys, "interval", "2143", "--edges")
        lines = out.strip().splitlines()
        assert lines[0] == "4 elements, boolean: true"
        edges = lines[1:]
        assert len(edges) == 4
        for edge in edges:
            lo, up = edge.split(" < ")
            assert Permutation.from_text(lo).degree == 4
            assert Permutation.from_text(up).degree == 4

    def test_high_degree_answers(self, capsys):
        # covers are listed in one pass per position, so degree 300 is quick
        word = ",".join(str(v) for v in (2, 1, *range(3, 301)))
        status, out, _ = run_cli(capsys, "interval", word)
        assert status == 0
        assert out.strip() == "2 elements, boolean: true"

    def test_rank_bound_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "interval", "7,6,5,4,3,2,1")
        assert status == 2
        assert out == ""
        assert "rank" in err


# Each refusal with a phrase its message must hold: library refusals reach
# the user word for word, so they name CLI options, not Python ones.
REFUSALS = [
    (("classify", "1,1"), "not a permutation of 1..2"),
    (("classify", "2,+1"), "bad permutation text"),
    (("classify", "\uff12,1"), "bad permutation text"),
    (("classify", "1_0,1,2,3,4,5,6,7,8,9"), "bad permutation text"),
    (("crosscheck", "--n=0"), "degree must be at least 1"),
    (("crosscheck", "--n=0", "--force"), "degree must be at least 1"),
    (("crosscheck", "--n=4", "--backends=pattern"), "two distinct backends"),
    (("crosscheck", "--n=4", "--backends=pattern", "--force"), "two distinct backends"),
    (("crosscheck", "--n=4", "--backends=pattern,astral", "--force"), "unknown backend 'astral'"),
    (("crosscheck", "--n=5", "--backends=pattern,boolean_quotient,pattern"), "'pattern' is listed twice"),
    (("crosscheck", "--n=5", "--backends=pattern,boolean,boolean_quotient"), "listed twice"),
    (("crosscheck", "--n=9"), "pass --force"),
    (("crosscheck", "--n=4", "--jobs=0", "--force"), "jobs must be at least 1"),
    (("count", "--max-n=0"), "degree must be at least 1"),
    (("count", "--max-n=11"), "pass --force"),
    (("reduced-words", "321", "--limit=-1"), "limit must be nonnegative"),
    (("reduced-words", "7654321"), "pass --limit"),
    (("reduced-words", "7654123"), "more than 1000000 reduced words"),
    (("reduced-words", "15847632"), "more than 1000000 reduced words"),
    (("interval", "654321"), "interval rank 15 exceeds bound 12"),
]


# A run of calls, a usage error among them, through one process.
SHARED_RUNS = [
    ("classify", "24531", "--explain"),
    ("count", "--max-n=4", "--format=csv"),
    ("crosscheck", "--n=9"),
    ("bruhat", "21"),
    ("count", "--max-n=3", "--jobs=1"),
    ("classify", "54321", "--backend=all"),
    ("patterns", "--subset=both"),
]
HELP_ARGVS = [("--help",), ("-h",), ("classify", "--help"), ("count", "-h")]
USAGE_ERRORS = [
    ("classify",),
    ("count",),
    ("classify", "123", "--backend=fast"),
    ("bruhat", "21"),
]


class TestUsage:
    @pytest.mark.parametrize(
        "argv, phrase", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS]
    )
    def test_refusal(self, capsys, argv, phrase):
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert phrase in err and "Traceback" not in err
        # no Python spelling without its option, and no private name
        assert "force=True" not in err or "--force" in err
        assert "limit=" not in err or "--limit" in err
        assert "rank_bound" not in err and " _" not in err

    # Modules the first verdict does without: argparse (with gettext) and
    # dataclasses (with inspect and ast) would cost more than the verdict,
    # json serves only --format=json, and the pool machinery only a scan
    # that starts a pool.
    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["classify", "12345"], []),
            (["count", "--max-n=2", "--format=json"], ["json"]),
        ],
        ids=["classify", "count-json"],
    )
    def test_start_up_imports(self, argv, loaded):
        src = str(Path(cli.__file__).parents[1])
        watched = ["argparse", "concurrent.futures", "dataclasses", "gettext", "inspect", "json"]
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "import spherical\n"
            "from spherical import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"print([m for m in {watched!r} if m in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert done.stdout.splitlines()[-1] == repr(loaded)

    def test_runs_as_a_module(self):
        # a bare checkout has no installed script; the module form answers
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "spherical.cli", "classify", "24531"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "not spherical\n", "")

    def test_no_verb(self, capsys):
        assert main([]) == 2

    def test_one_parser_per_process(self, capsys):
        # the verb table serves every call in the process and keeps no
        # state between parses: a run of calls, a usage error among them,
        # answers the same the second time through
        runs = [run_cli(capsys, *argv) for argv in SHARED_RUNS * 2]
        assert runs[:7] == runs[7:]
        assert [status for status, _, _ in runs[:7]] == [1, 0, 2, 2, 0, 0, 0]

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        assert out.startswith("usage: spherical ")

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (2, "")
        assert err.startswith("usage: spherical ") and "Traceback" not in err
        assert f"spherical {argv[0]}: error: " in err

    def test_jobs_default_read_when_the_command_runs(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "density_table", lambda max_n, force, jobs: seen.append(jobs) or []
        )
        for cpus in (3, None):
            monkeypatch.setattr("spherical.cli.os.cpu_count", lambda: cpus)
            run_cli(capsys, "count", "--max-n=2")
        assert seen == [3, 1]

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def argvs_in_this_module():
    # every argv this module sends through run_cli or run_bounded whose
    # arguments are literals or module-level values
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        called = isinstance(node, ast.Call) and getattr(node.func, "id", None)
        if called not in ("run_cli", "run_bounded"):
            continue
        args = node.args[1:]
        if any(isinstance(arg, ast.Starred) for arg in args):
            continue
        try:
            yield tuple(
                eval(compile(ast.Expression(arg), __file__, "eval"), globals()) for arg in args
            )
        except NameError:
            continue  # a test's own parameter


# Argvs for the parser's parity with its argparse reference beyond those
# the tests above send.
PARSER_CORPUS = [
    # each verb with its = and space forms
    *(("classify", "54321", f"--backend={flag}") for flag in (*cli._BACKEND_FLAGS, "all")),
    ("classify", "123", "--backend", "all", "--explain"),
    ("crosscheck", "--n=5", "--backends=pattern,boolean", "--force", "--format=json", "--jobs=3"),
    ("crosscheck", "--n", "5", "--backends", "pattern,boolean", "--format", "table", "--jobs", "3"),
    ("count", "--max-n=3", "--format=csv", "--force", "--jobs=1"),
    ("count", "--max-n", "3", "--format", "json", "--jobs", "1"),
    ("patterns", "--subset=321", "--verify"),
    ("patterns", "--subset", "3412"),
    ("reduced-words", "321", "--limit=2"),
    ("reduced-words", "321", "--limit", "2"),
    ("bruhat", "21", "12", "--explain"),
    ("interval", "2143", "--edges"),
    # options before, between and after the positionals
    ("classify", "--explain", "123"),
    ("bruhat", "21", "--explain", "12"),
    ("reduced-words", "--limit", "2", "321"),
    # unique prefixes, ambiguous ones, and repeats
    ("classify", "123", "--exp", "--b=all"),
    ("crosscheck", "--n=4", "--ba=pattern,divisible", "--forc", "--form", "table", "--j=1"),
    ("count", "--max=3", "--form=csv"),
    ("count", "--m", "3", "--fo"),
    ("count", "--max-n=3", "--for"),
    ("count", "--max-n=3", "--max-n=4"),
    ("classify", "123", "--backend=all", "--backend=boolean"),
    ("patterns", "--verify", "--verify"),
    # missing and extra positionals, missing required options
    ("classify",),
    ("bruhat", "21"),
    ("bruhat", "21", "12", "321"),
    ("interval", "2143", "2143"),
    ("crosscheck",),
    ("crosscheck", "--force"),
    ("count",),
    ("count", "--format=csv"),
    # a bad int, a bad choice, and a flag given a value
    ("count", "--max-n=three"),
    ("count", "--max-n="),
    ("crosscheck", "--n=5", "--jobs", "x"),
    ("classify", "123", "--backend=fast"),
    ("count", "--max-n=3", "--format=xml"),
    ("classify", "123", "--explain=1"),
    ("interval", "2143", "--edges="),
    # an unknown option, an unknown verb, and an empty argv
    ("classify", "123", "--verbose"),
    ("--verbose", "classify", "123"),
    ("frobnicate",),
    (),
    # negative numbers as values, --, and positionals starting with -
    ("reduced-words", "321", "--limit", "-1"),
    ("reduced-words", "321", "--limit=-1"),
    ("classify", "--", "123"),
    ("classify", "123", "--"),
    ("classify", "--", "--explain"),
    ("bruhat", "21", "--", "12"),
    ("count", "--max-n=3", "--"),
    ("reduced-words", "321", "--limit", "2", "--"),
    ("reduced-words", "--limit", "--", "321"),
    ("classify", "-123"),
    ("classify", "-1.5"),
    ("classify", "-x"),
    ("classify", "-x y"),
    # help, help given a value, and help after an ambiguous option
    ("--he",),
    ("-hh",),
    ("classify", "-hx"),
    ("--help=1",),
    ("--help", "frobnicate"),
    ("count", "-h", "--fo"),
    ("count", "--fo", "-h"),
    ("count", "-h", "--", "--fo"),
]


class TestParser:
    def test_parity_with_the_argparse_reference(self, capsys):
        def parse(parser, argv):
            # the namespace, or the exit status
            try:
                return vars(parser(list(argv)))
            except SystemExit as exc:
                return exc.code

        reference = build_parser().parse_args
        sent = list(argvs_in_this_module())
        assert ("classify", "24531", "--explain") in sent
        assert ("reduced-words", LONGEST[400]) in sent
        corpus = [
            *sent,
            *(argv for argv, _ in REFUSALS),
            *SHARED_RUNS,
            *HELP_ARGVS,
            *USAGE_ERRORS,
            ("frobnicate",),
            *PARSER_CORPUS,
        ]
        mismatches = [
            (argv, want, got)
            for argv in corpus
            if (want := parse(reference, argv)) != (got := parse(cli.parse_args, argv))
        ]
        assert mismatches == []

    def test_help_lists_the_readme_synopses(self, capsys):
        status, out, _ = run_cli(capsys, "--help")
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
        synopses = [line.strip() for line in out.splitlines() if line.startswith("  spherical ")]
        assert status == 0
        assert synopses == block.splitlines()
        assert len(synopses) == len(cli._VERBS) == 7

    def test_a_second_separator_is_text(self, capsys):
        # after --, argparse handed a later positional's literal -- over as
        # an empty list, which reached the handler as a traceback; the
        # table reads it as text, which the handler refuses (called through
        # main, not run_cli, so that the parity corpus leaves it out)
        argv = ["bruhat", "21", "--", "--"]
        assert vars(cli.parse_args(argv))["w"] == "--"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "bad permutation text: '--'\n")

