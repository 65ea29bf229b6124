"""The snapshot script's file naming and run environment; no benchmark runs here."""

import datetime
import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"


@pytest.fixture
def snapshot():
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_never_taken(snapshot, tmp_path):
    day = "2026-10-19"
    plain, hashed = tmp_path / f"BENCH_{day}.json", tmp_path / f"BENCH_{day}-b0638f9.json"
    assert snapshot.snapshot_path(tmp_path, day, "b0638f9") == plain
    plain.write_text("{}")
    assert snapshot.snapshot_path(tmp_path, day, "b0638f9") == hashed
    assert snapshot.snapshot_path(tmp_path, day, None) is None
    hashed.write_text("{}")
    assert snapshot.snapshot_path(tmp_path, day, "b0638f9") is None
    assert snapshot.snapshot_path(tmp_path, day, "0123abc") == tmp_path / f"BENCH_{day}-0123abc.json"


def test_refuses_before_running_when_every_name_is_taken(snapshot, tmp_path, monkeypatch):
    # checkouts outside git have no HEAD, so today's plain name is the only one
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    taken = tmp_path / f"BENCH_{datetime.date.today().isoformat()}.json"
    taken.write_text("kept")

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(snapshot, "ROOT", tmp_path)
    monkeypatch.setattr(snapshot, "bench", no_run)
    monkeypatch.setattr(snapshot, "git", lambda root, *args: None)
    with pytest.raises(SystemExit):
        snapshot.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")])
    assert taken.read_text() == "kept"


def test_each_side_runs_with_its_own_fresh_bytecode_cache(snapshot, tmp_path, monkeypatch):
    # every benchmark run's environment, recorded instead of running it
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    seen = []

    class Done:
        returncode = 0
        stdout = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})
        stderr = ""

    def record(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((Path(cwd).name, prefix))
        assert not os.path.exists(prefix) or not os.listdir(prefix)
        return Done()

    monkeypatch.setattr(snapshot, "ROOT", tmp_path)
    monkeypatch.setattr(snapshot, "git", lambda root, *args: None)
    monkeypatch.setattr(snapshot, "tier1", lambda root: {"status": 0})
    monkeypatch.setattr(snapshot.subprocess, "run", record)
    snapshot.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")])

    assert len(seen) == 2 * (len(snapshot.SEEDS) + len(snapshot.TRACE_SEEDS))
    prefixes = {side: {prefix for name, prefix in seen if name == side}
                for side in ("parent", "change")}
    assert all(len(p) == 1 for p in prefixes.values()), prefixes
    (parent,), (change,) = prefixes.values()
    assert parent != change
    assert str(tmp_path / "inherited") not in (parent, change)
    assert not os.path.exists(os.path.dirname(parent))  # removed afterwards


def test_three_traced_runs_per_workload_and_side_are_kept(snapshot, tmp_path, monkeypatch):
    # seeds 1-3 traced on either side, which side runs first alternating
    # as in the timed runs, and every run lands in the file
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": []}))
    calls = []

    def stub(root, workload, seed, seconds, trace, env):
        calls.append((root.name, workload, seed, trace))
        return {"workload": workload, "seed": seed, "trace": trace, "status": 0,
                "correct": True, "metrics": {}}

    monkeypatch.setattr(snapshot, "ROOT", tmp_path)
    monkeypatch.setattr(snapshot, "git", lambda root, *args: None)
    monkeypatch.setattr(snapshot, "tier1", lambda root: {"status": 0})
    monkeypatch.setattr(snapshot, "bench", stub)
    assert snapshot.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change")]) == 0

    traced = [(side, w, seed) for side, w, seed, trace in calls if trace]
    assert traced == [
        (side, w, seed)
        for w in ("a", "b")
        for seed in (1, 2, 3)
        for side in (("parent", "change") if seed % 2 else ("change", "parent"))
    ]
    (written,) = tmp_path.glob("BENCH_*.json")
    runs = json.loads(written.read_text())["runs"]
    assert len(runs) == len(calls) == 2 * 2 * (10 + 3)
    assert sum(r["trace"] for r in runs) == 12


def test_tree_records_the_source_line_count(snapshot, tmp_path, monkeypatch):
    # every .py file under src counts, at any depth, and nothing else does
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("\n\n\nz = 3\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests.py").write_text("not counted\n")
    monkeypatch.setattr(snapshot, "git", lambda root, *args: None)
    recorded = snapshot.tree(tmp_path)
    assert recorded["src_lines"] == 6
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n")
    assert snapshot.tree(tmp_path)["src_lines"] == 5
    assert snapshot.tree(tmp_path)["src_sha256"] != recorded["src_sha256"]


def test_tree_records_the_code_line_count(snapshot, tmp_path, monkeypatch):
    # blank and comment-only lines and module, class and function
    # docstrings are left out; a string that is not a docstring counts
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        '"""Module docstring,\n\nthree lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Function\n"
        "        docstring.'''\n"
        "        text = '''not a\n"
        "        docstring'''\n"
        "        return (text,\n"
        "                # inside an expression\n"
        "                X)\n"
    )
    (tmp_path / "src" / "pkg").mkdir()
    (tmp_path / "src" / "pkg" / "n.py").write_text("# a comment\n\nY = 2\n")
    monkeypatch.setattr(snapshot, "git", lambda root, *args: None)
    recorded = snapshot.tree(tmp_path)
    assert recorded["src_lines"] == 21
    # X = 1, class C, def f, the two lines of text, return and X); Y = 2
    assert recorded["src_code_lines"] == 8
    assert recorded["src_code_lines_by_file"] == {"src/m.py": 7, "src/pkg/n.py": 1}
