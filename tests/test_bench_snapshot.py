"""The snapshot script's file naming; no benchmark runs here."""

import datetime
import importlib.util
import json
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
