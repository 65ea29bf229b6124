import ast
import importlib
from pathlib import Path

import spherical

BENCH = Path(__file__).resolve().parent.parent / "bench"


def resolves(module: str, name: str) -> bool:
    # ``from module import name`` takes an attribute or a submodule
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_all_is_sorted_unique_and_resolves():
    names = spherical.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(spherical, name)]
    assert missing == []


def test_bench_imports_resolve():
    # The tier-1 suite does not collect bench/, so a removed public name
    # would otherwise surface only when the benchmark runs.
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spherical":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = [entry for entry in imported if not resolves(*entry[1:])]
    assert missing == []
