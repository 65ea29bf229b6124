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


def imported_names(path: Path) -> set[str]:
    # every name a module of the package imports, spelled in full
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["spherical" if node.level else "", node.module]))
            names.update(f"{source}.{alias.name}" for alias in node.names)
    return names


def test_generating_tree_stays_apart_from_the_deciders():
    # The cross-check rests on the four deciders' independence, and the
    # tree is built on apart from them: it reads the catalog and the scan
    # driver from classify, and classify reads nothing from it.
    package = Path(spherical.__file__).resolve().parent
    classify, tree = package / "classify.py", package / "tree.py"
    assert not {n for n in imported_names(classify) if n.startswith("spherical.tree")}
    from_classify = {n for n in imported_names(tree) if n.startswith("spherical.classify")}
    assert from_classify == {"spherical.classify._scan", "spherical.classify.catalog"}
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(tree.read_text(), str(tree)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    deciders = {"_DECIDERS", "_catalog_certificate", "_judge"}
    assert not {name for name in named if name in deciders or name.startswith("_by_")}


def test_each_refusal_is_worded_once():
    # Each of these refusals is worded by one helper in permutations, which
    # every other site calls, so no copy can drift from it.
    package = Path(spherical.__file__).resolve().parent
    phrases = ("must be an int, not", "degree mismatch", "pass --force")
    found = {phrase: set() for phrase in phrases}

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for phrase in phrases:
                if phrase in node.value:
                    found[phrase].add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    assert found == {
        "must be an int, not": {("permutations", "_check_int")},
        "degree mismatch": {("permutations", "_check_same_degree")},
        "pass --force": {("permutations", "_check_bound")},
    }


def test_cli_takes_only_what_it_runs_from_classify():
    # the verbs decide, describe, cross-check and list the catalog; every
    # refusal comes from inside the library calls, none from a helper
    cli = Path(spherical.__file__).resolve().parent / "cli.py"
    from_classify = {n for n in imported_names(cli) if n.startswith("spherical.classify")}
    assert from_classify == {
        f"spherical.classify.{name}"
        for name in (
            "BACKENDS", "_describe", "_judge", "catalog", "cross_check",
            "verify_catalog_characterizations",
        )
    }
