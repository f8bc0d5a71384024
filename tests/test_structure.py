"""Source-level checks that each parallel or shard mechanism exists once."""

import ast
from pathlib import Path

import satforge

SOURCES = sorted(Path(satforge.__file__).parent.glob("*.py"))


def _functions():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node


def _parameters(fn) -> list[str]:
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def test_process_pool_only_in_the_tree_scan():
    users = {
        f"{module}.{fn.name}"
        for module, fn in _functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor"
    }
    assert users == {"search.scan_saturated_trees"}
    # and nowhere else: not at module level, not through an alias
    mentions = {p.stem for p in SOURCES if "ProcessPoolExecutor" in p.read_text()}
    assert mentions == {"search"}


def test_saturation_takes_no_threads():
    # a saturation verdict has one code path, with nothing to configure
    owners = {
        fn.name for module, fn in _functions()
        if module == "saturation" and "threads" in _parameters(fn)
    }
    assert owners == set()


def test_no_shards_parameter_but_the_scan_shard():
    # the tree scan deals its own shards; no public signature takes them
    owners = set()
    for module, fn in _functions():
        if "shards" in _parameters(fn):
            owners.add(f"{module}.{fn.name}")
    assert owners <= {"search._scan_shard"}


def test_no_private_imports_across_modules():
    # each shared primitive has one public home, so no module reaches into
    # another's underscore names, by `from .x import _y` or by `x._y`
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("satforge")):
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.endswith("__"):
                        found.add(f"{path.stem}: {alias.name}")
                    modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names if a.name.startswith("satforge"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
            ):
                found.add(f"{path.stem}: {node.value.id}.{node.attr}")
    assert found == set()
