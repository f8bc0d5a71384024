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


def test_process_pool_only_in_map_jobs():
    users = {
        f"{module}.{fn.name}"
        for module, fn in _functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor"
    }
    assert users == {"saturation.map_jobs"}
    # and nowhere else: not at module level, not through an alias
    mentions = {p.stem for p in SOURCES if "ProcessPoolExecutor" in p.read_text()}
    assert mentions == {"saturation"}


def test_no_shards_parameter_but_the_scan_shard():
    # the tree scan deals its own shards; no public signature takes them
    owners = set()
    for module, fn in _functions():
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if "shards" in names:
            owners.add(f"{module}.{fn.name}")
    assert owners <= {"search._scan_shard"}
