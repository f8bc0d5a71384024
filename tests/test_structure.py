"""Source-level checks that each parallel or shard mechanism, the subtree
matcher, the path search, the tree verdict, the tree chord test and the
breadth-first search over adjacency lists exist once, that the scan has one mode and is configured in
one place, that the builders run no checker, that the canonical pass takes
no mark, and that no module keeps an import it never uses."""

import ast
from dataclasses import fields
from pathlib import Path

import satforge
from satforge.search import ScanReport

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


def test_processes_start_only_in_the_tree_scan():
    # search.scan_saturated_trees is the one function that reads
    # multiprocessing and starts a Process; no module keeps a process pool,
    # a subprocess or a bare fork
    users = {
        f"{module}.{fn.name}"
        for module, fn in _functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "multiprocessing"
        or isinstance(node, ast.Attribute) and node.attr == "Process"
    }
    assert users == {"search.scan_saturated_trees"}
    # and nowhere else: not at module level, not through an alias
    mentions = {p.stem for p in SOURCES if "multiprocessing" in p.read_text()}
    assert mentions == {"search"}
    for word in ("concurrent", "ProcessPool", "subprocess", "os.fork"):
        assert {p.stem for p in SOURCES if word in p.read_text()} == set(), word


def test_saturation_takes_no_threads():
    # a saturation verdict has one code path, with nothing to configure
    owners = {
        fn.name for module, fn in _functions()
        if module == "saturation" and "threads" in _parameters(fn)
    }
    assert owners == set()


def test_saturation_takes_no_collect_all():
    # check_saturated reads the first item of one ascending failure stream
    # and saturation_gap all of it, so no scan is told which it serves
    owners = {
        fn.name for module, fn in _functions()
        if module == "saturation" and "collect_all" in _parameters(fn)
    }
    assert owners == set()


def test_no_shards_parameter_but_the_scan_shard():
    # the tree scan deals its own shards, through the free-tree generator's
    # walk; no public signature takes them
    owners = set()
    for module, fn in _functions():
        if "shards" in _parameters(fn):
            owners.add(f"{module}.{fn.name}")
    assert owners <= {"search._scan_shard", "search._iter_free_trees"}


def test_the_walk_deals_the_scan_shards():
    # _scan_shard hands its shard to the free-tree generator, which deals
    # the groups of its walk, and deals no tree by index: it holds no modulo
    (fn,) = (fn for module, fn in _functions() if module == "search" and fn.name == "_scan_shard")
    assert not any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) for node in ast.walk(fn)
    )


def test_claims_take_a_scan_not_its_settings():
    # each runner takes (points, scan) and run_claim takes the scan to hand
    # on: no name in claims is a thread count or a mode switch
    tree = _module("claims")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.arg for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.keyword))}
    assert {"threads", "prefilter"} & names == set()
    params = {fn.name: _parameters(fn) for module, fn in _functions() if module == "claims"}
    assert params["run_claim"] == ["claim_id", "ks", "ns", "scan"]
    for runner in ("_layered_trees", "_g0", "_h0", "_hub_join", "_minimum_trees", "_order_20"):
        assert params[runner][1] == "scan", runner


def test_verify_scans_only_through_run_scan():
    # cmd_verify hands _run_scan to run_claim, and _run_scan is the one
    # function of cli that calls the scan with --threads
    tree = _module("cli")
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(fn):
        return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}

    assert {"run_claim", "_run_scan"} <= names(fns["cmd_verify"])
    assert {name for name, fn in fns.items() if "scan_saturated_trees" in names(fn)} == {"_run_scan"}
    assert {name for name, fn in fns.items() if "_run_scan" in names(fn)} == {"cmd_verify"}


def test_scan_has_one_mode():
    # the diameter window is a lemma (search._window_heights), so no switch
    # walks every tree, threads is the scan's one setting, keyword-only, and
    # the report leaves the pattern names to the claims
    assert {p.stem for p in SOURCES if "prefilter" in p.read_text()} == set()
    (fn,) = (
        fn for module, fn in _functions()
        if module == "search" and fn.name == "scan_saturated_trees"
    )
    assert [a.arg for a in fn.args.posonlyargs + fn.args.args] == ["orders", "k"]
    assert [a.arg for a in fn.args.kwonlyargs] == ["threads"]
    assert fn.args.vararg is None and fn.args.kwarg is None
    assert "pattern_names" not in {f.name for f in fields(ScanReport)}


def test_scan_deals_one_job_per_worker():
    # the jobs are range(shards); the caller runs jobs[0] itself and starts
    # one child for each job of jobs[1:], so no process takes a second
    # shard and walks the stream twice
    tree = _module("search")
    (fn,) = (
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "scan_saturated_trees"
    )

    def dump(source):
        return ast.dump(ast.parse(source, mode="eval").body)

    (jobs,) = (
        node.value for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and [ast.dump(t) for t in node.targets] == [ast.dump(ast.Name("jobs", ast.Store()))]
    )
    (gen,) = jobs.generators
    assert ast.dump(gen.iter) == dump("range(shards)")
    shard_calls = [
        node for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_scan_shard"
    ]
    # one shard inline, and the caller's shard 0 beside the children
    assert [[ast.dump(a) for a in c.args] for c in shard_calls] == [[dump("jobs[0]")]] * 2
    starts = [
        node for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "Process"
    ]
    assert len(starts) == 1
    (loop,) = (
        node for node in ast.walk(fn)
        if isinstance(node, ast.For) and any(n is starts[0] for n in ast.walk(node))
    )
    assert ast.dump(loop.iter) == dump("jobs[1:]")
    assert ast.dump(loop.target) == ast.dump(ast.Name("job", ast.Store()))
    kwargs = {kw.arg: ast.dump(kw.value) for kw in starts[0].keywords}
    assert kwargs["target"] == dump("_shard_child")
    assert kwargs["args"] == dump("(job, sender)")
    assert kwargs["daemon"] == dump("True")


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


def _module(name: str) -> ast.Module:
    path = Path(satforge.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(), filename=str(path))


def _calling_themselves(module: ast.Module) -> set[str]:
    """The functions of a module that can call themselves, directly or
    through one another.  A call by plain name goes to the function of that
    name, `self.m(...)` inside a class to the method Class.m."""
    defs: dict[str, tuple[ast.AST, str | None]] = {}

    def collect(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{cls}.{child.name}" if cls else child.name] = (child, cls)
                collect(child, None)
            else:
                collect(child, cls)

    collect(module, None)
    calls = {}
    for name, (fn, cls) in defs.items():
        out = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                out.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self":
                out.add(f"{cls}.{f.attr}")
        calls[name] = out & defs.keys()

    def reaches_itself(start):
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name == start:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])
        return False

    return {name for name in defs if reaches_itself(name)}


def test_search_imports_no_subtree_contains():
    # the scan flags its witnesses through patterns prepared once per shard
    tree = _module("search")
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "subtree_contains" not in names | attrs
    assert "TreePattern" in names


def test_one_subtree_matcher():
    # subtree containment is TreePattern's one memoised child matching:
    # subtree_contains only wraps it, and the only other recursion in
    # patterns is the linear-forest search's placing of one path per part
    tree = _module("patterns")
    assert _calling_themselves(tree) == {
        "place",
        "TreePattern._fits",
        "TreePattern._augment",
    }
    (wrapper,) = (
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "subtree_contains"
    )
    nested = [
        node for node in ast.walk(wrapper)
        if node is not wrapper and isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef))
    ]
    assert nested == []
    called = {node.func.id for node in ast.walk(wrapper) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "TreePattern" in called


def _backtracks_a_path(fn) -> bool:
    """Whether fn clears a vertex popped off its path from a mask, as in
    `used ^= 1 << seq.pop()`: the step back of a depth-first path search."""
    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.BitXor)
        and any(
            isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute) and c.func.attr == "pop"
            for c in ast.walk(node.value)
        )
        for node in ast.walk(fn)
    )


def test_one_path_search_in_patterns():
    # one depth-first walk over simple paths: the linear-forest enumerator
    # runs it unweighted, the block search weighted
    tree = _module("patterns")
    fns = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {name for name, fn in fns.items() if _backtracks_a_path(fn)} == {"_walk"}
    callers = {
        name for name, fn in fns.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_walk"
    }
    assert callers == {"_iter_paths_exact", "_lp_component"}


def test_no_path_search_caps():
    # the block search replaced the cycle-edge-deletion tier and the caps
    # that guarded it: no cycle-rank cap, component-size cap or
    # triangle-count cap is left
    gone = ("MAX_CYCLE_RANK_FOR_DELETION", "MAX_DFS_COMPONENT", "_TRIANGLE_TABLE_CAP", "_find_cycle_edges")
    found = {f"{path.stem}: {name}" for path in SOURCES for name in gone if name in path.read_text()}
    assert found == set()


def test_path_enumerator_takes_no_prune():
    # the walk prunes only when weighted, so no caller picks a prune
    owners = {
        f"{module}.{fn.name}" for module, fn in _functions() if "prune" in _parameters(fn)
    }
    assert owners == set()


def test_search_takes_one_tree_verdict_from_saturation():
    # the scan's verdict on a tree is tree_is_saturated alone: search reads
    # no chord arithmetic or forest helper of its own
    tree = _module("search")
    names = {
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "saturation"
        for a in node.names
    }
    assert names == {"ForbiddenFamily", "check_saturated", "tree_is_saturated"}


def _walks_a_growing_list(fn) -> bool:
    """Whether fn holds `for x in todo:` with `todo.append(...)` inside the
    loop, the shape of a breadth-first search."""
    for node in ast.walk(fn):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Name):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "append"
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id == node.iter.id
                ):
                    return True
    return False


def test_one_breadth_first_search_in_saturation():
    # the tree verdict and _Forest's rows share one BFS over adjacency lists
    tree = _module("saturation")
    fns = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fns[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    fns[f"{node.name}.{item.name}"] = item
    assert {name for name, fn in fns.items() if _walks_a_growing_list(fn)} == {"_bfs"}


def test_tree_verdict_runs_no_bfs():
    # tree_is_saturated reads arms off the parent array: of the module's
    # functions it reaches only _arms and the distance-3 test, never
    # chord_reach, _bfs or per-vertex adjacency lists
    fns = {
        node.name: node for node in _module("saturation").body
        if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), ["tree_is_saturated"]
    while todo:
        name = todo.pop()
        if name in fns and name not in reached:
            reached.add(name)
            todo += [
                node.func.id for node in ast.walk(fns[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            ]
    assert reached == {"tree_is_saturated", "_arms", "_fails_at_distance_3"}
    names = {node.id for name in reached for node in ast.walk(fns[name]) if isinstance(node, ast.Name)}
    assert not names & {"_bfs", "tree_adjacency"}


def test_one_tree_chord_test():
    # the tree verdict and the forest scans clear a tree by the same arm
    # test, so saturation keeps no isomorphism-class grouping: it imports
    # nothing from canon, and _Forest keeps no grouping or BFS rows
    tree = _module("saturation")
    sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "canon" not in sources
    forest = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Forest"
    )
    methods = {item.name for item in forest.body if isinstance(item, ast.FunctionDef)}
    attrs = {node.attr for node in ast.walk(forest) if isinstance(node, ast.Attribute)}
    assert not (methods | attrs) & {"skip_clean_copies", "grouping", "row", "_rows", "_far"}
    assert "_fails_at_distance_3" in {node.id for node in ast.walk(forest) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    # every name a module imports is read somewhere in it; __init__
    # imports only to re-export
    found = set()
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update(f"{path.stem}: {name}" for name in imported - used)
    assert found == set()


def test_constructions_are_closed_rules():
    # the builders place vertices by formula: they read graphs and formulas
    # only, and never run the checker to choose a vertex
    tree = _module("constructions")
    sources = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert sources == {"graphs", "formulas"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "check_saturated" not in names | attrs


def test_canonical_pass_takes_no_mark():
    # the pass always runs whole; augmentation_code and accepts make the
    # one orbit test on its result, so no early exit is threaded through it
    params = {
        fn.name: _parameters(fn)
        for module, fn in _functions()
        if module == "canon" and fn.name in ("_labelling", "_degree_cells", "_ends_in_orbit")
    }
    assert params == {"_labelling": ["g", "sink"], "_degree_cells": ["rows", "verts", "degs"]}
