"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "tree-scan": {"orders": {5: (4, 9), 8: (6, 11)}},
    "graph-catalogue": {"order": 6},
    "witness-check": {"witnesses": (("g0", 130, 10), ("h0", 130, 10), ("tk", 0, 9), ("hub", 0, 8))},
}

SMALL_PROBES = {
    "tree_orders": (4, 10),
    "scan": (8, (6, 11)),
    "tree_sample": 20,
    "subtree_sample": 10,
    "graph_order": 5,
    "bruteforce_order": 5,
    "canon_children": 20,
    "witnesses": SMALL["witness-check"]["witnesses"],
    "path_calls": 10,
}


def small_run(name, seed=3):
    return run.run(name, seed, 0.01, False, SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_its_checks(name):
    result = small_run(name)
    assert result["correct"] is True
    assert result["failed"] == 0
    wl = workloads.WORKLOADS[name](3, **SMALL[name])
    wl.build()
    assert result["attempted"] % len(wl.calls()) == 0 < result["attempted"]
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mib"}


def test_same_seed_same_inputs():
    def digest(seed):
        return workloads.WitnessCheck(seed, **SMALL["witness-check"]).build()

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_altered_tree_count_fails(monkeypatch):
    counts = list(oracle.A000055)
    counts[9] += 1
    monkeypatch.setattr(oracle, "A000055", tuple(counts))
    assert small_run("tree-scan")["correct"] is False


def test_altered_closed_form_fails(monkeypatch):
    real = oracle.sat_closed_form
    monkeypatch.setattr(oracle, "sat_closed_form", lambda n, f: real(n, f) + 1)
    assert small_run("graph-catalogue")["correct"] is False


def test_altered_layered_tree_order_fails(monkeypatch):
    monkeypatch.setattr(oracle, "order_a", lambda k: 2 ** k)
    assert small_run("witness-check")["correct"] is False


def test_rounds_with_different_witnesses_fail():
    wl = workloads.TreeScan(3, **SMALL["tree-scan"])
    wl.build()
    first = {op: call() for op, call in wl.calls()}
    op = "scan k=8"
    second = dict(first, **{op: dataclasses.replace(
        first[op], witnesses=first[op].witnesses[1:], saturated_count=first[op].saturated_count - 1)})
    ledger = workloads.Ledger()
    for out in (first, second):
        wl.check_round(ledger, out)
    wl.check_deep(ledger)
    assert [w for w in ledger.wrong if "first round" in w] != []
    assert all(w.startswith(op) for w in ledger.wrong)


def test_raising_operation_counts_as_failed(monkeypatch):
    real = workloads.sat_bruteforce
    picked = workloads.GraphCatalogue(3, **SMALL["graph-catalogue"]).sweeps[0][1]

    def flaky(n, fam):
        if str(fam) == picked:
            raise RuntimeError("path-search budget exceeded")
        return real(n, fam)

    monkeypatch.setattr(workloads, "sat_bruteforce", flaky)
    result = small_run("graph-catalogue")
    assert result["correct"] is True
    assert len(workloads.CLOSED_FORM_FAMILIES) * result["failed"] == result["attempted"] > 0


def test_probes_report_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer, ledger = run.Tracer(scaled=True), workloads.Ledger()
    workloads.probe_layers(5, tracer, ledger, SMALL_PROBES)
    names = set(workloads.layer_metrics(tracer.spans)) | {"trace.wall_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert not ledger.wrong


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
