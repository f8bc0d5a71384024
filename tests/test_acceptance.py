"""Acceptance gate: one test per criterion, each printing a pass line and
holding to its stated time budget.

Criteria 3, 4, 5, 7, 8 and 9 run claims from `satforge.claims`, the registry
behind `satforge verify`, at their default parameters and fail listing any
failed case; the other criteria are not campaigns and check their facts
here.  The slow order-20 scan (criterion 9) is marked `slow`.

Criterion 8 runs `prop-5.2` one k at a time.  Per k it checks that the
least-order saturated non-star trees are exactly the catalogued minimum
trees, and that every saturated non-star tree contains one of the scan's
containment targets.  At k=8 the two differ: T0_8 (order 10) is the unique
minimum tree, but the sparse T1_8 (order 11) is itself {K3,P8}-saturated
without containing T0_8.  So for k >= 8 containment is also checked by
diameter (diameter k-3 contains T0_k, diameter k-2 contains T1_k), and at
k=8 the refutation of "every saturated non-star tree contains T0_8" is a
case of its own.
"""

import json
import time
from functools import partial

import pytest

from satforge.claims import PROP_5_2, run_claim
from satforge.cli import main as cli_main
from satforge.constructions import make_t0k, make_t1k, make_tk
from satforge.formulas import order_constant
from satforge.graphs import delete_vertex, diameter
from satforge.saturation import parse_family
from satforge.search import enumerate_graphs, sat_bruteforce, scan_saturated_trees


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion-{num:02d} PASS: {detail}", flush=True)


def _passing(claim_id: str, **kwargs) -> list[dict]:
    """The cases of a registry claim, asserting that every one passed."""
    cases = run_claim(claim_id, **kwargs)
    failed = [c for c in cases if not c["pass"]]
    assert not failed, f"{claim_id}: {len(failed)} failed cases: {failed}"
    return cases


def test_criterion_01_order_constants():
    start = time.time()
    for k in range(8, 17):
        assert make_t1k(k).n == order_constant("A1", k)
    for k in range(6, 17):
        assert make_tk(k).n == order_constant("A", k)
        assert make_t0k(k).n == order_constant("A0", k)
    assert order_constant("A1", 10) == 20
    assert order_constant("A1", 9) == 16
    assert order_constant("A0", 10) == 22
    assert order_constant("A", 10) == 46
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"tree orders match constants for k in 6..16 ({elapsed:.2f}s)")


def test_criterion_02_diameters():
    start = time.time()
    for k in range(6, 17):
        assert diameter(make_tk(k)) == k - 2
        assert diameter(make_t0k(k)) == k - 3
    for k in range(8, 17):
        assert diameter(make_t1k(k)) == k - 2
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, f"diameters k-2 / k-3 / k-2 across ranges ({elapsed:.2f}s)")


def test_criterion_03_both_variants_saturated():
    start = time.time()
    cases = _passing("lem-2.4")
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, f"short and sparse variants saturated, {len(cases)} cases ({elapsed:.1f}s)")


def test_criterion_04_disconnected_witness_g0():
    start = time.time()
    cases = _passing("thm-1.1")
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(4, f"G0 witnesses match the closed form and certify, {len(cases)} cases "
            f"({elapsed:.1f}s)")


def test_criterion_05_union_witness_h0():
    start = time.time()
    cases = _passing("thm-1.2-upper")
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(5, f"union witnesses sit on the upper bound and certify, {len(cases)} "
            f"cases ({elapsed:.1f}s)")


def test_criterion_06_bruteforce_cross_checks():
    start = time.time()
    for n in range(4, 8):
        assert sat_bruteforce(n, parse_family("K3")).value == n - 1
    for n in range(5, 8):
        assert sat_bruteforce(n, parse_family("K4")).value == 2 * (n - 2) + 1
    assert sat_bruteforce(4, parse_family("P4")).value == 2
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(6, f"exhaustive minima match the clique formulas ({elapsed:.1f}s)")


def test_criterion_07_hub_join_duality():
    start = time.time()
    cases = _passing("thm-1.4")
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(7, f"hub-join minima peel to base minima, {len(cases)} cases ({elapsed:.1f}s)")


@pytest.mark.parametrize(
    "k,orders,claimed",
    [(k, orders, claimed) for k, (orders, claimed) in PROP_5_2.items()],
    ids=lambda c: str(c),
)
def test_criterion_08_minimum_tree_catalogue(k, orders, claimed):
    start = time.time()
    cases = _passing("prop-5.2", ks=[k])
    elapsed = time.time() - start
    assert elapsed < 900.0
    _report(
        8,
        f"k={k}: minimum trees {'/'.join(claimed)} over orders "
        f"{orders[0]}..{orders[-1]}; "
        f"{', '.join(c['case'].split('/')[1] for c in cases)} hold ({elapsed:.1f}s)",
    )


@pytest.mark.slow
def test_criterion_09_order20_scan():
    start = time.time()
    cases = _passing("lem-2.3-k10", scan=partial(scan_saturated_trees, threads=2))
    elapsed = time.time() - start
    assert elapsed < 3600.0
    _report(9, f"order-20 scan: {', '.join(c['claim'] for c in cases)} ({elapsed:.1f}s)")


def _is_two_connected(g) -> bool:
    if g.n < 3:
        return False
    from satforge.graphs import is_connected

    if not is_connected(g):
        return False
    return all(is_connected(delete_vertex(g, v)) for v in range(g.n))


def test_criterion_10_two_connected_diameter_two():
    start = time.time()
    for n in range(3, 8):
        for g in enumerate_graphs(n):
            if diameter(g) == 2 and _is_two_connected(g):
                assert g.edge_count >= 2 * n - 5, g
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(10, f"2-connected diameter-2 graphs have >= 2n-5 edges ({elapsed:.1f}s)")


def test_criterion_11_thread_determinism(capsys):
    # prop-5.2 runs the tree scan, which reads --threads
    args = [
        "verify", "prop-5.2", "--k", "5..6", "--no-timestamp",
    ]
    code1 = cli_main(args + ["--threads", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(args + ["--threads", "2"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    with capsys.disabled():
        _report(11, "reports byte-identical across --threads 1 and 2")
