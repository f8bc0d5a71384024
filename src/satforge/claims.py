"""The paper's claims, each written once: a statement, the default parameters
it is checked at, and a runner that checks it case by case.

`satforge verify <claim>` and the acceptance gate both run claims through
`run_claim`.  A runner takes its points and the tree scan to run, a callable
(orders, k) -> ScanReport, which only the tree claims call; how the scan is
configured is the caller's.  It returns case dicts (`case`, `claim`,
`expected`, `actual`, `pass`) in a deterministic order, so a report is the
same for any configuration of the scan.

The scan reports saturated trees only.  What they contain is tested here,
against claimed_patterns(k), the containment the tree claims state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .canon import canonical_form
from .constructions import make_g0, make_h0, make_small_tree, make_t0k, make_t1k
from .formulas import order_constant, sat_k3_cup_pk_bounds, sat_k3_pk
from .graphs import (
    Graph,
    connected_components,
    delete_vertex,
    diameter,
    empty_graph,
    graph6_decode,
    join,
)
from .patterns import TreePattern, subtree_contains
from .saturation import check_saturated, contains_member, parse_family
from .search import sat_bruteforce, scan_saturated_trees


class UsageError(ValueError):
    """A request the command line should refuse with exit code 2."""


# ---------------------------------------------------------------------------
# parameter tables
# ---------------------------------------------------------------------------

# k for the layered trees T0_k and T1_k
LAYERED_KS = (9, 10, 11, 12, 13, 14)
# (n, k) for the disconnected {K3,Pk} witness G0
G0_PAIRS = ((20, 10), (23, 10), (40, 10), (100, 10), (137, 11), (76, 12))
# (n, k) for the K3 u Pk witness H0
H0_PAIRS = ((120, 10), (200, 10), (168, 11))
# n for the hub join over P2+P2
HUB_JOIN_NS = (6, 7)
# k -> (tree orders scanned, the least-order saturated non-star trees);
# containment is checked against claimed_patterns(k), which adds T1_8
PROP_5_2 = {
    5: (range(4, 13), ("T1",)),
    6: (range(4, 13), ("T2", "T3")),
    7: (range(6, 18), ("T0_7",)),
    8: (range(6, 18), ("T0_8",)),
    9: (range(6, 18), ("T0_9", "T1_9")),
}


def _case(case_id: str, claim: str, expected, actual) -> dict:
    return {
        "case": case_id,
        "claim": claim,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


# ---------------------------------------------------------------------------
# runners: (points, scan) -> cases
# ---------------------------------------------------------------------------


def _layered_trees(ks, scan) -> list[dict]:
    cases = []
    for k in ks:
        fam = parse_family(f"K3,P{k}")
        for label, make in (("short", make_t0k), ("sparse", make_t1k)):
            verdict = check_saturated(make(k), fam)
            cases.append(
                _case(f"k={k}/{label}", "layered tree is saturated",
                      "saturated", verdict.status)
            )
    return cases


def _g0(pairs, scan, lemma: bool) -> list[dict]:
    """Theorem 1.1 (edges and formula) or Lemma 3.1 (components and edges)
    on the G0 witness; both check that it is saturated."""
    cases = []
    for n, k in pairs:
        g = make_g0(n, k)
        a1 = order_constant("A1", k)
        want = n - n // a1
        tag = f"n={n},k={k}"
        if lemma:
            cases.append(
                _case(f"{tag}/components", "component count",
                      n // a1, len(connected_components(g)))
            )
        cases.append(
            _case(f"{tag}/edges",
                  "edge count" if lemma else "witness edge count matches formula",
                  want, g.edge_count)
        )
        if not lemma:
            cases.append(_case(f"{tag}/formula", "formula value", want, sat_k3_pk(n, k)))
        verdict = check_saturated(g, parse_family(f"K3,P{k}"))
        cases.append(
            _case(f"{tag}/saturated", "saturated" if lemma else "witness is saturated",
                  "saturated", verdict.status)
        )
    return cases


def _h0(pairs, scan, with_bounds: bool) -> list[dict]:
    """Lemma 3.2, and with the bracket Theorem 1.2's upper bound, on H0."""
    cases = []
    for n, k in pairs:
        h = make_h0(n, k)
        want = 6 + sat_k3_pk(n, k)
        cases.append(
            _case(f"n={n},k={k}/edges", "witness edge count = upper bound",
                  want, h.edge_count)
        )
        if with_bounds:
            b = sat_k3_cup_pk_bounds(n, k)
            cases.append(
                _case(f"n={n},k={k}/bracket", "bracket width is 4",
                      (want - 4, want), (b.lower, b.upper))
            )
        verdict = check_saturated(h, parse_family(f"K3+P{k}"))
        cases.append(
            _case(f"n={n},k={k}/saturated", "witness is saturated",
                  "saturated", verdict.status)
        )
    return cases


def _hub_join(ns, scan) -> list[dict]:
    fam_join = parse_family("K1*[2,2]")
    fam_forest = parse_family("P2+P2")
    cases = []
    for n in ns:
        lhs = sat_bruteforce(n, fam_join)
        rhs = sat_bruteforce(n - 1, fam_forest)
        cases.append(
            _case(f"n={n}/value", "hub-join value equals (n-1) + base value",
                  (n - 1) + rhs.value, lhs.value)
        )
        joined_ok = all(
            check_saturated(join(empty_graph(1), graph6_decode(w)), fam_join).is_saturated
            for w in rhs.witnesses
        )
        cases.append(
            _case(f"n={n}/join-witnesses", "hub over every base witness is saturated",
                  True, joined_ok)
        )
        hub_ok = True
        for w in lhs.witnesses:
            g = graph6_decode(w)
            hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
            hub_ok = hub_ok and any(
                delete_vertex(g, v).edge_count == rhs.value
                and check_saturated(delete_vertex(g, v), fam_forest).is_saturated
                for v in hubs
            )
        cases.append(
            _case(f"n={n}/hub-deletion", "every minimum hub-join witness peels "
                  "to a minimum base witness", True, hub_ok)
        )
    return cases


def claimed_patterns(k: int) -> list[tuple[str, Graph]]:
    """Containment targets recorded for saturated non-star trees.

    Every saturated non-star tree contains one of these.  They are not all
    minimum trees: at k=8 the unique least-order saturated tree is T0_8
    (order 10), while T1_8 (order 11) is saturated and holds no T0_8.  For
    k >= 8 the diameter decides the target: diameter k-3 trees contain
    T0_k, diameter k-2 trees contain T1_k.
    """
    if k == 5:
        return [("T1", make_small_tree("T1"))]
    if k == 6:
        return [("T2", make_small_tree("T2")), ("T3", make_small_tree("T3"))]
    if k == 7:
        return [("T0_7", make_t0k(7))]
    return [(f"T0_{k}", make_t0k(k)), (f"T1_{k}", make_t1k(k))]


def _diameter_target(k: int, d: int) -> str | None:
    """The pattern a tree of diameter d must hold at k >= 8, if any."""
    return {k - 3: f"T0_{k}", k - 2: f"T1_{k}"}.get(d) if k >= 8 else None


def held_patterns(k: int, trees: list[Graph]) -> list[tuple[int, str | None]]:
    """Per tree: its diameter, and the first of claimed_patterns(k) it
    contains, or None.  Each pattern is prepared once; a tree is searched
    from its adjacency lists and diameter, its diameter target first, so
    the answer is that target whenever the tree holds it."""
    patterns = {name: TreePattern(g) for name, g in claimed_patterns(k)}
    held = []
    for t in trees:
        d = diameter(t)
        adj = [list(t.neighbors(v)) for v in range(t.n)]
        first = _diameter_target(k, d)
        tries = sorted(patterns, key=lambda name: name != first)
        hit = next((name for name in tries if patterns[name].embedding(adj, d) is not None), None)
        held.append((d, hit))
    return held


def _minimum_trees(ks, scan) -> list[dict]:
    cases = []
    for k in ks:
        orders, claimed = PROP_5_2[k]
        lo, hi = orders[0], orders[-1]
        rep = scan(orders, k)
        targets = dict(claimed_patterns(k))
        names = {canonical_form(g): name for name, g in targets.items()}
        trees = [graph6_decode(w.graph6) for w in rep.witnesses]
        held = held_patterns(k, trees)
        least = min((t.n for t in trees), default=None)
        minimum = sorted(
            names.get(c, c.decode("ascii"))
            for c in (canonical_form(t) for t in trees if t.n == least)
        )
        cases.append(
            _case(
                f"k={k}/minimum",
                f"the least-order saturated non-star trees of orders {lo}..{hi} "
                f"are exactly {'/'.join(claimed)}",
                sorted(claimed),
                minimum,
            )
        )
        bad = [w.graph6.decode("ascii") for w, (_, hit) in zip(rep.witnesses, held) if hit is None]
        cases.append(
            _case(
                f"k={k}/containment",
                f"every saturated non-star tree of orders {lo}..{hi} "
                f"contains one of {'/'.join(targets)}",
                [],
                bad,
            )
        )
        if k >= 8:
            cases.append(_by_diameter(k, lo, hi, rep.witnesses, held))
        if k == 8:
            cases.append(_refutation(k, targets, trees))
    return cases


def _by_diameter(k: int, lo: int, hi: int, witnesses, held) -> dict:
    """For k >= 8 the diameter selects the target: k-3 holds T0_k, k-2 T1_k."""
    bad = []
    for w, (d, hit) in zip(witnesses, held):
        target = _diameter_target(k, d)
        if target is None or hit != target:
            bad.append(w.graph6.decode("ascii"))
    return _case(
        f"k={k}/by-diameter",
        f"every saturated non-star tree of orders {lo}..{hi} has diameter "
        f"{k - 3} and contains T0_{k}, or diameter {k - 2} and contains T1_{k}",
        [],
        bad,
    )


def _refutation(k: int, targets: dict, trees) -> dict:
    """The sparse tree T1_k is saturated without T0_k, so "every saturated
    non-star tree contains T0_k" is false; member tests here call the
    detectors directly, not the saturation scan."""
    sparse = targets[f"T1_{k}"]
    fam = parse_family(f"K3,P{k}")
    codes = {canonical_form(t) for t in trees if t.n == sparse.n}
    return _case(
        f"k={k}/refutation",
        f"T1_{k} is member-free, every added edge creates a member, it holds "
        f"no T0_{k}, and the scan finds it",
        {"member-free": True, "edges-create-member": True,
         f"holds-T0_{k}": False, "found-by-scan": True},
        {
            "member-free": contains_member(sparse, fam) is None,
            "edges-create-member": all(
                contains_member(sparse.add_edge(u, v), fam) is not None
                for u, v in sparse.non_edges()
            ),
            f"holds-T0_{k}": subtree_contains(sparse, targets[f"T0_{k}"]) is not None,
            "found-by-scan": canonical_form(sparse) in codes,
        },
    )


def _order_20(points, scan) -> list[dict]:
    rep = scan([20], 10)
    trees = [graph6_decode(w.graph6) for w in rep.witnesses]
    bad = [
        w.graph6.decode("ascii")
        for w, (_, hit) in zip(rep.witnesses, held_patterns(10, trees))
        if hit is None
    ]
    t1k_code = canonical_form(make_t1k(10))
    found = any(canonical_form(t) == t1k_code for t in trees)
    return [
        _case("order-20/containment",
              "every saturated non-star tree contains a minimum variant", [], bad),
        _case("order-20/sparse-witness",
              "the sparse layered tree itself appears", True, found),
        # trees_scanned is the trees walked plus the trees counted exactly
        # from their numbers by diameter; the case text is in pinned reports
        _case("order-20/scan-count", "scan looked at every tree",
              True, rep.trees_scanned == 823065),
    ]


# ---------------------------------------------------------------------------
# --k / --n to a runner's points
# ---------------------------------------------------------------------------


def _pairs(default: tuple, a1_multiple: int, ks, ns) -> tuple:
    """(n, k) pairs: the table, or one k (10 by default) with the given ns
    (by default the least order the construction takes)."""
    if not ks and not ns:
        return default
    if ks and len(ks) != 1:
        raise UsageError(f"this campaign takes one --k value, not {len(ks)}")
    k = ks[0] if ks else 10
    return tuple((n, k) for n in ns or [a1_multiple * order_constant("A1", k)])


def _hub_join_ns(ks, ns) -> tuple:
    # the base order n - 1 must be a graph order, so n starts at 2
    for n in ns or ():
        if n < 2:
            raise UsageError(f"thm-1.4 needs --n of at least 2, not {n}")
    return tuple(ns or HUB_JOIN_NS)


def _prop_5_2_ks(ks, ns) -> tuple:
    for k in ks or ():
        if k not in PROP_5_2:
            raise UsageError(
                f"prop-5.2 has no k={k}; valid: {', '.join(map(str, PROP_5_2))}"
            )
    return tuple(ks or PROP_5_2)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    statement: str
    run: Callable[[tuple, Callable], list[dict]]
    points: Callable[[list | None, list | None], tuple]  # --k, --n -> run's points
    options: tuple[str, ...]  # the options of --k / --n that points reads


CLAIMS = {
    "thm-1.1": Claim(
        "sat(n,{K3,Pk}) = n - floor(n/A1(k)) for k >= 10, attained by G0",
        partial(_g0, lemma=False), partial(_pairs, G0_PAIRS, 2), ("k", "n"),
    ),
    "thm-1.2-upper": Claim(
        "sat(n,K3 u Pk) <= sat(n,{K3,Pk}) + 6, attained by H0; the bracket "
        "from below has width 4",
        partial(_h0, with_bounds=True), partial(_pairs, H0_PAIRS, 6), ("k", "n"),
    ),
    "thm-1.4": Claim(
        "sat(n,K1 v F) = (n-1) + sat(n-1,F), for F = P2+P2",
        _hub_join, _hub_join_ns, ("n",),
    ),
    "lem-2.4": Claim(
        "the layered trees T0_k and T1_k are {K3,Pk}-saturated",
        _layered_trees, lambda ks, ns: tuple(ks or LAYERED_KS), ("k",),
    ),
    "lem-3.1": Claim(
        "G0 has floor(n/A1(k)) components and is {K3,Pk}-saturated",
        partial(_g0, lemma=True), partial(_pairs, G0_PAIRS, 2), ("k", "n"),
    ),
    "lem-3.2": Claim(
        "H0 is K3 u Pk-saturated with 6 + sat(n,{K3,Pk}) edges",
        partial(_h0, with_bounds=False), partial(_pairs, H0_PAIRS, 6), ("k", "n"),
    ),
    "prop-5.2": Claim(
        "the least-order saturated non-star trees for k = 5..9, and what "
        "every saturated non-star tree contains",
        _minimum_trees, _prop_5_2_ks, ("k",),
    ),
    "lem-2.3-k10": Claim(
        "every saturated non-star tree of order 20 contains T0_10 or T1_10",
        _order_20, lambda ks, ns: (), (),
    ),
}


def run_claim(
    claim_id: str,
    ks: list[int] | None = None,
    ns: list[int] | None = None,
    scan: Callable = scan_saturated_trees,
) -> list[dict]:
    """The cases of one claim, at its default parameters unless ks or ns
    are given.  The tree claims call scan(orders, k)."""
    if claim_id not in CLAIMS:
        raise UsageError(
            f"unknown campaign {claim_id!r}; known: {', '.join(sorted(CLAIMS))}"
        )
    claim = CLAIMS[claim_id]
    for name, given in (("k", ks), ("n", ns)):
        if given and name not in claim.options:
            raise UsageError(f"{claim_id} takes no --{name}")
    return claim.run(claim.points(ks, ns), scan)
