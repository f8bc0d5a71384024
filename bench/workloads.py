"""The benchmark's three workloads: inputs, one timed round, and checks.

Each workload builds its inputs from a seed, runs a round of program calls
("operations") whose outputs it returns, and checks those outputs against
`oracle` (OEIS terms, closed forms and brute force written apart from
satforge) or against properties the method must have.  The per-layer probes
at the end time the benchmark's own calls into each module's public
functions, one span per batch of calls.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from functools import partial

import oracle
from measure import cpu_seconds
from satforge import cli
from satforge.canon import canonical_form, canonical_last_vertex, same_orbit
from satforge.constructions import make_g0, make_h0, make_t0k, make_t1k, make_tk
from satforge.graphs import (
    build_graph,
    distance_matrix,
    empty_graph,
    graph6_decode,
    graph6_encode,
    join,
)
from satforge.patterns import find_path_of_order, has_clique, subtree_contains
from satforge.saturation import check_saturated, contains_member, parse_family
from satforge.search import (
    enumerate_graphs,
    enumerate_trees,
    sat_bruteforce,
    scan_saturated_trees,
)

# Orders scanned per k: the `verify prop-5.2` ranges with the top order of
# k = 7..9 lowered from 17 to 15, so that a round takes seconds and a run
# holds several; see README.md.
SCAN_ORDERS = {5: (4, 12), 6: (4, 12), 7: (6, 15), 8: (6, 15), 9: (6, 15)}
# The options of `satforge verify prop-5.2 --threads 2`: the CLI's own
# helper runs each scan in two shards on a fresh two-process pool.
SCAN_ARGS = argparse.Namespace(threads=2, no_prefilter=False)
# Per k, the witnesses and the other trees that brute force re-checks.
DEEP_WITNESSES = 3
DEEP_OTHERS = 6

# Families with a closed-form saturation number.  A round sweeps all of
# them in a seeded order: drawing a subset would make the cost of a round
# depend on the seed.
CLOSED_FORM_FAMILIES = ("K3", "K4", "K5", "P3", "P4", "P2+P2")
CATALOGUE_ORDER = 7

# (kind, n, k): saturated witnesses of the paper, checked against the family
# that kind names.  g0 takes the forest path, h0 the triangle table, tk and
# hub (K1 joined to T_k) the generic scan.
WITNESSES = (("g0", 2010, 10), ("h0", 1210, 10), ("tk", 0, 12), ("hub", 0, 11))


def _family_text(kind: str, k: int) -> str:
    return {"g0": f"K3,P{k}", "h0": f"K3+P{k}", "tk": f"P{k}", "hub": f"K1*[{k}]"}[kind]


def _to_graph(adj):
    return build_graph(len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v])


def _relabel(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _digest(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def _verdict(g, fam) -> str:
    return check_saturated(g, fam).status


class Ledger:
    """Outcome of every operation attempted in a run.

    An operation fails when it raises.  A check that does not hold on the
    output of an operation that did not fail makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []

    def attempt(self, ops) -> None:
        self.attempted += len(ops)

    def completed(self, op: str, value) -> bool:
        """False, with the operation counted as failed, when it raised."""
        if isinstance(value, Exception):
            self.failed += 1
            self.notes.append(f"failed: {op}: {value!r}")
            return False
        return True

    def expect(self, op: str, what: str, got, want) -> bool:
        if got != want:
            self.wrong.append(f"{op}: {what} is {got!r}, expected {want!r}")
        return got == want


# ---------------------------------------------------------------------------
# tree-scan
# ---------------------------------------------------------------------------


class TreeScan:
    """Every free tree of the SCAN_ORDERS ranges against {K3, Pk}, k = 5..9,
    in two shards on two worker processes."""

    name = "tree-scan"

    def __init__(self, seed: int, orders=SCAN_ORDERS):
        self.rng = random.Random(seed)
        self.orders = dict(orders)
        # k -> (report, witness tree codes) of the first round in which the
        # scan for k did not fail; brute force re-checks that round.
        self.first: dict = {}

    def build(self) -> str:
        return _digest(sorted(self.orders.items()))

    def calls(self) -> list:
        return [(f"scan k={k}", partial(cli._run_scan, range(lo, hi + 1), k, SCAN_ARGS))
                for k, (lo, hi) in self.orders.items()]

    def check_round(self, ledger: Ledger, out: dict) -> None:
        for k, (lo, hi) in self.orders.items():
            op = f"scan k={k}"
            rep = out[op]
            if not ledger.completed(op, rep):
                continue
            ledger.expect(op, "trees_scanned", rep.trees_scanned, sum(oracle.A000055[lo:hi + 1]))
            ledger.expect(op, "saturated_count", rep.saturated_count, len(rep.witnesses))
            codes = set()
            bad = []
            for w in rep.witnesses:
                adj = oracle.decode_graph6(w.graph6)
                ok = (
                    oracle.is_tree(adj)
                    and lo <= len(adj) <= hi
                    and oracle.tree_diameter(adj) in (k - 3, k - 2)
                    and oracle.tree_diameter(adj) > 2
                )
                if not ok:
                    bad.append(w.graph6)
                codes.add(oracle.tree_code(adj))
            ledger.expect(op, "witnesses that are not non-star trees of diameter k-3 or k-2", bad, [])
            ledger.expect(op, "isomorphism classes among witnesses", len(codes), len(rep.witnesses))
            if k in self.first:
                ledger.expect(op, "witness classes against the first round's", codes, self.first[k][1])
            else:
                self.first[k] = (rep, codes)

    def check_deep(self, ledger: Ledger) -> None:
        """A seeded sample of witnesses and of other trees against brute force.

        A tree is a witness exactly when brute force finds it saturated and
        it is not a star.  The sample mixes trees of the diameters the scan
        checks with uniform random trees.
        """
        rng = self.rng
        for k, (lo, hi) in self.orders.items():
            if k not in self.first:
                continue
            op = f"scan k={k}"
            fam = (("K", 3), ("P", k))
            rep, codes = self.first[k]
            sample = [oracle.decode_graph6(w.graph6)
                      for w in rng.sample(rep.witnesses, min(DEEP_WITNESSES, len(rep.witnesses)))]
            for i in range(DEEP_OTHERS):
                if i % 2 == 0:
                    d = rng.choice([d for d in (k - 3, k - 2) if d >= 3 and d < hi])
                    sample.append(oracle.random_tree_of_diameter(rng, rng.randint(max(lo, d + 1), hi), d))
                else:
                    sample.append(oracle.random_tree(rng, rng.randint(lo, hi)))
            for adj in sample:
                truth = oracle.is_saturated(adj, fam) and oracle.tree_diameter(adj) > 2
                ledger.expect(op, f"witness status of tree with code {oracle.tree_code(adj)}",
                              oracle.tree_code(adj) in codes, truth)


# ---------------------------------------------------------------------------
# graph-catalogue
# ---------------------------------------------------------------------------


class GraphCatalogue:
    """Brute-force saturation numbers over the canonical graph catalogue of
    one order, for every family with a closed-form value."""

    name = "graph-catalogue"

    def __init__(self, seed: int, order: int = CATALOGUE_ORDER):
        self.rng = random.Random(seed)
        self.sweeps = [(order, f) for f in self.rng.sample(CLOSED_FORM_FAMILIES, len(CLOSED_FORM_FAMILIES))]

    def build(self) -> str:
        self.families = {f: parse_family(f) for _, f in self.sweeps}
        return _digest(self.sweeps)

    def calls(self) -> list:
        return [(f"sat n={n} {f}", partial(sat_bruteforce, n, self.families[f])) for n, f in self.sweeps]

    def check_round(self, ledger: Ledger, out: dict) -> None:
        for n, f in self.sweeps:
            op = f"sat n={n} {f}"
            res = out[op]
            if not ledger.completed(op, res):
                continue
            ledger.expect(op, "classes examined", res.classes_examined, oracle.A000088[n])
            want = oracle.sat_closed_form(n, f)
            ledger.expect(op, "value", res.value, want)
            fam = oracle.parse_family(f)
            for w in res.witnesses:
                adj = oracle.decode_graph6(w)
                ledger.expect(op, f"edges of witness {w!r}", oracle.edge_count(adj), want)
                ledger.expect(op, f"brute-force saturation of witness {w!r}",
                              oracle.is_saturated(adj, fam), True)

    def check_deep(self, ledger: Ledger) -> None:
        pass


# ---------------------------------------------------------------------------
# witness-check
# ---------------------------------------------------------------------------


class WitnessCheck:
    """check_saturated on the paper's large saturated witnesses, relabelled
    by a seeded permutation, so that every non-edge must be decided."""

    name = "witness-check"

    def __init__(self, seed: int, witnesses=WITNESSES):
        self.rng = random.Random(seed)
        self.specs = list(witnesses)

    @staticmethod
    def _construct(kind: str, n: int, k: int):
        if kind == "g0":
            return make_g0(n, k)
        if kind == "h0":
            return make_h0(n, k)
        if kind == "tk":
            return make_tk(k)
        return join(empty_graph(1), make_tk(k))

    def build(self) -> str:
        self.items = []
        for kind, n, k in self.specs:
            g = _relabel(self._construct(kind, n, k), self.rng)
            self.items.append((f"check {kind} n={g.n} k={k}", kind, k, g, parse_family(_family_text(kind, k))))
        return _digest([(op, g.rows) for op, _, _, g, _ in self.items])

    def calls(self) -> list:
        return [(op, partial(_verdict, g, fam)) for op, _, _, g, fam in self.items]

    def check_round(self, ledger: Ledger, out: dict) -> None:
        for op, *_ in self.items:
            if ledger.completed(op, out[op]):
                ledger.expect(op, "verdict", out[op], "saturated")

    def check_deep(self, ledger: Ledger) -> None:
        """Edge counts from the benchmark's own BFS, then one deleted leaf
        edge per witness: the program must find a missing edge, and brute
        force must confirm that adding it creates no member."""
        for op, kind, k, g, fam in self.items:
            adj = oracle.from_rows(g.n, g.rows)
            n, m, c = g.n, oracle.edge_count(adj), len(oracle.components(adj))
            if kind == "g0":
                ledger.expect(op, "edges", m, n - c)
                ledger.expect(op, "components", c, n // oracle.order_a1(k))
                ledger.expect(op, "edges against sat(n,{K3,Pk})", m, oracle.sat_k3_pk(n, k))
            elif kind == "h0":
                ledger.expect(op, "cycle rank", m - n + c, 3)
                base = oracle.sat_k3_pk(n, k)
                ledger.expect(op, "edges within sat(n,{K3,Pk}) + 2..6", base + 2 <= m <= base + 6, True)
            elif kind == "tk":
                ledger.expect(op, "order", n, oracle.order_a(k))
                ledger.expect(op, "is a tree", oracle.is_tree(adj), True)
                ledger.expect(op, "diameter", oracle.tree_diameter(adj), k - 2)
            else:
                hubs = [v for v in range(n) if len(adj[v]) == n - 1]
                ledger.expect(op, "hub count", len(hubs), 1)
                ledger.expect(op, "edges", m, (n - 1) + (oracle.order_a(k) - 1))
            # a leaf edge of the tree part: a vertex of degree one, or two
            # when the hub is one of its neighbours
            leaf_deg = 2 if kind == "hub" else 1
            leaves = [v for v in range(n) if len(adj[v]) == leaf_deg]
            leaf = self.rng.choice(leaves)
            parent = max(adj[leaf], key=lambda w: (len(adj[w]) < n - 1, w))
            cut = oracle.without_edge(adj, leaf, parent)
            verdict = check_saturated(_to_graph(cut), fam)
            what = f"verdict after deleting leaf edge ({leaf},{parent})"
            if ledger.expect(op, what, verdict.status, "missing_edge"):
                u, v = verdict.missing_edge
                ofam = oracle.parse_family(_family_text(kind, k))
                ledger.expect(op, "brute-force member in the graph less the leaf edge",
                              oracle.has_member(cut, ofam), False)
                ledger.expect(op, f"brute-force member after adding missing edge ({u},{v})",
                              oracle.has_member(oracle.with_edge(cut, u, v), ofam), False)


WORKLOADS = {w.name: w for w in (TreeScan, GraphCatalogue, WitnessCheck)}


# ---------------------------------------------------------------------------
# per-layer probes
# ---------------------------------------------------------------------------


PROBE_SIZES = {
    "tree_orders": (4, 15),      # enumerate_trees
    "scan": (8, (6, 14)),        # scan_saturated_trees: k and orders
    "tree_sample": 300,          # trees of diameter k-3 / k-2, orders 12..17
    "subtree_sample": 200,
    "graph_order": 7,            # enumerate_graphs; its classes parent the canon probe
    "bruteforce_order": 6,
    "canon_children": 300,       # augmented order-8 children
    "witnesses": (("g0", 1010, 10), ("h0", 610, 10), ("tk", 0, 11), ("hub", 0, 10)),
    "path_calls": 200,           # find_path_of_order on T_11 plus a non-edge
}


def probe_layers(seed: int, tracer, ledger: Ledger, sizes=PROBE_SIZES) -> None:
    """Time each module's public functions on seeded workload-like inputs.

    Every batch of calls is one span whose `count` is the number of calls
    (or of items a call produced); the rates are computed from the spans.
    """
    rng = random.Random(seed)
    lo, hi = sizes["tree_orders"]
    with tracer.span("search.enumerate_trees") as sp:
        sp["count"] = sum(1 for n in range(lo, hi + 1) for _ in enumerate_trees(n))
    ledger.expect("probe enumerate_trees", "trees", sp["count"], sum(oracle.A000055[lo:hi + 1]))

    k, (slo, shi) = sizes["scan"]
    orders = list(range(slo, shi + 1))
    with tracer.span("search.scan_saturated_trees") as sp:
        rep = scan_saturated_trees(orders, k)
        sp.update(count=rep.trees_scanned, checked=rep.trees_checked, saturated=rep.saturated_count)
    ledger.expect("probe scan", "trees_scanned", rep.trees_scanned, sum(oracle.A000055[slo:shi + 1]))
    cpu0 = cpu_seconds()
    with tracer.span("cli._run_scan") as sp:
        sharded = cli._run_scan(orders, k, SCAN_ARGS)
    sp["cpu_s"] = cpu_seconds() - cpu0
    ledger.expect("probe sharded scan", "witnesses", sharded.witnesses, rep.witnesses)

    trees = []
    for _ in range(sizes["tree_sample"]):
        kk = rng.randint(7, 9)
        d = rng.choice((kk - 3, kk - 2))
        tree = _to_graph(oracle.random_tree_of_diameter(rng, rng.randint(12, 17), d))
        trees.append((tree, parse_family(f"K3,P{kk}")))
    calls = (
        ("saturation.check_saturated.forest", lambda t, f: check_saturated(t, f)),
        ("saturation.contains_member", lambda t, f: contains_member(t, f)),
        ("patterns.has_clique", lambda t, f: has_clique(t, 3)),
        ("graphs.distance_matrix", lambda t, f: distance_matrix(t)),
        ("graphs.graph6_encode", lambda t, f: graph6_encode(t)),
    )
    for name, call in calls:
        with tracer.span(name, count=len(trees)):
            for tree, fam in trees:
                call(tree, fam)

    targets = [make_t0k(k), make_t1k(k)]
    wits = [graph6_decode(w.graph6) for w in rep.witnesses]
    wits = rng.sample(wits, min(sizes["subtree_sample"], len(wits)))
    with tracer.span("patterns.subtree_contains", count=len(wits) * len(targets)):
        for w in wits:
            for t in targets:
                subtree_contains(w, t)

    gn = sizes["graph_order"]
    with tracer.span("search.enumerate_graphs") as sp:
        graphs = list(enumerate_graphs(gn))
        sp["count"] = len(graphs)
    ledger.expect("probe enumerate_graphs", "classes", len(graphs), oracle.A000088[gn])
    bn = sizes["bruteforce_order"]
    fam_text = rng.choice(CLOSED_FORM_FAMILIES)
    with tracer.span("search.sat_bruteforce", family=fam_text) as sp:
        res = sat_bruteforce(bn, parse_family(fam_text))
        sp["count"] = res.classes_examined
    ledger.expect("probe sat_bruteforce", "value", res.value, oracle.sat_closed_form(bn, fam_text))

    children = []
    for _ in range(sizes["canon_children"]):
        parent = rng.choice(graphs)
        nbrs = [v for v in range(gn) if rng.random() < 0.5]
        edges = list(parent.edges()) + [(v, gn) for v in nbrs]
        children.append(build_graph(gn + 1, edges))
    with tracer.span("canon.canonical_form", count=len(children)):
        for c in children:
            canonical_form(c)
    with tracer.span("canon.canonical_last_vertex", count=len(children)):
        lasts = [canonical_last_vertex(c) for c in children]
    with tracer.span("canon.same_orbit", count=len(children)):
        for c, last in zip(children, lasts):
            same_orbit(c, gn, last)

    wc = WitnessCheck(seed, sizes["witnesses"])
    with tracer.span("constructions.build", count=len(wc.specs)):
        wc.build()
    strategy = {"g0": "forest", "h0": "triangle_table", "tk": "generic", "hub": "generic"}
    for op, kind, k2, g, fam in wc.items:
        non_edges = g.n * (g.n - 1) // 2 - g.edge_count
        with tracer.span(f"saturation.witness.{strategy[kind]}", count=1, non_edges=non_edges):
            status = check_saturated(g, fam).status
        ledger.expect(f"probe {op}", "verdict", status, "saturated")

    tk = make_tk(11)
    pairs = list(tk.non_edges())
    pairs = [rng.choice(pairs) for _ in range(sizes["path_calls"])]
    augmented = [tk.add_edge(u, v) for u, v in pairs]
    with tracer.span("patterns.find_path_of_order", count=len(augmented)):
        found = sum(find_path_of_order(g, 11) is not None for g in augmented)
    ledger.expect("probe find_path_of_order", "paths found", found, len(augmented))


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metric values from the probe spans, in reference seconds
    where the spans carry a scale."""

    def seconds(s: dict) -> float:
        return (s["end"] - s["start"]) * s.get("scale", 1.0)

    def total(name: str, key: str = "count") -> float:
        return sum(s.get(key, 1) for s in spans if s["name"] == name)

    def busy(name: str) -> float:
        return sum(seconds(s) for s in spans if s["name"] == name)

    def rate(name: str) -> float:
        return total(name) / busy(name)

    scan = next(s for s in spans if s["name"] == "search.scan_saturated_trees" and "checked" in s)
    sharded = next(s for s in spans if s["name"] == "cli._run_scan")
    checks = [s for s in spans if s["name"].startswith("saturation.witness.")]
    return {
        "search.free_trees_per_s": (rate("search.enumerate_trees"), "1/s"),
        "search.scan_trees_per_s": (scan["count"] / seconds(scan), "1/s"),
        "search.trees_scanned": (scan["count"], "count"),
        "search.graph_classes_per_s": (rate("search.enumerate_graphs"), "1/s"),
        "search.bruteforce_classes_per_s": (rate("search.sat_bruteforce"), "1/s"),
        "search.classes_examined": (total("search.sat_bruteforce"), "count"),
        "canon.canonical_form_per_s": (rate("canon.canonical_form"), "1/s"),
        "canon.same_orbit_per_s": (rate("canon.same_orbit"), "1/s"),
        "canon.canonical_last_vertex_per_s": (rate("canon.canonical_last_vertex"), "1/s"),
        "saturation.forest_checks_per_s": (rate("saturation.check_saturated.forest"), "1/s"),
        "saturation.contains_member_per_s": (rate("saturation.contains_member"), "1/s"),
        "saturation.triangle_table_checks_per_s": (rate("saturation.witness.triangle_table"), "1/s"),
        "saturation.generic_checks_per_s": (rate("saturation.witness.generic"), "1/s"),
        "saturation.non_edges_per_s": (
            sum(s["non_edges"] for s in checks) / sum(seconds(s) for s in checks), "1/s"),
        "saturation.saturated_per_check": (scan["saturated"] / scan["checked"], "ratio"),
        "patterns.find_path_of_order_per_s": (rate("patterns.find_path_of_order"), "1/s"),
        "patterns.subtree_contains_per_s": (rate("patterns.subtree_contains"), "1/s"),
        "patterns.has_clique_per_s": (rate("patterns.has_clique"), "1/s"),
        "graphs.distance_matrix_per_s": (rate("graphs.distance_matrix"), "1/s"),
        "graphs.graph6_encode_per_s": (rate("graphs.graph6_encode"), "1/s"),
        "constructions.build_s": (busy("constructions.build"), "s"),
        "cli.cpu_per_wall": (sharded["cpu_s"] / (sharded["end"] - sharded["start"]), "ratio"),
    }
