"""Command-line front end: constructions, saturation checks, brute-force
runs, and claim-verification campaigns with machine-readable reports.

Exit codes: 0 ok/saturated, 1 campaign failure, 2 usage or input error
(including an unreadable or missing input file), 3 graph contains a member,
4 missing edge found, 5 path-search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .constructions import (
    make_erdos_kp,
    make_g0,
    make_h0,
    make_small_tree,
    make_star,
    make_t0k,
    make_t1k,
    make_tk,
    saturated_tree_of_order,
)
from .formulas import (
    linear_forest_sat_bounds,
    order_constant,
    sat_join_k1,
    sat_k3_cup_pk_bounds,
    sat_k3_pk,
    sat_kp,
    sat_pk,
)
from .graphs import (
    Graph,
    connected_components,
    diameter,
    graph6_decode,
    graph6_encode,
    join,
    parse_edgelist,
    write_edgelist,
)
from .canon import canonical_form
from .patterns import PathSearchBudgetError
from .saturation import (
    CONTAINS_MEMBER,
    MISSING_EDGE,
    check_saturated,
    parse_family,
)
from .search import (
    BudgetExceededError,
    claimed_patterns,
    graph_budget,
    merge_scan_reports,
    sat_bruteforce,
    scan_saturated_trees,
)

EXIT_OK = 0
EXIT_CAMPAIGN_FAIL = 1
EXIT_USAGE = 2
EXIT_CONTAINS = 3
EXIT_MISSING = 4
EXIT_BUDGET = 5


class UsageError(ValueError):
    pass


def _parse_int_list(spec: str) -> list[int]:
    """Accepts "10", "9,11,14" and "9..14"."""
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",") if tok.strip()]


def _load_graph(path: str, fmt: str | None) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "edgelist":
        return parse_edgelist(data.decode("ascii"))
    if fmt != "graph6":
        text = data.decode("ascii", errors="replace")
        first = text.splitlines()[0].split() if text.strip() else []
        if len(first) == 2 and all(t.isdigit() for t in first):
            return parse_edgelist(text)
    lines = [ln for ln in data.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise UsageError(f"{path}: expected one graph6 line, found {len(lines)}")
    return graph6_decode(lines[0])


def _write_graph(g: Graph, path: str | None, fmt: str) -> None:
    payload = (
        graph6_encode(g) + b"\n" if fmt == "graph6" else write_edgelist(g).encode()
    )
    if path is None:
        sys.stdout.write(payload.decode("ascii"))
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

_CONSTRUCT_KINDS = (
    "tk",
    "t0k",
    "t1k",
    "t1",
    "t2",
    "t3",
    "star",
    "erdos",
    "sattree",
    "g0",
    "h0",
)


def _need(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"construct {args.kind} needs --{name}")
    return value


def cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "tk":
        g = make_tk(_need(args, "k"))
    elif kind == "t0k":
        g = make_t0k(_need(args, "k"))
    elif kind == "t1k":
        g = make_t1k(_need(args, "k"))
    elif kind in ("t1", "t2", "t3"):
        g = make_small_tree(kind.upper())
    elif kind == "star":
        g = make_star(_need(args, "n"))
    elif kind == "erdos":
        g = make_erdos_kp(_need(args, "n"), _need(args, "p"))
    elif kind == "sattree":
        g = saturated_tree_of_order(_need(args, "n"), _need(args, "k"))
    elif kind == "g0":
        g = make_g0(_need(args, "n"), _need(args, "k"))
    else:
        g = make_h0(_need(args, "n"), _need(args, "k"))
    _write_graph(g, args.out, args.format)
    d = diameter(g)
    fields = {
        "order": g.n,
        "edges": g.edge_count,
        "components": len(connected_components(g)),
        "diam": "inf" if d == float("inf") else int(d),
    }
    stream = sys.stderr if args.out is None else sys.stdout
    if args.json:
        print(json.dumps(fields, sort_keys=True), file=stream)
    else:
        print(" ".join(f"{k}={v}" for k, v in fields.items()), file=stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check / bruteforce / formula
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    fam = parse_family(args.family)
    g = _load_graph(args.graph, args.format)
    verdict = check_saturated(g, fam, threads=args.threads)
    out = verdict.to_json_dict()
    out["family"] = str(fam)
    out["order"] = g.n
    out["edges"] = g.edge_count
    print(json.dumps(out, sort_keys=True))
    if verdict.status == CONTAINS_MEMBER:
        return EXIT_CONTAINS
    if verdict.status == MISSING_EDGE:
        return EXIT_MISSING
    return EXIT_OK


def cmd_bruteforce(args: argparse.Namespace) -> int:
    fam = parse_family(args.family)
    if args.n > graph_budget():
        print(
            f"error: order {args.n} over enumeration budget {graph_budget()}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    result = sat_bruteforce(args.n, fam)
    print(
        json.dumps(
            {
                "n": args.n,
                "family": str(fam),
                "value": result.value,
                "witnesses": [w.decode("ascii") for w in result.witnesses],
                "classes_examined": result.classes_examined,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


_FORMULAS = (
    "a",
    "a0",
    "a1",
    "sat-pk",
    "sat-k3-pk",
    "sat-kp",
    "sat-k3-cup-pk",
    "sat-join-k1",
    "linear-forest",
)


def cmd_formula(args: argparse.Namespace) -> int:
    name = args.name
    out: dict = {"formula": name}
    if name in ("a", "a0", "a1"):
        k = _need(args, "k")
        out["k"] = k
        out["value"] = order_constant(name.upper(), k)
        out["validity"] = "k >= 8" if name == "a1" else "k >= 6"
    elif name == "sat-pk":
        n, k = _need(args, "n"), _need(args, "k")
        out.update(n=n, k=k, value=sat_pk(n, k), validity="k >= 6 and n >= A(k)")
    elif name == "sat-k3-pk":
        n, k = _need(args, "n"), _need(args, "k")
        out.update(n=n, k=k, value=sat_k3_pk(n, k), validity="k >= 10 and n >= A1(k)")
    elif name == "sat-kp":
        n, p = _need(args, "n"), _need(args, "p")
        out.update(n=n, p=p, value=sat_kp(n, p), validity="n >= p >= 3")
    elif name == "sat-k3-cup-pk":
        n, k = _need(args, "n"), _need(args, "k")
        b = sat_k3_cup_pk_bounds(n, k)
        out.update(
            n=n, k=k, lower=b.lower, upper=b.upper,
            validity="k >= 10 and n >= 6*A1(k)",
        )
    elif name == "sat-join-k1":
        n = _need(args, "n")
        if args.sat_f is None:
            raise UsageError("sat-join-k1 needs --sat-f")
        out.update(
            n=n, sat_f=args.sat_f, value=sat_join_k1(n, args.sat_f), validity="n >= 2"
        )
    else:
        n = _need(args, "n")
        if not args.orders:
            raise UsageError("linear-forest needs --orders")
        orders = _parse_int_list(args.orders)
        b = linear_forest_sat_bounds(n, orders)
        out.update(
            n=n, orders=orders, lower=b.lower, upper=b.upper,
            validity="orders descending, smallest in {4} or >= 6",
        )
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify campaigns
# ---------------------------------------------------------------------------


def _case(case_id: str, claim: str, expected, actual) -> dict:
    return {
        "case": case_id,
        "claim": claim,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def _campaign_lem_2_4(args) -> list[dict]:
    ks = _parse_int_list(args.k) if args.k else list(range(9, 15))
    cases = []
    for k in ks:
        fam = parse_family(f"K3,P{k}")
        for label, make in (("short", make_t0k), ("sparse", make_t1k)):
            verdict = check_saturated(make(k), fam, threads=args.threads)
            cases.append(
                _case(f"k={k}/{label}", "layered tree is saturated",
                      "saturated", verdict.status)
            )
    return cases


def _g0_pairs(args) -> list[tuple[int, int]]:
    if args.k or args.n:
        k = int(args.k) if args.k else 10
        ns = _parse_int_list(args.n) if args.n else [2 * order_constant("A1", k)]
        return [(n, k) for n in ns]
    return [(20, 10), (23, 10), (40, 10), (100, 10), (137, 11), (76, 12)]


def _campaign_thm_1_1(args) -> list[dict]:
    cases = []
    for n, k in _g0_pairs(args):
        g = make_g0(n, k)
        want = n - n // order_constant("A1", k)
        cases.append(
            _case(f"n={n},k={k}/edges", "witness edge count matches formula",
                  want, g.edge_count)
        )
        cases.append(
            _case(f"n={n},k={k}/formula", "formula value", want, sat_k3_pk(n, k))
        )
        verdict = check_saturated(g, parse_family(f"K3,P{k}"), threads=args.threads)
        cases.append(
            _case(f"n={n},k={k}/saturated", "witness is saturated",
                  "saturated", verdict.status)
        )
    return cases


def _campaign_lem_3_1(args) -> list[dict]:
    cases = []
    for n, k in _g0_pairs(args):
        g = make_g0(n, k)
        a1 = order_constant("A1", k)
        cases.append(
            _case(f"n={n},k={k}/components", "component count",
                  n // a1, len(connected_components(g)))
        )
        cases.append(
            _case(f"n={n},k={k}/edges", "edge count", n - n // a1, g.edge_count)
        )
        verdict = check_saturated(g, parse_family(f"K3,P{k}"), threads=args.threads)
        cases.append(
            _case(f"n={n},k={k}/saturated", "saturated", "saturated", verdict.status)
        )
    return cases


def _h0_pairs(args) -> list[tuple[int, int]]:
    if args.k or args.n:
        k = int(args.k) if args.k else 10
        ns = _parse_int_list(args.n) if args.n else [6 * order_constant("A1", k)]
        return [(n, k) for n in ns]
    return [(120, 10), (200, 10), (168, 11)]


def _campaign_h0(args, with_bounds: bool) -> list[dict]:
    cases = []
    for n, k in _h0_pairs(args):
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
        verdict = check_saturated(h, parse_family(f"K3+P{k}"), threads=args.threads)
        cases.append(
            _case(f"n={n},k={k}/saturated", "witness is saturated",
                  "saturated", verdict.status)
        )
    return cases


def _campaign_thm_1_4(args) -> list[dict]:
    ns = _parse_int_list(args.n) if args.n else [6, 7]
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
            check_saturated(join(make_star(1), graph6_decode(w)), fam_join).is_saturated
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
            ok = False
            for v in hubs:
                from .graphs import delete_vertex

                h = delete_vertex(g, v)
                if (
                    h.edge_count == rhs.value
                    and check_saturated(h, fam_forest).is_saturated
                ):
                    ok = True
                    break
            hub_ok = hub_ok and ok
        cases.append(
            _case(f"n={n}/hub-deletion", "every minimum hub-join witness peels "
                  "to a minimum base witness", True, hub_ok)
        )
    return cases


_PROP_5_2_ORDERS = {5: (4, 12), 6: (4, 12), 7: (6, 17), 8: (6, 17), 9: (6, 17)}
# the least-order saturated non-star trees per k; containment is checked
# against the scan's own targets, which add T1_8 at k=8
_PROP_5_2_CLAIMED = {
    5: ("T1",),
    6: ("T2", "T3"),
    7: ("T0_7",),
    8: ("T0_8",),
    9: ("T0_9", "T1_9"),
}


def _campaign_prop_5_2(args) -> list[dict]:
    ks = _parse_int_list(args.k) if args.k else [5, 6, 7, 8, 9]
    cases = []
    for k in ks:
        lo, hi = _PROP_5_2_ORDERS[k]
        rep = _run_scan(range(lo, hi + 1), k, args)
        claimed = _PROP_5_2_CLAIMED[k]
        names = {canonical_form(g): name for name, g in claimed_patterns(k)}
        least = min((w.order for w in rep.witnesses), default=None)
        codes = [
            canonical_form(graph6_decode(w.graph6))
            for w in rep.witnesses
            if w.order == least
        ]
        minimum = sorted(names.get(c, c.decode("ascii")) for c in codes)
        cases.append(
            _case(
                f"k={k}/minimum",
                f"the least-order saturated non-star trees of orders {lo}..{hi} "
                f"are exactly {'/'.join(claimed)}",
                sorted(claimed),
                minimum,
            )
        )
        bad = [
            w.graph6.decode("ascii") for w in rep.witnesses if not w.contains_any()
        ]
        cases.append(
            _case(
                f"k={k}/containment",
                f"every saturated non-star tree of orders {lo}..{hi} "
                f"contains one of {'/'.join(rep.pattern_names)}",
                [],
                bad,
            )
        )
    return cases


def _scan_shard(params: tuple) -> "object":
    orders, k, prefilter, shards, shard = params
    return scan_saturated_trees(
        orders, k, exclude_stars=True, prefilter=prefilter, shards=shards, shard=shard
    )


def _run_scan(orders, k: int, args):
    prefilter = not args.no_prefilter
    shards = max(1, args.threads)
    if shards == 1:
        return scan_saturated_trees(list(orders), k, prefilter=prefilter)
    jobs = [(list(orders), k, prefilter, shards, s) for s in range(shards)]
    with ProcessPoolExecutor(max_workers=shards) as pool:
        reports = list(pool.map(_scan_shard, jobs))
    return merge_scan_reports(reports)


def _campaign_lem_2_3_k10(args) -> list[dict]:
    rep = _run_scan([20], 10, args)
    bad = [
        w.graph6.decode("ascii") for w in rep.witnesses if not w.contains_any()
    ]
    t1k_code = canonical_form(make_t1k(10)).decode("ascii")
    iso = [
        w.graph6.decode("ascii")
        for w in rep.witnesses
        if canonical_form(graph6_decode(w.graph6)).decode("ascii") == t1k_code
    ]
    return [
        _case("order-20/containment",
              "every saturated non-star tree contains a minimum variant", [], bad),
        _case("order-20/sparse-witness",
              "the sparse layered tree itself appears", True, len(iso) >= 1),
        _case("order-20/scan-count", "scan looked at every tree",
              True, rep.trees_scanned == 823065),
    ]


_CAMPAIGNS = {
    "thm-1.1": _campaign_thm_1_1,
    "thm-1.2-upper": lambda a: _campaign_h0(a, with_bounds=True),
    "thm-1.4": _campaign_thm_1_4,
    "lem-2.4": _campaign_lem_2_4,
    "lem-3.1": _campaign_lem_3_1,
    "lem-3.2": lambda a: _campaign_h0(a, with_bounds=False),
    "prop-5.2": _campaign_prop_5_2,
    "lem-2.3-k10": _campaign_lem_2_3_k10,
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.campaign not in _CAMPAIGNS:
        print(
            f"error: unknown campaign {args.campaign!r}; "
            f"known: {', '.join(sorted(_CAMPAIGNS))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    start = time.time()
    cases = _CAMPAIGNS[args.campaign](args)
    report = {
        "schema_version": 1,
        "campaign": args.campaign,
        "tool_version": __version__,
        "inputs": {
            "k": args.k,
            "n": args.n,
            "no_prefilter": args.no_prefilter,
        },
        "cases": cases,
        "passed": all(c["pass"] for c in cases),
    }
    if not args.no_timestamp:
        report["wall_time_s"] = round(time.time() - start, 3)
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK if report["passed"] else EXIT_CAMPAIGN_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="satforge",
        description="Construct, check and exhaustively verify saturated graphs.",
    )
    ap.add_argument("--version", action="version", version=f"satforge {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an extremal graph")
    p.add_argument("kind", choices=_CONSTRUCT_KINDS)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("-o", "--out")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="decide family-saturation of a graph file")
    p.add_argument("graph")
    p.add_argument("--family", required=True)
    p.add_argument("--format", choices=("graph6", "edgelist"))
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bruteforce", help="saturation number by exhaustion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--budget", help="override enumeration caps, e.g. 'graphs=9'")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("formula", help="closed-form values as JSON")
    p.add_argument("name", choices=_FORMULAS)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--sat-f", type=int)
    p.add_argument("--orders")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("verify", help="run a claim-verification campaign")
    p.add_argument("campaign")
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--threads", type=int, default=max(1, os.cpu_count() or 1))
    p.add_argument("--no-prefilter", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("--budget", help="override enumeration caps, e.g. 'trees=24'")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if getattr(args, "budget", None):
        os.environ["SATFORGE_BUDGET"] = args.budget
    try:
        return args.func(args)
    except (UsageError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PathSearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
