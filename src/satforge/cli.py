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
from functools import partial

from . import __version__
from .claims import CLAIMS, UsageError, run_claim
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
    SatBounds,
    linear_forest_sat_bounds,
    order_constant,
    sat_join_k1,
    sat_k3_cup_pk_bounds,
    sat_k3_pk,
    sat_kp,
    sat_pk,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    connected_components,
    diameter,
    graph6_decode,
    graph6_encode,
    parse_edgelist,
    write_edgelist,
)
from .patterns import PathSearchBudgetError
from .saturation import (
    CONTAINS_MEMBER,
    MISSING_EDGE,
    check_saturated,
    parse_family,
)
from .search import BudgetExceededError, ScanWorkerError, sat_bruteforce, scan_saturated_trees

EXIT_OK = 0
EXIT_CAMPAIGN_FAIL = 1
EXIT_USAGE = 2
EXIT_CONTAINS = 3
EXIT_MISSING = 4
EXIT_BUDGET = 5
EXIT_WORKER = 6


def _parse_int_list(spec: str) -> list[int]:
    """Accepts "10", "9,11,14" and "9..14"; a list with no value, such as
    "," or "14..9", is refused."""
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    if not values:
        raise UsageError(f"the list {spec!r} holds no value")
    return values


def _thread_count(text: str) -> int:
    """A --threads value: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an integer of at least 1, got {text!r}")
    return int(text)


def _load_graph(path: str, fmt: str | None) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "edgelist":
        try:
            return parse_edgelist(data.decode("ascii"))
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not ASCII text") from None
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

# kind -> (builder, the options it needs, in the builder's argument order,
# and, for a layered tree, the order constant that gives its order from k;
# any other kind has order --n, or a handful of vertices)
_CONSTRUCT = {
    "tk": (make_tk, ("k",), "A"),
    "t0k": (make_t0k, ("k",), "A0"),
    "t1k": (make_t1k, ("k",), "A1"),
    "t1": (lambda: make_small_tree("T1"), (), None),
    "t2": (lambda: make_small_tree("T2"), (), None),
    "t3": (lambda: make_small_tree("T3"), (), None),
    "star": (make_star, ("n",), None),
    "erdos": (make_erdos_kp, ("n", "p"), None),
    "sattree": (saturated_tree_of_order, ("n", "k"), None),
    "g0": (make_g0, ("n", "k"), None),
    "h0": (make_h0, ("n", "k"), None),
}


def _need(args: argparse.Namespace, name: str) -> int | str:
    """The value of the option that `construct KIND` or `formula NAME` needs
    and that argparse stores as name (--sat-f is stored as sat_f)."""
    value = getattr(args, name)
    if value is None:
        what = args.kind if args.command == "construct" else args.name
        raise UsageError(f"{args.command} {what} needs --{name.replace('_', '-')}")
    return value


def cmd_construct(args: argparse.Namespace) -> int:
    """Refuses an order above MAX_ORDER before the builder allocates.

    Every kind that takes k builds a graph of order at least one of k's
    order constants, and each of them is at least 2^(k//2 - 4) (the least
    is A1 = 9 * 2^(k//2 - 4) + 2 at even k).  So a k with k//2 - 4 at or
    above MAX_ORDER's bit length is refused from that exponent, before a
    constant of about k/2 bits is built."""
    build, needs, constant = _CONSTRUCT[args.kind]
    values = [_need(args, name) for name in needs]
    if "k" in needs and args.k // 2 - 4 >= MAX_ORDER.bit_length():
        raise UsageError(
            f"construct {args.kind}: expected an order of at most {MAX_ORDER}, "
            f"found one of at least 2^{args.k // 2 - 4}"
        )
    order = order_constant(constant, *values) if constant else (args.n if "n" in needs else 0)
    if order > MAX_ORDER:
        raise UsageError(f"construct {args.kind}: expected an order of at most {MAX_ORDER}, found {order}")
    g = build(*values)
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
    verdict = check_saturated(g, fam)
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


# name -> (the options it needs, in the function's argument order, the
# function, its validity range)
_FORMULAS = {
    "a": (("k",), partial(order_constant, "A"), "k >= 6"),
    "a0": (("k",), partial(order_constant, "A0"), "k >= 6"),
    "a1": (("k",), partial(order_constant, "A1"), "k >= 8"),
    "sat-pk": (("n", "k"), sat_pk, "k >= 6 and n >= A(k)"),
    "sat-k3-pk": (("n", "k"), sat_k3_pk, "k >= 10 and n >= A1(k)"),
    "sat-kp": (("n", "p"), sat_kp, "n >= p >= 3"),
    "sat-k3-cup-pk": (("n", "k"), sat_k3_cup_pk_bounds, "k >= 10 and n >= 6*A1(k)"),
    "sat-join-k1": (("n", "sat_f"), sat_join_k1, "n >= 2"),
    "linear-forest": (
        ("n", "orders"),
        linear_forest_sat_bounds,
        "orders descending, smallest in {4} or >= 6",
    ),
}


def cmd_formula(args: argparse.Namespace) -> int:
    needs, formula, validity = _FORMULAS[args.name]
    values = {name: _need(args, name) for name in needs}
    if "orders" in values:
        values["orders"] = _parse_int_list(values["orders"])
    result = formula(*values.values())
    out = {"formula": args.name, **values, "validity": validity}
    if isinstance(result, SatBounds):
        out.update(lower=result.lower, upper=result.upper)
    else:
        out["value"] = result
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify campaigns
# ---------------------------------------------------------------------------


def _run_scan(orders, k: int, args):
    """The tree scan under `verify`'s --threads option: the one place that
    turns it into a scan.  `verify` hands it to `run_claim`, so every tree
    claim runs the scan through it."""
    return scan_saturated_trees(orders, k, threads=args.threads)


def cmd_verify(args: argparse.Namespace) -> int:
    start = time.time()
    cases = run_claim(
        args.campaign,
        None if args.k is None else _parse_int_list(args.k),
        None if args.n is None else _parse_int_list(args.n),
        partial(_run_scan, args=args),
    )
    report = {
        "schema_version": 2,
        "campaign": args.campaign,
        "tool_version": __version__,
        "inputs": {"k": args.k, "n": args.n},
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
    p.add_argument("kind", choices=tuple(_CONSTRUCT))
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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bruteforce", help="saturation number by exhaustion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("formula", help="closed-form values as JSON")
    p.add_argument("name", choices=_FORMULAS)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--sat-f", type=int)
    p.add_argument("--orders")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser(
        "verify",
        help="run a claim-verification campaign",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="campaigns:\n" + "\n".join(
            f"  {name:14} {claim.statement}" for name, claim in CLAIMS.items()
        ),
    )
    p.add_argument("campaign")
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--threads", type=_thread_count, default=max(1, os.cpu_count() or 1))
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PathSearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ScanWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
