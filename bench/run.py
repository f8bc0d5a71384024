"""satforge benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload tree-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run repeats, for about `--seconds` seconds, a set-up
in a fresh interpreter followed by one whole round of the workload (at
least MIN_ROUNDS times, with at least MIN_SETUPS set-ups), checks every
output, and reports the median over the rounds and set-ups of each timing.  With `--trace 1` it runs one traced round and the
per-layer probes, and writes the spans to
`bench/out/trace-<workload>-<seed>.json`.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

Timings are in reference seconds (see `measure.py`); the raw seconds go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import Clock, Tracer, peak_rss_mib

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path[:0] = [str(BENCH), str(SRC)]

# A run times at least MIN_ROUNDS rounds, so that no run rests on a single
# sample of the host's speed, and at least MIN_SETUPS set-ups.
MIN_ROUNDS = 2
MIN_SETUPS = 7

# Set-up as a user pays it: a fresh interpreter imports the program and
# builds the workload's inputs, then prints a digest of them.
SETUP_CODE = (
    "import ast, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "print(workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), **ast.literal_eval(sys.argv[5])).build())"
)


def setup_sample(name: str, seed: int, params: dict, digest: str, ledger) -> Clock:
    """A fresh interpreter imports satforge and builds the inputs."""
    clock = Clock()
    with clock.interval():
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), name, str(seed), repr(params)],
            capture_output=True, text=True, timeout=120,
        )
    ledger.expect("setup", "exit code of a fresh set-up", proc.returncode, 0)
    ledger.expect("setup", "digest of inputs built by a fresh interpreter", proc.stdout.strip(), digest)
    return clock


def timed_round(wl, tracer: Tracer | None = None) -> tuple[dict, Clock]:
    """Every operation of one round, each timed on its own; an operation
    that raises leaves its exception as its output."""
    out, clock = {}, Clock()
    for op, call in wl.calls():
        with clock.interval():
            try:
                if tracer is None:
                    out[op] = call()
                else:
                    with tracer.span(op):
                        out[op] = call()
            except Exception as exc:  # counted as a failed operation
                out[op] = exc
    return out, clock


def run(name: str, seed: int, seconds: float, trace: bool, params: dict | None = None) -> dict:
    """One benchmark run; `params` resizes the workload (used by the tests)."""
    import workloads

    params = params or {}
    ledger = workloads.Ledger()
    wl = workloads.WORKLOADS[name](seed, **params)
    digest = wl.build()
    if trace:
        return _traced(wl, seed, ledger)

    setups, rounds, outs = [], [], []
    begin = time.perf_counter()
    while True:
        setups.append(setup_sample(name, seed, params, digest, ledger))
        out, clock = timed_round(wl)
        outs.append(out)
        rounds.append(clock)
        projected = time.perf_counter() - begin + setups[-1].raw_wall + clock.raw_wall
        if len(rounds) >= MIN_ROUNDS and projected > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(setup_sample(name, seed, params, digest, ledger))
    rss = peak_rss_mib()
    _check(wl, ledger, outs)
    print(f"raw seconds per round: wall {[round(c.raw_wall, 4) for c in rounds]} "
          f"cpu {[round(c.raw_cpu, 4) for c in rounds]} "
          f"setup {[round(c.raw_wall, 4) for c in setups]}", file=sys.stderr)
    return _result(ledger, {
        "wall_s": (statistics.median(c.wall for c in rounds), "s"),
        "cpu_s": (statistics.median(c.cpu for c in rounds), "s"),
        "setup_s": (statistics.median(c.wall for c in setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
    })


def _check(wl, ledger, outs) -> None:
    for out in outs:
        ledger.attempt(out)
        wl.check_round(ledger, out)
    wl.check_deep(ledger)


def _traced(wl, seed: int, ledger) -> dict:
    import workloads

    round_tracer, probe_tracer = Tracer(), Tracer(scaled=True)
    with round_tracer.span("round", workload=wl.name):
        out, clock = timed_round(wl, round_tracer)
    _check(wl, ledger, [out])
    workloads.probe_layers(seed, probe_tracer, ledger)
    metrics = workloads.layer_metrics(probe_tracer.spans)
    metrics["trace.wall_s"] = (clock.wall, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-{seed}.json"
    path.write_text(json.dumps({"round": round_tracer.spans, "probes": probe_tracer.spans,
                                "metrics": metrics}, default=str))
    return _result(ledger, metrics)


def _result(ledger, metrics: dict) -> dict:
    for line in ledger.notes + [f"wrong: {w}" for w in ledger.wrong]:
        print(line, file=sys.stderr)
    return {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tree-scan", "graph-catalogue", "witness-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "satforge" / "__init__.py").is_file():
        print(f"error: no satforge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
