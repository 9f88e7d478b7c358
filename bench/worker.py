"""One workload in one process: set up, say ``ready``, then run or stop.

``run.py`` starts this script several times per run to time set-up; only
the last copy gets ``go`` on stdin and runs the timed loop.  The result is
one JSON line on stdout.  With ``--trace 1`` the loop runs every round twice,
plain and traced, and the per-layer probes follow.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
import spans
from workloads import WORKLOADS, Tally


def timed_loop(workload, seconds: float, tracer=None) -> tuple[Tally, Tally | None]:
    """Whole rounds until ``seconds`` have passed.  With a tracer, each
    round runs once plain and then once more, on fresh state, traced."""
    plain, traced = Tally(), (Tally() if tracer else None)
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            plain.run(op)
        if tracer is not None:
            twins = workload.traced_round(r)
            if twins is None:
                twins = workload.round(r)
                tracer.install()
            try:
                for op in twins:
                    traced.run(op)
            finally:
                tracer.uninstall()
        r += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, tally: Tally) -> dict:
    return {
        "ops_per_s": (tally.ops_per_s(), "ops/s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def per_layer(workload, seed: int, seconds: float) -> tuple[list[Tally], dict]:
    tracer = spans.Tracer()
    plain, traced = timed_loop(workload, seconds, tracer)
    metrics = layers.Probe(tracer, seed).run()
    metrics["trace.overhead_pct"] = ((traced.busy_s / plain.busy_s - 1.0) * 100.0, "%")
    out_dir = os.path.join(os.getcwd(), ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"{workload.name}-seed{seed}.json"))
    return [plain, traced], metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    print("ready", flush=True)
    try:
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.trace:
            tallies, metrics = per_layer(workload, args.seed, args.seconds)
        else:
            tally, _ = timed_loop(workload, args.seconds)
            tallies, metrics = [tally], end_to_end(workload, tally)
    finally:
        workload.close()
    incorrect = [msg for t in tallies for msg in t.incorrect]
    for msg in incorrect[:20]:
        print(f"incorrect: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not incorrect,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
