"""Benchmark entry point for cdl-compass.

Run from the repository root::

    python3 bench/run.py --workload graphs-and-models --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seconds 22          # every workload, one table

With ``--trace 0`` the last stdout line is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics.
Each workload runs in a child process (``worker.py``) started with
``PYTHONPATH=src``; set-up is timed over several fresh children and the
median reported.  Exits non-zero, printing no result, when the program's
source is missing or any child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("cli-cold", "graphs-and-models", "assumption-tests")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start one worker; return it with its set-up time (start until ``ready``)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker failed during set-up ({' '.join(args)})")
    return proc, elapsed


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for i in range(1 if trace else SETUP_RUNS):
        proc, elapsed = start_worker(args)
        setups.append(elapsed)
        try:
            out, _ = proc.communicate("go\n" if i == SETUP_RUNS - 1 or trace else "stop\n",
                                      timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{name}: worker timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def describe(name: str, result: dict) -> str:
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in sorted(result["metrics"].items())]
    return (f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}\n  " + "\n  ".join(parts))


def main() -> int:
    parser = argparse.ArgumentParser(description="cdl-compass benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "cdl_compass", "__init__.py")):
        print("error: run from the repository root; src/cdl_compass is missing", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if args.workload == "all":
                print(describe(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
