"""Per-layer probes for the traced run.

Each probe calls one public function of one layer on seed-generated input
with the tracer installed and reads the call's time off its span: the
inclusive duration under the metric's name and, where the call reaches
other spanned layers, its self time under ``<name>.self``.  Per-call
metrics in microseconds are timed over a loop with the tracer off, since a
span costs about a microsecond itself.  The import layer is measured in
child processes with ``python -X importtime``.
"""

from __future__ import annotations

import glob
import itertools
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import workloads

IMPORT_RUNS = 3
REPEATS = 3  # cheap probes run this often; the median is reported
STATS_SIZES = inputs.ASSUMPTION_SIZES
STAT_TESTS = ("ks", "jb", "cusum", "resid", "pcorr", "anm")


def importtime_totals(stderr: str) -> dict:
    """Cumulative ms of the first top-level import of numpy, scipy and cdl_compass.

    ``-X importtime`` prints children before their parent, indented by
    nesting depth; a module counts when its parent is outside its package.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        rows.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cumulative)))
    totals = {"numpy": 0.0, "scipy": 0.0, "cdl_compass": 0.0}
    for i, (depth, name, cumulative) in enumerate(rows):
        package = name.split(".")[0]
        if package not in totals:
            continue
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if parent.split(".")[0] != package:
            totals[package] += cumulative / 1e3
    return totals


def import_split() -> dict:
    env = workloads.cli_env()
    bare = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, cwd=workloads.ROOT)
        bare.append((time.perf_counter() - start) * 1e3)
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cdl_compass"],
                              env=env, capture_output=True, text=True, check=True, cwd=workloads.ROOT)
        runs.append(importtime_totals(proc.stderr))
    out = {"import.interpreter_ms": (statistics.median(bare), "ms")}
    for key in runs[0]:
        out[f"import.{key}_ms"] = (statistics.median(r[key] for r in runs), "ms")
    return out


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(workloads.ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Probe:
    """Runs calls under the tracer and collects metrics as (value, unit)."""

    def __init__(self, tracer, seed: int):
        self.tracer = tracer
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}

    def span_of(self, fn, *args, **kwargs):
        """Call once; return (result, root span of the call)."""
        start = len(self.tracer.spans)
        result = fn(*args, **kwargs)
        return result, self.tracer.last_root(start)

    def timed(self, name, fn, *args, repeats=REPEATS, unit="ms", with_self=False, **kwargs):
        """Median span duration (and self time) of ``fn`` over ``repeats`` calls."""
        scale = 1e3 if unit == "ms" else 1e6
        durations, selves, result = [], [], None
        for _ in range(repeats):
            result, span = self.span_of(fn, *args, **kwargs)
            durations.append(span.duration * scale)
            selves.append(span.self_time * scale)
        self.metrics[name] = (statistics.median(durations), unit)
        if with_self:
            self.metrics[name + ".self"] = (statistics.median(selves), unit)
        return result

    def per_call(self, name, fn, calls, repeats=REPEATS):
        """Median over repeats of the mean microseconds per call, tracer off."""
        means = []
        for _ in range(repeats):
            start = time.perf_counter()
            for args in calls:
                fn(*args)
            means.append((time.perf_counter() - start) / len(calls) * 1e6)
        self.metrics[name] = (statistics.median(means), "us")

    # -- layers -------------------------------------------------------------

    def untraced(self):
        """Per-call probes; run before the tracer is installed."""
        from cdl_compass import engine, expressions, graphs, registry
        from cdl_compass.lattice import KnowledgeState

        rnd = inputs.discovery_round(self.seed, 0)
        batches = [(graphs.Dag.of(e, n), q) for batch in rnd["dsep"] for n, e, q in batch]
        self.per_call("graphs.d_separated_us.small", graphs.d_separated,
                      [(dag, x, y, z) for dag, qs in batches for x, y, z in qs])
        dag = graphs.unroll(graphs.hidden_confounder_template(), 750)
        self.per_call("graphs.d_separated_us.n3000", graphs.d_separated,
                      [(dag, x, y, z) for x, y, z in inputs.unroll_queries(self.seed, 750)], repeats=1)

        text, coefs = inputs.wide_scm(self.seed)
        bodies = [" + ".join(f"{c!r} * {p}" for p, c in parents.items()) for parents in coefs.values() if parents]
        self.per_call("expressions.parse_expression_us", expressions.parse_expression, [(b,) for b in bodies])
        rng = random.Random(f"env:{self.seed}")
        env = {node: rng.gauss(0.0, 1.0) for node in coefs}
        parsed = [(expressions.parse_expression(b), env) for b in bodies]
        self.per_call("expressions.evaluate_expression_us", expressions.evaluate_expression, parsed)

        catalog = registry.default_catalog()
        states = [KnowledgeState.from_triple(t) for t in workloads.static_triples()]
        pairs = [(catalog, a, b) for a, b in itertools.product(states, states)]
        self.per_call("engine.plan_pipeline_us", engine.plan_pipeline, pairs)
        pipeline = inputs.FIXTURE_PIPELINE
        self.per_call("engine.validate_pipeline_us", engine.validate_pipeline,
                      [(catalog, pipeline, s) for s in states])
        self.per_call("engine.audit_transitions_us", engine.audit_transitions, [(catalog,)] * 50)

    def traced(self):
        from cdl_compass import graphs, registry, scm, stats

        t = self.tracer
        self.timed("registry.default_catalog_ms", registry.default_catalog)

        # graphs at size
        template = graphs.hidden_confounder_template()
        for steps, label in ((250, "n1000"), (750, "n3000")):
            repeats = REPEATS if steps == 250 else 1
            builds, orders = [], []
            for _ in range(repeats):
                dag, span = self.span_of(graphs.unroll, template, steps)
                build = next(s for s in t.spans if s.name == "graphs.Dag.of" and s.start >= span.start)
                builds.append(build.duration * 1e3)
                _, span = self.span_of(dag.topological_order)
                orders.append(span.duration * 1e3)
            self.metrics[f"graphs.dag_build_ms.{label}"] = (statistics.median(builds), "ms")
            self.metrics[f"graphs.topological_order_ms.{label}"] = (statistics.median(orders), "ms")
        fresh = graphs.unroll(template, 750)
        self.timed("graphs.descendants_ms.n3000", fresh.descendants, "X1", repeats=1)

        # discovery at small size, with the work counted
        rng = random.Random(f"probe:{self.seed}")
        for n, p in ((5, 0.5), (8, 0.35)):
            names, edges = inputs.random_dag(rng, n, p)
            self.timed(f"graphs.implied_independencies_ms.n{n}", graphs.implied_independencies,
                       graphs.Dag.of(edges, names))
        rnd = inputs.discovery_round(self.seed, 0)
        checked = dsep = members = 0
        for n in (4, 5):
            names, edges = next((a, b) for a, b in rnd["recover"] if len(a) == n)
            signature = graphs.parse_constraints("\n".join(inputs.signature_lines(names, edges)), names)
            t.counts.clear()
            found = self.timed(f"graphs.enumerate_mec_ms.n{n}", graphs.enumerate_mec, signature, names,
                               repeats=1)
            checked += t.counts.get("graphs.consistent_with", 0)
            dsep += t.counts.get("graphs.d_separated", 0)
            members += len(found)
        self.metrics["graphs.mec_dags_checked"] = (checked, "count")
        self.metrics["graphs.mec_dsep_calls"] = (dsep, "count")
        self.metrics["graphs.mec_yield"] = (members / checked, "ratio")

        # structural models and CSV
        text, _ = inputs.wide_scm(self.seed)
        wide = self.timed("scm.parse_scm_ms.k1000", scm.parse_scm, text, repeats=1, with_self=True)
        self.timed("scm.sample_ms.wide", scm.sample, wide, 2000, seed=self.seed, with_self=True)
        narrow = scm.parse_scm(inputs.narrow_scm(self.seed)[0])
        _, span = self.span_of(scm.sample, narrow, 1_000_000, seed=self.seed)
        self.metrics["scm.sample_rows_per_s.narrow"] = (1_000_000 / span.duration, "rows/s")
        rows = 100_000
        data = scm.sample(narrow, rows, seed=self.seed)
        tmpdir = os.path.join(workloads.ROOT, ".bench_tmp", f"probe-{os.getpid()}")
        os.makedirs(tmpdir, exist_ok=True)
        path = os.path.join(tmpdir, "rows.csv")
        try:
            _, span = self.span_of(data.to_csv, path)
            self.metrics["scm.to_csv_rows_per_s"] = (rows / span.duration, "rows/s")
            _, span = self.span_of(scm.Dataset.from_csv, path)
            self.metrics["scm.from_csv_rows_per_s"] = (rows / span.duration, "rows/s")
        finally:
            os.remove(path)
            os.rmdir(tmpdir)

        # statistics
        model = scm.parse_scm(inputs.CHAIN_SCM)
        for n in STATS_SIZES:
            d = scm.sample(model, n, seed=self.seed)
            x, y, z = d.column("X"), d.column("Y"), d.column("Z")
            resid = y - np.polyval(np.polyfit(x, y, 1), x)
            calls = {
                "ks": (stats.ks_test, (x, stats.gaussian_cdf()), {}),
                "jb": (stats.jarque_bera_test, (x,), {}),
                "cusum": (stats.cusum_linearity_test, (x, y), {}),
                "resid": (stats.residual_independence_test, (x, resid), {"seed": self.seed}),
                "pcorr": (stats.partial_correlation_ci_test, ({"X": x, "Y": y, "Z": z}, "X", "Z", ("Y",)), {}),
                "anm": (stats.anm_direction, (x, y), {"seed": self.seed}),
            }
            for test in STAT_TESTS:
                fn, args, kwargs = calls[test]
                self.timed(f"stats.{test}_ms.n{n}", fn, *args, with_self=test == "anm", **kwargs)
        per_perm = self.metrics["stats.resid_ms.n1000"][0] / 1e3 / 999
        self.metrics["stats.resid_permutations_per_s"] = (1.0 / per_perm, "1/s")

        # the command line, warm, in process
        cli = workloads.CliCold(self.seed)
        cli.build_argvs()
        for sub, argv in cli.argvs.items():
            self.timed(f"cli.main_ms.{sub}", workloads.replay_cli, argv, with_self=True)

    def run(self) -> dict:
        self.untraced()
        self.tracer.install()
        try:
            self.traced()
        finally:
            self.tracer.uninstall()
        self.metrics.update(import_split())
        self.metrics["src_lines"] = (src_lines(), "lines")
        return self.metrics
