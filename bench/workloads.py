"""The four workloads: operations, their inputs, and the checks on their outputs.

A workload builds its inputs in ``setup()`` and hands out one round of
operations at a time from ``round(r)``; every round holds the same
operations, so the share of known-fault operations in ``attempted`` is the
same in every run.  Each operation is timed on its own; its check runs
afterwards, outside the timed call.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np

import inputs
import oracles

ROOT = os.getcwd()
FIXTURES = "bench/fixtures"
CATALOG_FILE = "src/cdl_compass/data/default_catalog.json"
SIX_NODE_DEADLINE_S = 1.0


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own computation."""


class DeadlineExceeded(Exception):
    """An operation ran past the deadline the benchmark set for it."""


class KnownFault(Exception):
    """The output shows exactly the named defect of a known-fault operation."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def near(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_tol)


class Op:
    """One timed call. ``fault`` is set on an operation that fails on the
    parent program because of a named defect: the one exception type
    (``DeadlineExceeded`` or ``KnownFault``) that shows that defect.  Such a
    failure counts as failed, not as incorrect; any other error or rejected
    check is incorrect."""

    __slots__ = ("name", "call", "check", "fault", "deadline")

    def __init__(self, name, call, check=None, fault=None, deadline=None):
        self.name, self.call, self.check = name, call, check
        self.fault, self.deadline = fault, deadline


def _on_alarm(signum, frame):
    raise DeadlineExceeded("deadline passed")


class Tally:
    """Attempted, failed and busy time over the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.busy_s = 0.0

    def run(self, op: Op) -> None:
        self.attempted += 1
        error = None
        if op.deadline:
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # any program error fails the operation
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if op.deadline:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self.busy_s += elapsed
        if error is None and op.check is not None:
            try:
                op.check(result)
            except (CheckFailed, KnownFault) as exc:
                error = exc
        if error is None:
            return
        self.failed += 1
        if op.fault is None or not isinstance(error, op.fault):
            self.incorrect.append(f"{op.name}: {type(error).__name__}: {error}")

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def ops_per_s(self) -> float:
        """Operations completed per second of operation time; a failed
        operation's time counts, the operation does not."""
        return self.completed / self.busy_s


# ---------------------------------------------------------------------------
# Shared checks


def check_recovery(nodes, edges):
    """Checks on (implied independencies, equivalence class) for a DAG."""

    def check(result):
        holds, members = result
        found = {(s.x, s.y, s.given) for s in holds.statements}
        expect(found == oracles.implied_independencies(nodes, edges), "implied independencies differ")
        member_edges = [frozenset(g.edges) for g in members]
        expect(frozenset(edges) in member_edges, "class misses the generating DAG")
        skel, vs = oracles.skeleton(edges), oracles.v_structures(edges)
        for m in member_edges:
            expect(oracles.skeleton(m) == skel and oracles.v_structures(m) == vs,
                   "member differs in skeleton or v-structures")
        expect(set(member_edges) == set(oracles.markov_class(nodes, edges)), "class size differs")
        expect(len(set(member_edges)) == len(member_edges), "duplicate class members")
        keys = [tuple(sorted(m)) for m in member_edges]
        expect(keys == sorted(keys), "class not sorted by edge list")

    return check


def check_dsep_batch(nodes, edges, queries):
    parents, children = oracles.adjacency(nodes, edges)

    def check(answers):
        for (x, y, given), got in zip(queries, answers, strict=True):
            expect(got == oracles.reachable_dsep(parents, children, x, y, given),
                   f"d-separation of {x}, {y} given {given}")

    return check


def check_ks(values, cdf):
    def check(report):
        n = len(values)
        d = oracles.ks_statistic(values, cdf)
        expect(near(report.statistic, d, 1e-12, 1e-14), f"ks D {report.statistic} vs {d}")
        expect(n >= 35, "asymptotic p checked only from n = 35")
        p = oracles.kolmogorov_sf(math.sqrt(n) * report.statistic)
        expect(near(report.p_value, p, 1e-9, 1e-12), f"ks p {report.p_value} vs {p}")

    return check


def check_jb(values):
    def check(report):
        jb = oracles.jarque_bera(values)
        expect(near(report.statistic, jb, 1e-9, 1e-12), f"jb {report.statistic} vs {jb}")
        expect(near(report.p_value, math.exp(-jb / 2), 1e-9), f"jb p {report.p_value}")

    return check


def check_cusum(report):
    expect(report.statistic >= 0.0 and 0.0 <= report.p_value <= 1.0, "cusum out of range")
    c = report.statistic / math.sqrt(report.details["n_residuals"])
    expect(near(report.p_value, oracles.crossing_probability(c), 0.0, 1e-12),
           f"cusum p {report.p_value} vs crossing probability")


def check_cusum_linear(report):
    check_cusum(report)
    if report.statistic > 0.0 and report.p_value < report.alpha:
        raise KnownFault(f"exactly linear data rejected: statistic {report.statistic}, p {report.p_value}")
    expect(report.statistic == 0.0 and report.p_value == 1.0,
           f"exactly linear data gave statistic {report.statistic}, p {report.p_value}")


def check_resid(report):
    expect(0.0 <= report.statistic <= 1.0, "rank correlation out of range")
    expect(oracles.on_permutation_grid(report.p_value, 999), f"p {report.p_value} off the grid")


def check_pcorr(x, y, given):
    def check(report):
        rho = oracles.residual_correlation(x, y, given)
        expect(near(report.statistic, rho, 0.0, 1e-9), f"rho {report.statistic} vs {rho}")
        _, p = oracles.fisher_z_p(rho, len(x), len(given))
        expect(near(report.p_value, p, 1e-6), f"pcorr p {report.p_value} vs {p}")

    return check


def check_pcorr_tail(x, y):
    """pcorr far in the tail: rho must be right; p = 0.0 is the known underflow."""
    full = check_pcorr(x, y, [])

    def check(report):
        rho = oracles.residual_correlation(x, y, [])
        expect(near(report.statistic, rho, 0.0, 1e-9), f"rho {report.statistic} vs {rho}")
        if report.p_value == 0.0:
            raise KnownFault(f"p underflows to 0.0; erfc gives {oracles.fisher_z_p(rho, len(x), 0)[1]:.3g}")
        full(report)

    return check


def check_anm(result):
    label = oracles.anm_direction(
        result.forward.p_value < result.forward.alpha,
        result.backward.p_value < result.backward.alpha,
    )
    expect(result.direction.label == label, f"direction {result.direction.label} vs {label}")
    for rep in (result.forward, result.backward):
        check_resid(rep)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def traced_round(self, r: int) -> list[Op] | None:
        """Traced twins of ``round(r)``; None means run the same operations
        with the tracer installed."""
        return None

    def close(self) -> None:
        pass


class Discovery(Workload):
    """Equivalence-class recovery on 3-6 variables plus batched d-separation."""

    name = "discovery"

    def setup(self):
        from cdl_compass import graphs

        self.graphs = graphs
        nodes, edges = inputs.random_dag(self.rng, 3, 0.5)
        check_recovery(nodes, edges)(self.recover(nodes, edges))

    def recover(self, nodes, edges):
        g = self.graphs
        dag = g.Dag.of(edges, nodes)
        holds = g.implied_independencies(dag)
        held = holds.statements
        signature = []
        for x, y in itertools.combinations(sorted(nodes), 2):
            rest = [v for v in sorted(nodes) if v not in (x, y)]
            for size in range(len(rest) + 1):
                for z in itertools.combinations(rest, size):
                    stmt = g.IndependenceStatement(x, y, frozenset(z))
                    signature.append(stmt if stmt in held else g.IndependenceStatement(x, y, frozenset(z), False))
        return holds, g.enumerate_mec(g.IndependenceSet.of(signature), nodes)

    def dsep_batch(self, batch):
        g = self.graphs
        out = []
        for nodes, edges, queries in batch:
            dag = g.Dag.of(edges, nodes)
            out.append([g.d_separated(dag, x, y, z) for x, y, z in queries])
        return out

    @staticmethod
    def check_dsep_batches(batch):
        checks = [check_dsep_batch(*graph) for graph in batch]

        def check(answers):
            for chk, got in zip(checks, answers, strict=True):
                chk(got)

        return check

    def round(self, r):
        data = inputs.discovery_round(self.seed, r)
        ops = [
            Op(f"recover-n{len(nodes)}", lambda n=nodes, e=edges: self.recover(n, e), check_recovery(nodes, edges))
            for nodes, edges in data["recover"]
        ]
        ops += [
            Op("dsep-batch", lambda b=batch: self.dsep_batch(b), self.check_dsep_batches(batch))
            for batch in data["dsep"]
        ]
        six = inputs.names_for(6), inputs.SIX_NODE_EDGES
        ops.append(Op("recover-n6", lambda: self.recover(*six), check_recovery(*six),
                      fault=DeadlineExceeded, deadline=SIX_NODE_DEADLINE_S))
        return ops


class LargeModels(Workload):
    """Unrolled templates, a 1000-node model, and CSV round trips at size."""

    name = "large-models"
    STEPS = (250, 750)
    WIDE_ROWS = 2000
    NARROW_ROWS = 1_000_000
    CSV_ROWS = 100_000

    def setup(self):
        from cdl_compass import graphs, scm

        self.graphs, self.scm = graphs, scm
        self.template = graphs.hidden_confounder_template()
        self.queries = {t: inputs.unroll_queries(self.seed, t) for t in self.STEPS}
        self.desc_node = {t: f"{self.rng.choice('XAUY')}{self.rng.randint(1, 5)}" for t in self.STEPS}
        self.wide_text, self.wide_coefs = inputs.wide_scm(self.seed)
        narrow_text, self.narrow_coefs = inputs.narrow_scm(self.seed)
        self.narrow = scm.parse_scm(narrow_text)
        self.csv_data = scm.sample(self.narrow, self.CSV_ROWS, seed=self.seed)
        self.tmpdir = os.path.join(ROOT, ".bench_tmp", f"{self.name}-{os.getpid()}")
        os.makedirs(self.tmpdir, exist_ok=True)
        self.csv_path = os.path.join(self.tmpdir, "narrow.csv")
        small = graphs.unroll(self.template, 5)
        expect(small.topological_order() == oracles.lex_kahn_order(small.nodes, small.edges), "warm-up order")

    def close(self):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        os.rmdir(self.tmpdir)

    @staticmethod
    def unrolled_edges(steps):
        edges = set()
        for t in range(1, steps + 1):
            edges |= {(f"X{t}", f"Y{t}"), (f"X{t}", f"A{t}")}
            if t == 1:
                edges |= {("X1", "U1"), ("A1", "U1")}
            else:
                edges.add((f"U{t}", f"X{t}"))
            if t < steps:
                edges |= {(f"{r}{t}", f"X{t + 1}") for r in "XAU"} | {(f"U{t}", f"U{t + 1}")}
        return frozenset(edges)

    def graph_ops(self, steps, state):
        g = self.graphs
        mid = steps // 2
        queries = self.queries[steps] + [
            ("X1", f"X{steps}", (f"U{mid}", f"X{mid}")),  # a middle state separates
            ("X1", f"Y{steps}", ()),  # open without conditioning
        ]
        node = self.desc_node[steps]

        def build():
            state["dag"] = g.unroll(self.template, steps)
            return state["dag"]

        def check_build(dag):
            expect(len(dag.nodes) == 4 * steps and dag.edges == self.unrolled_edges(steps), "unrolled graph")

        def check_order(order):
            dag = state["dag"]
            expect(order == oracles.lex_kahn_order(dag.nodes, dag.edges), "topological order")

        def check_desc(found):
            _, children = oracles.adjacency(state["dag"].nodes, state["dag"].edges)
            expect(found == oracles.bfs_descendants(children, node), "descendants")

        def check_batch(answers):
            dag = state["dag"]
            check_dsep_batch(dag.nodes, dag.edges, queries)(answers)
            expect(answers[-2] is True and answers[-1] is False, "template separation properties")

        return [
            Op(f"unroll-{steps}", build, check_build),
            Op(f"topological-order-{steps}", lambda: state["dag"].topological_order(), check_order),
            Op(f"descendants-{steps}", lambda: state["dag"].descendants(node), check_desc),
            Op(f"dsep-batch-{steps}", lambda: [g.d_separated(state["dag"], x, y, z) for x, y, z in queries],
               check_batch),
        ]

    def check_coefficients(self, data, coefs):
        for node, parents in coefs.items():
            if parents:
                names = list(parents)
                expect(oracles.coefficients_within(
                    data.column(node), [data.column(p) for p in names], [0.0] + [parents[p] for p in names]),
                    f"least-squares coefficients of {node}")

    def round(self, r):
        scm = self.scm
        state: dict = {}
        ops = []
        for steps in self.STEPS:
            ops += self.graph_ops(steps, {})

        def parse_wide():
            state["wide"] = scm.parse_scm(self.wide_text)
            return state["wide"]

        def check_wide_model(model):
            expect(len(model.graph.nodes) == len(self.wide_coefs), "model size")
            for node, parents in self.wide_coefs.items():
                expect(model.graph.parents(node) == frozenset(parents), f"parents of {node}")

        def check_wide_sample(data):
            expect(data.n == self.WIDE_ROWS, "row count")
            self.check_coefficients(data, self.wide_coefs)
            if r == 0:  # once per run: a second draw costs as much as the operation
                again = scm.sample(state["wide"], self.WIDE_ROWS, seed=self.seed)
                expect(all(np.array_equal(data.column(c), again.column(c)) for c in data.names),
                       "same seed, same draws")

        def check_narrow(data):
            expect(data.n == self.NARROW_ROWS, "row count")
            self.check_coefficients(data, self.narrow_coefs)

        def check_roundtrip(data):
            src = self.csv_data
            expect(data.names == src.names, "CSV header")
            expect(all(np.array_equal(data.column(c), src.column(c)) for c in src.names), "CSV round trip not exact")

        ops += [
            Op("parse-scm-1000", parse_wide, check_wide_model),
            Op("sample-wide", lambda: scm.sample(state["wide"], self.WIDE_ROWS, seed=self.seed), check_wide_sample),
            Op("sample-narrow", lambda: scm.sample(self.narrow, self.NARROW_ROWS, seed=self.seed), check_narrow),
            Op("to-csv", lambda: self.csv_data.to_csv(self.csv_path)),
            Op("from-csv", lambda: scm.Dataset.from_csv(self.csv_path), check_roundtrip),
        ]
        return ops


class GraphsAndModels(Workload):
    """Discovery and large models in one round.

    Both stress ``graphs``; sharing one workload lets every run measure
    longer within the benchmark's time budget.
    """

    name = "graphs-and-models"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parts = (Discovery(seed), LargeModels(seed))

    def setup(self):
        for part in self.parts:
            part.setup()

    def round(self, r):
        return [op for part in self.parts for op in part.round(r)]

    def close(self):
        for part in self.parts:
            part.close()


class AssumptionTests(Workload):
    """The six assumption tests on sampled data at n = 300, 1000 and 5000."""

    name = "assumption-tests"

    def setup(self):
        from cdl_compass import scm, stats

        self.stats = stats
        self.datasets = []
        for label, text in (("chain", inputs.CHAIN_SCM), ("cubic", inputs.CUBIC_SCM)):
            model = scm.parse_scm(text)
            for n in inputs.ASSUMPTION_SIZES:
                data = scm.sample(model, n, seed=self.seed)
                cols = {c: data.column(c) for c in data.names}
                x, y = cols["X"], cols["Y"]
                design = np.column_stack([np.ones(n), x])
                cols["R"] = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
                self.datasets.append((f"{label}-n{n}", label, cols))
        self.strong = inputs.strong_pair()
        self.linear = inputs.linear_pair()
        _, _, cols = self.datasets[0]
        check_resid(stats.residual_independence_test(cols["X"], cols["R"], seed=self.seed))

    def round(self, r):
        st = self.stats
        ops = []
        for tag, label, c in self.datasets:
            x, y = c["X"], c["Y"]
            if label == "chain":
                cdf, ref = st.gaussian_cdf(), oracles.normal_cdf
                px, py, pz = "X", "Z", ("Y",)
            else:
                cdf, ref = st.uniform_cdf(0.0, 1.0), oracles.uniform_cdf
                px, py, pz = "W", "X", ("Y",)
            ops += [
                Op(f"ks-{tag}", lambda x=x, cdf=cdf: st.ks_test(x, cdf), check_ks(x, ref)),
                Op(f"jb-{tag}", lambda x=x: st.jarque_bera_test(x), check_jb(x)),
                Op(f"cusum-{tag}", lambda x=x, y=y: st.cusum_linearity_test(x, y), check_cusum),
                Op(f"resid-{tag}", lambda x=x, r=c["R"]: st.residual_independence_test(x, r, seed=self.seed),
                   check_resid),
                Op(f"pcorr-{tag}", lambda c=c, a=px, b=py, z=pz: st.partial_correlation_ci_test(c, a, b, z),
                   check_pcorr(c[px], c[py], [c[v] for v in pz])),
                Op(f"anm-{tag}", lambda x=x, y=y: st.anm_direction(x, y, seed=self.seed), check_anm),
            ]
        sx, sy = self.strong
        ops.append(Op("pcorr-strong-pair", lambda: st.partial_correlation_ci_test({"x": sx, "y": sy}, "x", "y"),
                      check_pcorr_tail(sx, sy), fault=KnownFault))
        lx, ly = self.linear
        ops.append(Op("cusum-exactly-linear", lambda: st.cusum_linearity_test(lx, ly), check_cusum_linear,
                      fault=KnownFault))
        return ops


# ---------------------------------------------------------------------------
# Cold command line


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CDL_COMPASS_SEED", None)
    return env


def run_cli(argv, traced=False):
    """One fresh ``python -m cdl_compass.cli`` process; returns (code, stdout, stderr)."""
    flags = ["-X", "importtime"] if traced else []
    proc = subprocess.run([sys.executable, *flags, "-m", "cdl_compass.cli", *argv],
                          cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def replay_cli(argv) -> tuple[int, str]:
    """``cli.main(argv)`` in this process, stdout captured."""
    from cdl_compass import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def load_catalog_cards() -> dict:
    with open(os.path.join(ROOT, CATALOG_FILE), encoding="utf-8") as fh:
        return {card["id"]: card for card in json.load(fh)}


def parse_edge_lines(lines) -> frozenset:
    return frozenset(tuple(line.split(" -> ")) for line in lines)


def static_triples() -> list[str]:
    return [f"{s}:{p}:static" for s in oracles.STRUCTURAL_LEVELS for p in oracles.PARAMETRIC_LEVELS]


class CliCold(Workload):
    """Every subcommand as a fresh process on the checked-in fixtures."""

    name = "cli-cold"

    def setup(self):
        self.build_argvs()
        self.first_stdout = {"simulate": run_cli(self.argvs["simulate"])[1]}

    def build_argvs(self):
        rng = self.rng
        self.cards = load_catalog_cards()
        graph_nodes = sorted({v for e in inputs.FIXTURE_GRAPH for v in e})
        x, y = rng.sample(graph_nodes, 2)
        given = [v for v in graph_nodes if v not in (x, y) and rng.random() < 0.3]
        self.dsep_query = (x, y, tuple(given))
        sim_seed, test_seed = rng.randrange(10**6), rng.randrange(10**6)
        self.show_id = rng.choice(sorted(self.cards))
        self.validate_start = rng.choice(static_triples())
        with open(os.path.join(ROOT, FIXTURES, "pipeline.json"), encoding="utf-8") as fh:
            self.validate_final = oracles.fold_pipeline(self.cards, json.load(fh), self.validate_start)
        self.plan_start, self.plan_goal = rng.choice(static_triples()), rng.choice(static_triples())
        csv = f"{FIXTURES}/data.csv"
        self.argvs = {
            "dsep": ["dsep", f"{FIXTURES}/dag.graph", "--x", x, "--y", y] + (["--given", *given] if given else []),
            "mec": ["mec", f"{FIXTURES}/smoking.constraints", "--vars", "S,C,D", "--format", "json"],
            "simulate": ["simulate", f"{FIXTURES}/model.scm", "--n", "500", "--seed", str(sim_seed)],
            "test-ks": ["test", csv, "--test", "ks", "--column", "X", "--format", "json"],
            "test-jb": ["test", csv, "--test", "jb", "--column", "Y", "--format", "json"],
            "test-cusum": ["test", csv, "--test", "cusum", "--x", "X", "--y", "Y", "--format", "json"],
            "test-resid": ["test", csv, "--test", "resid", "--x", "X", "--resid", "R", "--seed", str(test_seed),
                           "--format", "json"],
            "test-pcorr": ["test", csv, "--test", "pcorr", "--x", "X", "--y", "Z", "--given", "Y", "--format", "json"],
            "anm": ["anm", csv, "--x", "C", "--y", "E", "--seed", str(test_seed), "--format", "json"],
            "catalog-list": ["catalog", "list", "--format", "json"],
            "catalog-show": ["catalog", "show", self.show_id, "--format", "json"],
            "validate": ["validate", f"{FIXTURES}/pipeline.json", "--start", self.validate_start, "--format", "json"],
            "plan": ["plan", "--start", self.plan_start, "--goal", self.plan_goal, "--format", "json"],
            "audit": ["audit", "--format", "json"],
        }
        with open(os.path.join(ROOT, csv), encoding="utf-8") as fh:
            header, *rows = fh.read().split()
        self.csv_cols = dict(zip(header.split(","), np.array([r.split(",") for r in rows], dtype=float).T))

    def check(self, sub):
        """Exit code, the subcommand's own checks, and determinism: stdout
        equals that of ``cli.main`` on the same argv in this process (a
        second interpreter, with its own hash seed), and that of every
        earlier process with the argv."""
        checker = getattr(self, "check_" + sub.replace("-", "_"))
        # validate exits 1 when the pipeline fails from the start state
        wanted = 1 if sub == "validate" and self.validate_final is None else 0

        def check(result):
            code, out, err = result
            expect(code == wanted, f"exit code {code}, expected {wanted}: {err.strip()[-200:]}")
            checker(out)
            if sub not in self.first_stdout:
                self.first_stdout[sub] = replay_cli(self.argvs[sub])[1]
            expect(out == self.first_stdout[sub], "stdout differs between runs with the same argv")

        return check

    def check_dsep(self, out):
        parents, children = oracles.adjacency(sorted({v for e in inputs.FIXTURE_GRAPH for v in e}),
                                              inputs.FIXTURE_GRAPH)
        want = oracles.reachable_dsep(parents, children, *self.dsep_query)
        expect(out == f"d-separated: {'true' if want else 'false'}\n", f"dsep printed {out!r}")

    def check_mec(self, out):
        payload = json.loads(out)
        nodes, edges = inputs.SMOKING_CHAIN
        got = [parse_edge_lines(g) for g in payload["graphs"]]
        expect(payload["count"] == len(got), "count field")
        expect(set(got) == set(oracles.markov_class(nodes, edges)), "smoking chain class")

    def check_simulate(self, out):
        header, *rows = out.split()
        expect(header == "X,Y,Z" and len(rows) == 500, "simulate CSV shape")
        arr = np.array([r.split(",") for r in rows], dtype=float)
        expect(oracles.coefficients_within(arr[:, 1], [arr[:, 0]], [0.0, 0.8]), "Y on X")
        expect(oracles.coefficients_within(arr[:, 2], [arr[:, 1]], [0.0, -0.6]), "Z on Y")

    def check_test_ks(self, out):
        rep = json.loads(out)
        x = self.csv_cols["X"]
        d = oracles.ks_statistic(x, oracles.normal_cdf)
        expect(near(rep["statistic"], d, 1e-12, 1e-14), "ks D")
        expect(near(rep["p_value"], oracles.kolmogorov_sf(math.sqrt(len(x)) * d), 1e-9, 1e-12), "ks p")

    def check_test_jb(self, out):
        rep = json.loads(out)
        jb = oracles.jarque_bera(self.csv_cols["Y"])
        expect(near(rep["statistic"], jb, 1e-9) and near(rep["p_value"], math.exp(-jb / 2), 1e-9), "jb")

    def check_test_cusum(self, out):
        rep = json.loads(out)
        c = rep["statistic"] / math.sqrt(rep["details"]["n_residuals"])
        expect(near(rep["p_value"], oracles.crossing_probability(c), 0.0, 1e-12), "cusum p")

    def check_test_resid(self, out):
        expect(oracles.on_permutation_grid(json.loads(out)["p_value"], 999), "resid p off the grid")

    def check_test_pcorr(self, out):
        rep = json.loads(out)
        cols = self.csv_cols
        rho = oracles.residual_correlation(cols["X"], cols["Z"], [cols["Y"]])
        _, p = oracles.fisher_z_p(rho, len(cols["X"]), 1)
        expect(near(rep["statistic"], rho, 0.0, 1e-9) and near(rep["p_value"], p, 1e-6), "pcorr")

    def check_anm(self, out):
        rep = json.loads(out)
        fwd, bwd = rep["forward"], rep["backward"]
        label = oracles.anm_direction(fwd["p_value"] < fwd["alpha"], bwd["p_value"] < bwd["alpha"])
        expect(rep["direction"] == label, "anm rule")

    def check_catalog_list(self, out):
        expect([c["id"] for c in json.loads(out)] == sorted(self.cards), "catalog ids")

    def check_catalog_show(self, out):
        card = json.loads(out)
        want = self.cards[self.show_id]
        expect(all(card[k] == want[k] for k in ("id", "name", "a_priori", "a_posteriori")), "card fields")

    def check_validate(self, out):
        rep = json.loads(out)
        final = self.validate_final
        expect(rep["overall"] == (final is not None), "validate overall")
        if final is not None:
            expect(rep["final"] == oracles.triple_of(final), "validate final state")

    def check_plan(self, out):
        plans = json.loads(out)
        expect(len({len(p) for p in plans}) <= 1, "plans of unequal length")
        for plan in plans:
            expect(oracles.reaches(oracles.fold_pipeline(self.cards, plan, self.plan_start), self.plan_goal),
                   f"plan {plan} misses the goal")
        if oracles.reaches(oracles.state_key(self.plan_start), self.plan_goal):
            expect(plans == [[]], "start already satisfies the goal")

    def check_audit(self, out):
        rep = json.loads(out)
        expect(sum(rep["counts"].values()) == len(self.cards), "audit counts")
        expect(sorted(rep["transitions"]) == sorted(self.cards), "audit cards")

    def round(self, r, traced=False):
        return [Op(sub, lambda a=argv: run_cli(a, traced), self.check(sub)) for sub, argv in self.argvs.items()]

    def traced_round(self, r):
        """The same processes under ``python -X importtime``."""
        return self.round(r, traced=True)


WORKLOADS = {w.name: w for w in (CliCold, GraphsAndModels, AssumptionTests)}
