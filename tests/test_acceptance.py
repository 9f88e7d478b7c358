"""Acceptance checks: the package's headline guarantees, one test per claim.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per guarantee.  Each test states its tolerance inline; the slow ones
also assert their runtime budget.
"""

import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers_dsep import all_queries, path_blocking_d_separated  # noqa: E402

from cdl_compass.engine import plan_pipeline, validate_pipeline
from cdl_compass.expressions import evaluate_expression
from cdl_compass.graphs import (
    Dag,
    IndependenceSet,
    IndependenceStatement,
    d_separated,
    enumerate_dags,
    enumerate_mec,
    hidden_confounder_template,
    unroll,
)
from cdl_compass.lattice import (
    ParametricTag,
    StructuralTag,
    all_tag_states,
    join_states,
    knowledge_state,
    leq,
    satisfies,
)
from cdl_compass.registry import default_catalog
from cdl_compass.scm import Dataset, ihdp_surfaces, oracle_cate, parse_scm, sample, format_scm
from cdl_compass.stats import (
    CausalDirection,
    Decision,
    anm_direction,
    cusum_linearity_test,
    gaussian_cdf,
    jarque_bera_test,
    ks_test,
    partial_correlation,
    partial_correlation_ci_test,
    savitzky_golay_smooth,
    uniform_cdf,
)


def signature(independent, dependent):
    """Constraint set listing both what holds and what fails."""
    stmts = [IndependenceStatement(x, y, frozenset(z)) for x, y, z in independent]
    stmts += [
        IndependenceStatement(x, y, frozenset(z), holds=False) for x, y, z in dependent
    ]
    return IndependenceSet(stmts)


def test_smoking_equivalence_classes():
    # Three variables S (smoking), C (cancer), D (death).  The conditional
    # independence S ⊥ D | C pins down the chain/fork class; the marginal
    # independence S ⊥ D pins down the collider alone.  Exact, < 1 s.
    t0 = time.perf_counter()
    chain_class = enumerate_mec(
        signature(
            independent=[("S", "D", ("C",))],
            dependent=[
                ("S", "D", ()),
                ("S", "C", ()),
                ("S", "C", ("D",)),
                ("C", "D", ()),
                ("C", "D", ("S",)),
            ],
        ),
        ["S", "C", "D"],
    )
    assert {g.edges for g in chain_class} == {
        frozenset({("S", "C"), ("C", "D")}),  # chain
        frozenset({("C", "S"), ("D", "C")}),  # reversed chain
        frozenset({("C", "S"), ("C", "D")}),  # fork
    }
    collider = Dag.of([("S", "C"), ("D", "C")])
    assert collider.edges not in {g.edges for g in chain_class}

    collider_class = enumerate_mec(
        signature(
            independent=[("S", "D", ())],
            dependent=[
                ("S", "D", ("C",)),
                ("S", "C", ()),
                ("S", "C", ("D",)),
                ("C", "D", ()),
                ("C", "D", ("S",)),
            ],
        ),
        ["S", "C", "D"],
    )
    assert [g.edges for g in collider_class] == [collider.edges]
    assert time.perf_counter() - t0 < 1.0


def test_d_separation_agrees_with_path_oracle():
    # The Reachable-walk implementation must agree with a
    # brute-force simple-path blocking oracle: exhaustively for every
    # labeled DAG on up to 5 nodes and every query, plus 10,000 random
    # queries on 6-8 node graphs.  100% agreement, < 2 min.
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3, 4, 5):
        names = [f"V{i}" for i in range(n)]
        for g in enumerate_dags(names):
            for x, y, z in all_queries(g):
                assert d_separated(g, x, y, z) == path_blocking_d_separated(g, x, y, z)
                checked += 1
    assert checked == 3 * 1 + 25 * 6 + 543 * 24 + 29281 * 80

    rng = np.random.default_rng(20268)
    for _ in range(10_000):
        n = int(rng.integers(6, 9))
        names = [f"V{i}" for i in range(n)]
        order = rng.permutation(n)
        p = rng.uniform(0.2, 0.6)
        edges = [
            (names[order[i]], names[order[j]])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = Dag.of(edges, nodes=names)
        x, y = (names[i] for i in rng.choice(n, size=2, replace=False))
        z = tuple(v for v in names if v not in (x, y) and rng.random() < 0.3)
        assert d_separated(g, x, y, z) == path_blocking_d_separated(g, x, y, z)
    assert time.perf_counter() - t0 < 120.0


def test_lattice_laws_exhaustive():
    # Order and join laws across the whole 3x4x2 tag lattice.  Exact.
    for scale in (StructuralTag, ParametricTag):
        members = tuple(scale)
        for a in members:
            assert leq(a, a)
            for b in members:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in members:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)

    states = all_tag_states()
    assert len(states) == 24
    by_flag = {}
    for s in states:
        by_flag.setdefault(s.temporal, []).append(s)
    for group in by_flag.values():
        assert len(group) == 12
        for s in group:
            assert satisfies(s, s)
            assert join_states(s, s) == s
        for s, t in itertools.product(group, repeat=2):
            if satisfies(s, t) and satisfies(t, s):
                assert s == t
            j = join_states(s, t)
            assert j == join_states(t, s)
            assert satisfies(j, s) and satisfies(j, t)
        for s, t, u in itertools.product(group, repeat=3):
            if satisfies(s, t) and satisfies(t, u):
                assert satisfies(s, u)
            assert join_states(join_states(s, t), u) == join_states(s, join_states(t, u))
            if satisfies(u, s) and satisfies(u, t):
                assert satisfies(u, join_states(s, t))
            if satisfies(s, t):
                assert satisfies(join_states(s, u), join_states(t, u))
    # the two temporal regimes never satisfy each other
    static = knowledge_state("causal", "fully_known", "static")
    temporal = knowledge_state("unknown", "nonparametric", "temporal")
    assert not satisfies(static, temporal)
    assert not satisfies(temporal, static)


def test_discovery_then_generation_pipeline():
    # Noise-model data with unknown structure: direction finding (resit)
    # then deep generation (decaf) composes; generation alone does not.
    catalog = default_catalog()
    start = knowledge_state("unknown", "noise_model", "static")
    goal = knowledge_state("causal", "nonparametric", "static")

    ok = validate_pipeline(catalog, ["resit", "decaf"], start)
    assert ok.overall
    assert satisfies(ok.final, goal)

    bad = validate_pipeline(catalog, ["decaf"], start)
    assert not bad.overall
    assert bad.stages[0].index == 1
    assert "structural" in bad.failure_reason

    assert plan_pipeline(catalog, start, goal) == [["resit"]]


def test_calibration_and_power():
    # Under true nulls the tests reject at close to their nominal 5% level;
    # the linearity check actually detects curvature.  < 5 min total.
    t0 = time.perf_counter()

    ks_rejects = jb_rejects = 0
    cdf = gaussian_cdf(0.0, 1.0)
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(500)
        ks_rejects += ks_test(x, cdf).decision is Decision.REJECT_NULL
        jb_rejects += jarque_bera_test(x).decision is Decision.REJECT_NULL
    assert 0.03 <= ks_rejects / 2000 <= 0.07
    assert 0.03 <= jb_rejects / 2000 <= 0.07

    # size under a linear truth (1000 trials for a stable estimate)
    size_rejects = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, 200)
        y = 3.0 * x + rng.normal(0.0, 0.1, 200)
        size_rejects += cusum_linearity_test(x, y).decision is Decision.REJECT_NULL
    assert size_rejects / 1000 <= 0.07

    # power against a quadratic signal at n=200, sigma=0.05, 200 trials
    power_rejects = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(-1.0, 1.0, 200)
        y = x**2 + rng.normal(0.0, 0.05, 200)
        power_rejects += cusum_linearity_test(x, y).decision is Decision.REJECT_NULL
    assert power_rejects / 200 >= 0.8

    assert time.perf_counter() - t0 < 300.0


def test_anm_direction_recovery_rates():
    # Cubic additive-noise pairs at n=300 orient correctly in at least 90%
    # of 50 seeds; symmetric linear-Gaussian pairs stay inconclusive in at
    # least 70%.
    cubic_hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, 300)
        y = x**3 + rng.uniform(-0.1, 0.1, 300)
        cubic_hits += anm_direction(x, y, seed=seed).direction is CausalDirection.X_TO_Y
    assert cubic_hits >= 45

    undecided = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(300)
        y = 1.5 * x + rng.standard_normal(300)
        undecided += (
            anm_direction(x, y, seed=seed).direction is CausalDirection.INCONCLUSIVE
        )
    assert undecided >= 35


def test_hand_computed_statistics():
    # Frozen closed-form values, checked without tolerance where exact.
    jb = jarque_bera_test([-1.0, 0.0, 1.0])
    assert jb.statistic == 0.28125

    ks = ks_test([0.5], uniform_cdf(0.0, 1.0))
    assert ks.statistic == 0.5

    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000)
    y = x + rng.standard_normal(10_000)
    z = y + rng.standard_normal(10_000)
    data = Dataset({"X": x, "Y": y, "Z": z})
    rho = partial_correlation(data, "X", "Z", ("Y",))
    assert abs(rho) <= 0.03
    report = partial_correlation_ci_test(data, "X", "Z", ("Y",))
    assert report.decision is Decision.FAIL_TO_REJECT

    smoothed = savitzky_golay_smooth([0.0, 10.0, 0.0], window=3, degree=1)
    assert smoothed[1] == pytest.approx(10.0 / 3.0, abs=1e-10)


LINEAR_MODEL = (
    "graph:\n"
    "X -> Y\n"
    "equations:\n"
    "Y = 2 * X + U\n"
    "noise:\n"
    "U_X ~ Normal(0.0, 1.0)\n"
    "U_Y ~ Normal(0.0, 1.0)\n"
)

CHAIN_MODEL = (
    "graph:\n"
    "X -> Y\n"
    "Y -> Z\n"
    "equations:\n"
    "Y = X + U\n"
    "Z = Y + U\n"
    "noise:\n"
    "U_X ~ Normal(0.0, 1.0)\n"
    "U_Y ~ Normal(0.0, 1.0)\n"
    "U_Z ~ Normal(0.0, 1.0)\n"
)


def test_sampler_fidelity():
    # Ancestral sampling reproduces the generating law: the regression
    # slope of Y = 2X + U is recovered to +-0.02 at n=100,000, identical
    # seeds give identical bytes, and chain samples screen off X from Z
    # given Y in at least 90 of 100 seeds (n=1000 each).
    model = parse_scm(LINEAR_MODEL)
    data = sample(model, 100_000, seed=0)
    slope = np.polyfit(data.column("X"), data.column("Y"), 1)[0]
    assert 1.98 <= slope <= 2.02

    again = sample(parse_scm(LINEAR_MODEL), 100_000, seed=0)
    assert data.to_csv() == again.to_csv()

    chain = parse_scm(CHAIN_MODEL)
    passes = 0
    for seed in range(100):
        draw = sample(chain, 1000, seed=seed)
        report = partial_correlation_ci_test(draw, "X", "Z", ("Y",))
        passes += report.decision is Decision.FAIL_TO_REJECT
    assert passes >= 90


IHDP_MODEL = (
    "graph:\n"
    "X -> Y0\n"
    "X -> Y1\n"
    "equations:\n"
    "Y0 := exp((X + 0.0) * 1.0)\n"
    "Y1 := X * 1.0 + 4.0\n"
    "noise:\n"
    "U_X ~ Normal(0.0, 1.0)\n"
)


def test_response_surface_expressions():
    # The benchmark response surfaces survive a parse -> print -> parse
    # round trip, evaluate to direct-substitution values within 1e-12, and
    # the noise-free treatment effect at x=0 is exactly 3.
    model = parse_scm(IHDP_MODEL)
    printed = format_scm(model)
    assert parse_scm(printed) == model
    assert format_scm(parse_scm(printed)) == printed

    surfaces = {name: eq.expr for name, eq in model.equations.items()}
    for xv in np.linspace(-2.0, 2.0, 41):
        mu0, mu1 = ihdp_surfaces([xv], [0.0], [1.0], 4.0)
        assert evaluate_expression(surfaces["Y0"], {"X": xv}) == pytest.approx(
            mu0, abs=1e-12
        )
        assert evaluate_expression(surfaces["Y1"], {"X": xv}) == pytest.approx(
            mu1, abs=1e-12
        )

    assert oracle_cate(model, {"X": 0.0}) == 3.0


def test_temporal_template_unrolling():
    # Two steps of the hidden-confounder template: 8 nodes and exactly the
    # 11 edges, and the unrolled graph stays acyclic out to 10 steps.
    g = unroll(hidden_confounder_template(), 2)
    assert len(g.nodes) == 8
    assert g.nodes == frozenset(
        f"{role}{t}" for role in ("X", "A", "U", "Y") for t in (1, 2)
    )
    assert g.edges == frozenset(
        {
            ("X1", "Y1"),
            ("X2", "Y2"),
            ("X1", "A1"),
            ("X2", "A2"),
            ("X1", "U1"),
            ("A1", "U1"),
            ("U2", "X2"),
            ("X1", "X2"),
            ("A1", "X2"),
            ("U1", "X2"),
            ("U1", "U2"),
        }
    )
    for steps in range(1, 11):
        unrolled = unroll(hidden_confounder_template(), steps)
        assert len(unrolled.topological_order()) == 4 * steps
