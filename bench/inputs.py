"""Seeded input generators for the benchmark workloads, plus the fixture writer.

Every input the program sees is built here from the workload seed (or, for
the checked-in ``fixtures/``, the known-fault operations and the 5-variable
recovery, from fixed constants).  Nothing here imports ``cdl_compass``.

Regenerate the checked-in fixtures::

    python3 bench/inputs.py --fixtures
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# ---------------------------------------------------------------------------
# Graphs


def names_for(n: int) -> list[str]:
    return [f"V{i}" for i in range(n)]


def random_dag(rng: random.Random, n: int, p: float) -> tuple[list[str], list[tuple[str, str]]]:
    """Random DAG: a random causal order, each forward pair joined with prob p."""
    names = names_for(n)
    order = names[:]
    rng.shuffle(order)
    edges = [(order[i], order[j]) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
    return names, edges


def random_queries(rng: random.Random, names: list[str], count: int) -> list[tuple[str, str, tuple]]:
    """d-separation queries with random endpoints and conditioning subsets."""
    out = []
    for _ in range(count):
        x, y = rng.sample(names, 2)
        rest = [v for v in names if v not in (x, y)]
        given = tuple(sorted(v for v in rest if rng.random() < 0.3))
        out.append((x, y, given))
    return out


def signature_lines(nodes, edges) -> list[str]:
    """A DAG's full independence signature in the constraint-file syntax."""
    holds = oracles.implied_independencies(nodes, edges)
    order = sorted(nodes)
    lines = []
    for x, y in itertools.combinations(order, 2):
        rest = [v for v in order if v not in (x, y)]
        for size in range(len(rest) + 1):
            for z in itertools.combinations(rest, size):
                stmt = f"{x} _||_ {y}" + (f" | {','.join(z)}" if z else "")
                lines.append(stmt if (x, y, frozenset(z)) in holds else "not " + stmt)
    return lines


def discovery_round(seed: int, r: int) -> dict:
    """Round ``r`` of the discovery workload: fresh graphs every round."""
    rng = random.Random(f"discovery:{seed}:{r}")
    recover = [random_dag(rng, n, 0.5) for n in (3,) * 6 + (4,) * 6]
    recover.append((names_for(5), FIVE_NODE_EDGES))
    batches = []
    for _ in range(20):
        graphs = [random_dag(rng, n, 0.35) for n in (6, 7, 8)]
        batches.append([(names, edges, random_queries(rng, names, 100)) for names, edges in graphs])
    return {"recover": recover, "dsep": batches}


# The 5-variable recovery is fixed, not drawn from the seed: brute-force
# enumeration time moves by up to 1.8x with the labels of one same-shaped
# graph, which would swamp the spread across seeds.
FIVE_NODE_EDGES = [("V0", "V2"), ("V0", "V3"), ("V2", "V4"), ("V3", "V4"), ("V4", "V1")]
# The 6-variable recovery that brute-force enumeration cannot finish: fixed
# as well.
SIX_NODE_EDGES = [("V0", "V1"), ("V1", "V2"), ("V2", "V3"), ("V3", "V4"), ("V4", "V5"), ("V0", "V5")]


def unroll_queries(seed: int, steps: int) -> list[tuple[str, str, tuple]]:
    """Step-1 against step-T queries on the unrolled hidden-confounder template,
    half with a middle state set ``{X_t, U_t}``."""
    rng = random.Random(f"unroll:{seed}:{steps}")
    roles = ("X", "A", "U", "Y")
    out = []
    for i in range(20):
        a, b = rng.choice(roles), rng.choice(roles)
        t = rng.randint(2, steps - 1)
        given = (f"U{t}", f"X{t}") if i % 2 else ()
        out.append((f"{a}1", f"{b}{steps}", given))
    return out


# ---------------------------------------------------------------------------
# Structural models


def wide_scm(seed: int, k: int = 1000) -> tuple[str, dict]:
    """Linear-Gaussian model on k nodes with up to three parents each.

    Returns the model text and ``{node: {parent: coefficient}}``.  Parent
    coefficients lie in +-[0.2, 0.3], so every node's variance stays bounded.
    """
    rng = random.Random(f"wide:{seed}:{k}")
    names = [f"N{i:04d}" for i in range(k)]
    rng.shuffle(names)  # creation order differs from name order
    coefs: dict[str, dict[str, float]] = {}
    for i, node in enumerate(names):
        parents = rng.sample(names[:i], min(i, rng.randint(0, 3)))
        coefs[node] = {p: round(rng.choice((-1, 1)) * rng.uniform(0.2, 0.3), 4) for p in sorted(parents)}
    touched = {node for node, c in coefs.items() if c} | {p for c in coefs.values() for p in c}
    lines = ["graph:"]
    lines += sorted(set(names) - touched)
    lines += [f"{p} -> {node}" for node in sorted(coefs) for p in coefs[node]]
    lines.append("equations:")
    for node in sorted(coefs):
        if coefs[node]:
            rhs = " + ".join(f"{c!r} * {p}" for p, c in coefs[node].items())
            lines.append(f"{node} = {rhs} + U")
    lines.append("noise:")
    lines += [f"U_{node} ~ Normal(0.0, 1.0)" for node in sorted(coefs)]
    return "\n".join(lines) + "\n", coefs


def narrow_scm(seed: int) -> tuple[str, dict]:
    """Three-variable linear chain X -> Y -> Z with seeded coefficients."""
    rng = random.Random(f"narrow:{seed}")
    b_xy = round(rng.uniform(0.5, 1.5), 3)
    b_yz = round(-rng.uniform(0.5, 1.5), 3)
    text = (
        "graph:\nX -> Y\nY -> Z\nequations:\n"
        f"Y = {b_xy!r} * X + U\nZ = {b_yz!r} * Y + U\n"
        "noise:\nU_X ~ Normal(0.0, 1.0)\nU_Y ~ Normal(0.0, 0.5)\nU_Z ~ Normal(0.0, 2.0)\n"
    )
    return text, {"Y": {"X": b_xy}, "Z": {"Y": b_yz}}


# Fixed models for the assumption-test battery; only the sampling seed varies.
CHAIN_SCM = (
    "graph:\nX -> Y\nY -> Z\nequations:\nY = 0.8 * X + U\nZ = -0.6 * Y + U\n"
    "noise:\nU_X ~ Normal(0.0, 1.0)\nU_Y ~ Normal(0.0, 1.0)\nU_Z ~ Normal(0.0, 1.0)\n"
)
CUBIC_SCM = (
    "graph:\nX -> Y\nW\nequations:\nY = X ** 3 + U\n"
    "noise:\nU_X ~ Uniform(0.0, 1.0)\nU_Y ~ Uniform(-0.1, 0.1)\nU_W ~ Normal(0.0, 1.0)\n"
)
ASSUMPTION_SIZES = (300, 1000, 5000)


def strong_pair() -> tuple[np.ndarray, np.ndarray]:
    """Fixed strongly dependent pair, y = 0.4 x + noise at n = 1000 (z near 13)."""
    rng = np.random.default_rng(20230302)
    x = rng.normal(size=1000)
    return x, 0.4 * x + rng.normal(size=1000)


def linear_pair() -> tuple[np.ndarray, np.ndarray]:
    """Fixed exactly linear pair, y = 1.25 + 2.5 x, with no noise term."""
    x = np.random.default_rng(20230303).normal(size=300)
    return x, 1.25 + 2.5 * x


# ---------------------------------------------------------------------------
# Checked-in fixtures for the cold-CLI workload

FIXTURE_GRAPH = [("A", "B"), ("B", "C"), ("C", "D"), ("B", "E"), ("F", "E"), ("E", "G")]
SMOKING_CHAIN = (["S", "C", "D"], [("S", "C"), ("C", "D")])
FIXTURE_PIPELINE = ["resit", "backdoor-adjust", "dml"]


def fixture_csv() -> str:
    """Columns X, Y, Z (linear chain), R (residual of Y on X), C, E (cubic pair)."""
    rng = np.random.default_rng(1)
    n = 400
    x = rng.normal(size=n)
    y = 0.8 * x + rng.normal(size=n)
    z = -0.5 * y + rng.normal(size=n)
    design = np.column_stack([np.ones(n), x])
    r = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    c = rng.uniform(0.0, 1.0, n)
    e = c**3 + rng.uniform(-0.1, 0.1, n)
    rows = ["X,Y,Z,R,C,E"]
    rows += [",".join(format(v, ".17g") for v in row) for row in zip(x, y, z, r, c, e)]
    return "\n".join(rows) + "\n"


def write_fixtures(directory: str = FIXTURES) -> None:
    os.makedirs(directory, exist_ok=True)
    files = {
        "dag.graph": "".join(f"{a} -> {b}\n" for a, b in FIXTURE_GRAPH),
        "smoking.constraints": "# full signature of S -> C -> D\n"
        + "\n".join(signature_lines(*SMOKING_CHAIN)) + "\n",
        "model.scm": CHAIN_SCM,
        "data.csv": fixture_csv(),
        "pipeline.json": json.dumps(FIXTURE_PIPELINE) + "\n",
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fixtures", action="store_true", required=True, help="rewrite bench/fixtures")
    parser.parse_args()
    write_fixtures()


if __name__ == "__main__":
    main()
