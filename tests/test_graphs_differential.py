"""Differential tests: class search and the graph index against slow oracles.

``enumerate_mec`` pins pairs before it branches; ``helpers_mec`` pins
nothing and filters every labeled DAG.  ``Dag`` answers parents, children,
descendants and topological order from an index built once; the oracles
here scan the edge set on every call.
"""

import heapq
import itertools
import random
import sys
from collections import deque
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers_mec import brute_force_mec, full_signature  # noqa: E402
from test_cli import (  # noqa: E402
    CHAIN_CONSTRAINTS,
    COLLIDER_CONSTRAINTS,
    IMPOSSIBLE_CONSTRAINTS,
)

from cdl_compass.graphs import (
    CycleError,
    Dag,
    IndependenceSet,
    enumerate_dags,
    enumerate_mec,
    hidden_confounder_template,
    parse_constraints,
    unroll,
)

FOUR = ["A", "B", "C", "D"]
FIVE = [f"V{i}" for i in range(5)]
SIX = [f"V{i}" for i in range(6)]


@pytest.fixture(scope="module")
def four_node_dags():
    return list(enumerate_dags(FOUR))


@pytest.fixture(scope="module")
def five_node_dags():
    return list(enumerate_dags(FIVE))


def random_dag(rng: random.Random, names: list[str], p: float) -> Dag:
    order = rng.sample(names, len(names))
    edges = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < p
    ]
    return Dag.of(edges, names)


# ---------------------------------------------------------------------------
# Class search


class TestClassSearch:
    def test_every_four_node_signature(self, four_node_dags):
        classes = {}
        for g in four_node_dags:
            classes.setdefault(full_signature(g), []).append(g)
        assert len(classes) == 185  # Markov equivalence classes on 4 labeled nodes
        for signature, members in classes.items():
            got = enumerate_mec(signature, FOUR)
            assert got == brute_force_mec(signature, FOUR, four_node_dags)
            assert got == sorted(members, key=lambda g: tuple(sorted(g.edges)))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_five_node_signatures(self, five_node_dags, seed):
        rng = random.Random(seed)
        g = random_dag(rng, FIVE, rng.uniform(0.3, 0.6))
        signature = full_signature(g)
        got = enumerate_mec(signature, FIVE)
        assert g in got
        assert got == brute_force_mec(signature, FIVE, five_node_dags)

    @pytest.mark.parametrize("keep", ["holds", "negations"])
    def test_one_polarity_of_a_signature(self, four_node_dags, keep):
        rng = random.Random(f"polarity:{keep}")
        for _ in range(12):
            full = full_signature(random_dag(rng, FOUR, rng.uniform(0.2, 0.8)))
            part = IndependenceSet.of(
                s for s in full.statements if s.holds == (keep == "holds")
            )
            assert enumerate_mec(part, FOUR) == brute_force_mec(part, FOUR, four_node_dags)

    def test_random_subsets_of_signatures(self, four_node_dags):
        rng = random.Random(2024)
        for _ in range(40):
            full = full_signature(random_dag(rng, FOUR, rng.uniform(0.2, 0.8)))
            keep = rng.uniform(0.2, 0.9)
            part = IndependenceSet.of(s for s in full.sorted_statements() if rng.random() < keep)
            assert enumerate_mec(part, FOUR) == brute_force_mec(part, FOUR, four_node_dags)

    @pytest.mark.parametrize(
        "text",
        [
            "not A _||_ B | *\n",
            "not A _||_ B | *\nnot B _||_ C | *\nnot C _||_ D | *\n",
            "not A _||_ B | *\nnot B _||_ C | *\nA _||_ C\nnot A _||_ C | B\n",
            "not A _||_ B | *\nnot A _||_ C | *\nnot A _||_ D | *\nB _||_ C | A\n",
            "",
        ],
    )
    def test_partial_constraint_text(self, four_node_dags, text):
        constraints = parse_constraints(text, FOUR)
        got = enumerate_mec(constraints, FOUR)
        assert got == brute_force_mec(constraints, FOUR, four_node_dags)
        if not text:
            assert len(got) == 543

    @pytest.mark.parametrize(
        "text", [CHAIN_CONSTRAINTS, COLLIDER_CONSTRAINTS, IMPOSSIBLE_CONSTRAINTS]
    )
    def test_cli_constraint_texts(self, text):
        names = ["S", "C", "D"]
        constraints = parse_constraints(text, names)
        assert enumerate_mec(constraints, names) == brute_force_mec(constraints, names)

    def test_six_node_cycle_skeleton(self):
        # V0 -> V1 -> ... -> V5 plus V0 -> V5: a 6-cycle skeleton whose one
        # v-structure is V4 -> V5 <- V0.  Its class is every acyclic
        # orientation of the skeleton with the same v-structures.
        edges = [(f"V{i}", f"V{i + 1}") for i in range(5)] + [("V0", "V5")]
        g = Dag.of(edges, SIX)
        skeleton = {frozenset(e) for e in edges}

        def v_structures(dag):
            found = set()
            for c in dag.nodes:
                for a, b in itertools.combinations(sorted(dag.parents(c)), 2):
                    if frozenset((a, b)) not in skeleton:
                        found.add((a, c, b))
            return found

        want = []
        for flips in itertools.product((False, True), repeat=len(edges)):
            oriented = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
            try:
                candidate = Dag.of(oriented, SIX)
            except CycleError:
                continue
            if v_structures(candidate) == v_structures(g):
                want.append(candidate)
        want.sort(key=lambda d: tuple(sorted(d.edges)))
        assert len(want) == 5
        assert enumerate_mec(full_signature(g), SIX) == want


# ---------------------------------------------------------------------------
# Graph index


def edge_scan_parents(g: Dag, node: str) -> frozenset[str]:
    return frozenset(a for a, b in g.edges if b == node)


def edge_scan_children(g: Dag, node: str) -> frozenset[str]:
    return frozenset(b for a, b in g.edges if a == node)


def bfs_descendants(children: dict[str, set[str]], node: str) -> frozenset[str]:
    seen: set[str] = set()
    queue = deque(children[node])
    while queue:
        v = queue.popleft()
        if v not in seen:
            seen.add(v)
            queue.extend(children[v])
    return frozenset(seen)


def heap_kahn_order(g: Dag, children: dict[str, set[str]]) -> tuple[str, ...]:
    indeg = {v: 0 for v in g.nodes}
    for _, b in g.edges:
        indeg[b] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in sorted(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return tuple(out)


def check_index(g: Dag, sample: list[str]) -> None:
    children: dict[str, set[str]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        children[a].add(b)
    assert g.topological_order() == heap_kahn_order(g, children)
    for v in sample:
        assert g.parents(v) == edge_scan_parents(g, v)
        assert g.children(v) == edge_scan_children(g, v)
        assert g.descendants(v) == bfs_descendants(children, v)


class TestGraphIndex:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 60])
    def test_random_dags(self, n):
        rng = random.Random(f"index:{n}")
        for _ in range(4):
            # Names whose lexicographic order differs from their numbering,
            # and a sparse draw that leaves some nodes isolated.
            names = [f"v{k}" for k in range(n)]
            g = random_dag(rng, names, rng.choice((0.02, 0.1, 0.3, 0.7)))
            check_index(g, names)

    def test_isolated_nodes(self):
        g = Dag.of([("b", "a")], nodes=["z", "c", "a", "b"])
        check_index(g, sorted(g.nodes))
        assert g.topological_order() == ("b", "a", "c", "z")

    def test_unrolled_template(self):
        g = unroll(hidden_confounder_template(), 750)
        rng = random.Random(750)
        sample = ["X1", "U1", "A1", "Y1", "X750", "U750"]
        sample += rng.sample(sorted(g.nodes), 24)
        check_index(g, sample)
