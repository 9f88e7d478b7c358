"""Differential tests: separation, class search and the graph index against
slow oracles.

``d_separated`` asks a Reachable walk over bitmasks; ``helpers_dsep``
moralizes the ancestral graph instead, and the batched callers are checked
against one ``d_separated`` call per pair.  ``enumerate_mec`` pins pairs
before it branches; ``helpers_mec`` pins nothing and filters every labeled
DAG, built one assignment of the pair states at a time rather than by the
search ``enumerate_dags`` shares with ``enumerate_mec``.  ``Dag`` answers
parents, children, descendants and topological order from an index built
once; the oracles here scan the edge set on every call.
"""

import dataclasses
import heapq
import itertools
import random
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_dsep import all_queries, moralized_d_separated  # noqa: E402
from helpers_mec import brute_force_mec, every_dag, full_signature  # noqa: E402
from test_cli import (  # noqa: E402
    CHAIN_CONSTRAINTS,
    COLLIDER_CONSTRAINTS,
    IMPOSSIBLE_CONSTRAINTS,
)

from cdl_compass.graphs import (
    CycleError,
    Dag,
    IndependenceSet,
    IndependenceStatement,
    _d_connected,
    consistent_with,
    d_separated,
    enumerate_dags,
    enumerate_mec,
    hidden_confounder_template,
    implied_independencies,
    parse_constraints,
    unroll,
)

FOUR = ["A", "B", "C", "D"]
FIVE = [f"V{i}" for i in range(5)]
SIX = [f"V{i}" for i in range(6)]


@pytest.fixture(scope="module")
def four_node_dags():
    return list(every_dag(tuple(FOUR)))


@pytest.fixture(scope="module")
def five_node_dags():
    return list(every_dag(tuple(FIVE)))


def random_dag(rng: random.Random, names: list[str], p: float) -> Dag:
    order = rng.sample(names, len(names))
    edges = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < p
    ]
    return Dag.of(edges, names)


def random_query(rng: random.Random, names: list[str], p: float):
    x, y = rng.sample(names, 2)
    return x, y, tuple(v for v in names if v not in (x, y) and rng.random() < p)


SIZES = [1, 2, 3, 5, 8, 13, 21, 34, 60]


# ---------------------------------------------------------------------------
# Separation engine


class TestSeparation:
    def test_every_four_node_query(self, four_node_dags):
        checked = 0
        for g in four_node_dags:
            for x, y, z in all_queries(g):
                assert d_separated(g, x, y, z) == moralized_d_separated(g, x, y, z)
                checked += 1
        assert checked == 543 * 24

    @pytest.mark.parametrize("n", SIZES)
    def test_random_dags(self, n):
        rng = random.Random(f"dsep:{n}")
        for _ in range(6):
            # Sparse draws leave some nodes isolated.
            names = [f"v{k}" for k in range(n)]
            g = random_dag(rng, names, rng.choice((0.02, 0.1, 0.3, 0.7)))
            for _ in range(40 if n > 1 else 0):
                x, y, z = random_query(rng, names, rng.choice((0.0, 0.1, 0.3)))
                assert d_separated(g, x, y, z) == moralized_d_separated(g, x, y, z)

    def test_unrolled_template(self):
        g = unroll(hidden_confounder_template(), 750)
        rng = random.Random(7500)
        names = sorted(g.nodes)
        queries = [
            ("X1", "X750", ("U375", "X375")),
            ("X1", "Y750", ()),
            ("A1", "A2", ("X2",)),
            ("Y1", "Y2", ("X1", "X2", "U2", "A1")),
        ]
        for _ in range(24):
            x, y = rng.sample(names, 2)
            rest = [v for v in names if v not in (x, y)]
            queries.append((x, y, tuple(rng.sample(rest, rng.randint(0, 6)))))
        for x, y, z in queries:
            assert d_separated(g, x, y, z) == moralized_d_separated(g, x, y, z)
        assert d_separated(g, *queries[0]) and not d_separated(g, *queries[1])

    @pytest.mark.parametrize("n", SIZES)
    def test_reachable_set_matches_pairs(self, n):
        rng = random.Random(f"reach:{n}")
        for _ in range(6):
            names = [f"v{k}" for k in range(n)]
            g = random_dag(rng, names, rng.choice((0.02, 0.1, 0.3, 0.7)))
            for _ in range(10):
                x = rng.choice(names)
                z = [v for v in names if v != x and rng.random() < 0.2]
                others = [v for v in names if v != x and v not in z]
                chosen = [v for v in others if rng.random() < 0.5]
                for targets in (others, chosen):
                    mask = sum(1 << g._index[v] for v in targets)
                    zmask = sum(1 << g._index[v] for v in z)
                    masks = g._parent_masks, g._child_masks, g._ancestor_masks
                    reached = _d_connected(*masks, g._index[x], zmask, mask)
                    want = {v for v in targets if not d_separated(g, x, v, z)}
                    assert reached == sum(1 << g._index[v] for v in want)

    def test_implied_independencies_match_pair_loop(self, four_node_dags):
        def pair_loop(g):
            order = sorted(g.nodes)
            found = set()
            for x, y in itertools.combinations(order, 2):
                rest = [v for v in order if v not in (x, y)]
                for size in range(len(rest) + 1):
                    for z in itertools.combinations(rest, size):
                        if d_separated(g, x, y, z):
                            found.add(IndependenceStatement(x, y, frozenset(z)))
            return found

        rng = random.Random("implied")
        graphs = four_node_dags + [
            random_dag(rng, [f"v{k}" for k in range(n)], rng.uniform(0.1, 0.7))
            for n in (1, 2, 5, 6, 7, 8, 8)
        ]
        for g in graphs:
            assert implied_independencies(g).statements == pair_loop(g)

    def test_consistent_with_matches_statement_loop(self, four_node_dags):
        rng = random.Random("consistent")
        for _ in range(30):
            full = full_signature(random_dag(rng, FOUR, rng.uniform(0.2, 0.8)))
            part = IndependenceSet.of(s for s in full.statements if rng.random() < 0.3)
            for g in rng.sample(four_node_dags, 20):
                want = all(d_separated(g, s.x, s.y, s.given) == s.holds for s in part.statements)
                assert consistent_with(g, part) == want

    def test_consistent_with_names_first_unknown_variable(self):
        g = Dag.of([("A", "B")])
        constraints = IndependenceSet.of(
            [IndependenceStatement("A", "B", frozenset({"C"})), IndependenceStatement("A", "D")]
        )
        with pytest.raises(ValueError, match="unknown variable 'C'"):
            consistent_with(g, constraints)


# ---------------------------------------------------------------------------
# Class search


class TestClassSearch:
    @pytest.mark.parametrize("n", range(6))
    def test_enumerate_dags_matches_every_assignment(self, n):
        names = [f"V{i}" for i in range(n)]
        got = list(enumerate_dags(names))
        assert len(got) == [1, 1, 3, 25, 543, 29281][n]
        assert set(got) == set(every_dag(tuple(names)))

    def test_only_members_become_dags(self, monkeypatch):
        # 4,320 acyclic orientations of the skeleton, of which 120 (V0 and
        # V1 both sources) keep V0 and V1 independent.
        seven = [f"V{i}" for i in range(7)]
        g = Dag.of([e for e in itertools.combinations(seven, 2) if e != ("V0", "V1")], seven)
        signature = full_signature(g)
        built = []
        post_init = Dag.__post_init__
        monkeypatch.setattr(Dag, "__post_init__", lambda self: built.append(post_init(self)))
        assert len(enumerate_mec(signature, seven)) == 120
        assert len(built) == 120

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

    def test_branch_cap(self):
        # Two pairs left undecided on six variables: 3 * 3 branches.
        free = {("V0", "V1"), ("V2", "V3")}
        text = "".join(
            f"{a} _||_ {b}\n" for a, b in itertools.combinations(SIX, 2) if (a, b) not in free
        )
        got = enumerate_mec(parse_constraints(text, SIX), SIX)
        assert len(got) == 9
        # Two pairs pinned absent leave 13 undecided: 3^13 branches.
        sparse = parse_constraints("V0 _||_ V1\nV2 _||_ V3\n", SIX)
        with pytest.raises(ValueError, match="leave 13 of 15 variable pairs undecided"):
            enumerate_mec(sparse, SIX)
        with pytest.raises(ValueError, match="leave 15 of 15 variable pairs undecided"):
            enumerate_mec(IndependenceSet.of([]), SIX)
        # Five pairs pinned adjacent and ten undecided: at most 3^10 * 2^5
        # and 6! * 2^10 DAGs, a search of about a minute.
        star = [
            IndependenceStatement("V0", b, frozenset(z), False)
            for b in SIX[1:]
            for size in range(5)
            for z in itertools.combinations([v for v in SIX if v not in ("V0", b)], size)
        ]
        with pytest.raises(ValueError, match="leave 10 of 15 .* 737280 search branches"):
            enumerate_mec(IndependenceSet.of(star), SIX)

    def test_six_node_cycle_skeleton(self):
        # V0 -> V1 -> ... -> V5 plus V0 -> V5: a 6-cycle skeleton whose one
        # v-structure is V4 -> V5 <- V0.
        edges = [(f"V{i}", f"V{i + 1}") for i in range(5)] + [("V0", "V5")]
        g = Dag.of(edges, SIX)
        want = same_v_structure_orientations(g)
        assert len(want) == 5
        assert enumerate_mec(full_signature(g), SIX) == want

    def test_dense_seven_variable_full_signature(self):
        # Sixteen pinned edges: a product of each pair's choices counts 2^16
        # branches, but the search reaches at most 7! acyclic orientations.
        seven = [f"V{i}" for i in range(7)]
        edges = [(f"V{i}", f"V{i + 1}") for i in range(6)] + [
            ("V0", "V2"), ("V1", "V3"), ("V2", "V4"), ("V3", "V5"), ("V4", "V6"),
            ("V0", "V6"), ("V1", "V5"), ("V0", "V3"), ("V2", "V6"), ("V1", "V4"),
        ]
        g = Dag.of(edges, seven)
        assert enumerate_mec(full_signature(g), seven) == (
            same_v_structure_orientations(g)
        )


@st.composite
def dags(draw, n: int, max_edges: int | None = None) -> Dag:
    """A DAG on ``V0 .. V<n-1>``: some pairs, oriented along a drawn order."""
    names = [f"V{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
    rank = {v: i for i, v in enumerate(draw(st.permutations(names)))}
    return Dag.of([(a, b) if rank[a] < rank[b] else (b, a) for a, b in chosen], names)


def statements_by_pair(constraints: IndependenceSet):
    by_pair = {}
    for s in constraints.sorted_statements():
        by_pair.setdefault((s.x, s.y), []).append(s)
    return by_pair


@st.composite
def pinned_constraints(draw):
    """Constraints on 3-5 variables that decide every pair: a full
    signature; one statement of it flipped; a share of it that keeps every
    negation of each edge and some holding statements of each absent pair;
    or that share with the separating sets of a second DAG wherever the
    second DAG separates the pair too."""
    n = draw(st.sampled_from([3, 4, 5]))
    g = draw(dags(n))
    full = full_signature(g)
    kind = draw(st.sampled_from(["full", "flipped", "share", "second"]))
    if kind == "full":
        return n, full
    if kind == "flipped":
        s = draw(st.sampled_from(full.sorted_statements()))
        flipped = dataclasses.replace(s, holds=not s.holds)
        return n, IndependenceSet.of((full.statements - {s}) | {flipped})
    other = statements_by_pair(full_signature(draw(dags(n))))
    kept = []
    for pair, statements in statements_by_pair(full).items():
        held = [s for s in statements if s.holds]
        if not held:
            kept += statements
        elif kind == "second" and any(s.holds for s in other[pair]):
            kept += [s for s in other[pair] if s.holds]
        else:
            share = draw(st.lists(st.sampled_from(statements), unique=True))
            kept += share if any(s.holds for s in share) else share + held[:1]
    return n, IndependenceSet.of(kept)


class TestPinnedSkeletons:
    @settings(max_examples=100, deadline=None)
    @given(pinned_constraints())
    def test_match_brute_force(self, case):
        n, constraints = case
        names = [f"V{i}" for i in range(n)]
        assert enumerate_mec(constraints, names) == brute_force_mec(constraints, names)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 7).flatmap(lambda n: dags(n, max_edges=11)))
    def test_full_signatures_on_six_and_seven_variables(self, g):
        assert enumerate_mec(full_signature(g), g.nodes) == (
            same_v_structure_orientations(g)
        )


def same_v_structure_orientations(g: Dag) -> list[Dag]:
    """Every acyclic orientation of ``g``'s skeleton with its v-structures:
    its Markov equivalence class, sorted by edge list."""
    edges = sorted(g.edges)
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
            candidate = Dag.of(oriented, g.nodes)
        except CycleError:
            continue
        if v_structures(candidate) == v_structures(g):
            want.append(candidate)
    want.sort(key=lambda d: tuple(sorted(d.edges)))
    return want


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
    @pytest.mark.parametrize("n", SIZES)
    def test_random_dags(self, n):
        rng = random.Random(f"index:{n}")
        for _ in range(4):
            # Names whose lexicographic order differs from their numbering,
            # and a sparse draw that leaves some nodes isolated.
            names = [f"v{k}" for k in range(n)]
            g = random_dag(rng, names, rng.choice((0.02, 0.1, 0.3, 0.7)))
            check_index(g, names)

    def test_cycles_are_named(self):
        rng = random.Random("cycles")
        for n in (2, 3, 5, 8, 13):
            names = [f"v{k}" for k in range(n)]
            for _ in range(20):
                edges = {tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, 2 * n))}
                try:
                    g = Dag.of(edges, names)
                except CycleError as exc:
                    cycle = exc.cycle
                    assert all(
                        (a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1])
                    )
                    assert str(exc) == "directed cycle: " + " -> ".join(cycle + cycle[:1])
                    continue
                check_index(g, names)
                assert g.topological_order() is g.topological_order()

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
