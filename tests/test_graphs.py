"""Graphs: DAG structure, d-separation, enumeration, text formats, templates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdl_compass.graphs import (
    CycleError,
    Dag,
    GraphFormatError,
    IndependenceSet,
    IndependenceStatement,
    Pdag,
    TemporalTemplate,
    consistent_with,
    d_separated,
    enumerate_dags,
    enumerate_mec,
    format_graph,
    hidden_confounder_template,
    implied_independencies,
    parse_constraints,
    parse_dag,
    parse_graph,
    unroll,
)
from helpers_dsep import all_queries, path_blocking_d_separated

CHAIN = Dag.of([("S", "C"), ("C", "D")])
COLLIDER = Dag.of([("S", "C"), ("D", "C")])
FORK = Dag.of([("C", "S"), ("C", "D")])


# ---------------------------------------------------------------------------
# Dag construction and structure


class TestDag:
    def test_of_collects_endpoints(self):
        g = Dag.of([("A", "B")], nodes=["Z"])
        assert g.nodes == frozenset({"A", "B", "Z"})

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CycleError):
            Dag.of([("A", "A")])

    def test_two_cycle(self):
        with pytest.raises(CycleError) as exc:
            Dag.of([("A", "B"), ("B", "A")])
        assert set(exc.value.cycle) == {"A", "B"}

    def test_longer_cycle_reported(self):
        with pytest.raises(CycleError) as exc:
            Dag.of([("A", "B"), ("B", "C"), ("C", "A"), ("X", "A")])
        assert set(exc.value.cycle) <= {"A", "B", "C"}
        assert len(exc.value.cycle) == 3

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(ValueError, match="undeclared"):
            Dag(frozenset({"A"}), frozenset({("A", "B")}))

    def test_bad_name(self):
        with pytest.raises(ValueError):
            Dag.of([("A B", "C")])

    def test_parents_children(self):
        assert CHAIN.parents("C") == frozenset({"S"})
        assert CHAIN.children("C") == frozenset({"D"})
        assert CHAIN.parents("S") == frozenset()

    def test_descendants_strict(self):
        assert CHAIN.descendants("S") == frozenset({"C", "D"})
        assert CHAIN.descendants("D") == frozenset()
        assert "S" not in CHAIN.descendants("S")

    def test_topological_order(self):
        order = CHAIN.topological_order()
        assert order == ("S", "C", "D")
        # Lexicographic among ready nodes.
        g = Dag.of([("A", "Z"), ("B", "Z")])
        assert g.topological_order() == ("A", "B", "Z")

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable 'Q'"):
            CHAIN.parents("Q")

    def test_hashable_and_equal(self):
        assert CHAIN == Dag.of([("C", "D"), ("S", "C")])
        assert len({CHAIN, Dag.of([("C", "D"), ("S", "C")])}) == 1


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Dag.of([(True, "B")]), "variable name True is not an identifier"),
        (lambda: Pdag.of(undirected=[(True, "B")]), "variable name True is not an identifier"),
        (
            lambda: TemporalTemplate(["A", "True"], [("A", True), ("A", "True")]),
            r"within-step edge \('A', True\) uses an unknown role",
        ),
    ],
    ids=["Dag", "Pdag", "TemporalTemplate"],
)
def test_builders_refuse_names_that_are_no_string(build, message):
    # A non-string is refused as itself, not accepted as its text.
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# d-separation


class TestDSeparation:
    def test_chain_blocks_on_middle(self):
        assert d_separated(CHAIN, "S", "D", ["C"])
        assert not d_separated(CHAIN, "S", "D")

    def test_fork_blocks_on_root(self):
        assert d_separated(FORK, "S", "D", ["C"])
        assert not d_separated(FORK, "S", "D")

    def test_collider_opens_on_middle(self):
        assert d_separated(COLLIDER, "S", "D")
        assert not d_separated(COLLIDER, "S", "D", ["C"])

    def test_collider_opens_on_descendant(self):
        g = Dag.of([("S", "C"), ("D", "C"), ("C", "E")])
        assert d_separated(g, "S", "D")
        assert not d_separated(g, "S", "D", ["E"])

    def test_symmetry(self):
        assert d_separated(CHAIN, "D", "S", ["C"]) == d_separated(CHAIN, "S", "D", ["C"])

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError, match="two distinct variables"):
            d_separated(CHAIN, "S", "S")

    def test_endpoint_in_conditioning_set(self):
        with pytest.raises(ValueError, match="conditioning set"):
            d_separated(CHAIN, "S", "D", ["S"])

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            d_separated(CHAIN, "S", "Q")

    def test_disconnected_nodes_always_separated(self):
        g = Dag.of(nodes=["A", "B", "C"])
        assert d_separated(g, "A", "B")
        assert d_separated(g, "A", "B", ["C"])

    def test_m_structure(self):
        # A -> C <- B, A -> X, B -> Y: conditioning on C opens A--B.
        g = Dag.of([("A", "C"), ("B", "C"), ("A", "X"), ("B", "Y")])
        assert d_separated(g, "X", "Y")
        assert not d_separated(g, "X", "Y", ["C"])
        assert d_separated(g, "X", "Y", ["A"])

    def test_agrees_with_path_blocking_small(self):
        # Exhaustive agreement on every DAG over 3 nodes and every query.
        for g in enumerate_dags(["A", "B", "C"]):
            for x, y, z in all_queries(g):
                assert d_separated(g, x, y, z) == path_blocking_d_separated(g, x, y, z)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_path_blocking_random(self, data):
        names = ["A", "B", "C", "D", "E"]
        pairs = list(itertools.combinations(names, 2))
        picks = data.draw(
            st.lists(
                st.sampled_from([0, 1, 2]), min_size=len(pairs), max_size=len(pairs)
            )
        )
        edges = []
        for (a, b), p in zip(pairs, picks):
            if p == 1:
                edges.append((a, b))
            elif p == 2:
                edges.append((b, a))
        try:
            g = Dag.of(edges, names)
        except CycleError:
            return
        x, y = data.draw(st.sampled_from(pairs))
        rest = [v for v in names if v not in (x, y)]
        z = data.draw(st.sets(st.sampled_from(rest)))
        assert d_separated(g, x, y, z) == path_blocking_d_separated(g, x, y, z)


# ---------------------------------------------------------------------------
# Independence statements and sets


class TestStatements:
    def test_canonical_endpoint_order(self):
        s = IndependenceStatement("S", "C")
        assert (s.x, s.y) == ("C", "S")
        t = IndependenceStatement("C", "S")
        assert s == t

    def test_distinct_variables_required(self):
        with pytest.raises(ValueError, match="two distinct"):
            IndependenceStatement("A", "A")

    def test_endpoint_not_in_given(self):
        with pytest.raises(ValueError, match="conditioning set"):
            IndependenceStatement("A", "B", frozenset({"A"}))

    def test_contradiction_rejected(self):
        a = IndependenceStatement("A", "B", holds=True)
        b = IndependenceStatement("B", "A", holds=False)
        with pytest.raises(ValueError, match="contradictory"):
            IndependenceSet.of([a, b])

    def test_duplicates_collapse(self):
        a = IndependenceStatement("A", "B")
        b = IndependenceStatement("B", "A")
        s = IndependenceSet.of([a, b])
        assert len(s.statements) == 1

    def test_sorted_statements_deterministic(self):
        s = IndependenceSet.of(
            [
                IndependenceStatement("A", "C", frozenset({"B"})),
                IndependenceStatement("A", "B"),
                IndependenceStatement("A", "C"),
            ]
        )
        keys = [(t.x, t.y, tuple(sorted(t.given))) for t in s.sorted_statements()]
        assert keys == [("A", "B", ()), ("A", "C", ()), ("A", "C", ("B",))]

    def test_variables(self):
        s = IndependenceSet.of([IndependenceStatement("A", "C", frozenset({"B"}))])
        assert s.variables() == frozenset({"A", "B", "C"})


class TestImplied:
    def test_chain(self):
        found = implied_independencies(CHAIN)
        assert found.statements == frozenset(
            {IndependenceStatement("S", "D", frozenset({"C"}))}
        )

    def test_collider(self):
        found = implied_independencies(COLLIDER)
        assert found.statements == frozenset({IndependenceStatement("S", "D")})

    def test_cap(self):
        g = Dag.of(nodes=[f"N{i}" for i in range(9)])
        with pytest.raises(ValueError, match="capped"):
            implied_independencies(g)

    def test_consistent_with_own_implications(self):
        for g in (CHAIN, COLLIDER, FORK):
            assert consistent_with(g, implied_independencies(g))

    def test_consistent_with_negation(self):
        bad = IndependenceSet.of([IndependenceStatement("S", "D", holds=False)])
        assert consistent_with(CHAIN, bad)
        assert not consistent_with(COLLIDER, bad)


# ---------------------------------------------------------------------------
# Enumeration


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 3), (3, 25), (4, 543)]
    )  # labeled-DAG counts
    def test_dag_counts(self, n, count):
        names = [f"V{i}" for i in range(n)]
        assert sum(1 for _ in enumerate_dags(names)) == count

    def test_all_distinct_and_acyclic(self):
        seen = set(enumerate_dags(["A", "B", "C"]))
        assert len(seen) == 25

    def test_deterministic_order(self):
        a = [g.edges for g in enumerate_dags(["A", "B", "C"])]
        b = [g.edges for g in enumerate_dags(["A", "B", "C"])]
        assert a == b

    def test_mec_of_chain(self):
        constraints = IndependenceSet.of(
            [
                IndependenceStatement("S", "D", frozenset({"C"})),
                IndependenceStatement("S", "D", holds=False),
                IndependenceStatement("S", "C", holds=False),
                IndependenceStatement("S", "C", frozenset({"D"}), holds=False),
                IndependenceStatement("C", "D", holds=False),
                IndependenceStatement("C", "D", frozenset({"S"}), holds=False),
            ]
        )
        mec = enumerate_mec(constraints, ["S", "C", "D"])
        assert {g.edges for g in mec} == {
            frozenset({("S", "C"), ("C", "D")}),
            frozenset({("C", "S"), ("D", "C")}),
            frozenset({("C", "S"), ("C", "D")}),
        }

    def test_mec_of_collider(self):
        constraints = IndependenceSet.of(
            [
                IndependenceStatement("S", "D"),
                IndependenceStatement("S", "D", frozenset({"C"}), holds=False),
                IndependenceStatement("S", "C", holds=False),
                IndependenceStatement("S", "C", frozenset({"D"}), holds=False),
                IndependenceStatement("C", "D", holds=False),
                IndependenceStatement("C", "D", frozenset({"S"}), holds=False),
            ]
        )
        mec = enumerate_mec(constraints, ["S", "C", "D"])
        assert [g.edges for g in mec] == [frozenset({("D", "C"), ("S", "C")})]

    def test_mec_sorted_by_edges(self):
        mec = enumerate_mec(IndependenceSet.of([]), ["A", "B"])
        assert len(mec) == 3
        keys = [tuple(sorted(g.edges)) for g in mec]
        assert keys == sorted(keys)

    def test_mec_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_mec(IndependenceSet.of([]), [f"V{i}" for i in range(8)])

    def test_mec_unlisted_variables(self):
        constraints = IndependenceSet.of([IndependenceStatement("A", "Z")])
        with pytest.raises(ValueError, match="unlisted"):
            enumerate_mec(constraints, ["A", "B"])

    def test_mec_from_full_implications_recovers_class(self):
        # Feeding a DAG's complete independence structure (with negations)
        # back in yields its Markov equivalence class; the chain's class has
        # three members, and each member implies the same structure.
        base = implied_independencies(CHAIN)
        names = ["S", "C", "D"]
        all_stmts = []
        keyed = {(s.x, s.y, s.given) for s in base.statements}
        for x, y in itertools.combinations(sorted(names), 2):
            rest = [v for v in names if v not in (x, y)]
            for size in range(len(rest) + 1):
                for z in itertools.combinations(rest, size):
                    key = (min(x, y), max(x, y), frozenset(z))
                    all_stmts.append(
                        IndependenceStatement(x, y, frozenset(z), key in keyed)
                    )
        mec = enumerate_mec(IndependenceSet.of(all_stmts), names)
        assert len(mec) == 3
        for member in mec:
            assert implied_independencies(member).statements == base.statements


# ---------------------------------------------------------------------------
# Pdag


class TestPdag:
    def test_of(self):
        p = Pdag.of([("A", "B")], [("B", "C")])
        assert p.nodes == frozenset({"A", "B", "C"})
        assert frozenset({"B", "C"}) in p.undirected

    def test_directed_part_must_be_acyclic(self):
        with pytest.raises(CycleError):
            Pdag.of([("A", "B"), ("B", "C"), ("C", "A")])

    def test_opposite_orientations_rejected(self):
        with pytest.raises(ValueError, match="both orientations"):
            Pdag.of([("A", "B"), ("B", "A")])

    def test_no_double_edges(self):
        with pytest.raises(ValueError, match="both"):
            Pdag.of([("A", "B")], [("A", "B")])

    def test_undirected_self_edge(self):
        with pytest.raises(ValueError):
            Pdag.of([], [("A", "A")])


# ---------------------------------------------------------------------------
# Text formats


class TestGraphText:
    def test_parse_directed(self):
        g = parse_graph("S -> C\nC -> D\n")
        assert g == CHAIN

    def test_parse_with_comments_and_isolates(self):
        g = parse_graph("# header\nA -> B  # trailing\n\nZ\n")
        assert isinstance(g, Dag)
        assert g.nodes == frozenset({"A", "B", "Z"})
        assert g.edges == frozenset({("A", "B")})

    def test_parse_undirected_yields_pdag(self):
        g = parse_graph("A -> B\nB -- C\n")
        assert isinstance(g, Pdag)

    def test_parse_dag_rejects_pdag(self):
        with pytest.raises(GraphFormatError, match="undirected"):
            parse_dag("A -- B\n")

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("A -> B\nA => B\n")
        assert exc.value.line == 2

    def test_cycle_reported_as_format_error(self):
        with pytest.raises(GraphFormatError):
            parse_graph("A -> B\nB -> A\n")

    @pytest.mark.parametrize(
        "parse,text",
        [(parse_graph, "A -> B\nB -> A\n"), (parse_dag, "A -> B\nB -- C\n")],
    )
    def test_whole_file_error_names_no_line(self, parse, text):
        with pytest.raises(GraphFormatError) as exc:
            parse(text)
        assert exc.value.line is None
        assert "line" not in str(exc.value)

    def test_format_round_trip(self):
        text = format_graph(CHAIN)
        assert parse_graph(text) == CHAIN

    def test_format_canonical(self):
        g = Dag.of([("B", "C"), ("A", "B")], nodes=["Z"])
        assert format_graph(g) == "Z\nA -> B\nB -> C\n"

    def test_format_empty(self):
        assert format_graph(Dag.of()) == ""

    def test_format_pdag(self):
        p = Pdag.of([("A", "B")], [("C", "B")])
        assert format_graph(p) == "A -> B\nB -- C\n"
        assert parse_graph(format_graph(p)) == p

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_random_dags(self, data):
        names = ["A", "B", "C", "D"]
        pairs = list(itertools.combinations(names, 2))
        picks = data.draw(
            st.lists(st.sampled_from([0, 1, 2]), min_size=len(pairs), max_size=len(pairs))
        )
        edges = []
        for (a, b), p in zip(pairs, picks):
            if p == 1:
                edges.append((a, b))
            elif p == 2:
                edges.append((b, a))
        try:
            g = Dag.of(edges, names)
        except CycleError:
            return
        assert parse_graph(format_graph(g)) == g


class TestConstraintText:
    def test_basic(self):
        s = parse_constraints("S _||_ D | C\n", ["S", "C", "D"])
        assert s.statements == frozenset(
            {IndependenceStatement("S", "D", frozenset({"C"}))}
        )

    def test_not_prefix(self):
        s = parse_constraints("not S _||_ C\n", ["S", "C", "D"])
        (stmt,) = s.statements
        assert not stmt.holds

    def test_star_expands_to_all_subsets(self):
        s = parse_constraints("not S _||_ D | *\n", ["S", "C", "D", "E"])
        # Subsets of {C, E}: {}, {C}, {E}, {C, E}.
        assert len(s.statements) == 4
        assert all(not t.holds for t in s.statements)

    def test_comma_and_space_given(self):
        a = parse_constraints("A _||_ B | C, D\n", ["A", "B", "C", "D"])
        b = parse_constraints("A _||_ B | C D\n", ["A", "B", "C", "D"])
        assert a.statements == b.statements

    def test_undeclared_variable(self):
        with pytest.raises(GraphFormatError, match="undeclared"):
            parse_constraints("S _||_ Q\n", ["S", "C", "D"])

    def test_malformed_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_constraints("S _||_ D\nS D\n", ["S", "C", "D"])
        assert exc.value.line == 2

    @pytest.mark.parametrize("tail", ["", " | C", " | *"])
    def test_same_variable_twice_names_the_line(self, tail):
        with pytest.raises(GraphFormatError) as exc:
            parse_constraints(f"S _||_ D\nS _||_ S{tail}\n", ["S", "C", "D"])
        assert str(exc.value) == "line 2: an independence statement needs two distinct variables"

    def test_contradiction_across_lines(self):
        with pytest.raises(GraphFormatError, match="contradictory"):
            parse_constraints("S _||_ D\nnot D _||_ S\n", ["S", "C", "D"])

    def test_contradiction_names_no_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_constraints("S _||_ D\nnot D _||_ S\n", ["S", "C", "D"])
        assert exc.value.line is None
        assert str(exc.value).startswith("contradictory")

    def test_comments_and_blanks(self):
        s = parse_constraints("# only a comment\n\nS _||_ D | C\n", ["S", "C", "D"])
        assert len(s.statements) == 1


# ---------------------------------------------------------------------------
# Temporal templates


class TestTemplates:
    def test_reference_template_two_steps(self):
        g = unroll(hidden_confounder_template(), 2)
        assert len(g.nodes) == 8
        assert len(g.edges) == 11

    @pytest.mark.parametrize("steps,edges", [(1, 4), (2, 11), (3, 18), (4, 25)])
    def test_reference_template_edge_counts(self, steps, edges):
        assert len(unroll(hidden_confounder_template(), steps).edges) == edges

    @pytest.mark.parametrize("steps", range(1, 11))
    def test_reference_template_always_acyclic(self, steps):
        # Dag construction itself validates acyclicity.
        g = unroll(hidden_confounder_template(), steps)
        assert len(g.nodes) == 4 * steps

    def test_node_naming(self):
        g = unroll(hidden_confounder_template(), 2)
        assert g.nodes == frozenset(
            f"{role}{t}" for role in "XAUY" for t in (1, 2)
        )

    def test_first_versus_later_qualifiers(self):
        g = unroll(hidden_confounder_template(), 3)
        assert ("X1", "U1") in g.edges
        assert ("X2", "U2") not in g.edges
        assert ("U2", "X2") in g.edges
        assert ("U1", "X1") not in g.edges

    def test_cross_step_edges_lag_one(self):
        g = unroll(hidden_confounder_template(), 3)
        assert ("U1", "U2") in g.edges
        assert ("U2", "U3") in g.edges
        assert ("U1", "U3") not in g.edges

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            unroll(hidden_confounder_template(), 0)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown role"):
            TemporalTemplate(["A"], within_step=[("A", "B")])

    def test_unknown_qualifier_rejected(self):
        with pytest.raises(ValueError, match="qualifier"):
            TemporalTemplate(["A", "B"], within_step=[("A", "B", "sometimes")])

    @pytest.mark.parametrize(
        "entries,message",
        [
            ({"within_step": [("A",)]}, "within-step entries are"),
            ({"across_step": [("A", "B", 1)]}, "across-step entries are"),
            ({"within_step": [("A", "A")]}, "^within-step self edge on role 'A'$"),
            (
                {"across_step": [("A", "C")]},
                r"^cross-step edge \('A', 'C'\) uses an unknown role$",
            ),
        ],
        ids=["within-arity", "across-arity", "within-self-edge", "across-unknown-role"],
    )
    def test_malformed_entry_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            TemporalTemplate(["A", "B"], **entries)

    def test_roles_that_spell_one_node_are_refused(self):
        # X at step 11 and X1 at step 1 are both X11.
        t = TemporalTemplate(("X", "X1"), [("X", "X1")])
        assert len(unroll(t, 10).nodes) == 20
        with pytest.raises(ValueError) as exc:
            unroll(t, 11)
        assert str(exc.value) == "node 'X11' is both (role, step) ('X', 11) and ('X1', 1)"

    def test_role_names_are_identifiers(self):
        with pytest.raises(ValueError, match="variable name 'a-b' is not an identifier"):
            TemporalTemplate(["A", "a-b"])

    def test_roles_are_checked_however_the_template_is_built(self):
        with pytest.raises(ValueError, match="variable name 'a b' is not an identifier"):
            TemporalTemplate(frozenset({"a b"}), (), frozenset())

    def test_within_step_cycle_fails_on_unroll(self):
        t = TemporalTemplate(
            ["A", "B"], within_step=[("A", "B", "every"), ("B", "A", "every")]
        )
        with pytest.raises(CycleError):
            unroll(t, 1)

    def test_pure_autoregression(self):
        t = TemporalTemplate(["Z"], across_step=[("Z", "Z")])
        g = unroll(t, 4)
        assert g.edges == frozenset({("Z1", "Z2"), ("Z2", "Z3"), ("Z3", "Z4")})
