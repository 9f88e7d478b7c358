"""Every reader of a variable name agrees with the one name rule.

``graphs._check_name`` accepts a name exactly when an expression reads it
as that variable, a graph line as that node, a noise line as that key, and
a constraint line on either side of ``_||_``; and every ``Dag`` it lets be
built prints as text that reads back as the same graph.  The names are
drawn over letters, digits and characters that some format splits on or
reserves, with a space and a zero-width space.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdl_compass.expressions import parse_expression
from cdl_compass.graphs import Dag, _check_name, format_graph, parse_constraints, parse_graph
from cdl_compass.scm import parse_scm

# "Z" and "W", the other names the readers are given, are not drawn.
NAMES = st.text(alphabet="ABXYabxy019_-|,#. \u200b", max_size=6)


def accepted(name: str) -> bool:
    try:
        _check_name(name)
    except ValueError:
        return False
    return True


def reads(read, name: str) -> bool:
    """Does ``read(name)`` hold, a refusal counting as no?"""
    try:
        return read(name)
    except ValueError:
        return False


def constraint_statements(name: str) -> set[tuple]:
    statements = parse_constraints(f"{name} _||_ Z | W\nnot Z _||_ {name}\n", [name, "Z", "W"])
    return {(s.x, s.y, s.given, s.holds) for s in statements.statements}


@settings(max_examples=300, deadline=None)
@given(NAMES)
@example("A#B")
@example("A|B")
@example("A,B")
@example("X-1")
@example("A\u200b")
@example("")
def test_readers_agree_with_the_name_rule(name):
    pair = tuple(sorted((name, "Z")))
    readings = {
        "expression": reads(lambda s: parse_expression(s).program == (("var", s),), name),
        "graph": reads(lambda s: s in parse_graph(f"{s} -> Z\n").nodes, name),
        "noise line": reads(
            lambda s: set(parse_scm(f"graph:\nequations:\nnoise:\nU_{s} ~ Normal(0, 1)\n").noise)
            == {s},
            name,
        ),
        "constraint line": reads(
            lambda s: constraint_statements(s)
            == {(*pair, frozenset({"W"}), True), (*pair, frozenset(), False)},
            name,
        ),
    }
    assert readings == dict.fromkeys(readings, accepted(name))


@settings(max_examples=200, deadline=None)
@given(st.lists(NAMES, min_size=1, max_size=5, unique=True), st.integers(0, 1023))
@example(["A#B"], 0)
@example(["A", "B#C"], 1)
def test_every_dag_prints_text_that_reads_back(names, edge_bits):
    # Edges run from earlier to later names, so the graph is acyclic.
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    edges = [e for k, e in enumerate(pairs) if edge_bits >> k & 1]
    try:
        g = Dag.of(edges, names)
    except ValueError:
        assert not all(map(accepted, names))
        return
    assert all(map(accepted, names))
    assert parse_graph(format_graph(g)) == g
