"""Checks on rules that the package keeps in one place.

A ``Dag`` names a directed cycle from the nodes Kahn's pass leaves over; a
``Pdag`` leaves names, directed endpoints, self loops and cycles to the
``Dag`` it builds from its directed part; and ``evaluate_expression`` checks
a result that no operator or function has checked, a bare identifier's
binding, once.  Where a graph holds several faults, the one named first
does not depend on string hashing.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdl_compass
from cdl_compass.cli import main
from cdl_compass.expressions import EvaluationError, evaluate_expression, parse_expression
from cdl_compass.graphs import CycleError, Dag, Pdag
from cdl_compass.scm import oracle_cate, parse_scm

# Overlapping cycles, so that a node has several parents on cycles.
CYCLIC_GRAPHS = [
    "X -> Y\nY -> Z\nZ -> X\n",
    "a -> b\nb -> c\nc -> a\nc -> d\nd -> e\ne -> c\nb -> e\nf -> a\n",
    "v3 -> v1\nv1 -> v4\nv4 -> v3\nv4 -> v0\nv0 -> v2\nv2 -> v4\nv2 -> v1\nv5 -> v0\n",
]


def cycle_edges(message: str) -> list[tuple[str, str]]:
    assert message.startswith("directed cycle: ")
    names = message.removeprefix("directed cycle: ").split(" -> ")
    assert names[0] == names[-1]
    return list(zip(names, names[1:]))


# ---------------------------------------------------------------------------
# Cycle naming


@pytest.mark.parametrize("text", CYCLIC_GRAPHS)
def test_dsep_names_a_cycle_of_the_file(capsys, tmp_path, text):
    path = tmp_path / "cyclic.graph"
    path.write_text(text)
    code = main(["dsep", str(path), "--x", "X", "--y", "Y"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: directed cycle: ")
    file_edges = {tuple(line.split(" -> ")) for line in text.splitlines()}
    named = cycle_edges(captured.err.removeprefix("error: ").rstrip("\n"))
    assert named and set(named) <= file_edges


def test_cycle_name_does_not_depend_on_the_hash_seed():
    # String hashing, and with it set iteration order, changes with
    # PYTHONHASHSEED; the named cycle must not.
    code = (
        "import random\n"
        "from cdl_compass.graphs import CycleError, Dag\n"
        "rng = random.Random('hash seed')\n"
        "names = [f'n{k}' for k in range(13)]\n"
        "for _ in range(40):\n"
        "    edges = {tuple(rng.sample(names, 2)) for _ in range(20)}\n"
        "    try:\n"
        "        Dag.of(edges, names)\n"
        "    except CycleError as exc:\n"
        "        print(exc)\n"
    )
    paths = [str(Path(cdl_compass.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("directed cycle: ") >= 10
    assert outputs[0] == outputs[1]


def test_cycle_walks_from_the_lowest_leftover_node():
    # Kahn's pass leaves a, b, c, d and e over (f is a source).  From a, the
    # lowest leftover parent is c, then b, whose parent a closes the cycle.
    with pytest.raises(CycleError) as info:
        Dag.of([tuple(line.split(" -> ")) for line in CYCLIC_GRAPHS[1].splitlines()])
    assert info.value.cycle == ["b", "c", "a"]


# ---------------------------------------------------------------------------
# Pdag faults, one at a time

BOTH_ORIENTATIONS = {
    "both orientations present between 'A' and 'B'",
    "both orientations present between 'B' and 'A'",
}


@pytest.mark.parametrize(
    "build, error, messages",
    [
        pytest.param(
            lambda: Pdag.of([("A", "B")], nodes=["B C"]),
            ValueError,
            {"variable names are nonempty strings without whitespace: 'B C'"},
            id="bad-name",
        ),
        pytest.param(
            lambda: Pdag(frozenset("A"), frozenset({("A", "B")}), frozenset()),
            ValueError,
            {"edge ('A', 'B') uses an undeclared node"},
            id="undeclared-directed-endpoint",
        ),
        pytest.param(
            lambda: Pdag.of([("A", "A")], [("A", "B")]),
            CycleError,
            {"directed cycle: A -> A"},
            id="directed-self-loop",
        ),
        pytest.param(
            lambda: Pdag.of([("A", "B")], [("C", "C")]),
            ValueError,
            {"undirected edges join two distinct nodes"},
            id="undirected-self-loop",
        ),
        pytest.param(
            lambda: Pdag(frozenset("A"), frozenset(), frozenset({frozenset("AB")})),
            ValueError,
            {"undirected edge ['A', 'B'] uses an undeclared node"},
            id="undeclared-undirected-endpoint",
        ),
        pytest.param(
            lambda: Pdag.of([("A", "B"), ("B", "A")], [("B", "C")]),
            ValueError,
            BOTH_ORIENTATIONS,
            id="both-orientations",
        ),
        pytest.param(
            lambda: Pdag.of([("A", "B")], [("A", "B")]),
            ValueError,
            {"edge between 'A' and 'B' is both directed and undirected"},
            id="directed-and-undirected",
        ),
        pytest.param(
            lambda: Pdag.of([("A", "B"), ("B", "C"), ("C", "A")], [("C", "D")]),
            CycleError,
            {"directed cycle: B -> C -> A -> B"},
            id="directed-cycle",
        ),
    ],
)
def test_pdag_single_fault(build, error, messages):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) in messages


# Several faults each, in sets whose iteration order follows string hashing.
SEVERAL_FAULTS = (
    "import contextlib, io, sys\n"
    "from cdl_compass.cli import main\n"
    "from cdl_compass.graphs import Dag, Pdag\n"
    "err = io.StringIO()\n"
    "with contextlib.redirect_stderr(err):\n"
    "    code = main(['dsep', sys.argv[1], '--x', 'A', '--y', 'C'])\n"
    "print(code, err.getvalue(), end='')\n"
    "for build in (\n"
    "    lambda: Dag(frozenset('abc'), frozenset({('b', 'z'), ('c', 'c'), ('a', 'y'), ('a', 'x')})),\n"
    "    lambda: Dag(frozenset('abc'), frozenset({('c', 'c'), ('b', 'b'), ('c', 'a')})),\n"
    "    lambda: Pdag.of([('C', 'D'), ('A', 'B'), ('D', 'C'), ('B', 'A')]),\n"
    "    lambda: Pdag.of([('C', 'D'), ('A', 'B')], [('D', 'C'), ('B', 'A')]),\n"
    "    lambda: Pdag(frozenset('AB'), frozenset(), frozenset({frozenset('BY'), frozenset('AX')})),\n"
    "    lambda: Pdag(frozenset('a'), frozenset(), frozenset({frozenset('ab'), frozenset({'a', 1})})),\n"
    "):\n"
    "    try:\n"
    "        build()\n"
    "    except ValueError as exc:\n"
    "        print(exc)\n"
)


def test_fault_names_do_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "both.graph"
    path.write_text("A -> B\nB -> A\nB -- C\n")
    paths = [str(Path(cdl_compass.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    for hash_seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run(
            [sys.executable, "-c", SEVERAL_FAULTS, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "1 error: both orientations present between 'A' and 'B'",
            "edge ('a', 'x') uses an undeclared node",
            "directed cycle: b -> b",
            "both orientations present between 'A' and 'B'",
            "edge between 'A' and 'B' is both directed and undirected",
            "undirected edge ['A', 'X'] uses an undeclared node",
            "undirected edge [1, 'a'] uses an undeclared node",
        ], hash_seed


# ---------------------------------------------------------------------------
# Non-finite bindings

NAMED = r"^equation for 'Y0': non-finite value bound to 'X'$"
MODEL = (
    "graph:\nX -> Y0\nX -> Y1\nequations:\n"
    "Y0 := X\nY1 := X\n"
    "noise:\nU_X ~ Normal(0.0, 1.0)\n"
)


@pytest.mark.parametrize("text", ["X", "-X", "-(-X)", "exp(-X)", "X ** 0", "1 ** X"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_non_finite_binding_is_named(text, bad, as_array):
    expr = parse_expression(text)
    env = {"X": np.array([1.0, bad]) if as_array else bad}
    with pytest.raises(EvaluationError, match=r"^non-finite value bound to 'X'$"):
        evaluate_expression(expr, env)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_oracle_cate_names_the_equation(bad):
    m = parse_scm(MODEL)
    assert oracle_cate(m, {"X": 2.0}) == 0.0
    with pytest.raises(EvaluationError, match=NAMED):
        oracle_cate(m, {"X": bad})
    # Additive noise: X alone is evaluated and the noise added afterwards.
    noise = "U_Y0 ~ Normal(0.0, 1.0)\nU_Y1 ~ Normal(0.0, 1.0)\n"
    noisy = parse_scm(MODEL.replace(":= X", "= X + U") + noise)
    with pytest.raises(EvaluationError, match=NAMED):
        oracle_cate(noisy, {"X": bad}, n_mc=10)
