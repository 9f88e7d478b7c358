"""Checks on rules that the package keeps in one place.

A ``Dag`` names a directed cycle from the nodes Kahn's pass leaves over; a
``Pdag`` leaves names, directed endpoints, self loops and cycles to the
``Dag`` it builds from its directed part; and ``evaluate_expression`` checks
a result that no operator or function has checked, a bare identifier's
binding, once.  Where a graph holds several faults, or a query several
unknown names, the one named first does not depend on string hashing; no
module reads the environment, so output depends only on argv and the input
files; the variable-name pattern is written once, in ``graphs``; the
knowledge scales are ordered in one place, ``lattice._OrderedTag.__lt__``;
every assumption test reads its inputs through ``stats._as_vector``, and
two inputs of one length through ``stats._as_pair``; and the Normal and
Uniform parameter rules are raised from one place, ``stats.NormalNoise`` and
``stats.UniformNoise``, which a model's noise and the ``ks`` reference share.
"""

import ast
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
from cdl_compass.stats import NormalNoise, UniformNoise, gaussian_cdf, uniform_cdf

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


def test_unknown_name_does_not_depend_on_the_hash_seed(tmp_path):
    # dsep names the first unknown given in the order given, and
    # consistent_with the first of a statement's givens in sorted order.
    (tmp_path / "xy.graph").write_text("X -> P\nP -> Y\n")
    code = (
        "import sys\n"
        "from cdl_compass.cli import main\n"
        "from cdl_compass.graphs import Dag, IndependenceSet, IndependenceStatement\n"
        "from cdl_compass.graphs import consistent_with\n"
        "main(['dsep', 'xy.graph', '--x', 'X', '--y', 'Y', '--given', 'P', 'Q', 'R', 'S'])\n"
        "s = IndependenceStatement('X', 'Y', frozenset({'P', 'Q', 'R', 'S'}))\n"
        "try:\n"
        "    consistent_with(Dag.of([('X', 'P'), ('P', 'Y')]), IndependenceSet.of([s]))\n"
        "except ValueError as exc:\n"
        "    print(exc, file=sys.stderr)\n"
    )
    paths = [str(Path(cdl_compass.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    for hash_seed in map(str, range(8)):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "")
        assert proc.stderr == "error: unknown variable 'Q'\nunknown variable 'Q'\n", hash_seed


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
            {"variable name 'B C' is not an identifier"},
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


def test_no_module_reads_the_environment():
    # An attribute catches os.environ and os.getenv under any alias of os.
    names = {"environ", "environb", "getenv", "getenvb"}
    package = Path(cdl_compass.__file__).resolve().parent
    reads = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
    assert reads == []


def test_name_pattern_is_written_once():
    # Every reader takes its name rule from graphs._NAME; a second copy of
    # the pattern could drift from it.
    pattern = "[A-Za-z_][A-Za-z0-9_]*"
    package = Path(cdl_compass.__file__).resolve().parent
    copies = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                copies += [f"{path.name}:{node.lineno}"] * node.value.count(pattern)
    assert len(copies) == 1 and copies[0].startswith("graphs.py:"), copies


def _value_comparisons(node: ast.AST, scope: tuple[str, ...] = ()):
    """The class and function scope of each comparison of two ``.value``s."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        if isinstance(child, ast.Compare):
            values = [
                isinstance(o, ast.Attribute) and o.attr == "value"
                for o in (child.left, *child.comparators)
            ]
            if any(a and b for a, b in zip(values, values[1:])):
                yield ".".join(scope)
        yield from _value_comparisons(child, inner)


def test_scale_order_is_compared_once():
    # leq, sorting and every rich comparison order tags through __lt__; a
    # second comparison of member values could order a scale otherwise.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.name}:{scope}" for scope in _value_comparisons(tree)]
    assert sites == ["lattice.py:_OrderedTag.__lt__"]


def _stats_functions():
    path = Path(cdl_compass.__file__).resolve().parent / "stats.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_stats_inputs_are_read_by_one_rule():
    # A function that converts its own argument with np.asarray or np.array
    # restates _as_vector's checks, or skips them; a called argument, such as
    # ks_test's cdf, is not converted.
    converters = []
    for fn in _stats_functions():
        params = {a.arg for a in (*fn.args.args, *fn.args.kwonlyargs)}
        for call in ast.walk(fn):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("asarray", "array")
                and call.args
            ):
                continue
            called = {id(c.func) for c in ast.walk(call.args[0]) if isinstance(c, ast.Call)}
            if any(
                isinstance(n, ast.Name) and n.id in params and id(n) not in called
                for n in ast.walk(call.args[0])
            ):
                converters.append(fn.name)
    assert converters == ["_as_vector"]


def test_stats_lengths_are_matched_once():
    checks = [
        fn.name
        for fn in _stats_functions()
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "must have equal length" in node.value
    ]
    assert checks == ["_as_pair"]


# ---------------------------------------------------------------------------
# One Normal and one Uniform

NOISE_FAULTS = [
    ("normal", (math.nan, 1.0), "mu must be finite, got nan"),
    ("normal", (-math.inf, 1.0), "mu must be finite, got -inf"),
    ("normal", (0.0, math.nan), "sigma must be positive, got nan"),
    ("normal", (0.0, -1.0), "sigma must be positive, got -1.0"),
    ("normal", (0.0, math.inf), "sigma must be finite, got inf"),
    ("uniform", (math.nan, 1.0), "need low < high, got [nan, 1.0]"),
    ("uniform", (1.0, 0.0), "need low < high, got [1.0, 0.0]"),
    ("uniform", (0.0, math.inf), "need finite high - low, got [0.0, inf]"),
    ("uniform", (-math.inf, 0.0), "need finite high - low, got [-inf, 0.0]"),
    ("uniform", (-1e308, 1e308), "need finite high - low, got [-1e+308, 1e+308]"),
]
ENTRY_POINTS = {
    "normal": {"noise": NormalNoise, "cdf": gaussian_cdf},
    "uniform": {"noise": UniformNoise, "cdf": uniform_cdf},
}


@pytest.mark.parametrize("entry", ["noise", "cdf"])
@pytest.mark.parametrize("family, params, message", NOISE_FAULTS)
def test_noise_and_ks_reference_share_one_parameter_rule(family, params, message, entry):
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[family][entry](*params)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fragment",
    [
        "mu must be finite",
        "sigma must be positive",
        "sigma must be finite",
        "need low < high",
        "need finite high - low",
    ],
)
def test_noise_parameter_rule_is_raised_once(fragment):
    # A second raise of one of these messages is a second copy of the rule,
    # which can drift from the first, as the ks reference's once did.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str) and fragment in c.value
                for c in ast.walk(node)
            ):
                sites.append(path.name)
    assert sites == ["stats.py"]
