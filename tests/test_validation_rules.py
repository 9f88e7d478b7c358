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
``stats.UniformNoise``, which a model's noise and the ``ks`` reference share,
and hold numpy-scalar parameters as Python floats; a seed becomes a generator
in one place, ``stats._stream``, under one rule for every seeded call; a
card, a knowledge state and a test report are read as JSON objects by one key
rule, ``lattice._json_object``; each field is checked by the type that
holds it, the same for a value built in code as for one read from JSON; and
every value type reads a number by one rule, ``lattice._real``, with a report
holding only finite numbers, and every count and seed by one rule,
``lattice._count``; and a report field that follows from the others
is a property computed from them, not a field that could contradict them,
so the decision rule ``p_value < alpha`` is written once; and each value
type has one way in, its constructor, which holds every tuple or frozenset
field in its declared form however it is passed; and an expression is a
flat program that no walk recurses over, parsed by one loop over the
tokens, so nothing in ``expressions`` calls itself, and the one place that
catches RecursionError is the JSON reader, ``lattice._read_json``.
"""

import ast
import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdl_compass
from cdl_compass import stats
from cdl_compass.cli import main
from cdl_compass.engine import (
    AuditReport,
    StageRecord,
    ValidationReport,
    plan_pipeline,
    validate_pipeline,
)
from cdl_compass.expressions import (
    EvaluationError,
    Expression,
    evaluate_expression,
    parse_expression,
)
from cdl_compass.graphs import (
    CycleError,
    Dag,
    IndependenceSet,
    IndependenceStatement,
    Pdag,
    TemporalTemplate,
    hidden_confounder_template,
    unroll,
)
from cdl_compass.lattice import (
    KnowledgeState,
    ParametricLevel,
    ParametricTag,
    StructuralLevel,
    StructuralTag,
    Transition,
    TransitionKind,
    all_tag_states,
    join_states,
    knowledge_state,
)
from cdl_compass.registry import (
    Catalog,
    MethodCard,
    card_from_mapping,
    card_to_mapping,
    default_catalog,
)
from cdl_compass.scm import (
    Dataset,
    Factor,
    Factorization,
    StructuralEquation,
    oracle_cate,
    parse_scm,
    sample,
)
from cdl_compass.stats import (
    AnmResult,
    CausalDirection,
    Decision,
    NormalNoise,
    UniformNoise,
    anm_direction,
    gaussian_cdf,
    residual_independence_test,
    uniform_cdf,
)
from cdl_compass.stats import TestReport as Report

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
        "    consistent_with(Dag.of([('X', 'P'), ('P', 'Y')]), IndependenceSet([s]))\n"
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
            lambda: Pdag(["A", "B", "B C"], [("A", "B")], []),
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
            lambda: Pdag("AB", [("A", "A")], [("A", "B")]),
            CycleError,
            {"directed cycle: A -> A"},
            id="directed-self-loop",
        ),
        pytest.param(
            lambda: Pdag("ABC", [("A", "B")], [("C", "C")]),
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
            lambda: Pdag("ABC", [("A", "B"), ("B", "A")], [("B", "C")]),
            ValueError,
            BOTH_ORIENTATIONS,
            id="both-orientations",
        ),
        pytest.param(
            lambda: Pdag("AB", [("A", "B")], [("A", "B")]),
            ValueError,
            {"edge between 'A' and 'B' is both directed and undirected"},
            id="directed-and-undirected",
        ),
        pytest.param(
            lambda: Pdag("ABCD", [("A", "B"), ("B", "C"), ("C", "A")], [("C", "D")]),
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
    "    lambda: Pdag('ABCD', [('C', 'D'), ('A', 'B'), ('D', 'C'), ('B', 'A')], []),\n"
    "    lambda: Pdag('ABCD', [('C', 'D'), ('A', 'B')], [('D', 'C'), ('B', 'A')]),\n"
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


def _scoped(node: ast.AST, scope: tuple[str, ...] = ()):
    """Each node below ``node``, with the dotted names of the classes and
    functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope), child
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(child, (*scope, child.name))
        else:
            yield from _scoped(child, scope)


def _value_comparisons(tree: ast.AST):
    """The class and function scope of each comparison of two ``.value``s."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Compare):
            values = [
                isinstance(o, ast.Attribute) and o.attr == "value"
                for o in (node.left, *node.comparators)
            ]
            if any(a and b for a, b in zip(values, values[1:])):
                yield scope


def test_scale_order_is_compared_once():
    # leq, sorting and every rich comparison order tags through __lt__; a
    # second comparison of member values could order a scale otherwise.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.name}:{scope}" for scope in _value_comparisons(tree)]
    assert sites == ["lattice.py:_OrderedTag.__lt__"]


def test_only_the_json_reader_catches_recursion():
    # An expression is a flat program and its parser one loop over the
    # tokens, so only json's decoder recurses over input, and every JSON
    # file is read through lattice._read_json.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(n, ast.Name) and n.id == "RecursionError" for n in ast.walk(node.type)
            ):
                sites.append(f"{path.name}:{scope}")
    assert sites == ["lattice.py:_read_json"]


def test_nothing_in_expressions_calls_itself():
    # No function or method reaches itself through the calls it makes, so
    # no text or program is too deep for the module.
    path = Path(cdl_compass.__file__).resolve().parent / "expressions.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    calls: dict[str, set[str]] = {}
    for scope, node in _scoped(tree):
        if not (isinstance(node, ast.Call) and scope):
            continue
        f = node.func  # a function by name, or a method through self
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
            calls.setdefault(scope.split(".")[-1], set()).add(f.attr)
        elif isinstance(f, ast.Name) and f.id in defined:
            calls.setdefault(scope.split(".")[-1], set()).add(f.id)
    for name in sorted(defined):
        reached, todo = set(), list(calls.get(name, ()))
        while todo:
            callee = todo.pop()
            if callee not in reached:
                reached.add(callee)
                todo += calls.get(callee, ())
        assert name not in reached, name


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


def _from_numpy_scalars(build):
    # Each parameter is held as a Python float, so numpy scalars get the same
    # message and no check warns of an overflow (an error under pyproject.toml).
    return lambda *params: build(*map(np.float64, params))


ENTRY_POINTS = {
    "normal": {
        "noise": NormalNoise,
        "cdf": gaussian_cdf,
        "numpy": _from_numpy_scalars(NormalNoise),
    },
    "uniform": {
        "noise": UniformNoise,
        "cdf": uniform_cdf,
        "numpy": _from_numpy_scalars(UniformNoise),
    },
}


@pytest.mark.parametrize("entry", ["noise", "cdf", "numpy"])
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numpy_scalar_parameters_are_stored_as_floats():
    normal = NormalNoise(np.float64(1e308), np.float64(1e-308))
    uniform = UniformNoise(np.float32(0.5), np.int64(2))
    params = (normal.mu, normal.sigma, uniform.low, uniform.high)
    assert [type(p) for p in params] == [float] * 4
    assert normal.cdf(0.0) == 0.0  # (0 - 1e308) / 1e-308 overflows to -inf
    assert (uniform.format(), uniform.cdf(1.25)) == ("Uniform(0.5, 2.0)", 0.5)


# ---------------------------------------------------------------------------
# One stream constructor and one key rule

SEEDED_MODEL = (
    "graph:\nY0\nY1\nequations:\nY0 := U_S\nY1 := 2 * U_S\nnoise:\nU_S ~ Normal(0, 1)\n"
)
XS = np.linspace(0.0, 1.0, 60)
SEEDED_CALLS = {
    "sample": lambda seed: sample(parse_scm(SEEDED_MODEL), 2, seed=seed),
    "oracle_cate": lambda seed: oracle_cate(parse_scm(SEEDED_MODEL), {}, n_mc=2, seed=seed),
    "resid": lambda seed: residual_independence_test(XS, XS**2, seed=seed),
    "anm": lambda seed: anm_direction(XS, XS**2, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, np.float64(1.0), "1", None])
@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
def test_every_seeded_call_refuses_a_bad_seed_alike(call, seed):
    with pytest.raises(ValueError) as info:
        SEEDED_CALLS[call](seed)
    assert str(info.value) == f"seed must be a non-negative integer, got {seed!r}"


def test_seed_becomes_a_generator_in_one_place():
    # Every seeded draw takes its generator from stats._stream; a second
    # construction could read the seed under another rule.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("SeedSequence", "default_rng"):
                sites.append((path.name, scope, node.lineno))
    assert {site[:2] for site in sites} == {("stats.py", "_stream")}, sites


GOOD_JSON = {
    "report": {
        "test": "t",
        "statistic": 0.0,
        "p_value": 0.5,
        "alpha": 0.05,
        "decision": "fail_to_reject",
    },
    "state": {"structural": "unknown", "parametric": "nonparametric", "temporal": "static"},
    "card": card_to_mapping(default_catalog().cards[0]),
}
JSON_READERS = {
    "report": (Report.from_mapping, "test report"),
    "state": (KnowledgeState.from_mapping, "knowledge state"),
    "card": (card_from_mapping, "card"),
}


@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_json_objects_are_read_by_one_key_rule(reader):
    read, noun = JSON_READERS[reader]
    good = GOOD_JSON[reader]
    read(good)
    first = sorted(good)[0]
    faults = [
        ("x", f"a {noun} is a JSON object, not str"),
        (list(good.items()), f"a {noun} is a JSON object, not list"),
        ({**good, "surplus": 1}, f"unknown {noun} keys ['surplus']"),
        ({k: v for k, v in good.items() if k != first}, f"{noun} is missing keys [{first!r}]"),
    ]
    for data, message in faults:
        with pytest.raises(ValueError) as info:
            read(data)
        assert str(info.value) == message


def test_key_rule_is_raised_once():
    # card_from_mapping, KnowledgeState.from_mapping and TestReport.from_mapping
    # each checked keys by hand, or not at all, until they shared this rule.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant)
                and isinstance(c.value, str)
                and ("JSON object" in c.value or " keys " in c.value)
                for c in ast.walk(node)
            ):
                sites.append(f"{path.name}:{scope}")
    assert sites == ["lattice.py:_json_object"] * 3


# ---------------------------------------------------------------------------
# One rule per field, in the type that holds it

FIELD_TYPE_MESSAGES = (
    "must be a string",
    "must be a list of strings",
    "must be a real number",
    "must be a mapping",
)


def test_field_types_are_checked_in_their_types():
    # card_from_mapping once checked a card's field types by hand, so a card
    # built in code skipped the check.  TestReport.from_mapping keeps one
    # check of the JSON shape, that sub_reports is a list.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant)
                and isinstance(c.value, str)
                and any(message in c.value for message in FIELD_TYPE_MESSAGES)
                for c in ast.walk(node)
            ):
                sites.append(f"{path.name}:{scope}")
    # The real-number message is raised by lattice._real alone, which every
    # value type reads its numbers through.
    assert sites == ["lattice.py:_real"] + ["registry.py:MethodCard.__post_init__"] * 2 + [
        "stats.py:TestReport.__post_init__"
    ] * 2


STATE = knowledge_state("unknown", "nonparametric", "static")
UNKNOWN = StructuralLevel(StructuralTag.UNKNOWN)
NONPARAMETRIC = ParametricLevel(ParametricTag.NONPARAMETRIC)
WRONGLY_TYPED = {
    "structural-level-tag": (
        lambda: StructuralLevel("causal"),
        "tag must be a StructuralTag, got 'causal'",
    ),
    "parametric-level-tag": (
        lambda: ParametricLevel("noise_model"),
        "tag must be a ParametricTag, got 'noise_model'",
    ),
    "state-structural": (
        lambda: KnowledgeState("unknown", NONPARAMETRIC, STATE.temporal),
        "structural must be a StructuralLevel, got 'unknown'",
    ),
    "state-parametric": (
        lambda: KnowledgeState(UNKNOWN, ParametricTag.NONPARAMETRIC, STATE.temporal),
        "parametric must be a ParametricLevel, got <ParametricTag.NONPARAMETRIC: 0>",
    ),
    "state-temporal": (
        lambda: KnowledgeState(UNKNOWN, NONPARAMETRIC, "static"),
        "temporal must be a TemporalFlag, got 'static'",
    ),
    "equation-level": (
        lambda: StructuralEquation("Y", "noise_model", parse_expression("X")),
        "level must be a ParametricTag, got 'noise_model'",
    ),
    "card-a-priori": (
        lambda: MethodCard("m", "M", "doe2020m", STATE.triple, STATE),
        "a_priori must be a KnowledgeState, got 'unknown:nonparametric:static'",
    ),
    "card-a-posteriori": (
        lambda: MethodCard("m", "M", "doe2020m", STATE, None),
        "a_posteriori must be a KnowledgeState, got None",
    ),
    "report-sub-report": (
        lambda: Report("t", 0.0, 0.5, 0.05, sub_reports=("t",)),
        "a sub-report must be a TestReport, got 't'",
    ),
    "independence-statement": (
        lambda: IndependenceSet(frozenset({"x"})),
        "a statement must be an IndependenceStatement, got 'x'",
    ),
    "factorization-factor": (
        lambda: Factorization(("x",)),
        "a factor must be a Factor, got 'x'",
    ),
    "catalog-card": (lambda: Catalog(["x"]), "a card must be a MethodCard, got 'x'"),
    # An operand is the instructions before its operator, so a value of
    # another type there is an instruction that is no (kind, argument) pair.
    "binop-left": (
        lambda: Expression([1, ("var", "X"), ("op", "+")]),
        "an instruction is a (kind, argument) pair, got 1",
    ),
    "binop-right": (
        lambda: Expression([("var", "X"), 2, ("op", "+")]),
        "an instruction is a (kind, argument) pair, got 2",
    ),
    "neg-operand": (
        lambda: Expression(["x", ("neg", "-")]),
        "an instruction is a (kind, argument) pair, got 'x'",
    ),
    "call-arg": (
        lambda: Expression([None, ("call", "exp")]),
        "an instruction is a (kind, argument) pair, got None",
    ),
    "equation-expr": (
        lambda: StructuralEquation("Y", ParametricTag.NOISE_MODEL, "X + 1"),
        "expr must be an expression node, got 'X + 1'",
    ),
    "factor-expr": (
        lambda: Factor(("X",), (("X", None),), expr="X"),
        "expr must be an expression node, got 'X'",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED))
def test_a_field_of_another_type_is_refused_by_name(case):
    # Each of these was once built, to fail later with an AttributeError or a
    # wrong answer, or failed at once with an AttributeError naming nothing.
    build, message = WRONGLY_TYPED[case]
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# One number rule, lattice._real

FACTOR_X = ["X"]
X_EXPR = Expression((("var", "X"),))
UNIFORM_TABLE = Factor.from_table(FACTOR_X, {"X": [0.0, 1.0]}, {(0.0,): 1.0, (1.0,): 1.0})
# Each site: a build from one number, the name its refusal gives (formatted
# with the number as ``v``), a number it accepts, and where that number is held.
NUMBER_SITES = {
    "num": (lambda v: Expression([("num", v)]), "numeric literal", 2, lambda o: o.program[0][1]),
    "normal-mu": (lambda v: NormalNoise(v, 1.0), "mu", 2, lambda o: o.mu),
    "normal-sigma": (lambda v: NormalNoise(0.0, v), "sigma", 2, lambda o: o.sigma),
    "uniform-low": (lambda v: UniformNoise(v, 3.0), "low", 2, lambda o: o.low),
    "uniform-high": (lambda v: UniformNoise(0.0, v), "high", 2, lambda o: o.high),
    "table-domain": (
        lambda v: Factor.from_table(FACTOR_X, {"X": [0.0, v]}, {(0.0,): 0.5, (2.0,): 0.5}),
        "domain value of 'X'",
        2,
        lambda o: o.domains[0][1][1],
    ),
    "table-key": (
        lambda v: Factor.from_table(FACTOR_X, {"X": [0.0, 2.0]}, {(0.0,): 0.5, (v,): 0.5}),
        "table key ({v!r},)",
        2,
        lambda o: o.table[1][0][0],
    ),
    "table-value": (
        lambda v: Factor.from_table(FACTOR_X, {"X": [0.0, 2.0]}, {(0.0,): 0.5, (2.0,): v}),
        "table value at (2.0,)",
        2,
        lambda o: o.table[1][1],
    ),
    "expression-domain": (
        lambda v: Factor.from_expression(FACTOR_X, "X", {"X": [0.0, v]}),
        "domain value of 'X'",
        2,
        lambda o: o.domains[0][1][1],
    ),
    "assignment": (
        lambda v: Factor.from_expression(FACTOR_X, "X").evaluate({"X": v}),
        "assignment of 'X'",
        2,
        lambda value: value,
    ),
    "factorization-of": (
        lambda v: Factorization([UNIFORM_TABLE], v), "normalizer", 2, lambda o: o.z
    ),
    "factorization": (
        lambda v: Factorization((UNIFORM_TABLE,), v), "normalizer", 2, lambda o: o.z
    ),
    "factor-domain": (
        lambda v: Factor(("X",), (("X", (0.0, v)),), expr=X_EXPR),
        "domain value of 'X'",
        2,
        lambda o: o.domains[0][1][1],
    ),
    "factor-table-key": (
        lambda v: Factor(("X",), (("X", (0.0, 2.0)),), (((0.0,), 0.5), ((v,), 0.5))),
        "table key ({v!r},)",
        2,
        lambda o: o.table[1][0][0],
    ),
    "factor-table-value": (
        lambda v: Factor(("X",), (("X", (0.0, 2.0)),), (((0.0,), 0.5), ((2.0,), v))),
        "table value at (2.0,)",
        2,
        lambda o: o.table[1][1],
    ),
    "report-statistic": (
        lambda v: Report("t", v, 0.5, 0.05),
        "report field 'statistic'",
        2,
        lambda o: o.statistic,
    ),
    "report-p-value": (
        lambda v: Report("t", 0.0, v, 0.05), "report field 'p_value'", 1, lambda o: o.p_value
    ),
    "report-alpha": (
        lambda v: Report("t", 0.0, 0.5, v), "report field 'alpha'", 0.25, lambda o: o.alpha
    ),
    "report-mapping": (
        lambda v: Report.from_mapping({**GOOD_JSON["report"], "statistic": v}),
        "report field 'statistic'",
        2,
        lambda o: o.statistic,
    ),
}


@pytest.mark.parametrize("value", ["1", True, 10**400, None], ids=["str", "bool", "huge", "none"])
@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_every_number_is_read_by_one_rule(site, value):
    # Each site called float(), which took "1" and True, raised a bare
    # OverflowError on 10**400 and a TypeError on None, naming no field.
    build, name, _, _ = NUMBER_SITES[site]
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == f"{name.format(v=value)} must be a real number, got {value!r}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_numpy_scalars_are_held_as_floats(site, kind):
    build, _, good, held = NUMBER_SITES[site]
    if site == "report-alpha" and kind is np.int64:
        # No integer lies in (0, 1): the number rule takes np.int64(0), and
        # the report's range rule refuses it.
        with pytest.raises(ValueError, match=r"^alpha 0\.0 outside \(0, 1\)$"):
            build(kind(0))
        return
    value = held(build(kind(good)))
    assert (type(value), value) == (float, good)


REPORT_TEXT = (
    '{"test": "t", "statistic": 1e999, "p_value": 0.5, "alpha": 0.05, '
    '"decision": "fail_to_reject"}'
)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Report("t", math.inf, 0.5, 0.05),
            "report field 'statistic' must be finite, got inf",
        ),
        (
            lambda: Report("t", math.nan, 0.5, 0.05),
            "report field 'statistic' must be finite, got nan",
        ),
        (
            lambda: Report("t", 0.0, 0.5, 0.05, details={"n": 3, "z": math.inf}),
            "detail 'z' must be finite, got inf",
        ),
        (
            lambda: Report.from_mapping(json.loads(REPORT_TEXT)),
            "report field 'statistic' must be finite, got inf",
        ),
    ],
    ids=["statistic-inf", "statistic-nan", "detail-inf", "mapping-1e999"],
)
def test_a_report_holds_only_finite_numbers(build, message):
    # to_mapping() of such a report made json.dumps write NaN or Infinity,
    # which is not JSON; pcorr wrote "z": Infinity on collinear columns.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_value_types_call_float_on_no_field():
    # Num, the two noise families, Factor, Factorization and TestReport each
    # called float() on their numbers, under no rule for bools, strings or
    # ints too large for a float.  Each now reads them through lattice._real.
    # A value type is a public dataclass; the float() calls left in one unbox
    # the array Factor computes.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dataclasses = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        }
        for scope, node in _scoped(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and scope.split(".")[0] in dataclasses
            ):
                sites.append(f"{path.name}:{scope}")
    assert sites == ["scm.py:Factor._values", "scm.py:Factor.evaluate"]


# ---------------------------------------------------------------------------
# One count rule, lattice._count

GOAL = knowledge_state("plausible", "nonparametric", "static")
# Each site: a call with one count, and the start of its refusal.
COUNT_SITES = {
    "unroll": (lambda v: unroll(hidden_confounder_template(), v), "steps must be an integer"),
    "sample": (lambda v: sample(parse_scm(SEEDED_MODEL), v), "sample size must be an integer"),
    "resid": (
        lambda v: residual_independence_test(XS, XS**2, n_permutations=v).to_mapping(),
        "n_permutations must be an integer",
    ),
    "oracle_cate": (lambda v: oracle_cate(parse_scm(SEEDED_MODEL), {}, n_mc=v), "n_mc must be an integer"),
    "plan_pipeline": (
        lambda v: plan_pipeline(default_catalog(), STATE, GOAL, max_len=v),
        "max_len must be an integer",
    ),
    "stream": (lambda v: stats._stream(v).random(), "seed must be a non-negative integer"),
}


@pytest.mark.parametrize("value", [True, 2.0, "2"])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_every_count_is_read_by_one_rule(site, value):
    call, refusal = COUNT_SITES[site]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{refusal}, got {value!r}"


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_numpy_integer_counts_give_what_ints_give(site):
    call, _ = COUNT_SITES[site]
    got, want = call(np.int64(2)), call(2)
    if isinstance(want, Dataset):
        got, want = got.to_csv(), want.to_csv()
    assert got == want


# ---------------------------------------------------------------------------
# One way into every value type


def _card(card_id: str, tags=()) -> MethodCard:
    return MethodCard(card_id, "M", "doe2020m", STATE, STATE, tags)


XY = {"X": [0.0, 1.0], "Y": [0.0, 1.0]}
FACTOR_XY = Factor.from_table(["X", "Y"], XY, {k: 0.25 for k in itertools.product(*XY.values())})
COIN_X, COIN_Y = (Factor.from_table([v], XY, {(0.0,): 0.5, (1.0,): 0.5}) for v in "XY")
STATEMENTS = (
    IndependenceStatement("A", "C", frozenset({"B"})),
    IndependenceStatement("A", "D", holds=False),
)
SUB_REPORT = Report("sub", 0.0, 0.5, 0.05)
STAGE = StageRecord(1, "m", STATE, STATE, STATE)

# Each public value type with a tuple or frozenset field: its canonical
# build, then builds from lists, iterators and tuples in another order.
ONE_FORM = {
    "Catalog": (
        lambda: Catalog((_card("a"), _card("b"))),
        [
            lambda: Catalog([_card("b"), _card("a")]),
            lambda: Catalog(iter([_card("a"), _card("b")])),
        ],
    ),
    "Dag": (
        lambda: Dag(frozenset("ABC"), frozenset({("A", "B"), ("B", "C")})),
        [
            lambda: Dag(["C", "B", "A"], [["B", "C"], ["A", "B"]]),
            lambda: Dag(iter("ABC"), iter([("A", "B"), ("B", "C")])),
            lambda: Dag(("B", "A", "C"), (("B", "C"), ("A", "B"))),
            lambda: Dag.of([("A", "B"), ("B", "C")]),
            # A frozenset's members are made tuples too, not held as strings.
            lambda: Dag(frozenset("ABC"), frozenset({"AB", "BC"})),
        ],
    ),
    "Expression": (
        lambda: parse_expression("-X * 2"),
        [
            lambda: Expression([["var", "X"], ("neg", "-"), ("num", 2), ("op", "*")]),
            lambda: Expression(iter([("var", "X"), ("neg", "-"), ("num", 2.0), ("op", "*")])),
        ],
    ),
    "Factor": (
        lambda: FACTOR_XY,
        [
            lambda: Factor(
                ["X", "Y"],
                [["Y", [0, 1]], ["X", [0, 1]]],
                [[k, 0.25] for k in itertools.product([1, 0], repeat=2)],
            ),
            lambda: Factor(iter("XY"), iter(XY.items()), iter(FACTOR_XY.table)),
        ],
    ),
    "Factorization": (
        lambda: Factorization((COIN_X, COIN_Y)),
        [
            lambda: Factorization([COIN_X, COIN_Y]),
            lambda: Factorization(iter([COIN_X, COIN_Y])),
        ],
    ),
    "IndependenceSet": (
        lambda: IndependenceSet(frozenset(STATEMENTS)),
        [
            lambda: IndependenceSet(list(STATEMENTS)),
            lambda: IndependenceSet(iter(STATEMENTS)),
            lambda: IndependenceSet(STATEMENTS[::-1]),
        ],
    ),
    "IndependenceStatement": (
        lambda: IndependenceStatement("A", "D", frozenset({"B", "C"})),
        [
            lambda: IndependenceStatement("D", "A", ["C", "B"]),
            lambda: IndependenceStatement("A", "D", iter("BC")),
            lambda: IndependenceStatement("A", "D", ("C", "B")),
        ],
    ),
    "MethodCard": (
        lambda: _card("m", ("a", "b")),
        [
            lambda: _card("m", ["b", "a"]),
            lambda: _card("m", iter(["a", "b", "a"])),
            lambda: _card("m", ("b", "a")),
        ],
    ),
    "Pdag": (
        lambda: Pdag(frozenset("ABC"), frozenset({("A", "B")}), frozenset({frozenset("BC")})),
        [
            lambda: Pdag(["C", "B", "A"], [["A", "B"]], [["C", "B"]]),
            lambda: Pdag(iter("ABC"), iter([("A", "B")]), iter([("B", "C")])),
            lambda: Pdag(("B", "A", "C"), (("A", "B"),), (("C", "B"),)),
        ],
    ),
    "TemporalTemplate": (
        # The default qualifier, the de-duplication and the sort lived in a
        # builder, so a direct build failed to unpack a pair, and kept
        # duplicates and a list, which left the template unhashable.
        lambda: TemporalTemplate(frozenset("XY"), (("X", "Y", "every"),), frozenset({("X", "X")})),
        [
            lambda: TemporalTemplate(["Y", "X"], [["X", "Y"], ("X", "Y", "every")], [["X", "X"]]),
            lambda: TemporalTemplate(iter("XY"), iter([("X", "Y")]), iter([("X", "X")])),
            lambda: TemporalTemplate(("Y", "X"), (("X", "Y"),), (("X", "X"),)),
        ],
    ),
    "TestReport": (
        lambda: Report("t", 0.0, 0.5, 0.05, sub_reports=(SUB_REPORT,)),
        [
            lambda: Report("t", 0.0, 0.5, 0.05, sub_reports=[SUB_REPORT]),
            lambda: Report("t", 0.0, 0.5, 0.05, sub_reports=iter([SUB_REPORT])),
        ],
    ),
    "ValidationReport": (
        lambda: ValidationReport(STATE, (STAGE,)),
        [
            lambda: ValidationReport(STATE, [STAGE]),
            lambda: ValidationReport(STATE, iter([STAGE])),
        ],
    ),
}


def _container_types() -> dict[str, type]:
    """Each public frozen dataclass with a field declared as a tuple or frozenset."""
    found = {}
    for name in sorted(cdl_compass.__all__):
        value = getattr(cdl_compass, name)
        if (
            dataclasses.is_dataclass(value)
            and value.__dataclass_params__.frozen
            and any(
                str(f.type).startswith(("tuple[", "frozenset[")) for f in dataclasses.fields(value)
            )
        ):
            found[name] = value
    return found


CONTAINER_TYPES = _container_types()


@pytest.mark.parametrize("name", sorted(set(CONTAINER_TYPES) | set(ONE_FORM)))
def test_every_value_type_holds_one_form(name):
    # Dag, Pdag, Factor, Factorization and ValidationReport kept a list as
    # given, so equal values compared unequal and could not be hashed.
    assert name in CONTAINER_TYPES, f"{name} has no tuple or frozenset field"
    assert name in ONE_FORM, f"{name} has a tuple or frozenset field and no row here"
    build, loose_builds = ONE_FORM[name]
    canonical = build()
    assert type(canonical) is CONTAINER_TYPES[name]
    # A Mapping field holds a dict, which cannot be hashed, so a type with
    # one (TestReport.details, AuditReport.transitions) is compared only.
    hashable = not any(
        str(f.type).startswith("Mapping[") for f in dataclasses.fields(canonical)
    )
    for loose in loose_builds:
        value = loose()
        assert value == canonical
        if hashable:
            assert hash(value) == hash(canonical)


def test_one_graph_built_two_ways_joins():
    # lattice joins payloads by ==, so a Dag kept as given clashed with
    # itself, and a Dag holding lists made its state unhashable.
    def causal(graph):
        return KnowledgeState(
            StructuralLevel(StructuralTag.CAUSAL, graph), NONPARAMETRIC, STATE.temporal
        )

    given, built = causal(Dag(("A", "B"), (("A", "B"),))), causal(Dag.of([("A", "B")]))
    listed = causal(Dag(["A", "B"], [["A", "B"]]))
    assert join_states(given, built) == listed
    assert hash(listed) == hash(built)


NOT_A_PAIR = "edges are (src, dst): ('A', 'B', 'C')"
MISSHAPEN = {
    "dag": (lambda: Dag(frozenset("ABC"), frozenset({("A", "B", "C")})), NOT_A_PAIR),
    "dag-from-lists": (lambda: Dag("ABC", [["A", "B", "C"], ["A", "B"]]), NOT_A_PAIR),
    "dag-of": (lambda: Dag.of([("A", "B", "C")]), NOT_A_PAIR),
    "pdag-directed": (lambda: Pdag("ABC", [("A", "B", "C")], [("B", "C")]), NOT_A_PAIR),
    "template-within-step": (
        lambda: TemporalTemplate(frozenset({"X"}), (("X",),), frozenset()),
        "within-step entries are (src, dst[, when]): ('X',)",
    ),
    "empty-factorization-iterator": (
        lambda: Factorization(iter([])),
        "a factorization needs at least one factor",
    ),
    "factor-repeated-domain": (
        lambda: Factor(("X",), [("X", (0.0, 1.0)), ("X", (5.0,))], expr=X_EXPR),
        "domains must cover exactly the scope variables",
    ),
    "program-kind": (lambda: Expression([(["var"], "X")]), "unknown instruction kind ['var']"),
    "program-string-literal": (
        lambda: Expression([("num", "2")]),
        "numeric literal must be a real number, got '2'",
    ),
    "program-underflow": (
        lambda: Expression([("var", "X"), ("op", "+")]),
        "instruction 1 ('op', '+') takes 2 values, the stack holds 1",
    ),
    "program-two-values": (
        lambda: Expression([("var", "X"), ("num", 2.0)]),
        "a program leaves one value, this one leaves 2",
    ),
    "program-empty": (lambda: Expression(()), "a program leaves one value, this one leaves 0"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_a_misshapen_container_is_refused_by_name(case):
    # An edge of three names failed to unpack with a bare ValueError, an
    # empty iterator of factors reached functools.reduce, and a factor
    # held both entries of a repeated domain.  An expression's program is
    # checked as the stack it runs on.
    build, message = MISSHAPEN[case]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# Each classmethod named ``of`` under src/, and why it is more than the
# constructor, which takes any iterable itself.
OF_BUILDERS = {
    "graphs.py:Dag.of": "adds each edge's endpoints to the node set",
    "graphs.py:IndependenceSet.of": "bench/workloads.py calls it",
    "lattice.py:_Labelled.of": "takes a member or its label",
    "stats.py:_IndependenceProblem.of": "computes the ranks it holds",
}


def test_no_builder_only_converts():
    # Pdag.of, Catalog.of, Factorization.of and TemporalTemplate.of only
    # converted their arguments, a second way in beside the constructor.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "of"
                and any(ast.unparse(d) == "classmethod" for d in node.decorator_list)
            ):
                sites.append(f"{path.name}:{scope}.of")
    assert sites == sorted(OF_BUILDERS)


# ---------------------------------------------------------------------------
# Derived fields are computed, not stored

STATIC_STATES = all_tag_states()
CATALOG = default_catalog()


def _reports(rng: random.Random, count: int):
    """Reports over a grid of p-values that includes p == alpha."""
    grid = [0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0]
    for _ in range(count):
        alpha = rng.choice([0.001, 0.01, 0.05, 0.1, 0.5])
        p = rng.choice([*grid, alpha, rng.random()])
        yield Report("t", rng.uniform(-5, 5), p, alpha)


def _check_decisions(rng):
    for r in _reports(rng, 300):
        reject = r.p_value < r.alpha
        assert r.decision is (Decision.REJECT_NULL if reject else Decision.FAIL_TO_REJECT)
        assert Report.from_mapping(r.to_mapping()) == r
        assert Report.from_mapping(json.loads(json.dumps(r.to_mapping()))) == r


def _check_directions(rng):
    for forward, backward in zip(_reports(rng, 200), _reports(rng, 200)):
        fwd_ok = forward.p_value >= forward.alpha
        bwd_ok = backward.p_value >= backward.alpha
        expected = {
            (True, False): CausalDirection.X_TO_Y,
            (False, True): CausalDirection.Y_TO_X,
        }.get((fwd_ok, bwd_ok), CausalDirection.INCONCLUSIVE)
        assert AnmResult(forward, backward).direction is expected


def _check_transitions(rng):
    for a, b in itertools.product(STATIC_STATES, repeat=2):
        t = Transition(a, b)
        moved = (a.structural.tag is not b.structural.tag, a.parametric.tag is not b.parametric.tag)
        assert t.kind is {
            (False, False): TransitionKind.NONE,
            (True, False): TransitionKind.STRUCTURAL,
            (False, True): TransitionKind.PARAMETRIC,
            (True, True): TransitionKind.BOTH,
        }[moved]
        lowered = b.structural.tag < a.structural.tag or b.parametric.tag < a.parametric.tag
        assert t.relaxing is lowered


def _pipelines(rng: random.Random, count: int):
    for _ in range(count):
        start = rng.choice(STATIC_STATES)
        ids = [rng.choice(CATALOG.cards).id for _ in range(rng.randint(0, 4))]
        yield start, validate_pipeline(CATALOG, ids, start)


def _check_stages(rng):
    for _, report in _pipelines(rng, 300):
        for stage in report.stages:
            assert stage.satisfied is (stage.after is not None)
            assert dataclasses.replace(stage, after=None).satisfied is False


def _check_validation_reports(rng):
    for start, report in _pipelines(rng, 300):
        failed = [stage for stage in report.stages if stage.after is None]
        assert report.overall is (not failed)
        if failed:
            stage = failed[0]
            assert report.final is None
            assert report.failure_reason == f"stage {stage.index} ({stage.card_id}): {stage.message}"
        else:
            assert report.final == (report.stages[-1].after if report.stages else start)
            assert report.failure_reason is None


def _check_audits(rng):
    for _ in range(50):
        cards = rng.sample(CATALOG.cards, rng.randint(0, len(CATALOG.cards)))
        transitions = {card.id: Transition(card.a_priori, card.a_posteriori) for card in cards}
        report = AuditReport(transitions)
        kinds = [t.kind for t in transitions.values()]
        assert report.counts == {kind: kinds.count(kind) for kind in TransitionKind}
        assert report.relaxing == tuple(i for i, t in transitions.items() if t.relaxing)


DERIVED = {
    "TestReport": (Report, ("decision",), _check_decisions),
    "AnmResult": (AnmResult, ("direction",), _check_directions),
    "Transition": (Transition, ("kind", "relaxing"), _check_transitions),
    "StageRecord": (StageRecord, ("satisfied",), _check_stages),
    "ValidationReport": (
        ValidationReport,
        ("overall", "final", "failure_reason"),
        _check_validation_reports,
    ),
    "AuditReport": (AuditReport, ("counts", "relaxing"), _check_audits),
}


@pytest.mark.parametrize("kind", sorted(DERIVED))
def test_derived_fields_are_computed_by_their_rule(kind):
    # Each of these was a field set by whoever built the value, so a value
    # could contradict the evidence it holds.
    cls, names, check = DERIVED[kind]
    fields = {f.name for f in dataclasses.fields(cls)}
    for name in names:
        assert name not in fields
        assert isinstance(getattr(cls, name), property)
    check(random.Random(kind))


def _decision_rules(tree: ast.AST):
    """The scope of each comparison between a ``p_value`` and an ``alpha``."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Compare):
            names = {
                getattr(o, "attr", getattr(o, "id", None)) for o in (node.left, *node.comparators)
            }
            if {"p_value", "alpha"} <= names:
                yield scope


def test_decision_rule_is_written_once():
    # TestReport.from_p and TestReport.__post_init__ each stated p < alpha,
    # and from_p compared before either number was read.
    package = Path(cdl_compass.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.name}:{scope}" for scope in _decision_rules(tree)]
    assert sites == ["stats.py:TestReport.decision"]
