"""The public surface, stated once.

``SURFACE`` maps every name in ``cdl_compass.__all__`` to the entry point
that reaches it, or to ``library`` with the paper's reason to keep it:

- ``("cli", <subcommand>)``: a key of ``test_imports.MODULES``, walked from
  its ``_cmd_*`` handler in ``cli.py``;
- ``("script", <file>)``: a file in ``scripts/``, walked from its whole text;
- ``("bench", <workload>)``: a workload of ``bench/workloads.py``'s
  ``WORKLOADS``, walked from its class, or ``layers``, the per-layer probe;
- ``("library", <reason>)``: reached by none of these.

The walk is static and follows names: from an entry it follows every name
bound to a top-level definition of its own file, every name imported from
another file of ``src/``, ``bench/`` or ``scripts/``, and every attribute
named like a top-level definition of a module the file imports whole.  A
class is reached with all its methods.
"""

import ast
import functools
from pathlib import Path

import pytest

import cdl_compass
from test_imports import MODULES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cdl_compass.__file__).resolve().parent

SURFACE = {
    # datasets
    "Dataset": ("cli", "simulate"),
    # engine
    "AuditReport": ("cli", "audit"),
    "StageRecord": ("cli", "validate"),
    "ValidationReport": ("cli", "validate"),
    "audit_transitions": ("cli", "audit"),
    "format_pipeline": ("library", "writes the pipeline file that `validate` reads"),
    "parse_pipeline": ("cli", "validate"),
    "plan_pipeline": ("cli", "plan"),
    "validate_pipeline": ("cli", "validate"),
    # expressions
    "EvaluationError": ("cli", "simulate"),
    "Expression": ("cli", "simulate"),
    "ExpressionSyntaxError": ("cli", "simulate"),
    "evaluate_expression": ("cli", "simulate"),
    "format_expression": ("library", "writes the equation text that `simulate` reads"),
    "free_variables": ("cli", "simulate"),
    "parse_expression": ("cli", "simulate"),
    # graphs
    "CycleError": ("cli", "dsep"),
    "Dag": ("cli", "dsep"),
    "GraphFormatError": ("cli", "dsep"),
    "IndependenceSet": ("cli", "mec"),
    "IndependenceStatement": ("cli", "mec"),
    "Pdag": ("cli", "dsep"),
    "TemporalTemplate": ("bench", "graphs-and-models"),
    "consistent_with": ("cli", "mec"),
    "d_separated": ("cli", "dsep"),
    "enumerate_dags": (
        "library",
        "the structural dimension's unknown level: every DAG on the variables, "
        "the search `enumerate_mec` narrows, cross-checked by tests/helpers_mec.py",
    ),
    "enumerate_mec": ("cli", "mec"),
    "format_graph": ("cli", "mec"),
    "hidden_confounder_template": ("bench", "graphs-and-models"),
    "implied_independencies": ("bench", "graphs-and-models"),
    "parse_constraints": ("cli", "mec"),
    "parse_dag": ("cli", "dsep"),
    "parse_graph": ("cli", "dsep"),
    "unroll": ("bench", "graphs-and-models"),
    # lattice
    "KnowledgeState": ("cli", "catalog-list"),
    "ParametricLevel": ("cli", "catalog-list"),
    "ParametricTag": ("cli", "catalog-list"),
    "PayloadConflictError": ("cli", "validate"),
    "StructuralLevel": ("cli", "catalog-list"),
    "StructuralTag": ("cli", "catalog-list"),
    "TemporalFlag": ("cli", "catalog-list"),
    "TestabilityTier": ("cli", "catalog-show"),
    "Transition": ("cli", "audit"),
    "TransitionKind": ("cli", "audit"),
    "all_tag_states": (
        "library",
        "the lattice's elements: every structural x parametric x temporal tag triple",
    ),
    "join_states": ("cli", "validate"),
    "knowledge_state": ("cli", "catalog-list"),
    "leq": ("cli", "catalog-list"),
    "satisfies": ("cli", "plan"),
    "testability_tier": ("cli", "catalog-show"),
    # registry
    "Catalog": ("cli", "catalog-list"),
    "MethodCard": ("cli", "catalog-show"),
    "UnknownCardError": ("cli", "catalog-show"),
    "default_catalog": ("cli", "catalog-list"),
    "load_catalog": ("cli", "catalog-list"),
    "query_catalog": ("cli", "catalog-list"),
    "save_catalog": ("library", "writes the catalog file that `--catalog` reads"),
    # scm
    "Factor": (
        "library",
        "the parametric dimension: one mechanism as a table or density over its scope",
    ),
    "Factorization": (
        "library",
        "the parametric dimension: a joint law as a product of factors whose mass is checked",
    ),
    "NormalNoise": ("cli", "simulate"),
    "Scm": ("cli", "simulate"),
    "ScmFormatError": ("cli", "simulate"),
    "StructuralEquation": ("cli", "simulate"),
    "UniformNoise": ("cli", "simulate"),
    "evaluate_factorization": (
        "library",
        "the parametric dimension: a factorization's joint density at one assignment",
    ),
    "format_scm": ("library", "writes the model file that `simulate` reads"),
    "oracle_cate": (
        "library",
        "the ground-truth effect of a fully-known model's potential outcomes, "
        "which an estimate from a method card is checked against",
    ),
    "parse_scm": ("cli", "simulate"),
    "sample": ("cli", "simulate"),
    "scopes_consistent_with_dag": (
        "library",
        "the parametric dimension tied to the structural one: factor scopes "
        "that respect a DAG's parent sets",
    ),
    # stats
    "AnmResult": ("cli", "anm"),
    "CausalDirection": ("cli", "anm"),
    "Decision": ("cli", "test-ks"),
    "TestReport": ("cli", "test-ks"),
    "anm_direction": ("cli", "anm"),
    "cusum_critical_coefficient": ("cli", "test-cusum"),
    "cusum_crossing_probability": ("cli", "test-cusum"),
    "cusum_linearity_test": ("cli", "test-cusum"),
    "jarque_bera_test": ("cli", "test-jb"),
    "ks_test": ("cli", "test-ks"),
    "partial_correlation_ci_test": ("cli", "test-pcorr"),
    "recursive_residuals": ("cli", "test-cusum"),
    "residual_independence_test": ("cli", "test-resid"),
    "savitzky_golay_smooth": ("cli", "anm"),
}


def _file_index(path: Path):
    """A file's tree, its top-level definitions by name, and what each name
    it imports from a package or sibling file stands for: ``(file, name)``,
    or ``(file, None)`` for a whole module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    definitions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                definitions[target.id] = node
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: (a.name, None) for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # only the package imports relatively
                module = f"cdl_compass.{module}" if module else "cdl_compass"
            for alias in node.names:
                local, name = alias.asname or alias.name, alias.name
                if f"{module}.{name}" in _files():
                    bound[local] = (f"{module}.{name}", None)
                elif module == "cdl_compass":  # a re-exported name
                    bound[local] = (getattr(cdl_compass, name).__module__, name)
                else:
                    bound[local] = (module, name)
    return tree, definitions, bound


@functools.cache
def _files() -> dict:
    files = {f"cdl_compass.{p.stem}": p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    files.update({p.stem: p for p in (ROOT / "bench").glob("*.py")})
    files.update({f"scripts.{p.stem}": p for p in (ROOT / "scripts").glob("*.py")})
    return files


@functools.cache
def _index(key: str):
    return _file_index(_files()[key])


def _references(key: str, node: ast.AST):
    _, definitions, bound = _index(key)
    modules = [m for m, name in bound.values() if name is None and m in _files()]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in definitions:
                yield key, sub.id
            elif bound.get(sub.id, (None, None))[1] is not None:
                yield bound[sub.id]
        elif isinstance(sub, ast.Attribute):
            yield from ((m, sub.attr) for m in modules if sub.attr in _index(m)[1])


def _reach(*roots) -> frozenset:
    """Every ``(file, name)`` definition the walk reaches from ``roots``; a
    root ``(file, None)`` is the whole file."""
    seen, todo = set(), list(roots)
    while todo:
        key, name = todo.pop()
        if (key, name) in seen or key not in _files():
            continue
        seen.add((key, name))
        tree, definitions, _ = _index(key)
        node = tree if name is None else definitions.get(name)
        if node is not None:
            todo.extend(_references(key, node))
    return frozenset(seen)


def _workload_classes() -> dict:
    """Each benchmark workload's name and the class that runs it."""
    _, definitions, _ = _index("workloads")
    (generator,) = definitions["WORKLOADS"].value.generators
    classes = {}
    for element in generator.iter.elts:
        for node in definitions[element.id].body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "name":
                classes[node.value.value] = element.id
    return classes


@functools.cache
def entries() -> dict:
    """Each entry point and the package definitions it reaches."""
    cli = _index("cdl_compass.cli")[1]
    found = {}
    for sub in MODULES:  # catalog-list runs _cmd_catalog_list, test-ks runs _cmd_test
        handler = f"_cmd_{sub.replace('-', '_')}"
        if handler not in cli:
            handler = f"_cmd_{sub.split('-')[0]}"
        found[("cli", sub)] = _reach(("cdl_compass.cli", handler))
    for path in sorted((ROOT / "scripts").glob("*.py")):
        found[("script", path.name)] = _reach((f"scripts.{path.stem}", None))
    for workload, cls in _workload_classes().items():
        found[("bench", workload)] = _reach(("workloads", cls))
    found[("bench", "layers")] = _reach(("layers", "Probe"))
    return found


def _definition(name: str) -> tuple[str, str]:
    return getattr(cdl_compass, name).__module__, name


def test_the_table_names_every_exported_name_once():
    assert sorted(SURFACE) == cdl_compass.__all__


def test_every_subcommand_script_and_workload_is_walked():
    walked = set(entries())
    assert {sub for kind, sub in walked if kind == "cli"} == set(MODULES)
    assert {file for kind, file in walked if kind == "script"} == {
        p.name for p in (ROOT / "scripts").glob("*.py")
    }
    benchmarked = {"cli-cold", "graphs-and-models", "assumption-tests"}
    assert {w for kind, w in walked if kind == "bench"} >= benchmarked


@pytest.mark.parametrize("name", cdl_compass.__all__)
def test_each_name_names_its_entry_or_its_reason(name):
    kind, value = SURFACE[name]
    reached_by = sorted(entry for entry, seen in entries().items() if _definition(name) in seen)
    if kind == "library":
        assert not reached_by, f"{name} is reached by {reached_by}: name an entry, not 'library'"
        assert value.strip(), f"{name} needs a reason to stay in the library"
        return
    assert (kind, value) in reached_by, f"{name} is reached by {reached_by}, not by {(kind, value)}"
    if kind == "cli":
        module = _definition(name)[0].removeprefix("cdl_compass.")
        assert module in MODULES[value], f"{value} does not load {module}, where {name} is defined"


def test_the_walk_follows_imports_and_module_attributes():
    # cli imports inside handlers; bench reaches the package through
    # module attributes on aliases (``g = self.graphs; g.unroll``).
    assert ("cdl_compass.graphs", "d_separated") in entries()[("cli", "dsep")]
    assert ("cdl_compass.stats", "anm_direction") in entries()[("script", "anm_study.py")]
    assert ("cdl_compass.graphs", "unroll") in entries()[("bench", "graphs-and-models")]
    assert ("cdl_compass.graphs", "unroll") not in entries()[("cli", "dsep")]
