"""Knowledge-state bookkeeping for causal analyses.

The package tracks what an analysis assumes and what it establishes on
two ordered scales (structural knowledge of the causal graph, parametric
knowledge of the generating mechanisms) plus a static/temporal flag,
and builds on that: graph reasoning and equivalence classes, structural
models with deterministic sampling and a treatment-effect oracle,
statistical assumption checks, a catalog of method cards, and a pipeline
validator/planner/auditor, all reachable from the ``cdl-compass``
command line.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> the submodule defining it.  Submodules are imported on first
# attribute access (PEP 562), so ``import cdl_compass`` loads neither numpy nor
# scipy, and a command that needs only the catalog never pays for them.
_EXPORTS = {
    "engine": (
        "AuditReport",
        "StageRecord",
        "ValidationReport",
        "audit_transitions",
        "format_pipeline",
        "parse_pipeline",
        "plan_pipeline",
        "validate_pipeline",
    ),
    "expressions": (
        "EvaluationError",
        "Expression",
        "ExpressionSyntaxError",
        "evaluate_expression",
        "format_expression",
        "free_variables",
        "parse_expression",
    ),
    "graphs": (
        "CycleError",
        "Dag",
        "GraphFormatError",
        "IndependenceSet",
        "IndependenceStatement",
        "Pdag",
        "TemporalTemplate",
        "consistent_with",
        "d_separated",
        "enumerate_dags",
        "enumerate_mec",
        "format_graph",
        "hidden_confounder_template",
        "implied_independencies",
        "parse_constraints",
        "parse_dag",
        "parse_graph",
        "unroll",
    ),
    "lattice": (
        "KnowledgeState",
        "ParametricLevel",
        "ParametricTag",
        "PayloadConflictError",
        "StructuralLevel",
        "StructuralTag",
        "TemporalFlag",
        "TestabilityTier",
        "Transition",
        "TransitionKind",
        "all_tag_states",
        "classify_transition",
        "join_states",
        "knowledge_state",
        "leq",
        "satisfies",
        "testability_tier",
    ),
    "registry": (
        "Catalog",
        "MethodCard",
        "UnknownCardError",
        "default_catalog",
        "load_catalog",
        "query_catalog",
        "save_catalog",
    ),
    "scm": (
        "Dataset",
        "Factor",
        "Factorization",
        "NormalNoise",
        "Scm",
        "ScmFormatError",
        "StructuralEquation",
        "UniformNoise",
        "evaluate_factorization",
        "format_scm",
        "ihdp_surfaces",
        "oracle_cate",
        "parse_scm",
        "sample",
        "scopes_consistent_with_dag",
    ),
    "stats": (
        "AnmResult",
        "CausalDirection",
        "Decision",
        "TestReport",
        "anm_direction",
        "cusum_critical_coefficient",
        "cusum_crossing_probability",
        "cusum_linearity_test",
        "jarque_bera_test",
        "ks_test",
        "partial_correlation",
        "partial_correlation_ci_test",
        "recursive_residuals",
        "residual_independence_test",
        "savitzky_golay_smooth",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
