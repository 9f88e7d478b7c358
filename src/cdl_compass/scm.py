"""Structural causal models: factorization, equations, sampling, CATE oracle.

A model is a DAG plus one generating equation per endogenous variable and a
noise specification per exogenous source, a ``NormalNoise`` or
``UniformNoise`` from :mod:`cdl_compass.stats`.  Equations live at one of the
parametric knowledge levels:

* ``noise_model`` — additive form ``target = g(parents) + U`` with ``g``
  held as an expression, a flat post-order program;
* ``fully_known`` — an explicit expression for the whole right-hand side,
  which may reference noise symbols ``U_<key>`` directly;
* ``nonparametric`` / ``parametric`` — declared shape only (no expression);
  such models are representable but refuse to sample.

Sampling is ancestral (topological order) and deterministic per seed, with
one independent substream per variable and per noise symbol keyed by name,
so neither dict ordering nor internal parallelism can change the output.
A draw that overflows raises ``ValueError`` naming its noise symbol.

Potential outcomes are modeled as two explicit equations, ``Y0`` and
``Y1``, which may reference a shared noise symbol; consistency then holds
by construction and :func:`oracle_cate` evaluates both surfaces on common
noise draws.

Distribution factorizations (a product of non-negative factors over
variable scopes divided by a normalizer) are supported alongside, with an
exact normalization check whenever every scope variable has a finite
domain, and a consistency check against a DAG's canonical factorization.

:func:`sample` returns a :class:`~cdl_compass.datasets.Dataset`; datasets
and their CSV form live in :mod:`cdl_compass.datasets`.  Model definitions
are text with ``graph:``, ``equations:`` and ``noise:`` sections (see
:func:`parse_scm`).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from math import fsum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .datasets import Dataset
from .expressions import (
    EvaluationError,
    Expression,
    evaluate_expression,
    format_expression,
    free_variables,
    parse_expression,
)
from .graphs import _NAME, Dag, GraphFormatError, Pdag, _check_name, _content_lines
from .graphs import _graph_of_lines, format_graph
from .lattice import ParametricTag, _check_type, _count, _real
from .stats import NormalNoise, UniformNoise, _stream


class ScmFormatError(GraphFormatError):
    """Malformed model definition text.

    ``line`` is the 1-based number of the line at fault, or ``None`` when the
    fault lies in the model as a whole: a directed cycle or an undirected
    edge in its graph, or equations that disagree with the graph.
    """


# ---------------------------------------------------------------------------
# Distribution factorization


def _reals(values: Iterable[float], name: str) -> tuple[float, ...]:
    return tuple(_real(x, name) for x in values)


@dataclass(frozen=True)
class Factor:
    """A non-negative function over an ordered variable scope.

    Backed either by an explicit table over finite domains or by an
    expression.  ``domains`` maps each scope variable to its finite value
    tuple, or ``None`` for a real-valued variable (expression factors only).
    Domain values, table keys and table values are read by ``lattice._real``;
    the domains are held in scope order and the table sorted by key.
    """

    scope: tuple[str, ...]
    domains: tuple[tuple[str, tuple[float, ...] | None], ...]
    table: tuple[tuple[tuple[float, ...], float], ...] | None = None
    expr: Expression | None = None

    @classmethod
    def from_table(
        cls,
        scope: Sequence[str],
        domains: Mapping[str, Sequence[float]],
        table: Mapping[tuple[float, ...], float],
    ) -> "Factor":
        scope_t = tuple(scope)
        return cls(scope_t, [(v, domains[v]) for v in scope_t], table=table.items())

    @classmethod
    def from_expression(
        cls,
        scope: Sequence[str],
        expr: Expression | str,
        domains: Mapping[str, Sequence[float] | None] | None = None,
    ) -> "Factor":
        if isinstance(expr, str):
            expr = parse_expression(expr)
        scope_t = tuple(scope)
        domains = domains or {}
        return cls(scope_t, [(v, domains.get(v)) for v in scope_t], expr=expr)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", tuple(self.scope))
        if not self.scope:
            raise ValueError("a factor scope must be nonempty")
        if len(set(self.scope)) != len(self.scope):
            raise ValueError("factor scope repeats a variable")
        given = tuple(self.domains)
        doms = dict(given)
        if len(doms) != len(given) or set(doms) != set(self.scope):
            raise ValueError("domains must cover exactly the scope variables")
        if (self.table is None) == (self.expr is None):
            raise ValueError("a factor is backed by exactly one of table or expression")
        doms = {
            v: None if doms[v] is None else _reals(doms[v], f"domain value of {v!r}")
            for v in self.scope
        }
        object.__setattr__(self, "domains", tuple(doms.items()))
        if self.expr is not None and not isinstance(self.expr, Expression):
            raise TypeError(f"expr must be an expression node, got {self.expr!r}")
        if self.table is not None:
            table = sorted(
                (_reals(key, f"table key {key!r}"), _real(value, f"table value at {key!r}"))
                for key, value in self.table
            )
            object.__setattr__(self, "table", tuple(table))
            if any(doms[v] is None for v in self.scope):
                raise ValueError("table factors need a finite domain for every variable")
            expected = set(itertools.product(*(doms[v] for v in self.scope)))
            seen = {key for key, _ in self.table}
            if seen != expected:
                raise ValueError("table must cover the scope's full joint domain exactly")
            for key, value in self.table:
                if value < 0.0:
                    raise ValueError(f"negative factor value {value!r} at {key!r}")
                if not math.isfinite(value):
                    raise ValueError(f"non-finite factor value {value!r} at {key!r}")

    @cached_property
    def _table_map(self) -> dict[tuple[float, ...], float] | None:
        return dict(self.table) if self.table is not None else None

    def _values(self, env: Mapping[str, float | np.ndarray]) -> np.ndarray:
        """The factor where ``env`` binds each scope variable to a float or to
        arrays that broadcast together, as an array: the one place a table is
        looked up or an expression evaluated, and a negative value rejected."""
        if self._table_map is None:
            values = np.asarray(evaluate_expression(self.expr, env))
        else:
            cells = np.broadcast(*(env[v] for v in self.scope))
            values = np.fromiter((self._table_map[key] for key in cells), float, cells.size)
            values = values.reshape(cells.shape)
        negative = values < 0.0
        if negative.any():
            raise ValueError(f"negative factor value {float(values[negative][0])!r} encountered")
        return values

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        for v in self.scope:
            if v not in assignment:
                raise ValueError(f"assignment missing scope variable {v!r}")
        env = {v: _real(assignment[v], f"assignment of {v!r}") for v in self.scope}
        for v, dom in self.domains:
            if dom is not None and env[v] not in dom:
                raise ValueError(
                    f"value {assignment[v]!r} outside the declared domain of {v!r}"
                )
        return float(self._values(env))

    def _joint_values(self, names: Sequence[str]) -> np.ndarray:
        """The factor at every joint assignment of its finite scope domains.

        ``names`` orders the axes and must hold the scope; a name outside the
        scope gets an axis of length 1, so the arrays of several factors
        broadcast against one another.
        """
        doms = dict(self.domains)
        axes = [v for v in names if v in doms]
        grids = np.meshgrid(*(np.asarray(doms[v], dtype=float) for v in axes), indexing="ij")
        values = np.broadcast_to(self._values(dict(zip(axes, grids))), grids[0].shape)
        return values.reshape([len(doms[v]) if v in doms else 1 for v in names])


@dataclass(frozen=True)
class Factorization:
    """A product of factors divided by a positive normalizer.

    When every variable's domain is finite the total mass is checked at
    construction: the product summed over the joint domain must equal the
    normalizer (verified with compensated summation; tolerance 1e-9).
    """

    factors: tuple[Factor, ...]
    z: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a factorization needs at least one factor")
        object.__setattr__(self, "z", _real(self.z, "normalizer"))
        if not (self.z > 0.0) or not math.isfinite(self.z):
            raise ValueError(f"normalizer must be a positive real, got {self.z!r}")
        domains: dict[str, tuple[float, ...] | None] = {}
        for f in self.factors:
            _check_type(f, Factor, "a factor")
            for v, dom in f.domains:
                if v in domains and domains[v] != dom:
                    raise ValueError(f"inconsistent domains declared for {v!r}")
                domains[v] = dom
        if all(dom is not None for dom in domains.values()):
            # One axis per variable, in name order: each factor is evaluated
            # once over its scope's grid, and numpy broadcasts the products
            # in factor order, so each is bit for bit the per-assignment one.
            names = sorted(domains)
            grids = [f._joint_values(names) for f in self.factors]
            with np.errstate(all="ignore"):
                product = functools.reduce(np.multiply, grids)
            shape = tuple(len(domains[v]) for v in names)
            total = fsum(np.broadcast_to(product, shape).ravel().tolist())
            if not abs(total / self.z - 1.0) <= 1e-9:  # NaN included
                raise ValueError(
                    f"factorization does not normalize: mass {total!r} vs z {self.z!r}"
                )

    def variables(self) -> frozenset[str]:
        return frozenset(v for f in self.factors for v in f.scope)


def evaluate_factorization(f: Factorization, assignment: Mapping[str, float]) -> float:
    """Joint value at one assignment: product of all factors divided by z."""
    return math.prod(factor.evaluate(assignment) for factor in f.factors) / f.z


def scopes_consistent_with_dag(f: Factorization, g: Dag) -> bool:
    """Is this the canonical DAG factorization?

    True iff the multiset of factor scopes equals the multiset of
    ``{X} ∪ parents(X)`` over all nodes — one factor per node, each scoped
    on the node and its parents.
    """
    from collections import Counter

    have = Counter(frozenset(factor.scope) for factor in f.factors)
    want = Counter(frozenset({v}) | g.parents(v) for v in g.nodes)
    return have == want


# ---------------------------------------------------------------------------
# Structural equations and models

NoiseSpec = NormalNoise | UniformNoise


def noise_symbol(key: str) -> str:
    return f"U_{key}"


@dataclass(frozen=True)
class StructuralEquation:
    """One variable's generating rule at a stated parametric level.

    ``noise_model``: ``expr`` is g over the parents; the sampled value is
    ``g(parents) + U_<target>``.  ``fully_known``: ``expr`` is the entire
    right-hand side and may reference declared noise symbols ``U_<key>``.
    ``nonparametric``/``parametric``: shape only, ``expr`` must be None.
    """

    target: str
    level: ParametricTag
    expr: Expression | None = None

    def __post_init__(self) -> None:
        _check_name(self.target)
        _check_type(self.level, ParametricTag, "level")
        if self.expr is not None and not isinstance(self.expr, Expression):
            raise TypeError(f"expr must be an expression node, got {self.expr!r}")
        needs_expr = self.level in (ParametricTag.NOISE_MODEL, ParametricTag.FULLY_KNOWN)
        if needs_expr and self.expr is None:
            raise ValueError(
                f"{self.level.label} equation for {self.target!r} needs an expression"
            )
        if not needs_expr and self.expr is not None:
            raise ValueError(
                f"{self.level.label} equation for {self.target!r} cannot carry an expression"
            )


class Scm:
    """A DAG plus structural equations and noise specifications.

    ``equations`` maps endogenous targets to their rules; any node without
    an equation is exogenous and must have a noise spec under its own name.
    ``noise`` maps keys to distributions; key ``k`` backs the symbol
    ``U_k``.  Keys need not be node names — a free-standing symbol shared by
    several fully-known equations models common noise (the potential-outcome
    construction relies on this).  An equation's parents are its target's
    parents in ``graph``.
    """

    def __init__(
        self,
        graph: Dag,
        equations: Iterable[StructuralEquation] = (),
        noise: Mapping[str, NoiseSpec] | None = None,
    ):
        self.graph = graph
        eq_map: dict[str, StructuralEquation] = {}
        for eq in equations:
            if eq.target in eq_map:
                raise ValueError(f"duplicate equation for {eq.target!r}")
            eq_map[eq.target] = eq
        self.equations: dict[str, StructuralEquation] = dict(
            sorted(eq_map.items())
        )
        self.noise: dict[str, NoiseSpec] = dict(sorted((noise or {}).items()))
        for key in self.noise:
            _check_name(key)
        self._key_by_symbol: dict[str, str] = {noise_symbol(k): k for k in self.noise}
        shadowed = sorted(graph.nodes & self._key_by_symbol.keys())
        if shadowed:
            raise ValueError(
                f"graph node {shadowed[0]!r} has the name of the noise symbol "
                f"of noise key {self._key_by_symbol[shadowed[0]]!r}"
            )
        self._parents: dict[str, frozenset[str]] = {}
        for target, eq in self.equations.items():
            if target not in graph.nodes:
                raise ValueError(f"equation target {target!r} is not a graph node")
            parents = self._parents[target] = graph.parents(target)
            if eq.expr is None:
                continue
            refs = free_variables(eq.expr)
            if eq.level is ParametricTag.NOISE_MODEL:
                allowed = parents
                if target not in self.noise:
                    raise ValueError(
                        f"noise-model equation for {target!r} needs a noise spec "
                        f"for {noise_symbol(target)}"
                    )
            else:
                allowed = parents | self._key_by_symbol.keys()
            unknown = refs - allowed
            if unknown:
                raise ValueError(
                    f"equation for {target!r} references undeclared symbols "
                    f"{sorted(unknown)}"
                )
        for node in graph.nodes:
            if node not in self.equations and node not in self.noise:
                raise ValueError(
                    f"exogenous variable {node!r} has no noise spec and no equation"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scm):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.equations == other.equations
            and self.noise == other.noise
        )

    def sampleable(self) -> bool:
        return all(eq.expr is not None for eq in self.equations.values())


def _draws(m: Scm, key: str, seed: int, n: int) -> np.ndarray:
    """``n`` draws of noise ``key`` from its own substream; an error names its symbol."""
    rng = _stream(seed, f"noise:{key}")
    try:
        return m.noise[key].draw(rng, n)
    except ValueError as exc:
        raise ValueError(f"{noise_symbol(key)}: {exc}") from None


def _equation_value(
    target: str, eq: StructuralEquation, bound: Mapping, draws: Mapping, out: np.ndarray | None = None
) -> np.ndarray | float:
    """The value of ``target``'s equation given ``bound`` (the parents' values
    or a covariate point), written into ``out`` when given.  The one statement
    of the level rule: a noise-model equation is ``g(bound) + U_<target>``, a
    fully-known one reads the noise symbols of ``draws`` over ``bound``.
    The noise sum must be finite, as every operator of an expression must.
    Errors name the target."""
    try:
        if eq.level is ParametricTag.NOISE_MODEL:
            g = evaluate_expression(eq.expr, bound)
            with np.errstate(all="ignore"):
                value = np.add(g, draws[noise_symbol(target)], out=out)
            if not np.isfinite(value).all():
                raise EvaluationError("non-finite result from operator '+'")
            return value
        value = evaluate_expression(eq.expr, {**bound, **draws})
    except EvaluationError as exc:
        raise EvaluationError(f"equation for {target!r}: {exc}") from None
    if out is not None:
        out[:] = value
    return value


def sample(m: Scm, n: int, seed: int = 0) -> Dataset:
    """Draw ``n`` joint observations by ancestral sampling.

    Deterministic per seed: each noise symbol gets its own substream keyed
    by name, so the same seed reproduces the same dataset byte for byte
    regardless of declaration order.  Columns come out in sorted name
    order, as rows of one array.  Beside that n x k block, memory holds
    only the noise symbols that fully-known equations name.  Models holding
    any equation below the noise-model level cannot be sampled.
    """
    if _count(n, "sample size") < 0:
        raise ValueError(f"sample size must be non-negative, got {n}")
    for target, eq in m.equations.items():
        if eq.expr is None:
            raise ValueError(
                f"cannot sample: equation for {target!r} is at the "
                f"{eq.level.label} level"
            )

    # The values fill the rows of one (k, n) block.  One array per variable
    # left thousands of small chunks on the C heap, and how much of them
    # stayed resident, and so the peak memory, varied from run to run.  An
    # exogenous or noise-model node draws its own noise into its row, where
    # a noise-model node then adds g(parents); only the symbols a fully-known
    # equation names are held apart.  Each key has its own substream, so a
    # key that nothing reads is not drawn and no column changes.
    named = {
        target: m._key_by_symbol.keys() & free_variables(eq.expr)
        for target, eq in m.equations.items()
        if eq.level is ParametricTag.FULLY_KNOWN
    }
    shared = {s: _draws(m, m._key_by_symbol[s], seed, n) for s in set().union(*named.values())}
    order = m.graph.topological_order()
    values: dict[str, np.ndarray] = {}
    for row, node in zip(np.empty((len(order), n)), order):
        eq = m.equations.get(node)
        if eq is None or eq.level is ParametricTag.NOISE_MODEL:
            own = noise_symbol(node)
            row[:] = shared[own] if own in shared else _draws(m, node, seed, n)
            draws = {own: row}
        else:
            draws = {s: shared[s] for s in named[node]}
        if eq is not None:
            _equation_value(node, eq, {p: values[p] for p in m._parents[node]}, draws, out=row)
        values[node] = row
    return Dataset({name: values[name] for name in sorted(values)})


# ---------------------------------------------------------------------------
# Treatment-effect oracle


def oracle_cate(
    m: Scm,
    x: Mapping[str, float],
    n_mc: int = 10000,
    seed: int = 0,
) -> float:
    """Ground-truth conditional average treatment effect at one covariate point.

    The model must carry explicit potential-outcome equations named ``Y0``
    and ``Y1``.  Both surfaces are evaluated on shared noise draws per
    replicate and the mean difference ``E[Y1 - Y0 | X = x]`` is returned.
    When neither equation involves noise, the value is computed exactly in
    one evaluation and ``n_mc`` is ignored.
    """
    outcome: dict[str, StructuralEquation] = {}
    for name in ("Y0", "Y1"):
        eq = m.equations.get(name)
        if eq is None:
            raise ValueError(f"missing outcome equation {name!r}")
        if eq.expr is None:
            raise ValueError(
                f"outcome equation {name!r} is at the {eq.level.label} level; "
                "an explicit or additive-noise form is required"
            )
        outcome[name] = eq

    needed: set[str] = set()
    for name, eq in outcome.items():
        refs = free_variables(eq.expr)
        missing = refs - m._key_by_symbol.keys() - x.keys()
        if missing:
            raise ValueError(f"covariate assignment missing {sorted(missing)}")
        needed |= {m._key_by_symbol[s] for s in refs if s in m._key_by_symbol}
        if eq.level is ParametricTag.NOISE_MODEL:
            needed.add(name)

    # Without noise the draws are empty and each equation gives one float.
    if _count(n_mc, "n_mc") < 1 and needed:
        raise ValueError(f"n_mc must be positive, got {n_mc}")
    draws = {noise_symbol(key): _draws(m, key, seed, n_mc) for key in sorted(needed)}
    y0, y1 = (_equation_value(name, eq, x, draws) for name, eq in outcome.items())
    return float(np.mean(y1 - y0))


# ---------------------------------------------------------------------------
# Model definition file format

_NOISE_LINE = re.compile(
    rf"^U_({_NAME.pattern})\s*~\s*(Normal|Uniform)\s*\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)$"
)


def parse_scm(text: str) -> Scm:
    """Parse a model definition.

    Three sections, each introduced by a header line::

        graph:
        X -> Y
        equations:
        Y = 2 * X + U        # additive noise: g(parents) + U_Y
        # or:  Y := exp(X) + 0.5 * U_Y   (fully explicit right-hand side)
        noise:
        U_X ~ Normal(0, 1)
        U_Y ~ Normal(0, 0.1)

    ``#`` starts a comment anywhere; errors carry the line number.
    """
    sections: dict[str, list[tuple[int, str]]] = {"graph": [], "equations": [], "noise": []}
    section: list[tuple[int, str]] | None = None
    for lineno, line in _content_lines(text):
        if line.endswith(":") and " " not in line:
            name = line[:-1]
            if name not in sections:
                raise ScmFormatError(lineno, f"unknown section {name!r}")
            section = sections[name]
        elif section is None:
            raise ScmFormatError(lineno, "content before the first section header")
        else:
            section.append((lineno, line))

    try:
        graph = _graph_of_lines(sections["graph"])
    except GraphFormatError as exc:
        raise ScmFormatError(exc.line, f"graph section: {exc.reason}") from None
    if isinstance(graph, Pdag):
        raise ScmFormatError(None, "graph section: a model graph must be directed")

    noise: dict[str, NoiseSpec] = {}
    for lineno, line in sections["noise"]:
        match = _NOISE_LINE.match(line)
        if match is None:
            raise ScmFormatError(
                lineno, "expected 'U_<name> ~ Normal(mu, sigma)' or 'U_<name> ~ Uniform(a, b)'"
            )
        key, family, first, second = match.groups()
        if key in noise:
            raise ScmFormatError(lineno, f"duplicate noise spec for {noise_symbol(key)}")
        try:
            a, b = float(first), float(second)
            noise[key] = NormalNoise(a, b) if family == "Normal" else UniformNoise(a, b)
        except ValueError as exc:
            raise ScmFormatError(lineno, str(exc)) from None

    equations: dict[str, StructuralEquation] = {}
    for lineno, line in sections["equations"]:
        if ":=" in line:
            target, _, rhs = line.partition(":=")
            level = ParametricTag.FULLY_KNOWN
            body = rhs.strip()
        elif "=" in line:
            target, _, rhs = line.partition("=")
            level = ParametricTag.NOISE_MODEL
            stripped = re.match(r"^(.*?)\s*\+\s*U$", rhs.strip())
            if stripped is None:
                raise ScmFormatError(
                    lineno,
                    "a noise-model equation must end with '+ U' "
                    "(use ':=' for a fully explicit right-hand side)",
                )
            body = stripped.group(1)
        else:
            raise ScmFormatError(lineno, "expected '<var> = <expr> + U' or '<var> := <expr>'")
        target = target.strip()
        if target not in graph.nodes:
            raise ScmFormatError(lineno, f"equation target {target!r} is not a graph node")
        if target in equations:
            raise ScmFormatError(lineno, f"duplicate equation for {target!r}")
        try:
            expr = parse_expression(body)
        except ValueError as exc:
            raise ScmFormatError(lineno, f"bad expression: {exc}") from None
        equations[target] = StructuralEquation(target, level, expr)

    try:
        return Scm(graph, equations.values(), noise)
    except ValueError as exc:
        raise ScmFormatError(None, str(exc)) from None


def format_scm(m: Scm) -> str:
    """Canonical model text that reparses to an equal model."""
    lines = ["graph:"]
    graph_text = format_graph(m.graph)
    if graph_text:
        lines.extend(graph_text.rstrip("\n").split("\n"))
    lines.append("equations:")
    for target, eq in m.equations.items():
        if eq.level is ParametricTag.NOISE_MODEL:
            lines.append(f"{target} = {format_expression(eq.expr)} + U")
        elif eq.level is ParametricTag.FULLY_KNOWN:
            lines.append(f"{target} := {format_expression(eq.expr)}")
        else:
            raise ValueError(
                f"equation for {target!r} at level {eq.level.label} has no text form"
            )
    lines.append("noise:")
    for key, spec in m.noise.items():
        lines.append(f"{noise_symbol(key)} ~ {spec.format()}")
    return "\n".join(lines) + "\n"
