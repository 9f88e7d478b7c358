"""Slow, obviously correct references for ``cdl_compass.scm`` and
``cdl_compass.datasets``.

``read_csv_rows`` cross-checks ``Dataset.from_csv``: ``csv.reader`` splits
every record and ``float`` converts every cell, one at a time.  Errors name
the record at fault, counting the header as record 1; a record ``csv``
cannot split raises ``ValueError`` naming it.

``factorization_mass`` cross-checks the mass check of ``Factorization``: it
evaluates every factor at every joint assignment with ``Factor.evaluate``,
one assignment at a time.

``sample_by_level`` and ``oracle_cate_by_level`` cross-check ``sample`` and
``oracle_cate``: each states the equation levels' rule itself, one branch
per level, and shares no code with ``scm._equation_value``.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from math import fsum

import numpy as np

from cdl_compass.expressions import EvaluationError, evaluate_expression, free_variables
from cdl_compass.lattice import ParametricTag
from cdl_compass.scm import Dataset, Factor, Scm, _substream, noise_symbol


def read_csv_rows(lines) -> Dataset:
    reader = csv.reader(lines)
    lineno = 0  # records read so far
    try:
        header = next(reader, None)
        lineno = 1
        if header is None:
            raise ValueError("empty CSV: missing header row")
        if len(set(header)) != len(header):
            raise ValueError("duplicate column names in CSV header")
        columns = [array("d") for _ in header]
        for row in reader:
            lineno += 1
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"row {lineno}: {len(row)} fields, expected {len(header)}"
                )
            for column, cell in zip(columns, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"row {lineno}: non-numeric value {cell!r}") from None
                if math.isnan(value):
                    raise ValueError(f"row {lineno}: NaN is not accepted")
                column.append(value)
    except csv.Error as exc:  # raised while splitting the record after ``lineno``
        raise ValueError(f"row {lineno + 1}: {exc}") from None
    return Dataset(dict(zip(header, columns)))


def factorization_mass(factors: list[Factor]) -> float:
    """The summed product of ``factors`` over the joint domain of their
    variables, which must all be finite: assignments in ``itertools.product``
    order over the sorted names, factors multiplied in the order given,
    summed with ``fsum``.  The first assignment at which a factor fails
    raises that factor's error."""
    domains = {}
    for f in factors:
        domains.update(f.domains)
    names = sorted(domains)
    return fsum(
        math.prod(f.evaluate(dict(zip(names, values))) for f in factors)
        for values in itertools.product(*(domains[v] for v in names))
    )


def _evaluate(target, eq, env):
    try:
        return evaluate_expression(eq.expr, env)
    except EvaluationError as exc:
        raise EvaluationError(f"equation for {target!r}: {exc}") from None


def sample_by_level(m: Scm, n: int, seed: int = 0) -> Dataset:
    """Ancestral sampling with one branch per equation level: a noise-model
    value is g(parents) plus its own noise draw, a fully-known value reads
    the parents and every noise symbol.  Each column is its own array."""
    for target, eq in m.equations.items():
        if eq.expr is None:
            raise ValueError(
                f"cannot sample: equation for {target!r} is at the {eq.level.label} level"
            )
    draws = {
        noise_symbol(key): spec.draw(_substream(seed, f"noise:{key}"), n)
        for key, spec in m.noise.items()
    }
    values = {}
    for node in m.graph.topological_order():
        eq = m.equations.get(node)
        if eq is None:
            values[node] = draws[noise_symbol(node)].copy()
        elif eq.level is ParametricTag.NOISE_MODEL:
            env = {p: values[p] for p in m.graph.parents(node)}
            values[node] = np.add(_evaluate(node, eq, env), draws[noise_symbol(node)])
        else:
            env = {p: values[p] for p in m.graph.parents(node)}
            env.update(draws)
            values[node] = np.broadcast_to(_evaluate(node, eq, env), (n,)).astype(float)
    return Dataset({name: values[name] for name in sorted(values)})


def oracle_cate_by_level(m: Scm, x, n_mc: int = 10000, seed: int = 0) -> float:
    """``E[Y1 - Y0 | X = x]`` with one branch per outcome level: a noise-model
    outcome reads its covariates, and any drawn noise symbol, and adds its
    own draw; a fully-known outcome reads the covariates and the symbols it
    names."""
    outcome = {}
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
    symbols = {noise_symbol(k): k for k in m.noise}
    needed_keys = set()
    for name, eq in outcome.items():
        refs = free_variables(eq.expr)
        covariates = refs - set(symbols)
        if eq.level is ParametricTag.NOISE_MODEL:
            needed_keys.add(name)
            covariates = refs
        else:
            needed_keys.update(symbols[s] for s in refs & set(symbols))
        missing = {v for v in covariates if v not in x and v not in symbols}
        if missing:
            raise ValueError(f"covariate assignment missing {sorted(missing)}")
    if needed_keys and n_mc < 1:
        raise ValueError(f"n_mc must be positive, got {n_mc}")
    draws = {
        noise_symbol(key): m.noise[key].draw(_substream(seed, f"noise:{key}"), n_mc)
        for key in sorted(needed_keys)
    }
    results = {}
    for name, eq in outcome.items():
        env = dict(x)
        env.update(draws)
        if eq.level is ParametricTag.NOISE_MODEL:
            results[name] = _evaluate(name, eq, env) + draws[noise_symbol(name)]
        else:
            results[name] = _evaluate(name, eq, env)
    return float(np.mean(results["Y1"] - results["Y0"]))
