"""Brute-force enumeration and class-search oracles for cross-checking
``enumerate_dags`` and ``enumerate_mec``.

``every_dag`` builds one ``Dag.of`` per assignment of the three pair states
and keeps the acyclic ones, so it shares no code with the search.
``brute_force_mec`` filters those DAGs through ``consistent_with``: no pair
is pinned before the search, so nothing is inferred from the constraints'
shape.  Slow (exponential in the number of pairs) and obviously correct.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from cdl_compass.graphs import (
    CycleError,
    Dag,
    IndependenceSet,
    IndependenceStatement,
    consistent_with,
    implied_independencies,
)


@functools.lru_cache(maxsize=None)
def every_dag(names: tuple[str, ...]) -> tuple[Dag, ...]:
    """Every labeled DAG on ``names``: each pair takes no edge, forward or
    backward, and an assignment whose edges close a cycle is skipped.
    Cached, since five variables take 3^10 assignments."""
    pairs = list(itertools.combinations(names, 2))
    out = []
    for states in itertools.product((None, False, True), repeat=len(pairs)):
        chosen = [(pair, back) for pair, back in zip(pairs, states) if back is not None]
        edges = [(b, a) if back else (a, b) for (a, b), back in chosen]
        try:
            out.append(Dag.of(edges, names))
        except CycleError:
            continue
    return tuple(out)


def brute_force_mec(
    constraints: IndependenceSet,
    variables: Iterable[str],
    dags: Sequence[Dag] | None = None,
) -> list[Dag]:
    """Every DAG on ``variables`` that agrees with the constraints, sorted by
    edge list.  ``dags`` may pass another enumeration of the same DAGs in.
    """
    if dags is None:
        dags = every_dag(tuple(sorted(set(variables))))
    members = [g for g in dags if consistent_with(g, constraints)]
    members.sort(key=lambda g: tuple(sorted(g.edges)))
    return members


def full_signature(g: Dag) -> IndependenceSet:
    """Every pair and every conditioning subset, negated where ``g`` does
    not imply the independence."""
    held = implied_independencies(g).statements
    names = sorted(g.nodes)
    out = []
    for x, y in itertools.combinations(names, 2):
        rest = [v for v in names if v not in (x, y)]
        for size in range(len(rest) + 1):
            for z in itertools.combinations(rest, size):
                s = IndependenceStatement(x, y, frozenset(z))
                out.append(s if s in held else IndependenceStatement(x, y, frozenset(z), False))
    return IndependenceSet.of(out)
