"""Brute-force class-search oracle for cross-checking ``enumerate_mec``.

Filters every labeled DAG on the variables through ``consistent_with``: no
pair is pinned before the search, so nothing is inferred from the
constraints' shape.  Slow (exponential in the number of pairs) and
obviously correct.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from cdl_compass.graphs import (
    Dag,
    IndependenceSet,
    IndependenceStatement,
    consistent_with,
    enumerate_dags,
    implied_independencies,
)


def brute_force_mec(
    constraints: IndependenceSet,
    variables: Iterable[str],
    dags: Sequence[Dag] | None = None,
) -> list[Dag]:
    """Every DAG on ``variables`` that agrees with the constraints, sorted by
    edge list.  ``dags`` may pass ``list(enumerate_dags(variables))`` in, so
    that several calls share one enumeration.
    """
    if dags is None:
        dags = list(enumerate_dags(variables))
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
