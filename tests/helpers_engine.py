"""Planner oracles for cross-checking ``engine.plan_pipeline``.

``reference_plan_pipeline`` is the earlier tag-only planner: it collapses
each state to a ``(structural tag, parametric tag)`` pair, compares pairs
with ``<=`` and joins them with ``max`` directly, records every
shortest-distance predecessor of each pair, and unwinds those predecessors
recursively once a goal-satisfying layer is reached.  It ignores payloads,
so it speaks for the program only on payload-free catalogs and starts.

``brute_force_plans`` keeps payloads: it folds every card-id sequence in
order of length with ``satisfies`` and ``join_states``, treats a
``PayloadConflictError`` as a dead end, and returns the shortest sequences
that reach the goal.  It merges no sequences that reach the same state, and
shares no code with the engine's step, which the program's breadth-first
search and ``validate_pipeline`` both run.
"""

from __future__ import annotations

from cdl_compass.lattice import (
    KnowledgeState,
    PayloadConflictError,
    join_states,
    satisfies,
)
from cdl_compass.registry import Catalog


def _apply(state: KnowledgeState, card) -> KnowledgeState | None:
    if not satisfies(state, card.a_priori):
        return None
    try:
        return join_states(state, card.a_posteriori)
    except PayloadConflictError:
        return None


def brute_force_plans(
    catalog: Catalog,
    start: KnowledgeState,
    goal: KnowledgeState,
    max_len: int | None = None,
) -> list[list[str]]:
    """Every shortest id sequence whose fold from start satisfies the goal.

    Sequences grow one card at a time, each keeping its own folded state, so
    every live sequence of each length is tried.  Without a cap they run up
    to the catalog's size: a card applied a second time joins an outcome the
    state already holds, so a shortest plan never repeats one.
    """
    longest = len(catalog.cards) if max_len is None else max_len
    reached: list[tuple[tuple[str, ...], KnowledgeState]] = [((), start)]
    for _ in range(longest + 1):
        plans = sorted(list(ids) for ids, state in reached if satisfies(state, goal))
        if plans:
            return plans
        reached = [
            (ids + (card.id,), after)
            for ids, state in reached
            for card in catalog.cards
            if (after := _apply(state, card)) is not None
        ]
    return []


def _tag_key(state: KnowledgeState) -> tuple:
    return (state.structural.tag, state.parametric.tag)


def reference_plan_pipeline(
    catalog: Catalog,
    start: KnowledgeState,
    goal: KnowledgeState,
    max_len: int | None = None,
) -> list[list[str]]:
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    if start.temporal is not goal.temporal:
        return []
    goal_key = _tag_key(goal)

    def satisfied(key: tuple) -> bool:
        return goal_key[0] <= key[0] and goal_key[1] <= key[1]

    start_key = _tag_key(start)
    if satisfied(start_key):
        return [[]]
    usable = [c for c in catalog.cards if c.temporal is start.temporal]

    dist = {start_key: 0}
    preds: dict[tuple, set[tuple]] = {}
    frontier = [start_key]
    found = None
    depth = 0
    while frontier and found is None:
        depth += 1
        if max_len is not None and depth > max_len:
            break
        grown: list[tuple] = []
        for key in frontier:
            for card in usable:
                req = _tag_key(card.a_priori)
                if not (req[0] <= key[0] and req[1] <= key[1]):
                    continue
                out = _tag_key(card.a_posteriori)
                nxt = (max(key[0], out[0]), max(key[1], out[1]))
                if nxt not in dist:
                    dist[nxt] = depth
                    preds[nxt] = set()
                    grown.append(nxt)
                if dist[nxt] == depth:
                    preds[nxt].add((key, card.id))
        frontier = grown
        if any(satisfied(key) for key in grown):
            found = depth
    if found is None:
        return []

    def unwind(key: tuple) -> list[tuple[str, ...]]:
        if dist[key] == 0:
            return [()]
        out: list[tuple[str, ...]] = []
        for prev, card_id in sorted(preds[key]):
            out.extend(path + (card_id,) for path in unwind(prev))
        return out

    targets = [key for key, d in dist.items() if d == found and satisfied(key)]
    plans = sorted(path for key in targets for path in unwind(key))
    return [list(path) for path in plans]
