"""Pipeline checking, planning, and auditing over method cards.

A pipeline is an ordered list of card ids applied to a starting
knowledge state.  Validation folds the list: each stage must have its
requirement satisfied by the running state, which is then joined with
the stage's outcome.  The fold stops at the first violation and reports
which axis failed (structural first, then parametric, then temporal); a
payload clash during the join is reported as a pipeline inconsistency.

Planning searches the tag-level state space (payloads stripped, twelve
states per temporal flag) by breadth-first search and returns every
minimum-length card sequence that carries the start state to one
satisfying the goal: ``[[]]`` when the start already suffices, ``[]``
when no sequence does (or none short enough when a length cap is set).

Auditing classifies each card's declared before/after pair into none /
structural / parametric / both transitions, tallies the kinds, and lists
any relaxing cards (ones whose outcome drops below their requirement on
some axis).

Pipeline files are JSON arrays of card ids; a plain-text form (one id
per line, ``#`` comments) is accepted too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .lattice import (
    KnowledgeState,
    PayloadConflictError,
    Transition,
    TransitionKind,
    classify_transition,
    join_states,
    leq,
)
from .registry import Catalog, MethodCard


@dataclass(frozen=True)
class StageRecord:
    """One stage of a validation fold.

    ``before`` is the running state entering the stage, ``required`` the
    card's demand, ``after`` the joined state when the stage is
    satisfied (``None`` otherwise).
    """

    index: int
    card_id: str
    before: KnowledgeState
    required: KnowledgeState
    after: KnowledgeState | None
    satisfied: bool
    message: str = ""

    def to_mapping(self) -> dict:
        return {
            "index": self.index,
            "card": self.card_id,
            "before": self.before.triple,
            "required": self.required.triple,
            "after": self.after.triple if self.after is not None else None,
            "satisfied": self.satisfied,
            "message": self.message,
        }


@dataclass(frozen=True)
class ValidationReport:
    start: KnowledgeState
    stages: tuple[StageRecord, ...]
    final: KnowledgeState | None
    overall: bool
    failure_reason: str | None = None

    def to_mapping(self) -> dict:
        return {
            "start": self.start.triple,
            "overall": self.overall,
            "stages": [s.to_mapping() for s in self.stages],
            "final": self.final.triple if self.final is not None else None,
            "failure_reason": self.failure_reason,
        }


def _requirement_failure(state: KnowledgeState, card: MethodCard) -> str | None:
    """First unmet axis of the card's requirement, in fixed axis order."""
    req = card.a_priori
    if not leq(req.structural.tag, state.structural.tag):
        return (
            f"structural requirement {req.structural.tag.label} "
            f"exceeds held {state.structural.tag.label}"
        )
    if not leq(req.parametric.tag, state.parametric.tag):
        return (
            f"parametric requirement {req.parametric.tag.label} "
            f"exceeds held {state.parametric.tag.label}"
        )
    if req.temporal is not state.temporal:
        return (
            f"temporal mismatch: card works on {req.temporal.label} data, "
            f"state is {state.temporal.label}"
        )
    return None


def validate_pipeline(
    catalog: Catalog, pipeline: Sequence[str | MethodCard], start: KnowledgeState
) -> ValidationReport:
    """Fold the pipeline's cards over the start state.

    ``pipeline`` is a sequence of card ids resolved against the catalog
    (unknown ids raise); cards may also be passed directly.  The fold
    stops at the first violated stage.
    """
    cards = [
        entry if isinstance(entry, MethodCard) else catalog.card(entry)
        for entry in pipeline
    ]
    state = start
    stages: list[StageRecord] = []
    for index, card in enumerate(cards, start=1):
        problem = _requirement_failure(state, card)
        if problem is None:
            try:
                after = join_states(state, card.a_posteriori)
            except PayloadConflictError as exc:
                problem = f"pipeline inconsistency: {exc}"
        if problem is not None:
            stages.append(
                StageRecord(index, card.id, state, card.a_priori, None, False, problem)
            )
            return ValidationReport(
                start,
                tuple(stages),
                None,
                False,
                f"stage {index} ({card.id}): {problem}",
            )
        stages.append(
            StageRecord(index, card.id, state, card.a_priori, after, True)
        )
        state = after
    return ValidationReport(start, tuple(stages), state, True, None)


# ---------------------------------------------------------------------------
# Planning


def _tag_key(state: KnowledgeState) -> tuple:
    return (state.structural.tag, state.parametric.tag)


def plan_pipeline(
    catalog: Catalog,
    start: KnowledgeState,
    goal: KnowledgeState,
    max_len: int | None = None,
) -> list[list[str]]:
    """Every minimum-length card sequence from start to a goal-satisfying state.

    Search runs at tag level: payloads are ignored and states collapse to
    (structural tag, parametric tag) pairs under the start's temporal
    flag.  Cards on the other temporal flag never apply, so a goal on a
    different flag is simply unreachable.  Returns ``[[]]`` when the start
    already satisfies the goal, ``[]`` when nothing does — including when
    the shortest sequence would exceed ``max_len`` — and otherwise the
    full set of shortest plans sorted by their id sequences.  Relaxing
    cards take part like any other; auditing tells them apart.
    """
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


# ---------------------------------------------------------------------------
# Auditing


@dataclass(frozen=True)
class AuditReport:
    """Per-card transition classification plus kind tallies."""

    transitions: Mapping[str, Transition]
    counts: Mapping[TransitionKind, int]
    relaxing: tuple[str, ...]

    def to_mapping(self) -> dict:
        return {
            "transitions": {
                card_id: {
                    "from": t.from_state.triple,
                    "to": t.to_state.triple,
                    "kind": t.kind.label,
                    "relaxing": t.relaxing,
                }
                for card_id, t in self.transitions.items()
            },
            "counts": {kind.label: self.counts[kind] for kind in TransitionKind},
            "relaxing": list(self.relaxing),
        }


def audit_transitions(catalog: Catalog) -> AuditReport:
    """Classify every card's declared before/after pair, in id order."""
    transitions: dict[str, Transition] = {}
    for card in catalog.cards:
        transitions[card.id] = classify_transition(card.a_priori, card.a_posteriori)
    counts = {kind: 0 for kind in TransitionKind}
    for t in transitions.values():
        counts[t.kind] += 1
    relaxing = tuple(card_id for card_id, t in transitions.items() if t.relaxing)
    return AuditReport(transitions, counts, relaxing)


# ---------------------------------------------------------------------------
# Pipeline files


def parse_pipeline(text: str) -> list[str]:
    """Card ids from a pipeline file.

    The canonical form is a JSON array of id strings; a plain-text form
    with one id per line (``#`` comments, blank lines skipped) is also
    accepted.  Ids are returned as written — resolution against a
    catalog happens at validation time.
    """
    stripped = text.lstrip()
    if stripped.startswith("["):
        data = json.loads(text)
        if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
            raise ValueError("a pipeline file holds a JSON array of card ids")
        return list(data)
    ids = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            ids.append(line)
    return ids


def format_pipeline(ids: Sequence[str]) -> str:
    """Canonical pipeline file text: a JSON array of card ids."""
    return json.dumps(list(ids), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Text rendering (cosmetic; JSON is the stable machine form)


def _grid(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


def render_validation_text(report: ValidationReport) -> str:
    rows = [["stage", "card", "requires", "state after", "ok"]]
    rows.append(["start", "-", "-", report.start.triple, "-"])
    for stage in report.stages:
        rows.append(
            [
                str(stage.index),
                stage.card_id,
                stage.required.triple,
                stage.after.triple if stage.after is not None else "-",
                "yes" if stage.satisfied else "no",
            ]
        )
    out = _grid(rows)
    if report.overall:
        return f"{out}\nVALID: final state {report.final.triple}"
    return f"{out}\nINVALID: {report.failure_reason}"


def render_plans_text(plans: list[list[str]], relaxing: Sequence[str] = ()) -> str:
    """Plans one per line; steps using relaxing cards get a ``~`` marker."""
    if not plans:
        return "no plan found"
    marked = set(relaxing)
    lines = []
    for plan in plans:
        if not plan:
            lines.append("(already satisfied)")
        else:
            lines.append(
                " -> ".join(f"~{s}" if s in marked else s for s in plan)
            )
    return "\n".join(lines)


def render_audit_text(report: AuditReport) -> str:
    rows = [["card", "from", "to", "kind", "relaxing"]]
    for card_id, t in report.transitions.items():
        rows.append(
            [
                card_id,
                t.from_state.triple,
                t.to_state.triple,
                t.kind.label,
                "yes" if t.relaxing else "no",
            ]
        )
    counts = "  ".join(
        f"{kind.label}={report.counts[kind]}" for kind in TransitionKind
    )
    return f"{_grid(rows)}\ncounts: {counts}"


__all__ = [
    "AuditReport",
    "StageRecord",
    "ValidationReport",
    "audit_transitions",
    "format_pipeline",
    "parse_pipeline",
    "plan_pipeline",
    "render_audit_text",
    "render_plans_text",
    "render_validation_text",
    "validate_pipeline",
]
