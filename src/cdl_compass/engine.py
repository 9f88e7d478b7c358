"""Pipeline checking, planning, and auditing over method cards.

A pipeline is an ordered list of card ids applied to a starting
knowledge state.  Validation folds the list: each stage must have its
requirement satisfied by the running state, which is then joined with
the stage's outcome.  The fold stops at the first violation and reports
which axis failed (structural first, then parametric, then temporal); a
payload clash during the join is reported as a pipeline inconsistency.

Planning searches breadth-first with the fold's own step, payloads kept,
and returns every minimum-length card sequence that carries the start
state to one satisfying the goal, so every plan validates: ``[[]]`` when
the start already suffices, ``[]`` when no sequence does (or none short
enough when a length cap is set).

Auditing classifies each card's declared before/after pair into none /
structural / parametric / both transitions, tallies the kinds, and lists
any relaxing cards (ones whose outcome drops below their requirement on
some axis).

Pipeline files are JSON arrays of card ids; a plain-text form (one id
per line, ``#`` comments) is accepted too.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .lattice import (
    KnowledgeState,
    PayloadConflictError,
    Transition,
    TransitionKind,
    _shortfall,
    join_states,
    satisfies,
)
from .registry import Catalog, MethodCard


@dataclass(frozen=True)
class StageRecord:
    """One stage of a validation fold.

    ``before`` is the running state entering the stage, ``required`` the
    card's demand, ``after`` the joined state when the stage is
    satisfied (``None`` otherwise, with ``message`` saying why).
    """

    index: int
    card_id: str
    before: KnowledgeState
    required: KnowledgeState
    after: KnowledgeState | None
    message: str = ""

    @property
    def satisfied(self) -> bool:
        return self.after is not None

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
    """A fold's stages; the verdict, final state and failure reason follow from them."""

    start: KnowledgeState
    stages: tuple[StageRecord, ...]

    @property
    def overall(self) -> bool:
        return all(stage.satisfied for stage in self.stages)

    @property
    def final(self) -> KnowledgeState | None:
        if not self.overall:
            return None
        return self.stages[-1].after if self.stages else self.start

    @property
    def failure_reason(self) -> str | None:
        for stage in self.stages:
            if not stage.satisfied:
                return f"stage {stage.index} ({stage.card_id}): {stage.message}"
        return None

    def to_mapping(self) -> dict:
        return {
            "start": self.start.triple,
            "overall": self.overall,
            "stages": [s.to_mapping() for s in self.stages],
            "final": self.final.triple if self.final is not None else None,
            "failure_reason": self.failure_reason,
        }


def _step(
    state: KnowledgeState, card: MethodCard
) -> tuple[KnowledgeState | None, str | PayloadConflictError | None]:
    """Apply one card: the next state, or ``None`` and why not: the first
    unmet axis of the card's requirement, or the join's payload clash."""
    axis = _shortfall(state, card.a_priori)
    if axis is not None:
        return None, axis
    try:
        return join_states(state, card.a_posteriori), None
    except PayloadConflictError as exc:
        return None, exc


def _failure_message(
    state: KnowledgeState, req: KnowledgeState, why: str | PayloadConflictError
) -> str:
    """The message for a card requiring ``req`` that :func:`_step` did not apply."""
    if isinstance(why, PayloadConflictError):
        return f"pipeline inconsistency: {why}"
    if why == "temporal":
        return (
            f"temporal mismatch: card works on {req.temporal.label} data, "
            f"state is {state.temporal.label}"
        )
    return (
        f"{why} requirement {getattr(req, why).tag.label} "
        f"exceeds held {getattr(state, why).tag.label}"
    )


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
        after, why = _step(state, card)
        problem = "" if why is None else _failure_message(state, card.a_priori, why)
        stages.append(StageRecord(index, card.id, state, card.a_priori, after, problem))
        if after is None:
            break
        state = after
    return ValidationReport(start, tuple(stages))


# ---------------------------------------------------------------------------
# Planning


def plan_pipeline(
    catalog: Catalog,
    start: KnowledgeState,
    goal: KnowledgeState,
    max_len: int | None = None,
) -> list[list[str]]:
    """Every minimum-length card sequence from start to a goal-satisfying state.

    Search runs breadth-first from ``start`` with the step that
    :func:`validate_pipeline` folds, so every returned plan validates.
    Payloads are kept: a card whose outcome payload conflicts with the
    running state's at an equal tag does not apply, and states are hashed
    with their payloads, which must therefore be hashable.  The goal is met
    on tags alone.  Cards on the other temporal flag never apply, so a goal
    on a different flag is simply unreachable.  Returns ``[[]]`` when the
    start already satisfies the goal, ``[]`` when nothing does — including
    when the shortest sequence would exceed ``max_len`` — and otherwise the
    full set of shortest plans sorted by their id sequences.  Relaxing cards
    take part like any other; auditing tells them apart.
    """
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    # Each state of the newest layer maps to every shortest sequence reaching it.
    layer = {start: [()]}
    seen = set(layer)
    for depth in itertools.count():
        plans = sorted(
            path for state, paths in layer.items() if satisfies(state, goal) for path in paths
        )
        if plans or not layer or depth == max_len:
            return [list(path) for path in plans]
        grown: dict[KnowledgeState, list[tuple[str, ...]]] = {}
        for state, paths in layer.items():
            for card in catalog.cards:
                nxt, _ = _step(state, card)
                if nxt is not None and nxt not in seen:
                    grown.setdefault(nxt, []).extend(path + (card.id,) for path in paths)
        seen.update(grown)
        layer = grown


# ---------------------------------------------------------------------------
# Auditing


@dataclass(frozen=True)
class AuditReport:
    """Per-card transitions; the kind tallies and relaxing ids follow from them."""

    transitions: Mapping[str, Transition]

    @property
    def counts(self) -> dict[TransitionKind, int]:
        counts = {kind: 0 for kind in TransitionKind}
        for t in self.transitions.values():
            counts[t.kind] += 1
        return counts

    @property
    def relaxing(self) -> tuple[str, ...]:
        return tuple(card_id for card_id, t in self.transitions.items() if t.relaxing)

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
            "counts": {kind.label: n for kind, n in self.counts.items()},
            "relaxing": list(self.relaxing),
        }


def audit_transitions(catalog: Catalog) -> AuditReport:
    """Classify every card's declared before/after pair, in id order."""
    return AuditReport({c.id: Transition(c.a_priori, c.a_posteriori) for c in catalog.cards})


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
    counts = "  ".join(f"{kind.label}={n}" for kind, n in report.counts.items())
    return f"{_grid(rows)}\ncounts: {counts}"
