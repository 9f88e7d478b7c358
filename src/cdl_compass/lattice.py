"""Ordered knowledge levels and the states staged analyses move between.

A knowledge state records how much is known about a data-generating system
along two independently ordered scales plus a temporal flag:

* structural scale: ``unknown < plausible < causal`` — from no graph
  knowledge, through an independence-constrained candidate set, to a single
  directed acyclic graph;
* parametric scale: ``nonparametric < noise_model < parametric <
  fully_known`` — from nothing, through an additive-noise form, a known
  function class, to explicit generating equations;
* temporal flag: ``static`` or ``temporal``, compared for exact equality
  only.  There is no coercion between regimes: a temporal state never
  stands in for a static requirement or vice versa.

The comparison rule between whole states is *relaxation*: knowledge you
possess satisfies a requirement exactly when it is at least as strong on
both scales and matches the temporal regime.  Stronger knowledge can always
be relaxed down to a weaker requirement; the reverse is never allowed.

Levels may optionally carry a payload (the actual independence set, PDAG,
graph, or equation reference backing the tag).  Payloads are compared only
for identity at equal tags; there is no notion of one payload refining
another.

Each level also has a testability tier: whether a claim at that level
needs no empirical support, admits some, or asserts more than
observational data can confirm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class PayloadConflictError(ValueError):
    """Two states at the same tag carry different payloads; no merge rule exists."""


class _OrderedTag(enum.Enum):
    """Enum base whose members order within their own class only.

    Comparing tags from different scales is a type error, not ``False``:
    the scales are independent axes and cross-scale order has no meaning.
    """

    def __lt__(self, other: object) -> bool:
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self.value < other.value

    def __le__(self, other: object) -> bool:
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self.value <= other.value

    def __gt__(self, other: object) -> bool:
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self.value > other.value

    def __ge__(self, other: object) -> bool:
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self.value >= other.value

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "_OrderedTag":
        for member in cls:
            if member.label == label:
                return member
        raise ValueError(
            f"unknown {cls.__name__} label {label!r}; "
            f"expected one of {', '.join(m.label for m in cls)}"
        )


class StructuralTag(_OrderedTag):
    UNKNOWN = 0
    PLAUSIBLE = 1
    CAUSAL = 2


class ParametricTag(_OrderedTag):
    NONPARAMETRIC = 0
    NOISE_MODEL = 1
    PARAMETRIC = 2
    FULLY_KNOWN = 3


class TemporalFlag(enum.Enum):
    """Static vs temporal regime.  Unordered; compared for equality only."""

    STATIC = "static"
    TEMPORAL = "temporal"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "TemporalFlag":
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(
            f"unknown TemporalFlag label {label!r}; expected 'static' or 'temporal'"
        )


def leq(a: _OrderedTag, b: _OrderedTag) -> bool:
    """Partial order on a single scale.

    Defined only for two tags of the same ordered scale (both structural or
    both parametric); anything else, including temporal flags, raises
    ``TypeError``.
    """
    if not isinstance(a, (StructuralTag, ParametricTag)):
        raise TypeError(f"leq is defined on ordered scale tags, not {type(a).__name__}")
    if type(a) is not type(b):
        raise TypeError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}: "
            "the structural and parametric scales are independent"
        )
    return a.value <= b.value


def _validate_structural_payload(tag: StructuralTag, payload: Any) -> None:
    if payload is None:
        return
    # Deferred import: graphs does not depend on this module, so the cycle is safe.
    from . import graphs

    if tag is StructuralTag.UNKNOWN:
        raise ValueError("an unknown structural level carries no payload")
    if tag is StructuralTag.PLAUSIBLE:
        if isinstance(payload, graphs.IndependenceSet):
            if not payload.statements:
                raise ValueError(
                    "a plausible structural level needs a nonempty independence set"
                )
            return
        if isinstance(payload, graphs.Pdag):
            return
        raise ValueError(
            "plausible payload must be an IndependenceSet or a Pdag, "
            f"not {type(payload).__name__}"
        )
    # CAUSAL: acyclicity is enforced by the Dag type itself.
    if not isinstance(payload, graphs.Dag):
        raise ValueError(
            f"causal payload must be a Dag, not {type(payload).__name__}"
        )


@dataclass(frozen=True)
class StructuralLevel:
    """A structural tag plus the optional object backing it.

    Tag-only levels (payload ``None``) are the common case, e.g. in method
    cards that describe a class of inputs rather than one concrete graph.
    """

    tag: StructuralTag
    payload: Any = None

    def __post_init__(self) -> None:
        _validate_structural_payload(self.tag, self.payload)


@dataclass(frozen=True)
class ParametricLevel:
    """A parametric tag plus an optional descriptor.

    The payload is a noise-form descriptor for ``noise_model``, a function
    class descriptor for ``parametric``, or an equation-set reference for
    ``fully_known``.  ``nonparametric`` carries none.
    """

    tag: ParametricTag
    payload: Any = None

    def __post_init__(self) -> None:
        if self.tag is ParametricTag.NONPARAMETRIC and self.payload is not None:
            raise ValueError("a nonparametric level carries no payload")


@dataclass(frozen=True)
class KnowledgeState:
    """Position on the (structural, parametric, temporal) knowledge lattice."""

    structural: StructuralLevel
    parametric: ParametricLevel
    temporal: TemporalFlag

    @property
    def triple(self) -> str:
        """Colon-joined tag form, e.g. ``"causal:noise_model:static"``."""
        return ":".join(
            (self.structural.tag.label, self.parametric.tag.label, self.temporal.label)
        )

    @classmethod
    def from_triple(cls, text: str) -> "KnowledgeState":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad knowledge-state triple {text!r}; "
                "expected '<structural>:<parametric>:<temporal>'"
            )
        return knowledge_state(parts[0], parts[1], parts[2])

    def to_mapping(self) -> dict[str, str]:
        return {
            "structural": self.structural.tag.label,
            "parametric": self.parametric.tag.label,
            "temporal": self.temporal.label,
        }

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "KnowledgeState":
        extra = set(mapping) - {"structural", "parametric", "temporal"}
        if extra:
            raise ValueError(f"unknown knowledge-state fields: {sorted(extra)}")
        for key in ("structural", "parametric", "temporal"):
            if key not in mapping:
                raise ValueError(f"knowledge state missing field {key!r}")
        return knowledge_state(
            mapping["structural"], mapping["parametric"], mapping["temporal"]
        )


def knowledge_state(
    structural: StructuralTag | str,
    parametric: ParametricTag | str,
    temporal: TemporalFlag | str,
    *,
    structural_payload: Any = None,
    parametric_payload: Any = None,
) -> KnowledgeState:
    """Build a state from tags or their lowercase labels."""
    if isinstance(structural, str):
        structural = StructuralTag.from_label(structural)
    if isinstance(parametric, str):
        parametric = ParametricTag.from_label(parametric)
    if isinstance(temporal, str):
        temporal = TemporalFlag.from_label(temporal)
    return KnowledgeState(
        StructuralLevel(structural, structural_payload),
        ParametricLevel(parametric, parametric_payload),
        temporal,
    )


def satisfies(possessed: KnowledgeState, required: KnowledgeState) -> bool:
    """Relaxation rule: possessed knowledge covers the requirement.

    True iff possessed is at least as strong on both ordered scales and the
    temporal regimes match exactly.  Payloads are not compared here; they
    only matter when two states are merged.
    """
    return (
        leq(required.structural.tag, possessed.structural.tag)
        and leq(required.parametric.tag, possessed.parametric.tag)
        and possessed.temporal is required.temporal
    )


def _join_level(a, b, level_cls):
    if a.tag is not b.tag:
        return a if leq(b.tag, a.tag) else b
    if a.payload is None:
        return b
    if b.payload is None or a.payload == b.payload:
        return a
    raise PayloadConflictError(
        f"conflicting payloads at equal {type(a.tag).__name__} "
        f"{a.tag.label!r}: no merge rule exists"
    )


def join_states(a: KnowledgeState, b: KnowledgeState) -> KnowledgeState:
    """Least upper bound of two states in the same temporal regime.

    Componentwise maximum of the tags.  The payload of the strictly higher
    tag wins; at equal tags a payload merges with ``None`` but two distinct
    payloads raise :class:`PayloadConflictError` — there is no rule for
    merging conflicting graphs or equation sets.
    """
    if a.temporal is not b.temporal:
        raise ValueError(
            f"cannot join states across temporal regimes "
            f"({a.temporal.label} vs {b.temporal.label})"
        )
    return KnowledgeState(
        _join_level(a.structural, b.structural, StructuralLevel),
        _join_level(a.parametric, b.parametric, ParametricLevel),
        a.temporal,
    )


class TransitionKind(enum.Enum):
    NONE = "none"
    STRUCTURAL = "structural"
    PARAMETRIC = "parametric"
    BOTH = "both"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class Transition:
    """A classified change between two knowledge states.

    ``relaxing`` is set when the transition strictly lowers either scale —
    legal, but worth surfacing, since it discards knowledge.
    """

    from_state: KnowledgeState
    to_state: KnowledgeState
    kind: TransitionKind
    relaxing: bool


def classify_transition(before: KnowledgeState, after: KnowledgeState) -> Transition:
    """Classify the tag deltas between two states.

    The kind tracks the two ordered scales only: structural if the
    structural tag changed, parametric if the parametric tag changed, both
    or none accordingly.  The temporal flag does not participate (method
    cards never change regime; see the registry invariants).
    """
    s_changed = before.structural.tag is not after.structural.tag
    p_changed = before.parametric.tag is not after.parametric.tag
    if s_changed and p_changed:
        kind = TransitionKind.BOTH
    elif s_changed:
        kind = TransitionKind.STRUCTURAL
    elif p_changed:
        kind = TransitionKind.PARAMETRIC
    else:
        kind = TransitionKind.NONE
    relaxing = (after.structural.tag < before.structural.tag) or (
        after.parametric.tag < before.parametric.tag
    )
    return Transition(before, after, kind, relaxing)


def all_tag_states(temporal: TemporalFlag | None = None) -> list[KnowledgeState]:
    """Every payload-free state, optionally restricted to one regime.

    Enumeration order is deterministic: structural, then parametric, then
    temporal, each in scale order.
    """
    flags = [temporal] if temporal is not None else list(TemporalFlag)
    return [
        KnowledgeState(StructuralLevel(s), ParametricLevel(p), t)
        for s in StructuralTag
        for p in ParametricTag
        for t in flags
    ]


class TestabilityTier(enum.Enum):
    NO_TESTS_NEEDED = "no_tests_needed"
    TESTABLE = "testable"
    UNTESTABLE = "untestable"

    @property
    def label(self) -> str:
        return self.value


_STRUCTURAL_TIERS = {
    StructuralTag.UNKNOWN: TestabilityTier.NO_TESTS_NEEDED,
    StructuralTag.PLAUSIBLE: TestabilityTier.TESTABLE,
    StructuralTag.CAUSAL: TestabilityTier.UNTESTABLE,
}

_PARAMETRIC_TIERS = {
    ParametricTag.NONPARAMETRIC: TestabilityTier.NO_TESTS_NEEDED,
    ParametricTag.NOISE_MODEL: TestabilityTier.TESTABLE,
    ParametricTag.PARAMETRIC: TestabilityTier.TESTABLE,
    ParametricTag.FULLY_KNOWN: TestabilityTier.UNTESTABLE,
}


def testability_tier(tag: StructuralTag | ParametricTag) -> TestabilityTier:
    """How much empirical support a claimed knowledge level admits.

    Bottom levels claim nothing and need no tests; mid levels carry
    falsifiable implications (independence constraints, noise shape,
    functional form); top levels assert more than observational data can
    confirm.
    """
    if isinstance(tag, StructuralTag):
        return _STRUCTURAL_TIERS[tag]
    if isinstance(tag, ParametricTag):
        return _PARAMETRIC_TIERS[tag]
    raise TypeError(f"expected a structural or parametric tag, got {tag!r}")
