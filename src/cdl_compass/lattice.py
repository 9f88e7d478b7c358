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
import functools
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


class PayloadConflictError(ValueError):
    """Two states at the same tag carry different payloads; no merge rule exists."""


class _Labelled(enum.Enum):
    """Enum base whose members are named, and read back, by their lowercase name."""

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "_Labelled":
        for member in cls:
            if member.label == label:
                return member
        raise ValueError(
            f"unknown {cls.__name__} label {label!r}; "
            f"expected one of {', '.join(m.label for m in cls)}"
        )

    @classmethod
    def of(cls, value: "_Labelled | str") -> "_Labelled":
        """``value`` itself if it is a member, else the member its label names."""
        return value if isinstance(value, cls) else cls.from_label(value)


@functools.total_ordering
class _OrderedTag(_Labelled):
    """Enum base whose members order within their own class only.

    Comparing tags from different scales is a type error, not ``False``:
    the scales are independent axes and cross-scale order has no meaning.
    """

    def __lt__(self, other: object) -> bool:
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self.value < other.value


class StructuralTag(_OrderedTag):
    UNKNOWN = 0
    PLAUSIBLE = 1
    CAUSAL = 2


class ParametricTag(_OrderedTag):
    NONPARAMETRIC = 0
    NOISE_MODEL = 1
    PARAMETRIC = 2
    FULLY_KNOWN = 3


class TemporalFlag(_Labelled):
    """Static vs temporal regime.  Unordered; compared for equality only."""

    STATIC = "static"
    TEMPORAL = "temporal"


def leq(a: _OrderedTag, b: _OrderedTag) -> bool:
    """Partial order on a single scale: ``a <= b`` for two structural or two
    parametric tags.  Tags of different scales, and temporal flags, raise
    ``TypeError``: the scales are independent axes."""
    return a <= b


def _read_json(text: str | bytes, noun: str) -> Any:
    """``text`` parsed as JSON; text nested past the interpreter's recursion
    limit is refused by a ``ValueError`` naming ``noun``, not a traceback."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"a {noun} nests too deeply") from None


def _json_object(data: Any, noun: str, keys: Iterable[str], optional: Iterable[str] = ()) -> None:
    """Refuse ``data`` unless it is a JSON object of all ``keys``, any ``optional``, no other;
    its values are left to the types they build, which check them."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a {noun} is a JSON object, not {type(data).__name__}")
    if extra := set(data) - set(keys) - set(optional):
        raise ValueError(f"unknown {noun} keys {sorted(extra)}")
    if missing := set(keys) - set(data):
        raise ValueError(f"{noun} is missing keys {sorted(missing)}")


def _check_type(value: Any, kind: type, name: str) -> None:
    """Refuse ``value`` with a ``TypeError`` naming ``name`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")


def _real(value: Any, name: str) -> float:
    """``value`` as a Python float if it is a real number, not a bool, that a float holds
    (numpy scalars included), else a ``ValueError`` naming ``name``.  Every value type
    reads its numbers by this rule, and then states its own range."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _count(value: Any, name: str, kind: str = "an integer") -> int:
    """``value`` as a Python int if it is an integer, not a bool (numpy integers
    included), else a ``ValueError``: ``<name> must be <kind>, got <value>``.
    Every count and seed is read by this rule, and then states its own range."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _validate_structural_payload(tag: StructuralTag, payload: Any) -> None:
    if payload is None:
        return
    # Deferred import: graphs imports this module only inside ``unroll``, so the cycle is safe.
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
        _check_type(self.tag, StructuralTag, "tag")
        _validate_structural_payload(self.tag, self.payload)


@dataclass(frozen=True)
class ParametricLevel:
    """A parametric tag plus an optional descriptor.

    The payload is a noise-form descriptor for ``noise_model``, a function
    class descriptor for ``parametric``, or an equation-set reference for
    ``fully_known``.  ``nonparametric`` carries none.  A payload must be
    hashable, since the planner hashes states with their payloads.
    """

    tag: ParametricTag
    payload: Any = None

    def __post_init__(self) -> None:
        _check_type(self.tag, ParametricTag, "tag")
        if self.tag is ParametricTag.NONPARAMETRIC and self.payload is not None:
            raise ValueError("a nonparametric level carries no payload")
        try:
            hash(self.payload)
        except TypeError:
            kind = type(self.payload).__name__
            raise ValueError(f"a parametric payload must be hashable, not {kind}") from None


@dataclass(frozen=True)
class KnowledgeState:
    """Position on the (structural, parametric, temporal) knowledge lattice."""

    structural: StructuralLevel
    parametric: ParametricLevel
    temporal: TemporalFlag

    def __post_init__(self) -> None:
        _check_type(self.structural, StructuralLevel, "structural")
        _check_type(self.parametric, ParametricLevel, "parametric")
        _check_type(self.temporal, TemporalFlag, "temporal")

    @property
    def triple(self) -> str:
        """Colon-joined tag form, e.g. ``"causal:noise_model:static"``."""
        return ":".join(self.to_mapping().values())

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
    def from_mapping(cls, mapping: Mapping[str, str]) -> "KnowledgeState":
        _json_object(mapping, "knowledge state", ("structural", "parametric", "temporal"))
        return knowledge_state(**mapping)


def knowledge_state(
    structural: StructuralTag | str,
    parametric: ParametricTag | str,
    temporal: TemporalFlag | str,
    *,
    structural_payload: Any = None,
    parametric_payload: Any = None,
) -> KnowledgeState:
    """Build a state from tags or their lowercase labels; reject anything else."""
    return KnowledgeState(
        StructuralLevel(StructuralTag.of(structural), structural_payload),
        ParametricLevel(ParametricTag.of(parametric), parametric_payload),
        TemporalFlag.of(temporal),
    )


def _shortfall(possessed: KnowledgeState, required: KnowledgeState) -> str | None:
    """The first axis on which possessed falls short of required, or ``None``.

    Axes are checked in fixed order: ``"structural"``, ``"parametric"``,
    then ``"temporal"``.
    """
    if not leq(required.structural.tag, possessed.structural.tag):
        return "structural"
    if not leq(required.parametric.tag, possessed.parametric.tag):
        return "parametric"
    if possessed.temporal is not required.temporal:
        return "temporal"
    return None


def satisfies(possessed: KnowledgeState, required: KnowledgeState) -> bool:
    """Relaxation rule: possessed knowledge covers the requirement.

    True iff possessed is at least as strong on both ordered scales and the
    temporal regimes match exactly.  Payloads are not compared here; they
    only matter when two states are merged.
    """
    return _shortfall(possessed, required) is None


def _join_level(a, b):
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
        _join_level(a.structural, b.structural),
        _join_level(a.parametric, b.parametric),
        a.temporal,
    )


class TransitionKind(_Labelled):
    NONE = "none"
    STRUCTURAL = "structural"
    PARAMETRIC = "parametric"
    BOTH = "both"


@dataclass(frozen=True)
class Transition:
    """A change between two knowledge states, classified from its ends.

    ``kind`` tracks the two ordered scales only: structural if the
    structural tag changed, parametric if the parametric tag changed, both
    or none accordingly.  The temporal flag does not participate (method
    cards never change regime; see the registry invariants).  ``relaxing``
    is set when the transition strictly lowers either scale — legal, but
    worth surfacing, since it discards knowledge.
    """

    from_state: KnowledgeState
    to_state: KnowledgeState

    @property
    def kind(self) -> TransitionKind:
        s_changed = self.from_state.structural.tag is not self.to_state.structural.tag
        p_changed = self.from_state.parametric.tag is not self.to_state.parametric.tag
        if s_changed and p_changed:
            return TransitionKind.BOTH
        if s_changed:
            return TransitionKind.STRUCTURAL
        if p_changed:
            return TransitionKind.PARAMETRIC
        return TransitionKind.NONE

    @property
    def relaxing(self) -> bool:
        return _shortfall(self.to_state, self.from_state) in ("structural", "parametric")


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


class TestabilityTier(_Labelled):
    NO_TESTS_NEEDED = "no_tests_needed"
    TESTABLE = "testable"
    UNTESTABLE = "untestable"


# Every tag of the two ordered scales with its tier, and the same tags by
# label (the two scales share no label).
_TIERS = {
    StructuralTag.UNKNOWN: TestabilityTier.NO_TESTS_NEEDED,
    StructuralTag.PLAUSIBLE: TestabilityTier.TESTABLE,
    StructuralTag.CAUSAL: TestabilityTier.UNTESTABLE,
    ParametricTag.NONPARAMETRIC: TestabilityTier.NO_TESTS_NEEDED,
    ParametricTag.NOISE_MODEL: TestabilityTier.TESTABLE,
    ParametricTag.PARAMETRIC: TestabilityTier.TESTABLE,
    ParametricTag.FULLY_KNOWN: TestabilityTier.UNTESTABLE,
}
_ORDERED_TAGS = {tag.label: tag for tag in _TIERS}


def testability_tier(tag: StructuralTag | ParametricTag) -> TestabilityTier:
    """How much empirical support a claimed knowledge level admits.

    Bottom levels claim nothing and need no tests; mid levels carry
    falsifiable implications (independence constraints, noise shape,
    functional form); top levels assert more than observational data can
    confirm.
    """
    if tag not in _TIERS:
        raise TypeError(f"expected a structural or parametric tag, got {tag!r}")
    return _TIERS[tag]
