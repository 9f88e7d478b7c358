"""Method cards: what a method needs to run and what it leaves you knowing.

A card describes one analysis method by two knowledge states: ``a_priori``
is the least knowledge required before the method applies, ``a_posteriori``
is the knowledge you hold after it succeeds (under its assumptions).  Both
share one temporal flag; a method either works on static data or on time
series, never both under one id.  Assumption tags are free-form slugs used
for filtering and cross-referencing.

A catalog is an id-sorted collection of cards.  The on-disk form is a JSON
array of card objects with a fixed key set; the packaged default catalog
covers sixteen standard discovery and estimation methods.  Cards built in
code may attach payloads (a concrete graph, say) to their states; the JSON
form is tag-only and refuses payload-bearing cards.  ``MethodCard`` checks
its own fields, so a card built in code and one read from JSON are refused
alike (``card field 'name' must be a string``); the reader adds the key rule.

Querying filters by temporal flag, by a lower bound on what the method
delivers, by an upper bound on what it demands, and by assumption tag;
results always come back in id order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping

from .lattice import KnowledgeState, TemporalFlag, _check_type, _json_object, satisfies

_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")
_TAG_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_CITATION_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

_CARD_KEYS = (
    "id",
    "name",
    "citation_key",
    "a_priori",
    "a_posteriori",
    "assumption_tags",
    "notes",
)


class UnknownCardError(ValueError):
    """Lookup of a card id the catalog does not contain."""

    def __init__(self, card_id: str):
        self.card_id = card_id
        super().__init__(f"no card with id {card_id!r}")


@dataclass(frozen=True)
class MethodCard:
    """One method's knowledge contract.

    ``id``, ``name``, ``citation_key`` and ``notes`` are strings, and
    ``a_priori`` and ``a_posteriori`` are knowledge states that agree on the
    temporal flag.  ``assumption_tags`` is any iterable of lowercase slugs
    but a single string, stored as a sorted tuple without duplicates.
    """

    id: str
    name: str
    citation_key: str
    a_priori: KnowledgeState
    a_posteriori: KnowledgeState
    assumption_tags: tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        tags = self.assumption_tags
        if isinstance(tags, Iterable) and not isinstance(tags, str):
            tags = tuple(tags)
        if not isinstance(tags, tuple) or not all(isinstance(t, str) for t in tags):
            raise ValueError("assumption_tags must be a list of strings")
        for key in ("id", "name", "citation_key", "notes"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"card field {key!r} must be a string")
        _check_type(self.a_priori, KnowledgeState, "a_priori")
        _check_type(self.a_posteriori, KnowledgeState, "a_posteriori")
        if not _ID_RE.match(self.id):
            raise ValueError(f"bad card id {self.id!r}: want lowercase-hyphen slug")
        if not self.name.strip():
            raise ValueError(f"card {self.id!r} needs a nonempty name")
        if not _CITATION_RE.match(self.citation_key):
            raise ValueError(
                f"card {self.id!r} has a malformed citation key {self.citation_key!r}"
            )
        if self.a_priori.temporal is not self.a_posteriori.temporal:
            raise ValueError(
                f"card {self.id!r} mixes temporal flags: "
                f"{self.a_priori.temporal.label} before, "
                f"{self.a_posteriori.temporal.label} after"
            )
        for tag in tags:
            if not _TAG_RE.match(tag):
                raise ValueError(f"card {self.id!r} has a malformed tag {tag!r}")
        object.__setattr__(self, "assumption_tags", tuple(sorted(set(tags))))

    @property
    def temporal(self) -> TemporalFlag:
        return self.a_priori.temporal

    def tag_only(self) -> bool:
        return (
            self.a_priori.structural.payload is None
            and self.a_priori.parametric.payload is None
            and self.a_posteriori.structural.payload is None
            and self.a_posteriori.parametric.payload is None
        )


@dataclass(frozen=True)
class Catalog:
    """Id-sorted card collection, from any iterable of cards; duplicate ids are rejected."""

    cards: tuple[MethodCard, ...]

    def __post_init__(self) -> None:
        cards = tuple(self.cards)
        for card in cards:
            _check_type(card, MethodCard, "a card")
        ordered = tuple(sorted(cards, key=lambda c: c.id))
        for a, b in zip(ordered, ordered[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate card id {a.id!r}")
        object.__setattr__(self, "cards", ordered)

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.cards)

    def card(self, card_id: str) -> MethodCard:
        for c in self.cards:
            if c.id == card_id:
                return c
        raise UnknownCardError(card_id)

    def __contains__(self, card_id: str) -> bool:
        return any(c.id == card_id for c in self.cards)

    def __len__(self) -> int:
        return len(self.cards)


# ---------------------------------------------------------------------------
# JSON form


def card_from_mapping(data: Mapping) -> MethodCard:
    _json_object(data, "card", _CARD_KEYS)
    states = {}
    for key in ("a_priori", "a_posteriori"):
        try:
            states[key] = KnowledgeState.from_mapping(data[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return MethodCard(**{**data, **states})


def card_to_mapping(card: MethodCard) -> dict:
    if not card.tag_only():
        raise ValueError(
            f"card {card.id!r} carries payloads and has no JSON form"
        )
    return {
        "id": card.id,
        "name": card.name,
        "citation_key": card.citation_key,
        "a_priori": card.a_priori.to_mapping(),
        "a_posteriori": card.a_posteriori.to_mapping(),
        "assumption_tags": list(card.assumption_tags),
        "notes": card.notes,
    }


def load_catalog(source) -> Catalog:
    """Read a catalog from a JSON array (path or file object); a fault in a
    card names the card's 1-based position in the array."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("a catalog file holds a JSON array of cards")
    cards = []
    for index, item in enumerate(data, start=1):
        try:
            cards.append(card_from_mapping(item))
        except ValueError as exc:
            raise ValueError(f"card {index}: {exc}") from None
    return Catalog(cards)


def save_catalog(catalog: Catalog, target=None) -> str | None:
    """Write the canonical JSON array; return text when no target is given."""
    text = json.dumps([card_to_mapping(c) for c in catalog.cards], indent=2) + "\n"
    if target is None:
        return text
    if hasattr(target, "write"):
        target.write(text)
        return None
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(text)
    return None


def default_catalog() -> Catalog:
    """The packaged sixteen-card catalog."""
    packaged = resources.files("cdl_compass").joinpath("data/default_catalog.json")
    with packaged.open("r", encoding="utf-8") as fh:
        return load_catalog(fh)


# ---------------------------------------------------------------------------
# Queries


def _coerce_state(value) -> KnowledgeState:
    if isinstance(value, KnowledgeState):
        return value
    if isinstance(value, str):
        return KnowledgeState.from_triple(value)
    raise TypeError(f"expected a knowledge state or triple string, got {value!r}")


def _coerce_temporal(value) -> TemporalFlag:
    if not isinstance(value, (TemporalFlag, str)):
        raise TypeError(f"expected a temporal flag or label, got {value!r}")
    return TemporalFlag.of(value)


def query_catalog(
    catalog: Catalog,
    temporal: TemporalFlag | str | None = None,
    min_a_posteriori: KnowledgeState | str | None = None,
    max_a_priori: KnowledgeState | str | None = None,
    tag: str | None = None,
) -> tuple[MethodCard, ...]:
    """Filter cards; every given criterion must hold.  Results in id order.

    ``min_a_posteriori`` keeps methods that deliver at least the given
    state; ``max_a_priori`` keeps methods runnable from it (their demands
    are within it).  Both imply the bound's temporal flag.
    """
    flag = _coerce_temporal(temporal) if temporal is not None else None
    floor = _coerce_state(min_a_posteriori) if min_a_posteriori is not None else None
    ceil = _coerce_state(max_a_priori) if max_a_priori is not None else None
    out = []
    for card in catalog.cards:
        if flag is not None and card.temporal is not flag:
            continue
        if floor is not None and not satisfies(card.a_posteriori, floor):
            continue
        if ceil is not None and not satisfies(ceil, card.a_priori):
            continue
        if tag is not None and tag not in card.assumption_tags:
            continue
        out.append(card)
    return tuple(out)
