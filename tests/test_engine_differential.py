"""Differential tests: ``plan_pipeline`` against the tag-pair planner.

``plan_pipeline`` searches payload-free ``KnowledgeState`` values through
``satisfies`` and ``join_states`` and carries every shortest sequence
forward; ``helpers_engine.reference_plan_pipeline`` is the earlier
tag-pair search with predecessor sets.  Both must return the same plans,
in the same order, for every catalog, start, goal and length cap.
Payloads must not matter to either, so the random cards carry payloads
that conflict at equal tags.
"""

import itertools
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_engine import reference_plan_pipeline  # noqa: E402

from cdl_compass.engine import plan_pipeline, validate_pipeline
from cdl_compass.graphs import Dag, IndependenceSet, IndependenceStatement, Pdag
from cdl_compass.lattice import (
    ParametricTag,
    StructuralTag,
    TemporalFlag,
    all_tag_states,
    knowledge_state,
)
from cdl_compass.registry import Catalog, MethodCard, default_catalog

STRUCTURAL_PAYLOADS = {
    StructuralTag.UNKNOWN: [None],
    StructuralTag.PLAUSIBLE: [
        None,
        IndependenceSet.of([IndependenceStatement("A", "C", frozenset({"B"}))]),
        Pdag(frozenset("AB"), frozenset([("A", "B")]), frozenset()),
    ],
    StructuralTag.CAUSAL: [None, Dag.of([("A", "B")]), Dag.of([("B", "A")])],
}
PARAMETRIC_PAYLOADS = [None, "gaussian-noise", "laplace-noise"]
IDS = [f"{name}-{k}" for name in ("fit", "orient", "pc") for k in range(4)]
CAPS = st.one_of(st.none(), st.integers(0, 6))


@st.composite
def states(draw, temporal=None):
    s = draw(st.sampled_from(list(StructuralTag)))
    p = draw(st.sampled_from(list(ParametricTag)))
    flag = temporal if temporal is not None else draw(st.sampled_from(list(TemporalFlag)))
    return knowledge_state(
        s,
        p,
        flag,
        structural_payload=draw(st.sampled_from(STRUCTURAL_PAYLOADS[s])),
        parametric_payload=(
            None
            if p is ParametricTag.NONPARAMETRIC
            else draw(st.sampled_from(PARAMETRIC_PAYLOADS))
        ),
    )


@st.composite
def cards(draw):
    flag = draw(st.sampled_from(list(TemporalFlag)))
    return MethodCard(
        id=draw(st.sampled_from(IDS)),
        name="Random method",
        citation_key="diff2024plan",
        a_priori=draw(states(flag)),
        a_posteriori=draw(states(flag)),
    )


catalogs = st.lists(cards(), max_size=9, unique_by=lambda c: c.id).map(Catalog.of)


@settings(max_examples=400, deadline=None)
@given(catalogs, states(), states(), CAPS)
def test_plans_agree_with_reference_planner(catalog, start, goal, max_len):
    assert plan_pipeline(catalog, start, goal, max_len) == reference_plan_pipeline(
        catalog, start, goal, max_len
    )


def test_default_catalog_plans_agree_on_every_pair_and_cap():
    catalog = default_catalog()
    for start, goal in itertools.product(all_tag_states(), repeat=2):
        for max_len in (None, *range(7)):
            assert plan_pipeline(catalog, start, goal, max_len) == reference_plan_pipeline(
                catalog, start, goal, max_len
            ), (start.triple, goal.triple, max_len)


def test_planner_ignores_conflicting_payloads():
    # Joining these two outcomes raises at validation time; planning works
    # on tags only, so the sequence is still found.
    orient = MethodCard(
        id="orient",
        name="Orient",
        citation_key="diff2024plan",
        a_priori=knowledge_state("unknown", "nonparametric", "static"),
        a_posteriori=knowledge_state(
            "causal", "nonparametric", "static", structural_payload=Dag.of([("A", "B")])
        ),
    )
    reorient = MethodCard(
        id="reorient",
        name="Reorient",
        citation_key="diff2024plan",
        a_priori=knowledge_state("causal", "nonparametric", "static"),
        a_posteriori=knowledge_state(
            "causal", "noise_model", "static", structural_payload=Dag.of([("B", "A")])
        ),
    )
    catalog = Catalog.of([orient, reorient])
    start = knowledge_state("unknown", "nonparametric", "static")
    goal = knowledge_state("causal", "noise_model", "static")
    assert plan_pipeline(catalog, start, goal) == [["orient", "reorient"]]
    assert reference_plan_pipeline(catalog, start, goal) == [["orient", "reorient"]]
    report = validate_pipeline(catalog, ["orient", "reorient"], start)
    assert not report.overall
    assert "pipeline inconsistency" in report.failure_reason
