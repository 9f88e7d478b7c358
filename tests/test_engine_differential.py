"""Differential tests: ``plan_pipeline`` against two planner oracles.

``plan_pipeline`` searches breadth-first with the step ``validate_pipeline``
folds, payloads kept, and carries every shortest sequence forward.
``helpers_engine.reference_plan_pipeline`` is the earlier tag-pair search
with predecessor sets; it must agree on payload-free catalogs and starts.
``helpers_engine.brute_force_plans`` folds every card-id sequence; it must
agree on catalogs whose payloads conflict at equal tags, and every plan
returned must validate.
"""

import itertools
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_engine import brute_force_plans, reference_plan_pipeline  # noqa: E402

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


def _tag_states(flag, payloads):
    """Every state on one flag, with each payload choice when ``payloads``."""
    return [
        knowledge_state(s, p, flag, structural_payload=sp, parametric_payload=pp)
        for s in StructuralTag
        for p in ParametricTag
        for sp in (STRUCTURAL_PAYLOADS[s] if payloads else [None])
        for pp in (
            PARAMETRIC_PAYLOADS if payloads and p is not ParametricTag.NONPARAMETRIC else [None]
        )
    ]


STATES = {
    (flag, payloads): _tag_states(flag, payloads)
    for flag in TemporalFlag
    for payloads in (False, True)
}


def states(temporal=None, payloads=True):
    flags = list(TemporalFlag) if temporal is None else [temporal]
    return st.sampled_from([state for flag in flags for state in STATES[flag, payloads]])


@st.composite
def cards(draw, payloads=True, temporal=None):
    flag = temporal if temporal is not None else draw(st.sampled_from(list(TemporalFlag)))
    return MethodCard(
        id=draw(st.sampled_from(IDS)),
        name="Random method",
        citation_key="diff2024plan",
        a_priori=draw(states(flag, payloads)),
        a_posteriori=draw(states(flag, payloads)),
    )


def catalogs(max_size, payloads=True, temporal=None, min_size=0):
    return st.lists(
        cards(payloads, temporal), min_size=min_size, max_size=max_size, unique_by=lambda c: c.id
    ).map(Catalog.of)


@st.composite
def one_flag_problems(draw):
    """A catalog of 3-5 payload cards with start and goal, all on one flag.

    Sharing the flag and drawing at least three cards makes payload clashes
    along a shortest route common enough for the search to meet them.
    """
    flag = draw(st.sampled_from(list(TemporalFlag)))
    catalog = draw(catalogs(5, temporal=flag, min_size=3))
    return catalog, draw(states(flag)), draw(states(flag))


@settings(max_examples=400, deadline=None)
@given(
    catalogs(9, payloads=False), states(payloads=False), states(payloads=False), CAPS
)
def test_plans_agree_with_reference_planner(catalog, start, goal, max_len):
    assert plan_pipeline(catalog, start, goal, max_len) == reference_plan_pipeline(
        catalog, start, goal, max_len
    )


@settings(max_examples=400, deadline=None)
@given(one_flag_problems(), st.one_of(st.none(), st.integers(0, 3)))
def test_plans_match_brute_force_and_validate(problem, max_len):
    catalog, start, goal = problem
    plans = plan_pipeline(catalog, start, goal, max_len)
    assert plans == brute_force_plans(catalog, start, goal, max_len)
    for plan in plans:
        assert validate_pipeline(catalog, plan, start).overall, plan


def test_default_catalog_plans_agree_on_every_pair_and_cap():
    catalog = default_catalog()
    for start, goal in itertools.product(all_tag_states(), repeat=2):
        for max_len in (None, *range(7)):
            assert plan_pipeline(catalog, start, goal, max_len) == reference_plan_pipeline(
                catalog, start, goal, max_len
            ), (start.triple, goal.triple, max_len)


def card(card_id, before, after, dag=None):
    """A static card from before/after (structural, parametric) label pairs."""
    payload = None if dag is None else Dag.of(dag)
    return MethodCard(
        id=card_id,
        name=card_id.capitalize(),
        citation_key="diff2024plan",
        a_priori=knowledge_state(*before, "static"),
        a_posteriori=knowledge_state(*after, "static", structural_payload=payload),
    )


UNKNOWN = ("unknown", "nonparametric")
CAUSAL = ("causal", "nonparametric")
FITTED = ("causal", "noise_model")
ORIENT_AB = card("orient-ab", UNKNOWN, CAUSAL, [("A", "B")])
FIT_BA = card("fit-ba", CAUSAL, FITTED, [("B", "A")])
START = knowledge_state(*UNKNOWN, "static")
GOAL = knowledge_state(*FITTED, "static")


def test_planner_skips_conflicting_payloads():
    # Joining these two outcomes raises at validation time, so the planner,
    # which takes the same step, finds no plan; the tag-only oracle still
    # offers the sequence validation rejects.
    catalog = Catalog.of([ORIENT_AB, FIT_BA])
    assert plan_pipeline(catalog, START, GOAL) == []
    assert brute_force_plans(catalog, START, GOAL) == []
    assert reference_plan_pipeline(catalog, START, GOAL) == [["orient-ab", "fit-ba"]]
    report = validate_pipeline(catalog, ["orient-ab", "fit-ba"], START)
    assert not report.overall
    assert "pipeline inconsistency" in report.failure_reason


def test_clean_longer_route_beats_conflicting_shorter_one():
    plausible = ("plausible", "nonparametric")
    pc = card("pc", UNKNOWN, plausible)
    orient_ba = card("orient-ba", plausible, CAUSAL, [("B", "A")])
    catalog = Catalog.of([ORIENT_AB, FIT_BA, pc, orient_ba])
    plans = plan_pipeline(catalog, START, GOAL)
    assert plans == [["pc", "orient-ba", "fit-ba"]]
    assert plans == brute_force_plans(catalog, START, GOAL)
    assert validate_pipeline(catalog, plans[0], START).overall
    assert reference_plan_pipeline(catalog, START, GOAL) == [["orient-ab", "fit-ba"]]
    assert plan_pipeline(catalog, START, GOAL, max_len=2) == []


def test_card_conflicting_with_the_start_payload_does_not_apply():
    fit_ab = card("fit-ab", CAUSAL, FITTED, [("A", "B")])
    catalog = Catalog.of([fit_ab, FIT_BA])
    start = knowledge_state(
        "causal", "nonparametric", "static", structural_payload=Dag.of([("A", "B")])
    )
    assert plan_pipeline(catalog, start, GOAL) == [["fit-ab"]]
    assert brute_force_plans(catalog, start, GOAL) == [["fit-ab"]]
    assert reference_plan_pipeline(catalog, start, GOAL) == [["fit-ab"], ["fit-ba"]]
    assert not validate_pipeline(catalog, ["fit-ba"], start).overall
