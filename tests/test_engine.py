"""Pipeline validation, planning, auditing, and the pipeline file format."""

import pytest

from cdl_compass.engine import (
    audit_transitions,
    format_pipeline,
    parse_pipeline,
    plan_pipeline,
    render_audit_text,
    render_plans_text,
    render_validation_text,
    validate_pipeline,
)
from cdl_compass.graphs import Dag
from cdl_compass.lattice import (
    TransitionKind,
    all_tag_states,
    knowledge_state,
    satisfies,
)
from cdl_compass.registry import (
    Catalog,
    MethodCard,
    UnknownCardError,
    default_catalog,
)

START = knowledge_state("unknown", "noise_model", "static")
CAUSAL_GOAL = knowledge_state("causal", "nonparametric", "static")


# ---------------------------------------------------------------------------
# Validation


class TestValidate:
    def test_discovery_then_generation(self):
        report = validate_pipeline(default_catalog(), ["resit", "decaf"], START)
        assert report.overall
        assert report.failure_reason is None
        assert [s.card_id for s in report.stages] == ["resit", "decaf"]
        assert all(s.satisfied for s in report.stages)
        assert report.final.triple == "causal:noise_model:static"
        assert satisfies(report.final, CAUSAL_GOAL)

    def test_generation_alone_fails_on_structure(self):
        report = validate_pipeline(default_catalog(), ["decaf"], START)
        assert not report.overall
        assert report.final is None
        (stage,) = report.stages
        assert stage.index == 1
        assert not stage.satisfied
        assert stage.after is None
        assert "structural" in stage.message
        assert report.failure_reason.startswith("stage 1 (decaf): structural")

    def test_empty_pipeline(self):
        report = validate_pipeline(default_catalog(), [], START)
        assert report.overall
        assert report.final == START
        assert report.stages == ()

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownCardError, match="not-a-method"):
            validate_pipeline(default_catalog(), ["not-a-method"], START)

    def test_cards_may_be_passed_directly(self):
        card = default_catalog().card("resit")
        report = validate_pipeline(default_catalog(), [card], START)
        assert report.overall

    def test_fold_stops_at_first_failure(self):
        report = validate_pipeline(
            default_catalog(), ["decaf", "resit", "resit"], START
        )
        assert len(report.stages) == 1

    def test_prefix_monotone(self):
        pipeline = ["pc", "resit", "decaf"]
        full = validate_pipeline(default_catalog(), pipeline, START)
        assert full.overall
        for cut in range(len(pipeline) + 1):
            prefix = validate_pipeline(default_catalog(), pipeline[:cut], START)
            assert prefix.overall
            assert prefix.final == (START if cut == 0 else full.stages[cut - 1].after)

    def test_appending_satisfied_card_keeps_valid(self):
        base = validate_pipeline(default_catalog(), ["resit"], START)
        assert base.overall
        again = validate_pipeline(default_catalog(), ["resit", "backdoor-adjust"], START)
        assert again.overall

    def test_temporal_mismatch_reported(self):
        report = validate_pipeline(default_catalog(), ["pcmci"], START)
        assert not report.overall
        assert "temporal mismatch" in report.failure_reason

    def test_parametric_axis_reported(self):
        start = knowledge_state("causal", "nonparametric", "temporal")
        report = validate_pipeline(default_catalog(), ["ode-discovery"], start)
        assert not report.overall
        assert "parametric requirement" in report.failure_reason

    def test_axis_order_structural_first(self):
        # ode-discovery needs causal AND parametric; from a state failing
        # both, the structural axis is the one reported.
        start = knowledge_state("unknown", "nonparametric", "temporal")
        report = validate_pipeline(default_catalog(), ["ode-discovery"], start)
        assert "structural requirement" in report.failure_reason

    def test_stage_mapping_keys(self):
        report = validate_pipeline(default_catalog(), ["resit"], START)
        m = report.stages[0].to_mapping()
        assert set(m) == {
            "index",
            "card",
            "before",
            "required",
            "after",
            "satisfied",
            "message",
        }
        assert m["before"] == "unknown:noise_model:static"
        assert m["after"] == "causal:noise_model:static"

    def test_report_mapping(self):
        report = validate_pipeline(default_catalog(), ["decaf"], START)
        m = report.to_mapping()
        assert m["overall"] is False
        assert m["final"] is None
        assert m["start"] == "unknown:noise_model:static"
        assert m["failure_reason"].startswith("stage 1")


def payload_card(card_id: str, edges) -> MethodCard:
    return MethodCard(
        id=card_id,
        name=card_id,
        citation_key="test2020key",
        a_priori=knowledge_state("unknown", "nonparametric", "static"),
        a_posteriori=knowledge_state(
            "causal", "nonparametric", "static", structural_payload=Dag.of(edges)
        ),
    )


class TestPayloadConflict:
    def test_conflicting_graphs_reported_as_inconsistency(self):
        cat = Catalog(
            [payload_card("claims-ab", [("A", "B")]), payload_card("claims-ba", [("B", "A")])]
        )
        start = knowledge_state("unknown", "nonparametric", "static")
        report = validate_pipeline(cat, ["claims-ab", "claims-ba"], start)
        assert not report.overall
        assert "pipeline inconsistency" in report.failure_reason

    def test_agreeing_payloads_merge(self):
        cat = Catalog(
            [payload_card("claims-ab", [("A", "B")]), payload_card("claims-same", [("A", "B")])]
        )
        start = knowledge_state("unknown", "nonparametric", "static")
        report = validate_pipeline(cat, ["claims-ab", "claims-same"], start)
        assert report.overall
        assert report.final.structural.payload == Dag.of([("A", "B")])


# ---------------------------------------------------------------------------
# Planning


class TestPlan:
    def test_recovers_discovery_step(self):
        plans = plan_pipeline(default_catalog(), START, CAUSAL_GOAL)
        assert plans == [["resit"]]

    def test_already_satisfied(self):
        state = knowledge_state("causal", "noise_model", "static")
        assert plan_pipeline(default_catalog(), state, CAUSAL_GOAL) == [[]]

    def test_unreachable_goal(self):
        goal = knowledge_state("causal", "fully_known", "static")
        assert plan_pipeline(default_catalog(), START, goal) == []

    def test_cross_flag_unreachable(self):
        goal = knowledge_state("causal", "nonparametric", "temporal")
        assert plan_pipeline(default_catalog(), START, goal) == []

    def test_temporal_plan(self):
        start = knowledge_state("causal", "parametric", "temporal")
        goal = knowledge_state("causal", "fully_known", "temporal")
        assert plan_pipeline(default_catalog(), start, goal) == [["ode-discovery"]]

    def test_max_len_cuts_off(self):
        assert plan_pipeline(default_catalog(), START, CAUSAL_GOAL, max_len=0) == []
        assert plan_pipeline(default_catalog(), START, CAUSAL_GOAL, max_len=1) == [
            ["resit"]
        ]

    def test_max_len_zero_when_satisfied(self):
        state = knowledge_state("causal", "noise_model", "static")
        assert plan_pipeline(default_catalog(), state, CAUSAL_GOAL, max_len=0) == [[]]

    def test_negative_max_len(self):
        with pytest.raises(ValueError, match="non-negative"):
            plan_pipeline(default_catalog(), START, CAUSAL_GOAL, max_len=-1)

    def test_two_step_plan(self):
        start = knowledge_state("unknown", "parametric", "temporal")
        goal = knowledge_state("causal", "fully_known", "temporal")
        plans = plan_pipeline(default_catalog(), start, goal)
        assert plans == []  # nothing upgrades plausible to causal on temporal data

    def test_plans_sorted_and_equal_length(self):
        # From unknown:nonparametric:static to plausible, several
        # single-step discoveries tie.
        goal = knowledge_state("plausible", "nonparametric", "static")
        start = knowledge_state("unknown", "nonparametric", "static")
        plans = plan_pipeline(default_catalog(), start, goal)
        assert plans == sorted(plans)
        assert len({len(p) for p in plans}) == 1
        assert ["fci"] in plans and ["ges"] in plans and ["pc"] in plans

    def test_every_plan_revalidates(self):
        cat = default_catalog()
        for start in all_tag_states():
            for goal in all_tag_states():
                plans = plan_pipeline(cat, start, goal, max_len=6)
                for plan in plans:
                    report = validate_pipeline(cat, plan, start)
                    assert report.overall, (start.triple, goal.triple, plan)
                    assert satisfies(report.final, goal)

    def test_all_pairs_terminate_within_cap(self):
        # Exhaustive over the tag lattice; mostly asserting nothing hangs
        # and the result shape is well-formed.
        cat = default_catalog()
        for start in all_tag_states():
            for goal in all_tag_states():
                plans = plan_pipeline(cat, start, goal, max_len=6)
                assert isinstance(plans, list)
                assert all(isinstance(p, list) for p in plans)


class TestRelaxingCards:
    def relaxing_catalog(self) -> Catalog:
        # A card that consumes a causal claim and emits only a plausible
        # one (it relaxes structure), but raises the parametric level; plus
        # a card to recover structure afterwards.
        relax = MethodCard(
            id="fit-forms",
            name="Fit functional forms",
            citation_key="test2020relax",
            a_priori=knowledge_state("causal", "nonparametric", "static"),
            a_posteriori=knowledge_state("plausible", "fully_known", "static"),
        )
        discover = MethodCard(
            id="orient-all",
            name="Orient all edges",
            citation_key="test2020orient",
            a_priori=knowledge_state("unknown", "nonparametric", "static"),
            a_posteriori=knowledge_state("causal", "nonparametric", "static"),
        )
        return Catalog([relax, discover])

    def test_audit_flags_relaxing(self):
        report = audit_transitions(self.relaxing_catalog())
        assert report.relaxing == ("fit-forms",)
        assert report.transitions["fit-forms"].relaxing

    def test_planner_may_use_relaxing_cards(self):
        # Join semantics: the running state never drops, so the relaxing
        # card still upgrades the parametric axis along the way.
        cat = self.relaxing_catalog()
        start = knowledge_state("unknown", "nonparametric", "static")
        goal = knowledge_state("causal", "fully_known", "static")
        plans = plan_pipeline(cat, start, goal)
        assert plans == [["orient-all", "fit-forms"]]
        report = validate_pipeline(cat, plans[0], start)
        assert report.overall
        assert report.final.triple == "causal:fully_known:static"


# ---------------------------------------------------------------------------
# Auditing


class TestAudit:
    def test_default_catalog_tallies(self):
        report = audit_transitions(default_catalog())
        assert report.counts[TransitionKind.NONE] == 7
        assert report.counts[TransitionKind.STRUCTURAL] == 8
        assert report.counts[TransitionKind.PARAMETRIC] == 1
        assert report.counts[TransitionKind.BOTH] == 0
        assert report.relaxing == ()

    def test_transitions_in_id_order(self):
        report = audit_transitions(default_catalog())
        assert list(report.transitions) == list(default_catalog().ids())

    def test_mapping(self):
        m = audit_transitions(default_catalog()).to_mapping()
        assert m["counts"] == {
            "none": 7,
            "structural": 8,
            "parametric": 1,
            "both": 0,
        }
        assert m["transitions"]["resit"]["kind"] == "structural"
        assert m["transitions"]["resit"]["from"] == "unknown:noise_model:static"
        assert m["relaxing"] == []


# ---------------------------------------------------------------------------
# Pipeline files


class TestPipelineFiles:
    def test_json_form(self):
        assert parse_pipeline('["resit", "decaf"]') == ["resit", "decaf"]

    def test_line_form(self):
        assert parse_pipeline("# plan\nresit\n\ndecaf  # generation\n") == [
            "resit",
            "decaf",
        ]

    def test_format_is_json(self):
        assert format_pipeline(["resit", "decaf"]) == '[\n  "resit",\n  "decaf"\n]\n'

    def test_round_trip(self):
        ids = ["pc", "resit", "decaf"]
        assert parse_pipeline(format_pipeline(ids)) == ids

    def test_empty_json(self):
        assert parse_pipeline("[]") == []

    def test_bad_json_content(self):
        with pytest.raises(ValueError, match="array of card ids"):
            parse_pipeline("[1, 2]")

    def test_ids_not_resolved_at_parse_time(self):
        assert parse_pipeline("no-such-card\n") == ["no-such-card"]


# ---------------------------------------------------------------------------
# Text rendering


class TestRendering:
    def test_valid_run(self):
        report = validate_pipeline(default_catalog(), ["resit", "decaf"], START)
        text = render_validation_text(report)
        assert text.endswith("VALID: final state causal:noise_model:static")
        assert "stage" in text and "resit" in text and "decaf" in text

    def test_invalid_run(self):
        report = validate_pipeline(default_catalog(), ["decaf"], START)
        text = render_validation_text(report)
        assert "INVALID: stage 1 (decaf)" in text

    def test_no_plan(self):
        assert render_plans_text([]) == "no plan found"

    def test_already_satisfied_plan(self):
        assert render_plans_text([[]]) == "(already satisfied)"

    def test_plan_chains(self):
        text = render_plans_text([["pc", "resit"], ["ges", "resit"]])
        assert text == "pc -> resit\nges -> resit"

    def test_relaxing_marker(self):
        text = render_plans_text([["orient-all", "fit-forms"]], relaxing=["fit-forms"])
        assert text == "orient-all -> ~fit-forms"

    def test_audit_text(self):
        text = render_audit_text(audit_transitions(default_catalog()))
        assert text.endswith("counts: none=7  structural=8  parametric=1  both=0")
        assert "resit" in text
