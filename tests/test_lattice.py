"""Order and join laws of the knowledge lattice, exhaustively."""

import itertools
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdl_compass.graphs import Dag, IndependenceSet, IndependenceStatement, Pdag
from cdl_compass.lattice import TestabilityTier as Tier
from cdl_compass.lattice import (
    KnowledgeState,
    ParametricLevel,
    ParametricTag,
    PayloadConflictError,
    StructuralLevel,
    StructuralTag,
    TemporalFlag,
    Transition,
    TransitionKind,
    all_tag_states,
    join_states,
    knowledge_state,
    leq,
    satisfies,
)
from cdl_compass.stats import CausalDirection, Decision

ALL = all_tag_states()
STATIC = all_tag_states(TemporalFlag.STATIC)


def same_tags(a: KnowledgeState, b: KnowledgeState) -> bool:
    return (
        a.structural.tag is b.structural.tag
        and a.parametric.tag is b.parametric.tag
        and a.temporal is b.temporal
    )


# ---------------------------------------------------------------------------
# Tag order


def test_scale_sizes():
    assert [t.label for t in StructuralTag] == ["unknown", "plausible", "causal"]
    assert [t.label for t in ParametricTag] == [
        "nonparametric",
        "noise_model",
        "parametric",
        "fully_known",
    ]
    assert [t.label for t in TemporalFlag] == ["static", "temporal"]


@pytest.mark.parametrize("scale", [StructuralTag, ParametricTag])
def test_leq_is_a_total_order_on_each_scale(scale):
    tags = list(scale)
    for a in tags:
        assert leq(a, a)
    for a, b in itertools.product(tags, repeat=2):
        assert leq(a, b) or leq(b, a)
        if leq(a, b) and leq(b, a):
            assert a is b
    for a, b, c in itertools.product(tags, repeat=3):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_cross_scale_comparison_is_a_type_error():
    with pytest.raises(TypeError):
        leq(StructuralTag.CAUSAL, ParametricTag.FULLY_KNOWN)
    with pytest.raises(TypeError):
        leq(ParametricTag.NONPARAMETRIC, StructuralTag.UNKNOWN)
    with pytest.raises(TypeError):
        leq(TemporalFlag.STATIC, TemporalFlag.TEMPORAL)


def test_tag_rich_comparisons_reject_cross_scale():
    with pytest.raises(TypeError):
        StructuralTag.UNKNOWN < ParametricTag.PARAMETRIC  # noqa: B015


ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]


@pytest.mark.parametrize("op", ORDERINGS)
@pytest.mark.parametrize("scale", [StructuralTag, ParametricTag])
def test_tag_rich_comparisons_follow_scale_order(scale, op):
    for a, b in itertools.product(scale, repeat=2):
        assert op(a, b) is op(a.value, b.value)


@pytest.mark.parametrize("op", ORDERINGS)
def test_every_rich_comparison_rejects_cross_scale_and_temporal(op):
    pairs = [
        (StructuralTag.UNKNOWN, ParametricTag.PARAMETRIC),
        (ParametricTag.FULLY_KNOWN, StructuralTag.CAUSAL),
        (StructuralTag.CAUSAL, TemporalFlag.STATIC),
        (TemporalFlag.STATIC, TemporalFlag.TEMPORAL),
    ]
    for a, b in pairs:
        with pytest.raises(TypeError):
            op(a, b)


def test_every_enum_label_is_unchanged():
    expected = {
        StructuralTag: ["unknown", "plausible", "causal"],
        ParametricTag: ["nonparametric", "noise_model", "parametric", "fully_known"],
        TemporalFlag: ["static", "temporal"],
        TransitionKind: ["none", "structural", "parametric", "both"],
        Tier: ["no_tests_needed", "testable", "untestable"],
        Decision: ["reject_null", "fail_to_reject"],
        CausalDirection: ["x_to_y", "y_to_x", "inconclusive"],
    }
    for enum_type, labels in expected.items():
        assert [m.label for m in enum_type] == labels
    for enum_type in (TemporalFlag, TransitionKind, Tier, Decision, CausalDirection):
        assert all(m.label == m.value for m in enum_type)


@pytest.mark.parametrize(
    "enum_type",
    [StructuralTag, ParametricTag, TemporalFlag, TransitionKind, Tier, Decision, CausalDirection],
)
def test_every_enum_reads_its_labels_by_one_rule(enum_type):
    assert [enum_type.from_label(m.label) for m in enum_type] == list(enum_type)
    expected = ", ".join(m.label for m in enum_type)
    with pytest.raises(ValueError) as exc:
        enum_type.from_label("weekly")
    assert str(exc.value) == (
        f"unknown {enum_type.__name__} label 'weekly'; expected one of {expected}"
    )


# ---------------------------------------------------------------------------
# State order (satisfies) — exhaustive over all 24 tag states


def test_satisfies_reflexive():
    for s in ALL:
        assert satisfies(s, s)


def test_satisfies_antisymmetric():
    for a, b in itertools.product(ALL, repeat=2):
        if satisfies(a, b) and satisfies(b, a):
            assert same_tags(a, b)


def test_satisfies_transitive():
    for a, b, c in itertools.product(ALL, repeat=3):
        if satisfies(a, b) and satisfies(b, c):
            assert satisfies(a, c)


def test_satisfies_requires_matching_temporal_flag():
    static = knowledge_state("causal", "fully_known", "static")
    temporal = knowledge_state("unknown", "nonparametric", "temporal")
    assert not satisfies(static, temporal)
    assert not satisfies(temporal, static)


def test_satisfies_componentwise():
    weak = knowledge_state("plausible", "noise_model", "static")
    strong = knowledge_state("causal", "parametric", "static")
    assert satisfies(strong, weak)
    assert not satisfies(weak, strong)
    sideways = knowledge_state("causal", "nonparametric", "static")
    assert not satisfies(sideways, weak)  # parametric axis too low
    assert not satisfies(weak, sideways)  # structural axis too low


# ---------------------------------------------------------------------------
# Join laws — exhaustive within each temporal regime


def test_join_idempotent():
    for s in ALL:
        assert same_tags(join_states(s, s), s)


def test_join_commutative_and_associative():
    for flag in TemporalFlag:
        states = all_tag_states(flag)
        for a, b in itertools.product(states, repeat=2):
            assert same_tags(join_states(a, b), join_states(b, a))
        for a, b, c in itertools.product(states, repeat=3):
            assert same_tags(
                join_states(a, join_states(b, c)),
                join_states(join_states(a, b), c),
            )


def test_join_is_the_least_upper_bound():
    for flag in TemporalFlag:
        states = all_tag_states(flag)
        for a, b in itertools.product(states, repeat=2):
            j = join_states(a, b)
            assert satisfies(j, a) and satisfies(j, b)
            for upper in states:
                if satisfies(upper, a) and satisfies(upper, b):
                    assert satisfies(upper, j)


def test_join_refuses_cross_regime():
    with pytest.raises(ValueError):
        join_states(
            knowledge_state("unknown", "nonparametric", "static"),
            knowledge_state("unknown", "nonparametric", "temporal"),
        )


def test_satisfies_monotone_under_join():
    # joining in more knowledge never breaks a requirement already met
    for a, b in itertools.product(STATIC, repeat=2):
        j = join_states(a, b)
        for req in STATIC:
            if satisfies(a, req):
                assert satisfies(j, req)


# ---------------------------------------------------------------------------
# Payloads


def chain_dag():
    return Dag.of([("A", "B"), ("B", "C")])


def test_payload_rules_structural():
    with pytest.raises(ValueError):
        StructuralLevel(StructuralTag.UNKNOWN, chain_dag())
    with pytest.raises(ValueError):
        StructuralLevel(StructuralTag.PLAUSIBLE, chain_dag())
    with pytest.raises(ValueError):
        StructuralLevel(StructuralTag.PLAUSIBLE, IndependenceSet([]))
    ind = IndependenceSet([IndependenceStatement("A", "C", frozenset({"B"}))])
    assert StructuralLevel(StructuralTag.PLAUSIBLE, ind).payload is ind
    pdag = Pdag(frozenset("AB"), frozenset([("A", "B")]), frozenset())
    assert StructuralLevel(StructuralTag.PLAUSIBLE, pdag).payload is pdag
    assert StructuralLevel(StructuralTag.CAUSAL, chain_dag()).payload == chain_dag()
    with pytest.raises(ValueError):
        StructuralLevel(StructuralTag.CAUSAL, ind)


def test_payload_rules_parametric():
    with pytest.raises(ValueError):
        ParametricLevel(ParametricTag.NONPARAMETRIC, "gaussian")
    assert ParametricLevel(ParametricTag.NOISE_MODEL, "additive gaussian").payload


def test_unhashable_parametric_payload_is_rejected():
    with pytest.raises(ValueError, match="a parametric payload must be hashable, not dict"):
        knowledge_state("causal", "parametric", "static", parametric_payload={"family": "linear"})


def test_join_merges_payload_with_none():
    bare = knowledge_state("causal", "nonparametric", "static")
    loaded = knowledge_state(
        "causal", "nonparametric", "static", structural_payload=chain_dag()
    )
    assert join_states(bare, loaded).structural.payload == chain_dag()
    assert join_states(loaded, bare).structural.payload == chain_dag()


def test_join_equal_tags_conflicting_payloads_raise():
    a = knowledge_state(
        "causal", "nonparametric", "static", structural_payload=chain_dag()
    )
    b = knowledge_state(
        "causal",
        "nonparametric",
        "static",
        structural_payload=Dag.of([("A", "B"), ("A", "C")]),
    )
    with pytest.raises(PayloadConflictError):
        join_states(a, b)


def test_join_higher_tag_payload_wins():
    low = knowledge_state(
        "plausible",
        "nonparametric",
        "static",
        structural_payload=Pdag(frozenset("AB"), frozenset([("A", "B")]), frozenset()),
    )
    high = knowledge_state(
        "causal", "nonparametric", "static", structural_payload=chain_dag()
    )
    joined = join_states(low, high)
    assert joined.structural.tag is StructuralTag.CAUSAL
    assert joined.structural.payload == chain_dag()


# ---------------------------------------------------------------------------
# Transitions


def test_transition_kinds_exhaustive():
    for a, b in itertools.product(STATIC, repeat=2):
        t = Transition(a, b)
        assert isinstance(t, Transition)
        s_moved = a.structural.tag is not b.structural.tag
        p_moved = a.parametric.tag is not b.parametric.tag
        expected = {
            (False, False): TransitionKind.NONE,
            (True, False): TransitionKind.STRUCTURAL,
            (False, True): TransitionKind.PARAMETRIC,
            (True, True): TransitionKind.BOTH,
        }[(s_moved, p_moved)]
        assert t.kind is expected
        assert t.relaxing == (
            b.structural.tag < a.structural.tag or b.parametric.tag < a.parametric.tag
        )


def test_transition_examples():
    up = Transition(
        knowledge_state("unknown", "noise_model", "static"),
        knowledge_state("causal", "noise_model", "static"),
    )
    assert up.kind is TransitionKind.STRUCTURAL and not up.relaxing
    down = Transition(
        knowledge_state("causal", "parametric", "static"),
        knowledge_state("plausible", "fully_known", "static"),
    )
    assert down.kind is TransitionKind.BOTH and down.relaxing


# ---------------------------------------------------------------------------
# Construction, labels, serialization


def test_all_tag_states_enumeration():
    assert len(ALL) == 24
    assert len(STATIC) == 12
    assert len({s.triple for s in ALL}) == 24
    assert ALL == all_tag_states()  # deterministic


def test_triple_round_trip():
    for s in ALL:
        assert same_tags(KnowledgeState.from_triple(s.triple), s)
    assert (
        knowledge_state("causal", "noise_model", "static").triple
        == "causal:noise_model:static"
    )


def test_mapping_round_trip():
    for s in ALL:
        assert same_tags(KnowledgeState.from_mapping(s.to_mapping()), s)


@pytest.mark.parametrize(
    "bad",
    [
        "causal:noise_model",
        "causal:noise_model:static:extra",
        "definite:noise_model:static",
        "causal:gaussian:static",
        "causal:noise_model:sometimes",
    ],
)
def test_bad_triples_rejected(bad):
    with pytest.raises(ValueError):
        KnowledgeState.from_triple(bad)


def test_mapping_rejects_extra_and_missing_fields():
    good = knowledge_state("unknown", "nonparametric", "static").to_mapping()
    with pytest.raises(ValueError):
        KnowledgeState.from_mapping({**good, "extra": "x"})
    with pytest.raises(ValueError):
        KnowledgeState.from_mapping({k: v for k, v in good.items() if k != "temporal"})


def test_factory_accepts_tags_and_labels():
    a = knowledge_state(StructuralTag.CAUSAL, ParametricTag.PARAMETRIC, "temporal")
    b = knowledge_state("causal", "parametric", TemporalFlag.TEMPORAL)
    assert same_tags(a, b)
    with pytest.raises(ValueError):
        knowledge_state("total", "nonparametric", "static")


# ---------------------------------------------------------------------------
# Properties

states = st.sampled_from(STATIC)


@given(states, states, states)
def test_join_associative_property(a, b, c):
    assert same_tags(
        join_states(a, join_states(b, c)), join_states(join_states(a, b), c)
    )


@given(states, states)
def test_join_dominates_property(a, b):
    j = join_states(a, b)
    assert satisfies(j, a)
    assert satisfies(j, b)
