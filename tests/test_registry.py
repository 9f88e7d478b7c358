"""Method catalog: card validation, JSON round-trips, queries."""

import io
import json
from importlib import resources

import pytest

from cdl_compass.lattice import (
    TemporalFlag,
    Transition,
    TransitionKind,
    knowledge_state,
)
from cdl_compass.registry import (
    Catalog,
    MethodCard,
    UnknownCardError,
    card_from_mapping,
    card_to_mapping,
    default_catalog,
    load_catalog,
    query_catalog,
    save_catalog,
)


def make_card(card_id="demo-method", **overrides) -> MethodCard:
    base = dict(
        id=card_id,
        name="Demo method",
        citation_key="doe2020demo",
        a_priori=knowledge_state("unknown", "nonparametric", "static"),
        a_posteriori=knowledge_state("plausible", "nonparametric", "static"),
        assumption_tags=("faithfulness",),
        notes="",
    )
    base.update(overrides)
    return MethodCard(**base)


# ---------------------------------------------------------------------------
# Cards


class TestMethodCard:
    def test_basic(self):
        card = make_card()
        assert card.temporal is TemporalFlag.STATIC
        assert card.tag_only()

    def test_id_slug_enforced(self):
        for bad in ("Demo", "demo_method", "-demo", "demo-", "a--b", ""):
            with pytest.raises(ValueError, match="bad card id"):
                make_card(card_id=bad)

    def test_good_ids(self):
        for ok in ("pc", "notears-mlp", "a1-b2"):
            make_card(card_id=ok)

    def test_citation_key_format(self):
        with pytest.raises(ValueError, match="citation key"):
            make_card(citation_key="2020doe")
        make_card(citation_key="vanBreugel2021_decaf")

    def test_name_nonempty(self):
        with pytest.raises(ValueError, match="nonempty name"):
            make_card(name="   ")

    def test_temporal_flags_must_agree(self):
        with pytest.raises(ValueError, match="mixes temporal"):
            make_card(
                a_posteriori=knowledge_state("plausible", "nonparametric", "temporal")
            )

    def test_tags_sorted_and_deduped(self):
        card = make_card(assumption_tags=("b_tag", "a_tag", "b_tag"))
        assert card.assumption_tags == ("a_tag", "b_tag")

    def test_malformed_tag(self):
        with pytest.raises(ValueError, match="malformed tag"):
            make_card(assumption_tags=("Bad Tag",))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("name", 7, "card field 'name' must be a string"),
            ("citation_key", 5, "card field 'citation_key' must be a string"),
            ("notes", None, "card field 'notes' must be a string"),
            ("assumption_tags", "abc", "assumption_tags must be a list of strings"),
            ("assumption_tags", 5, "assumption_tags must be a list of strings"),
            ("assumption_tags", ("a_tag", 1), "assumption_tags must be a list of strings"),
        ],
        ids=["name", "citation-key", "notes", "tags-string", "tags-number", "tags-holding-a-number"],
    )
    def test_fields_of_a_wrong_type_are_named(self, key, value, message):
        # A card built in code is held to the rule a catalog file is: "abc"
        # was once stored as the three tags a, b and c.
        with pytest.raises(ValueError) as exc:
            make_card(**{key: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "tags", [["b", "a"], ("b", "a"), {"b", "a"}, iter(["b", "a"])],
        ids=["list", "tuple", "set", "iterator"],
    )
    def test_tags_from_any_iterable(self, tags):
        assert make_card(assumption_tags=tags).assumption_tags == ("a", "b")


class TestCatalog:
    def test_sorted_by_id(self):
        cat = Catalog.of([make_card("zz-last"), make_card("aa-first")])
        assert cat.ids() == ("aa-first", "zz-last")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate card id"):
            Catalog.of([make_card("same"), make_card("same")])

    def test_lookup(self):
        cat = Catalog.of([make_card("one")])
        assert cat.card("one").id == "one"
        assert "one" in cat
        assert "two" not in cat
        assert len(cat) == 1

    def test_unknown_card_error(self):
        cat = Catalog.of([make_card("one")])
        with pytest.raises(UnknownCardError, match="no card with id 'two'") as exc:
            cat.card("two")
        assert exc.value.card_id == "two"
        assert isinstance(exc.value, ValueError)


# ---------------------------------------------------------------------------
# JSON form


class TestJson:
    def test_card_round_trip(self):
        card = make_card(notes="some notes")
        assert card_from_mapping(card_to_mapping(card)) == card

    def test_catalog_round_trip_byte_stable(self):
        cat = Catalog.of([make_card("b-card"), make_card("a-card")])
        text = save_catalog(cat)
        again = load_catalog(io.StringIO(text))
        assert again == cat
        assert save_catalog(again) == text

    def test_load_from_text(self):
        text = save_catalog(Catalog.of([make_card()]))
        assert load_catalog(io.StringIO(text)).ids() == ("demo-method",)

    def test_save_into_handle(self):
        cat = Catalog.of([make_card()])
        handle = io.StringIO()
        assert save_catalog(cat, handle) is None
        assert handle.getvalue() == save_catalog(cat)

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "cat.json"
        save_catalog(Catalog.of([make_card()]), path)
        assert load_catalog(path).ids() == ("demo-method",)

    def test_path_that_starts_with_a_bracket(self, tmp_path, monkeypatch):
        save_catalog(Catalog.of([make_card()]), tmp_path / "[cat].json")
        monkeypatch.chdir(tmp_path)
        assert load_catalog("[cat].json").ids() == ("demo-method",)

    def test_extra_keys_rejected(self):
        data = card_to_mapping(make_card())
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown card keys"):
            card_from_mapping(data)

    def test_missing_keys_rejected(self):
        data = card_to_mapping(make_card())
        del data["notes"]
        with pytest.raises(ValueError, match="missing keys"):
            card_from_mapping(data)

    def test_tags_must_be_string_list(self):
        data = card_to_mapping(make_card())
        data["assumption_tags"] = "faithfulness"
        with pytest.raises(ValueError, match="list of strings"):
            card_from_mapping(data)

    def test_fields_must_be_strings(self):
        data = card_to_mapping(make_card())
        data["name"] = 7
        with pytest.raises(ValueError, match="^card field 'name' must be a string$"):
            card_from_mapping(data)

    def test_state_must_be_object(self):
        data = card_to_mapping(make_card())
        data["a_priori"] = "unknown:nonparametric:static"
        with pytest.raises(
            ValueError, match="^a_priori: a knowledge state is a JSON object, not str$"
        ):
            card_from_mapping(data)

    def test_payload_cards_refused(self):
        from cdl_compass.graphs import Dag
        from cdl_compass.lattice import StructuralTag

        card = make_card(
            a_posteriori=knowledge_state(
                "causal", "nonparametric", "static", structural_payload=Dag.of([("A", "B")])
            ),
            a_priori=knowledge_state("unknown", "nonparametric", "static"),
        )
        assert not card.tag_only()
        with pytest.raises(ValueError, match="no JSON form"):
            card_to_mapping(card)

    def test_non_array_rejected(self):
        with pytest.raises(ValueError, match="JSON array"):
            load_catalog(io.StringIO("{}"))


# ---------------------------------------------------------------------------
# The packaged catalog


class TestDefaultCatalog:
    def test_sixteen_cards(self):
        assert len(default_catalog()) == 16

    def test_expected_ids(self):
        assert default_catalog().ids() == (
            "backdoor-adjust",
            "cate-forest",
            "decaf",
            "dml",
            "fci",
            "ges",
            "iptw",
            "linear-iv",
            "lingam",
            "msm",
            "notears-mlp",
            "ode-discovery",
            "pc",
            "pcmci",
            "resit",
            "var-granger",
        )

    def test_disk_bytes_canonical(self):
        cat = default_catalog()
        disk = (
            resources.files("cdl_compass")
            .joinpath("data/default_catalog.json")
            .read_text("utf-8")
        )
        assert save_catalog(cat) == disk

    def test_all_tag_only(self):
        assert all(card.tag_only() for card in default_catalog().cards)

    def test_resit_contract(self):
        card = default_catalog().card("resit")
        assert card.a_priori.triple == "unknown:noise_model:static"
        assert card.a_posteriori.triple == "causal:noise_model:static"

    def test_decaf_is_a_none_transition(self):
        card = default_catalog().card("decaf")
        t = Transition(card.a_priori, card.a_posteriori)
        assert t.kind is TransitionKind.NONE
        assert not t.relaxing

    def test_transition_kinds(self):
        cat = default_catalog()
        resit = Transition(
            cat.card("resit").a_priori, cat.card("resit").a_posteriori
        )
        assert resit.kind is TransitionKind.STRUCTURAL
        assert not resit.relaxing
        ode = Transition(
            cat.card("ode-discovery").a_priori, cat.card("ode-discovery").a_posteriori
        )
        assert ode.kind is TransitionKind.PARAMETRIC
        lingam = Transition(
            cat.card("lingam").a_priori, cat.card("lingam").a_posteriori
        )
        assert lingam.kind is TransitionKind.STRUCTURAL

    def test_no_card_lowers_knowledge(self):
        from cdl_compass.lattice import satisfies

        for card in default_catalog().cards:
            assert satisfies(card.a_posteriori, card.a_priori), card.id

    def test_treatment_effect_cards_share_sutva_tags(self):
        cat = default_catalog()
        for card_id in ("backdoor-adjust", "iptw", "dml", "cate-forest", "msm"):
            tags = cat.card(card_id).assumption_tags
            for needed in ("consistency", "ignorability", "overlap"):
                assert needed in tags, (card_id, needed)


# ---------------------------------------------------------------------------
# Queries


class TestQueries:
    def test_no_criteria_returns_everything(self):
        cat = default_catalog()
        assert query_catalog(cat) == cat.cards

    def test_temporal_filter(self):
        got = query_catalog(default_catalog(), temporal="temporal")
        assert [c.id for c in got] == ["msm", "ode-discovery", "pcmci", "var-granger"]

    def test_ignorability_tag(self):
        got = query_catalog(default_catalog(), tag="ignorability")
        assert [c.id for c in got] == [
            "backdoor-adjust",
            "cate-forest",
            "dml",
            "iptw",
            "msm",
        ]

    def test_min_a_posteriori_temporal_causal(self):
        got = query_catalog(
            default_catalog(),
            temporal="temporal",
            min_a_posteriori="causal:nonparametric:temporal",
        )
        assert [c.id for c in got] == ["msm", "ode-discovery"]

    def test_max_a_priori_start_state(self):
        got = query_catalog(
            default_catalog(), max_a_priori="unknown:noise_model:static"
        )
        assert [c.id for c in got] == ["fci", "ges", "notears-mlp", "pc", "resit"]

    def test_enum_and_label_forms_agree(self):
        cat = default_catalog()
        assert query_catalog(cat, temporal=TemporalFlag.TEMPORAL) == query_catalog(
            cat, temporal="temporal"
        )
        state = knowledge_state("causal", "nonparametric", "temporal")
        assert query_catalog(cat, min_a_posteriori=state) == query_catalog(
            cat, min_a_posteriori="causal:nonparametric:temporal"
        )

    def test_bad_inputs(self):
        cat = default_catalog()
        with pytest.raises(TypeError):
            query_catalog(cat, temporal=3)
        with pytest.raises(TypeError):
            query_catalog(cat, min_a_posteriori=3)
        with pytest.raises(ValueError):
            query_catalog(cat, temporal="sometimes")

    def test_conjunction(self):
        got = query_catalog(default_catalog(), temporal="static", tag="ignorability")
        assert [c.id for c in got] == ["backdoor-adjust", "cate-forest", "dml", "iptw"]
