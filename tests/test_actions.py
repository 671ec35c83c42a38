"""Actions: cost tables, validation, classification, and both updates."""

import random

import pytest

from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostEntry,
    CostTable,
    EpistemicAction,
    applicable,
    apply_sequence,
    attention_update,
    background_announcement,
    is_nfl,
    product_update,
    validate_action,
)
from attnplan.bisim import BisimWitness, bisimilar
from attnplan.errors import CostLookupError, IllFormedResult, NotApplicable
from attnplan.logic import (
    And,
    AttEq,
    Know,
    Not,
    PropAtom,
    Signature,
    TOP,
    parse_formula,
)
from attnplan.models import AttentionState, check, kripke_rendition, validate_state

from generators import (
    SIG2,
    rand_applicable_pair,
    rand_attention_action,
    rand_nfl_action,
    rand_state,
)

SIG = Signature(agents=("i",), attention_bound=2, prop_atoms=("p",))
P = PropAtom("p")


def one_block_state(budget: int = 1) -> AttentionState:
    return AttentionState(
        sig=SIG,
        worlds=("w", "v"),
        partitions={"i": (frozenset({"w", "v"}),)},
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        attention={"i": {"w": budget, "v": budget}},
        actual="w",
    )


def two_event_model(cost=CostTable(default=1)) -> AttentionActionModel:
    return AttentionActionModel(
        sig=SIG,
        events=("e", "f"),
        q={"i": (frozenset({"e"}), frozenset({"f"}))},
        qstar={"i": (frozenset({"e", "f"}),)},
        pre={"e": P, "f": Not(P)},
        cost=cost,
    )


class TestCostTable:
    def test_entry_covers_the_whole_component(self):
        model = two_event_model(
            CostTable(entries=(CostEntry("i", P, "f", 2),), default=1)
        )
        assert model.cost_of("i", P, "e") == 2
        assert model.cost_of("i", P, "f") == 2
        assert model.cost_of("i", Not(P), "e") == 1

    def test_trivial_question_is_free(self):
        model = two_event_model()
        assert model.cost_of("i", TOP, "e") == 0

    def test_agent_default_beats_global_default(self):
        model = two_event_model(CostTable(agent_defaults={"i": 3}, default=1))
        assert model.cost_of("i", P, "e") == 3

    def test_no_price_anywhere_is_an_error(self):
        model = two_event_model(CostTable())
        with pytest.raises(CostLookupError):
            model.cost_of("i", P, "e")

    def test_conflicting_component_entries_error_on_lookup(self):
        model = two_event_model(
            CostTable(entries=(CostEntry("i", P, "e", 1), CostEntry("i", P, "f", 2)))
        )
        with pytest.raises(CostLookupError):
            model.cost_of("i", P, "e")

    def test_unknown_event_rejected(self):
        model = two_event_model()
        with pytest.raises(CostLookupError):
            model.cost_of("i", P, "zz")


class TestValidation:
    def test_clean_action_yields_no_errors(self, two_facts_doc):
        for action in two_facts_doc.actions.values():
            assert [d for d in validate_action(action) if d.severity == "error"] == []

    def test_intransitive_union_warns(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e1", "e2", "e3"),
            q={"i": (frozenset({"e1", "e2"}), frozenset({"e3"}))},
            qstar={"i": (frozenset({"e1"}), frozenset({"e2", "e3"}))},
            pre={"e1": TOP, "e2": TOP, "e3": TOP},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e1")
        diags = validate_action(action)
        assert any(
            d.severity == "warning" and "not transitive" in d.message for d in diags
        )

    def test_inexact_partition_is_reported_not_raised(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e1", "e2"),
            q={"i": (frozenset({"e1"}),)},
            qstar={"i": (frozenset({"e1", "e2"}),)},
            pre={"e1": TOP, "e2": TOP},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e1")
        diags = validate_action(action)
        assert any(
            d.severity == "error" and "does not partition" in d.message for d in diags
        )

    def test_negative_cost_is_an_error(self):
        model = two_event_model(CostTable(entries=(CostEntry("i", P, "e", -1),)))
        action = AttentionAction(name="x", model=model, questions={}, actual="e")
        assert any(d.severity == "error" for d in validate_action(action))

    def test_priced_trivial_question_warns(self):
        model = two_event_model(
            CostTable(entries=(CostEntry("i", TOP, "e", 5),), default=1)
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e")
        assert any(
            d.severity == "warning" and "ignored" in d.message
            for d in validate_action(action)
        )


class TestClassification:
    def test_starred_total_with_positive_prices(self):
        action = AttentionAction(
            name="x", model=two_event_model(), questions={"i": P}, actual="e"
        )
        assert is_nfl(action)

    def test_starred_partial_fails_strict_but_union_total_passes_relaxed(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e", "f"}),)},
            qstar={"i": (frozenset({"e"}), frozenset({"f"}))},
            pre={"e": P, "f": Not(P)},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e")
        assert not is_nfl(action)
        assert is_nfl(action, relaxed=True)

    def test_zero_price_fails_both(self):
        action = AttentionAction(
            name="x",
            model=two_event_model(CostTable(default=0)),
            questions={},
            actual="e",
        )
        assert not is_nfl(action)
        assert not is_nfl(action, relaxed=True)

    def test_union_partial_fails_even_relaxed(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e"}), frozenset({"f"}))},
            qstar={"i": (frozenset({"e"}), frozenset({"f"}))},
            pre={"e": P, "f": Not(P)},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e")
        assert not is_nfl(action, relaxed=True)


class TestAttentionUpdate:
    def test_not_applicable_when_actual_precondition_fails(self):
        state = one_block_state()
        action = AttentionAction(
            name="x", model=two_event_model(), questions={}, actual="f"
        )
        assert not applicable(state, action)
        with pytest.raises(NotApplicable):
            attention_update(state, action)

    def test_survivors_pair_worlds_with_passing_events(self):
        state = one_block_state()
        action = AttentionAction(
            name="x", model=two_event_model(), questions={}, actual="e"
        )
        out = attention_update(state, action)
        assert out.worlds == ("w*e", "v*f")
        assert out.actual == "w*e"
        assert validate_state(out) == []

    def test_paid_question_splits_by_answer(self):
        state = one_block_state(budget=1)
        action = AttentionAction(
            name="x", model=two_event_model(), questions={"i": P}, actual="e"
        )
        out = attention_update(state, action)
        assert out.partitions["i"] == (frozenset({"w*e"}), frozenset({"v*f"}))
        assert out.att("i", "w*e") == 0
        assert check(out, Know("i", P))

    def test_unaffordable_question_keeps_the_block(self):
        state = one_block_state(budget=0)
        action = AttentionAction(
            name="x", model=two_event_model(), questions={"i": P}, actual="e"
        )
        out = attention_update(state, action)
        assert out.partitions["i"] == (frozenset({"w*e", "v*f"}),)
        assert out.att("i", "w*e") == 0
        assert not check(out, Know("i", P))

    def test_budget_floor_is_zero(self):
        state = one_block_state(budget=1)
        action = AttentionAction(
            name="x",
            model=two_event_model(CostTable(default=2)),
            questions={"i": P},
            actual="e",
        )
        out = attention_update(state, action)
        assert out.att("i", "w*e") == 0

    def test_plain_relation_pairs_survive_the_cut(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e", "f"}),)},
            qstar={"i": (frozenset({"e"}), frozenset({"f"}))},
            pre={"e": P, "f": Not(P)},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={"i": P}, actual="e")
        out = attention_update(one_block_state(budget=2), action)
        assert out.partitions["i"] == (frozenset({"w*e", "v*f"}),)
        assert out.att("i", "w*e") == 1

    def test_intransitive_combination_raises(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e1", "e2", "e3"),
            q={"i": (frozenset({"e1", "e2"}), frozenset({"e3"}))},
            qstar={"i": (frozenset({"e1"}), frozenset({"e2", "e3"}))},
            pre={"e1": TOP, "e2": TOP, "e3": TOP},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e1")
        state = AttentionState(
            sig=SIG,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset()},
            attention={"i": {"w": 2}},
            actual="w",
        )
        with pytest.raises(IllFormedResult) as info:
            attention_update(state, action)
        assert info.value.agent == "i"
        assert info.value.witness == ("w*e1", "w*e2", "w*e3")

    def test_apply_sequence_reports_failing_step(self):
        state = one_block_state()
        good = AttentionAction(
            name="x", model=two_event_model(), questions={}, actual="e"
        )
        bad = AttentionAction(
            name="y", model=two_event_model(), questions={}, actual="f"
        )
        with pytest.raises(NotApplicable) as info:
            apply_sequence(state, [good, bad])
        assert info.value.index == 1
        assert apply_sequence(state, []) == state

    def test_budgets_never_increase(self):
        rng = random.Random(31)
        for _ in range(80):
            state, action = rand_applicable_pair(rng, SIG2, rand_attention_action)
            out = attention_update(state, action)
            for agent in SIG2.agents:
                for name in out.worlds:
                    source = name.rsplit("*", 1)[0]
                    assert out.att(agent, name) <= state.att(agent, source)

    def test_fact_valuations_inherited_verbatim(self):
        rng = random.Random(32)
        for _ in range(80):
            state, action = rand_applicable_pair(rng, SIG2, rand_attention_action)
            out = attention_update(state, action)
            assert validate_state(out) == []
            for name in out.worlds:
                source = name.rsplit("*", 1)[0]
                assert out.valuation[name] == state.valuation[source]


class TestBackgroundAnnouncement:
    def test_single_event_with_disjoined_preconditions(self):
        action = AttentionAction(
            name="x", model=two_event_model(), questions={}, actual="e"
        )
        bg = background_announcement(action)
        assert bg.model.events == ("e!",)
        assert bg.name == "x!"
        assert bg.questions["i"] == TOP
        expected = parse_formula(SIG, "p | ~p")
        assert bg.model.pre["e!"] == expected

    def test_conflicting_prices_refused(self):
        model = two_event_model(
            CostTable(
                entries=(CostEntry("i", P, "e", 1), CostEntry("i", P, "f", 2)),
                default=1,
            )
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e")
        with pytest.raises(ValueError):
            background_announcement(action)

    def test_trivial_questions_match_background_by_hand(self):
        state = one_block_state()
        action = AttentionAction(
            name="x", model=two_event_model(), questions={}, actual="e"
        )
        left = attention_update(state, action)
        right = attention_update(state, background_announcement(action))
        assert isinstance(bisimilar(left, right), BisimWitness)


class TestProductUpdate:
    def kripke(self):
        return kripke_rendition(one_block_state())

    def test_filters_and_splits(self):
        k = self.kripke()
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e"}), frozenset({"f"}))},
            pre={"e": P, "f": Not(P)},
            post={},
            actual="e",
        )
        out = product_update(k, y)
        assert out.worlds == ("w*e", "v*f")
        assert out.partitions["i"] == (frozenset({"w*e"}), frozenset({"v*f"}))

    def test_identity_posts_keep_every_atom(self):
        k = self.kripke()
        y = EpistemicAction(
            sig=SIG,
            events=("e",),
            q={"i": (frozenset({"e"}),)},
            pre={"e": TOP},
            post={},
            actual="e",
        )
        out = product_update(k, y)
        assert out.valuation["w*e"] == k.valuation["w"]
        assert out.valuation["v*e"] == k.valuation["v"]

    def test_posts_rewrite_atoms_by_source_truth(self):
        k = self.kripke()
        y = EpistemicAction(
            sig=SIG,
            events=("e",),
            q={"i": (frozenset({"e"}),)},
            pre={"e": TOP},
            post={"e": {"p": Not(P), AttEq("i", 1): TOP}},
            actual="e",
        )
        out = product_update(k, y)
        assert "p" not in out.valuation["w*e"]
        assert "p" in out.valuation["v*e"]
        assert AttEq("i", 1) in out.valuation["w*e"]

    def test_not_applicable_when_actual_fails(self):
        k = self.kripke()
        y = EpistemicAction(
            sig=SIG,
            events=("e",),
            q={"i": (frozenset({"e"}),)},
            pre={"e": Not(P)},
            post={},
            actual="e",
        )
        with pytest.raises(NotApplicable):
            product_update(k, y)


class TestSequenceProperties:
    def test_class_members_update_cleanly_from_random_states(self):
        rng = random.Random(33)
        for _ in range(60):
            state, action = rand_applicable_pair(rng, SIG2, rand_nfl_action)
            out = attention_update(state, action)
            assert validate_state(out) == []
