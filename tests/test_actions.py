"""Actions: cost tables, validation, classification, and both updates."""

import copy
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from attnplan import actions
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
    branch_classes,
    is_nfl,
    product_update,
    validate_action,
)
from attnplan.bisim import BisimWitness, bisimilar
from attnplan.emulate import check_equivalent_on, from_nopost, resolve_actual, to_post
from attnplan.errors import (
    AttnPlanError,
    CostLookupError,
    FormulaValidationError,
    IllFormedResult,
    NameCollision,
    NotApplicable,
    SignatureMismatch,
)
from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Know,
    Not,
    PropAtom,
    Signature,
    TOP,
    entails,
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

# Each malformation of an action as the fields it overrides in a sound
# two-event action, with a fragment of the fault every entry must report.
MALFORMATIONS = {
    "pre misses an event": ({"pre": {"e": P}}, "do not cover exactly the events"),
    "q misses an event": ({"q": {"i": [{"e"}]}}, "does not partition the events exactly"),
    "overlapping q blocks": ({"q": {"i": [{"e", "f"}, {"f"}]}}, "overlapping blocks on ['f']"),
    "stray actual": ({"actual": "zz"}, "is not an event"),
    "stray family member": ({"actual_family": ("e", "zz")}, "is not an event"),
    "duplicate events": (
        {"events": ("e", "e"), "q": {"i": [{"e"}]}, "qstar": {"i": [{"e"}]}, "pre": {"e": P}},
        "are not unique",
    ),
    "no events": ({"events": (), "q": {}, "qstar": {}, "pre": {}, "actual": ""}, "no events"),
}
ATTENTION_ENTRIES = tuple(
    ("attention", name)
    for name in (
        "applicable", "attention_update", "to_post", "relaxed is_nfl", "background_announcement"
    )
)
PLAIN_ENTRIES = tuple(
    ("plain", name)
    for name in ("product_update", "resolve_actual", "from_nopost", "check_equivalent_on")
)


# Preconditions outside the signature, at the actual event "e" or the other
# event "f" of ``two_event_model``.
INVALID_PRES = {
    "actual unknown agent": ("e", Know("zz", TOP), "unknown agent 'zz'"),
    "actual unknown atom": ("e", PropAtom("zz"), "unknown atom 'zz'"),
    "other unknown agent": ("f", Know("zz", TOP), "unknown agent 'zz'"),
    "other unknown atom": ("f", PropAtom("zz"), "unknown atom 'zz'"),
}


# A negative price in each place a cost table can hold one, with the
# diagnostic ``validate_action`` reports for it.
NEGATIVE_PRICES = {
    "default": (CostTable(default=-7), "default has negative cost -7"),
    "agent default": (
        CostTable(agent_defaults={"i": -7}, default=1),
        "agent default of agent 'i' has negative cost -7",
    ),
    "entry": (
        CostTable(entries=(CostEntry("i", P, "f", -7),), default=1),
        "cost entry of agent 'i' has negative cost -7",
    ),
}


def one_block_state(budget: int = 1) -> AttentionState:
    return AttentionState(
        sig=SIG,
        worlds=("w", "v"),
        partitions={"i": (frozenset({"w", "v"}),)},
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        attention={"i": {"w": budget, "v": budget}},
        actual="w",
    )


def one_world_state(budget: int = 1) -> AttentionState:
    return AttentionState(
        sig=SIG,
        worlds=("w",),
        partitions={"i": (frozenset({"w"}),)},
        valuation={"w": frozenset({"p"})},
        attention={"i": {"w": budget}},
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

    @pytest.mark.parametrize("case", NEGATIVE_PRICES)
    def test_negative_price_is_refused_by_every_reader(self, case):
        cost, diagnostic = NEGATIVE_PRICES[case]
        action = AttentionAction(
            name="x", model=two_event_model(cost), questions={"i": P}, actual="e"
        )
        free = replace(action, model=two_event_model())
        runs = {
            "cost_of": lambda: action.model.cost_of("i", P, "e"),
            "attention_update": lambda: attention_update(one_block_state(15), action),
            "apply_sequence": lambda: apply_sequence(one_block_state(15), [action]),
            "to_post": lambda: to_post(action),
            "check_equivalent_on": lambda: check_equivalent_on(
                action, to_post(free), [one_block_state(2)]
            ),
        }
        for entry, run in runs.items():
            with pytest.raises(CostLookupError) as info:
                run()
            assert str(info.value) == "negative cost -7 for agent 'i' at event 'e'", entry
        assert not is_nfl(action)
        assert not is_nfl(action, relaxed=True)
        assert [d.message for d in validate_action(action) if d.severity == "error"] == [
            diagnostic
        ]

    def test_trivial_question_is_free_under_a_negative_default(self):
        action = AttentionAction(
            name="x", model=two_event_model(CostTable(default=-7)), questions={}, actual="e"
        )
        assert attention_update(one_block_state(), action).attention["i"] == {
            "w*e": 1, "v*f": 1
        }

    def test_unknown_event_rejected(self):
        model = two_event_model()
        with pytest.raises(CostLookupError):
            model.cost_of("i", P, "zz")

    def test_relation_naming_an_unknown_event_is_reported_as_such(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e", "f"),
            q={"i": [{"e", "zz"}, {"f"}]},
            qstar={},
            pre={"e": P, "f": Not(P)},
            cost=CostTable(default=1),
        )
        for lookup in (lambda: model.component_of("i", "e"), lambda: model.cost_of("i", P, "e")):
            with pytest.raises(CostLookupError) as info:
                lookup()
            assert str(info.value) == "q of agent 'i' names unknown event 'zz'"
        with pytest.raises(CostLookupError, match="unknown agent 'j' or event 'e'"):
            two_event_model().component_of("j", "e")


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

    def test_agent_default_for_unknown_agent_is_an_error(self):
        action = AttentionAction(
            name="x",
            model=two_event_model(CostTable(agent_defaults={"zz": 1}, default=1)),
            actual="e",
        )
        assert [d.message for d in validate_action(action) if d.severity == "error"] == [
            "agent default for unknown agent 'zz'"
        ]

    def test_entry_diagnostics_are_read_per_component(self):
        entries = (
            CostEntry("zz", P, "e", 1),
            CostEntry("i", P, "zz", 1),
            CostEntry("i", P, "e", 1),
            CostEntry("i", P, "f", 2),
            CostEntry("i", P, "e", 3),
            CostEntry("i", Not(P), "e", 1),
            CostEntry("i", Not(P), "f", 1),
        )
        action = AttentionAction(
            name="x", model=two_event_model(CostTable(entries=entries)), actual="e"
        )
        assert [(d.severity, d.message) for d in validate_action(action)] == [
            ("error", "cost entry for unknown agent 'zz'"),
            ("error", "cost entry of agent 'i' names unknown event 'zz'"),
            ("error", "conflicting costs for agent 'i' on the component of 'e': 1 vs 2 vs 3"),
            ("warning", "duplicate cost entry for agent 'i' on the component of 'e'"),
        ]

    def test_priced_trivial_question_warns(self):
        model = two_event_model(
            CostTable(entries=(CostEntry("i", TOP, "e", 5),), default=1)
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e")
        assert any(
            d.severity == "warning" and "ignored" in d.message
            for d in validate_action(action)
        )


    def test_unpriced_question_is_an_error(self, two_facts_doc):
        ask_p = two_facts_doc.actions["ask_p"]
        unpriced = replace(ask_p, model=replace(ask_p.model, cost=CostTable()))
        message = "no cost entry or default covers agent 'i' at event 'e_pq'"
        assert [(d.severity, d.message) for d in validate_action(unpriced)] == [
            ("error", message)
        ]
        with pytest.raises(CostLookupError) as info:
            attention_update(two_facts_doc.states["init"], unpriced)
        assert str(info.value) == message

    def test_conflicting_price_of_an_asked_question_is_reported_once(self):
        entries = (CostEntry("i", P, "e", 1), CostEntry("i", P, "f", 2))
        action = AttentionAction(
            name="x", model=two_event_model(CostTable(entries=entries)),
            questions={"i": P}, actual="e",
        )
        assert [d.message for d in validate_action(action) if d.severity == "error"] == [
            "conflicting costs for agent 'i' on the component of 'e': 1 vs 2"
        ]

    def test_question_for_unknown_agent_is_an_error(self):
        action = AttentionAction(
            name="x", model=two_event_model(), questions={"zz": P}, actual="e"
        )
        assert action.questions == {"i": TOP, "zz": P}
        assert [d.message for d in validate_action(action) if d.severity == "error"] == [
            "question for unknown agent 'zz'"
        ]

    def test_unknown_actual_event_is_a_typed_error(self):
        action = AttentionAction(
            name="x", model=two_event_model(), questions={"i": P}, actual="zz"
        )
        assert [d.message for d in validate_action(action) if d.severity == "error"] == [
            "actual event 'zz' is not an event"
        ]
        for update in (applicable, attention_update):
            with pytest.raises(AttnPlanError, match="actual event 'zz' of action 'x'"):
                update(one_block_state(), action)

    @pytest.mark.parametrize("case", INVALID_PRES)
    def test_invalid_precondition_is_refused_at_every_entry(self, case):
        event, pre, fault = INVALID_PRES[case]
        model = two_event_model()
        model = replace(model, pre=model.pre | {event: pre})
        action = AttentionAction(name="x", model=model, questions={"i": P}, actual="e")
        runs = {
            "applicable": lambda: applicable(one_block_state(), action),
            "attention_update": lambda: attention_update(one_block_state(), action),
            "apply_sequence": lambda: apply_sequence(one_block_state(), [action]),
            "to_post": lambda: to_post(action),
            "relaxed is_nfl": lambda: is_nfl(action, relaxed=True),
            "background_announcement": lambda: background_announcement(action),
        }
        for entry, run in runs.items():
            with pytest.raises(FormulaValidationError) as info:
                run()
            assert str(info.value) == f"pre of {event!r} of action 'x': {fault}", entry
        assert [d.message for d in validate_action(action) if d.severity == "error"] == [
            f"pre of {event!r}: {fault}"
        ]

    def test_signature_is_checked_before_the_gate(self):
        """Every update checks what ``applicable`` checks, in its order:
        signature, then the gate, then the precondition."""
        other = Signature(agents=("i",), attention_bound=2, prop_atoms=("p", "r"))
        model = replace(two_event_model(), sig=other)
        action = AttentionAction(name="x", model=model, questions={}, actual="zz")
        y = EpistemicAction(sig=other, events=("e",), q={}, pre={"e": P}, actual="zz")
        for run in (
            lambda: applicable(one_block_state(), action),
            lambda: attention_update(one_block_state(), action),
            lambda: apply_sequence(one_block_state(), [action]),
            lambda: product_update(kripke_rendition(one_block_state()), y),
        ):
            with pytest.raises(SignatureMismatch):
                run()

    @pytest.mark.parametrize(
        "malformation,entry",
        [
            (malformation, entry)
            for malformation in MALFORMATIONS
            for entry in ATTENTION_ENTRIES + PLAIN_ENTRIES
            # An attention action has no actual family.
            if (malformation, entry[0]) != ("stray family member", "attention")
        ],
        ids=lambda value: value if isinstance(value, str) else value[1],
    )
    def test_inconsistent_action_is_a_typed_error_at_every_entry(self, malformation, entry):
        overrides, fault = MALFORMATIONS[malformation]
        fields = {
            "events": ("e", "f"),
            "q": {"i": (frozenset({"e"}), frozenset({"f"}))},
            "qstar": {"i": [{"e", "f"}]},
            "pre": {"e": P, "f": Not(P)},
            "actual": "e",
            "actual_family": (),
        } | overrides
        model = AttentionActionModel(
            sig=SIG, events=fields["events"], q=fields["q"], qstar=fields["qstar"],
            pre=fields["pre"], cost=CostTable(default=1),
        )
        action = AttentionAction(
            name="x", model=model, questions={"i": P}, actual=fields["actual"]
        )
        y = EpistemicAction(
            sig=SIG, events=fields["events"], q=fields["q"], pre=fields["pre"],
            actual=fields["actual"], actual_family=fields["actual_family"],
        )
        sound = AttentionAction(name="sound", model=two_event_model(), actual="e")
        run = {
            "applicable": lambda: applicable(one_block_state(), action),
            "attention_update": lambda: attention_update(one_block_state(), action),
            "to_post": lambda: to_post(action),
            "relaxed is_nfl": lambda: is_nfl(action, relaxed=True),
            "background_announcement": lambda: background_announcement(action),
            "product_update": lambda: product_update(kripke_rendition(one_block_state()), y),
            "resolve_actual": lambda: resolve_actual(y, one_block_state()),
            "from_nopost": lambda: from_nopost(y),
            "check_equivalent_on": lambda: check_equivalent_on(sound, y, [one_block_state()]),
        }[entry[1]]
        named = "action 'x'" if entry[0] == "attention" else None
        with pytest.raises(AttnPlanError, match=named) as info:
            run()
        assert fault in str(info.value)

    def test_validation_errors_iff_the_gate_raises(self):
        """One-field mutations of random actions, structural or one
        precondition naming an unknown atom or agent: validate_action
        reports an error exactly when the gate raises, and the gate raises
        the first error reported, naming the action.  Each model also gets
        an explicit cost entry, whose component is looked up through the
        relations."""
        rng = random.Random(13)
        outcomes = Counter()
        for _ in range(480):
            sound = rand_attention_action(rng, SIG2)
            model, events = sound.model, sound.model.events
            entry = CostEntry(rng.choice(SIG2.agents), P, events[0], 1)
            model = replace(model, cost=replace(model.cost, entries=(entry,)))
            actual = sound.actual
            field = rng.choice(("events", "pre", "pre formula", "q", "qstar", "actual"))
            if field == "events":
                mutated = rng.choice((events[:-1], events + events[:1], events + ("zz",)))
                model = replace(model, events=mutated)
            elif field == "pre":
                pre = dict(model.pre)
                if rng.random() < 0.5:
                    del pre[rng.choice(events)]
                else:
                    pre["zz"] = TOP
                model = replace(model, pre=pre)
            elif field == "pre formula":
                stray = rng.choice((PropAtom("zz"), Know("zz", TOP), AttEq("zz", 0)))
                model = replace(model, pre=model.pre | {rng.choice(events): stray})
            elif field in ("q", "qstar"):
                pool = events + ("zz",)
                blocks = [
                    frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                    for _ in range(rng.randint(1, 3))
                ]
                relation = getattr(model, field) | {rng.choice(SIG2.agents): blocks}
                model = replace(model, **{field: relation})
            else:
                actual = rng.choice(events + ("zz",))
            action = AttentionAction(
                name="x", model=model, questions=sound.questions, actual=actual
            )
            errors = [d.message for d in validate_action(action) if d.severity == "error"]
            try:
                action._actual_pre
            except AttnPlanError as exc:
                assert errors and str(exc).replace(" of action 'x'", "") == errors[0]
            else:
                assert errors == []
            outcomes[bool(errors)] += 1
        assert min(outcomes[False], outcomes[True]) > 50, outcomes

    def test_a_clean_validation_means_no_structural_failure(self):
        """One-field mutations of seeded actions, priced ones and ones whose
        branch relations may be intransitive among them: whenever ``validate_action`` reports no error, the gate, the prices,
        the branch relations, the update of a valid state and ``to_post``
        with the equivalence check raise nothing but NotApplicable or
        IllFormedResult, and every verdict holds."""
        rng = random.Random(14)
        stray = (PropAtom("zz"), Know("zz", TOP), AttEq("zz", 0))
        outcomes = Counter()
        for _ in range(600):
            sound = rand_attention_action(
                rng, SIG2, total=rng.random() < 0.3, priced=rng.random() < 0.5
            )
            model, events, agents = sound.model, sound.model.events, SIG2.agents
            questions, actual = dict(sound.questions), sound.actual
            field = rng.choice(
                ("events", "pre", "q", "qstar", "actual", "questions", "cost")
            )
            if field == "events":
                mutated = rng.choice((events[:-1], events + events[:1], events + ("zz",)))
                model = replace(model, events=mutated)
            elif field == "pre":
                pre = dict(model.pre)
                roll = rng.random()
                if roll < 0.3:
                    del pre[rng.choice(events)]
                elif roll < 0.5:
                    pre["zz"] = TOP
                else:
                    pre[rng.choice(events)] = rng.choice(stray + (TOP, P, Not(P)))
                model = replace(model, pre=pre)
            elif field in ("q", "qstar"):
                relation = dict(getattr(model, field))
                agent = rng.choice(agents)
                if rng.random() < 0.3:
                    del relation[agent]  # filled with singletons
                else:
                    pool = events + ("zz",)
                    relation[agent] = [
                        frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                        for _ in range(rng.randint(1, 3))
                    ]
                model = replace(model, **{field: relation})
            elif field == "actual":
                actual = rng.choice(events + ("zz", ""))
            elif field == "questions":
                agent = rng.choice(agents + ("zz",))
                questions[agent] = rng.choice(stray + (TOP, P, Not(P), Know("a", P)))
            else:
                cost, agent = model.cost, rng.choice(agents + ("zz",))
                price = rng.choice((-1, 0, 1, SIG2.attention_bound + 1))
                cost = rng.choice((
                    replace(cost, default=rng.choice((None, price))),
                    replace(cost, agent_defaults=dict(cost.agent_defaults) | {agent: price}),
                    replace(cost, entries=cost.entries + (
                        CostEntry(
                            agent,
                            rng.choice(stray + (TOP, P, questions.get(agent, TOP))),
                            rng.choice(events + ("zz",)),
                            price,
                        ),
                    )),
                ))
                model = replace(model, cost=cost)
            action = AttentionAction(name="x", model=model, questions=questions, actual=actual)
            if any(d.severity == "error" for d in validate_action(action)):
                outcomes["refused"] += 1
                continue
            s = rand_state(rng, SIG2)
            action._actual_pre, action._costs, action._branches
            try:
                attention_update(s, action)
                outcomes["updated"] += 1
            except (NotApplicable, IllFormedResult) as exc:
                outcomes[type(exc).__name__] += 1
            try:
                verdicts = check_equivalent_on(action, to_post(action), [s])
            except IllFormedResult:
                continue
            assert all(v.equivalent for v in verdicts), verdicts
            outcomes["checked"] += 1
        assert min(outcomes.values()) >= 10 and len(outcomes) == 5, outcomes


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


    def test_costs_and_answers_are_derived_once_per_action(self, monkeypatch):
        calls = []
        kernel_calls = []
        real_entails = actions._entails
        real_branch_classes = actions.branch_classes

        def counting_entails(sig, f, g):
            calls.append((f, g))
            return real_entails(sig, f, g)

        def counting_branch_classes(model, agent, answers=None):
            kernel_calls.append(agent)
            return real_branch_classes(model, agent, answers)

        monkeypatch.setattr(actions, "_entails", counting_entails)
        monkeypatch.setattr(actions, "branch_classes", counting_branch_classes)
        action = AttentionAction(
            name="x", model=two_event_model(), questions={"i": P}, actual="e"
        )
        first = attention_update(one_block_state(), action)
        assert attention_update(one_block_state(), action) == first
        to_post(action)
        assert len(calls) == len(SIG.agents) * len(action.model.events)
        assert kernel_calls == list(SIG.agents)

    def test_errors_keep_their_order(self):
        def action(actual: str, cost: CostTable) -> AttentionAction:
            return AttentionAction(
                name="x",
                model=two_event_model(cost),
                questions={"i": PropAtom("zz")},  # not in the signature
                actual=actual,
            )

        state = one_block_state()
        for _ in range(2):  # a failed derivation is not cached
            with pytest.raises(NotApplicable):
                attention_update(state, action("f", CostTable()))
            with pytest.raises(CostLookupError):
                attention_update(state, action("e", CostTable()))
            with pytest.raises(FormulaValidationError):
                attention_update(state, action("e", CostTable(default=1)))
            with pytest.raises(CostLookupError):
                to_post(action("e", CostTable()))
            with pytest.raises(FormulaValidationError):
                to_post(action("e", CostTable(default=1)))


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

    def test_colliding_prices_raise_a_typed_error(self):
        entries = (CostEntry("i", P, "e", 1), CostEntry("i", P, "e", 1), CostEntry("i", P, "f", 2))
        action = AttentionAction(
            name="x", model=two_event_model(CostTable(entries=entries[:2])), actual="e"
        )
        assert background_announcement(action).model.cost.entries == (
            CostEntry("i", P, "e!", 1),
        )
        action = replace(action, model=two_event_model(CostTable(entries=entries)))
        with pytest.raises(CostLookupError, match="agent 'i' collide"):
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

    @pytest.mark.parametrize(
        "pre,post",
        [
            ({"e": Know("zz", TOP), "f": TOP}, {}),
            ({"e": TOP, "f": Know("zz", TOP)}, {}),
            ({"e": TOP, "f": TOP}, {"f": {"p": Not(Know("zz", P))}}),
        ],
        ids=["actual pre", "other pre", "post"],
    )
    def test_unknown_agent_in_a_formula_is_a_typed_error(self, pre, post):
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e", "f"}),)},
            pre=pre,
            post=post,
            actual="e",
        )
        with pytest.raises(FormulaValidationError, match="unknown agent 'zz'"):
            product_update(kripke_rendition(one_world_state()), y)

    def test_unknown_agent_past_a_false_conjunct_is_not_met(self):
        """``applicable`` evaluates the actual precondition at the actual
        world only as far as its answer needs, as the per-world reference
        does, so the update refuses before it meets the unknown agent."""
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e", "f"}),)},
            pre={"e": And(Not(TOP), Know("zz", TOP)), "f": TOP},
            actual="e",
        )
        k = kripke_rendition(one_world_state())
        assert not applicable(k, y)
        with pytest.raises(NotApplicable):
            product_update(k, y)

    @pytest.mark.parametrize(
        "atom",
        ["zz", AttEq("zz", 0), AttEq("i", 3), AttLess("i", 9), Not(P)],
        ids=["atom", "agent", "value", "less", "formula"],
    )
    def test_unknown_post_atom_is_refused_at_the_gate(self, atom):
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e", "f"}),)},
            pre={"e": TOP, "f": TOP},
            post={"e": {"p": TOP}, "f": {"p": TOP, atom: TOP}},
            actual="e",
        )
        message = f"post of 'f' writes unknown atoms: {re.escape(repr(atom))}$"
        with pytest.raises(AttnPlanError, match=message):
            product_update(kripke_rendition(one_world_state()), y)
        with pytest.raises(AttnPlanError, match=message):
            resolve_actual(y, one_world_state())

    def test_events_sharing_a_post_map_share_its_copy(self):
        shared = {"p": Not(P)}
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f", "g"),
            q={},
            pre={"e": TOP, "f": TOP, "g": TOP},
            post={"e": shared, "f": shared, "g": {"p": TOP}},
        )
        assert y.post["e"] is y.post["f"] and y.post["e"] is not shared
        assert y.post == {"e": shared, "f": shared, "g": {"p": TOP}}
        shared["p"] = TOP
        assert y.post["e"] == {"p": Not(P)}

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

    @pytest.mark.parametrize(
        "entry,family",
        [("product_update", ()), ("resolve_actual", ()), ("resolve_actual", ("e", "zz"))],
        ids=["product_update", "resolve_actual", "resolve_actual-family"],
    )
    def test_stray_actual_event_is_a_typed_error(self, entry, family):
        y = EpistemicAction(
            sig=SIG,
            events=("e",),
            q={},
            pre={"e": TOP},
            actual="e" if family else "zz",
            actual_family=family,
        )
        with pytest.raises(AttnPlanError, match="actual event 'zz' is not an event"):
            if entry == "product_update":
                product_update(self.kripke(), y)
            else:
                resolve_actual(y, one_block_state())


class TestPairNames:
    def test_colliding_pair_names_raise_a_typed_value_error(self):
        # (w, e*e) and (w*e, e) would both become w*e*e.
        s = AttentionState(
            sig=SIG,
            worlds=("w", "w*e"),
            partitions={"i": (frozenset({"w", "w*e"}),)},
            valuation={},
            attention={"i": {"w": 0, "w*e": 0}},
            actual="w",
        )
        pre = {"e": TOP, "e*e": TOP}
        model = AttentionActionModel(
            sig=SIG, events=("e", "e*e"), q={}, qstar={}, pre=pre,
            cost=CostTable(default=0),
        )
        x = AttentionAction(name="clash", model=model, actual="e")
        y = EpistemicAction(sig=SIG, events=("e", "e*e"), q={}, pre=pre, actual="e")
        for update, state, action in (
            (attention_update, s, x),
            (product_update, kripke_rendition(s), y),
        ):
            with pytest.raises(NameCollision, match=r"'w\*e\*e'") as info:
                update(state, action)
            assert isinstance(info.value, ValueError)


class TestSequenceProperties:
    def test_class_members_update_cleanly_from_random_states(self):
        rng = random.Random(33)
        for _ in range(60):
            state, action = rand_applicable_pair(rng, SIG2, rand_nfl_action)
            out = attention_update(state, action)
            assert validate_state(out) == []


class TestBranchAnswers:
    """``_branches`` asks the prover once per distinct (precondition,
    question) pair, by value, and its relations are the ones the per-event
    answers give."""

    @staticmethod
    def variants(rng: random.Random, x: AttentionAction) -> dict[str, AttentionAction]:
        """``x``; ``x`` with each question a distinct copy; and ``x`` with
        its preconditions drawn from one of them and its negation, every
        agent asked one of these or one of its own questions."""
        model, agents = x.model, x.sig.agents
        base = rng.choice(list(model.pre.values()))
        pool = [base, Not(base)]
        one = rng.choice(pool + [x.questions[agents[0]]])
        return {
            "unshared": x,
            "copied": replace(x, questions={a: copy.deepcopy(q) for a, q in x.questions.items()}),
            "shared": replace(
                x,
                model=replace(model, pre={e: rng.choice(pool) for e in model.events}),
                questions=dict.fromkeys(agents, one),
            ),
        }

    def test_one_prover_call_per_distinct_pair(self, monkeypatch):
        original, calls = actions._entails, Counter()

        def counting(sig, f, g):
            calls[f, g] += 1
            return original(sig, f, g)

        monkeypatch.setattr(actions, "_entails", counting)
        sig = Signature(agents=("a", "b", "c"), attention_bound=2, prop_atoms=("p", "q"))
        rng = random.Random(28)
        seen: Counter[str] = Counter()
        for _ in range(150):
            drawn = rand_attention_action(rng, sig, max_events=4, total=False)
            made: dict[str, int] = {}
            for kind, x in self.variants(rng, drawn).items():
                model, questions = x.model, x.questions
                calls.clear()
                branches = x._branches
                pairs = {(model.pre[e], questions[a]) for a in sig.agents for e in model.events}
                assert set(calls) == pairs and set(calls.values()) == {1}
                made[kind] = sum(calls.values())
                assert branches == {
                    a: branch_classes(
                        model, a, {e: entails(sig, model.pre[e], questions[a]) for e in model.events}
                    )
                    for a in sig.agents
                }
                seen[kind] += len(pairs) < len(sig.agents) * len(model.events)
                seen["witness"] += any(r.witness for pair in branches.values() for r in pair)
            # Copied questions are equal to the originals, so they share calls.
            assert made["copied"] == made["unshared"]
        # Pairs shared in most drawn actions (unasked agents share ``T``) and
        # in every shared variant; some relations are intransitive.
        assert seen["shared"] == 150 and min(seen.values()) >= 20, seen
