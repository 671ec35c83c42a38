"""States: construction, validation, evaluation, and the budget-atom view."""

import random

import pytest

from attnplan.errors import SignatureMismatch, StateValidationError
from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Know,
    Not,
    PropAtom,
    Signature,
    TOP,
)
from attnplan.models import (
    AttentionState,
    EpistemicState,
    attention_state_from_epistemic,
    check,
    check_epistemic,
    close_into_partition,
    kripke_rendition,
    require_same_signature,
    validate_state,
)

from generators import SIG2, rand_formula, rand_state

SIG = Signature(agents=("i",), attention_bound=2, prop_atoms=("p",))


def small_state(**overrides) -> AttentionState:
    base = dict(
        sig=SIG,
        worlds=("w", "v"),
        partitions={"i": (frozenset({"w", "v"}),)},
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        attention={"i": {"w": 1, "v": 1}},
        actual="w",
    )
    base.update(overrides)
    return AttentionState(**base)


class TestConstruction:
    def test_partition_blocks_ordered_by_first_member(self):
        s = AttentionState(
            sig=SIG,
            worlds=("w", "v", "u"),
            partitions={"i": (frozenset({"u"}), frozenset({"w", "v"}))},
            valuation={"w": frozenset(), "v": frozenset(), "u": frozenset()},
            attention={"i": {"w": 0, "v": 0, "u": 2}},
            actual="w",
        )
        assert s.partitions["i"] == (frozenset({"w", "v"}), frozenset({"u"}))

    def test_missing_valuation_defaults_to_empty(self):
        s = small_state(valuation={"w": frozenset({"p"})})
        assert s.valuation["v"] == frozenset()

    def test_block_and_budget_lookups(self):
        s = small_state()
        assert s.block_of("i", "v") == frozenset({"w", "v"})
        assert s.att("i", "w") == 1

    def test_close_into_partition_merges_overlapping_groups(self):
        blocks = close_into_partition(
            ("a", "b", "c", "d"), [["a", "b"], ["b", "c"]]
        )
        assert blocks == (frozenset({"a", "b", "c"}), frozenset({"d"}))
        once = (group for group in [["a", "b"], ["b", "c"]])
        assert close_into_partition(("a", "b", "c", "d"), once) == blocks

    def test_close_into_partition_rejects_strangers(self):
        with pytest.raises(ValueError):
            close_into_partition(("a",), [["a", "zz"]])


class TestValidation:
    def test_clean_state_has_no_violations(self):
        assert validate_state(small_state()) == []

    def test_detects_actual_outside_worlds(self):
        s = small_state(actual="zz")
        assert any("actual" in v for v in validate_state(s))

    def test_detects_unknown_atoms(self):
        s = small_state(valuation={"w": frozenset({"mystery"})})
        assert any("mystery" in v for v in validate_state(s))

    def test_detects_partition_not_covering(self):
        s = small_state(partitions={"i": (frozenset({"w"}),)})
        assert validate_state(s) != []

    def test_detects_budget_out_of_range(self):
        s = small_state(attention={"i": {"w": 9, "v": 9}})
        assert any("9" in v for v in validate_state(s))

    def test_detects_budget_missing_world(self):
        s = small_state(attention={"i": {"w": 1}})
        assert validate_state(s) != []

    def test_detects_budget_varying_inside_block(self):
        s = small_state(attention={"i": {"w": 1, "v": 2}})
        violations = validate_state(s)
        assert any("varies over the block" in v for v in violations)

    def test_empty_worlds_flagged(self):
        s = AttentionState(
            sig=SIG,
            worlds=(),
            partitions={"i": ()},
            valuation={},
            attention={"i": {}},
            actual="w",
        )
        assert validate_state(s) != []


class TestEvaluation:
    def test_propositional_and_budget_atoms(self):
        s = small_state()
        assert check(s, PropAtom("p"))
        assert not check(s, PropAtom("p"), world="v")
        assert check(s, AttEq("i", 1))
        assert check(s, AttLess("i", 2))
        assert not check(s, AttLess("i", 1))
        assert check(s, TOP)
        assert not check(s, Not(TOP))

    def test_knowledge_quantifies_over_the_block(self):
        s = small_state()
        assert not check(s, Know("i", PropAtom("p")))
        assert check(s, Know("i", AttEq("i", 1)))
        split = small_state(
            partitions={"i": (frozenset({"w"}), frozenset({"v"}))},
            attention={"i": {"w": 1, "v": 0}},
        )
        assert check(split, Know("i", PropAtom("p")))
        assert not check(split, Know("i", PropAtom("p")), world="v")

    def test_epistemic_state_reads_budget_atoms_extensionally(self):
        k = EpistemicState(
            sig=SIG,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset({"p", AttEq("i", 2)})},
            actual="w",
        )
        assert check_epistemic(k, AttEq("i", 2))
        assert not check_epistemic(k, AttEq("i", 1))
        assert not check_epistemic(k, AttLess("i", 2))


class TestBudgetAtomView:
    def test_rendition_adds_equality_and_upper_comparisons(self):
        s = small_state()
        k = kripke_rendition(s)
        assert AttEq("i", 1) in k.valuation["w"]
        assert AttLess("i", 2) in k.valuation["w"]
        assert AttEq("i", 0) not in k.valuation["w"]
        assert AttLess("i", 1) not in k.valuation["w"]
        assert "p" in k.valuation["w"]

    def test_rendition_agrees_on_random_formulas(self):
        rng = random.Random(11)
        for _ in range(150):
            s = rand_state(rng, SIG2)
            k = kripke_rendition(s)
            f = rand_formula(rng, SIG2)
            w = rng.choice(s.worlds)
            assert check(s, f, world=w) == check_epistemic(k, f, world=w)

    def test_round_trip_back_to_budget_form(self):
        rng = random.Random(12)
        for _ in range(50):
            s = rand_state(rng, SIG2)
            k = kripke_rendition(s)
            attention = {
                agent: {w: s.att(agent, w) for w in s.worlds}
                for agent in SIG2.agents
            }
            back = attention_state_from_epistemic(k, attention)
            assert back == s

    def test_from_epistemic_defaults_to_zero_budgets(self):
        k = EpistemicState(
            sig=SIG,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset({"p"})},
            actual="w",
        )
        s = attention_state_from_epistemic(k)
        assert s.att("i", "w") == 0

    def test_from_epistemic_rejects_block_inconsistent_budgets(self):
        k = EpistemicState(
            sig=SIG,
            worlds=("w", "v"),
            partitions={"i": (frozenset({"w", "v"}),)},
            valuation={"w": frozenset(), "v": frozenset()},
            actual="w",
        )
        with pytest.raises(StateValidationError):
            attention_state_from_epistemic(k, {"i": {"w": 0, "v": 1}})


class TestSignatureGuard:
    def test_mismatched_signatures_refused(self):
        other = Signature(agents=("i",), attention_bound=1, prop_atoms=("p",))
        s1 = small_state()
        s2 = AttentionState(
            sig=other,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset()},
            attention={"i": {"w": 0}},
            actual="w",
        )
        with pytest.raises(SignatureMismatch):
            require_same_signature(s1, s2)
