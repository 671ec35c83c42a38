"""States: construction, validation, evaluation, and the budget-atom view."""

import random
from dataclasses import replace

import pytest

import reference_models as ref
from attnplan.actions import applicable, apply_sequence, attention_update, product_update
from attnplan.emulate import check_equivalent_on, resolve_actual, to_post
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
    att_eq,
    att_lt,
)
from attnplan.models import (
    AttentionState,
    EpistemicState,
    _normalize_partition,
    attention_state_from_epistemic,
    check,
    check_epistemic,
    close_into_partition,
    kripke_rendition,
    require_same_signature,
    validate_state,
)
from attnplan.planner import solve_bounded, solve_nfl

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

    def test_block_order_matches_sorted_reference(self):
        """Blocks may overlap, repeat, be empty or name unknown members."""
        rng = random.Random(64)
        seen = {"overlap": 0, "empty": 0, "unknown only": 0, "mixed": 0}
        for _ in range(500):
            items = tuple(f"w{k}" for k in range(rng.randint(0, 6)))
            names = items + ("u0", "u1", "u2")
            blocks = [
                frozenset(rng.sample(names, rng.randint(0, 3)))
                for _ in range(rng.randint(0, 6))
            ]
            known = [b & set(items) for b in blocks]
            seen["overlap"] += any(a & b for k, a in enumerate(known) for b in known[:k])
            seen["empty"] += frozenset() in blocks
            seen["unknown only"] += any(b and not k for b, k in zip(blocks, known))
            seen["mixed"] += any(k and b - k for b, k in zip(blocks, known))
            expected = ref.normalize_partition(items, blocks)
            assert _normalize_partition(items, blocks) == expected
            assert _normalize_partition(items, (sorted(b) for b in blocks)) == expected
        assert min(seen.values()) > 20

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
        # Groups out of order, each rooted at a later item: blocks still come
        # out least-member first.
        items = ("a", "b", "c", "d", "e")
        assert close_into_partition(items, [["d", "e"], ["c", "a"]]) == (
            frozenset({"a", "c"}), frozenset({"b"}), frozenset({"d", "e"}),
        )
        assert close_into_partition(items, [["e", "b"], ["d", "a"], ["b", "d"]]) == (
            frozenset({"a", "b", "d", "e"}), frozenset({"c"}),
        )

    def test_close_into_partition_rejects_strangers(self):
        with pytest.raises(ValueError):
            close_into_partition(("a",), [["a", "zz"]])

    def test_colour_column_is_computed_once_per_state(self):
        s = small_state()
        for state in (s, kripke_rendition(s)):  # built normalized, and by ``_normal``
            assert "colours" not in vars(state)
            assert state.colours is state.colours
            assert vars(state)["colours"] is state.colours
            copy = replace(state)
            assert "colours" not in vars(copy)
            assert copy.colours == state.colours and copy.colours is not state.colours


class TestValidation:
    def test_clean_state_has_no_violations(self):
        assert validate_state(small_state()) == []

    def test_detects_actual_outside_worlds(self):
        s = small_state(actual="zz")
        assert any("actual" in v for v in validate_state(s))

    def test_detects_unknown_atoms(self):
        s = small_state(valuation={"w": frozenset({"mystery"})})
        assert any("mystery" in v for v in validate_state(s))

    def test_unknown_atoms_are_reported_in_repr_order(self):
        # Not in frozenset order, which varies with the string hash seed.
        s = small_state(valuation={"w": frozenset({"t", "p", "r", "q", "s"})})
        assert validate_state(s) == [
            f"world 'w' carries unknown atom {atom!r}" for atom in ("q", "r", "s", "t")
        ]

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


def bad_rendition(doc):
    """The rendition of two_facts' ``init`` with an actual world that is none
    of its worlds."""
    return replace(kripke_rendition(doc.states["init"]), actual="zz")


# Each entry that takes a state, called with the two_facts document and a
# copy of its ``init`` whose actual world is none of its worlds (or, at the
# entries that take an epistemic state, its rendition with that actual).
ACTUAL_ENTRIES = {
    "applicable": lambda doc, bad: applicable(bad, doc.actions["ask_p"]),
    "attention_update": lambda doc, bad: attention_update(bad, doc.actions["ask_p"]),
    "apply_sequence": lambda doc, bad: apply_sequence(bad, [doc.actions["ask_p"]]),
    "product_update": lambda doc, bad: product_update(
        bad_rendition(doc), resolve_actual(to_post(doc.actions["ask_p"]), doc.states["init"])
    ),
    "kripke_rendition": lambda doc, bad: kripke_rendition(bad),
    "check": lambda doc, bad: check(bad, PropAtom("p")),
    "check_epistemic": lambda doc, bad: check_epistemic(bad_rendition(doc), PropAtom("p")),
    "resolve_actual": lambda doc, bad: resolve_actual(to_post(doc.actions["ask_p"]), bad),
    "check_equivalent_on": lambda doc, bad: check_equivalent_on(
        doc.actions["ask_p"], to_post(doc.actions["ask_p"]), [bad]
    ),
    "solve_nfl": lambda doc, bad: solve_nfl(replace(doc.tasks["main"], initial=bad)),
    "solve_bounded": lambda doc, bad: solve_bounded(replace(doc.tasks["main"], initial=bad), 2),
}


@pytest.mark.parametrize("entry", list(ACTUAL_ENTRIES))
def test_actual_not_a_world_is_refused_at_every_entry(two_facts_doc, entry):
    """Each entry raises ``validate_state``'s message as a ``StateValidationError``."""
    bad = replace(two_facts_doc.states["init"], actual="zz")
    with pytest.raises(StateValidationError) as caught:
        ACTUAL_ENTRIES[entry](two_facts_doc, bad)
    expected = [v for v in validate_state(bad) if "actual" in v]
    assert caught.value.violations == expected == ["actual world 'zz' is not a world"]


def test_check_refuses_a_given_unknown_world_with_a_value_error(two_facts_doc):
    """Only the default world is the state's fault; a given one is the caller's."""
    init = two_facts_doc.states["init"]
    for s in (init, kripke_rendition(init), replace(init, actual="zz")):
        with pytest.raises(ValueError, match="unknown world 'yy'") as caught:
            check(s, PropAtom("p"), world="yy")
        assert not isinstance(caught.value, StateValidationError)


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

    @pytest.mark.parametrize("bound", [0, 1, 2, 40])
    def test_rendition_matches_the_atom_by_atom_reference(self, bound):
        sig = Signature(agents=("a", "b", "c"), attention_bound=bound, prop_atoms=("p", "q"))
        rng = random.Random(1800 + bound)
        for _ in range(60):
            s = rand_state(rng, sig, max_worlds=5)
            k, expected = kripke_rendition(s), ref.kripke_rendition(s)
            assert k.valuation == expected.valuation
            assert k == expected

    def test_rendition_atoms_are_the_shared_objects(self):
        rng = random.Random(13)
        for _ in range(40):
            k = kripke_rendition(rand_state(rng, SIG2))
            for atoms in k.valuation.values():
                for atom in atoms:
                    if isinstance(atom, AttEq):
                        assert atom is att_eq(atom.agent, atom.bound)
                    elif isinstance(atom, AttLess):
                        assert atom is att_lt(atom.agent, atom.bound)

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
