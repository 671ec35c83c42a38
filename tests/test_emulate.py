"""Translations between budgeted actions and postcondition actions."""

import random
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest

from attnplan import actions
from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    EpistemicAction,
    applicable,
    attention_update,
    product_update,
)
from attnplan.bisim import BisimWitness, kripke_bisimilar
from attnplan.emulate import (
    AttentionProfile,
    _attention_posts,
    check_equivalent_on,
    from_nopost,
    profiles_for,
    resolve_actual,
    to_post,
)
from attnplan.errors import (
    AmbiguousActual,
    AttnPlanError,
    CostLookupError,
    FormulaValidationError,
    IllFormedResult,
    NotApplicable,
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
    att_eq,
    att_geq,
    att_lt,
    bot,
)
from attnplan.models import AttentionState, kripke_rendition

from generators import (
    SIG2,
    rand_applicable_pair,
    rand_attention_action,
    rand_nopost_action,
    rand_state,
)

SIG = Signature(agents=("i",), attention_bound=2, prop_atoms=("p",))
P = PropAtom("p")


def paying_action(cost: int = 1, sig: Signature = SIG) -> AttentionAction:
    model = AttentionActionModel(
        sig=sig,
        events=("e", "f"),
        q={"i": (frozenset({"e"}), frozenset({"f"}))},
        qstar={"i": (frozenset({"e", "f"}),)},
        pre={"e": P, "f": Not(P)},
        cost=CostTable(default=cost),
    )
    return AttentionAction(name="x", model=model, questions={"i": P}, actual="e")


class TestProfiles:
    def test_enumeration_order_is_binary_counting(self):
        tags = [p.tag() for p in profiles_for(2)]
        assert tags == ["00", "01", "10", "11"]

    def test_bits_align_with_agent_order(self):
        assert AttentionProfile((1, 0)).bits == (1, 0)


class TestToPost:
    def test_event_count_scales_with_profiles(self):
        y = to_post(paying_action())
        assert len(y.events) == 2 * 2 ** len(SIG.agents)
        assert y.events == ("e@0", "e@1", "f@0", "f@1")

    def test_actual_is_the_all_attending_variant(self):
        y = to_post(paying_action())
        assert y.actual == "e@1"
        assert y.actual_family == ("e@0", "e@1")

    def test_attending_variant_guards_on_affordability(self):
        y = to_post(paying_action(cost=1))
        assert y.pre["e@1"] == And(P, att_geq("i", 1))
        assert y.pre["e@0"] == And(P, AttLess("i", 1))

    def test_unpayable_price_makes_attending_variant_impossible(self):
        y = to_post(paying_action(cost=3))
        assert y.pre["e@1"] == And(P, bot())
        assert y.pre["e@0"] == P

    def test_budget_rewrite_formulas(self):
        y = to_post(paying_action(cost=1))
        post = y.post["e@1"]
        assert post == {
            AttEq("i", 0): AttLess("i", 2),
            AttEq("i", 1): AttEq("i", 2),
            AttEq("i", 2): bot(),
            AttLess("i", 0): bot(),
            AttLess("i", 1): AttLess("i", 2),
            AttLess("i", 2): TOP,
        }
        for posts in y.post.values():
            for value in posts.values():
                assert isinstance(value, (AttEq, AttLess)) or value in (TOP, bot())

    def test_free_questions_leave_budgets_alone(self):
        action = paying_action(cost=0)
        y = to_post(action)
        assert all(not entries for entries in y.post.values())

    def test_events_with_equal_charges_share_one_post_map(self):
        """Each variant's map is the union of its agents' ``_attention_posts``
        for its event's charges, and two variants hold one map object exactly
        when their events charge every agent alike."""
        rng = random.Random(45)
        seen = {"shared across events": 0, "apart": 0}
        for _ in range(80):
            # Explicit prices make events of one action charge differently.
            x = rand_attention_action(rng, SIG2, priced=True)
            try:
                y = to_post(x)
            except CostLookupError:
                continue
            charges = {e: tuple(x._costs[a][e] for a in SIG2.agents) for e in x.model.events}
            event_of = {name: name.rsplit("@", 1)[0] for name in y.events}
            for name, event in event_of.items():
                expected = {}
                for agent, cost in zip(SIG2.agents, charges[event]):
                    expected.update(_attention_posts(agent, cost, SIG2.attention_bound))
                assert y.post[name] == expected
            for first, second in combinations(y.events, 2):
                alike = charges[event_of[first]] == charges[event_of[second]]
                assert (y.post[first] is y.post[second]) == alike
                seen["shared across events"] += alike and event_of[first] != event_of[second]
                seen["apart"] += not alike
        assert min(seen.values()) >= 20, seen

    def test_relation_blocks_respect_bit_and_component(self):
        y = to_post(paying_action())
        block_of = {}
        for block in y.q["i"]:
            for member in block:
                block_of[member] = block
        assert block_of["e@1"] == frozenset({"e@1"})
        assert block_of["f@1"] == frozenset({"f@1"})
        assert block_of["e@0"] == frozenset({"e@0", "f@0"})

    def test_post_keys_are_the_shared_atoms(self):
        rng = random.Random(43)
        for _ in range(20):
            _, action = rand_applicable_pair(rng, SIG2, rand_attention_action)
            for posts in to_post(action).post.values():
                for atom in posts:
                    constructor = att_eq if isinstance(atom, AttEq) else att_lt
                    assert atom is constructor(atom.agent, atom.bound)

    def test_intransitive_branch_relation_refused(self):
        model = AttentionActionModel(
            sig=SIG,
            events=("e1", "e2", "e3"),
            q={"i": (frozenset({"e1", "e2"}), frozenset({"e3"}))},
            qstar={"i": (frozenset({"e1"}), frozenset({"e2", "e3"}))},
            pre={"e1": TOP, "e2": TOP, "e3": TOP},
            cost=CostTable(default=1),
        )
        action = AttentionAction(name="x", model=model, questions={}, actual="e1")
        with pytest.raises(IllFormedResult):
            to_post(action)


class TestResolveActual:
    def state(self, budget: int) -> AttentionState:
        return AttentionState(
            sig=SIG,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset({"p"})},
            attention={"i": {"w": budget}},
            actual="w",
        )

    def test_picks_the_variant_matching_the_budget(self):
        y = to_post(paying_action(cost=1))
        assert resolve_actual(y, self.state(2)).actual == "e@1"
        assert resolve_actual(y, self.state(0)).actual == "e@0"

    def test_states_picking_one_member_resolve_to_equal_copies(self):
        y = to_post(paying_action(cost=1))
        first = resolve_actual(y, self.state(2))
        assert resolve_actual(y, self.state(1)) == first
        assert resolve_actual(y, self.state(0)) != first
        assert first == replace(y, actual="e@1")

    def test_members_share_the_checked_maps(self, monkeypatch):
        """A member is no new action to check: it shares the parent's maps,
        and its product passes the gate without another structural pass."""
        y = to_post(paying_action(cost=1))
        y._actual_pre  # the parent's gate, the one structural pass
        checks = []

        def counting(*args):
            checks.append(args)
            return []

        monkeypatch.setattr(actions, "_event_model_faults", counting)
        for budget in (2, 0):
            member = resolve_actual(y, self.state(budget))
            assert (member.q, member.pre, member.post) == (y.q, y.pre, y.post)
            assert all(member.post[e] is y.post[e] for e in y.events)
            product_update(kripke_rendition(self.state(budget)), member)
        assert checks == []
        with pytest.raises(AttnPlanError, match="'e@1' is not a member"):
            replace(y, actual="e@0", actual_family=("e@0",))._member("e@1")

    def test_members_share_the_parent_reading(self, monkeypatch):
        """The product update's reading of each distinct post map is derived
        once per compiled action, however many members ``resolve_actual``
        builds; a non-member is still refused."""
        y = to_post(paying_action(cost=1))
        derived = []
        read_post = actions._read_post
        monkeypatch.setattr(
            actions, "_read_post", lambda post, sig: derived.append(post) or read_post(post, sig)
        )
        for budget in (2, 0, 1):
            member = resolve_actual(y, self.state(budget))
            assert member._readings is y._readings
            product_update(kripke_rendition(self.state(budget)), member)
        assert derived == [y.post["e@1"]]  # every variant charges alike: one map
        with pytest.raises(AttnPlanError, match="'zz' is not a member"):
            y._member("zz")

    def test_picks_the_same_member_on_the_rendition(self):
        rng = random.Random(44)
        picked = 0
        for _ in range(60):
            y = to_post(rand_attention_action(rng, SIG2))
            s = rand_state(rng, SIG2)
            try:
                member = resolve_actual(y, s).actual
            except NotApplicable:
                with pytest.raises(NotApplicable):
                    resolve_actual(y, kripke_rendition(s))
                continue
            assert resolve_actual(y, kripke_rendition(s)).actual == member
            picked += 1
        assert picked >= 20

    def test_raises_when_no_variant_applies(self):
        y = to_post(paying_action(cost=1))
        broke = AttentionState(
            sig=SIG,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset()},
            attention={"i": {"w": 2}},
            actual="w",
        )
        with pytest.raises(NotApplicable):
            resolve_actual(y, broke)

    def test_overlapping_family_is_a_typed_error(self):
        y = EpistemicAction(
            sig=SIG,
            events=("e1", "e2"),
            q={},
            pre={"e1": TOP, "e2": TOP},
            actual="e1",
            actual_family=("e1", "e2"),
        )
        with pytest.raises(AmbiguousActual, match="'e1', 'e2'"):
            resolve_actual(y, self.state(1))

    @pytest.mark.parametrize(
        "pre", [Know("zz", TOP), att_eq("zz", 0)], ids=["knowledge", "attention atom"]
    )
    def test_unknown_agent_in_a_guard_is_a_typed_error(self, pre):
        """The epistemic gate does not walk formulas, so the guard is read
        unvalidated; an agent outside the state is refused where it is met."""
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f"),
            q={},
            pre={"e": pre, "f": TOP},
            actual="e",
            actual_family=("e", "f"),
        )
        with pytest.raises(FormulaValidationError, match="unknown agent 'zz'"):
            resolve_actual(y, self.state(1))


class TestFromNopost:
    def test_lifting_requires_empty_posts(self):
        y = EpistemicAction(
            sig=SIG,
            events=("e",),
            q={"i": (frozenset({"e"}),)},
            pre={"e": TOP},
            post={"e": {"p": TOP}},
            actual="e",
        )
        with pytest.raises(ValueError):
            from_nopost(y)

    def test_lifted_action_charges_nothing(self):
        y = EpistemicAction(
            sig=SIG,
            events=("e", "f"),
            q={"i": (frozenset({"e"}), frozenset({"f"}))},
            pre={"e": P, "f": Not(P)},
            post={},
            actual="e",
        )
        x = from_nopost(y)
        assert x.model.cost_of("i", P, "e") == 0
        assert x.questions["i"] == TOP
        assert x.model.q == y.q

    def test_the_gate_does_not_grow_with_the_bound(self):
        """The gate asks of each post key whether the signature knows it,
        never listing the 2 * agents * (bound + 1) attention atoms, so at a
        bound of a million it stays small, and its message names the
        unknown keys, in repr order, as before."""
        bound = 10**6
        sig = Signature(agents=("i", "j"), attention_bound=bound, prop_atoms=("p",))
        y = EpistemicAction(
            sig=sig,
            events=("e", "f"),
            q={"i": (frozenset({"e"}), frozenset({"f"})), "j": (frozenset({"e", "f"}),)},
            pre={"e": P, "f": Not(P)},
            post={},
            actual="e",
        )
        tracemalloc.start()
        try:
            x = from_nopost(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert x.model.events == ("e", "f")
        known = {"p": TOP, att_eq("i", bound): TOP, att_lt("j", bound): TOP, att_eq("j", 0): TOP}
        unknown = {AttEq("i", bound + 1): TOP, AttLess("j", -1): TOP, AttEq("zz", 0): TOP, "q": TOP}
        writing = replace(y, post={"e": known, "f": {**known, **unknown}})
        message = (
            "post of 'f' writes unknown atoms: 'q', AttEq(agent='i', bound=1000001), "
            "AttEq(agent='zz', bound=0), AttLess(agent='j', bound=-1)"
        )
        state = AttentionState(
            sig=sig,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),), "j": (frozenset({"w"}),)},
            valuation={"w": frozenset({"p"})},
            attention={"i": {"w": 0}, "j": {"w": 0}},
            actual="w",
        )
        with pytest.raises(AttnPlanError) as caught:
            resolve_actual(writing, state)
        assert str(caught.value) == message


class TestEquivalence:
    def test_hand_case_agrees_step_by_step(self):
        state = AttentionState(
            sig=SIG,
            worlds=("w", "v"),
            partitions={"i": (frozenset({"w", "v"}),)},
            valuation={"w": frozenset({"p"}), "v": frozenset()},
            attention={"i": {"w": 1, "v": 1}},
            actual="w",
        )
        action = paying_action(cost=1)
        y = to_post(action)
        left = kripke_rendition(attention_update(state, action))
        right = product_update(kripke_rendition(state), resolve_actual(y, state))
        assert isinstance(kripke_bisimilar(left, right), BisimWitness)

    def test_checker_reports_per_state_verdicts(self):
        state = AttentionState(
            sig=SIG,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset()},
            attention={"i": {"w": 1}},
            actual="w",
        )
        action = paying_action()
        verdicts = check_equivalent_on(action, to_post(action), [state])
        assert len(verdicts) == 1
        assert verdicts[0].equivalent
        assert "inapplicable" in verdicts[0].detail

    def test_round_trip_at_bound_600(self):
        """The compiled postconditions stay small at a large bound; the old
        disjunction chains raised RecursionError here."""
        sig = Signature(agents=("i",), attention_bound=600, prop_atoms=("p",))
        action = paying_action(cost=1, sig=sig)
        states = [
            AttentionState(
                sig=sig,
                worlds=("w", "v"),
                partitions={"i": (frozenset({"w", "v"}),)},
                valuation={"w": frozenset({"p"}), "v": frozenset()},
                attention={"i": {"w": budget, "v": budget}},
                actual="w",
            )
            for budget in (0, 1, 300, 600)
        ]
        verdicts = check_equivalent_on(action, to_post(action), states)
        assert len(verdicts) == 4
        assert all(v.equivalent for v in verdicts), verdicts

    def test_randomized_round_trip_through_postconditions(self):
        rng = random.Random(41)
        for _ in range(40):
            state, action = rand_applicable_pair(rng, SIG2, rand_attention_action)
            states = [state] + [rand_state(rng, SIG2) for _ in range(2)]
            verdicts = check_equivalent_on(action, to_post(action), states)
            assert all(v.equivalent for v in verdicts), verdicts

    def test_identity_is_never_needed(self):
        """Emptying the shared-atom tables between compiling an action and
        rendering the states, as the benchmark does between operations,
        mixes atoms that are equal but not the same objects; every verdict
        stays equivalent."""
        rng = random.Random(45)
        mixed = 0
        for _ in range(30):
            state, action = rand_applicable_pair(rng, SIG2, rand_attention_action)
            y = to_post(action)
            att_eq.cache_clear()
            att_lt.cache_clear()
            states = [state] + [rand_state(rng, SIG2) for _ in range(2)]
            for s in states:
                kripke_rendition(s)
            mixed += any(
                atom is not att_lt(atom.agent, atom.bound)
                for posts in y.post.values()
                for atom in posts
                if isinstance(atom, AttLess)
            )
            verdicts = check_equivalent_on(action, y, states)
            assert all(v.equivalent for v in verdicts), verdicts
        assert mixed >= 10

    def test_randomized_round_trip_from_postcondition_free(self):
        rng = random.Random(42)
        for _ in range(40):
            y = rand_nopost_action(rng, SIG2)
            states = [rand_state(rng, SIG2) for _ in range(3)]
            verdicts = check_equivalent_on(from_nopost(y), y, states)
            assert all(v.equivalent for v in verdicts), verdicts
