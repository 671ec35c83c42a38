"""The product update on attention states, against renditions.

``product_update`` takes an attention state when every post map of the
action is a budget shift, and returns the attention state whose rendition
is the product of the state's rendition.  These tests check that square on
seeded states and actions, check the shift reading on hand-written maps,
and compare ``check_equivalent_on``, which compares attention states when
it can, with ``reference_emulate``, which always renders, on positive and
negative verdicts alike.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

import reference_emulate as ref
from attnplan import actions, emulate
from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    EpistemicAction,
    _read_post,
    attention_update,
    product_update,
)
from attnplan.bisim import BisimWitness, bisimilar
from attnplan.emulate import _attention_posts, check_equivalent_on, resolve_actual, to_post
from attnplan.errors import AttnPlanError, IllFormedResult, NotApplicable
from attnplan.logic import (
    TOP,
    AttEq,
    AttLess,
    Not,
    PropAtom,
    Signature,
    att_eq,
    att_lt,
    bot,
)
from attnplan.models import AttentionState, EpistemicState, kripke_rendition

from generators import rand_attention_action, rand_formula, rand_state


def signature(bound: int, agents: tuple[str, ...] = ("a", "b", "c")) -> Signature:
    return Signature(agents=agents, attention_bound=bound, prop_atoms=("p", "q", "r"))


def priced(x: AttentionAction, prices: dict[str, int]) -> AttentionAction:
    """``x`` with each agent's default price replaced by ``prices``."""
    model = replace(x.model, cost=replace(x.model.cost, agent_defaults=prices))
    return replace(x, model=model)


def overcharged(x: AttentionAction) -> AttentionAction:
    """``x`` with every price it pays raised by one; free questions stay free."""
    defaults = x.model.cost.agent_defaults
    return priced(x, {agent: price + (price > 0) for agent, price in defaults.items()})


def with_propositional_entries(rng: random.Random, y: EpistemicAction) -> EpistemicAction:
    """``y`` with propositional keys added to each distinct post map, the
    first copying an attention atom, the others a propositional atom, an
    attention atom, ``T``, ``~T`` or a compound formula; maps shared before
    stay shared."""
    sig = y.sig
    bound = sig.attention_bound

    def formula(k: int):
        agent = rng.choice(sig.agents)
        atoms = [
            att_eq(agent, rng.randint(0, bound)),
            att_lt(agent, rng.randint(0, bound)),
            AttEq(agent, rng.randint(0, bound)),  # not the shared node
        ]
        others = [
            PropAtom(rng.choice(sig.prop_atoms)),
            TOP,
            bot(),
            rand_formula(rng, sig, max_modal_depth=1, max_size=5),
        ]
        return rng.choice(atoms if k == 0 else atoms + others)

    merged = {}
    for m in y.post.values():
        if id(m) not in merged:
            keys = rng.sample(sig.prop_atoms, rng.randint(1, len(sig.prop_atoms)))
            merged[id(m)] = {**m, **{key: formula(k) for k, key in enumerate(keys)}}
    return replace(y, post={e: merged[id(m)] for e, m in y.post.items()})


def compiled_cases(rng: random.Random, sig: Signature, count: int):
    """``count`` (action, compiled action) pairs over ``sig``, each agent
    charged 0, 1, the bound or one above it, half of the compiled actions
    writing propositional keys too."""
    bound = sig.attention_bound
    out = []
    while len(out) < count:
        prices = {agent: rng.choice([0, 1, bound, bound + 1]) for agent in sig.agents}
        x = priced(rand_attention_action(rng, sig, max_events=2), prices)
        try:
            y = to_post(x)
        except IllFormedResult:
            continue
        out.append((x, with_propositional_entries(rng, y) if len(out) % 2 else y))
    return out


@pytest.mark.parametrize("bound", [1, 2, 6, 40, 600])
def test_the_product_commutes_with_the_rendition(bound):
    """``kripke_rendition(product_update(s, m)) == product_update(
    kripke_rendition(s), m)`` for members of compiled families, with and
    without propositional keys, at every charge from 0 to above the bound;
    an entry copying an attention atom into a propositional key is
    labelled, since the attention state's valuation lists no attention
    atom."""
    rng = random.Random(3300 + bound)
    sig = signature(bound, ("a", "b"))
    seen: Counter[str] = Counter()
    count = 8 if bound == 600 else 30
    for x, y in compiled_cases(rng, sig, count):
        for s in [rand_state(rng, sig, max_worlds=4) for _ in range(3)]:
            try:
                m = resolve_actual(y, s)
            except NotApplicable:
                continue
            product = product_update(s, m)
            assert isinstance(product, AttentionState)
            assert kripke_rendition(product) == product_update(kripke_rendition(s), m)
            charges = {c for per_event in m._charges.values() for c in per_event.values()}
            seen.update(f"charge {c}" for c in charges & {0, 1, bound})
            seen["propositional keys"] += any(isinstance(k, str) for k in m.post[m.actual])
            seen["attention-valued propositional entry"] += any(
                isinstance(k, str) and isinstance(f, (AttEq, AttLess))
                for k, f in m.post[m.actual].items()
            )
    assert len(seen) == len({0, 1, bound}) + 2 and min(seen.values()) >= 3, seen


class TestShiftReading:
    """``_read_post`` reads an agent's attention entries as a budget shift
    by comparing each formula's interval of budgets with its key's."""

    @staticmethod
    def respelled(rng: random.Random, agent: str, bound: int, post: dict) -> dict:
        """``post`` with each formula replaced by one true at the same
        budgets in 0..bound, where another spelling exists."""

        def respell(f):
            if f == TOP:
                return rng.choice([TOP, att_lt(agent, bound + 1), AttLess(agent, bound + 7)])
            if f == bot():
                return rng.choice([bot(), att_lt(agent, 0), att_eq(agent, bound + 1)])
            if f == att_lt(agent, 1):
                return rng.choice([att_lt(agent, 1), att_eq(agent, 0)])
            return f

        return {key: respell(f) for key, f in post.items()}

    @pytest.mark.parametrize("bound", [0, 1, 2, 5])
    def test_each_spelling_of_a_shift_reads_its_charge(self, bound):
        rng = random.Random(3400 + bound)
        sig = signature(bound, ("i", "j"))
        for charge in range(bound + 3):
            for _ in range(5):
                post = self.respelled(rng, "i", bound, _attention_posts("i", charge, bound))
                assert _read_post(post, sig).charges == {"i": min(charge, bound), "j": 0}

    def test_identity_entries_are_a_zero_shift(self):
        sig = signature(3, ("i",))
        post = {
            att_eq("i", 2): att_eq("i", 2),
            att_lt("i", 0): bot(),
            att_eq("i", 0): att_lt("i", 1),
        }
        assert _read_post(post, sig).charges == {"i": 0}

    @pytest.mark.parametrize("bound", [1, 2, 5])
    def test_any_other_map_is_no_shift(self, bound):
        """Changing one entry's interval, leaving out a key the shift must
        write, a compound formula and another agent's atom are refused."""
        rng = random.Random(3500 + bound)
        sig = signature(bound, ("i", "j"))
        for charge in range(1, bound + 2):
            post = _attention_posts("i", charge, bound)
            for key, formula in post.items():
                span = actions._span(formula, "i", bound)
                wrong = [
                    f
                    for f in (TOP, bot(), att_eq("i", 1), att_lt("i", 1))
                    if actions._span(f, "i", bound) != span
                ]
                changes = [
                    {**post, key: rng.choice(wrong)},
                    {**post, key: Not(Not(formula))},
                    {**post, key: AttEq("j", 0)},
                ]
                if key != att_lt("i", 0):  # the one key a shift leaves alone
                    changes.append({k: f for k, f in post.items() if k != key})
                for changed in changes:
                    assert _read_post(changed, sig).charges["i"] is None, (key, changed)

    def test_reading_never_consults_the_compiler(self, monkeypatch):
        """The compiler's closed form is not the oracle of the reading."""
        sig = signature(4, ("i",))
        post = _attention_posts("i", 2, 4)
        monkeypatch.setattr(emulate, "_attention_posts", None)
        assert _read_post(post, sig).charges == {"i": 2}


def one_agent_action(posts: dict[str, dict], blocks) -> EpistemicAction:
    sig = signature(4, ("i",))
    events = tuple(posts)
    return EpistemicAction(
        sig=sig,
        events=events,
        q={"i": blocks},
        pre=dict.fromkeys(events, TOP),
        post=posts,
        actual=events[0],
    )


class TestProductOnAttentionStates:
    STATE = AttentionState(
        sig=signature(4, ("i",)),
        worlds=("w", "v"),
        partitions={"i": (frozenset({"w", "v"}),)},
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        attention={"i": {"w": 3, "v": 3}},
        actual="w",
    )

    def test_a_compiled_action_gives_the_rendered_product(self):
        """Compiled actions on three-agent states: the product of the
        attention state is the attention state whose rendition is the
        product of the rendition (the parent returned an epistemic state
        that had lost budget atoms), and it is bisimilar to the attention
        update."""
        rng = random.Random(1)
        sig = signature(4)
        checked = 0
        while checked < 20:
            x = rand_attention_action(rng, sig, max_events=2)
            s = rand_state(rng, sig, max_worlds=5)
            try:
                m = resolve_actual(to_post(x), s)
            except NotApplicable:
                continue
            product = product_update(s, m)
            assert isinstance(product, AttentionState)
            assert kripke_rendition(product) == product_update(kripke_rendition(s), m)
            assert isinstance(bisimilar(attention_update(s, x), product), BisimWitness)
            checked += 1

    def test_a_map_that_is_no_shift_is_a_typed_error(self):
        posts = {"e": {att_eq("i", 1): att_eq("i", 3)}, "f": {}}
        y = one_agent_action(posts, (frozenset({"e"}), frozenset({"f"})))
        with pytest.raises(AttnPlanError, match="^post of 'e' is no budget shift for agent 'i'$"):
            product_update(self.STATE, y)
        # The rendition has a product all the same.
        assert isinstance(product_update(kripke_rendition(self.STATE), y), EpistemicState)

    def test_a_charge_that_varies_on_a_block_is_a_typed_error(self):
        posts = {"e": _attention_posts("i", 1, 4), "f": _attention_posts("i", 2, 4)}
        y = one_agent_action(posts, (frozenset({"e", "f"}),))
        message = (
            "post of 'f' charges agent 'i' 2, but 'e' in its block charges 1: "
            "the budgets would not be constant on the agent's blocks"
        )
        with pytest.raises(AttnPlanError) as caught:
            product_update(self.STATE, y)
        assert str(caught.value) == message
        split = one_agent_action(posts, (frozenset({"e"}), frozenset({"f"})))
        product = product_update(self.STATE, split)
        assert product.attention == {"i": {"w*e": 2, "w*f": 1, "v*e": 2, "v*f": 1}}

    def test_the_fault_is_checked_after_applicability(self):
        posts = {"e": {att_eq("i", 1): att_eq("i", 3)}}
        y = replace(one_agent_action(posts, (frozenset({"e"}),)), pre={"e": bot()})
        with pytest.raises(NotApplicable):
            product_update(self.STATE, y)


def emulation_cases(rng: random.Random, sig: Signature, count: int):
    """``count`` (action, states) cases whose actions compile."""
    out = []
    while len(out) < count:
        x = rand_attention_action(rng, sig, max_events=2)
        try:
            to_post(x)
            to_post(overcharged(x))
        except IllFormedResult:
            continue
        out.append((x, [rand_state(rng, sig, max_worlds=5) for _ in range(4)]))
    return out


def test_verdicts_match_the_reference_when_equivalent(monkeypatch):
    """On compiled actions every verdict is the reference's, and none
    renders a state."""
    rendered = []
    rendition = emulate.kripke_rendition
    monkeypatch.setattr(emulate, "kripke_rendition", lambda s: rendered.append(s) or rendition(s))
    details: Counter[str] = Counter()
    for x, states in emulation_cases(random.Random(3601), signature(6), 25):
        y = to_post(x)
        verdicts = check_equivalent_on(x, y, states)
        assert verdicts == ref.check_equivalent_on(x, y, states)
        details.update(v.detail for v in verdicts)
    assert set(details) == {"results bisimilar", "both inapplicable"}, details
    assert rendered == []


def test_overcharged_compilations_give_the_reference_verdicts():
    """``x`` against ``to_post`` of ``x`` with every paid price raised by
    one: the maps are shifts by the wrong charges, and the verdicts, their
    rounds and distinguishing formulas are the reference's."""
    rounds: Counter[str] = Counter()
    for x, states in emulation_cases(random.Random(3602), signature(6), 25):
        y = to_post(overcharged(x))
        verdicts = check_equivalent_on(x, y, states)
        assert verdicts == ref.check_equivalent_on(x, y, states)
        rounds.update(v.detail for v in verdicts)
        assert all(v.distinguishing is not None for v in verdicts if not v.equivalent)
    assert rounds["results separated at refinement round 0"] >= 5, rounds
    assert rounds["results separated at refinement round 1"] >= 5, rounds
    assert rounds["results bisimilar"] >= 5, rounds


def test_an_applicability_mismatch_matches_the_reference():
    sig = signature(2, ("i",))
    model = AttentionActionModel(
        sig=sig,
        events=("e", "f"),
        q={"i": (frozenset({"e"}), frozenset({"f"}))},
        qstar={"i": (frozenset({"e", "f"}),)},
        pre={"e": PropAtom("p"), "f": Not(PropAtom("p"))},
        cost=CostTable(default=1),
    )
    x = AttentionAction(name="x", model=model, questions={"i": PropAtom("p")}, actual="e")
    y = to_post(replace(x, actual="f"))
    states = [
        AttentionState(
            sig=sig,
            worlds=("w", "v"),
            partitions={"i": (frozenset({"w", "v"}),)},
            valuation={"w": frozenset({"p"}), "v": frozenset()},
            attention={"i": {"w": budget, "v": budget}},
            actual=actual,
        )
        for budget in (0, 2)
        for actual in ("w", "v")
    ]
    verdicts = check_equivalent_on(x, y, states)
    assert verdicts == ref.check_equivalent_on(x, y, states)
    assert [v.detail for v in verdicts[:2]] == [
        "applicability mismatch at 'w': attention side True, epistemic side False",
        "applicability mismatch at 'v': attention side False, epistemic side True",
    ]


def test_a_faulty_compiler_is_caught_on_renditions(monkeypatch):
    """With ``_attention_posts`` off by one at a single entry the maps are
    no shifts, so the check falls back to renditions: the verdicts are the
    reference's and some of them are negative."""
    posts = emulate._attention_posts

    def off_by_one(agent: str, cost: int, bound: int):
        out = posts(agent, cost, bound)
        if out and cost + 2 <= bound:
            out[att_lt(agent, 1)] = att_lt(agent, cost + 2)
        return out

    monkeypatch.setattr(emulate, "_attention_posts", off_by_one)
    details: Counter[str] = Counter()
    faulty = 0
    for x, states in emulation_cases(random.Random(3603), signature(6), 25):
        y = to_post(x)
        faulty += isinstance(y._charges, str)
        verdicts = check_equivalent_on(x, y, states)
        assert verdicts == ref.check_equivalent_on(x, y, states)
        details.update(v.detail.split(" at ")[0] for v in verdicts)
    assert faulty >= 10
    assert details["results separated"] >= 5, details
