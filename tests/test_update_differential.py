"""Differential tests: grouped updates and the branch kernel against the
all-pairs reference versions in ``reference_update``.

Random actions come in two kinds: the rejection-sampled ones of
``generators`` (every update defined) and unfiltered ones, whose branch
relations are often intransitive, so that both sides must raise the same
IllFormedResult with the same agent and witness.
"""

import random

import pytest

import reference_update as reference
from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    _Labelling,
    attention_update,
    branch_classes,
    validate_action,
)
from attnplan.emulate import profiles_for, to_post
from attnplan.errors import AttnPlanError, IllFormedResult
from attnplan.logic import And, Know, Not, PropAtom, Signature, TOP, entails
from attnplan.models import AttentionState, _eval

from generators import (
    SIG2,
    rand_applicable_pair,
    rand_attention_action,
    rand_formula,
    rand_partition,
    rand_propositional,
    rand_state,
)

SIG = Signature(agents=("i",), attention_bound=2, prop_atoms=("p",))
P = PropAtom("p")


def rand_unfiltered_action(rng: random.Random, sig: Signature) -> AttentionAction:
    """A random action with no check that its branch relations are transitive."""
    events = tuple(f"e{j}" for j in range(rng.randint(1, 4)))
    model = AttentionActionModel(
        sig=sig,
        events=events,
        q={agent: rand_partition(rng, events) for agent in sig.agents},
        qstar={agent: rand_partition(rng, events) for agent in sig.agents},
        pre={
            e: TOP if rng.random() < 0.4 else rand_propositional(rng, sig)
            for e in events
        },
        cost=CostTable(
            agent_defaults={
                agent: rng.randint(0, sig.attention_bound + 1) for agent in sig.agents
            }
        ),
    )
    questions = {
        agent: rand_propositional(rng, sig)
        for agent in sig.agents
        if rng.random() < 0.8
    }
    return AttentionAction(
        name="unfiltered", model=model, questions=questions, actual=rng.choice(events)
    )


def outcome(update, s: AttentionState, x: AttentionAction):
    """The update's result, or the type and payload of the error it raised."""
    try:
        return update(s, x)
    except IllFormedResult as exc:
        return ("IllFormedResult", exc.agent, exc.witness)
    except AttnPlanError as exc:
        return (type(exc).__name__,)


def assert_same_update(s: AttentionState, x: AttentionAction) -> object:
    fast = outcome(attention_update, s, x)
    slow = outcome(reference.attention_update, s, x)
    if not isinstance(slow, AttentionState):
        assert fast == slow
        return slow
    assert isinstance(fast, AttentionState), fast
    assert fast.worlds == slow.worlds
    assert fast.actual == slow.actual
    assert fast.valuation == slow.valuation
    assert fast.attention == slow.attention
    for agent in s.sig.agents:
        assert set(fast.partitions[agent]) == set(slow.partitions[agent])
    return slow


def answers_of(x: AttentionAction, agent: str) -> dict[str, bool]:
    model = x.model
    return {e: entails(x.sig, model.pre[e], x.questions[agent]) for e in model.events}


def reference_to_post_blocks(x: AttentionAction):
    """to_post's relation, rebuilt from the reference branch classes."""
    agents = x.sig.agents
    profiles = profiles_for(len(agents))
    out = {}
    for k, agent in enumerate(agents):
        blocks = set()
        per_bit = reference.branch_blocks(x.model, agent, answers_of(x, agent))
        for bit, components in enumerate(per_bit):
            for group in components:
                blocks.add(
                    frozenset(
                        f"{e}@{p.tag()}" for e in group for p in profiles if p.bits[k] == bit
                    )
                )
        out[agent] = blocks
    return out


def assert_same_kernel(x: AttentionAction) -> None:
    model = x.model
    for agent in x.sig.agents:
        relations = branch_classes(model, agent, answers_of(x, agent))
        try:
            expected = reference.branch_blocks(model, agent, answers_of(x, agent))
        except IllFormedResult as exc:
            first = next(r.witness for r in relations if r.witness is not None)
            assert first == exc.witness
        else:
            assert all(r.witness is None for r in relations)
            for relation, components in zip(relations, expected):
                assert set(relation.classes) == {frozenset(c) for c in components}
        union = branch_classes(model, agent)[0]
        assert (union.witness is None) == reference.union_transitive(model, agent)
        total = len(union.classes) <= 1 and union.witness is None
        assert total == reference.union_total(model, agent)
    warned = {
        agent
        for agent in x.sig.agents
        if any(
            d.severity == "warning" and f"not transitive for agent {agent!r}" in d.message
            for d in validate_action(x)
        )
    }
    assert warned == {
        agent for agent in x.sig.agents if not reference.union_transitive(model, agent)
    }
    try:
        expected_q = reference_to_post_blocks(x)
    except IllFormedResult as exc:
        with pytest.raises(IllFormedResult) as info:
            to_post(x)
        assert (info.value.agent, info.value.witness) == (exc.agent, exc.witness)
    else:
        compiled = to_post(x)
        assert {a: set(compiled.q[a]) for a in x.sig.agents} == expected_q


@pytest.mark.parametrize("sig", [SIG, SIG2], ids=["SIG", "SIG2"])
def test_well_formed_updates_match_all_pairs(sig):
    rng = random.Random(4101 if sig is SIG else 4102)
    for _ in range(160):
        s, x = rand_applicable_pair(rng, sig, rand_attention_action)
        assert isinstance(assert_same_update(s, x), AttentionState)


@pytest.mark.parametrize("sig", [SIG, SIG2], ids=["SIG", "SIG2"])
def test_unfiltered_updates_raise_the_same_witness(sig):
    rng = random.Random(4201 if sig is SIG else 4202)
    kinds = []
    for _ in range(250):
        s, x = rand_applicable_pair(rng, sig, rand_unfiltered_action, max_worlds=5)
        result = assert_same_update(s, x)
        kinds.append(result[0] if isinstance(result, tuple) else "ok")
    # Both paths must actually be exercised.
    assert kinds.count("IllFormedResult") >= 20
    assert kinds.count("ok") >= 20


@pytest.mark.parametrize("sig", [SIG, SIG2], ids=["SIG", "SIG2"])
def test_kernel_matches_reference_relations(sig):
    rng = random.Random(4301 if sig is SIG else 4302)
    for _ in range(150):
        assert_same_kernel(rand_unfiltered_action(rng, sig))
        assert_same_kernel(rand_attention_action(rng, sig))


def _pinned_model(pre_e2=TOP) -> AttentionActionModel:
    """q union qstar is intransitive: e1 ~ e2 by q, e2 ~ e3 by qstar."""
    return AttentionActionModel(
        sig=SIG,
        events=("e1", "e2", "e3"),
        q={"i": (frozenset({"e1", "e2"}), frozenset({"e3"}))},
        qstar={"i": (frozenset({"e1"}), frozenset({"e2", "e3"}))},
        pre={"e1": TOP, "e2": pre_e2, "e3": TOP},
        cost=CostTable(default=1),
    )


def _answer_split_model() -> AttentionActionModel:
    """q union qstar is total, but attending splits qstar by the answer to
    ``p``: e1 ~ e2 by q, e2 ~ e3 by the same answer, e1 and e3 apart."""
    return AttentionActionModel(
        sig=SIG,
        events=("e1", "e2", "e3"),
        q={"i": (frozenset({"e1", "e2"}), frozenset({"e3"}))},
        qstar={"i": (frozenset({"e1", "e2", "e3"}),)},
        pre={"e1": P, "e2": Not(P), "e3": Not(P)},
        cost=CostTable(default=1),
    )


HAND_BUILT = [
    AttentionAction(name="pinned", model=_pinned_model(), actual="e1"),
    AttentionAction(name="partial", model=_pinned_model(pre_e2=P), actual="e1"),
    AttentionAction(
        name="split", model=_answer_split_model(), questions={"i": P}, actual="e2"
    ),
]


@pytest.mark.parametrize("x", HAND_BUILT, ids=[x.name for x in HAND_BUILT])
def test_hand_built_intransitive_models(x):
    assert_same_kernel(x)
    rng = random.Random(4401)
    kinds = set()
    for _ in range(120):
        s = rand_state(rng, SIG, max_worlds=5)
        result = assert_same_update(s, x)
        kinds.add(result[0] if isinstance(result, tuple) else "ok")
    assert "IllFormedResult" in kinds


def test_split_model_fails_only_when_attending():
    x = HAND_BUILT[2]
    assert branch_classes(x.model, "i")[0].witness is None
    assert branch_classes(x.model, "i", answers_of(x, "i"))[1].witness is not None
    assert not any("not transitive" in d.message for d in validate_action(x))
    state = AttentionState(
        sig=SIG,
        worlds=("w", "v"),
        partitions={"i": (frozenset({"w", "v"}),)},
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        attention={"i": {"w": 1, "v": 1}},
        actual="v",
    )
    with pytest.raises(IllFormedResult) as info:
        attention_update(state, x)
    assert info.value.witness == ("w*e1", "v*e2", "v*e3")
    poor = AttentionState(
        sig=SIG,
        worlds=state.worlds,
        partitions=state.partitions,
        valuation=state.valuation,
        attention={"i": {"w": 0, "v": 0}},
        actual="v",
    )
    out = attention_update(poor, x)
    assert out.partitions["i"] == (frozenset({"w*e1", "v*e2", "v*e3"}),)


def test_extension_sets_match_per_world_eval():
    rng = random.Random(4501)
    for _ in range(300):
        s = rand_state(rng, SIG2, max_worlds=5)
        f = rand_formula(rng, SIG2, max_modal_depth=2, max_size=9)
        # Share one node several times so the memo is exercised.
        g = And(Not(Know("a", f)), And(f, Know("b", Not(f))))
        labels = _Labelling(s)
        for formula in (f, g):
            mask = labels.extension(formula)
            for k, w in enumerate(s.worlds):
                assert bool(mask >> k & 1) == _eval(s, formula, w)


def test_survivors_match_per_world_eval():
    rng = random.Random(4502)
    for _ in range(150):
        s, x = rand_applicable_pair(rng, SIG2, rand_attention_action, max_worlds=5)
        expected = [f"{w}*{e}" for w, e in reference.survivors(s, x.model)]
        assert list(attention_update(s, x).worlds) == expected
