"""Differential tests: grouped updates, the branch kernel, the shared
evaluators and the closed-form budget postconditions of ``to_post`` against
the reference versions in ``reference_update``.

Random actions come in two kinds: the rejection-sampled ones of
``generators`` (every update defined) and unfiltered ones, whose branch
relations are often intransitive, so that both sides must raise the same
IllFormedResult with the same agent and witness.  Every update that
succeeds must also give a well-formed state, which ``attention_update``
itself no longer checks.  Priced actions carry explicit cost entries, so
the library's indexed price lookup meets the reference's scanning one.
Along muddy-children plans and on states of 8 to 12 worlds the update must
equal the reference field for field and in order, and one action applied
to many states in turn shows that its tag table never goes stale.
"""

import random
from collections import Counter
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import pytest

import reference_update as reference
from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    applicable,
    attention_update,
    branch_classes,
    product_update,
    validate_action,
)
from attnplan.emulate import (
    _attention_posts,
    check_equivalent_on,
    profiles_for,
    resolve_actual,
    to_post,
)
from attnplan.errors import AttnPlanError, CostLookupError, IllFormedResult, NotApplicable
from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Know,
    Not,
    PropAtom,
    Signature,
    TOP,
    Top,
    att_eq,
    att_lt,
    entails,
    format_formula,
    parse_formula,
    subformulas,
)
from attnplan.models import (
    AttentionState,
    EpistemicState,
    _eval,
    _Labelling,
    kripke_rendition,
    validate_state,
)

from generators import (
    SIG2,
    muddy_children,
    rand_applicable_pair,
    rand_attention_action,
    rand_epistemic_state,
    rand_formula,
    rand_atom_post_action,
    rand_nfl_action,
    rand_partition,
    rand_post_action,
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
    assert validate_state(fast) == []
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
        # Both generators price every question, so the derivation succeeds.
        assert x._branches[agent] == relations
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


def rand_priced_action(rng: random.Random, sig: Signature) -> AttentionAction:
    return rand_attention_action(rng, sig, priced=True)


@pytest.mark.parametrize("sig", [SIG, SIG2], ids=["SIG", "SIG2"])
def test_priced_updates_match_the_reference(sig):
    """Duplicated, conflicting and negative entries: both updates charge the
    same prices or both refuse, and ``to_post`` reads the same prices."""
    rng = random.Random(4701 if sig is SIG else 4702)
    kinds = []
    for _ in range(150):
        s, x = rand_applicable_pair(rng, sig, rand_priced_action)
        result = assert_same_update(s, x)
        kinds.append(result[0] if isinstance(result, tuple) else "ok")
        if kinds[-1] == "ok":
            assert all(v.equivalent for v in check_equivalent_on(x, to_post(x), [s]))
        else:
            with pytest.raises(CostLookupError):
                to_post(x)
    assert set(kinds) == {"ok", "CostLookupError"}
    assert kinds.count("CostLookupError") >= 15
    assert kinds.count("ok") >= 60


def test_cost_of_matches_the_scanning_oracle():
    """Every (agent, question, event) of seeded priced actions, unknown agent
    and event included, with defaults dropped or negative at times."""
    rng = random.Random(4801)
    seen = Counter()
    for _ in range(300):
        make = rand_attention_action if rng.random() < 0.5 else rand_nfl_action
        model = make(rng, SIG2, max_events=4, priced=True).model
        cost = replace(
            model.cost,
            agent_defaults={
                agent: rng.choice([value, -1])
                for agent, value in model.cost.agent_defaults.items()
                if rng.random() < 0.6
            },
            default=rng.choice([None, -1, 0, 1, 2]),
        )
        model = replace(model, cost=cost)
        questions = {TOP, rand_propositional(rng, SIG2), *(e.formula for e in cost.entries)}
        for agent in (*SIG2.agents, "zz"):
            for question in questions:
                for event in (*model.events, "zz"):
                    try:
                        fast = model.cost_of(agent, question, event)
                    except CostLookupError as exc:
                        with pytest.raises(CostLookupError):
                            reference.cost_of(model, agent, question, event)
                        seen[str(exc).split()[0]] += 1  # the refusal's kind
                    else:
                        assert fast == reference.cost_of(model, agent, question, event)
                        seen["price"] += 1
    assert min(seen[kind] for kind in ("conflicting", "negative", "no", "unknown")) >= 100
    assert seen["price"] >= 1000


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


SIG3 = Signature(agents=("a", "b", "c"), attention_bound=4, prop_atoms=("p", "q"))


def in_order(s: AttentionState) -> tuple:
    """Every field, with the order of each map's keys and of each agent's
    blocks, which ``==`` ignores."""
    return (
        s.worlds,
        list(s.partitions.items()),
        list(s.valuation.items()),
        [(agent, list(budgets.items())) for agent, budgets in s.attention.items()],
        s.actual,
    )


def assert_same_fields(s: AttentionState, x: AttentionAction) -> object:
    """The update equals the reference field for field and in order, or both
    raise the same error, an IllFormedResult with the same witness."""
    fast = outcome(attention_update, s, x)
    slow = outcome(reference.attention_update, s, x)
    if isinstance(slow, AttentionState):
        assert isinstance(fast, AttentionState), fast
        assert in_order(fast) == in_order(slow)
    assert fast == slow
    return slow


@pytest.mark.parametrize("n", [4, 5, 6])
def test_muddy_children_plans_match_the_reference(n):
    """Every state along the plan, replayed uncontracted; then from budgets
    drawn per child in 0..2, where some children cannot pay for the question
    and the replay runs until ``attend`` is no longer applicable."""
    rng = random.Random(5000 + n)
    for budgets in (None, {f"c{k}": rng.randint(0, 2) for k in range(n)}):
        state, attend = muddy_children(rng, n, budgets)
        steps = 0
        while steps < n + 1 and applicable(state, attend):
            state = assert_same_fields(state, attend)
            steps += 1
        assert steps >= n - 2


@pytest.mark.parametrize("sig", [SIG2, SIG3], ids=["SIG2", "SIG3"])
def test_large_states_match_the_reference(sig):
    """8 to 12 worlds whose budgets differ from block to block, 0 included,
    under well-formed and unfiltered actions."""
    rng = random.Random(5101 if sig is SIG2 else 5102)
    kinds = Counter()
    for _ in range(80):
        for make in (rand_attention_action, rand_unfiltered_action):
            while True:
                s = rand_state(rng, sig, max_worlds=12, min_worlds=8)
                x = make(rng, sig)
                if applicable(s, x):
                    break
            result = assert_same_fields(s, x)
            kinds[result[0] if isinstance(result, tuple) else "ok"] += 1
    assert kinds["ok"] >= 80
    assert kinds["IllFormedResult"] >= 10


def test_one_action_updates_many_states_exactly():
    """One action object updates 40 or more states whose budgets differ;
    every update equals the reference's."""
    rng = random.Random(5201)
    for make in (rand_attention_action, rand_unfiltered_action):
        states: list[AttentionState] = []
        while len(states) < 40:  # an action whose actual event fires often
            x = make(rng, SIG3)
            drawn = [rand_state(rng, SIG3, max_worlds=12, min_worlds=8) for _ in range(100)]
            states = [s for s in drawn if applicable(s, x)]
        for s in states:
            assert_same_fields(s, x)


def test_far_apart_budgets_update_exactly():
    """Bound 40, budgets 3 and 17 in one state and 0 in another: each update
    equals the reference's."""
    sig = Signature(agents=("i",), attention_bound=40, prop_atoms=("p",))
    model = AttentionActionModel(
        sig=sig,
        events=("e1", "e2"),
        q={},
        qstar={"i": (frozenset({"e1", "e2"}),)},
        pre={"e1": P, "e2": TOP},
        cost=CostTable(default=2),
    )
    x = AttentionAction("x", model, {"i": P}, "e1")

    def state(budgets: tuple[int, ...]) -> AttentionState:
        worlds = tuple(f"w{k}" for k in range(len(budgets)))
        return AttentionState(
            sig=sig,
            worlds=worlds,
            partitions={"i": tuple(frozenset({w}) for w in worlds)},
            valuation=dict.fromkeys(worlds, frozenset({"p"})),
            attention={"i": dict(zip(worlds, budgets))},
            actual="w0",
        )

    assert_same_fields(state((3, 17, 3)), x)
    assert_same_fields(state((0,)), x)


def test_extension_sets_match_per_world_eval():
    rng = random.Random(4501)
    # A second stream keeps the attention states and formulas of the first.
    rng_k = random.Random(4503)
    for _ in range(300):
        s = rand_state(rng, SIG2, max_worlds=5)
        f = rand_formula(rng, SIG2, max_modal_depth=2, max_size=9)
        # Share one node several times so the memo is exercised.
        g = And(Not(Know("a", f)), And(f, Know("b", Not(f))))
        for state in (s, kripke_rendition(s), rand_epistemic_state(rng_k, SIG2, 5)):
            labels = _Labelling(state)
            for formula in (f, g):
                mask = labels.extension(formula)
                for k, w in enumerate(state.worlds):
                    truth = _eval(state, formula, w)
                    assert bool(mask >> k & 1) == truth
                    if isinstance(state, EpistemicState):
                        assert truth == reference.eval_epistemic(state, formula, w)


def test_atom_masks_on_demand_match_per_world_eval():
    """Atom masks are built when a formula first names an atom and kept in
    the value-keyed memo: formulas that repeat an atom in separate nodes, atoms that no
    world lists, on attention states, their renditions and epistemic states
    whose worlds list attention atoms."""
    sig = Signature(agents=("a", "b"), attention_bound=2, prop_atoms=("p", "q", "r"))
    rng = random.Random(4505)
    seen: Counter[str] = Counter()
    for _ in range(300):
        s = rand_state(rng, sig, max_worlds=5)
        k = rand_epistemic_state(rng, sig, max_worlds=5)
        if rng.random() < 0.5:  # no world lists r
            s = replace(s, valuation={w: v - {"r"} for w, v in s.valuation.items()})
            k = replace(k, valuation={w: v - {"r"} for w, v in k.valuation.items()})
        f = rand_formula(rng, sig, max_modal_depth=2, max_size=9)
        copy = parse_formula(sig, format_formula(f))  # new nodes, same names
        formulas = (
            f,
            copy,
            And(Not(copy), Know("b", f)),
            *map(PropAtom, sig.prop_atoms),
        )
        for state in (s, kripke_rendition(s), k):
            labels = _Labelling(state)
            for formula in formulas:
                mask = labels.extension(formula)
                for j, w in enumerate(state.worlds):
                    assert bool(mask >> j & 1) == _eval(state, formula, w)
            listed = set().union(*state.valuation.values())
            seen["unlisted atom"] += any(a not in listed for a in sig.prop_atoms)
            seen["attention atoms listed"] += any(not isinstance(a, str) for a in listed)
        seen["repeated name"] += any(isinstance(node, PropAtom) for node in subformulas(f))
    assert min(seen.values()) >= 100 and len(seen) == 3, seen


def test_labelling_builds_atom_masks_by_name_when_asked():
    """The memo starts empty and is keyed by value: each distinct atom is
    labelled once, one valuation read per world, however many nodes name
    it, and an equal formula built anew is answered from the memo."""
    s = rand_state(random.Random(4506), SIG2, max_worlds=6, min_worlds=6)
    reads = Counter()

    class CountingValuation(dict):
        def __getitem__(self, world):
            reads[world] += 1
            return super().__getitem__(world)

    view = SimpleNamespace(
        worlds=s.worlds,
        partitions=s.partitions,
        valuation=CountingValuation(s.valuation),
        holds_attention=s.holds_attention,
    )
    labels = _Labelling(view)
    assert labels.memo == {}
    formulas = (
        And(PropAtom("p"), Not(PropAtom("p"))),
        Know("b", PropAtom("p")),
        PropAtom("q"),
        And(PropAtom("q"), Know("b", PropAtom("p"))),
    )
    for formula, atoms in zip(formulas, ("p", "p", "pq", "pq")):
        mask = labels.extension(formula)
        assert sorted(g.name for g in labels.memo if isinstance(g, PropAtom)) == list(atoms)
        assert reads == dict.fromkeys(s.worlds, len(atoms))
        size = len(labels.memo)
        assert labels.extension(deepcopy(formula)) == mask and len(labels.memo) == size
        assert [bool(mask >> k & 1) for k in range(6)] == [_eval(s, formula, w) for w in s.worlds]


def test_labelling_builds_masks_for_the_agents_it_meets():
    s = rand_state(random.Random(4504), SIG3, max_worlds=6, min_worlds=6)
    labels = _Labelling(s)
    # Both formulas stay alive: the memo is keyed by node identity.
    first, second = And(Know("b", P), Not(Know("b", Not(P)))), Know("c", Know("a", P))
    labels.extension(first)
    assert list(labels.blocks) == ["b"]
    labels.extension(second)
    assert sorted(labels.blocks) == ["a", "b", "c"]


@pytest.mark.parametrize("sig", [SIG, SIG2], ids=["SIG", "SIG2"])
def test_product_update_matches_per_world_reference(sig):
    rng = random.Random(4601 if sig is SIG else 4602)
    for _ in range(120):
        s, x = rand_applicable_pair(rng, sig, rand_attention_action, max_worlds=5)
        k = kripke_rendition(s)
        compiled = to_post(x)
        # Unresolved, the all-attending actual may not fire at s.
        for y in (compiled, resolve_actual(compiled, s)):
            try:
                slow = reference.product_update(k, y)
            except NotApplicable:
                with pytest.raises(NotApplicable):
                    product_update(k, y)
                continue
            fast = product_update(k, y)
            assert fast.worlds == slow.worlds
            assert fast.partitions == slow.partitions
            assert fast.valuation == slow.valuation
            assert fast.actual == slow.actual


def epistemic_in_order(k: EpistemicState) -> str:
    """Every field as text, with the order of each map's keys and of each
    agent's blocks; the members of a set, which have no order, sorted."""
    return repr((
        k.worlds,
        [(agent, [sorted(block) for block in blocks]) for agent, blocks in k.partitions.items()],
        [(w, sorted(map(repr, atoms))) for w, atoms in k.valuation.items()],
        k.actual,
    ))


def test_hand_built_product_updates_match_the_reference():
    """Plain actions ``to_post`` never writes: compound and propositional
    postconditions, maps shared between events or not, and keys whose
    formulas share an extension, on renditions and on epistemic states
    that list arbitrary attention atoms.  The update refuses exactly where
    ``applicable`` says no."""
    rng = random.Random(4603)
    seen: Counter[str] = Counter()
    for _ in range(300):
        y = rand_post_action(rng, SIG2)
        s = rand_state(rng, SIG2, max_worlds=5)
        for k in (kripke_rendition(s), rand_epistemic_state(rng, SIG2, 5)):
            applies = applicable(k, y)
            try:
                slow = reference.product_update(k, y)
            except NotApplicable:
                with pytest.raises(NotApplicable):
                    product_update(k, y)
                assert not applies
                seen["refused"] += 1
                continue
            fast = product_update(k, y)
            assert applies
            assert epistemic_in_order(fast) == epistemic_in_order(slow)
            assert fast == slow
            seen["applied"] += 1
            events = dict.fromkeys(name.split("*")[1] for name in fast.worlds)
            maps = [y.post[e] for e in events if e in y.post]
            formulas = [f for post in maps for f in post.values()]
            nodes = {type(node).__name__ for f in formulas for node in subformulas(f)}
            seen.update(kind for kind in ("Know", "And", "Not") if kind in nodes)
            seen["propositional key"] += any(isinstance(a, str) for post in maps for a in post)
            seen["shared map"] += len({id(post) for post in maps}) < len(maps)
            labels = _Labelling(k)
            seen["keys sharing an extension"] += any(
                len({labels.extension(f) for f in post.values()}) < len(post) for post in maps
            )
    assert min(seen.values()) >= 20 and len(seen) == 8, seen


@pytest.mark.parametrize("sig", [SIG, SIG2], ids=["SIG", "SIG2"])
def test_updates_refuse_exactly_where_applicable_says_no(sig):
    """On unfiltered pairs, each update raises NotApplicable exactly when
    ``applicable`` returns False: attention actions on attention states,
    and each member of their ``to_post`` families on renditions and on
    epistemic states that list arbitrary attention atoms."""
    rng = random.Random(4801 if sig is SIG else 4802)
    seen: Counter[tuple[str, bool]] = Counter()
    for _ in range(150):
        s = rand_state(rng, sig, max_worlds=5)
        x = rand_attention_action(rng, sig)
        applies = applicable(s, x)
        assert (outcome(attention_update, s, x) == ("NotApplicable",)) is not applies
        seen["attention", applies] += 1
        compiled = to_post(x)
        for k in (kripke_rendition(s), rand_epistemic_state(rng, sig, 5)):
            for y in map(compiled._member, compiled.actual_family):
                applies = applicable(k, y)
                assert (outcome(product_update, k, y) == ("NotApplicable",)) is not applies
                seen["epistemic", applies] += 1
    assert len(seen) == 4 and min(seen.values()) >= 30, seen


def entry_kind(sig: Signature, post: dict, formula) -> str:
    """Which way ``product_update`` reads a post entry's formula."""
    if isinstance(formula, Top):
        return "T"
    if formula == Not(TOP):
        return "~T"
    if isinstance(formula, PropAtom):
        atom = formula.name
    elif isinstance(formula, (AttEq, AttLess)):
        atom = formula
    else:
        return "compound"
    if atom in post:
        return "reads a key of its map"
    if isinstance(atom, str):
        return "propositional atom"
    if atom.bound > sig.attention_bound:
        return "above the bound"
    shared = (att_eq if isinstance(atom, AttEq) else att_lt)(atom.agent, atom.bound)
    return "shared attention atom" if atom is shared else "directly built attention atom"


def test_atom_valued_post_entries_match_the_reference():
    """Post formulas that are bare atoms are read by membership in the
    source world's valuation, the others by their extensions; either way
    the product equals the per-world reference, field by field and in
    order.  Every atom kind holds at some survivors and fails at others;
    ``T`` holds and ``~T`` and the atoms above the bound fail everywhere."""
    rng = random.Random(4604)
    seen: Counter[tuple[str, str]] = Counter()
    for _ in range(300):
        y = rand_atom_post_action(rng, SIG2)
        s = rand_state(rng, SIG2, max_worlds=5)
        for k in (kripke_rendition(s), rand_epistemic_state(rng, SIG2, 5)):
            try:
                slow = reference.product_update(k, y)
            except NotApplicable:
                with pytest.raises(NotApplicable):
                    product_update(k, y)
                continue
            fast = product_update(k, y)
            assert epistemic_in_order(fast) == epistemic_in_order(slow)
            assert fast == slow
            pairs = [name.split("*") for name in fast.worlds]
            for post in {id(m): m for m in y.post.values()}.values():
                sources = [w for w, e in pairs if y.post.get(e) is post]
                for formula in post.values() if sources else ():
                    kind = entry_kind(SIG2, post, formula)
                    truths = {reference.eval_epistemic(k, formula, w) for w in sources}
                    outcome = "mixed" if len(truths) == 2 else ("fails", "holds")[truths.pop()]
                    seen[kind, outcome] += 1
    constant = {"T": "holds", "~T": "fails", "above the bound": "fails"}
    varying = {kind for kind, _ in seen} - set(constant)
    assert len(varying) == 5 and all(seen[kind, "mixed"] >= 20 for kind in varying), seen
    assert all(seen[kind, outcome] >= 20 for kind, outcome in constant.items()), seen
    assert all(outcome == constant.get(kind, outcome) for kind, outcome in seen), seen


def test_survivors_match_per_world_eval():
    rng = random.Random(4502)
    for _ in range(150):
        s, x = rand_applicable_pair(rng, SIG2, rand_attention_action, max_worlds=5)
        expected = [f"{w}*{e}" for w, e in reference.survivors(s, x.model)]
        assert list(attention_update(s, x).worlds) == expected


@pytest.mark.parametrize("bound", range(9))
def test_closed_form_budget_posts_match_the_disjunctions(bound):
    """At every budget a rendition can carry, each attention atom's closed-form
    postcondition and its disjunction have the atom's truth after the charge,
    on a one-world state and on its rendition."""
    sig = Signature(agents=("i",), attention_bound=bound, prop_atoms=("p",))

    def one_world(budget: int) -> AttentionState:
        return AttentionState(
            sig=sig,
            worlds=("w",),
            partitions={"i": (frozenset({"w"}),)},
            valuation={"w": frozenset()},
            attention={"i": {"w": budget}},
            actual="w",
        )

    for cost in range(1, bound + 4):
        closed = _attention_posts("i", cost, bound)
        seed = reference.attention_posts("i", cost, bound)
        assert closed.keys() == seed.keys()
        for budget in range(bound + 1):
            s = one_world(budget)
            after = one_world(max(0, budget - cost))
            for state in (s, kripke_rendition(s)):
                for atom in seed:
                    expected = _eval(after, atom, "w")
                    assert _eval(state, closed[atom], "w") == expected
                    assert _eval(state, seed[atom], "w") == expected
