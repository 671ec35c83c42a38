"""Seeded random generators for property suites.

Everything takes an explicit ``random.Random`` so failures replay exactly.
The action generators rejection-sample into the class where the update is
total (both per-agent branch relations transitive), which is also the
class the postcondition compiler accepts; the ill-formed path is covered
by targeted fixtures and by ``rand_attention_action(..., total=False)``.
Both action generators price by defaults alone unless asked for
``priced`` actions, which also carry explicit cost entries.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations

from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostEntry,
    CostTable,
    EpistemicAction,
    applicable,
)
from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Formula,
    Know,
    Not,
    PropAtom,
    Signature,
    TOP,
    and_all,
    entails,
)
from attnplan.models import AttentionState, EpistemicState
from attnplan.planner import PlanningTask

SIG2 = Signature(agents=("a", "b"), attention_bound=2, prop_atoms=("p", "q"))


def rand_formula(
    rng: random.Random,
    sig: Signature,
    max_modal_depth: int = 2,
    max_size: int = 9,
) -> Formula:
    """A random formula with bounded modal depth and node budget."""

    def build(depth: int, size: int) -> tuple[Formula, int]:
        leaves = ["top", "atom", "atteq", "attless"]
        inner = ["not", "and"] + (["know"] if depth > 0 else [])
        kind = rng.choice(leaves if size <= 1 else leaves + inner * 2)
        if kind == "top":
            return TOP, 1
        if kind == "atom":
            return PropAtom(rng.choice(sig.prop_atoms)), 1
        if kind == "atteq":
            return (
                AttEq(rng.choice(sig.agents), rng.randint(0, sig.attention_bound)),
                1,
            )
        if kind == "attless":
            return (
                AttLess(rng.choice(sig.agents), rng.randint(0, sig.attention_bound)),
                1,
            )
        if kind == "not":
            sub, used = build(depth, size - 1)
            return Not(sub), used + 1
        if kind == "know":
            sub, used = build(depth - 1, size - 1)
            return Know(rng.choice(sig.agents), sub), used + 1
        left, used_l = build(depth, size - 1)
        right, used_r = build(depth, size - 1 - used_l)
        return And(left, right), used_l + used_r + 1

    return build(max_modal_depth, max_size)[0]


def rand_propositional(rng: random.Random, sig: Signature, max_size: int = 5) -> Formula:
    """A random formula over proposition atoms only (for preconditions)."""

    def build(size: int) -> Formula:
        kind = rng.choice(
            ["atom", "top"] if size <= 1 else ["atom", "atom", "not", "and"]
        )
        if kind == "top":
            return TOP
        if kind == "atom":
            return PropAtom(rng.choice(sig.prop_atoms))
        if kind == "not":
            return Not(build(size - 1))
        return And(build(size // 2), build(size // 2))

    return build(max_size)


def rand_partition(rng: random.Random, items: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """A uniform-ish random partition by bucket assignment."""
    buckets: dict[int, set[str]] = {}
    for item in items:
        buckets.setdefault(rng.randrange(1, len(items) + 1), set()).add(item)
    blocks = [frozenset(b) for b in buckets.values()]
    blocks.sort(key=lambda b: min(items.index(x) for x in b))
    return tuple(blocks)


def rand_state(
    rng: random.Random, sig: Signature, max_worlds: int = 4, min_worlds: int = 1
) -> AttentionState:
    """Each agent's budget is drawn per block, from 0 to the bound."""
    count = rng.randint(min_worlds, max_worlds)
    worlds = tuple(f"w{j}" for j in range(count))
    partitions = {agent: rand_partition(rng, worlds) for agent in sig.agents}
    valuation = {
        w: frozenset(t for t in sig.prop_atoms if rng.random() < 0.5) for w in worlds
    }
    attention = {}
    for agent in sig.agents:
        per_world: dict[str, int] = {}
        for block in partitions[agent]:
            budget = rng.randint(0, sig.attention_bound)
            for w in block:
                per_world[w] = budget
        attention[agent] = per_world
    return AttentionState(
        sig=sig,
        worlds=worlds,
        partitions=partitions,
        valuation=valuation,
        attention=attention,
        actual=rng.choice(worlds),
    )


def rand_discrete_state(
    rng: random.Random, sig: Signature, max_worlds: int = 4
) -> AttentionState:
    """A ``rand_state`` whose worlds all differ in valuation or budgets, so
    that its colour column is injective (rejection-sampled)."""
    while True:
        s = rand_state(rng, sig, max_worlds=max_worlds)
        if len(set(s.colours)) == len(s.worlds):
            return s


def muddy_children(
    rng: random.Random, n: int, budgets: dict[str, int] | None = None
) -> tuple[AttentionState, AttentionAction]:
    """n muddy children after the father's announcement, and ``attend``.

    Worlds are the non-empty muddy sets; child ``ck`` cannot tell apart two
    worlds that differ in its own bit ``mk``.  Every child but a seeded one
    is muddy.  ``attend`` announces that nobody knows whether they are
    muddy (event ``hear``, else ``miss``) and asks every child that at cost
    1, with identity ``q`` and total ``qstar``.  Budgets default to n; with
    them, n - 2 steps teach every muddy child that it is muddy.
    """
    children = tuple(f"c{k}" for k in range(n))
    atoms = [PropAtom(f"m{k}") for k in range(n)]
    sig = Signature(agents=children, attention_bound=n, prop_atoms=tuple(a.name for a in atoms))
    masks = range(1, 2**n)

    def name(mask: int) -> str:
        return "".join("d" if mask >> k & 1 else "c" for k in range(n))

    worlds = tuple(name(mask) for mask in masks)
    clean = rng.randrange(n)
    budgets = budgets or dict.fromkeys(children, n)
    state = AttentionState(
        sig=sig,
        worlds=worlds,
        partitions={
            c: {frozenset({name(m), name(m ^ 1 << k) if m ^ 1 << k else name(m)}) for m in masks}
            for k, c in enumerate(children)
        },
        valuation={name(m): {a.name for k, a in enumerate(atoms) if m >> k & 1} for m in masks},
        attention={c: dict.fromkeys(worlds, budgets[c]) for c in children},
        actual=name((2**n - 1) ^ 1 << clean),
    )
    nobody_knows = and_all(
        And(Not(Know(c, a)), Not(Know(c, Not(a)))) for c, a in zip(children, atoms)
    )
    model = AttentionActionModel(
        sig=sig,
        events=("hear", "miss"),
        q={},
        qstar={c: (frozenset({"hear", "miss"}),) for c in children},
        pre={"hear": nobody_knows, "miss": Not(nobody_knows)},
        cost=CostTable(default=1),
    )
    questions = dict.fromkeys(children, nobody_knows)
    return state, AttentionAction("attend", model, questions, "hear")


def with_unreachable(s: AttentionState, extra: AttentionState, prefix: str) -> AttentionState:
    """``s`` beside a renamed copy of ``extra`` that shares no block with it,
    so no world of the copy is reachable from the actual world."""
    name = {w: prefix + w for w in extra.worlds}
    return AttentionState(
        sig=s.sig,
        worlds=s.worlds + tuple(name.values()),
        partitions={
            agent: blocks
            + tuple(frozenset(name[w] for w in block) for block in extra.partitions[agent])
            for agent, blocks in s.partitions.items()
        },
        valuation={**s.valuation, **{name[w]: v for w, v in extra.valuation.items()}},
        attention={
            agent: {**per_world, **{name[w]: n for w, n in extra.attention[agent].items()}}
            for agent, per_world in s.attention.items()
        },
        actual=s.actual,
    )


def renamed(rng: random.Random, s: AttentionState) -> AttentionState:
    """``s`` with its worlds renamed and declared in a shuffled order."""
    names = [f"x{k}" for k in range(len(s.worlds))]
    rng.shuffle(names)
    name = dict(zip(s.worlds, names))
    rng.shuffle(names)
    return AttentionState(
        sig=s.sig,
        worlds=tuple(names),
        partitions={
            agent: tuple(frozenset(name[w] for w in block) for block in blocks)
            for agent, blocks in s.partitions.items()
        },
        valuation={name[w]: v for w, v in s.valuation.items()},
        attention={
            agent: {name[w]: n for w, n in per_world.items()}
            for agent, per_world in s.attention.items()
        },
        actual=name[s.actual],
    )


def with_duplicate(rng: random.Random, s: AttentionState) -> AttentionState:
    """``s`` plus a copy of one world, placed in that world's blocks."""
    world = rng.choice(s.worlds)
    twin = rng.choice(["a", "z"]) + world  # sorts before or after its original
    worlds = list(s.worlds)
    worlds.insert(rng.randrange(len(worlds) + 1), twin)
    return AttentionState(
        sig=s.sig,
        worlds=tuple(worlds),
        partitions={
            agent: tuple(block | {twin} if world in block else block for block in blocks)
            for agent, blocks in s.partitions.items()
        },
        valuation={**s.valuation, twin: s.valuation[world]},
        attention={
            agent: {**per_world, twin: per_world[world]}
            for agent, per_world in s.attention.items()
        },
        actual=rng.choice([s.actual, twin]) if s.actual == world else s.actual,
    )


def rand_epistemic_state(
    rng: random.Random, sig: Signature, max_worlds: int = 4
) -> EpistemicState:
    """A random epistemic state whose worlds list arbitrary attention atoms,
    not only the consistent sets a rendition writes."""
    count = rng.randint(1, max_worlds)
    worlds = tuple(f"w{j}" for j in range(count))
    atoms = sig.prop_atoms + sig.attention_atoms()
    return EpistemicState(
        sig=sig,
        worlds=worlds,
        partitions={agent: rand_partition(rng, worlds) for agent in sig.agents},
        valuation={w: frozenset(a for a in atoms if rng.random() < 0.5) for w in worlds},
        actual=rng.choice(worlds),
    )


def _total(events: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    return (frozenset(events),)


def _pairs_from_blocks(
    events: tuple[str, ...], blocks: tuple[frozenset[str], ...]
) -> set[tuple[str, str]]:
    out = set()
    for block in blocks:
        for e, f in combinations(sorted(block, key=events.index), 2):
            out.add((e, f))
    return out


def _transitive(events: tuple[str, ...], related: set[tuple[str, str]]) -> bool:
    def rel(x: str, y: str) -> bool:
        return x == y or (x, y) in related or (y, x) in related

    for x, y, z in combinations(events, 3):
        for a, b, c in ((x, y, z), (x, z, y), (y, x, z)):
            if rel(a, b) and rel(b, c) and not rel(a, c):
                return False
    return True


def branch_relations_transitive(action: AttentionAction) -> bool:
    """Would this action's update be defined at every state?

    Checks, per agent, that both the plain union of the event relations and
    the union refined by the agent's question (events fused only when their
    preconditions settle the question the same way) are transitive.
    """
    model = action.model
    events = model.events
    for agent in action.sig.agents:
        q_pairs = _pairs_from_blocks(events, model.q[agent])
        qs_pairs = _pairs_from_blocks(events, model.qstar[agent])
        if not _transitive(events, q_pairs | qs_pairs):
            return False
        question = action.questions[agent]
        answers = {e: entails(action.sig, model.pre[e], question) for e in events}
        refined = {
            (e, f) for (e, f) in qs_pairs if answers[e] == answers[f]
        }
        if not _transitive(events, q_pairs | refined):
            return False
    return True


def with_cost_entries(
    rng: random.Random,
    model: AttentionActionModel,
    questions: dict[str, Formula],
    costs: list[int],
) -> AttentionActionModel:
    """``model`` with explicit entries over ``costs`` for the asked
    questions, the trivial one and unasked ones: some repeated verbatim,
    some repeated at an event of the same component with a cost drawn
    again, which conflicts when it differs."""
    sig = model.sig
    entries: list[CostEntry] = []
    for agent in sig.agents:
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            formula = (
                TOP if roll < 0.15
                else rand_propositional(rng, sig) if roll < 0.3
                else questions.get(agent, TOP)
            )
            event = rng.choice(model.events)
            entries.append(CostEntry(agent, formula, event, rng.choice(costs)))
            roll = rng.random()
            if roll < 0.2:
                entries.append(entries[-1])
            elif roll < 0.4:
                rep = model.component_of(agent, event)
                same = [e for e in model.events if model.component_of(agent, e) == rep]
                entries.append(CostEntry(agent, formula, rng.choice(same), rng.choice(costs)))
    rng.shuffle(entries)
    return replace(model, cost=replace(model.cost, entries=tuple(entries)))


def rand_attention_action(
    rng: random.Random,
    sig: Signature,
    max_events: int = 3,
    trivial_questions: bool = False,
    total: bool = True,
    priced: bool = False,
) -> AttentionAction:
    """A random attention action whose update is total (rejection-sampled),
    or any random action when ``total`` is False.  A ``priced`` action also
    carries explicit entries (``with_cost_entries``), a negative cost among
    them at times, so some of its questions have no price."""
    while True:
        count = rng.randint(1, max_events)
        events = tuple(f"e{j}" for j in range(count))
        pre = {
            e: TOP if rng.random() < 0.4 else rand_propositional(rng, sig)
            for e in events
        }
        model = AttentionActionModel(
            sig=sig,
            events=events,
            q={agent: rand_partition(rng, events) for agent in sig.agents},
            qstar={agent: rand_partition(rng, events) for agent in sig.agents},
            pre=pre,
            cost=CostTable(
                agent_defaults={
                    agent: rng.randint(0, sig.attention_bound + 1)
                    for agent in sig.agents
                }
            ),
        )
        questions = (
            {}
            if trivial_questions
            else {
                agent: rand_propositional(rng, sig)
                for agent in sig.agents
                if rng.random() < 0.8
            }
        )
        if priced:
            # -1 is one draw in 2 * (bound + 2) + 1.
            costs = [-1] + list(range(sig.attention_bound + 2)) * 2
            model = with_cost_entries(rng, model, questions, costs)
        action = AttentionAction(
            name="rand",
            model=model,
            questions=questions,
            actual=rng.choice(events),
        )
        if not total or branch_relations_transitive(action):
            return action


def rand_nfl_action(
    rng: random.Random,
    sig: Signature,
    max_events: int = 3,
    trivial_questions: bool = False,
    priced: bool = False,
) -> AttentionAction:
    """A random action in the positively-priced, starred-total class.  A
    ``priced`` action also carries positive explicit entries, which may
    conflict (``with_cost_entries``)."""
    while True:
        count = rng.randint(1, max_events)
        events = tuple(f"e{j}" for j in range(count))
        pre = {
            e: TOP if rng.random() < 0.5 else rand_propositional(rng, sig)
            for e in events
        }
        q = {
            agent: _total(events) if rng.random() < 0.3 else tuple(
                frozenset({e}) for e in events
            )
            for agent in sig.agents
        }
        model = AttentionActionModel(
            sig=sig,
            events=events,
            q=q,
            qstar={agent: _total(events) for agent in sig.agents},
            pre=pre,
            cost=CostTable(default=rng.randint(1, max(1, sig.attention_bound))),
        )
        questions = (
            {}
            if trivial_questions
            else {
                agent: rand_propositional(rng, sig)
                for agent in sig.agents
                if rng.random() < 0.8
            }
        )
        if priced:
            costs = list(range(1, max(1, sig.attention_bound) + 1))
            model = with_cost_entries(rng, model, questions, costs)
        action = AttentionAction(
            name=f"act{rng.randrange(1000)}",
            model=model,
            questions=questions,
            actual=rng.choice(events),
        )
        if branch_relations_transitive(action):
            return action


def rand_applicable_pair(
    rng: random.Random,
    sig: Signature,
    make_action,
    max_worlds: int = 4,
) -> tuple[AttentionState, AttentionAction]:
    """A (state, action) pair where the action fires at the actual world."""
    while True:
        state = rand_state(rng, sig, max_worlds)
        action = make_action(rng, sig)
        if applicable(state, action):
            return state, action


def rand_nopost_action(
    rng: random.Random, sig: Signature, max_events: int = 3
) -> EpistemicAction:
    count = rng.randint(1, max_events)
    events = tuple(f"e{j}" for j in range(count))
    return EpistemicAction(
        sig=sig,
        events=events,
        q={agent: rand_partition(rng, events) for agent in sig.agents},
        pre={
            e: TOP if rng.random() < 0.4 else rand_propositional(rng, sig)
            for e in events
        },
        post={},
        actual=rng.choice(events),
    )


def rand_post_action(
    rng: random.Random, sig: Signature, max_events: int = 4
) -> EpistemicAction:
    """A hand-built plain action with postconditions, unlike the ones
    ``to_post`` writes: post formulas are compound (``Know``, ``And``,
    ``Not``), keys are propositional and attention atoms (shared objects
    and directly built ones), some events share a map and others have
    their own or none, and in a map of three keys or more the first two
    share one formula and the third an equivalent one."""
    events = tuple(f"e{j}" for j in range(rng.randint(1, max_events)))
    atoms = sig.prop_atoms + sig.attention_atoms()
    maps = []
    for _ in range(rng.randint(1, len(events))):
        keys = [
            type(atom)(atom.agent, atom.bound)
            if not isinstance(atom, str) and rng.random() < 0.3
            else atom
            for atom in rng.sample(atoms, rng.randint(0, 5))
        ]
        post = {key: rand_formula(rng, sig, max_modal_depth=2, max_size=7) for key in keys}
        if len(keys) >= 3:
            post[keys[1]] = post[keys[0]]
            post[keys[2]] = Not(Not(post[keys[0]]))
        maps.append(post)
    return EpistemicAction(
        sig=sig,
        events=events,
        q={agent: rand_partition(rng, events) for agent in sig.agents},
        pre={
            e: TOP if rng.random() < 0.4 else rand_formula(rng, sig, max_size=5)
            for e in events
        },
        post={e: rng.choice(maps) for e in events if rng.random() < 0.8},
        actual=rng.choice(events),
    )


def as_formula(atom: str | AttEq | AttLess) -> Formula:
    """The formula that reads ``atom`` as a valuation lists it."""
    return PropAtom(atom) if isinstance(atom, str) else atom


def rand_atom_post_action(
    rng: random.Random, sig: Signature, max_events: int = 4
) -> EpistemicAction:
    """A hand-built plain action whose post formulas are mostly bare atoms:
    propositional ones, shared attention atoms and directly built equal
    ones, attention atoms above the bound (which no rendition lists) and
    keys of the same map (which must be read before they are written),
    mixed with ``T``, ``~T`` and compound formulas.  Keys are propositional
    and attention atoms, some built directly; events share maps as in
    ``rand_post_action``."""
    events = tuple(f"e{j}" for j in range(rng.randint(1, max_events)))
    attention = sig.attention_atoms()
    atoms = sig.prop_atoms + attention

    def value(keys: list) -> Formula:
        kind = rng.choice(
            ["prop", "shared", "direct", "above", "key", "key", "top", "bottom", "compound"]
        )
        if kind == "prop":
            return PropAtom(rng.choice(sig.prop_atoms))
        if kind == "shared":
            return rng.choice(attention)
        if kind == "direct":
            atom = rng.choice(attention)
            return type(atom)(atom.agent, atom.bound)
        if kind == "above":
            kind_of = rng.choice((AttEq, AttLess))
            return kind_of(rng.choice(sig.agents), sig.attention_bound + rng.randint(1, 2))
        if kind == "key":
            return as_formula(rng.choice(keys))
        if kind == "top":
            return TOP
        if kind == "bottom":
            return Not(TOP)
        return rand_formula(rng, sig, max_modal_depth=1, max_size=5)

    maps = []
    for _ in range(rng.randint(1, len(events))):
        keys = [
            type(atom)(atom.agent, atom.bound)
            if not isinstance(atom, str) and rng.random() < 0.3
            else atom
            for atom in rng.sample(atoms, rng.randint(1, 6))
        ]
        maps.append({key: value(keys) for key in keys})
    return EpistemicAction(
        sig=sig,
        events=events,
        q={agent: rand_partition(rng, events) for agent in sig.agents},
        pre={
            e: TOP if rng.random() < 0.5 else rand_formula(rng, sig, max_size=4)
            for e in events
        },
        post={e: rng.choice(maps) for e in events if rng.random() < 0.8},
        actual=rng.choice(events),
    )


def rand_task(rng: random.Random, sig: Signature, max_worlds: int = 4) -> PlanningTask:
    actions = tuple(
        rand_nfl_action(rng, sig) for _ in range(rng.randint(1, 2))
    )
    named = tuple(
        AttentionAction(
            name=f"a{idx}",
            model=act.model,
            questions=act.questions,
            actual=act.actual,
        )
        for idx, act in enumerate(actions)
    )
    return PlanningTask(
        name="rand",
        initial=rand_state(rng, sig, max_worlds),
        actions=named,
        goal=rand_formula(rng, sig, max_modal_depth=1, max_size=5),
    )
