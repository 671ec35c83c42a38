"""Seeded input generators and timed operations for the three workloads.

Everything here is owned by the benchmark: nothing is imported from the
test suite, so editing the tests can never silently change a workload.
Each generator takes an explicit ``random.Random`` and returns plain data
(document text or frozen library objects); ``fresh_*`` helpers rebuild the
objects an operation consumes, so cached properties on states and models
never carry over from one operation to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

from attnplan import cli, emulate, planner, taskfile
from attnplan.actions import AttentionAction, AttentionActionModel, CostTable, applicable
from attnplan.logic import (
    TOP,
    And,
    AttEq,
    AttLess,
    Formula,
    Know,
    Not,
    PropAtom,
    Signature,
    entails,
)
from attnplan.models import AttentionState, check


# ---------------------------------------------------------------------------
# muddy-cli: n-agent muddy children through ``attnplan plan``


def _knows_whether(child: str) -> str:
    return f"~K_{child} m_{child} & ~K_{child} ~m_{child}"


def muddy_document(rng: random.Random, n: int) -> str:
    """Muddy children with n children, n - 1 of them muddy (seeded choice).

    Generalises ``fixtures/muddy_children.task``: worlds are the 2^n - 1
    non-empty muddy sets (the father's announcement is already made),
    declared in a seeded order; every child has budget n and pays 1 per
    question; ``attend`` announces "nobody knows" with hear/miss events,
    identity ``q`` and total ``qstar``.  The goal is that every muddy child
    knows it is muddy, reached after n - 2 steps.
    """
    children = [f"c{k}" for k in range(n)]
    clean = rng.randrange(n)
    masks = list(range(1, 2**n))
    rng.shuffle(masks)

    def name(mask: int) -> str:
        return "".join("d" if mask >> k & 1 else "c" for k in range(n))

    worlds = {
        name(mask): {
            "atoms": [f"m_{c}" for k, c in enumerate(children) if mask >> k & 1],
            "attention": {c: n for c in children},
        }
        for mask in masks
    }
    relations = {
        c: [
            [name(mask), name(mask ^ (1 << k))]
            for mask in masks
            if mask >> k & 1 and mask ^ (1 << k)
        ]
        for k, c in enumerate(children)
    }
    nobody_knows = " & ".join(_knows_whether(c) for c in children)
    muddy = [c for k, c in enumerate(children) if k != clean]
    doc = {
        "signature": {
            "agents": children,
            "attention_bound": n,
            "atoms": [f"m_{c}" for c in children],
        },
        "states": {
            "start": {
                "worlds": worlds,
                "relations": relations,
                "actual": name((2**n - 1) ^ (1 << clean)),
            }
        },
        "models": {
            "announce_pair": {
                "events": {
                    "hear": {"pre": nobody_knows},
                    "miss": {"pre": f"~({nobody_knows})"},
                },
                "q": {},
                "qstar": {c: [["hear", "miss"]] for c in children},
                "costs": {"default": 1},
            }
        },
        "actions": {
            "attend": {
                "model": "announce_pair",
                "questions": {c: nobody_knows for c in children},
                "actual": "hear",
            }
        },
        "tasks": {
            "muddy_learn": {
                "initial": "start",
                "actions": ["attend"],
                "goal": " & ".join(f"K_{c} m_{c}" for c in muddy),
            }
        },
    }
    return json.dumps(doc)


@dataclass(frozen=True)
class CliCase:
    path: str
    expected: tuple[str, ...]


def muddy_case(rng: random.Random, n: int, workdir: Path) -> CliCase:
    """Write the muddy task document; the CLI loads it on every operation."""
    path = workdir / f"muddy_{n}.task"
    path.write_text(muddy_document(rng, n))
    return CliCase(path=str(path), expected=("attend",) * (n - 2))


def run_cli_plan(case: CliCase) -> bool:
    """``attnplan plan`` in-process; correct on exit 0 with the expected plan."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["plan", "--task", case.path, "--name", "muddy_learn"])
    return code == 0 and tuple(out.getvalue().split()) == case.expected


# ---------------------------------------------------------------------------
# survey-exhaust: a search that runs to exhaustion and ends in NoSolution


def survey_document(rng: random.Random, facts: int, budget: int) -> str:
    """One agent, ``facts`` unknown facts, one paid yes/no question per fact.

    All 2^facts worlds are indistinguishable and the budget covers fewer
    questions than there are facts, so "knows every fact" is unreachable
    and the planner must exhaust the reachable quotient.  The seed picks the
    actual world (hence each question's actual answer) and the order in
    which the questions are declared.
    """
    atoms = [f"p{k}" for k in range(facts)]
    masks = range(2**facts)

    def name(mask: int) -> str:
        return "w" + "".join(str(mask >> k & 1) for k in range(facts))

    actual = rng.randrange(2**facts)
    order = rng.sample(range(facts), facts)
    models = {
        f"m_{atoms[k]}": {
            "events": {"yes": {"pre": atoms[k]}, "no": {"pre": f"~{atoms[k]}"}},
            "q": {},
            "qstar": {"i": [["yes", "no"]]},
            "costs": {"default": 1},
        }
        for k in order
    }
    actions = {
        f"ask_{atoms[k]}": {
            "model": f"m_{atoms[k]}",
            "questions": {"i": atoms[k]},
            "actual": "yes" if actual >> k & 1 else "no",
        }
        for k in order
    }
    doc = {
        "signature": {"agents": ["i"], "attention_bound": budget, "atoms": atoms},
        "states": {
            "start": {
                "worlds": {
                    name(mask): {
                        "atoms": [a for k, a in enumerate(atoms) if mask >> k & 1],
                        "attention": {"i": budget},
                    }
                    for mask in masks
                },
                "relations": {"i": [[name(mask) for mask in masks]]},
                "actual": name(actual),
            }
        },
        "models": models,
        "actions": actions,
        "tasks": {
            "survey": {
                "initial": "start",
                "actions": list(actions),
                "goal": " & ".join(f"(K_i {a} | K_i ~{a})" for a in atoms),
            }
        },
    }
    return json.dumps(doc)


def fresh_survey_task(text: str) -> planner.PlanningTask:
    return taskfile.loads(text).tasks["survey"]


def run_survey(task: planner.PlanningTask) -> bool:
    """Library ``solve_nfl``; correct when it reports an honest NoSolution."""
    return isinstance(planner.solve_nfl(task), planner.NoSolution)


# ---------------------------------------------------------------------------
# emulate-b40: to_post plus the equivalence check, no planner
#
# The helpers below follow the property-suite generators: actions are
# rejection-sampled into the class where the update is total, which is
# also the class ``to_post`` accepts.


@dataclass(frozen=True)
class EmulateCase:
    action: AttentionAction
    states: tuple[AttentionState, ...]


def rand_formula(rng: random.Random, sig: Signature, max_modal_depth: int, max_size: int) -> Formula:
    """A random formula with budget atoms, bounded modal depth and size."""

    def build(depth: int, size: int) -> tuple[Formula, int]:
        leaves = ["top", "atom", "atteq", "attless"]
        inner = ["not", "and"] + (["know"] if depth > 0 else [])
        kind = rng.choice(leaves if size <= 1 else leaves + inner * 2)
        if kind == "top":
            return TOP, 1
        if kind == "atom":
            return PropAtom(rng.choice(sig.prop_atoms)), 1
        if kind == "atteq":
            return AttEq(rng.choice(sig.agents), rng.randint(0, sig.attention_bound)), 1
        if kind == "attless":
            return AttLess(rng.choice(sig.agents), rng.randint(0, sig.attention_bound)), 1
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
    kind = rng.choice(["atom", "top"] if max_size <= 1 else ["atom", "atom", "not", "and"])
    if kind == "top":
        return TOP
    if kind == "atom":
        return PropAtom(rng.choice(sig.prop_atoms))
    if kind == "not":
        return Not(rand_propositional(rng, sig, max_size - 1))
    half = max_size // 2
    return And(rand_propositional(rng, sig, half), rand_propositional(rng, sig, half))


def rand_partition(rng: random.Random, items: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    buckets: dict[int, set[str]] = {}
    for item in items:
        buckets.setdefault(rng.randrange(1, len(items) + 1), set()).add(item)
    return tuple(
        sorted((frozenset(b) for b in buckets.values()), key=lambda b: min(map(items.index, b)))
    )


def rand_state(rng: random.Random, sig: Signature, world_count: int) -> AttentionState:
    worlds = tuple(f"w{j}" for j in range(world_count))
    partitions = {agent: rand_partition(rng, worlds) for agent in sig.agents}
    attention = {}
    for agent in sig.agents:
        per_world: dict[str, int] = {}
        for block in partitions[agent]:
            budget = rng.randint(0, sig.attention_bound)
            per_world.update(dict.fromkeys(block, budget))
        attention[agent] = per_world
    return AttentionState(
        sig=sig,
        worlds=worlds,
        partitions=partitions,
        valuation={
            w: frozenset(t for t in sig.prop_atoms if rng.random() < 0.5) for w in worlds
        },
        attention=attention,
        actual=rng.choice(worlds),
    )


def _transitive(events: tuple[str, ...], related: set[tuple[str, str]]) -> bool:
    def rel(x: str, y: str) -> bool:
        return x == y or (x, y) in related or (y, x) in related

    return not any(
        rel(a, b) and rel(b, c) and not rel(a, c)
        for x, y, z in combinations(events, 3)
        for a, b, c in ((x, y, z), (x, z, y), (y, x, z))
    )


def _branch_relations_transitive(action: AttentionAction) -> bool:
    model = action.model
    events = model.events

    def pairs(blocks: tuple[frozenset[str], ...]) -> set[tuple[str, str]]:
        return {pair for block in blocks for pair in combinations(sorted(block), 2)}

    for agent in action.sig.agents:
        q_pairs, qs_pairs = pairs(model.q[agent]), pairs(model.qstar[agent])
        answers = {e: entails(action.sig, model.pre[e], action.questions[agent]) for e in events}
        refined = {(e, f) for (e, f) in qs_pairs if answers[e] == answers[f]}
        if not (_transitive(events, q_pairs | qs_pairs) and _transitive(events, q_pairs | refined)):
            return False
    return True


# Where the affordable cost sits in 1..bound, cycled by case index.
COST_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _stratified_costs(rng: random.Random, sig: Signature, index: int) -> dict[str, int]:
    """A free, an affordable and an unaffordable question cost, dealt to
    the three agents in random order.  The affordable cost sits at a
    fraction of 1..bound taken in turn from ``COST_FRACTIONS`` by case
    index.  The costs fix the size of the postconditions, so they are the
    same multiset in every seed's pool: seeds differ in contents, not in
    load."""
    bound = sig.attention_bound
    fraction = COST_FRACTIONS[index % len(COST_FRACTIONS)]
    costs = [0, 1 + round(fraction * (bound - 1)), bound + 1]
    rng.shuffle(costs)
    return dict(zip(sig.agents, costs))


def rand_attention_action(
    rng: random.Random, sig: Signature, event_count: int, index: int
) -> AttentionAction:
    """A random action whose update is total, with modal-depth-1 questions.

    The first event's precondition is truth and the others' are random
    propositional formulas, so every action has one always-possible event."""
    events = tuple(f"e{j}" for j in range(event_count))
    while True:
        model = AttentionActionModel(
            sig=sig,
            events=events,
            q={agent: rand_partition(rng, events) for agent in sig.agents},
            qstar={agent: rand_partition(rng, events) for agent in sig.agents},
            pre={e: TOP if e == events[0] else rand_propositional(rng, sig) for e in events},
            cost=CostTable(agent_defaults=_stratified_costs(rng, sig, index)),
        )
        questions = {
            agent: rand_formula(rng, sig, max_modal_depth=1, max_size=5) for agent in sig.agents
        }
        action = AttentionAction(
            name="rand", model=model, questions=questions, actual=rng.choice(events)
        )
        if _branch_relations_transitive(action):
            return action


def _possible_at_half(state: AttentionState, action: AttentionAction) -> bool:
    """Whether every event after the first is possible at half the worlds,
    rounded up.  This fixes how many worlds the product update makes."""
    half = (len(state.worlds) + 1) // 2
    return all(
        sum(check(state, action.model.pre[e], w) for w in state.worlds) == half
        for e in action.model.events[1:]
    )


def emulate_case(rng: random.Random, sig: Signature, event_count: int, index: int) -> EmulateCase:
    """An action and 4 random states of 2, 3, 4 and 5 worlds where it
    applies and where each event after the first is possible at half the
    worlds."""
    while True:
        action = rand_attention_action(rng, sig, event_count, index)
        states: list[AttentionState] = []
        for _ in range(16):
            state = rand_state(rng, sig, world_count=2 + len(states))
            if applicable(state, action) and _possible_at_half(state, action):
                states.append(state)
                if len(states) == 4:
                    return EmulateCase(action=action, states=tuple(states))


def emulate_cases(rng: random.Random, bound: int, count: int) -> list[EmulateCase]:
    """``count`` cases over 3 agents and 3 atoms, each action with 2 events.

    Fixing the event and world counts, how many worlds each event is
    possible at and the multiset of costs, instead of drawing them, keeps
    the size mix of a pool the same for every seed, so seeds differ in
    contents, not in load; operation times still vary about twofold with
    costs, budgets and questions.
    """
    sig = Signature(agents=("a", "b", "c"), attention_bound=bound, prop_atoms=("p", "q", "r"))
    return [emulate_case(rng, sig, event_count=2, index=k) for k in range(count)]


def fresh_emulate_case(case: EmulateCase) -> EmulateCase:
    """Copies with empty cached properties, built through the constructors."""
    action = replace(case.action, model=replace(case.action.model))
    return EmulateCase(action=action, states=tuple(replace(s) for s in case.states))


def run_emulate(case: EmulateCase) -> bool:
    """``to_post`` then the equivalence check; correct when every verdict holds."""
    compiled = emulate.to_post(case.action)
    verdicts = emulate.check_equivalent_on(case.action, compiled, list(case.states))
    return len(verdicts) == len(case.states) and all(v.equivalent for v in verdicts)


# ---------------------------------------------------------------------------
# Workload table: how the harness sets up, refreshes and runs each family.


@dataclass(frozen=True)
class Workload:
    setup: Callable[..., list]  # (rng, workdir, **size) -> pool of cases
    fresh: Callable[[Any], Any]  # untimed: case -> freshly built inputs
    op: Callable[[Any], bool]  # timed: inputs -> whether the answer is right
    full: dict[str, int]  # the benchmark's size
    tiny: dict[str, int]  # the smoke check's size


WORKLOADS = {
    "muddy-cli": Workload(
        setup=lambda rng, workdir, n: [muddy_case(rng, n, workdir)],
        fresh=lambda case: case,
        op=run_cli_plan,
        full={"n": 8},
        tiny={"n": 3},
    ),
    "survey-exhaust": Workload(
        setup=lambda rng, workdir, facts, budget: [survey_document(rng, facts, budget)],
        fresh=fresh_survey_task,
        op=run_survey,
        full={"facts": 5, "budget": 4},
        tiny={"facts": 3, "budget": 2},
    ),
    "emulate-b40": Workload(
        setup=lambda rng, workdir, bound, count: emulate_cases(rng, bound, count),
        fresh=fresh_emulate_case,
        op=run_emulate,
        full={"bound": 40, "count": 100},
        tiny={"bound": 2, "count": 6},
    ),
}
