"""Every plan the search returns replays on its own: its actions, taken from
the task's initial state, reach the goal, and each state of its trace is
bisimilar to the state the replay reaches after as many steps.  The search
keeps the actions it took, not their names, so a task that declares two
actions with one name still gets back the plan it searched.

Along the fixtures' plans and scaled muddy children, the replay also
checks the paper's fragment claim: each attention update is, up to
bisimulation, the product update of the state's rendition with the
compiled action (``to_post``) resolved at that state.  Over whole searches,
failed ones included, the claim is checked against
``reference_planner.search_del``, the same search in plain dynamic
epistemic logic."""

from __future__ import annotations

import dataclasses
import random

import pytest

from attnplan.actions import AttentionAction, attention_update, product_update
from attnplan.bisim import BisimWitness, bisimilar, kripke_bisimilar
from attnplan.emulate import resolve_actual, to_post
from attnplan.logic import Know, PropAtom, Signature, and_all
from attnplan.models import check, kripke_rendition
from attnplan.planner import PlanningTask, Solution, solve_bounded, solve_nfl

from generators import SIG2, muddy_children, rand_task
from reference_planner import search_del

SIG3 = Signature(agents=("a", "b", "c"), attention_bound=2, prop_atoms=("p", "q"))


def assert_replays(task: PlanningTask, out, steps: list[AttentionAction]) -> None:
    """``out`` is the solution whose plan takes ``steps``, and its trace is
    the replay of ``steps`` from the initial state, up to bisimilarity."""
    assert isinstance(out, Solution)
    assert out.plan == tuple(action.name for action in steps)
    assert len(out.trace) == len(steps) + 1
    replayed = task.initial
    for k, state in enumerate(out.trace):
        assert isinstance(bisimilar(state, replayed), BisimWitness), f"step {k}"
        if k < len(steps):
            replayed = attention_update(replayed, steps[k])
    assert check(replayed, task.goal)


def assert_in_fragment(task: PlanningTask, steps: list[AttentionAction]) -> None:
    """At each state the replay of ``steps`` passes through, the compiled
    step's product with the rendition is bisimilar to the rendition of the
    attention update, and the goal holds on the rendition of the last."""
    state = task.initial
    for k, action in enumerate(steps):
        rendition = kripke_rendition(state)
        compiled = product_update(rendition, resolve_actual(to_post(action), rendition))
        state = attention_update(state, action)
        assert isinstance(
            kripke_bisimilar(compiled, kripke_rendition(state)), BisimWitness
        ), f"step {k}"
    assert check(kripke_rendition(state), task.goal)


def steps_by_name(task: PlanningTask, plan: tuple[str, ...]) -> list[AttentionAction]:
    """The actions of ``plan``, in a task whose action names are distinct."""
    by_name = {action.name: action for action in task.actions}
    assert len(by_name) == len(task.actions)
    return [by_name[name] for name in plan]


def test_random_solutions_replay():
    rng = random.Random(1701)
    lengths = []
    for _ in range(100):
        task = rand_task(rng, SIG2)
        out = solve_bounded(task, 3)
        if isinstance(out, Solution):
            assert_replays(task, out, steps_by_name(task, out.plan))
            lengths.append(len(out.plan))
    assert len(lengths) >= 40
    assert sum(1 for n in lengths if n) >= 5  # non-empty plans among them


def test_fixture_solutions_replay(two_facts_doc, muddy_doc):
    plans = {}
    for doc in (two_facts_doc, muddy_doc):
        for name, task in doc.tasks.items():
            out = solve_bounded(task, 3)
            if isinstance(out, Solution):
                steps = steps_by_name(task, out.plan)
                assert_replays(task, out, steps)
                assert_in_fragment(task, steps)
                plans[name] = out.plan
    assert plans == {"main": ("ask_p", "ask_imp"), "siblings_learn": ("attend", "attend")}


def muddy_task(n: int) -> PlanningTask:
    """n muddy children with budget n, and the goal that every muddy child
    knows it is muddy."""
    initial, attend = muddy_children(random.Random(n), n)
    muddy = initial.valuation[initial.actual]
    goal = and_all(Know(f"c{k}", PropAtom(f"m{k}")) for k in range(n) if f"m{k}" in muddy)
    return PlanningTask(name=f"muddy{n}", initial=initial, actions=(attend,), goal=goal)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_scaled_muddy_children_solutions_replay(n):
    """n muddy children with budget n: n - 2 rounds of ``attend`` teach
    every muddy child that it is muddy."""
    task = muddy_task(n)
    (attend,) = task.actions
    out = solve_nfl(task)
    steps = [attend] * (n - 2)
    assert_replays(task, out, steps)
    assert_in_fragment(task, steps)


@pytest.fixture
def shared_name_task(two_facts_doc) -> PlanningTask:
    """``two_facts/main`` with a copy of ``ask_q`` named ``ask_p`` declared
    last, so two distinct actions are called ``ask_p``."""
    task = two_facts_doc.tasks["main"]
    ask_q = next(action for action in task.actions if action.name == "ask_q")
    twin = dataclasses.replace(ask_q, name="ask_p")
    return dataclasses.replace(task, actions=task.actions + (twin,))


@pytest.mark.parametrize("solve", [solve_nfl, lambda task: solve_bounded(task, 2)],
                         ids=["solve_nfl", "solve_bounded"])
def test_actions_sharing_a_name_keep_the_plan_searched(shared_name_task, solve):
    ask_p, _, _, ask_imp, _ = shared_name_task.actions
    out = solve(shared_name_task)
    assert out.plan == ("ask_p", "ask_imp")
    assert_replays(shared_name_task, out, [ask_p, ask_imp])


def assert_search_in_fragment(task: PlanningTask, max_depth: int) -> str:
    """The search over epistemic states agrees with ``solve_bounded``: the
    same outcome type, the same nodes explored when no plan is found, and
    otherwise the same plan, each state bisimilar to the rendition of the
    planner's and the goal true at the last.  Returns the outcome's type
    name."""
    expected, outcome = solve_bounded(task, max_depth), search_del(task, max_depth)
    assert type(outcome) is type(expected)
    if not isinstance(expected, Solution):
        assert outcome == expected
        return type(expected).__name__
    assert outcome.plan == expected.plan
    for k, (state, seen) in enumerate(zip(outcome.trace, expected.trace, strict=True)):
        assert isinstance(kripke_bisimilar(state, kripke_rendition(seen)), BisimWitness), f"step {k}"
    assert check(outcome.trace[-1], task.goal) and check(expected.trace[-1], task.goal)
    return "Solution"


@pytest.mark.parametrize("sig", [SIG2, SIG3], ids=["two_agents", "three_agents"])
def test_random_searches_stay_in_the_fragment(sig):
    rng = random.Random(1702 if sig is SIG2 else 1703)
    outcomes = set()
    for _ in range(60):
        task = rand_task(rng, sig)
        for max_depth in (1, 2, 3):
            outcomes.add(assert_search_in_fragment(task, max_depth))
    assert outcomes == {"Solution", "NoneWithinBound"}


def test_fixture_searches_stay_in_the_fragment(two_facts_doc, muddy_doc):
    outcomes = [
        assert_search_in_fragment(task, 3)
        for doc in (two_facts_doc, muddy_doc)
        for task in doc.tasks.values()
    ]
    assert sorted(outcomes) == ["NoneWithinBound", "Solution", "Solution"]


@pytest.mark.parametrize("n", [3, 4])
def test_muddy_children_searches_stay_in_the_fragment(n):
    assert assert_search_in_fragment(muddy_task(n), n) == "Solution"
