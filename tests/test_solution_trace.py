"""Every plan the search returns replays on its own: its actions, taken from
the task's initial state, reach the goal, and each state of its trace is
bisimilar to the state the replay reaches after as many steps.  The search
keeps the actions it took, not their names, so a task that declares two
actions with one name still gets back the plan it searched."""

from __future__ import annotations

import dataclasses
import random

import pytest

from attnplan.actions import AttentionAction, attention_update
from attnplan.bisim import BisimWitness, bisimilar
from attnplan.models import check
from attnplan.planner import PlanningTask, Solution, solve_bounded, solve_nfl

from generators import SIG2, rand_task


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
                assert_replays(task, out, steps_by_name(task, out.plan))
                plans[name] = out.plan
    assert plans == {"main": ("ask_p", "ask_imp"), "siblings_learn": ("attend", "attend")}


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
