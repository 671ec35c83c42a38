"""Reference version of the plan search in ``attnplan.planner``.

This is the earlier implementation: the visited states sit in a list, and
each new state is compared with ``bisimilar`` against every earlier state
whose cheap structural key (``_prefilter_key``: size, budgets and
valuations) matches.  It replays each plan it finds and builds its
``Solution`` itself, naming no private part of the planner.  The
differential suite compares the library's hashed frontier against it;
nothing in the package imports this module.

``search_del`` is the same breadth-first search in plain dynamic epistemic
logic, the paper's fragment claim run over whole searches: its states are
renditions, a step is the product update with the compiled action
resolved at the state, and duplicates are found by a list scan with
``kripke_bisimilar``.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from attnplan.actions import (
    AttentionAction,
    applicable,
    apply_sequence,
    attention_update,
    product_update,
)
from attnplan.bisim import BisimWitness, bisimilar, contract, kripke_bisimilar
from attnplan.emulate import resolve_actual, to_post
from attnplan.errors import NotApplicable
from attnplan.models import AttentionState, EpistemicState, check, kripke_rendition
from attnplan.planner import NoneWithinBound, NoSolution, PlanningTask, Solution


def _prefilter_key(s: AttentionState) -> Hashable:
    attention = tuple(
        tuple(sorted(s.attention[agent].values())) for agent in s.sig.agents
    )
    valuation = tuple(sorted(tuple(sorted(v)) for v in s.valuation.values()))
    return (len(s.worlds), attention, valuation)


def already_visited(
    visited: list[tuple[Hashable, AttentionState]], key: Hashable, s: AttentionState
) -> bool:
    return any(
        key == seen_key and isinstance(bisimilar(s, seen), BisimWitness)
        for seen_key, seen in visited
    )


def replayed_solution(
    task: PlanningTask,
    path: list[tuple[AttentionAction, AttentionState]],
    start: AttentionState,
) -> Solution:
    """The plan along ``path`` (each step's action and the state after it),
    once replaying its actions from the task's initial state reaches the goal."""
    actions = [action for action, _ in path]
    if not check(apply_sequence(task.initial, actions), task.goal):
        raise RuntimeError(f"plan {[a.name for a in actions]} does not reach the goal")
    return Solution(
        plan=tuple(action.name for action in actions),
        trace=(start, *(state for _, state in path)),
    )


def search(
    task: PlanningTask, max_depth: int | None
) -> Solution | NoSolution | NoneWithinBound:
    start = contract(task.initial)
    if check(start, task.goal):
        return replayed_solution(task, [], start)
    visited = [(_prefilter_key(start), start)]
    queue: deque[list[tuple[AttentionAction, AttentionState]]] = deque([[]])
    explored = 0
    while queue:
        path = queue.popleft()
        if max_depth is not None and len(path) >= max_depth:
            continue
        state = path[-1][1] if path else start
        for action in task.actions:
            if not applicable(state, action):
                continue
            explored += 1
            successor = contract(attention_update(state, action))
            longer = path + [(action, successor)]
            if check(successor, task.goal):
                return replayed_solution(task, longer, start)
            key = _prefilter_key(successor)
            if already_visited(visited, key, successor):
                continue
            visited.append((key, successor))
            queue.append(longer)
    if max_depth is None:
        return NoSolution(explored=explored)
    return NoneWithinBound(bound=max_depth, explored=explored)


def search_del(task: PlanningTask, max_depth: int) -> Solution | NoneWithinBound:
    """Breadth-first search to ``max_depth`` steps over epistemic states.

    It starts from ``kripke_rendition(task.initial)``; a step takes
    ``product_update(k, resolve_actual(to_post(x), k))`` for each action
    ``x`` in declared order, skipping actions whose actual family does not
    fire; a state bisimilar to one already seen is dropped.  A solution's
    ``trace`` holds the epistemic states along its plan, uncontracted.
    """
    compiled = [(action, to_post(action)) for action in task.actions]
    start = kripke_rendition(task.initial)
    if check(start, task.goal):
        return Solution(plan=(), trace=(start,))
    visited = [start]
    queue: deque[tuple[tuple[str, ...], tuple[EpistemicState, ...]]] = deque([((), (start,))])
    explored = 0
    while queue:
        plan, trace = queue.popleft()
        if len(plan) >= max_depth:
            continue
        for action, y in compiled:
            try:
                resolved = resolve_actual(y, trace[-1])
            except NotApplicable:
                continue
            explored += 1
            successor = product_update(trace[-1], resolved)
            path = (plan + (action.name,), trace + (successor,))
            if check(successor, task.goal):
                return Solution(*path)
            if any(isinstance(kripke_bisimilar(successor, seen), BisimWitness) for seen in visited):
                continue
            visited.append(successor)
            queue.append(path)
    return NoneWithinBound(bound=max_depth, explored=explored)
