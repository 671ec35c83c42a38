"""Breadth-first plan search over bisimulation-contracted states.

States are contracted after every step and pruned against the states
already visited up to bisimilarity, which keeps the search space finite for
the planning-friendly action class: questions keep draining budgets only
finitely often, after which updates behave like announcements and the
reachable quotients stop growing.

The visited states sit in a hashed frontier.  Each state is keyed on
arrival by its cheap structural key (``_prefilter_key``) and by the actual
world's one-step view (``_one_step_key``); bisimilar states always get
equal one-step views, so a new state is compared with ``bisimilar``, which
alone decides, only against earlier states with the same key.

Plans come back shortest first, ties broken by the order actions were
declared in the task (a consequence of in-order expansion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable

from .actions import (
    AttentionAction,
    applicable,
    apply_sequence,
    attention_update,
    is_nfl,
)
from .bisim import BisimWitness, bisimilar, contract
from .errors import NotNfl
from .logic import Formula
from .models import AttentionState, check


@dataclass(frozen=True)
class PlanningTask:
    name: str
    initial: AttentionState
    actions: tuple[AttentionAction, ...]
    goal: Formula


@dataclass(frozen=True)
class Solution:
    """A verified plan; ``trace`` holds the contracted state after each step."""

    plan: tuple[str, ...]
    trace: tuple[AttentionState, ...]


@dataclass(frozen=True)
class NoSolution:
    """The whole reachable quotient was searched; no plan exists."""

    explored: int


@dataclass(frozen=True)
class NoneWithinBound:
    """No plan up to the depth bound; says nothing about longer plans."""

    bound: int
    explored: int


def _prefilter_key(s: AttentionState) -> Hashable:
    attention = tuple(
        tuple(sorted(s.attention[agent].values())) for agent in s.sig.agents
    )
    valuation = tuple(sorted(tuple(sorted(v)) for v in s.valuation.values()))
    return (len(s.worlds), attention, valuation)


def _one_step_key(s: AttentionState) -> Hashable:
    """The actual world's colour and, per agent, the colours in its block.

    Bisimilar pointed states get equal keys: their actual worlds have equal
    colours, and by forth and back each agent's block there holds the same
    colours in both.  With one agent, equal keys also mean bisimilar: the
    actual world's block is then its whole generated submodel.
    """
    blocks = tuple(
        frozenset(map(s.colour, s.block_of(agent, s.actual))) for agent in s.sig.agents
    )
    return s.colour(s.actual), blocks


class _Visited:
    """States visited by one search, keyed by ``_prefilter_key`` and
    ``_one_step_key``."""

    def __init__(self) -> None:
        self._states: dict[Hashable, list[AttentionState]] = {}

    def add(self, s: AttentionState) -> bool:
        """Record ``s`` unless a bisimilar state is recorded; whether it was new."""
        same = self._states.setdefault((_prefilter_key(s), _one_step_key(s)), [])
        if any(isinstance(bisimilar(s, seen), BisimWitness) for seen in same):
            return False
        same.append(s)
        return True


@dataclass
class _Node:
    state: AttentionState
    parent: int | None
    action: str | None
    depth: int


def _verified_solution(
    task: PlanningTask, nodes: list[_Node], goal_index: int
) -> Solution:
    chain: list[_Node] = []
    index: int | None = goal_index
    while index is not None:
        chain.append(nodes[index])
        index = nodes[index].parent
    chain.reverse()
    plan = tuple(node.action for node in chain if node.action is not None)
    by_name = {action.name: action for action in task.actions}
    replayed = apply_sequence(task.initial, [by_name[name] for name in plan])
    if not check(replayed, task.goal):
        raise RuntimeError(
            f"internal error: plan {list(plan)} does not reach the goal on replay"
        )
    return Solution(plan=plan, trace=tuple(node.state for node in chain))


def _search(
    task: PlanningTask, max_depth: int | None
) -> Solution | NoSolution | NoneWithinBound:
    start = contract(task.initial)
    nodes = [_Node(state=start, parent=None, action=None, depth=0)]
    if check(start, task.goal):
        return _verified_solution(task, nodes, 0)
    visited = _Visited()
    visited.add(start)
    queue: deque[int] = deque([0])
    explored = 0
    while queue:
        index = queue.popleft()
        node = nodes[index]
        if max_depth is not None and node.depth >= max_depth:
            continue
        for action in task.actions:
            if not applicable(node.state, action):
                continue
            explored += 1
            successor = contract(attention_update(node.state, action))
            nodes.append(
                _Node(
                    state=successor,
                    parent=index,
                    action=action.name,
                    depth=node.depth + 1,
                )
            )
            if check(successor, task.goal):
                return _verified_solution(task, nodes, len(nodes) - 1)
            if not visited.add(successor):
                nodes.pop()
                continue
            queue.append(len(nodes) - 1)
    if max_depth is None:
        return NoSolution(explored=explored)
    return NoneWithinBound(bound=max_depth, explored=explored)


def solve_nfl(
    task: PlanningTask, relaxed: bool = False
) -> Solution | NoSolution:
    """Decide plan existence for tasks built from the planning-friendly class.

    Every action must classify (strictly, or under the relaxed rule when
    ``relaxed`` is set); otherwise NotNfl names the first offender.  The
    search is complete: NoSolution means no plan of any length exists.
    """
    for action in task.actions:
        if not is_nfl(action, relaxed=relaxed):
            reason = (
                "the starred relation must be total and all costs positive"
                if not relaxed
                else "q and qstar together must relate every event pair and all costs positive"
            )
            raise NotNfl(action.name, reason)
    outcome = _search(task, max_depth=None)
    assert not isinstance(outcome, NoneWithinBound)
    return outcome


def solve_bounded(task: PlanningTask, max_depth: int) -> Solution | NoneWithinBound:
    """Depth-bounded search for arbitrary actions; sound but not complete."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    outcome = _search(task, max_depth=max_depth)
    assert not isinstance(outcome, NoSolution)
    return outcome
