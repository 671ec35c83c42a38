"""Breadth-first plan search over bisimulation-contracted states.

States are contracted after every step and pruned against the states
already visited up to bisimilarity, which keeps the search space finite for
the planning-friendly action class: questions keep draining budgets only
finitely often, after which updates behave like announcements and the
reachable quotients stop growing.

The visited states sit in a hashed frontier.  A new state is pruned only
against earlier states with its cheap structural key (``_prefilter_key``).
Once two states share that key, both are keyed again by the stable colours
of the actual world's generated component (``bisim._canonical_key``).
Bisimilar states always get equal colours, so only states with equal keys
are compared with ``bisimilar``, which alone decides.

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
from .bisim import BisimWitness, _canonical_key, bisimilar, contract
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


class _Visited:
    """States visited by one search, bucketed by ``_prefilter_key``.

    A bucket holds its first state alone; when a second state arrives, both
    are keyed by ``_canonical_key`` and the bucket becomes a dict from that
    key to its states.  One interning table serves every key of the search,
    so equal colours mean the same thing in every state.
    """

    def __init__(self) -> None:
        self._interned: dict[Hashable, int] = {}
        self._buckets: dict[
            Hashable, AttentionState | dict[Hashable, list[AttentionState]]
        ] = {}

    def add(self, s: AttentionState) -> bool:
        """Record ``s`` unless a bisimilar state is recorded; whether it was new."""
        key = _prefilter_key(s)
        bucket = self._buckets.setdefault(key, s)
        if bucket is s:
            return True
        if isinstance(bucket, AttentionState):
            bucket = self._buckets[key] = {
                _canonical_key(bucket, self._interned): [bucket]
            }
        same = bucket.setdefault(_canonical_key(s, self._interned), [])
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
