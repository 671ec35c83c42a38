"""Breadth-first plan search over contracted point-generated states.

After every step the search keeps only the worlds reachable from the actual
world (``_generated``), which a pointed model is bisimilar to, and then
contracts them (``_quotient``); ``AttentionState._read_off`` builds both
cut-down states.  States are pruned against the states already visited up
to bisimilarity, which keeps the search space finite for the
planning-friendly action class: questions keep draining budgets only
finitely often, after which updates behave like announcements and the
reachable quotients stop growing.

The visited states sit in a hashed frontier.  ``bisim._quotient`` contracts
each state and keys it by one of the two kinds of key that ``bisim``'s
module docstring describes, over the search's one intern table; each key
holds one state.  ``bisimilar`` confirms every key hit, and a hit it
refutes is an internal error.

Each successor is tested in this order: its key against the frontier, the
confirming ``bisimilar`` on a key hit, and only then, on a new key, the
goal.  A key hit can never meet the goal: every state in the frontier
failed it (the start is tested first, every later state before it is
kept), the hit is bisimilar to such a state, and the goal is a formula,
on which bisimilar states agree.  So the goal is read on the start and on
new keys only, and the plan and ``explored`` are those of testing the goal
first.  It is validated once per search, then evaluated without
validating again.  Each step asks the update, which asks ``applicable``
and raises NotApplicable where the action does not apply, so ``explored``
counts the applicable actions; the gate checks an action and all its
preconditions once, when the search first tries that action.

Plans come back shortest first, ties broken by the order actions were
declared in the task (a consequence of in-order expansion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable

from .actions import AttentionAction, apply_sequence, attention_update, is_nfl
from .bisim import BisimWitness, _quotient, bisimilar
from .errors import NotApplicable, NotNfl
from .logic import Formula, validate_formula
from .models import AttentionState, _eval, _require_actual


@dataclass(frozen=True)
class PlanningTask:
    name: str
    initial: AttentionState
    actions: tuple[AttentionAction, ...]
    goal: Formula


@dataclass(frozen=True)
class Solution:
    """A verified plan; ``trace`` holds the start state and then the state
    after each step, so ``len(trace) == len(plan) + 1``, each cut down to the
    worlds reachable from its actual world and contracted."""

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


def _generated(s: AttentionState) -> AttentionState:
    """The part of ``s`` reachable from its actual world: ``s`` itself when
    that is every world, else the reached worlds in their order with their
    blocks, valuation and budgets.  Reaching one member of a block reaches
    all of it, so each block is visited once and kept whole or dropped."""
    reached = {s.actual}
    frontier = [s.actual]
    visited: set[frozenset[str]] = set()
    while frontier:
        world = frontier.pop()
        for blocks in s._blocks.values():
            block = blocks[world]
            if block not in visited:
                visited.add(block)
                frontier.extend(block - reached)
                reached |= block
    if len(reached) == len(s.worlds):
        return s
    partitions = {
        agent: tuple(block for block in blocks if block in visited)
        for agent, blocks in s.partitions.items()
    }
    return s._read_off({w: w for w in s.worlds if w in reached}, partitions, s.actual)


def _verified_solution(
    task: PlanningTask,
    steps: tuple[AttentionAction, ...],
    trace: tuple[AttentionState, ...],
) -> Solution:
    replayed = apply_sequence(task.initial, steps)
    plan = tuple(action.name for action in steps)
    if not _eval(replayed, task.goal, replayed.actual):
        raise RuntimeError(
            f"internal error: plan {list(plan)} does not reach the goal on replay"
        )
    return Solution(plan=plan, trace=trace)


def _search(
    task: PlanningTask, max_depth: int | None
) -> Solution | NoSolution | NoneWithinBound:
    table: dict[Hashable, int] = {}
    _require_actual(task.initial)  # later states come from updates
    start, key = _quotient(_generated(task.initial), table)
    validate_formula(start.sig, task.goal)
    if _eval(start, task.goal, start.actual):
        return _verified_solution(task, (), (start,))
    visited = {key: start}
    # Each entry is a path: the actions taken and the states along them.
    queue = deque([((), (start,))])
    explored = 0
    while queue:
        steps, trace = queue.popleft()
        if max_depth is not None and len(steps) >= max_depth:
            continue
        state = trace[-1]
        for action in task.actions:
            try:
                updated = attention_update(state, action)
            except NotApplicable:
                continue
            explored += 1
            successor, key = _quotient(_generated(updated), table)
            if key in visited:
                if not isinstance(bisimilar(successor, visited[key]), BisimWitness):
                    raise RuntimeError(
                        f"internal error: equal frontier keys after {action.name!r}"
                        " on states that are not bisimilar"
                    )
                continue
            path = (steps + (action,), trace + (successor,))
            if _eval(successor, task.goal, successor.actual):
                return _verified_solution(task, *path)
            visited[key] = successor
            queue.append(path)
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
