"""Reference version of the plan search in ``attnplan.planner``.

This is the earlier implementation: the visited states sit in a list, and
each new state is compared with ``bisimilar`` against every earlier state
whose cheap structural key (``_prefilter_key``: size, budgets and
valuations) matches.  The differential suite compares the
library's hashed frontier against it; nothing in the package imports this
module.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from attnplan.actions import applicable, attention_update
from attnplan.bisim import BisimWitness, bisimilar, contract
from attnplan.models import AttentionState, check
from attnplan.planner import (
    NoneWithinBound,
    NoSolution,
    PlanningTask,
    Solution,
    _Node,
    _verified_solution,
)


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


def search(
    task: PlanningTask, max_depth: int | None
) -> Solution | NoSolution | NoneWithinBound:
    start = contract(task.initial)
    nodes = [_Node(state=start, parent=None, action=None, depth=0)]
    if check(start, task.goal):
        return _verified_solution(task, nodes, 0)
    visited = [(_prefilter_key(start), start)]
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
            key = _prefilter_key(successor)
            if already_visited(visited, key, successor):
                nodes.pop()
                continue
            visited.append((key, successor))
            queue.append(len(nodes) - 1)
    if max_depth is None:
        return NoSolution(explored=explored)
    return NoneWithinBound(bound=max_depth, explored=explored)
