"""Span recorder for the traced run.

The recorder wraps the public functions named in ``LAYERS`` from the
benchmark's side: every module of the ``attnplan`` package that holds a
binding to one of them has that binding replaced by a timing wrapper, and
the original bindings are restored on exit.  Rebinding at every importing module matters: ``apply_sequence``
reaches ``attention_update`` through ``attnplan.actions`` while the planner
reaches it through ``attnplan.planner``.  Private helpers such as ``_eval``
are not wrapped, so their time falls into their caller's self time.

Spans stay in memory as per-layer totals: calls, total time and self time
(total minus the time covered by wrapped callees), plus a few size counts
taken from arguments and results at the same boundary.
"""

from __future__ import annotations

import sys
import time
from types import ModuleType
from typing import Any, Callable

LAYERS = (
    "cli.run",
    "taskfile.load",
    "logic.parse_formula",
    "logic.entails",
    "models.check",
    "models.kripke_rendition",
    "actions.applicable",
    "actions.attention_update",
    "actions.apply_sequence",
    "actions.product_update",
    "bisim.contract",
    "bisim.bisimilar",
    "bisim.kripke_bisimilar",
    "emulate.to_post",
    "emulate.resolve_actual",
    "planner.solve_nfl",
)


def formula_nodes(roots) -> int:
    """Node count of formula trees, as evaluation visits them (shared
    subtrees counted once per occurrence), without recursion."""
    sizes: dict[int, int] = {}
    total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in sizes:
                continue
            children = [
                getattr(node, name)
                for name in ("sub", "left", "right")
                if hasattr(node, name)
            ]
            if expanded or not children:
                sizes[id(node)] = 1 + sum(sizes[id(c)] for c in children)
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in children)
        total += sizes[id(root)]
    return total


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "worlds_in", "worlds_out", "hits", "post_nodes")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.worlds_in = 0
        self.worlds_out = 0
        self.hits = 0
        self.post_nodes = 0


def _sizes(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.worlds_in += len(args[0].worlds)
    stats.worlds_out += len(result.worlds)


def _hit(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.hits += hasattr(result, "pairs")  # a BisimWitness, not NotBisimilar


def _post_nodes(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.post_nodes += formula_nodes(f for post in result.post.values() for f in post.values())


_COUNTERS: dict[str, Callable[[LayerStats, tuple, Any], None]] = {
    "actions.attention_update": _sizes,
    "bisim.contract": _sizes,
    "bisim.bisimilar": _hit,
    "emulate.to_post": _post_nodes,
}


class Recorder:
    """Context manager that installs the wrappers and restores the bindings."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in LAYERS}
        # Attention updates made directly by the search (not by plan replay)
        # are the nodes it explored.
        self.nodes_explored = 0
        self._stack: list[list] = []  # [layer name, time spent in wrapped callees]
        self._restore: list[tuple[ModuleType, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        counter = _COUNTERS.get(name)
        counts_nodes = name == "actions.attention_update"
        stack = self._stack

        def wrapper(*args, **kwargs):
            if counts_nodes and stack and stack[-1][0] == "planner.solve_nfl":
                self.nodes_explored += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
            if counter is not None:
                counter(stats, args, result)
            return result

        return wrapper

    def __enter__(self) -> "Recorder":
        originals = {}
        for name in LAYERS:
            module_name, attr = name.split(".")
            originals[name] = getattr(sys.modules[f"attnplan.{module_name}"], attr)
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in originals.items()}
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "attnplan" or key.startswith("attnplan.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
