"""Bisimulation checks, quotienting, and distinguishing formulas.

All three entry points run the same partition-refinement loop from the
colouring each state gives its worlds (``colour``): an attention state
colours by propositional valuation plus the attention vector, an epistemic
state by the full (propositional and attention-atom) valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import SignatureMismatch
from .logic import (
    Formula,
    Know,
    Not,
    PropAtom,
    and_all,
    or_all,
)
from .models import (
    AttentionState,
    EpistemicState,
    _eval,
    check_epistemic,
    close_into_partition,
)

Node = tuple[int, str]  # (side, world) — side 0/1 tags the disjoint union


@dataclass(frozen=True)
class BisimWitness:
    """The largest bisimulation, as the set of matched world pairs."""

    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class NotBisimilar:
    """The pointed models were separated; ``round`` is the refinement round."""

    round: int


def _refine(
    nodes: Sequence[Node],
    agents: Sequence[str],
    colour: Callable[[Node], Hashable],
    block_of: Callable[[str, Node], Sequence[Node]],
) -> list[dict[Node, int]]:
    """Refine to the coarsest stable partition; returns ids per round."""

    def densify(key_of: Callable[[Node], Hashable]) -> dict[Node, int]:
        ids: dict[Node, int] = {}
        by_key: dict[Hashable, int] = {}
        for node in nodes:
            key = key_of(node)
            if key not in by_key:
                by_key[key] = len(by_key)
            ids[node] = by_key[key]
        return ids

    rounds = [densify(colour)]
    while True:
        current = rounds[-1]

        def signature(node: Node) -> Hashable:
            return (
                current[node],
                tuple(
                    frozenset(current[m] for m in block_of(agent, node))
                    for agent in agents
                ),
            )

        refined = densify(signature)
        if len(set(refined.values())) == len(set(current.values())):
            return rounds
        rounds.append(refined)


def _union_nodes(s1, s2) -> list[Node]:
    return [(0, w) for w in s1.worlds] + [(1, w) for w in s2.worlds]


def _union_block(s1, s2) -> Callable[[str, Node], list[Node]]:
    def block_of(agent: str, node: Node) -> list[Node]:
        side, world = node
        state = s1 if side == 0 else s2
        return [(side, v) for v in state.block_of(agent, world)]

    return block_of


def _union_rounds(s1, s2) -> list[dict[Node, int]]:
    """Refinement rounds over the disjoint union of two states."""
    if s1.sig != s2.sig:
        raise SignatureMismatch("states are over different signatures")

    def colour(node: Node) -> Hashable:
        side, world = node
        return (s1 if side == 0 else s2).colour(world)

    return _refine(_union_nodes(s1, s2), s1.sig.agents, colour, _union_block(s1, s2))


def _compare(s1, s2) -> BisimWitness | NotBisimilar:
    rounds = _union_rounds(s1, s2)
    final = rounds[-1]
    actual1, actual2 = (0, s1.actual), (1, s2.actual)
    if final[actual1] != final[actual2]:
        separated = next(r for r, ids in enumerate(rounds) if ids[actual1] != ids[actual2])
        return NotBisimilar(round=separated)
    pairs = frozenset(
        (w1, w2) for w1 in s1.worlds for w2 in s2.worlds if final[(0, w1)] == final[(1, w2)]
    )
    return BisimWitness(pairs=pairs)


def bisimilar(s1: AttentionState, s2: AttentionState) -> BisimWitness | NotBisimilar:
    """Compare two pointed attention states over the same signature."""
    return _compare(s1, s2)


def kripke_bisimilar(
    k1: EpistemicState, k2: EpistemicState
) -> BisimWitness | NotBisimilar:
    """Compare two pointed epistemic states on their full valuations."""
    return _compare(k1, k2)


def contract(s: AttentionState) -> AttentionState:
    """Quotient by the largest auto-bisimulation.

    Each class is named after its lexicographically least member, classes
    keep the first-occurrence order of the input worlds, and the result is
    bisimilar to the input (smallest such state up to isomorphism).
    """
    sig = s.sig

    def colour(node: Node) -> Hashable:
        return s.colour(node[1])

    def block_of(agent: str, node: Node) -> list[Node]:
        return [(0, v) for v in s.block_of(agent, node[1])]

    ids = _refine([(0, w) for w in s.worlds], sig.agents, colour, block_of)[-1]
    members: dict[int, list[str]] = {}
    class_order: list[int] = []
    for world in s.worlds:
        cid = ids[(0, world)]
        if cid not in members:
            members[cid] = []
            class_order.append(cid)
        members[cid].append(world)
    name_of = {cid: min(worlds) for cid, worlds in members.items()}
    new_worlds = tuple(name_of[cid] for cid in class_order)
    rep_of = {cid: worlds[0] for cid, worlds in members.items()}

    # Blocks that share a class merge in the quotient.
    partitions = {
        agent: close_into_partition(
            new_worlds,
            [[name_of[ids[(0, w)]] for w in block] for block in s.partitions[agent]],
        )
        for agent in sig.agents
    }

    valuation = {name_of[cid]: s.valuation[rep_of[cid]] for cid in class_order}
    attention = {
        agent: {name_of[cid]: s.attention[agent][rep_of[cid]] for cid in class_order}
        for agent in sig.agents
    }
    return AttentionState(
        sig=sig,
        worlds=new_worlds,
        partitions=partitions,
        valuation=valuation,
        attention=attention,
        actual=name_of[ids[(0, s.actual)]],
    )


def distinguishing_formula(
    k1: EpistemicState, k2: EpistemicState, max_rounds: int = 2
) -> Formula | None:
    """A formula true at ``k1``'s actual and false at ``k2``'s, if one exists
    within ``max_rounds`` knowledge alternations; None otherwise."""
    rounds = _union_rounds(k1, k2)
    sig = k1.sig
    block_of = _union_block(k1, k2)
    actual1, actual2 = (0, k1.actual), (1, k2.actual)
    separated = next(
        (r for r, ids in enumerate(rounds) if ids[actual1] != ids[actual2]), None
    )
    if separated is None or separated > max_rounds:
        return None

    universe: list[Formula] = [PropAtom(a) for a in sig.prop_atoms]
    universe.extend(sig.attention_atoms())

    def holds(node: Node, atom: Formula) -> bool:
        side, world = node
        return _eval(k1 if side == 0 else k2, atom, world)

    reps: dict[tuple[int, int], Node] = {}
    for r, ids in enumerate(rounds):
        for node in _union_nodes(k1, k2):
            reps.setdefault((r, ids[node]), node)

    memo: dict[tuple[int, int], Formula] = {}

    def chi(r: int, cid: int) -> Formula:
        key = (r, cid)
        if key in memo:
            return memo[key]
        node = reps[key]
        if r == 0:
            parts = [
                atom if holds(node, atom) else Not(atom) for atom in universe
            ]
            memo[key] = and_all(parts)
            return memo[key]
        prev = rounds[r - 1]
        parts = [chi(r - 1, prev[node])]
        for agent in sig.agents:
            touched = sorted({prev[m] for m in block_of(agent, node)})
            touched_chis = [chi(r - 1, c) for c in touched]
            parts.append(Know(agent, or_all(touched_chis)))
            for sub in touched_chis:
                parts.append(Not(Know(agent, Not(sub))))
        memo[key] = and_all(parts)
        return memo[key]

    formula = chi(separated, rounds[separated][actual1])
    if check_epistemic(k1, formula, k1.actual) and not check_epistemic(
        k2, formula, k2.actual
    ):
        return formula
    return None
