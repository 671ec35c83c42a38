"""Bisimulation checks, quotienting, and distinguishing formulas.

All of them run one colour-refinement loop, ``_refine``, over the disjoint
union of the states they are given, starting from the colouring each state
gives its worlds (``colour``): an attention state colours by propositional
valuation plus the attention vector, an epistemic state by the full
(propositional and attention-atom) valuation.  Each round reads every block
once and adds the set of class ids in it to the key of each member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

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

Node = tuple[int, str]  # (k, world): world of the k-th state in the disjoint union


@dataclass(frozen=True)
class BisimWitness:
    """The largest bisimulation, as the set of matched world pairs."""

    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class NotBisimilar:
    """The pointed models were separated; ``round`` is the refinement round."""

    round: int


def _refine(*states) -> tuple[list[Node], list[list[int]]]:
    """Colour refinement over the disjoint union of ``states``.

    Node ``(k, w)`` is world ``w`` of ``states[k]``.  Round 0 numbers the
    nodes by their state's ``colour``; each later round keys a node by its
    id and, per agent, the set of ids in its block, read once per block.
    Ids are numbered in node order.  Stops at the first round that splits no
    class; returns the nodes and each round's ids, aligned with the nodes.
    """
    sig = states[0].sig
    if any(s.sig != sig for s in states):
        raise SignatureMismatch("states are over different signatures")
    nodes = [(k, w) for k, s in enumerate(states) for w in s.worlds]
    index = {node: n for n, node in enumerate(nodes)}
    blocks = [
        [index[(k, w)] for w in block]
        for agent in sig.agents
        for k, s in enumerate(states)
        for block in s.partitions[agent]
    ]
    keys: list[Hashable] = [s.colour(w) for s in states for w in s.worlds]
    rounds: list[list[int]] = []
    count = 0
    while True:
        numbering: dict[Hashable, int] = {}
        ids = [numbering.setdefault(key, len(numbering)) for key in keys]
        if len(numbering) == count:
            return nodes, rounds
        rounds.append(ids)
        count = len(numbering)
        signatures = [[i] for i in ids]
        for block in blocks:
            classes = frozenset([ids[n] for n in block])
            for n in block:
                signatures[n].append(classes)
        keys = [tuple(key) for key in signatures]


def _compare(s1, s2) -> BisimWitness | NotBisimilar:
    nodes, rounds = _refine(s1, s2)
    actual1, actual2 = nodes.index((0, s1.actual)), nodes.index((1, s2.actual))
    separated = next(
        (r for r, ids in enumerate(rounds) if ids[actual1] != ids[actual2]), None
    )
    if separated is not None:
        return NotBisimilar(round=separated)
    final, n1 = rounds[-1], len(s1.worlds)
    pairs = frozenset(
        (w1, w2)
        for w1, c1 in zip(s1.worlds, final)
        for w2, c2 in zip(s2.worlds, final[n1:])
        if c1 == c2
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
    ids = dict(zip(s.worlds, _refine(s)[1][-1]))
    members: dict[int, list[str]] = {}
    class_order: list[int] = []
    for world in s.worlds:
        cid = ids[world]
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
            [[name_of[ids[w]] for w in block] for block in s.partitions[agent]],
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
        actual=name_of[ids[s.actual]],
    )


def distinguishing_formula(
    k1: EpistemicState, k2: EpistemicState, max_rounds: int = 2
) -> Formula | None:
    """A formula true at ``k1``'s actual and false at ``k2``'s, if one exists
    within ``max_rounds`` knowledge alternations; None otherwise.

    The formula describes the actual world's class at the separating round.
    Its round-0 conjuncts use only the atoms whose truth varies over the two
    states' worlds: a constant atom's conjunct holds at every world either
    formula can reach, so dropping it changes the truth of none.
    """
    states = (k1, k2)
    nodes, rounds = _refine(k1, k2)
    sig = k1.sig
    actual1, actual2 = nodes.index((0, k1.actual)), nodes.index((1, k2.actual))
    separated = next(
        (r for r, ids in enumerate(rounds) if ids[actual1] != ids[actual2]), None
    )
    if separated is None or separated > max_rounds:
        return None

    def holds(n: int, atom: Formula) -> bool:
        side, world = nodes[n]
        return _eval(states[side], atom, world)

    candidates: list[Formula] = [PropAtom(a) for a in sig.prop_atoms]
    candidates.extend(sig.attention_atoms())
    universe = [
        atom
        for atom in candidates
        if len({holds(n, atom) for n in range(len(nodes))}) == 2
    ]
    index = {node: n for n, node in enumerate(nodes)}
    reps: dict[tuple[int, int], int] = {}
    for r, ids in enumerate(rounds):
        for n, cid in enumerate(ids):
            reps.setdefault((r, cid), n)

    memo: dict[tuple[int, int], Formula] = {}

    def chi(r: int, cid: int) -> Formula:
        key = (r, cid)
        if key in memo:
            return memo[key]
        n = reps[key]
        if r == 0:
            parts = [atom if holds(n, atom) else Not(atom) for atom in universe]
            memo[key] = and_all(parts)
            return memo[key]
        prev = rounds[r - 1]
        side, world = nodes[n]
        parts = [chi(r - 1, prev[n])]
        for agent in sig.agents:
            block = states[side].block_of(agent, world)
            touched = sorted({prev[index[(side, v)]] for v in block})
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
