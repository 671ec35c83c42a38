"""Reference version of the refinement code in ``attnplan.bisim``.

This is the earlier implementation: a refinement loop driven by callbacks
(a colouring and a ``block_of`` lookup per node) that rebuilds, every round
and for every world, the list of its block-mates and their class set.  It
colours each world itself, from the state's fields (``colour``), rather than
through the states' ``colours`` columns.  The differential suite compares
the library's per-block ``_refine`` against it, and the printed
distinguishing formulas against ``distinguishing_formula`` here, which
builds them from these ids; nothing in the package imports this module.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Hashable, Sequence

from attnplan.bisim import BisimWitness, NotBisimilar
from attnplan.errors import SignatureMismatch
from attnplan.logic import Formula, Know, Not, PropAtom, and_all
from attnplan.models import AttentionState, EpistemicState, check, close_into_partition

Node = tuple[int, str]


def colour(s, world: str) -> Hashable:
    """What bisimilar worlds must agree on: the valuation, followed for an
    attention state by the budgets in the signature's agent order."""
    if isinstance(s, AttentionState):
        return (s.valuation[world], *(s.attention[a][world] for a in s.sig.agents))
    return s.valuation[world]


def refine(
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


def union_rounds(s1, s2) -> list[dict[Node, int]]:
    """Refinement rounds over the disjoint union of two states."""
    if s1.sig != s2.sig:
        raise SignatureMismatch("states are over different signatures")

    def colour_of(node: Node) -> Hashable:
        side, world = node
        return colour(s1 if side == 0 else s2, world)

    def block_of(agent: str, node: Node) -> list[Node]:
        side, world = node
        state = s1 if side == 0 else s2
        return [(side, v) for v in state.block_of(agent, world)]

    nodes = [(0, w) for w in s1.worlds] + [(1, w) for w in s2.worlds]
    return refine(nodes, s1.sig.agents, colour_of, block_of)


def separation_round(s1, s2) -> int | None:
    """The first round that separates the actual worlds, or None."""
    actual1, actual2 = (0, s1.actual), (1, s2.actual)
    return next(
        (
            r
            for r, ids in enumerate(union_rounds(s1, s2))
            if ids[actual1] != ids[actual2]
        ),
        None,
    )


def compare(s1, s2) -> BisimWitness | NotBisimilar:
    rounds = union_rounds(s1, s2)
    final = rounds[-1]
    actual1, actual2 = (0, s1.actual), (1, s2.actual)
    if final[actual1] != final[actual2]:
        separated = next(r for r, ids in enumerate(rounds) if ids[actual1] != ids[actual2])
        return NotBisimilar(round=separated)
    pairs = frozenset(
        (w1, w2) for w1 in s1.worlds for w2 in s2.worlds if final[(0, w1)] == final[(1, w2)]
    )
    return BisimWitness(pairs=pairs)


def distinguishing_formula(
    k1: EpistemicState, k2: EpistemicState, max_rounds: int = 2
) -> Formula | None:
    """The library's algorithm over ``union_rounds``' ids, numbered from 0 in
    node order each round: a round-0 class gets one literal per other
    round-0 class, on the least (by ``repr``) atom of the signature the two
    valuations disagree on; a later class its previous class and, per agent,
    what its block meets, in id order."""
    rounds, separated = union_rounds(k1, k2), separation_round(k1, k2)
    if separated is None or separated > max_rounds:
        return None
    sig, states = k1.sig, (k1, k2)

    def known(atom) -> bool:
        if isinstance(atom, str):
            return atom in sig.prop_atoms
        return atom.agent in sig.agents and 0 <= atom.bound <= sig.attention_bound

    def neg(f: Formula) -> Formula:
        return f.sub if isinstance(f, Not) else Not(f)

    reps: dict[tuple[int, int], Node] = {}
    for r, ids in enumerate(rounds):
        for node, cid in ids.items():
            reps.setdefault((r, cid), node)
    valuations = {}
    for (side, world), cid in rounds[0].items():
        valuations.setdefault(cid, states[side].valuation[world])

    @cache
    def chi(r: int, cid: int) -> Formula:
        parts: list[Formula] = []
        if r == 0:
            for other in valuations.values():
                differ = [atom for atom in valuations[cid] ^ other if known(atom)]
                if differ:
                    atom = min(differ, key=repr)
                    f = PropAtom(atom) if isinstance(atom, str) else atom
                    parts.append(f if atom in valuations[cid] else Not(f))
            return and_all(dict.fromkeys(parts))
        side, world = reps[(r, cid)]
        prev = rounds[r - 1]
        parts.append(chi(r - 1, prev[(side, world)]))
        for agent in sig.agents:
            block = states[side].block_of(agent, world)
            touched = [chi(r - 1, c) for c in sorted({prev[(side, v)] for v in block})]
            parts.append(Know(agent, neg(and_all(map(neg, touched)))))
            parts.extend(Not(Know(agent, neg(sub))) for sub in touched)
        return and_all(parts)

    formula = chi(separated, rounds[separated][(0, k1.actual)])
    if check(k1, formula) and not check(k2, formula):
        return formula
    return None


def contract(s: AttentionState) -> AttentionState:
    """Quotient by the largest auto-bisimulation, classes named after their
    least member and kept in first-occurrence order."""
    sig = s.sig

    def colour_of(node: Node) -> Hashable:
        return colour(s, node[1])

    def block_of(agent: str, node: Node) -> list[Node]:
        return [(0, v) for v in s.block_of(agent, node[1])]

    ids = refine([(0, w) for w in s.worlds], sig.agents, colour_of, block_of)[-1]
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
