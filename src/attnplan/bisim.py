"""Bisimulation checks, quotienting, and distinguishing formulas.

All of them read each state's colour column, ``colours``, which the state
computes once: an attention state colours a world by its propositional
valuation and one budget per agent, an epistemic state by its full
(propositional and attention-atom) valuation.  A state whose column is
injective is *discrete* (``_discrete``): no two of its worlds can be
bisimilar, so it is its own quotient.  Its canonical form
(``_canonical_key``) is, per agent, the set of its blocks, each as the set
of its worlds' colours, and the actual world's colour; two discrete states
with one colour set and equal block forms are isomorphic by the colour
bijection, which ``_compare`` returns with no refinement.

The planner keys its frontier by ``_quotient``, with two kinds of key that
never compare equal, chosen by the contracted state.  A discrete quotient
is keyed by its canonical form.  Any other quotient is keyed by the numbers
its stable colouring gets from the search's one intern table, and the
actual world's number.  Both kinds are exact and, on point-generated
states, complete, so each key holds one state up to bisimilarity.

Everything else runs one colour-refinement loop, ``_refine``, over the
disjoint union of the states it is given.  Each round numbers the set of
classes each block meets once; a world's next key is its class number and,
per agent, the number of its block's set.  ``_refine`` returns each round's
numbers by world position; as no tuple is ever two kinds of key, a round's
keys over a fresh table are new and its numbers come in order of first
position, so the comparisons and ``distinguishing_formula`` read them as
class labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Hashable

from .errors import SignatureMismatch
from .logic import Formula, Know, Not, PropAtom, and_all
from .models import AttentionState, EpistemicState, _eval, _known_atoms, _require_actual


@dataclass(frozen=True)
class BisimWitness:
    """The largest bisimulation, as the set of matched world pairs."""

    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class NotBisimilar:
    """The pointed models were separated; ``round`` is the refinement round."""

    round: int


def _refine(table: dict[Hashable, int], *states) -> list[list[int]]:
    """Colour refinement over the disjoint union of ``states``.

    Worlds are indexed by position in the union; each agent's blocks are
    lists of positions.  Round 0 keys worlds by the states' ``colours``
    columns one after another; each later round numbers each block's set of
    class numbers (a sorted tuple) and keys a world by its class number,
    then per agent its block's set number.  ``table`` numbers keys once for
    all calls sharing it.  Returns each round's numbers by position, ending
    with the first round that splits no class.  Colours hold a frozenset,
    round and met-set keys only ints; met-set keys hold class numbers only,
    round keys after their first entry met-set numbers, which follow the
    round's class numbers, so no tuple is ever two kinds of key.  Over a
    fresh table every round's keys are thus new: its numbers come in order
    of first position and rank the classes as ids numbered 0.. by first
    position would.
    """
    sig = states[0].sig
    if any(s.sig != sig for s in states):
        raise SignatureMismatch("states are over different signatures")
    blocks: list[list[list[int]]] = [[] for _ in sig.agents]
    offset = 0
    for s in states:
        position = dict(zip(s.worlds, range(offset, offset + len(s.worlds))))
        for agent, own in zip(sig.agents, blocks):
            own.extend([position[w] for w in block] for block in s.partitions[agent])
        offset += len(s.worlds)
    keys: list[Hashable] = [colour for s in states for colour in s.colours]
    rounds: list[list[int]] = []
    classes = 0  # in the previous round
    while True:
        numbers = [table.setdefault(key, len(table)) for key in keys]
        rounds.append(numbers)
        previous, classes = classes, len(set(numbers))
        if classes == previous:
            return rounds
        columns = [numbers]
        for own in blocks:
            columns.append([0] * offset)
            for block in own:
                # A sorted tuple takes a third of a frozenset's memory in ``table``.
                met = table.setdefault(tuple(sorted({numbers[n] for n in block})), len(table))
                for n in block:
                    columns[-1][n] = met
        keys = list(zip(*columns))


def _actual_position(s) -> int:
    """Where ``s.actual`` stands in ``s.worlds``; ``validate_state``'s error if nowhere."""
    _require_actual(s)
    return s.worlds.index(s.actual)


def _separation(s1, s2) -> tuple[list[list[int]], int, int | None]:
    """``_refine``'s rounds for ``s1`` and ``s2`` over a fresh table, the
    position of ``s1``'s actual world and the first round that separates
    the actual worlds, or None."""
    rounds = _refine({}, s1, s2)
    actual1, actual2 = _actual_position(s1), len(s1.worlds) + _actual_position(s2)
    separated = next((r for r, ids in enumerate(rounds) if ids[actual1] != ids[actual2]), None)
    return rounds, actual1, separated


def _discrete(s) -> bool:
    """Whether no two of ``s``'s worlds agree on colour."""
    return len(set(s.colours)) == len(s.worlds)


def _canonical_key(s) -> tuple:
    """A discrete state's canonical form: per agent, the set of its blocks,
    each as the set of its worlds' colours, and the actual world's colour."""
    colour = dict(zip(s.worlds, s.colours))
    blocks = tuple(
        frozenset(frozenset(map(colour.__getitem__, b)) for b in bs)
        for bs in s.partitions.values()
    )
    return blocks, s.colours[_actual_position(s)]


def _compare(s1, s2) -> BisimWitness | NotBisimilar:
    """The largest bisimulation between ``s1`` and ``s2``, or the round that
    separates their actual worlds.  Two discrete states over one signature
    whose canonical forms have equal block parts, and whose colour sets are
    equal, are isomorphic by the colour bijection, and no other pair of
    their worlds agrees on colour, so the bijection is the largest
    bisimulation: round 0 separates the actual worlds when their colours
    differ, and no round does otherwise.  The colour sets are compared
    because a partition that misses a world allows equal block parts
    without them.  Any other pair is refined (``_separation``)."""
    if s1.sig == s2.sig and _discrete(s1) and _discrete(s2):
        (blocks1, actual1), (blocks2, actual2) = _canonical_key(s1), _canonical_key(s2)
        if blocks1 == blocks2 and set(s1.colours) == set(s2.colours):
            if actual1 != actual2:
                return NotBisimilar(round=0)
            world = dict(zip(s2.colours, s2.worlds))
            return BisimWitness(frozenset(zip(s1.worlds, map(world.__getitem__, s1.colours))))
    rounds, _, separated = _separation(s1, s2)
    if separated is not None:
        return NotBisimilar(round=separated)
    final, n1 = rounds[-1], len(s1.worlds)
    matched: dict[int, list[str]] = {}  # final class -> its worlds of s2
    for w2, c2 in zip(s2.worlds, final[n1:]):
        matched.setdefault(c2, []).append(w2)
    pairs = zip(s1.worlds, final)
    return BisimWitness(frozenset((w1, w2) for w1, c1 in pairs for w2 in matched.get(c1, ())))


def bisimilar(s1: AttentionState, s2: AttentionState) -> BisimWitness | NotBisimilar:
    """Compare two pointed attention states over the same signature: by
    colour when both are discrete, else by refinement."""
    return _compare(s1, s2)


def kripke_bisimilar(
    k1: EpistemicState, k2: EpistemicState
) -> BisimWitness | NotBisimilar:
    """Compare two pointed epistemic states on their full valuations."""
    return _compare(k1, k2)


def _quotient(s: AttentionState, table: dict[Hashable, int]) -> tuple[AttentionState, tuple]:
    """``contract(s)`` and its key, whose kind (module docstring) is decided
    here once, on the contracted state; a discrete ``s`` is its own quotient
    and is not refined.  Over one table the key by stable numbers is exact:
    a stable number fixes the previous round's class and the classes each
    block meets, each of which holds one stable class, so equal numbers
    form a bisimulation.  Both keys are complete when every world is
    reachable from the actual world: bisimilar such states have isomorphic
    quotients, so they get keys of one kind; isomorphic discrete quotients
    have one canonical form, and other quotients meet the same classes in
    every round."""
    quotient, discrete = s, _discrete(s)
    if not discrete:
        stable = _refine(table, s)[-1]
        key = (frozenset(stable), stable[_actual_position(s)])
        if len(key[0]) < len(s.worlds):
            members: dict[int, list[str]] = {}
            for world, number in zip(s.worlds, stable):
                members.setdefault(number, []).append(world)
            rep: dict[str, str] = {}  # class name -> first member
            name_of: dict[str, str] = {}
            for group in members.values():
                name = min(group)
                rep[name] = group[0]
                name_of.update(dict.fromkeys(group, name))

            # At the stable round, worlds of one class see the same set of
            # classes in their blocks, so two blocks whose images share a
            # class have equal images: each image is a whole quotient block,
            # and only duplicates go.  Each image's first class holds the
            # first world of its input blocks, so the images come in normal
            # order and the parts go in as they are.
            partitions = {
                agent: tuple(
                    dict.fromkeys(frozenset(name_of[w] for w in block) for block in blocks)
                )
                for agent, blocks in s.partitions.items()
            }
            quotient = s._read_off(rep, partitions, name_of[s.actual])
            discrete = _discrete(quotient)
    return quotient, (_canonical_key(quotient) if discrete else key)


def contract(s: AttentionState) -> AttentionState:
    """Quotient by the largest auto-bisimulation.

    Reads the classes of the stable colouring: each class is named after its
    lexicographically least member and read off its first member, classes
    keep the first-occurrence order of the input worlds, and each quotient
    block is the set of classes met in one input block; when every class is
    one world, ``s`` itself comes back.  The result is bisimilar to the
    input.  When every input world is reachable from the actual world, it
    is also the smallest such state, unique up to isomorphism; unreachable
    worlds survive as their own classes.
    """
    return _quotient(s, {})[0]


def distinguishing_formula(
    k1: EpistemicState, k2: EpistemicState, max_rounds: int = 2
) -> Formula | None:
    """A formula true at ``k1``'s actual and false at ``k2``'s, if one exists
    within ``max_rounds`` knowledge alternations; None otherwise.

    The formula describes the actual world's class at the separating round.
    A round-0 class is a valuation; it is described by one literal per other
    round-0 class, on the least (by ``repr``) atom of the signature that the
    two valuations disagree on, so its size depends on the number of
    classes, not on the attention bound.  Two classes that differ only in
    atoms the signature does not know get no literal; if that leaves the
    formula true at ``k2``'s actual world, the result is None.  Negations
    strip a leading ``~`` instead of adding a second one, and so does the
    disjunction of the classes met in a block, written ``~(~a & ~b)``.
    """
    states = (k1, k2)
    rounds, actual1, separated = _separation(k1, k2)
    if separated is None or separated > max_rounds:
        return None
    sig, known = k1.sig, _known_atoms(k1.sig)
    nodes = [(side, w) for side, s in enumerate(states) for w in s.worlds]
    index = {node: n for n, node in enumerate(nodes)}
    reps: dict[tuple[int, int], int] = {}
    for r, ids in enumerate(rounds[: separated + 1]):
        for n, cid in enumerate(ids):
            reps.setdefault((r, cid), n)
    valuations = dict(zip(rounds[0], k1.colours + k2.colours))  # colour = valuation

    def neg(f: Formula) -> Formula:
        return f.sub if isinstance(f, Not) else Not(f)

    @cache
    def chi(r: int, cid: int) -> Formula:
        parts: list[Formula] = []
        if r == 0:
            own = valuations[cid]
            for other in valuations.values():
                differ = [atom for atom in own ^ other if atom in known]
                if differ:
                    atom = min(differ, key=repr)
                    f = PropAtom(atom) if isinstance(atom, str) else atom
                    parts.append(f if atom in own else Not(f))
            return and_all(dict.fromkeys(parts))
        n, prev = reps[(r, cid)], rounds[r - 1]
        side, world = nodes[n]
        parts.append(chi(r - 1, prev[n]))
        for agent in sig.agents:
            block = states[side].block_of(agent, world)
            touched = sorted({prev[index[(side, v)]] for v in block})
            touched_chis = [chi(r - 1, c) for c in touched]
            parts.append(Know(agent, neg(and_all(map(neg, touched_chis)))))
            for sub in touched_chis:
                parts.append(Not(Know(agent, neg(sub))))
        return and_all(parts)

    formula = chi(separated, rounds[separated][actual1])
    # Built from the signature's atoms and agents alone, so not validated.
    if _eval(k1, formula, k1.actual) and not _eval(k2, formula, k2.actual):
        return formula
    return None
