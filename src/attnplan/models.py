"""Pointed models: attention states and plain epistemic states.

An attention state is a multi-agent partition model (one equivalence
relation per agent, stored as a tuple of blocks) with a valuation over the
propositional atoms and a per-agent, per-world attention budget that must
be constant on each of that agent's blocks.  An epistemic state drops the
budgets and instead lets the valuation range over propositional *and*
attention atoms, treated as opaque extensional facts.

Construction normalizes field order so that equal models compare equal
regardless of how their parts were assembled; semantic well-formedness is
checked separately by :func:`validate_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Union

from .errors import SignatureMismatch, StateValidationError
from .logic import (
    And,
    AttEq,
    AttLess,
    Formula,
    Know,
    Not,
    PropAtom,
    Signature,
    Top,
    validate_formula,
)

Atom = Union[str, AttEq, AttLess]
Partition = tuple[frozenset[str], ...]


def close_into_partition(items: tuple[str, ...], groups: Iterable[Iterable[str]]) -> Partition:
    """Close possibly-partial, possibly-overlapping groups into a partition.

    Groups are merged when they share a member (union-find); items not
    mentioned become singletons.  Blocks come out sorted by the least
    declaration index of a member, which makes the result deterministic.
    """
    index = {item: k for k, item in enumerate(items)}
    groups = [list(group) for group in groups]
    for group in groups:
        for member in group:
            if member not in index:
                raise ValueError(f"unknown member {member!r} in relation group")
    parent = {item: item for item in items}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        for member in group[1:]:
            ra, rb = find(group[0]), find(member)
            if ra != rb:
                parent[rb] = ra
    blocks: dict[str, set[str]] = {}
    for item in items:
        blocks.setdefault(find(item), set()).add(item)
    ordered = sorted(blocks.values(), key=lambda b: min(index[m] for m in b))
    return tuple(frozenset(b) for b in ordered)


def _normalize_partition(items: tuple[str, ...], blocks: Iterable[Iterable[str]]) -> Partition:
    index = {item: k for k, item in enumerate(items)}
    ordered = sorted(
        (frozenset(b) for b in blocks),
        key=lambda b: min((index.get(m, len(items)) for m in b), default=len(items)),
    )
    return tuple(ordered)


@dataclass(frozen=True)
class AttentionState:
    """A pointed partition model with per-agent attention budgets."""

    sig: Signature
    worlds: tuple[str, ...]
    partitions: Mapping[str, Partition]
    valuation: Mapping[str, frozenset[str]]
    attention: Mapping[str, Mapping[str, int]]
    actual: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "worlds", tuple(self.worlds))
        parts = {
            agent: _normalize_partition(self.worlds, blocks)
            for agent, blocks in self.partitions.items()
        }
        object.__setattr__(self, "partitions", {a: parts[a] for a in sorted(parts)})
        val = {w: frozenset(self.valuation.get(w, frozenset())) for w in self.worlds}
        object.__setattr__(self, "valuation", val)
        att = {
            agent: {w: int(per_world[w]) for w in self.worlds if w in per_world}
            for agent, per_world in self.attention.items()
        }
        object.__setattr__(self, "attention", {a: att[a] for a in sorted(att)})

    @cached_property
    def _blocks(self) -> dict[str, dict[str, frozenset[str]]]:
        return {
            agent: {w: block for block in blocks for w in block}
            for agent, blocks in self.partitions.items()
        }

    def block_of(self, agent: str, world: str) -> frozenset[str]:
        return self._blocks[agent][world]

    def att(self, agent: str, world: str) -> int:
        return self.attention[agent][world]


@dataclass(frozen=True)
class EpistemicState:
    """A pointed partition model whose valuation may carry attention atoms."""

    sig: Signature
    worlds: tuple[str, ...]
    partitions: Mapping[str, Partition]
    valuation: Mapping[str, frozenset[Atom]]
    actual: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "worlds", tuple(self.worlds))
        parts = {
            agent: _normalize_partition(self.worlds, blocks)
            for agent, blocks in self.partitions.items()
        }
        object.__setattr__(self, "partitions", {a: parts[a] for a in sorted(parts)})
        val = {w: frozenset(self.valuation.get(w, frozenset())) for w in self.worlds}
        object.__setattr__(self, "valuation", val)

    @cached_property
    def _blocks(self) -> dict[str, dict[str, frozenset[str]]]:
        return {
            agent: {w: block for block in blocks for w in block}
            for agent, blocks in self.partitions.items()
        }

    def block_of(self, agent: str, world: str) -> frozenset[str]:
        return self._blocks[agent][world]


def validate_state(s: AttentionState) -> list[str]:
    """Structural diagnostics; an empty list means the state is well-formed."""
    out: list[str] = []
    if not s.worlds:
        out.append("state has no worlds")
        return out
    if len(set(s.worlds)) != len(s.worlds):
        out.append("world names are not unique")
    if s.actual not in s.worlds:
        out.append(f"actual world {s.actual!r} is not a world")
    world_set = set(s.worlds)
    for world, atoms in s.valuation.items():
        for atom in atoms:
            if atom not in s.sig.prop_atoms:
                out.append(f"world {world!r} carries unknown atom {atom!r}")
    if set(s.partitions) != set(s.sig.agents):
        out.append("partitions do not cover exactly the signature's agents")
    for agent, blocks in s.partitions.items():
        seen: set[str] = set()
        for block in blocks:
            if not block:
                out.append(f"agent {agent!r} has an empty block")
            overlap = seen & block
            if overlap:
                out.append(f"agent {agent!r} blocks overlap on {sorted(overlap)}")
            seen |= block
        if seen != world_set:
            missing = sorted(world_set - seen)
            extra = sorted(seen - world_set)
            if missing:
                out.append(f"agent {agent!r} blocks miss worlds {missing}")
            if extra:
                out.append(f"agent {agent!r} blocks mention unknown worlds {extra}")
    if set(s.attention) != set(s.sig.agents):
        out.append("attention map does not cover exactly the signature's agents")
    for agent, per_world in s.attention.items():
        if set(per_world) != world_set:
            out.append(f"attention for agent {agent!r} does not cover exactly the worlds")
            continue
        for world, value in per_world.items():
            if not 0 <= value <= s.sig.attention_bound:
                out.append(
                    f"attention {value} of agent {agent!r} at world {world!r} "
                    f"is outside 0..{s.sig.attention_bound}"
                )
        for block in s.partitions.get(agent, ()):
            values = {per_world[w] for w in block if w in per_world}
            if len(values) > 1:
                out.append(
                    f"attention of agent {agent!r} varies over the block "
                    f"{sorted(block)}: {sorted(values)}"
                )
    return out


def _eval(s: AttentionState, f: Formula, world: str) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, PropAtom):
        return f.name in s.valuation[world]
    if isinstance(f, AttEq):
        return s.attention[f.agent][world] == f.bound
    if isinstance(f, AttLess):
        return s.attention[f.agent][world] < f.bound
    if isinstance(f, Not):
        return not _eval(s, f.sub, world)
    if isinstance(f, And):
        return _eval(s, f.left, world) and _eval(s, f.right, world)
    if isinstance(f, Know):
        return all(_eval(s, f.sub, v) for v in s.block_of(f.agent, world))
    raise ValueError(f"not a formula node: {f!r}")


def check(s: AttentionState, f: Formula, world: str | None = None) -> bool:
    """Truth of ``f`` at ``world`` (default: the actual world)."""
    validate_formula(s.sig, f)
    target = s.actual if world is None else world
    if target not in s.valuation:
        raise ValueError(f"unknown world {target!r}")
    return _eval(s, f, target)


def _eval_epistemic(k: EpistemicState, f: Formula, world: str) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, PropAtom):
        return f.name in k.valuation[world]
    if isinstance(f, (AttEq, AttLess)):
        # Attention atoms are extensional here: true iff listed.
        return f in k.valuation[world]
    if isinstance(f, Not):
        return not _eval_epistemic(k, f.sub, world)
    if isinstance(f, And):
        return _eval_epistemic(k, f.left, world) and _eval_epistemic(k, f.right, world)
    if isinstance(f, Know):
        return all(_eval_epistemic(k, f.sub, v) for v in k.block_of(f.agent, world))
    raise ValueError(f"not a formula node: {f!r}")


def check_epistemic(k: EpistemicState, f: Formula, world: str | None = None) -> bool:
    """Truth of ``f`` in the plain epistemic model, attention atoms extensional."""
    validate_formula(k.sig, f)
    target = k.actual if world is None else world
    if target not in k.valuation:
        raise ValueError(f"unknown world {target!r}")
    return _eval_epistemic(k, f, target)


def kripke_rendition(s: AttentionState) -> EpistemicState:
    """Write the budgets into the valuation as attention atoms.

    A world gets ``(att_i = n)`` for its exact budget n and ``(att_i < m)``
    for every m above the budget, so the rendition satisfies exactly the
    formulas the attention state does.
    """
    bound = s.sig.attention_bound
    valuation: dict[str, frozenset[Atom]] = {}
    for world in s.worlds:
        atoms: set[Atom] = set(s.valuation[world])
        for agent in s.sig.agents:
            budget = s.attention[agent][world]
            atoms.add(AttEq(agent, budget))
            for m in range(budget + 1, bound + 1):
                atoms.add(AttLess(agent, m))
        valuation[world] = frozenset(atoms)
    return EpistemicState(
        sig=s.sig,
        worlds=s.worlds,
        partitions=s.partitions,
        valuation=valuation,
        actual=s.actual,
    )


def attention_state_from_epistemic(
    k: EpistemicState, attention: Mapping[str, Mapping[str, int]] | None = None
) -> AttentionState:
    """Attach budgets to a plain epistemic model, dropping attention atoms.

    The default budget map is all zeros.  The result must validate; a map
    that breaks block constancy (or range) raises StateValidationError
    rather than being repaired.
    """
    if attention is None:
        attention = {agent: {w: 0 for w in k.worlds} for agent in k.sig.agents}
    valuation = {
        world: frozenset(a for a in atoms if isinstance(a, str))
        for world, atoms in k.valuation.items()
    }
    s = AttentionState(
        sig=k.sig,
        worlds=k.worlds,
        partitions=k.partitions,
        valuation=valuation,
        attention=attention,
        actual=k.actual,
    )
    problems = validate_state(s)
    if problems:
        raise StateValidationError(problems)
    return s


def require_same_signature(a: Signature, b: Signature) -> None:
    if a != b:
        raise SignatureMismatch("objects are over different signatures")
