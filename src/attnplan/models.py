"""Pointed models: attention states and plain epistemic states.

An attention state is a multi-agent partition model (one equivalence
relation per agent, stored as a tuple of blocks) with a valuation over the
propositional atoms and a per-agent, per-world attention budget that must
be constant on each of that agent's blocks.  An epistemic state drops the
budgets and instead lets the valuation range over propositional *and*
attention atoms, treated as opaque extensional facts.

Construction normalizes field order so that equal models compare equal
regardless of how their parts were assembled; semantic well-formedness is
checked separately by :func:`validate_state`.  In normal form maps are keyed
by agent in sorted order, then by world in ``worlds`` order, blocks come in
order of their first world, valuations are frozensets and budgets ints.
Five trusted sites skip that pass through the constructor ``_normal``, each
writing its parts in that order: the loader's ``taskfile._state``;
``attention_update``; ``AttentionState._read_off``, the one builder of the
planner's cut-down states (``_generated`` and the merging ``_quotient``);
and, on the epistemic side of ``emulate.check_equivalent_on``,
``kripke_rendition`` and ``product_update``.

Truth is defined here once for both kinds, which differ only in
``holds_attention``.  It comes in two shapes: ``_eval`` answers at one
world and visits only the worlds the formula's knowledge operators reach;
``_Labelling`` computes a formula's extension over the whole state,
subformulas once each, for the updates, which need every world.  ``check``
stays per-world because callers ask it about one world of small states,
where building a labelling costs more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Hashable, Iterable, Mapping, TypeVar, Union

from .errors import FormulaValidationError, SignatureMismatch, StateValidationError
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
    att_eq,
    att_lt,
    validate_formula,
)

Atom = Union[str, AttEq, AttLess]
Partition = tuple[frozenset[str], ...]


@cache
def _known_atoms(sig: Signature) -> frozenset[Atom]:
    """The atoms a valuation over ``sig`` may list: its propositional atoms
    and its shared attention atoms, whose stored hashes a set difference
    reuses."""
    return frozenset(sig.prop_atoms + sig.attention_atoms())


def close_into_partition(items: tuple[str, ...], groups: Iterable[Iterable[str]]) -> Partition:
    """Close possibly-partial, possibly-overlapping groups into a partition.

    Groups are merged when they share a member (union-find); items not
    mentioned become singletons.  Blocks are collected in one pass over
    ``items``, so each block first appears at its member of least
    declaration index, and blocks come out in that order.
    """
    groups = [list(group) for group in groups]
    parent = {item: item for item in items}
    for group in groups:
        for member in group:
            if member not in parent:
                raise ValueError(f"unknown member {member!r} in relation group")

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
    return tuple(frozenset(b) for b in blocks.values())


def _normalize_partition(items: tuple[str, ...], blocks: Iterable[Iterable[str]]) -> Partition:
    """Blocks in order of their first member in ``items``; ties, and blocks
    with no member there (which go last), keep their input order."""
    blocks = [frozenset(b) for b in blocks]
    of: dict[str, list[int]] = {}
    for k, block in enumerate(blocks):
        for member in block:
            of.setdefault(member, []).append(k)
    order = dict.fromkeys(k for item in items for k in of.get(item, ()))
    order.update(dict.fromkeys(range(len(blocks))))
    return tuple(blocks[k] for k in order)


def _partition_faults(items: tuple[str, ...], blocks: Partition, noun: str) -> list[str]:
    """What keeps ``blocks`` from partitioning ``items`` (the ``noun``)
    exactly, each as a predicate for the relation's name: an empty block,
    blocks sharing a member, items in no block and members that are no item.
    The one structural check of every relation, on states and actions."""
    out: list[str] = []
    seen: set[str] = set()
    for block in blocks:
        if not block:
            out.append("has an empty block")
        if seen & block:
            out.append(f"has overlapping blocks on {sorted(seen & block)}")
        seen |= block
    missing = [x for x in items if x not in seen]
    unknown = sorted(seen.difference(items))
    if missing:
        out.append(f"does not partition the {noun} exactly: no block has {missing}")
    if unknown:
        out.append(f"does not partition the {noun} exactly: unknown {unknown}")
    return out


_Model = TypeVar("_Model", bound="_PartitionModel")


class _PartitionModel:
    """What the two state kinds share: worlds, one partition per agent and a
    valuation, normalized on construction (``_normal`` takes them as they
    are), and the block index.  Subclasses are frozen dataclasses with those
    fields; each says in ``holds_attention`` how it reads an attention atom,
    the one place the two semantics differ."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "worlds", tuple(self.worlds))
        parts = {
            agent: _normalize_partition(self.worlds, blocks)
            for agent, blocks in self.partitions.items()
        }
        object.__setattr__(self, "partitions", {a: parts[a] for a in sorted(parts)})
        val = {w: frozenset(self.valuation.get(w, frozenset())) for w in self.worlds}
        object.__setattr__(self, "valuation", val)

    @classmethod
    def _normal(cls: type[_Model], **fields) -> _Model:
        """The state with these fields, already in normal form, as they are."""
        s = object.__new__(cls)
        s.__dict__.update(fields)
        return s

    @cached_property
    def _blocks(self) -> dict[str, dict[str, frozenset[str]]]:
        return {
            agent: {w: block for block in blocks for w in block}
            for agent, blocks in self.partitions.items()
        }

    def block_of(self, agent: str, world: str) -> frozenset[str]:
        if agent not in self._blocks:  # from a formula no gate has walked
            raise FormulaValidationError(f"unknown agent {agent!r}")
        return self._blocks[agent][world]


@dataclass(frozen=True)
class AttentionState(_PartitionModel):
    """A pointed partition model with per-agent attention budgets."""

    sig: Signature
    worlds: tuple[str, ...]
    partitions: Mapping[str, Partition]
    valuation: Mapping[str, frozenset[str]]
    attention: Mapping[str, Mapping[str, int]]
    actual: str

    def __post_init__(self) -> None:
        super().__post_init__()
        att = {
            agent: {w: int(per_world[w]) for w in self.worlds if w in per_world}
            for agent, per_world in self.attention.items()
        }
        object.__setattr__(self, "attention", {a: att[a] for a in sorted(att)})

    def att(self, agent: str, world: str) -> int:
        return self.attention[agent][world]

    def _read_off(
        self, rep: Mapping[str, str], partitions: Mapping[str, Partition], actual: str
    ) -> AttentionState:
        """Worlds ``rep``'s keys, each with the valuation and budgets of world
        ``rep[name]`` here, and ``partitions`` and ``actual`` as given, all in
        normal form: the one builder of the planner's cut-down states."""
        return AttentionState._normal(
            sig=self.sig,
            worlds=tuple(rep),
            partitions=partitions,
            valuation={name: self.valuation[w] for name, w in rep.items()},
            attention={
                agent: {name: per_world[w] for name, w in rep.items()}
                for agent, per_world in self.attention.items()
            },
            actual=actual,
        )

    def holds_attention(self, atom: AttEq | AttLess, world: str) -> bool:
        """Attention atoms compare against the agent's budget."""
        if atom.agent not in self.attention:
            raise FormulaValidationError(f"unknown agent {atom.agent!r}")
        budget = self.attention[atom.agent][world]
        return budget == atom.bound if isinstance(atom, AttEq) else budget < atom.bound

    @cached_property
    def colours(self) -> tuple[Hashable, ...]:
        """Per world, the valuation zipped with each agent's budget, in
        signature order; computed once per state, as ``_blocks`` is."""
        budgets = [map(self.attention[a].__getitem__, self.worlds) for a in self.sig.agents]
        return tuple(zip(map(self.valuation.__getitem__, self.worlds), *budgets))


@dataclass(frozen=True)
class EpistemicState(_PartitionModel):
    """A pointed partition model whose valuation may carry attention atoms."""

    sig: Signature
    worlds: tuple[str, ...]
    partitions: Mapping[str, Partition]
    valuation: Mapping[str, frozenset[Atom]]
    actual: str

    def holds_attention(self, atom: AttEq | AttLess, world: str) -> bool:
        """Attention atoms are extensional facts: true iff listed."""
        return atom in self.valuation[world]

    @cached_property
    def colours(self) -> tuple[Hashable, ...]:
        """What bisimilar worlds must agree on, per world: the full
        valuation; computed once per state."""
        return tuple(map(self.valuation.__getitem__, self.worlds))


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
    world_set, props = set(s.worlds), frozenset(s.sig.prop_atoms)
    for world, atoms in s.valuation.items():
        for atom in sorted(atoms - props, key=repr):
            out.append(f"world {world!r} carries unknown atom {atom!r}")
    if set(s.partitions) != set(s.sig.agents):
        out.append("partitions do not cover exactly the signature's agents")
    for agent, blocks in s.partitions.items():
        faults = _partition_faults(s.worlds, blocks, "worlds")
        out.extend(f"agent {agent!r} {fault}" for fault in faults)
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


def _require_actual(s: _PartitionModel) -> None:
    """``validate_state``'s error when ``s.actual`` is not a world of ``s``."""
    if s.actual not in s.valuation:
        raise StateValidationError([f"actual world {s.actual!r} is not a world"])


def _eval(s: _PartitionModel, f: Formula, world: str) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, PropAtom):
        return f.name in s.valuation[world]
    if isinstance(f, (AttEq, AttLess)):
        return s.holds_attention(f, world)
    if isinstance(f, Not):
        return not _eval(s, f.sub, world)
    if isinstance(f, And):
        return _eval(s, f.left, world) and _eval(s, f.right, world)
    if isinstance(f, Know):
        return all(_eval(s, f.sub, v) for v in s.block_of(f.agent, world))
    raise ValueError(f"not a formula node: {f!r}")


def check(s: _PartitionModel, f: Formula, world: str | None = None) -> bool:
    """Truth of ``f`` at ``world`` (default: the actual world).

    Either state kind; in an epistemic state attention atoms are extensional.
    Raises StateValidationError when the default actual world is not a
    world, and ValueError for a given ``world`` that is not one.
    """
    validate_formula(s.sig, f)
    if world is None:
        _require_actual(s)
        world = s.actual
    elif world not in s.valuation:
        raise ValueError(f"unknown world {world!r}")
    return _eval(s, f, world)


check_epistemic = check


class _Labelling:
    """Extensions in ``s`` as bitmasks, bit k for ``s.worlds[k]``, built from
    the subformulas' (labelling model checking): ``Know`` keeps the blocks
    inside its argument's extension, an agent's masks built at its first
    ``Know``, and an atom's mask at the first node that names it; nothing
    indexes the valuation up front, because a rendition lists many
    attention atoms per world and a formula reads few atoms.  The memo is
    keyed by value, which each node's stored hash makes one dict probe, so
    equal subformulas are evaluated once, whether or not they are one node;
    it lives as long as the object, one update."""

    def __init__(self, s: _PartitionModel) -> None:
        self.s = s
        self.bit = {w: 1 << k for k, w in enumerate(s.worlds)}
        self.full = (1 << len(s.worlds)) - 1
        self.memo: dict[Formula, int] = {}
        self.blocks: dict[str, list[int]] = {}

    def extension(self, f: Formula) -> int:
        out = self.memo.get(f)
        if out is not None:
            return out
        if isinstance(f, Top):
            out = self.full
        elif isinstance(f, PropAtom):
            val = self.s.valuation
            out = sum(b for w, b in self.bit.items() if f.name in val[w])
        elif isinstance(f, (AttEq, AttLess)):
            out = sum(b for w, b in self.bit.items() if self.s.holds_attention(f, w))
        elif isinstance(f, Not):
            out = self.full & ~self.extension(f.sub)
        elif isinstance(f, And):
            out = self.extension(f.left) & self.extension(f.right)
        elif isinstance(f, Know):
            if f.agent not in self.blocks:
                blocks = self.s.partitions.get(f.agent)
                if blocks is None:
                    raise FormulaValidationError(f"unknown agent {f.agent!r}")
                self.blocks[f.agent] = [sum(map(self.bit.__getitem__, b)) for b in blocks]
            inner = self.extension(f.sub)
            out = sum(b for b in self.blocks[f.agent] if b & inner == b)
        else:
            raise ValueError(f"not a formula node: {f!r}")
        self.memo[f] = out
        return out


def kripke_rendition(s: AttentionState) -> EpistemicState:
    """Write the budgets into the valuation as attention atoms.

    A world gets ``(att_i = n)`` for its exact budget n and ``(att_i < m)``
    for every m above the budget, so the rendition satisfies exactly the
    formulas the attention state does.  Each (agent, budget) pair's atoms
    are one frozenset of shared atoms (``logic.att_eq``/``att_lt``), built
    once per call; a world's valuation is the union of its own with one such
    set per agent, which reuses the hashes the sets store.  The state's
    normal partitions pass on as they are.  Raises StateValidationError
    when the actual world is not a world.
    """
    _require_actual(s)
    bound = s.sig.attention_bound
    facts: dict[tuple[str, int], frozenset[Atom]] = {}
    valuation: dict[str, frozenset[Atom]] = {}
    for world in s.worlds:
        per_agent = []
        for agent in s.sig.agents:
            budget = s.attention[agent][world]
            if (agent, budget) not in facts:
                below = (att_lt(agent, m) for m in range(budget + 1, bound + 1))
                facts[agent, budget] = frozenset((att_eq(agent, budget), *below))
            per_agent.append(facts[agent, budget])
        valuation[world] = s.valuation[world].union(*per_agent)
    return EpistemicState._normal(
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
