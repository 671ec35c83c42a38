"""Action models and the two update operations.

An attention action model carries two equivalence relations per agent: the
plain relation ``q`` (indistinguishable no matter what) and the starred
relation ``qstar`` (indistinguishable only while the agent's budget is too
low for the question asked).  Updating a state filters world/event pairs by
preconditions, charges each agent the cost of its question, and relates two
surviving pairs for an agent when their source worlds were related and the
events fall together under the branch rule:

* budget below cost: events related by ``q`` or ``qstar`` (no refinement);
* budget covers cost: events related by ``q``, or by ``qstar`` when their
  preconditions give the same answer to the question (both entail it, or
  neither does).

Costs are constant across each connected component of ``q`` union ``qstar``
by construction: explicit entries name a component via any member event and
lookups normalize to the component representative.

``branch_classes`` gives both branch relations of an agent, their classes
and a witness when one is not transitive; the update, ``to_post`` and the
validators all read it.  The update groups survivors by source block,
attending bit and event class instead of comparing them pairwise, and finds
them from extension sets: each precondition labelled bottom-up over the
whole state, shared subformulas once, not evaluated world by world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .errors import (
    CostLookupError,
    FormulaValidationError,
    IllFormedResult,
    NotApplicable,
    StateValidationError,
)
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
    TOP,
    entails,
    or_all,
    validate_formula,
)
from .models import (
    Atom,
    AttentionState,
    EpistemicState,
    Partition,
    _eval_epistemic,
    _normalize_partition,
    check,
    close_into_partition,
    require_same_signature,
    validate_state,
)


@dataclass(frozen=True)
class CostEntry:
    """Explicit cost of asking ``formula`` within the component of ``event``."""

    agent: str
    formula: Formula
    event: str
    cost: int


@dataclass(frozen=True)
class CostTable:
    """Explicit entries, then per-agent defaults, then a global default.

    The trivial question ``T`` always costs 0, before any lookup.
    """

    entries: tuple[CostEntry, ...] = ()
    agent_defaults: Mapping[str, int] = field(default_factory=dict)
    default: int | None = None


def _fill_partitions(
    sig: Signature, events: tuple[str, ...], given: Mapping[str, Iterable[Iterable[str]]]
) -> dict[str, Partition]:
    out: dict[str, Partition] = {}
    for agent in sig.agents:
        blocks = given.get(agent)
        if blocks is None:
            out[agent] = tuple(frozenset((e,)) for e in events)
        else:
            out[agent] = _normalize_partition(events, blocks)
    return out


@dataclass(frozen=True)
class AttentionActionModel:
    """Events with preconditions, the two relations, and the cost table."""

    sig: Signature
    events: tuple[str, ...]
    q: Mapping[str, Partition]
    qstar: Mapping[str, Partition]
    pre: Mapping[str, Formula]
    cost: CostTable = field(default_factory=CostTable)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "q", _fill_partitions(self.sig, self.events, self.q))
        object.__setattr__(
            self, "qstar", _fill_partitions(self.sig, self.events, self.qstar)
        )
        object.__setattr__(self, "pre", dict(self.pre))

    @cached_property
    def _component_rep(self) -> dict[str, dict[str, str]]:
        """Representative (least-index member) of each q-union-qstar component."""
        reps: dict[str, dict[str, str]] = {}
        for agent in self.sig.agents:
            reps[agent] = {}
            blocks = self.q[agent] + self.qstar[agent]
            for component in close_into_partition(self.events, blocks):
                rep = next(e for e in self.events if e in component)
                reps[agent].update(dict.fromkeys(component, rep))
        return reps

    def component_of(self, agent: str, event: str) -> str:
        try:
            return self._component_rep[agent][event]
        except (KeyError, ValueError):
            raise CostLookupError(f"unknown agent {agent!r} or event {event!r}")

    def cost_of(self, agent: str, question: Formula, event: str) -> int:
        """Cost charged to ``agent`` for ``question`` at ``event``'s component."""
        if isinstance(question, Top):
            return 0
        rep = self.component_of(agent, event)
        found: list[int] = []
        for entry in self.cost.entries:
            if (
                entry.agent == agent
                and entry.formula == question
                and entry.event in self._component_rep[agent]
                and self._component_rep[agent][entry.event] == rep
            ):
                found.append(entry.cost)
        if found:
            if len(set(found)) > 1:
                raise CostLookupError(
                    f"conflicting explicit costs for agent {agent!r} in the "
                    f"component of {rep!r}"
                )
            return found[0]
        if agent in self.cost.agent_defaults:
            return self.cost.agent_defaults[agent]
        if self.cost.default is not None:
            return self.cost.default
        raise CostLookupError(
            f"no cost entry or default covers agent {agent!r} at event {event!r}"
        )


@dataclass(frozen=True)
class AttentionAction:
    """An action model plus the question asked of each agent and the actual event."""

    name: str
    model: AttentionActionModel
    questions: Mapping[str, Formula] = field(default_factory=dict)
    actual: str = ""

    def __post_init__(self) -> None:
        filled = {a: self.questions.get(a, TOP) for a in self.model.sig.agents}
        object.__setattr__(self, "questions", filled)
        if not self.actual:
            object.__setattr__(self, "actual", self.model.events[0])

    @property
    def sig(self) -> Signature:
        return self.model.sig


@dataclass(frozen=True)
class EpistemicAction:
    """A plain action model: events, one relation per agent, pre and post.

    ``post`` maps each event to a partial map from atoms to formulas;
    missing atoms keep their truth value (identity).  ``actual_family``
    is non-empty for actions whose actual event must be resolved against
    the state it is applied to (see ``emulate.resolve_actual``); plain
    actions leave it empty.
    """

    sig: Signature
    events: tuple[str, ...]
    q: Mapping[str, Partition]
    pre: Mapping[str, Formula]
    post: Mapping[str, Mapping[Atom, Formula]] = field(default_factory=dict)
    actual: str = ""
    actual_family: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "q", _fill_partitions(self.sig, self.events, self.q))
        object.__setattr__(self, "pre", dict(self.pre))
        object.__setattr__(
            self, "post", {e: dict(m) for e, m in self.post.items()}
        )
        if not self.actual:
            object.__setattr__(self, "actual", self.events[0])

    def is_nopost(self) -> bool:
        return all(not mapping for mapping in self.post.values())

    @cached_property
    def _blocks(self) -> dict[str, dict[str, frozenset[str]]]:
        return {
            agent: {e: block for block in blocks for e in block}
            for agent, blocks in self.q.items()
        }

    def block_of(self, agent: str, event: str) -> frozenset[str]:
        return self._blocks[agent][event]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str


def _check_partition(
    agent: str, label: str, blocks: Partition, events: tuple[str, ...]
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    seen: set[str] = set()
    for block in blocks:
        if not block:
            out.append(Diagnostic("error", f"{label} of agent {agent!r} has an empty block"))
        overlap = seen & block
        if overlap:
            out.append(
                Diagnostic(
                    "error",
                    f"{label} of agent {agent!r} has overlapping blocks on {sorted(overlap)}",
                )
            )
        seen |= block
    if seen != set(events):
        out.append(
            Diagnostic(
                "error",
                f"{label} of agent {agent!r} does not partition the events exactly",
            )
        )
    return out


def validate_action(x: AttentionAction) -> list[Diagnostic]:
    """Structural diagnostics for an action; errors make updates unreliable."""
    out: list[Diagnostic] = []
    model = x.model
    sig = model.sig
    if not model.events:
        out.append(Diagnostic("error", "action model has no events"))
        return out
    if len(set(model.events)) != len(model.events):
        out.append(Diagnostic("error", "event names are not unique"))
    if x.actual not in model.events:
        out.append(Diagnostic("error", f"actual event {x.actual!r} is not an event"))
    if set(model.pre) != set(model.events):
        out.append(Diagnostic("error", "preconditions do not cover exactly the events"))
    for event, pre in model.pre.items():
        try:
            validate_formula(sig, pre)
        except FormulaValidationError as exc:
            out.append(Diagnostic("error", f"pre of {event!r}: {exc}"))
    partitioned: list[str] = []
    for agent in sig.agents:
        problems = _check_partition(agent, "q", model.q[agent], model.events)
        problems += _check_partition(agent, "qstar", model.qstar[agent], model.events)
        out.extend(problems)
        if not problems:
            partitioned.append(agent)
    for agent, question in x.questions.items():
        if agent not in sig.agents:
            out.append(Diagnostic("error", f"question for unknown agent {agent!r}"))
            continue
        try:
            validate_formula(sig, question)
        except FormulaValidationError as exc:
            out.append(Diagnostic("error", f"question for {agent!r}: {exc}"))
    seen_components: dict[tuple[str, Formula, str], int] = {}
    for entry in model.cost.entries:
        if entry.agent not in sig.agents:
            out.append(Diagnostic("error", f"cost entry for unknown agent {entry.agent!r}"))
            continue
        if entry.event not in model.events:
            out.append(
                Diagnostic(
                    "error",
                    f"cost entry of agent {entry.agent!r} names unknown event {entry.event!r}",
                )
            )
            continue
        try:
            validate_formula(sig, entry.formula)
        except FormulaValidationError as exc:
            out.append(Diagnostic("error", f"cost entry formula: {exc}"))
            continue
        if entry.cost < 0:
            out.append(
                Diagnostic(
                    "error",
                    f"cost entry of agent {entry.agent!r} has negative cost {entry.cost}",
                )
            )
        if isinstance(entry.formula, Top):
            out.append(
                Diagnostic(
                    "warning",
                    f"cost entry of agent {entry.agent!r} prices the trivial "
                    "question, which is fixed at 0; the entry is ignored",
                )
            )
            continue
        key = (entry.agent, entry.formula, model.component_of(entry.agent, entry.event))
        if key in seen_components:
            if seen_components[key] != entry.cost:
                out.append(
                    Diagnostic(
                        "error",
                        f"conflicting costs for agent {entry.agent!r} on the "
                        f"component of {key[2]!r}: {seen_components[key]} vs {entry.cost}",
                    )
                )
            else:
                out.append(
                    Diagnostic(
                        "warning",
                        f"duplicate cost entry for agent {entry.agent!r} on the "
                        f"component of {key[2]!r}",
                    )
                )
        else:
            seen_components[key] = entry.cost
    for agent in partitioned:
        if branch_classes(model, agent)[0].witness is not None:
            out.append(
                Diagnostic(
                    "warning",
                    f"q union qstar is not transitive for agent {agent!r}; "
                    "updates may raise IllFormedResult",
                )
            )
    return out


def _union_classes(
    items: tuple[str, ...], keys: Mapping[str, tuple[Hashable, Hashable]]
) -> tuple[Partition, tuple[str, tuple[str, str, str]] | None]:
    """Classes of the union of two partitions of ``items``; ``keys[x]`` names
    x's block in each.  The union is transitive iff every class is a single
    block of one of the two.  The first class (in item order) that is not
    comes back as its first member and a witness (a~b, b~c, not a~c).
    """
    blocks: dict[tuple[int, Hashable], list[str]] = {}
    for x in items:
        for side in (0, 1):
            blocks.setdefault((side, keys[x][side]), []).append(x)
    classes = close_into_partition(items, list(blocks.values()))
    for block in classes:
        if all(len({keys[x][side] for x in block}) > 1 for side in (0, 1)):
            members = [x for x in items if x in block]

            def rel(a: str, b: str) -> bool:
                return keys[a][0] == keys[b][0] or keys[a][1] == keys[b][1]

            witness = next((a, b, c) for a in members for b in members for c in members
                           if rel(a, b) and rel(b, c) and not rel(a, c))
            return classes, (members[0], witness)
    return classes, None


@dataclass(frozen=True)
class BranchRelation:
    """One branch relation of an agent: events are related when they share a
    block of ``q`` or of the starred relation as the branch sees it, the two
    blocks ``keys`` names.  ``witness`` is None when it is transitive."""

    keys: Mapping[str, tuple[int, tuple[int, bool | None]]]
    classes: Partition  # connected components, in event order
    class_of: Mapping[str, int]
    witness: tuple[str, str, str] | None


def branch_classes(
    model: AttentionActionModel, agent: str, answers: Mapping[str, bool] | None = None
) -> tuple[BranchRelation, BranchRelation]:
    """The agent's branch relations, indexed by the attending bit.

    Bit 0 (the question is unaffordable) relates events by ``q`` or
    ``qstar``; bit 1 (the agent attends) by ``q``, or by ``qstar`` when the
    preconditions give the same ``answers`` to the question (None: every
    event gives the same answer).  The model's partitions must be exact.
    """
    plain = {e: k for k, block in enumerate(model.q[agent]) for e in block}
    star = {e: k for k, block in enumerate(model.qstar[agent]) for e in block}
    relations = []
    for bit in (0, 1):
        keys = {
            e: (plain[e], (star[e], answers[e] if bit and answers is not None else None))
            for e in model.events
        }
        classes, broken = _union_classes(model.events, keys)
        class_of = {e: k for k, block in enumerate(classes) for e in block}
        witness = broken[1] if broken else None
        relations.append(BranchRelation(keys, classes, class_of, witness))
    return relations[0], relations[1]


def is_nfl(x: AttentionAction, relaxed: bool = False) -> bool:
    """Membership in the planning-friendly class.

    Strict: for every agent the starred relation is total and every
    possible cost is positive.  Relaxed keeps the cost condition but only
    asks that q and qstar together relate every pair of events.
    """
    model = x.model
    for agent in model.sig.agents:
        if relaxed:
            union = branch_classes(model, agent)[0]
            total = len(union.classes) <= 1 and union.witness is None
        else:
            total = len(model.qstar[agent]) == 1 and set(model.qstar[agent][0]) == set(
                model.events
            )
        if not total:
            return False
        effective_default = model.cost.agent_defaults.get(agent, model.cost.default)
        if effective_default is None or effective_default <= 0:
            return False
    for entry in model.cost.entries:
        if not isinstance(entry.formula, Top) and entry.cost <= 0:
            return False
    return True


def applicable(s: AttentionState, x: AttentionAction) -> bool:
    """Whether the actual event's precondition holds at the actual world."""
    require_same_signature(s.sig, x.sig)
    return check(s, x.model.pre[x.actual], s.actual)


def _pair_name(world: str, event: str) -> str:
    return f"{world}*{event}"


class _Labelling:
    """Extensions in ``s`` as bitmasks, bit k for ``s.worlds[k]``, built from
    the subformulas' (labelling model checking): ``Know`` keeps the blocks
    inside its argument's extension.  The memo is keyed by node identity and
    lives as long as the object, one update, so shared subformulas are
    evaluated once."""

    def __init__(self, s: AttentionState) -> None:
        self.s = s
        self.bit = {w: 1 << k for k, w in enumerate(s.worlds)}
        self.full = (1 << len(s.worlds)) - 1
        self.memo: dict[int, int] = {}
        self.atoms: dict[str, int] = {}
        for w, atoms in s.valuation.items():
            for atom in atoms:
                self.atoms[atom] = self.atoms.get(atom, 0) | self.bit[w]
        partitions = s.partitions.items()
        self.blocks = {agent: [self.mask(b) for b in blocks] for agent, blocks in partitions}

    def mask(self, worlds: Iterable[str]) -> int:
        return sum(self.bit[w] for w in worlds)

    def extension(self, f: Formula) -> int:
        if id(f) in self.memo:
            return self.memo[id(f)]
        budgets = self.s.attention
        if isinstance(f, Top):
            out = self.full
        elif isinstance(f, PropAtom):
            out = self.atoms.get(f.name, 0)
        elif isinstance(f, AttEq):
            out = self.mask(w for w, n in budgets[f.agent].items() if n == f.bound)
        elif isinstance(f, AttLess):
            out = self.mask(w for w, n in budgets[f.agent].items() if n < f.bound)
        elif isinstance(f, Not):
            out = self.full & ~self.extension(f.sub)
        elif isinstance(f, And):
            out = self.extension(f.left) & self.extension(f.right)
        elif isinstance(f, Know):
            inner = self.extension(f.sub)
            out = sum(b for b in self.blocks[f.agent] if b & inner == b)
        else:
            raise ValueError(f"not a formula node: {f!r}")
        self.memo[id(f)] = out
        return out


def attention_update(s: AttentionState, x: AttentionAction) -> AttentionState:
    """Execute an attention action on a state (the product of the two).

    Raises NotApplicable when the actual event fails at the actual world
    and IllFormedResult when some agent's updated relation is not
    transitive (the one way it can fail to be an equivalence).
    """
    require_same_signature(s.sig, x.sig)
    model = x.model
    sig = s.sig
    extension = _Labelling(s).extension
    if not extension(model.pre[x.actual]) >> s.worlds.index(s.actual) & 1:
        raise NotApplicable(
            f"pre of actual event {x.actual!r} fails at actual world {s.actual!r}"
        )

    pre = {e: extension(model.pre[e]) for e in model.events}
    survivors = [
        (w, e) for k, w in enumerate(s.worlds) for e in model.events if pre[e] >> k & 1
    ]
    names = {pair: _pair_name(*pair) for pair in survivors}
    if len(set(names.values())) != len(names):
        raise ValueError("world and event names collide under pairing; rename one")

    costs = {
        agent: {e: model.cost_of(agent, x.questions[agent], e) for e in model.events}
        for agent in sig.agents
    }
    answers = {
        agent: {
            e: entails(sig, model.pre[e], x.questions[agent]) for e in model.events
        }
        for agent in sig.agents
    }

    partitions: dict[str, Partition] = {}
    for agent in sig.agents:
        relations = branch_classes(model, agent, answers[agent])
        source = {w: k for k, block in enumerate(s.partitions[agent]) for w in block}
        budget = s.attention[agent]
        # Cost is constant on each q-union-qstar component and the budget on
        # each source block, so the key fixes the attending bit; with that
        # bit's relation transitive, each group is one block of the result.
        groups: dict[tuple[int, int, int], list[int]] = {}
        for k, (w, e) in enumerate(survivors):
            attends = int(costs[agent][e] <= budget[w])
            key = (source[w], attends, relations[attends].class_of[e])
            groups.setdefault(key, []).append(k)
        blocks: list[frozenset[str]] = []
        broken: list[tuple[int, tuple[str, str, str]]] = []
        for (_, attends, _), members in groups.items():
            relation = relations[attends]
            member_names = tuple(names[survivors[k]] for k in members)
            if relation.witness is None:
                blocks.append(frozenset(member_names))
                continue
            # The pairs of this group are related as their events are.  The
            # members keep survivor order, so the earliest broken class and
            # its witness are the ones an all-pairs check would report.
            keys = {n: relation.keys[survivors[k][1]] for n, k in zip(member_names, members)}
            classes, group_broken = _union_classes(member_names, keys)
            blocks.extend(classes)
            if group_broken:
                first, witness = group_broken
                broken.append((members[member_names.index(first)], witness))
        if broken:
            raise IllFormedResult(agent, min(broken)[1])
        partitions[agent] = tuple(blocks)

    new_worlds = tuple(names[p] for p in survivors)
    valuation = {names[(w, e)]: s.valuation[w] for (w, e) in survivors}
    attention = {
        agent: {
            names[(w, e)]: max(0, s.att(agent, w) - costs[agent][e])
            for (w, e) in survivors
        }
        for agent in sig.agents
    }
    result = AttentionState(
        sig=sig,
        worlds=new_worlds,
        partitions=partitions,
        valuation=valuation,
        attention=attention,
        actual=names[(s.actual, x.actual)],
    )
    problems = validate_state(result)
    if problems:  # pragma: no cover - guarded by construction
        raise StateValidationError(problems)
    return result


def apply_sequence(
    s: AttentionState, actions: Iterable[AttentionAction]
) -> AttentionState:
    """Fold attention_update over ``actions``; NotApplicable carries the index."""
    current = s
    for index, action in enumerate(actions):
        if not applicable(current, action):
            raise NotApplicable(
                f"action {action.name!r} is not applicable at step {index}",
                index=index,
            )
        current = attention_update(current, action)
    return current


def background_announcement(x: AttentionAction) -> AttentionAction:
    """Collapse an action to its single-event background version.

    The one event's precondition is the event-order disjunction of the
    original preconditions, both relations are total, every question is
    trivial, and explicit costs are re-keyed to the new event (conflicting
    explicit costs for one agent and formula raise ValueError).
    """
    model = x.model
    event = "e!"
    pre = or_all([model.pre[e] for e in model.events])
    merged: dict[tuple[str, Formula], int] = {}
    for entry in model.cost.entries:
        key = (entry.agent, entry.formula)
        if key in merged and merged[key] != entry.cost:
            raise ValueError(
                f"explicit costs for agent {entry.agent!r} collide when all "
                "events share one component"
            )
        merged[key] = entry.cost
    entries = tuple(
        CostEntry(agent, formula, event, cost)
        for (agent, formula), cost in merged.items()
    )
    new_model = AttentionActionModel(
        sig=model.sig,
        events=(event,),
        q={agent: (frozenset((event,)),) for agent in model.sig.agents},
        qstar={agent: (frozenset((event,)),) for agent in model.sig.agents},
        pre={event: pre},
        cost=CostTable(
            entries=entries,
            agent_defaults=dict(model.cost.agent_defaults),
            default=model.cost.default,
        ),
    )
    return AttentionAction(
        name=x.name + "!",
        model=new_model,
        questions={agent: TOP for agent in model.sig.agents},
        actual=event,
    )


def product_update(k: EpistemicState, y: EpistemicAction) -> EpistemicState:
    """Standard product of an epistemic state with an epistemic action."""
    require_same_signature(k.sig, y.sig)
    if not _eval_epistemic(k, y.pre[y.actual], k.actual):
        raise NotApplicable(
            f"pre of actual event {y.actual!r} fails at actual world {k.actual!r}"
        )
    survivors = [
        (w, e) for w in k.worlds for e in y.events if _eval_epistemic(k, y.pre[e], w)
    ]
    names = {pair: _pair_name(*pair) for pair in survivors}
    if len(set(names.values())) != len(names):
        raise ValueError("world and event names collide under pairing; rename one")

    partitions: dict[str, Partition] = {}
    for agent in k.sig.agents:
        grouped: dict[tuple[int, int], list[str]] = {}
        source_blocks = {w: i for i, block in enumerate(k.partitions[agent]) for w in block}
        event_blocks = {e: i for i, block in enumerate(y.q[agent]) for e in block}
        for w, e in survivors:
            grouped.setdefault((source_blocks[w], event_blocks[e]), []).append(
                names[(w, e)]
            )
        partitions[agent] = tuple(frozenset(ws) for ws in grouped.values())

    valuation: dict[str, frozenset[Atom]] = {}
    for w, e in survivors:
        post = y.post.get(e, {})
        atoms: set[Atom] = {a for a in k.valuation[w] if a not in post}
        for atom, formula in post.items():
            if _eval_epistemic(k, formula, w):
                atoms.add(atom)
        valuation[names[(w, e)]] = frozenset(atoms)

    return EpistemicState(
        sig=k.sig,
        worlds=tuple(names[p] for p in survivors),
        partitions=partitions,
        valuation=valuation,
        actual=names[(k.actual, y.actual)],
    )
