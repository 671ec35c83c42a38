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
by construction: explicit entries name a component via any member event,
indexed once per model by representative (``_prices``), and ``cost_of``,
the one reader every update, ``to_post`` and the planner price through,
refuses a conflicting or negative price.

``branch_classes`` gives both branch relations of an agent, their classes
and a witness when one is not transitive.  They depend on the action alone,
so each action derives them once per agent (``AttentionAction._branches``,
after its prices in ``_costs``) and the update and ``to_post`` read them
there; the validators call the kernel directly.  Both action kinds obey
one set of structural rules, ``_event_model_faults``; every reader of an
action first passes its cached gate ``_actual_pre``, which raises
AttnPlanError for the first fault and, for an attention action,
FormulaValidationError for a precondition outside the signature, so
preconditions are evaluated unvalidated.  ``applicable``, the one reader of
the gate's value, is the one applicability test: both updates ask it first
and raise NotApplicable when it says no, and the planner asks the update.
The update groups survivors by source block and (budget, event) tag, worked
out per call, instead of comparing them pairwise: readers never write into
an action, whose cached properties are functions of its fields alone.

Past that test, which reads the actual world alone, both updates read
formulas through one ``models._Labelling`` per call: the attention update
its preconditions, the product update its preconditions and the
postconditions that are not bare atoms, each labelled bottom-up over the
whole state with shared subformulas once, not evaluated world by world.  A
bare atom needs no labelling: it holds at a world iff the world's
valuation lists it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import (
    AttnPlanError,
    CostLookupError,
    FormulaValidationError,
    IllFormedResult,
    NameCollision,
    NotApplicable,
)
from .logic import (
    AttEq,
    AttLess,
    Formula,
    PropAtom,
    Signature,
    Top,
    TOP,
    _entails,
    or_all,
    validate_formula,
)
from .models import (
    Atom,
    AttentionState,
    EpistemicState,
    Partition,
    _Labelling,
    _eval,
    _known_atoms,
    _normalize_partition,
    _partition_faults,
    _require_actual,
    close_into_partition,
    require_same_signature,
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

    The trivial question ``T`` always costs 0, before any lookup.  Prices
    are non-negative: ``cost_of`` refuses a negative one.
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
        """Representative (least-index member) of each q-union-qstar component;
        CostLookupError names a relation with a member that is no event."""
        reps: dict[str, dict[str, str]] = {}
        for agent in self.sig.agents:
            reps[agent] = {}
            for label, relation in (("q", self.q), ("qstar", self.qstar)):
                if unknown := set().union(*relation[agent]).difference(self.events):
                    raise CostLookupError(
                        f"{label} of agent {agent!r} names unknown event {min(unknown)!r}"
                    )
            blocks = self.q[agent] + self.qstar[agent]
            for component in close_into_partition(self.events, blocks):
                rep = next(e for e in self.events if e in component)
                reps[agent].update(dict.fromkeys(component, rep))
        return reps

    def component_of(self, agent: str, event: str) -> str:
        try:
            return self._component_rep[agent][event]
        except KeyError:
            raise CostLookupError(f"unknown agent {agent!r} or event {event!r}")

    @cached_property
    def _prices(self) -> dict[tuple[str, Formula, str], list[int]]:
        """The explicit costs of each (agent, question, component representative)
        in entry order; an entry naming an unknown agent or event prices nothing."""
        prices: dict[tuple[str, Formula, str], list[int]] = {}
        for entry in self.cost.entries:
            rep = self._component_rep.get(entry.agent, {}).get(entry.event)
            if rep is not None:
                prices.setdefault((entry.agent, entry.formula, rep), []).append(entry.cost)
        return prices

    def cost_of(self, agent: str, question: Formula, event: str) -> int:
        """Cost charged to ``agent`` for ``question`` at ``event``'s component,
        from ``_prices`` or else the defaults; CostLookupError for none, two
        or a negative one."""
        if isinstance(question, Top):
            return 0
        rep = self.component_of(agent, event)
        found = set(self._prices.get((agent, question, rep), ()))
        if len(found) > 1:
            raise CostLookupError(
                f"conflicting explicit costs for agent {agent!r} in the "
                f"component of {rep!r}"
            )
        price = found.pop() if found else self.cost.agent_defaults.get(agent, self.cost.default)
        if price is None:
            raise CostLookupError(
                f"no cost entry or default covers agent {agent!r} at event {event!r}"
            )
        if price < 0:
            raise CostLookupError(f"negative cost {price} for agent {agent!r} at event {event!r}")
        return price


@dataclass(frozen=True)
class AttentionAction:
    """An action model plus the question asked of each agent and the actual
    event.  Unasked agents get ``T``; questions for agents outside the
    signature are kept for ``validate_action`` to report."""

    name: str
    model: AttentionActionModel
    questions: Mapping[str, Formula] = field(default_factory=dict)
    actual: str = ""

    def __post_init__(self) -> None:
        filled = dict.fromkeys(self.model.sig.agents, TOP) | dict(self.questions)
        object.__setattr__(self, "questions", filled)
        if not self.actual and self.model.events:
            object.__setattr__(self, "actual", self.model.events[0])

    @property
    def sig(self) -> Signature:
        return self.model.sig

    @cached_property
    def _actual_pre(self) -> Formula:
        """The actual event's precondition, read only once the action is a
        sound event model (``_event_model_faults``) whose preconditions fit
        the signature.  Every reader of the action passes this gate first."""
        of = f" of action {self.name!r}"
        faults = _event_model_faults(self.model, [self.actual], of)
        if faults:
            raise AttnPlanError(faults[0])
        for event, pre in self.model.pre.items():
            try:
                validate_formula(self.sig, pre)
            except FormulaValidationError as exc:
                raise FormulaValidationError(f"pre of {event!r}{of}: {exc}") from None
        return self.model.pre[self.actual]

    @cached_property
    def _costs(self) -> dict[str, dict[str, int]]:
        """What each agent's question costs it at each event."""
        model = self.model
        return {
            agent: {e: model.cost_of(agent, self.questions[agent], e) for e in model.events}
            for agent in self.sig.agents
        }

    @cached_property
    def _branches(self) -> dict[str, tuple[BranchRelation, BranchRelation]]:
        """Each agent's branch relations under the answers its question gets
        from the preconditions.  Passes the gate and prices first, so a missing
        price is reported before a bad question, then validates each once.
        The prover answers each distinct (precondition, question) pair once,
        keyed by value."""
        model, sig, questions = self.model, self.sig, self.questions
        self._actual_pre  # the gate
        self._costs
        for agent in sig.agents:
            validate_formula(sig, questions[agent])
        pre, asked = model.pre, {agent: questions[agent] for agent in sig.agents}
        pairs = dict.fromkeys((pre[e], q) for q in asked.values() for e in model.events)
        answers = {pair: _entails(sig, *pair) for pair in pairs}
        return {
            a: branch_classes(model, a, {e: answers[pre[e], q] for e in model.events})
            for a, q in asked.items()
        }


class _Reading(NamedTuple):
    """A post map as ``product_update`` reads it: its ``keys``; ``read``, the
    atoms that its atom-valued entries copy, as a valuation lists them (the
    name for a ``PropAtom``, the atom itself for an attention atom), with
    ``writes`` giving the keys each one sets; and its other entries' keys
    grouped by formula.  The sets are frozensets, whose algebra reuses the
    hashes they store."""

    keys: frozenset[Atom]
    read: frozenset[Atom]
    writes: dict[Atom, frozenset[Atom]]
    groups: dict[Formula, frozenset[Atom]]


def _read_post(post: Mapping[Atom, Formula]) -> _Reading:
    writes: dict[Atom, list[Atom]] = {}
    groups: dict[Formula, list[Atom]] = {}
    for key, formula in post.items():
        if isinstance(formula, PropAtom):
            writes.setdefault(formula.name, []).append(key)
        elif isinstance(formula, (AttEq, AttLess)):
            writes.setdefault(formula, []).append(key)
        else:
            groups.setdefault(formula, []).append(key)
    frozen = ({k: frozenset(keys) for k, keys in table.items()} for table in (writes, groups))
    return _Reading(frozenset(post), frozenset(writes), *frozen)


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
        # Events sharing a map (``to_post`` gives each event's profile
        # variants one) share its copy, which the gate checks once.
        maps = {id(m): m for m in self.post.values()}
        copies = {key: dict(m) for key, m in maps.items()}
        object.__setattr__(self, "post", {e: copies[id(m)] for e, m in self.post.items()})
        if not self.actual and self.events:
            object.__setattr__(self, "actual", self.events[0])

    @cached_property
    def _actual_pre(self) -> Formula:
        """The actual event's precondition, read only once the action is a
        sound event model, its actual family included, and each
        postcondition writes only atoms of the signature: the gate of
        ``product_update``, ``resolve_actual`` and ``from_nopost``.  The
        formulas are not walked; ``product_update``'s labelling refuses an
        unknown agent where it meets one."""
        faults = _event_model_faults(self, dict.fromkeys((self.actual, *self.actual_family)))
        if faults:
            raise AttnPlanError(faults[0])
        known = _known_atoms(self.sig)
        for event in {id(m): e for e, m in self.post.items()}.values():
            unknown = self.post[event].keys() - known
            if unknown:
                names = ", ".join(sorted(map(repr, unknown)))
                raise AttnPlanError(f"post of {event!r} writes unknown atoms: {names}")
        return self.pre[self.actual]

    @cached_property
    def _readings(self) -> dict[str, _Reading]:
        """Each event's post map (empty for an event with none) as
        ``product_update`` reads it, derived once per distinct map: events
        that share a map share its reading."""
        maps = {e: self.post.get(e, {}) for e in self.events}
        distinct = {id(m): m for m in maps.values()}
        readings = {key: _read_post(m) for key, m in distinct.items()}
        return {e: readings[id(m)] for e, m in maps.items()}

    def _member(self, actual: str) -> EpistemicAction:
        """This action with ``actual``, a member of its actual family, as
        its actual event.  The copy shares this action's maps, which this
        action's gate has checked, and their readings, so it skips
        ``__post_init__``; its own gate checks only that ``actual`` is one of
        the events gated, and the readings are derived once for the whole
        family, however many members ``resolve_actual`` builds."""
        self._actual_pre  # the gate, over the actual event and its family
        if actual not in (self.actual, *self.actual_family):
            raise AttnPlanError(f"{actual!r} is not a member of the actual family")
        member = object.__new__(EpistemicAction)
        member.__dict__.update(
            {f.name: getattr(self, f.name) for f in fields(self)},
            actual=actual,
            _actual_pre=self.pre[actual],
            _readings=self._readings,
        )
        return member

    def is_nopost(self) -> bool:
        return all(not mapping for mapping in self.post.values())


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str


def _event_model_faults(
    y: AttentionActionModel | EpistemicAction, actuals: Iterable[str], of: str = ""
) -> list[str]:
    """The structural faults of an event model of either kind: no events,
    repeated events, an ``actuals`` member that is no event, ``pre`` not
    covering exactly the events, and a relation that does not partition
    them.  ``of`` names the action in each message."""
    events = y.events
    if not events:
        return [f"action model{of} has no events"]
    out: list[str] = []
    if len(set(events)) != len(events):
        out.append(f"event names{of} are not unique")
    out.extend(f"actual event {a!r}{of} is not an event" for a in actuals if a not in events)
    if set(y.pre) != set(events):
        out.append(f"preconditions{of} do not cover exactly the events")
    starred = {"qstar": y.qstar} if isinstance(y, AttentionActionModel) else {}
    for agent in y.sig.agents:
        for label, partitions in ({"q": y.q} | starred).items():
            faults = _partition_faults(events, partitions[agent], "events")
            out.extend(f"{label} of agent {agent!r}{of} {fault}" for fault in faults)
    return out


def validate_action(x: AttentionAction) -> list[Diagnostic]:
    """Structural diagnostics for an action; errors make updates unreliable."""
    out: list[Diagnostic] = []

    def report(message: str, severity: str = "error") -> None:
        out.append(Diagnostic(severity, message))

    model = x.model
    sig = model.sig
    for fault in _event_model_faults(model, [x.actual]):
        report(fault)
    if out:
        return out  # the checks below read the events and relations
    for event, pre in model.pre.items():
        try:
            validate_formula(sig, pre)
        except FormulaValidationError as exc:
            report(f"pre of {event!r}: {exc}")
    for agent, question in x.questions.items():
        if agent not in sig.agents:
            report(f"question for unknown agent {agent!r}")
            continue
        try:
            validate_formula(sig, question)
        except FormulaValidationError as exc:
            report(f"question for {agent!r}: {exc}")
    cost = model.cost
    for agent, price in cost.agent_defaults.items():
        if agent not in sig.agents:
            report(f"agent default for unknown agent {agent!r}")
        elif price < 0:
            report(f"agent default of agent {agent!r} has negative cost {price}")
    if cost.default is not None and cost.default < 0:
        report(f"default has negative cost {cost.default}")
    for entry in cost.entries:
        if entry.agent not in sig.agents:
            report(f"cost entry for unknown agent {entry.agent!r}")
        elif entry.event not in model.events:
            report(f"cost entry of agent {entry.agent!r} names unknown event {entry.event!r}")
        elif entry.cost < 0:
            report(f"cost entry of agent {entry.agent!r} has negative cost {entry.cost}")
    for (agent, formula, rep), costs in model._prices.items():
        try:
            validate_formula(sig, formula)
        except FormulaValidationError as exc:
            report(f"cost entry formula: {exc}")
            continue
        if isinstance(formula, Top):
            report(
                f"cost entry of agent {agent!r} prices the trivial "
                "question, which is fixed at 0; the entry is ignored",
                "warning",
            )
        elif len(set(costs)) > 1:
            report(
                f"conflicting costs for agent {agent!r} on the component of "
                f"{rep!r}: {' vs '.join(map(str, dict.fromkeys(costs)))}"
            )
        elif len(costs) > 1:
            report(
                f"duplicate cost entry for agent {agent!r} on the component of {rep!r}",
                "warning",
            )
    if not any(d.severity == "error" for d in out):
        # Conflicts and negative prices are reported above, so what is left
        # to fail is an asked question that nothing prices.
        try:
            x._costs
        except CostLookupError as exc:
            report(str(exc))
    for agent in sig.agents:
        if branch_classes(model, agent)[0].witness is not None:
            report(
                f"q union qstar is not transitive for agent {agent!r}; "
                "updates may raise IllFormedResult",
                "warning",
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
    if relaxed:
        x._actual_pre  # the gate: branch_classes needs exact partitions
    for agent in model.sig.agents:
        if relaxed:
            union = branch_classes(model, agent)[0]
            total = len(union.classes) <= 1 and union.witness is None
        else:
            total = model.qstar[agent] == (frozenset(model.events),)
        if not total:
            return False
        effective_default = model.cost.agent_defaults.get(agent, model.cost.default)
        if effective_default is None or effective_default <= 0:
            return False
    return all(e.cost > 0 for e in model.cost.entries if not isinstance(e.formula, Top))


def applicable(
    s: AttentionState | EpistemicState, x: AttentionAction | EpistemicAction
) -> bool:
    """Whether the actual event's precondition holds at the actual world, for
    either state kind and either action kind: the one applicability test,
    which both updates ask first."""
    require_same_signature(s.sig, x.sig)
    _require_actual(s)
    return _eval(s, x._actual_pre, s.actual)


def _pair_names(pairs: list[tuple[str, str]]) -> list[str]:
    """Names of the surviving (world, event) ``pairs``, ``world*event``;
    raises NameCollision when two pairs would share one."""
    names = [f"{w}*{e}" for w, e in pairs]
    if len(set(names)) < len(names):
        owner: dict[str, tuple[str, str]] = {}
        for name, pair in zip(names, pairs):
            if owner.setdefault(name, pair) != pair:
                raise NameCollision(
                    f"world and event names collide under pairing: {owner[name]} and "
                    f"{pair} both become {name!r}; rename one"
                )
    return names


def _product_prelude(
    s: AttentionState | EpistemicState, x: AttentionAction | EpistemicAction
) -> tuple[_Labelling, list[tuple[str, str]], list[str]]:
    """What both updates do first: ask ``applicable``, raising NotApplicable
    when it says no, then label ``s`` once and name the pairs of each world
    with the events whose preconditions hold there, in world then event
    order."""
    if not applicable(s, x):
        raise NotApplicable(
            f"pre of actual event {x.actual!r} fails at actual world {s.actual!r}"
        )
    y = x.model if isinstance(x, AttentionAction) else x
    labels = _Labelling(s)
    extension = {e: labels.extension(y.pre[e]) for e in y.events}
    survivors = [
        (w, e) for k, w in enumerate(s.worlds) for e in y.events if extension[e] >> k & 1
    ]
    return labels, survivors, _pair_names(survivors)


def attention_update(s: AttentionState, x: AttentionAction) -> AttentionState:
    """Execute an attention action on a state (the product of the two).

    Raises SignatureMismatch, StateValidationError when the actual world is
    not a world, the errors of the gate ``_actual_pre``, NotApplicable when
    the actual event fails at the actual world and IllFormedResult when some
    agent's updated relation is not transitive (the one way it can fail to
    be an equivalence).

    Cost is constant on each q-union-qstar component and the budget on each
    source block, so one pass per agent groups the survivors by source block
    and tag: the attending bit, branch class and budget left that a
    (budget, event) pair fixes, worked out per call for the budgets ``s``
    holds.  With the tag's relation transitive, each group is one block of
    the result.
    """
    _, survivors, names = _product_prelude(s, x)
    branches, costs, events = x._branches, x._costs, x.model.events
    worlds, kinds = zip(*survivors)

    partitions: dict[str, Partition] = {}
    attention: dict[str, dict[str, int]] = {}
    for agent in s.sig.agents:
        relations, cost = branches[agent], costs[agent]
        source, budget = s._blocks[agent], s.attention[agent]
        tags: dict[tuple[int, str], tuple[int, int, int]] = {}
        for b in set(budget.values()):
            for e in events:
                bit = int(cost[e] <= b)
                tags[b, e] = (bit, relations[bit].class_of[e], max(0, b - cost[e]))
        tagged = list(map(tags.__getitem__, zip(map(budget.__getitem__, worlds), kinds)))
        groups: dict[tuple[frozenset[str], tuple[int, int, int]], list[int]] = {}
        for k, key in enumerate(zip(map(source.__getitem__, worlds), tagged)):
            groups.setdefault(key, []).append(k)
        blocks: dict[int, frozenset[str]] = {}  # by first survivor
        broken: list[tuple[int, tuple[str, str, str]]] = []
        for (_, (attends, _, _)), members in groups.items():
            relation = relations[attends]
            if relation.witness is None:
                blocks[members[0]] = frozenset(map(names.__getitem__, members))
                continue
            # The pairs of this group are related as their events are.  The
            # members keep survivor order, so the earliest broken class and
            # its witness are the ones an all-pairs check would report.
            member_names = tuple(map(names.__getitem__, members))
            keys = {n: relation.keys[kinds[k]] for n, k in zip(member_names, members)}
            classes, group_broken = _union_classes(member_names, keys)
            at = dict(zip(member_names, members))
            blocks.update((min(at[n] for n in block), block) for block in classes)
            if group_broken:
                broken.append((at[group_broken[0]], group_broken[1]))
        if broken:
            raise IllFormedResult(agent, min(broken)[1])
        # A split group's classes landed at the group's place: restore the
        # order of first members.
        partitions[agent] = tuple(map(blocks.__getitem__, sorted(blocks)))
        attention[agent] = dict(zip(names, map(itemgetter(2), tagged)))

    return AttentionState._normal(
        sig=s.sig,
        worlds=tuple(names),
        partitions={agent: partitions[agent] for agent in sorted(partitions)},
        valuation=dict(zip(names, map(s.valuation.__getitem__, worlds))),
        attention={agent: attention[agent] for agent in sorted(attention)},
        actual=names[survivors.index((s.actual, x.actual))],
    )


def apply_sequence(
    s: AttentionState, actions: Iterable[AttentionAction]
) -> AttentionState:
    """Fold attention_update over ``actions``; NotApplicable carries the index."""
    current = s
    for index, action in enumerate(actions):
        try:
            current = attention_update(current, action)
        except NotApplicable as exc:
            message = f"action {action.name!r} is not applicable at step {index}"
            raise NotApplicable(message, index=index) from exc
    return current


def background_announcement(x: AttentionAction) -> AttentionAction:
    """Collapse an action to its single-event background version.

    The one event's precondition is the event-order disjunction of the
    original preconditions, both relations are total, every question is
    trivial, and explicit costs are re-keyed to the new event (distinct
    costs for one agent and formula collide: CostLookupError).
    """
    x._actual_pre  # the gate
    model = x.model
    event = "e!"
    pre = or_all([model.pre[e] for e in model.events])
    new_model = AttentionActionModel(
        sig=model.sig,
        events=(event,),
        q={agent: (frozenset((event,)),) for agent in model.sig.agents},
        qstar={agent: (frozenset((event,)),) for agent in model.sig.agents},
        pre={event: pre},
        cost=CostTable(
            entries=tuple(dict.fromkeys(replace(e, event=event) for e in model.cost.entries)),
            agent_defaults=dict(model.cost.agent_defaults),
            default=model.cost.default,
        ),
    )
    for (agent, _, _), costs in new_model._prices.items():
        if len(set(costs)) > 1:
            raise CostLookupError(
                f"explicit costs for agent {agent!r} collide when all "
                "events share one component"
            )
    return AttentionAction(
        name=x.name + "!",
        model=new_model,
        questions={agent: TOP for agent in model.sig.agents},
        actual=event,
    )


def product_update(k: EpistemicState, y: EpistemicAction) -> EpistemicState:
    """Standard product of an epistemic state with an epistemic action.

    A pair's valuation is its world's atoms minus the post map's keys plus
    the keys whose formula holds at the world.  Each distinct map is read
    through its reading (``EpistemicAction._readings``, derived once per
    action).  A formula that is a bare atom holds at the world iff the
    world's valuation lists it (a propositional atom by name, an attention
    atom as itself), so one frozenset intersection with the reading's
    ``read`` picks, exactly, the atom-valued entries that fire; each other
    formula (``T``, ``~T``, compound ones) gets one ``extension`` per call,
    and a pair tests one bit for it.  The result is written in normal form:
    blocks in order of their first pair, maps in agent and pair order.

    Raises SignatureMismatch, StateValidationError when the actual world is
    not a world, AttnPlanError when the action is no sound event model or
    writes an atom outside the signature (see ``EpistemicAction._actual_pre``),
    FormulaValidationError for a knowledge operator of an unknown agent in a
    pre- or postcondition, and NotApplicable when the actual event fails at
    the actual world.
    """
    labels, survivors, names = _product_prelude(k, y)

    partitions: dict[str, Partition] = {}
    for agent in sorted(k.sig.agents):
        grouped: dict[tuple[frozenset[str], int], list[str]] = {}
        source_blocks = k._blocks[agent]
        event_blocks = {e: i for i, block in enumerate(y.q[agent]) for e in block}
        for name, (w, e) in zip(names, survivors):
            grouped.setdefault((source_blocks[w], event_blocks[e]), []).append(name)
        partitions[agent] = tuple(frozenset(ws) for ws in grouped.values())

    # Per distinct reading, its formula groups that hold somewhere, by extension.
    readings = y._readings
    tables: dict[int, list[tuple[int, frozenset[Atom]]]] = {}
    for e in dict.fromkeys(e for _, e in survivors):
        groups = readings[e].groups
        if id(groups) not in tables:
            extensions = zip(map(labels.extension, groups), groups.values())
            tables[id(groups)] = [(mask, atoms) for mask, atoms in extensions if mask]

    valuation: dict[str, frozenset[Atom]] = {}
    bit = labels.bit
    for name, (w, e) in zip(names, survivors):
        keys, read, writes, groups = readings[e]
        held = k.valuation[w]
        parts = [writes[atom] for atom in read & held]
        parts += [atoms for mask, atoms in tables[id(groups)] if mask & bit[w]]
        valuation[name] = held.difference(keys).union(*parts)

    return EpistemicState._normal(
        sig=k.sig,
        worlds=tuple(names),
        partitions=partitions,
        valuation=valuation,
        actual=names[survivors.index((k.actual, y.actual))],
    )
