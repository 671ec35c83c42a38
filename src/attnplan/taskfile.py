"""JSON task documents: states, action models, actions, and planning tasks.

One document carries a signature and four named-object sections.  Formulas
are stored as strings in the surface syntax, relations as lists of groups
(closed into partitions on load; unmentioned worlds or events become
singletons), and world order is the JSON key order, so a document reloads
to exactly the same objects.  A loaded document's equal formulas are one
node (``_Formulas``), so the tables that key formulas by value, the
labelling's and the prover's, meet each by identity; its states are built
once, already in normal form.

``state_document``/``action_document`` produce reloadable documents from
in-memory objects, and ``export_dot`` renders a state for graphviz.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .actions import (
    AttentionAction,
    AttentionActionModel,
    CostEntry,
    CostTable,
    EpistemicAction,
    validate_action,
)
from .errors import AttnPlanError, CostLookupError, TaskFileError
from .logic import Formula, Signature, _intern, format_formula, parse_formula
from .models import (
    AttentionState,
    close_into_partition,
    validate_state,
)
from .planner import PlanningTask


@dataclass(frozen=True)
class TaskDocument:
    """Everything one file defines, plus non-fatal diagnostics."""

    sig: Signature
    states: Mapping[str, AttentionState]
    models: Mapping[str, AttentionActionModel]
    actions: Mapping[str, AttentionAction]
    tasks: Mapping[str, PlanningTask]
    warnings: tuple[str, ...] = ()


def _expect(node: Any, kind: type, where: str) -> Any:
    if not isinstance(node, kind) or (kind is int and isinstance(node, bool)):
        raise TaskFileError(f"{where}: expected {kind.__name__}, got {type(node).__name__}")
    return node


def _strings(node: Any, where: str) -> list[str]:
    """``node`` if it is a list of strings; else ``_expect``'s error for the
    list or for its first element that is not a string."""
    items = _expect(node, list, where)
    if not all(map(str.__instancecheck__, items)):
        _expect(next(x for x in items if not isinstance(x, str)), str, where)
    return items


class _Formulas:
    """One document's formulas: each distinct text parsed once and interned
    into one node table (``logic._intern``), so equal subformulas are one node."""

    def __init__(self, sig: Signature) -> None:
        self.sig = sig
        self.texts: dict[str, Formula] = {}
        self.nodes: dict[Formula, Formula] = {}

    def __call__(self, text: Any, where: str) -> Formula:
        """The formula at ``where``."""
        _expect(text, str, where)
        if text not in self.texts:
            try:
                self.texts[text] = _intern(parse_formula(self.sig, text), self.nodes)
            except AttnPlanError as exc:
                raise TaskFileError(f"{where}: {exc}")
        return self.texts[text]


def _signature(raw: Mapping[str, Any]) -> Signature:
    node = _expect(raw.get("signature"), dict, "signature")
    try:
        return Signature(
            agents=tuple(_strings(node.get("agents"), "signature.agents")),
            attention_bound=_expect(
                node.get("attention_bound"), int, "signature.attention_bound"
            ),
            prop_atoms=tuple(_strings(node.get("atoms"), "signature.atoms")),
        )
    except ValueError as exc:
        raise TaskFileError(f"signature: {exc}")


def _relation_groups(
    sig: Signature, items: tuple[str, ...], node: Any, where: str
) -> dict[str, tuple[frozenset[str], ...]]:
    node = _expect(node if node is not None else {}, dict, where)
    out: dict[str, tuple[frozenset[str], ...]] = {}
    for agent, groups in node.items():
        if agent not in sig.agents:
            raise TaskFileError(f"{where}.{agent}: unknown agent")
        groups = _expect(groups, list, f"{where}.{agent}")
        try:
            out[agent] = close_into_partition(
                items, [_strings(g, f"{where}.{agent}") for g in groups]
            )
        except ValueError as exc:
            raise TaskFileError(f"{where}.{agent}: {exc}")
    return out


def _state(sig: Signature, name: str, node: Any) -> AttentionState:
    where = f"states.{name}"
    node = _expect(node, dict, where)
    worlds_node = _expect(node.get("worlds"), dict, f"{where}.worlds")
    worlds = tuple(worlds_node)
    valuation: dict[str, frozenset[str]] = {}
    attention: dict[str, dict[str, int]] = {agent: {} for agent in sorted(sig.agents)}
    for world, world_node in worlds_node.items():
        world_node = _expect(world_node, dict, f"{where}.worlds.{world}")
        atoms = _strings(world_node.get("atoms", []), f"{where}.worlds.{world}.atoms")
        valuation[world] = frozenset(atoms)
        att_node = _expect(
            world_node.get("attention", {}), dict, f"{where}.worlds.{world}.attention"
        )
        for agent, value in att_node.items():
            if agent not in sig.agents:
                raise TaskFileError(
                    f"{where}.worlds.{world}.attention: unknown agent {agent!r}"
                )
            attention[agent][world] = _expect(
                value, int, f"{where}.worlds.{world}.attention.{agent}"
            )
    given = _relation_groups(sig, worlds, node.get("relations"), f"{where}.relations")
    actual = _expect(node.get("actual"), str, f"{where}.actual")
    # Built once, in normal form: maps keyed in sorted agent order, worlds in
    # document order and ``close_into_partition``'s blocks in the order of
    # their first world; an agent with no relation given has all worlds apart.
    state = AttentionState._normal(
        sig=sig,
        worlds=worlds,
        partitions={
            agent: given[agent] if agent in given else close_into_partition(worlds, [])
            for agent in sorted(sig.agents)
        },
        valuation=valuation,
        attention=attention,
        actual=actual,
    )
    problems = validate_state(state)
    if problems:
        raise TaskFileError(f"{where}: " + "; ".join(problems))
    return state


def _cost_table(
    formula: _Formulas, events: tuple[str, ...], node: Any, where: str
) -> CostTable:
    sig = formula.sig
    node = _expect(node if node is not None else {}, dict, where)
    default = node.get("default")
    if default is not None:
        _expect(default, int, f"{where}.default")
    agent_defaults_node = _expect(
        node.get("agent_defaults", {}), dict, f"{where}.agent_defaults"
    )
    agent_defaults: dict[str, int] = {}
    for agent, value in agent_defaults_node.items():
        if agent not in sig.agents:
            raise TaskFileError(f"{where}.agent_defaults: unknown agent {agent!r}")
        agent_defaults[agent] = _expect(value, int, f"{where}.agent_defaults.{agent}")
    entries: list[CostEntry] = []
    for k, entry_node in enumerate(_expect(node.get("entries", []), list, f"{where}.entries")):
        entry_node = _expect(entry_node, dict, f"{where}.entries[{k}]")
        agent = _expect(entry_node.get("agent"), str, f"{where}.entries[{k}].agent")
        event = _expect(entry_node.get("event"), str, f"{where}.entries[{k}].event")
        if event not in events:
            raise TaskFileError(f"{where}.entries[{k}].event: unknown event {event!r}")
        entries.append(
            CostEntry(
                agent=agent,
                formula=formula(entry_node.get("formula"), f"{where}.entries[{k}].formula"),
                event=event,
                cost=_expect(entry_node.get("cost"), int, f"{where}.entries[{k}].cost"),
            )
        )
    return CostTable(entries=tuple(entries), agent_defaults=agent_defaults, default=default)


def _model(formula: _Formulas, name: str, node: Any, warnings: list[str]) -> AttentionActionModel:
    sig = formula.sig
    where = f"models.{name}"
    node = _expect(node, dict, where)
    events_node = _expect(node.get("events"), dict, f"{where}.events")
    if not events_node:
        raise TaskFileError(f"{where}.events: a model needs at least one event")
    events = tuple(events_node)
    pre: dict[str, Formula] = {}
    for event, event_node in events_node.items():
        event_node = _expect(event_node, dict, f"{where}.events.{event}")
        pre[event] = formula(event_node.get("pre"), f"{where}.events.{event}.pre")
    model = AttentionActionModel(
        sig=sig,
        events=events,
        q=_relation_groups(sig, events, node.get("q"), f"{where}.q"),
        qstar=_relation_groups(sig, events, node.get("qstar"), f"{where}.qstar"),
        pre=pre,
        cost=_cost_table(formula, events, node.get("costs"), f"{where}.costs"),
    )
    # Checked once, as its question-free action, so a model no action names
    # is checked too; an action is checked only for what it adds.
    for diagnostic in validate_action(AttentionAction(name=name, model=model)):
        if diagnostic.severity == "error":
            raise TaskFileError(f"{where}: {diagnostic.message}")
        warnings.append(f"{where}: {diagnostic.message}")
    return model


def _action(
    formula: _Formulas, models: Mapping[str, AttentionActionModel], name: str, node: Any
) -> AttentionAction:
    sig = formula.sig
    where = f"actions.{name}"
    node = _expect(node, dict, where)
    model_name = _expect(node.get("model"), str, f"{where}.model")
    if model_name not in models:
        raise TaskFileError(f"{where}.model: unknown model {model_name!r}")
    model = models[model_name]
    questions_node = _expect(node.get("questions", {}), dict, f"{where}.questions")
    questions: dict[str, Formula] = {}
    for agent, text in questions_node.items():
        if agent not in sig.agents:
            raise TaskFileError(f"{where}.questions: unknown agent {agent!r}")
        questions[agent] = formula(text, f"{where}.questions.{agent}")
    actual = _expect(node.get("actual"), str, f"{where}.actual")
    if actual not in model.events:
        raise TaskFileError(f"{where}.actual: unknown event {actual!r}")
    action = AttentionAction(name=name, model=model, questions=questions, actual=actual)
    # ``_model`` checked the model and parsing fits each question to the
    # signature; left are the prices, ``_costs``, which every update reuses.
    try:
        action._costs
    except CostLookupError as exc:
        raise TaskFileError(f"{where}: {exc}")
    return action


def _task(
    formula: _Formulas,
    states: Mapping[str, AttentionState],
    actions: Mapping[str, AttentionAction],
    name: str,
    node: Any,
) -> PlanningTask:
    where = f"tasks.{name}"
    node = _expect(node, dict, where)
    initial_name = _expect(node.get("initial"), str, f"{where}.initial")
    if initial_name not in states:
        raise TaskFileError(f"{where}.initial: unknown state {initial_name!r}")
    action_names = _strings(node.get("actions"), f"{where}.actions")
    chosen: list[AttentionAction] = []
    for action_name in action_names:
        if action_name not in actions:
            raise TaskFileError(f"{where}.actions: unknown action {action_name!r}")
        chosen.append(actions[action_name])
    return PlanningTask(
        name=name,
        initial=states[initial_name],
        actions=tuple(chosen),
        goal=formula(node.get("goal"), f"{where}.goal"),
    )


def loads(text: str) -> TaskDocument:
    """Parse a task document from a JSON string.  A document nested deeper
    than the interpreter's stack allows, in its JSON or in any formula, is
    refused with TaskFileError like any other malformed one: a formula at
    its place, the JSON for the whole document."""
    warnings: list[str] = []
    try:
        raw = json.loads(text)
        _expect(raw, dict, "document")
        sig = _signature(raw)
        formula = _Formulas(sig)
        states = {
            name: _state(sig, name, node)
            for name, node in _expect(raw.get("states", {}), dict, "states").items()
        }
        models = {
            name: _model(formula, name, node, warnings)
            for name, node in _expect(raw.get("models", {}), dict, "models").items()
        }
        actions = {
            name: _action(formula, models, name, node)
            for name, node in _expect(raw.get("actions", {}), dict, "actions").items()
        }
        tasks = {
            name: _task(formula, states, actions, name, node)
            for name, node in _expect(raw.get("tasks", {}), dict, "tasks").items()
        }
    except json.JSONDecodeError as exc:
        raise TaskFileError(f"not valid JSON: {exc}")
    except RecursionError:
        raise TaskFileError("document: nested too deeply to read") from None
    return TaskDocument(
        sig=sig,
        states=states,
        models=models,
        actions=actions,
        tasks=tasks,
        warnings=tuple(warnings),
    )


def load(path: str | Path) -> TaskDocument:
    """Load a task document from a file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TaskFileError(f"cannot read {path}: {exc}")
    return loads(text)


def bundled_path(name: str):
    """Path-like handle to a fixture document shipped with the package."""
    return resources.files("attnplan") / "fixtures" / name


def load_bundled(name: str) -> TaskDocument:
    return loads(bundled_path(name).read_text())


# ---------------------------------------------------------------------------
# Emission


def _signature_dict(sig: Signature) -> dict:
    return {
        "agents": list(sig.agents),
        "attention_bound": sig.attention_bound,
        "atoms": list(sig.prop_atoms),
    }


def _blocks_list(items: tuple[str, ...], blocks) -> list[list[str]]:
    index = {item: k for k, item in enumerate(items)}
    return [sorted(block, key=index.__getitem__) for block in blocks]


def state_fragment(s: AttentionState) -> dict:
    return {
        "worlds": {
            world: {
                "atoms": [a for a in s.sig.prop_atoms if a in s.valuation[world]],
                "attention": {agent: s.attention[agent][world] for agent in s.sig.agents},
            }
            for world in s.worlds
        },
        "relations": {
            agent: _blocks_list(s.worlds, s.partitions[agent]) for agent in s.sig.agents
        },
        "actual": s.actual,
    }


def state_document(s: AttentionState, name: str = "result") -> str:
    """A reloadable single-state document as pretty JSON."""
    doc = {"signature": _signature_dict(s.sig), "states": {name: state_fragment(s)}}
    return json.dumps(doc, indent=2)


def model_fragment(model: AttentionActionModel) -> dict:
    costs: dict[str, Any] = {}
    if model.cost.default is not None:
        costs["default"] = model.cost.default
    if model.cost.agent_defaults:
        costs["agent_defaults"] = dict(model.cost.agent_defaults)
    if model.cost.entries:
        costs["entries"] = [
            {
                "agent": entry.agent,
                "formula": format_formula(entry.formula),
                "event": entry.event,
                "cost": entry.cost,
            }
            for entry in model.cost.entries
        ]
    return {
        "events": {e: {"pre": format_formula(model.pre[e])} for e in model.events},
        "q": {a: _blocks_list(model.events, model.q[a]) for a in model.sig.agents},
        "qstar": {
            a: _blocks_list(model.events, model.qstar[a]) for a in model.sig.agents
        },
        "costs": costs,
    }


def action_document(x: AttentionAction, model_name: str = "model") -> str:
    """A reloadable document holding one attention action and its model."""
    doc = {
        "signature": _signature_dict(x.sig),
        "models": {model_name: model_fragment(x.model)},
        "actions": {
            x.name: {
                "model": model_name,
                "questions": {
                    agent: format_formula(q) for agent, q in x.questions.items()
                },
                "actual": x.actual,
            }
        },
    }
    return json.dumps(doc, indent=2)


def epistemic_action_dict(y: EpistemicAction) -> dict:
    """A JSON-ready description of a plain epistemic action."""
    def atom_str(atom) -> str:
        return atom if isinstance(atom, str) else format_formula(atom)

    out: dict[str, Any] = {
        "events": {
            e: {
                "pre": format_formula(y.pre[e]),
                "post": {
                    atom_str(atom): format_formula(formula)
                    for atom, formula in sorted(
                        y.post.get(e, {}).items(), key=lambda kv: atom_str(kv[0])
                    )
                },
            }
            for e in y.events
        },
        "q": {a: _blocks_list(y.events, y.q[a]) for a in y.sig.agents},
        "actual": y.actual,
    }
    if y.actual_family:
        out["actual_family"] = list(y.actual_family)
    return out


def _gvquote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(s: AttentionState) -> str:
    """Deterministic graphviz source for a state.

    Worlds are nodes (the actual world doubled), clique edges are drawn
    once per unordered pair and labeled with the agents sharing the pair.
    """
    index = {w: k for k, w in enumerate(s.worlds)}
    lines = ["graph state {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for world in s.worlds:
        atoms = " ".join(a for a in s.sig.prop_atoms if a in s.valuation[world])
        budgets = " ".join(
            f"{agent}:{s.attention[agent][world]}" for agent in s.sig.agents
        )
        label = world + "\\n" + (atoms or "-") + "\\n" + budgets
        extra = ", peripheries=2" if world == s.actual else ""
        lines.append(f"  {_gvquote(world)} [label={_gvquote(label)}{extra}];")
    pair_agents: dict[tuple[str, str], list[str]] = {}
    for agent in s.sig.agents:
        for block in s.partitions[agent]:
            ordered = sorted(block, key=index.__getitem__)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1 :]:
                    pair_agents.setdefault((left, right), []).append(agent)
    for (left, right), agents in sorted(
        pair_agents.items(), key=lambda kv: (index[kv[0][0]], index[kv[0][1]])
    ):
        label = ",".join(agents)
        lines.append(
            f"  {_gvquote(left)} -- {_gvquote(right)} [label={_gvquote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
