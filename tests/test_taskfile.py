"""Task documents: every malformed input fails with a typed error, and a
loaded document's equal formulas are one node."""

import copy
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnplan import taskfile
from attnplan.errors import AttnPlanError, TaskFileError
from attnplan.logic import format_formula, parse_formula, subformulas
from attnplan.taskfile import (
    TaskDocument,
    action_document,
    bundled_path,
    loads,
    state_fragment,
)

from generators import SIG2, rand_attention_action, rand_formula, rand_state

BASE = json.loads(bundled_path("two_facts.task").read_text())


def mutated(path: tuple, value) -> str:
    """The bundled two-facts document with the node at ``path`` set to
    ``value``, as JSON text."""
    doc = copy.deepcopy(BASE)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return json.dumps(doc)


UNUSED_MODEL_FAULTS = [
    ({"default": -3}, "models.spare: default has negative cost -3"),
    (
        {"default": 1, "entries": [{"agent": "zz", "formula": "p", "event": "e_pq", "cost": 1}]},
        "models.spare: cost entry for unknown agent 'zz'",
    ),
]


def with_spare_model(costs: dict) -> str:
    """The bundled two-facts document plus a model ``spare``, the ``facts``
    model with ``costs``, that no action names, as JSON text."""
    doc = copy.deepcopy(BASE)
    doc["models"]["spare"] = dict(doc["models"]["facts"], costs=costs)
    return json.dumps(doc)


@pytest.mark.parametrize("costs,fault", UNUSED_MODEL_FAULTS, ids=["default", "agent"])
def test_a_model_no_action_names_is_checked(costs, fault):
    with pytest.raises(TaskFileError) as info:
        loads(with_spare_model(costs))
    assert str(info.value) == fault


UNPRICED = "actions.ask_p: no cost entry or default covers agent 'i' at event 'e_pq'"
INTRANSITIVE = (
    "models.facts: q union qstar is not transitive for agent 'i'; "
    "updates may raise IllFormedResult"
)


def with_costs_emptied() -> str:
    """The bundled two-facts document with every cost table empty, so each
    model prices only the trivial question, as JSON text."""
    doc = copy.deepcopy(BASE)
    for model in doc["models"].values():
        model["costs"] = {}
    return json.dumps(doc)


def with_intransitive_facts() -> str:
    """The bundled two-facts document whose ``facts`` model has a q union
    qstar that is not transitive, named by the two actions ``ask_p`` and
    ``ask_q``, as JSON text."""
    doc = copy.deepcopy(BASE)
    doc["models"]["facts"]["q"] = {"i": [["e_pq", "e_npq"]]}
    doc["models"]["facts"]["qstar"] = {"i": [["e_npq", "e_pnq"]]}
    del doc["actions"]["ask_pq"]
    doc["tasks"]["main"]["actions"].remove("ask_pq")
    return json.dumps(doc)


def test_each_model_is_validated_once(monkeypatch):
    calls, original = [], taskfile.validate_action

    def counting(action):
        calls.append(action.name)
        return original(action)

    monkeypatch.setattr(taskfile, "validate_action", counting)
    doc = loads(json.dumps(BASE))
    assert (len(doc.models), len(doc.actions)) == (2, 4)
    assert calls == ["facts", "implication"]


def test_a_state_partition_is_built_once_per_agent(monkeypatch):
    """The closed relation for an agent with one, the all-singletons
    default only for an agent without."""
    worlds, built = tuple(BASE["states"]["init"]["worlds"]), []
    original = taskfile.close_into_partition

    def counting(items, groups):
        groups = list(groups)
        if items == worlds:
            built.append(groups)
        return original(items, groups)

    monkeypatch.setattr(taskfile, "close_into_partition", counting)
    loads(json.dumps(BASE))
    assert built == [BASE["states"]["init"]["relations"]["i"]]
    built.clear()
    state = loads(mutated(("states", "init", "relations"), {})).states["init"]
    assert built == [[]]
    assert state.partitions["i"] == tuple(frozenset({w}) for w in worlds)


def test_an_unpriced_question_is_refused():
    with pytest.raises(TaskFileError) as info:
        loads(with_costs_emptied())
    assert str(info.value) == UNPRICED


def test_a_model_warns_once_under_its_own_name():
    doc = loads(with_intransitive_facts())
    assert sum(a.model is doc.models["facts"] for a in doc.actions.values()) == 2
    assert doc.warnings == (INTRANSITIVE,)


def test_a_question_for_an_unknown_agent_is_placed():
    with pytest.raises(TaskFileError) as info:
        loads(mutated(("actions", "ask_p", "questions", "zz"), "p"))
    assert str(info.value) == "actions.ask_p.questions: unknown agent 'zz'"


DEEP = 10**5
# Each overflows the interpreter's stack somewhere inside ``loads``: the JSON
# decoder or the formula parser.  The parser types its own overflow, so a
# formula is refused at its place with the position where it stopped; too
# deep a JSON is refused for the whole document.
DEEP_DOCUMENTS = {
    "json": '{"signature": ' + "[" * DEEP + "]" * DEEP + "}",
    "goal": mutated(("tasks", "main", "goal"), "~" * 3000 + "p"),
    "question": mutated(("actions", "ask_p", "questions", "i"), "~" * 3000 + "p"),
    "cost-entry": mutated(
        ("models", "facts", "costs", "entries", 0, "formula"), "~" * 3000 + "p"
    ),
}
NESTED_TOO_DEEPLY = "document: nested too deeply to read"
DEEP_COMPLAINTS = {  # patterns for the whole message
    "json": re.escape(NESTED_TOO_DEEPLY),
    "goal": r"tasks\.main\.goal: nested too deeply to read \(at position \d+\)",
    "question": r"actions\.ask_p\.questions\.i: nested too deeply to read \(at position \d+\)",
    "cost-entry": (
        r"models\.facts\.costs\.entries\[0\]\.formula: "
        r"nested too deeply to read \(at position \d+\)"
    ),
}
# Deep, but within what the parser reads: once parsed, a formula hashes
# from its stored hash at any depth, so a priced question loads.
PARSEABLE_DEEP_DOCUMENTS = {
    "question": mutated(("actions", "ask_p", "questions", "i"), "~" * 600 + "p"),
    "cost-entry": mutated(
        ("models", "facts", "costs", "entries", 0, "formula"), "~" * 800 + "p"
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
def test_a_document_nested_too_deeply_is_refused(name):
    with pytest.raises(TaskFileError) as info:
        loads(DEEP_DOCUMENTS[name])
    assert re.fullmatch(DEEP_COMPLAINTS[name], str(info.value))


@pytest.mark.parametrize("name", sorted(PARSEABLE_DEEP_DOCUMENTS))
def test_a_deep_parseable_formula_loads(name):
    """The deep formula loads at its place and hashes like a fresh parse."""
    text = PARSEABLE_DEEP_DOCUMENTS[name]
    sig = loads(text).sig
    [(source, formula)] = [(s, f) for s, f in loaded_formulas(text) if s.startswith("~" * 600)]
    assert format_formula(formula) == source
    assert hash(formula) == hash(parse_formula(sig, source))


def loaded_formulas(text: str):
    """``(text, formula)`` for each formula slot of the document ``text``: the
    text as its JSON holds it, the formula as ``loads`` gives it."""
    raw, doc = json.loads(text), loads(text)
    for m, model in raw.get("models", {}).items():
        for e, event in model["events"].items():
            yield event["pre"], doc.models[m].pre[e]
        for k, entry in enumerate(model.get("costs", {}).get("entries", [])):
            yield entry["formula"], doc.models[m].cost.entries[k].formula
    for a, action in raw.get("actions", {}).items():
        for agent, question in action.get("questions", {}).items():
            yield question, doc.actions[a].questions[agent]
    for t, task in raw.get("tasks", {}).items():
        yield task["goal"], doc.tasks[t].goal


def seeded_document(rng: random.Random) -> str:
    """A priced random action's document, plus a state and a task, whose
    preconditions, questions and goal are drawn from three random formulas,
    their negations and their conjunctions, so they share subformulas."""
    x = rand_attention_action(rng, SIG2, max_events=4, total=False, priced=True)
    doc = json.loads(action_document(x))
    parts = [format_formula(rand_formula(rng, SIG2)) for _ in range(3)]
    pool = parts + [f"~({p})" for p in parts] + [f"({p}) & ({q})" for p in parts for q in parts]
    for event in doc["models"]["model"]["events"].values():
        event["pre"] = rng.choice(pool)
    questions = doc["actions"][x.name]["questions"]
    for agent in questions:
        questions[agent] = rng.choice(pool)
    doc["states"] = {"s": state_fragment(rand_state(rng, SIG2))}
    doc["tasks"] = {"t": {"initial": "s", "actions": [x.name], "goal": rng.choice(pool)}}
    return json.dumps(doc)


def seeded_documents(count: int) -> list[str]:
    """The first ``count`` seeded documents that load; a negative price
    refuses one now and then."""
    rng, out = random.Random(28), []
    while len(out) < count:
        text = seeded_document(rng)
        try:
            loads(text)
        except TaskFileError:
            continue
        out.append(text)
    return out


FIXTURE_TEXTS = [bundled_path(n).read_text() for n in ("two_facts.task", "muddy_children.task")]
DOCUMENTS = FIXTURE_TEXTS + seeded_documents(60)


def test_every_loaded_formula_equals_its_parse():
    for text in DOCUMENTS:
        sig = loads(text).sig
        for source, formula in loaded_formulas(text):
            assert formula == parse_formula(sig, source)


def test_equal_subformulas_of_a_document_are_one_node():
    """Every node of every formula a document loads, grouped by its printed
    text: each group is one object."""
    shared = 0
    for text in DOCUMENTS:
        node_of: dict[str, int] = {}
        for _, formula in loaded_formulas(text):
            for sub in subformulas(formula):
                assert node_of.setdefault(format_formula(sub), id(sub)) == id(sub)
        texts = [source for source, _ in loaded_formulas(text)]
        shared += len(set(texts)) < len(texts)
    assert shared >= 40, shared  # documents where one text fills two slots


def test_muddy_children_shares_its_formulas(muddy_doc):
    hear = muddy_doc.models["announce_pair"].pre["hear"]
    assert muddy_doc.models["announce_pair"].pre["miss"].sub is hear
    assert muddy_doc.models["announce"].pre["hear"] is hear
    questions = [
        q for name in ("attend", "attend_deaf") for q in muddy_doc.actions[name].questions.values()
    ]
    assert len(questions) == 6 and all(q is hear for q in questions)


def nodes(node, path=()):
    """Every node below ``node``, with its path."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for step, child in children:
        yield path + (step,), child
        if isinstance(child, (dict, list)):
            yield from nodes(child, path + (step,))


@pytest.mark.parametrize(
    "path,value,complaint",
    [
        (("states", "init", "relations", "i"), [[{}]], "states.init.relations.i"),
        (("models", "facts", "q", "i"), [[["e_pq"]]], "models.facts.q.i"),
        (("models", "facts", "qstar", "i"), [["e_pq", {}]], "models.facts.qstar.i"),
        (("signature", "agents"), [{}], "signature.agents"),
        (("signature", "agents"), ["i", 3], "signature.agents"),
        (("signature", "atoms"), ["p", ["q"]], "signature.atoms"),
        (("tasks", "main", "actions"), [["ask_p"]], "tasks.main.actions"),
        (("signature", "attention_bound"), True, "signature.attention_bound"),
        (("states", "init", "worlds", "pq", "attention", "i"), True, "attention.i"),
        (("models", "facts", "costs", "default"), False, "costs.default"),
        (("models", "facts", "costs", "agent_defaults", "i"), True, "agent_defaults.i"),
        (("models", "facts", "costs", "entries", 0, "cost"), True, "entries[0].cost"),
    ],
)
def test_ill_typed_nodes_raise_task_file_errors(path, value, complaint):
    with pytest.raises(TaskFileError) as info:
        loads(mutated(path, value))
    assert complaint in str(info.value)


@pytest.mark.parametrize(
    "value,message",
    [
        (["i", 3, {}], "signature.agents: expected str, got int"),
        ([{}, 3], "signature.agents: expected str, got dict"),
        ("i", "signature.agents: expected list, got str"),
    ],
)
def test_a_string_list_is_refused_at_its_first_bad_element(value, message):
    with pytest.raises(TaskFileError) as info:
        loads(mutated(("signature", "agents"), value))
    assert str(info.value) == message


NODES = list(nodes(BASE))
# Keys and string leaves: names and formulas the loader resolves.
NAMES = sorted({x for path, node in NODES for x in (path[-1], node) if isinstance(x, str)})

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(NAMES)
)


def deeper(inner):
    keys = st.text(max_size=3) | st.sampled_from(NAMES)
    return leaves | st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


json_values = deeper(deeper(deeper(leaves)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from([path for path, _ in NODES]), value=json_values)
def test_any_one_node_mutation_loads_or_raises_a_typed_error(path, value):
    try:
        doc = loads(mutated(path, value))
    except AttnPlanError:
        return
    assert isinstance(doc, TaskDocument)
