"""Command-line surface and the task-document format."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnplan
from attnplan.cli import run
from attnplan.errors import AttnPlanError, TaskFileError
from attnplan.logic import format_formula, parse_formula
from attnplan.models import check
from attnplan.taskfile import (
    TaskDocument,
    bundled_path,
    export_dot,
    load_bundled,
    loads,
    state_document,
)

from test_taskfile import (
    DEEP_COMPLAINTS,
    DEEP_DOCUMENTS,
    INTRANSITIVE,
    NAMES,
    NODES,
    PARSEABLE_DEEP_DOCUMENTS,
    UNPRICED,
    UNUSED_MODEL_FAULTS,
    mutated,
    with_costs_emptied,
    with_intransitive_facts,
    with_spare_model,
)

TWO_FACTS = str(bundled_path("two_facts.task"))
MUDDY = str(bundled_path("muddy_children.task"))


def cli_env() -> dict[str, str]:
    """The environment with this checkout's package first on the path."""
    src = str(Path(attnplan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestDocuments:
    def test_bundled_document_counts(self, two_facts_doc):
        doc = two_facts_doc
        assert len(doc.states) == 1
        assert len(doc.models) == 2
        assert len(doc.actions) == 4
        assert len(doc.tasks) == 1

    def test_world_order_follows_declaration(self, two_facts_doc):
        assert two_facts_doc.states["init"].worlds == ("pq", "npq", "pnq", "npnq")

    def test_task_actions_keep_declared_order(self, two_facts_doc):
        names = [a.name for a in two_facts_doc.tasks["main"].actions]
        assert names == ["ask_p", "ask_q", "ask_pq", "ask_imp"]

    def test_state_document_round_trips(self, muddy_doc):
        start = muddy_doc.states["start"]
        text = state_document(start, name="start")
        again = loads(text).states["start"]
        assert again == start

    @pytest.mark.parametrize(
        "text,complaint",
        [
            ("not json", "not valid JSON"),
            ("[]", "expected dict"),
            ('{"signature": {"agents": ["a"]}}', "attention_bound"),
            (
                '{"signature": {"agents": ["a"], "attention_bound": 1, "atoms": ["p"]},'
                ' "states": {"s": {"worlds": {"w": {"atoms": ["zz"]}},'
                ' "relations": {}, "actual": "w"}}}',
                "zz",
            ),
            (
                '{"signature": {"agents": ["a"], "attention_bound": 1, "atoms": ["p"]},'
                ' "states": {"s": {"worlds": {"w": {"atoms": [], "attention": {"a": 0}}},'
                ' "relations": {}, "actual": "nope"}}}',
                "is not a world",
            ),
        ],
    )
    def test_malformed_documents_are_named_and_placed(self, text, complaint):
        with pytest.raises(TaskFileError) as info:
            loads(text)
        assert complaint in str(info.value)

    def test_dot_export_is_deterministic(self, muddy_doc):
        first = export_dot(muddy_doc.states["start"])
        second = export_dot(load_bundled("muddy_children.task").states["start"])
        assert first == second
        assert first.startswith("graph state {")
        assert first.endswith("}\n")

    def test_dot_marks_the_actual_world(self, two_facts_doc):
        dot = export_dot(two_facts_doc.states["init"])
        assert 'peripheries=2' in dot
        assert dot.count("--") == 6  # one undirected edge per block pair


class TestCommands:
    def test_validate_reports_counts(self, capsys):
        assert run(["validate", "--task", TWO_FACTS]) == 0
        out = capsys.readouterr().out
        assert "1 state(s), 2 model(s), 4 action(s), 1 task(s)" in out

    def test_check_true_false_exit_codes(self, capsys):
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", "(att_i = 15)"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", "K_i p"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_check_at_named_world(self, capsys):
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", "p", "--world", "npq"]) == 1

    def test_update_emits_a_reloadable_document(self, capsys, tmp_path):
        assert run(["update", "--task", TWO_FACTS, "--state", "init",
                    "--actions", "ask_p,ask_imp"]) == 0
        text = capsys.readouterr().out
        doc = loads(text)
        result = doc.states["result"]
        assert result.att("i", result.actual) == 0
        again = tmp_path / "derived.task"
        again.write_text(text)
        assert run(["check", "--task", str(again), "--state", "result",
                    "--formula", "K_i p & K_i q"]) == 0

    def test_update_can_skip_contraction(self, capsys):
        assert run(["update", "--task", MUDDY, "--state", "start",
                    "--actions", "listen", "--no-contract"]) == 0
        doc = loads(capsys.readouterr().out)
        assert len(doc.states["result"].worlds) == 4

    def test_contract_collapses_nothing_on_distinct_worlds(self, capsys):
        assert run(["contract", "--task", MUDDY, "--state", "start"]) == 0
        doc = loads(capsys.readouterr().out)
        assert len(doc.states["result"].worlds) == 7

    def test_bisim_exit_codes(self, capsys, muddy_doc):
        assert run(["bisim", "--task", MUDDY, "--left", "start",
                    "--right", "start"]) == 0
        out = capsys.readouterr().out
        assert "bisimilar" in out
        assert "distinguishing formula" not in out
        assert run(["bisim", "--task", MUDDY, "--left", "start",
                    "--right", "start_drained"]) == 1
        verdict, evidence = capsys.readouterr().out.splitlines()
        assert "not bisimilar" in verdict
        prefix = "distinguishing formula: "
        assert evidence.startswith(prefix)
        formula = parse_formula(muddy_doc.sig, evidence[len(prefix):])
        assert check(muddy_doc.states["start"], formula)
        assert not check(muddy_doc.states["start_drained"], formula)

    def test_plan_prints_steps_in_order(self, capsys):
        assert run(["plan", "--task", TWO_FACTS, "--name", "main"]) == 0
        assert capsys.readouterr().out.splitlines() == ["ask_p", "ask_imp"]

    def test_plan_bounded_negative(self, capsys):
        assert run(["plan", "--task", TWO_FACTS, "--name", "main",
                    "--max-depth", "1"]) == 1
        assert "none within depth 1" in capsys.readouterr().out

    def test_plan_gate_and_relaxation(self, capsys):
        assert run(["plan", "--task", MUDDY, "--name", "deaf_all_learn"]) == 2
        assert "outside the class" in capsys.readouterr().err
        assert run(["plan", "--task", MUDDY, "--name", "deaf_all_learn",
                    "--relaxed-nfl"]) == 1
        assert "no solution" in capsys.readouterr().out

    def test_emulate_to_post_emits_json(self, capsys):
        assert run(["emulate", "--task", TWO_FACTS, "--direction", "to-post",
                    "--action", "ask_p"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["events"]) == 8
        assert payload["actual"] == "e_pq@1"
        assert payload["actual_family"] == ["e_pq@0", "e_pq@1"]
        post = payload["events"]["e_pq@1"]["post"]
        assert post["(att_i = 0)"] == "(att_i < 11)"
        assert post["(att_i = 1)"] == "(att_i = 11)"

    def test_emulate_from_nopost_emits_a_loadable_action(self, capsys):
        assert run(["emulate", "--task", MUDDY, "--direction", "from-nopost",
                    "--model", "announce"]) == 0
        doc = loads(capsys.readouterr().out)
        assert "announce_lifted" in doc.actions

    def test_emulate_from_nopost_refuses_a_stray_actual_event(self, capsys):
        assert run(["emulate", "--task", MUDDY, "--direction", "from-nopost",
                    "--model", "announce", "--actual", "zz"]) == 2
        assert "actual event 'zz' is not an event" in capsys.readouterr().err

    def test_render_emits_graphviz(self, capsys):
        assert run(["render", "--task", MUDDY, "--state", "start"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph state {")

    def test_unknown_names_exit_two(self, capsys):
        assert run(["check", "--task", TWO_FACTS, "--state", "zz",
                    "--formula", "T"]) == 2
        assert "no state named" in capsys.readouterr().err
        assert run(["plan", "--task", TWO_FACTS, "--name", "zz"]) == 2
        capsys.readouterr()
        assert run(["update", "--task", TWO_FACTS, "--state", "init",
                    "--actions", "zz"]) == 2
        capsys.readouterr()

    def test_bad_formula_exits_two_with_position(self, capsys):
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", "(att_i = 99)"]) == 2
        assert "exceeds the bound 15" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["~" * 2000 + "p", "(" * 2000 + "p" + ")" * 2000],
                             ids=["negations", "parentheses"])
    def test_formula_nested_too_deeply_exits_two(self, capsys, text):
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", text]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: nested too deeply to read \(at position \d+\)\n", err)
        assert "RecursionError" not in err

    def test_unreadable_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.task"
        bad.write_text("not json")
        assert run(["validate", "--task", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
    def test_a_document_nested_too_deeply_exits_two(self, capsys, tmp_path, name):
        path = tmp_path / "deep.task"
        path.write_text(DEEP_DOCUMENTS[name])
        assert run(["validate", "--task", str(path)]) == 2
        assert re.fullmatch(f"error: {DEEP_COMPLAINTS[name]}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("name", sorted(PARSEABLE_DEEP_DOCUMENTS))
    def test_a_deep_parseable_document_validates_and_plans(self, capsys, tmp_path, name):
        path = tmp_path / "deep.task"
        path.write_text(PARSEABLE_DEEP_DOCUMENTS[name])
        assert run(["validate", "--task", str(path)]) == 0
        assert run(["plan", "--task", str(path), "--name", "main"]) == 0
        assert capsys.readouterr().err == ""

    def test_a_flat_deep_question_answers_as_its_atom(self, capsys, tmp_path):
        """``p | p | ...`` with 400 disjuncts parses flat but nests about
        1,200 nodes deep; the prover reads it on explicit stacks, so each
        command that asks it prints what the question ``p`` prints."""
        commands = [
            ["update", "--state", "init", "--actions", "ask_p,ask_imp"],
            ["plan", "--name", "main"],
            ["emulate", "--direction", "to-post", "--action", "ask_p"],
        ]
        path, deep = tmp_path / "question.task", " | ".join(["p"] * 400)
        printed = {}
        for question in ("p", deep):
            path.write_text(mutated(("actions", "ask_p", "questions", "i"), question))
            printed[question] = []
            for command in commands:
                code = run([command[0], "--task", str(path), *command[1:]])
                printed[question].append((code, *capsys.readouterr()))
        assert [code for code, _, _ in printed["p"]] == [0, 0, 0]
        assert printed[deep] == printed["p"]

    @pytest.mark.parametrize(
        "costs,fault",
        [
            ({"default": -7}, "default has negative cost -7"),
            ({"agent_defaults": {"i": -7}}, "agent default of agent 'i' has negative cost -7"),
        ],
        ids=["default", "agent default"],
    )
    def test_negative_default_exits_two(self, capsys, tmp_path, costs, fault):
        doc = json.loads(Path(TWO_FACTS).read_text())
        doc["models"]["facts"]["costs"] = costs
        path = tmp_path / "negative.task"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--task", str(path)]) == 2
        assert fault in capsys.readouterr().err
        assert run(["update", "--task", str(path), "--state", "init",
                    "--actions", "ask_p"]) == 2
        assert fault in capsys.readouterr().err

    @pytest.mark.parametrize("costs,fault", UNUSED_MODEL_FAULTS, ids=["default", "agent"])
    def test_unused_model_fault_exits_two(self, capsys, tmp_path, costs, fault):
        path = tmp_path / "spare.task"
        path.write_text(with_spare_model(costs))
        assert run(["validate", "--task", str(path)]) == 2
        assert fault in capsys.readouterr().err

    def test_unpriced_question_exits_two(self, capsys, tmp_path):
        path = tmp_path / "unpriced.task"
        path.write_text(with_costs_emptied())
        assert run(["validate", "--task", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {UNPRICED}\n"

    def test_validate_prints_a_model_warning_once(self, capsys, tmp_path):
        path = tmp_path / "intransitive.task"
        path.write_text(with_intransitive_facts())
        assert run(["validate", "--task", str(path)]) == 0
        warnings = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")
        ]
        assert warnings == [f"warning: {INTRANSITIVE}"]

    def test_unexpected_exception_exits_two(self, capsys):
        # Parsing nests a 400-way disjunction deeper than the evaluator's
        # recursion allows; whatever fails, exit 1 stays an honest "false".
        formula = " | ".join(["p"] * 400)
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", formula]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_update_name_collision_exits_two(self, capsys, tmp_path):
        # (w, e*e) and (w*e, e) would both become w*e*e.
        doc = {
            "signature": {"agents": ["i"], "attention_bound": 1, "atoms": ["p"]},
            "states": {"clash": {
                "worlds": {name: {"atoms": [], "attention": {"i": 0}}
                           for name in ("w", "w*e")},
                "relations": {"i": [["w", "w*e"]]},
                "actual": "w",
            }},
            "models": {"twins": {
                "events": {"e": {"pre": "T"}, "e*e": {"pre": "T"}},
                "q": {"i": []}, "qstar": {"i": []},
                "costs": {"default": 0},
            }},
            "actions": {"go": {"model": "twins", "actual": "e"}},
        }
        task = tmp_path / "clash.task"
        task.write_text(json.dumps(doc))
        assert run(["update", "--task", str(task), "--state", "clash",
                    "--actions", "go"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: world and event names collide")
        assert "ValueError:" not in err

    @pytest.mark.parametrize("module", ["attnplan", "attnplan.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        done = subprocess.run(
            [sys.executable, "-m", module, "validate", "--task", TWO_FACTS],
            capture_output=True, text=True, env=cli_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ok: ")

    def test_closed_output_pipe_exits_two(self):
        # The plan is found but cannot be delivered: an error, not exit 1.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "attnplan", "plan", "--task", MUDDY,
                 "--name", "siblings_learn"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=cli_env(),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 2, done.stderr


# The loader tests' malformed documents, and one whose world carries atoms
# the signature does not know, as JSON text by name.
HASH_SEED_DOCUMENTS = {
    **{f"deep-{name}": text for name, text in DEEP_DOCUMENTS.items()},
    **{f"spare-model-{n}": with_spare_model(c) for n, (c, _) in enumerate(UNUSED_MODEL_FAULTS)},
    "unpriced": with_costs_emptied(),
    "intransitive": with_intransitive_facts(),
    "unknown-atoms": mutated(("states", "init", "worlds", "pq", "atoms"), list("pqrst")),
}


@pytest.mark.parametrize("name", sorted(HASH_SEED_DOCUMENTS))
def test_validate_prints_the_same_under_any_hash_seed(name, tmp_path):
    task = tmp_path / "doc.task"
    task.write_text(HASH_SEED_DOCUMENTS[name])
    outcomes = [
        subprocess.run(
            [sys.executable, "-m", "attnplan", "validate", "--task", str(task)],
            capture_output=True, env={**cli_env(), "PYTHONHASHSEED": seed}, timeout=60,
        )
        for seed in ("0", "1")
    ]
    first, second = ((d.returncode, d.stdout, d.stderr) for d in outcomes)
    assert first == second


def like(node):
    """A value of ``node``'s JSON type, from the bundled two-facts document
    where it can be: a key or string leaf for a string, a small integer for
    an integer, another node for a list or object.  Such mutations often
    still load."""
    if isinstance(node, str):
        return st.sampled_from(NAMES)
    if isinstance(node, int):
        return st.integers(-1, 20)
    return st.sampled_from([other for _, other in NODES if type(other) is type(node)])


loadable_mutations = st.sampled_from(NODES).flatmap(
    lambda found: st.tuples(st.just(found[0]), like(found[1]))
)
# The commands that answer a yes/no question, and so may answer no (exit 1).
ANSWERING = {"check", "bisim", "plan"}


def contract_commands(doc: TaskDocument) -> list[list[str]]:
    """Every command on every name of a loaded document, ``--task`` left
    out; names go in ``--option=value`` form, so one starting with ``-``
    stays a value."""
    states, actions, tasks = list(doc.states), list(doc.actions), doc.tasks
    goals = [format_formula(task.goal) for task in tasks.values()]
    return (
        [["validate"]]
        + [["check", f"--state={s}", f"--formula={g}"] for s in states for g in goals]
        + [["update", f"--state={s}", f"--actions={a}"] for s in states for a in actions]
        + [["contract", f"--state={s}"] for s in states]
        + [["bisim", f"--left={s}", f"--right={r}"] for s in states for r in states]
        + [["emulate", "--direction=to-post", f"--action={a}"] for a in actions]
        + [["render", f"--state={s}"] for s in states]
        + [["plan", f"--name={t}", "--max-depth=2"] for t in tasks]
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutation=loadable_mutations)
def test_every_command_on_a_loadable_mutation_keeps_the_exit_contract(fuzz_dir, mutation):
    """Exit 0, 1 or 2 and no traceback, with exit 1 only for a command that
    answered no."""
    text = mutated(*mutation)
    try:
        doc = loads(text)
    except AttnPlanError:
        return
    path = fuzz_dir / "mutated.task"
    path.write_text(text)
    for command in contract_commands(doc):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([command[0], f"--task={path}", *command[1:]])
        assert code in (0, 1, 2), command
        assert "Traceback" not in err.getvalue(), command
        assert code != 1 or command[0] in ANSWERING, command
