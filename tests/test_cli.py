"""Command-line surface and the task-document format."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attnplan
from attnplan.cli import run
from attnplan.errors import TaskFileError
from attnplan.taskfile import (
    bundled_path,
    export_dot,
    load_bundled,
    loads,
    state_document,
)

TWO_FACTS = str(bundled_path("two_facts.task"))
MUDDY = str(bundled_path("muddy_children.task"))


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

    def test_bisim_exit_codes(self, capsys):
        assert run(["bisim", "--task", MUDDY, "--left", "start",
                    "--right", "start"]) == 0
        assert "bisimilar" in capsys.readouterr().out
        assert run(["bisim", "--task", MUDDY, "--left", "start",
                    "--right", "start_drained"]) == 1
        assert "not bisimilar" in capsys.readouterr().out

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

    def test_emulate_from_nopost_emits_a_loadable_action(self, capsys):
        assert run(["emulate", "--task", MUDDY, "--direction", "from-nopost",
                    "--model", "announce"]) == 0
        doc = loads(capsys.readouterr().out)
        assert "announce_lifted" in doc.actions

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

    def test_unreadable_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.task"
        bad.write_text("not json")
        assert run(["validate", "--task", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unexpected_exception_exits_two(self, capsys):
        # Parsing nests a 400-way disjunction deeper than the evaluator's
        # recursion allows; whatever fails, exit 1 stays an honest "false".
        formula = " | ".join(["p"] * 400)
        assert run(["check", "--task", TWO_FACTS, "--state", "init",
                    "--formula", formula]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("module", ["attnplan", "attnplan.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(Path(attnplan.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", module, "validate", "--task", TWO_FACTS],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ok: ")
