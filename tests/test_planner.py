"""Plan search: golden plans, honest negatives, and termination."""

import dataclasses
import random

import pytest

from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    applicable,
    apply_sequence,
)
from attnplan.bisim import BisimWitness, bisimilar
from attnplan.errors import (
    AttnPlanError,
    FormulaValidationError,
    NotNfl,
    SignatureMismatch,
)
from attnplan.logic import Formula, Know, Not, PropAtom, Signature, TOP, bot, parse_formula
from attnplan.models import AttentionState, check, validate_state
from attnplan.planner import (
    NoSolution,
    NoneWithinBound,
    PlanningTask,
    Solution,
    _generated,
    solve_bounded,
    solve_nfl,
)

from generators import SIG2, rand_state, rand_task, with_unreachable

SIG = Signature(agents=("i",), attention_bound=2, prop_atoms=("p",))


def tiny_task(goal) -> PlanningTask:
    state = AttentionState(
        sig=SIG,
        worlds=("w", "v"),
        partitions={"i": (frozenset({"w", "v"}),)},
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        attention={"i": {"w": 1, "v": 1}},
        actual="w",
    )
    model = AttentionActionModel(
        sig=SIG,
        events=("e", "f"),
        q={"i": (frozenset({"e"}), frozenset({"f"}))},
        qstar={"i": (frozenset({"e", "f"}),)},
        pre={"e": PropAtom("p"), "f": Not(PropAtom("p"))},
        cost=CostTable(default=1),
    )
    ask = AttentionAction(name="ask", model=model, questions={"i": PropAtom("p")}, actual="e")
    return PlanningTask(name="tiny", initial=state, actions=(ask,), goal=goal)


class TestOutcomes:
    def test_one_step_plan_found(self):
        task = tiny_task(Know("i", PropAtom("p")))
        out = solve_nfl(task)
        assert isinstance(out, Solution)
        assert out.plan == ("ask",)
        assert len(out.trace) == 2

    def test_goal_already_true_gives_empty_plan(self):
        task = tiny_task(TOP)
        out = solve_nfl(task)
        assert isinstance(out, Solution)
        assert out.plan == ()

    def test_impossible_goal_exhausts_finitely(self):
        task = tiny_task(bot())
        out = solve_nfl(task)
        assert isinstance(out, NoSolution)
        assert out.explored >= 1

    def test_bounded_search_reports_the_bound(self):
        task = tiny_task(Know("i", PropAtom("p")))
        out = solve_bounded(task, 0)
        assert isinstance(out, NoneWithinBound)
        assert out.bound == 0
        found = solve_bounded(task, 3)
        assert isinstance(found, Solution)
        assert found.plan == ("ask",)

    def test_bounded_search_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            solve_bounded(tiny_task(TOP), -1)

    def test_solution_trace_replays(self):
        task = tiny_task(Know("i", PropAtom("p")))
        out = solve_nfl(task)
        by_name = {a.name: a for a in task.actions}
        replayed = apply_sequence(task.initial, [by_name[n] for n in out.plan])
        assert check(replayed, task.goal)


class TestGenerated:
    def test_keeps_the_reachable_part_in_order(self):
        rng = random.Random(52)
        cut = 0
        for _ in range(200):
            s = rand_state(rng, SIG2, max_worlds=5)
            g = _generated(s)
            assert validate_state(g) == []
            assert isinstance(bisimilar(g, s), BisimWitness)
            assert g.actual == s.actual
            assert g.worlds == tuple(w for w in s.worlds if w in set(g.worlds))
            assert _generated(g) is g
            assert _generated(with_unreachable(g, rand_state(rng, SIG2), "u")) == g
            cut += g is not s
        assert cut > 0


def unchecked_actions(task: PlanningTask) -> dict[str, AttentionAction]:
    """Copies of the task's action that fail the checks ``applicable`` makes:
    an unknown atom or agent in the precondition of the actual event ``e``
    or of the other event ``f``, another signature, or an actual event the
    model lacks."""
    ask = task.actions[0]
    other = Signature(agents=("i",), attention_bound=2, prop_atoms=("p", "r"))

    def with_pre(event: str, pre: Formula) -> AttentionAction:
        model = dataclasses.replace(ask.model, pre=ask.model.pre | {event: pre})
        return dataclasses.replace(ask, name="bad", model=model)

    return {
        "unknown_atom": dataclasses.replace(
            ask,
            name="bad",
            model=dataclasses.replace(ask.model, pre={"e": PropAtom("r"), "f": TOP}),
        ),
        "actual_unknown_agent": with_pre("e", Know("zz", TOP)),
        "actual_unknown_atom": with_pre("e", PropAtom("zz")),
        "other_unknown_agent": with_pre("f", Know("zz", TOP)),
        "other_unknown_atom": with_pre("f", PropAtom("zz")),
        "other_signature": dataclasses.replace(
            ask, name="bad", model=dataclasses.replace(ask.model, sig=other)
        ),
        "unknown_actual": dataclasses.replace(ask, name="bad", actual="zz"),
    }


ERRORS = {
    "unknown_atom": FormulaValidationError,
    "actual_unknown_agent": FormulaValidationError,
    "actual_unknown_atom": FormulaValidationError,
    "other_unknown_agent": FormulaValidationError,
    "other_unknown_atom": FormulaValidationError,
    "other_signature": SignatureMismatch,
    "unknown_actual": AttnPlanError,
}


class TestValidatedOnce:
    """The search checks the goal once and each action's precondition when
    it first tests that action, raising what ``check`` and ``applicable``
    raise, in the same cases."""

    @pytest.mark.parametrize("kind", sorted(ERRORS))
    def test_goal_true_at_start_tests_no_action(self, kind):
        task = tiny_task(TOP)
        bad = unchecked_actions(task)[kind]
        out = solve_bounded(dataclasses.replace(task, actions=(bad,)), 3)
        assert isinstance(out, Solution)
        assert out.plan == ()

    @pytest.mark.parametrize("kind", sorted(ERRORS))
    def test_action_never_reached_is_not_checked(self, kind):
        task = tiny_task(Know("i", PropAtom("p")))
        bad = unchecked_actions(task)[kind]
        out = solve_bounded(dataclasses.replace(task, actions=task.actions + (bad,)), 3)
        assert isinstance(out, Solution)
        assert out.plan == ("ask",)

    @pytest.mark.parametrize("kind", sorted(ERRORS))
    def test_action_reached_raises_as_applicable_does(self, kind):
        task = tiny_task(bot())
        bad = unchecked_actions(task)[kind]
        with pytest.raises(ERRORS[kind]):
            applicable(task.initial, bad)
        with pytest.raises(ERRORS[kind]):
            solve_bounded(dataclasses.replace(task, actions=task.actions + (bad,)), 3)

    def test_invalid_goal_raises_as_check_does(self):
        task = tiny_task(PropAtom("r"))
        with pytest.raises(FormulaValidationError):
            check(task.initial, task.goal)
        with pytest.raises(FormulaValidationError):
            solve_bounded(task, 3)


class TestClassGate:
    def test_action_outside_the_class_is_refused(self):
        base = tiny_task(TOP)
        model = dataclasses.replace(
            base.actions[0].model,
            q={"i": (frozenset({"e", "f"}),)},
            qstar={"i": (frozenset({"e"}), frozenset({"f"}))},
        )
        loose = AttentionAction(name="loose", model=model, questions={}, actual="e")
        task = dataclasses.replace(base, actions=(loose,))
        with pytest.raises(NotNfl) as info:
            solve_nfl(task)
        assert info.value.action_name == "loose"
        out = solve_nfl(task, relaxed=True)
        assert isinstance(out, Solution)


class TestGoldenDocument:
    def test_shortest_plan_prefers_declaration_order(self, two_facts_doc):
        task = two_facts_doc.tasks["main"]
        out = solve_nfl(task)
        assert isinstance(out, Solution)
        assert out.plan == ("ask_p", "ask_imp")

    def test_depth_one_is_not_enough(self, two_facts_doc):
        out = solve_bounded(two_facts_doc.tasks["main"], 1)
        assert isinstance(out, NoneWithinBound)

    def test_sibling_task_needs_two_rounds(self, muddy_doc):
        out = solve_nfl(muddy_doc.tasks["siblings_learn"])
        assert isinstance(out, Solution)
        assert out.plan == ("attend", "attend")

    def test_mixed_model_task_has_no_solution(self, muddy_doc):
        task = muddy_doc.tasks["deaf_all_learn"]
        with pytest.raises(NotNfl):
            solve_nfl(task)
        out = solve_nfl(task, relaxed=True)
        assert isinstance(out, NoSolution)


class TestRandomized:
    def test_complete_search_matches_bounded_search(self):
        rng = random.Random(51)
        for _ in range(30):
            task = rand_task(rng, SIG2)
            full = solve_nfl(task)
            capped = solve_bounded(task, 8)
            if isinstance(full, Solution):
                assert isinstance(capped, Solution)
                assert capped.plan == full.plan
            else:
                assert isinstance(capped, NoneWithinBound)
