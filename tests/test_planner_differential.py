"""Differential suite: ``attnplan.planner._search``, which keeps only the
worlds reachable from the actual world and dedups in a hashed frontier,
against the list scan over whole contracted states in ``reference_planner``.

Every case compares the outcome type and the plan.  The library may dedup
states the reference keeps apart (bisimilar states whose unreachable parts
differ), so it explores at most as many nodes.  Its trace states are the
smallest states bisimilar to the reference's: each is bisimilar to the
reference's state at that step, has as many worlds as that state cut down
to its reachable part and contracted, and reaches every one of its worlds
from the actual world.  A survey task, where many orders of the same
questions lead to bisimilar states, also checks that the frontier only
calls ``bisimilar`` on states that turn out to be bisimilar, never more
often than the list scan, and explores as many nodes.  The search reads
the goal on the start and on new keys only, and no key hit meets the goal,
which is what makes that order safe.  The search skips an action whose
update raises NotApplicable, and the random tasks do meet such actions.
"""

from __future__ import annotations

import json
import random
from itertools import product

import pytest

import reference_planner as ref
from attnplan import bisim, planner, taskfile
from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    attention_update,
)
from attnplan.bisim import BisimWitness, NotBisimilar, _quotient, bisimilar, contract
from attnplan.errors import NotApplicable
from attnplan.logic import Know, Not, PropAtom, Signature, and_all, or_
from attnplan.models import AttentionState, _eval, check, close_into_partition
from attnplan.planner import (
    NoneWithinBound,
    NoSolution,
    PlanningTask,
    Solution,
    _generated,
    _search,
    solve_bounded,
    solve_nfl,
)

from generators import SIG2, rand_task

SIG3 = Signature(agents=("a", "b", "c"), attention_bound=2, prop_atoms=("p", "q"))


def survey_task(facts: int, budget: int, rng: random.Random) -> PlanningTask:
    """One agent, ``facts`` unknown facts and one paid yes/no question per
    fact, declared in a seeded order.  The budget covers fewer questions
    than there are facts, so knowing every fact is unreachable."""
    sig = Signature(
        agents=("i",),
        attention_bound=budget,
        prop_atoms=tuple(f"p{k}" for k in range(facts)),
    )
    bits = list(product((0, 1), repeat=facts))
    worlds = tuple("w" + "".join(map(str, b)) for b in bits)
    truth = dict(zip(worlds, bits))
    actual = rng.choice(worlds)
    initial = AttentionState(
        sig=sig,
        worlds=worlds,
        partitions={"i": (frozenset(worlds),)},
        valuation={
            w: frozenset(a for a, bit in zip(sig.prop_atoms, b) if bit)
            for w, b in truth.items()
        },
        attention={"i": dict.fromkeys(worlds, budget)},
        actual=actual,
    )
    actions = []
    for k in rng.sample(range(facts), facts):
        fact = PropAtom(sig.prop_atoms[k])
        model = AttentionActionModel(
            sig=sig,
            events=("yes", "no"),
            q={"i": (frozenset({"yes"}), frozenset({"no"}))},
            qstar={"i": (frozenset({"yes", "no"}),)},
            pre={"yes": fact, "no": Not(fact)},
            cost=CostTable(default=1),
        )
        actions.append(
            AttentionAction(
                name=f"ask_{fact.name}",
                model=model,
                questions={"i": fact},
                actual="yes" if truth[actual][k] else "no",
            )
        )
    goal = and_all(
        or_(Know("i", PropAtom(a)), Know("i", Not(PropAtom(a)))) for a in sig.prop_atoms
    )
    return PlanningTask(name="survey", initial=initial, actions=tuple(actions), goal=goal)


def reaches_every_world(s: AttentionState) -> bool:
    """Whether the agents' blocks link every world of ``s`` to every other,
    so each is reachable from the actual world."""
    blocks = [block for blocks in s.partitions.values() for block in blocks]
    return len(close_into_partition(s.worlds, blocks)) == 1


def assert_matches(outcome, expected) -> None:
    """``outcome`` of ``_search`` agrees with ``expected`` of the reference."""
    assert type(outcome) is type(expected)
    assert getattr(outcome, "plan", None) == getattr(expected, "plan", None)
    if not isinstance(outcome, Solution):
        assert outcome.explored <= expected.explored
        return
    assert len(outcome.trace) == len(expected.trace)
    for state, seen in zip(outcome.trace, expected.trace):
        assert isinstance(bisimilar(state, seen), BisimWitness)
        assert len(state.worlds) == len(contract(_generated(seen)).worlds)
        assert reaches_every_world(state)


class CountingBisimilar:
    """Wraps ``bisimilar``, counting calls and hits."""

    def __init__(self, bisimilar) -> None:
        self.bisimilar = bisimilar
        self.calls = self.hits = 0

    def __call__(self, s1, s2):
        outcome = self.bisimilar(s1, s2)
        self.calls += 1
        self.hits += isinstance(outcome, BisimWitness)
        return outcome


@pytest.mark.parametrize("sig", [SIG2, SIG3], ids=["two_agents", "three_agents"])
def test_random_tasks_match_the_list_scan(monkeypatch, sig):
    """The search skips an action whose update refuses it, as the list scan
    skips one that ``applicable`` refuses, and the cases do refuse."""
    counted = CountingBisimilar(bisimilar)
    monkeypatch.setattr(planner, "bisimilar", counted)
    refused = 0

    def counting_update(s, x):
        nonlocal refused
        try:
            return attention_update(s, x)
        except NotApplicable:
            refused += 1
            raise

    monkeypatch.setattr(planner, "attention_update", counting_update)
    rng = random.Random(801 if sig is SIG2 else 802)
    outcomes = set()
    for _ in range(60):
        task = rand_task(rng, sig)
        for max_depth in (None, 1, 2, 3):
            outcome = _search(task, max_depth)
            assert_matches(outcome, ref.search(task, max_depth))
            outcomes.add(type(outcome).__name__)
    assert outcomes == {"Solution", "NoSolution", "NoneWithinBound"}
    assert counted.hits > 0  # the cases do prune bisimilar states
    assert refused >= 40


@pytest.mark.parametrize("facts,budget", [(3, 1), (3, 2), (4, 2), (4, 3)])
def test_survey_dedups_with_hits_only(monkeypatch, facts, budget):
    rng = random.Random(803 + facts * 10 + budget)
    for _ in range(2):
        task = survey_task(facts, budget, rng)
        counted, oracle = CountingBisimilar(bisimilar), CountingBisimilar(bisimilar)
        monkeypatch.setattr(planner, "bisimilar", counted)
        monkeypatch.setattr(ref, "bisimilar", oracle)
        outcome = _search(task, None)
        assert isinstance(outcome, NoSolution)
        assert outcome == ref.search(task, None)
        assert counted.hits > 0
        assert counted.calls == counted.hits
        assert counted.hits == oracle.hits
        assert counted.calls <= oracle.calls


@pytest.mark.parametrize("facts,explored,keys", [(5, 380, 76), (6, 1122, 187)])
def test_goal_is_read_on_the_start_and_new_keys_only(monkeypatch, facts, explored, keys):
    """Once per distinct key: the start's and each new successor's.  Reading
    the goal first, as the list scan does, read it on every node explored
    and on the start."""
    for seed in range(2):
        task = survey_task(facts, facts - 1, random.Random(814 + seed))
        goal_reads, seen = 0, set()

        def counting_eval(s, f, world):
            nonlocal goal_reads
            goal_reads += f is task.goal
            return _eval(s, f, world)

        def recording_quotient(s, table):
            state, key = _quotient(s, table)
            seen.add(key)
            return state, key

        monkeypatch.setattr(planner, "_eval", counting_eval)
        monkeypatch.setattr(planner, "_quotient", recording_quotient)
        assert solve_nfl(task) == NoSolution(explored=explored)
        assert goal_reads == len(seen) == keys


@pytest.mark.parametrize("sig", [SIG2, SIG3], ids=["two_agents", "three_agents"])
def test_no_key_hit_meets_the_goal(monkeypatch, sig):
    """What reading the goal on new keys only rests on: a successor whose key
    the search has met before fails the goal."""
    rng = random.Random(804 if sig is SIG2 else 805)
    hits = 0
    for _ in range(60):
        task = rand_task(rng, sig)
        for max_depth in (None, 3):
            seen = set()

            def checking_quotient(s, table):
                nonlocal hits
                state, key = _quotient(s, table)
                if key in seen:
                    hits += 1
                    assert not check(state, task.goal)
                seen.add(key)
                return state, key

            monkeypatch.setattr(planner, "_quotient", checking_quotient)
            _search(task, max_depth)
    assert hits > 0


def test_survey_search_refines_nothing(monkeypatch):
    """Every state the survey search keys or confirms gives each world its
    own colour, so ``_quotient`` and ``bisimilar`` match colours and never
    refine.  A start whose worlds all have copies is not discrete, and its
    refinement is counted."""
    refine, calls = bisim._refine, 0

    def counting_refine(*args, **kwargs):
        nonlocal calls
        calls += 1
        return refine(*args, **kwargs)

    monkeypatch.setattr(bisim, "_refine", counting_refine)
    for seed in range(3):
        assert solve_nfl(survey_task(5, 4, random.Random(814 + seed))) == NoSolution(explored=380)
    assert calls == 0
    copied = taskfile.loads(copied_survey_document(4, 3, 2, 0)).tasks["survey"]
    assert isinstance(solve_nfl(copied), NoSolution)
    assert calls > 0


def test_refuted_key_hit_is_an_internal_error(monkeypatch):
    """A key hit that ``bisimilar`` refutes raises; it is not a miss."""
    monkeypatch.setattr(planner, "bisimilar", lambda s1, s2: NotBisimilar(round=0))
    task = survey_task(3, 1, random.Random(813))
    with pytest.raises(RuntimeError, match="internal error: equal frontier keys"):
        _search(task, None)


def copied_survey_document(facts: int, budget: int, copies: int, seed: int) -> str:
    """The survey task as a task document, every world in ``copies``
    same-valuation, same-budget copies, which one block holds together.
    The seed picks the actual valuation and the question order, then the
    copy that is actual; copy 0 keeps the plain name, which sorts first."""
    rng = random.Random(seed)
    atoms = [f"p{k}" for k in range(facts)]
    actual = rng.randrange(2**facts)
    order = rng.sample(range(facts), facts)
    actual_copy = rng.randrange(copies)

    def name(mask: int, copy: int) -> str:
        bits = "w" + "".join(str(mask >> k & 1) for k in range(facts))
        return bits + (f"_{copy}" if copy else "")

    worlds = {
        name(mask, copy): {
            "atoms": [a for k, a in enumerate(atoms) if mask >> k & 1],
            "attention": {"i": budget},
        }
        for mask in range(2**facts)
        for copy in range(copies)
    }
    models = {
        f"m_{atoms[k]}": {
            "events": {"yes": {"pre": atoms[k]}, "no": {"pre": f"~{atoms[k]}"}},
            "q": {},
            "qstar": {"i": [["yes", "no"]]},
            "costs": {"default": 1},
        }
        for k in order
    }
    actions = {
        f"ask_{atoms[k]}": {
            "model": f"m_{atoms[k]}",
            "questions": {"i": atoms[k]},
            "actual": "yes" if actual >> k & 1 else "no",
        }
        for k in order
    }
    goal = " & ".join(f"(K_i {a} | K_i ~{a})" for a in atoms)
    doc = {
        "signature": {"agents": ["i"], "attention_bound": budget, "atoms": atoms},
        "states": {
            "start": {
                "worlds": worlds,
                "relations": {"i": [list(worlds)]},
                "actual": name(actual, actual_copy),
            }
        },
        "models": models,
        "actions": actions,
        "tasks": {"survey": {"initial": "start", "actions": list(actions), "goal": goal}},
    }
    return json.dumps(doc)


@pytest.mark.parametrize("facts,budget", [(3, 2), (4, 2), (4, 3)])
def test_contraction_merges_copies_without_changing_the_search(facts, budget):
    """Copies of every world merge in the start's quotient, which is then
    the plain start, and the searches agree with the plain document's:
    ``NoSolution`` with as many nodes explored, and the same bounded
    outcomes."""
    for seed in range(2):
        plain, *copied = (
            taskfile.loads(copied_survey_document(facts, budget, copies, seed)).tasks["survey"]
            for copies in (1, 2, 3)
        )
        assert _quotient(_generated(plain.initial), {})[0] == plain.initial
        expected = solve_nfl(plain)
        assert isinstance(expected, NoSolution) and expected.explored > 0
        bounded = {depth: solve_bounded(plain, depth) for depth in (1, 2)}
        assert all(isinstance(outcome, NoneWithinBound) for outcome in bounded.values())
        for copies, task in zip((2, 3), copied):
            start = _generated(task.initial)
            assert len(start.worlds) == copies * 2**facts
            assert _quotient(start, {})[0] == plain.initial
            assert solve_nfl(task) == expected
            for depth, outcome in bounded.items():
                assert solve_bounded(task, depth) == outcome
