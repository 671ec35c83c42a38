"""Bisimulation: comparison, contraction, and distinguishing formulas."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import attnplan
from attnplan.bisim import (
    BisimWitness,
    NotBisimilar,
    _quotient,
    bisimilar,
    contract,
    distinguishing_formula,
    kripke_bisimilar,
)
from attnplan.errors import SignatureMismatch, StateValidationError
from attnplan.logic import PropAtom, Signature, format_formula, modal_depth
from attnplan.models import (
    AttentionState,
    EpistemicState,
    check,
    check_epistemic,
    kripke_rendition,
    validate_state,
)
from attnplan.planner import PlanningTask, _generated, solve_bounded

from generators import (
    SIG2,
    rand_discrete_state,
    rand_formula,
    rand_state,
    renamed,
    with_duplicate,
    with_unreachable,
)

SIG = Signature(agents=("i",), attention_bound=2, prop_atoms=("p",))
SIG3 = Signature(agents=("a", "b", "c"), attention_bound=1, prop_atoms=("p",))


def triple_state() -> AttentionState:
    """Two budget-1 p-worlds and one empty world, all in one block."""
    return AttentionState(
        sig=SIG,
        worlds=("w1", "w2", "v"),
        partitions={"i": (frozenset({"w1", "w2", "v"}),)},
        valuation={
            "w1": frozenset({"p"}),
            "w2": frozenset({"p"}),
            "v": frozenset(),
        },
        attention={"i": {"w1": 1, "w2": 1, "v": 1}},
        actual="w1",
    )


def pair_state() -> AttentionState:
    return AttentionState(
        sig=SIG,
        worlds=("x", "y"),
        partitions={"i": (frozenset({"x", "y"}),)},
        valuation={"x": frozenset({"p"}), "y": frozenset()},
        attention={"i": {"x": 1, "y": 1}},
        actual="x",
    )


def budget_spread_pair(bound: int) -> tuple[EpistemicState, EpistemicState]:
    """Renditions of two states told apart at round 1 only by agent ``i``'s
    budgets 0 and ``bound`` in separate blocks that agent ``j`` merges."""
    sig = Signature(agents=("i", "j"), attention_bound=bound, prop_atoms=("p",))
    spread = AttentionState(
        sig=sig,
        worlds=("x", "y"),
        partitions={
            "i": (frozenset({"x"}), frozenset({"y"})),
            "j": (frozenset({"x", "y"}),),
        },
        valuation={},
        attention={"i": {"x": 0, "y": bound}, "j": {"x": 0, "y": 0}},
        actual="x",
    )
    only_x = AttentionState(
        sig=sig,
        worlds=("x",),
        partitions={"i": (frozenset({"x"}),), "j": (frozenset({"x"}),)},
        valuation={},
        attention={"i": {"x": 0}, "j": {"x": 0}},
        actual="x",
    )
    return kripke_rendition(spread), kripke_rendition(only_x)


class TestComparison:
    def test_duplicate_world_is_invisible(self):
        outcome = bisimilar(triple_state(), pair_state())
        assert isinstance(outcome, BisimWitness)
        assert ("w1", "x") in outcome.pairs or ("x", "w1") in {
            (b, a) for a, b in outcome.pairs
        }

    def test_budget_difference_separates_immediately(self):
        drained = AttentionState(
            sig=SIG,
            worlds=("x", "y"),
            partitions={"i": (frozenset({"x", "y"}),)},
            valuation={"x": frozenset({"p"}), "y": frozenset()},
            attention={"i": {"x": 0, "y": 0}},
            actual="x",
        )
        outcome = bisimilar(pair_state(), drained)
        assert isinstance(outcome, NotBisimilar)
        assert outcome.round == 0

    def test_partition_difference_separates_later(self):
        split = AttentionState(
            sig=SIG,
            worlds=("x", "y"),
            partitions={"i": (frozenset({"x"}), frozenset({"y"}))},
            valuation={"x": frozenset({"p"}), "y": frozenset()},
            attention={"i": {"x": 1, "y": 1}},
            actual="x",
        )
        outcome = bisimilar(pair_state(), split)
        assert isinstance(outcome, NotBisimilar)
        assert outcome.round >= 1

    def test_reflexive_on_random_states(self):
        rng = random.Random(21)
        for _ in range(60):
            s = rand_state(rng, SIG2)
            assert isinstance(bisimilar(s, s), BisimWitness)

    def test_signature_mismatch_refused(self):
        other = rand_state(random.Random(1), SIG2)
        with pytest.raises(SignatureMismatch):
            bisimilar(triple_state(), other)

    def test_partition_missing_a_world_is_refined_not_matched(self):
        # Equal block forms over different colour sets: world b ({q}) and
        # world d ({}) sit in no block, so no colour bijection exists.
        sig = Signature(agents=("i",), attention_bound=1, prop_atoms=("p", "q"))

        def partial(worlds, valuation, block):
            return AttentionState._normal(
                sig=sig,
                worlds=worlds,
                partitions={"i": (frozenset(block),)},
                valuation=valuation,
                attention={"i": dict.fromkeys(worlds, 1)},
                actual=worlds[0],
            )

        s1 = partial(("a", "b"), {"a": frozenset("p"), "b": frozenset("q")}, "a")
        s2 = partial(("c", "d"), {"c": frozenset("p"), "d": frozenset()}, "c")
        assert bisimilar(s1, s2) == BisimWitness(frozenset({("a", "c")}))
        assert bisimilar(s2, s1) == BisimWitness(frozenset({("c", "a")}))

    def test_bisimilar_states_agree_on_random_formulas(self):
        rng = random.Random(22)
        tried = 0
        while tried < 40:
            s1 = rand_state(rng, SIG2, max_worlds=3)
            s2 = rand_state(rng, SIG2, max_worlds=3)
            outcome = bisimilar(s1, s2)
            if not isinstance(outcome, BisimWitness):
                continue
            tried += 1
            for _ in range(10):
                f = rand_formula(rng, SIG2)
                assert check(s1, f) == check(s2, f)


class TestContraction:
    def test_collapses_duplicates(self):
        c = contract(triple_state())
        assert len(c.worlds) == 2
        assert validate_state(c) == []
        assert isinstance(bisimilar(c, triple_state()), BisimWitness)

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(40):
            s = rand_state(rng, SIG2)
            c = contract(s)
            assert contract(c) == c

    def test_preserves_truth_of_random_formulas(self):
        rng = random.Random(24)
        for _ in range(40):
            s = rand_state(rng, SIG2)
            c = contract(s)
            assert validate_state(c) == []
            assert isinstance(bisimilar(s, c), BisimWitness)
            for _ in range(5):
                f = rand_formula(rng, SIG2)
                assert check(s, f) == check(c, f)

    def test_class_named_after_least_member(self):
        c = contract(triple_state())
        assert set(c.worlds) == {"w1", "v"}
        assert c.actual == "w1"


def quotient_key(table: dict, s: AttentionState):
    """The planner's frontier key of ``s``: that of its reachable part."""
    return _quotient(_generated(s), table)[1]


class TestCanonicalKey:
    """The key ``_quotient`` reads off a discrete quotient's canonical form
    or off the stable numbers: against one table, bisimilar
    point-generated states get equal keys, whatever their names, world
    order and unreachable worlds, and equal keys mean bisimilar."""

    @pytest.mark.parametrize("sig", [SIG, SIG2, SIG3], ids=["one", "two", "three"])
    def test_renamed_copies_get_equal_keys(self, sig):
        rng = random.Random(61)
        table: dict = {}
        for _ in range(150):
            s = _generated(rand_state(rng, sig, max_worlds=5))
            copy = renamed(rng, s)
            assert isinstance(bisimilar(s, copy), BisimWitness)
            assert _quotient(s, table)[1] == _quotient(copy, table)[1]

    @pytest.mark.parametrize("sig", [SIG, SIG2, SIG3], ids=["one", "two", "three"])
    def test_unreachable_worlds_do_not_change_the_key(self, sig):
        rng = random.Random(62)
        table: dict = {}
        for _ in range(150):
            s = rand_state(rng, sig)
            left = contract(with_unreachable(s, rand_state(rng, sig, max_worlds=5), "u"))
            right = contract(with_unreachable(s, rand_state(rng, sig, max_worlds=5), "v"))
            assert isinstance(bisimilar(left, right), BisimWitness)
            keys = {quotient_key(table, t) for t in (s, contract(s), left, right)}
            assert len(keys) == 1

    @pytest.mark.parametrize("sig", [SIG2, SIG3], ids=["two", "three"])
    def test_point_generated_quotients_get_equal_frontier_keys(self, sig):
        """Bisimilar states cut down to their reachable part get equal keys
        and quotients of one size; uncut, unreachable parts can split their
        keys."""
        rng = random.Random(64)
        table: dict = {}
        split = 0
        for _ in range(150):
            s = rand_state(rng, sig)
            copies = [
                s,
                with_unreachable(s, rand_state(rng, sig, max_worlds=5), "u"),
                with_unreachable(s, rand_state(rng, sig, max_worlds=5), "v"),
            ]
            copies.append(renamed(rng, copies[-1]))
            for k, left in enumerate(copies):
                for right in copies[:k]:
                    assert isinstance(bisimilar(left, right), BisimWitness)
                    assert quotient_key(table, left) == quotient_key(table, right)
                    assert len(contract(_generated(left)).worlds) == len(
                        contract(_generated(right)).worlds
                    )
                    split += _quotient(left, table)[1] != _quotient(right, table)[1]
        assert split > 0

    def test_keys_tell_states_apart(self):
        table: dict = {}
        key = _quotient(pair_state(), table)[1]
        assert _quotient(triple_state(), table)[1] == key
        assert _quotient(replace(pair_state(), actual="y"), table)[1] != key

    @pytest.mark.parametrize("sig", [SIG, SIG2, SIG3], ids=["one", "two", "three"])
    def test_keys_are_exact(self, sig):
        """Over one table, contracted point-generated states get equal keys
        exactly when they are bisimilar, also among states of one size."""
        rng = random.Random(63)
        table: dict = {}
        states = [
            _quotient(_generated(rand_state(rng, sig, max_worlds=5)), table)
            for _ in range(120)
        ]
        outcomes = set()
        for k, (s, key) in enumerate(states):
            for t, other in states[:k]:
                same = isinstance(bisimilar(s, t), BisimWitness)
                assert (key == other) == same
                if len(s.worlds) == len(t.worlds):
                    outcomes.add(same)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("sig", [SIG, SIG2, SIG3], ids=["one", "two", "three"])
    def test_discrete_states_and_their_copies_get_one_key(self, sig):
        """A discrete point-generated state, its copy with a duplicated world
        and unreachable worlds, and a renamed copy get one key against one
        table; over all the states, equal keys mean bisimilar and back."""
        rng = random.Random(65)
        table: dict = {}
        keyed = []
        for _ in range(100):
            s = _generated(rand_discrete_state(rng, sig))
            padded = with_unreachable(with_duplicate(rng, s), rand_state(rng, sig), "u")
            keys = {quotient_key(table, t) for t in (s, padded, renamed(rng, s))}
            assert len(keys) == 1
            keyed.append((s, keys.pop()))
        hits = 0
        for k, (s, key) in enumerate(keyed):
            for t, other in keyed[:k]:
                hits += key == other
                assert (key == other) == isinstance(bisimilar(s, t), BisimWitness)
        assert hits > 0

    def test_discrete_quotient_is_the_state_itself(self):
        s = pair_state()
        assert _quotient(s, {})[0] is s
        assert contract(s) is s


class TestKripkeLevel:
    def test_rendition_of_bisimilar_states_is_bisimilar(self):
        rng = random.Random(25)
        for _ in range(30):
            s = rand_state(rng, SIG2)
            c = contract(s)
            outcome = kripke_bisimilar(kripke_rendition(s), kripke_rendition(c))
            assert isinstance(outcome, BisimWitness)

    def test_budget_difference_visible_extensionally(self):
        s = pair_state()
        drained = AttentionState(
            sig=SIG,
            worlds=("x", "y"),
            partitions={"i": (frozenset({"x", "y"}),)},
            valuation={"x": frozenset({"p"}), "y": frozenset()},
            attention={"i": {"x": 0, "y": 0}},
            actual="x",
        )
        outcome = kripke_bisimilar(kripke_rendition(s), kripke_rendition(drained))
        assert isinstance(outcome, NotBisimilar)


class TestDistinguishingFormula:
    def test_verified_on_both_sides(self):
        rng = random.Random(26)
        produced = 0
        for _ in range(200):
            if produced >= 25:
                break
            k1 = kripke_rendition(rand_state(rng, SIG2, max_worlds=3))
            k2 = kripke_rendition(rand_state(rng, SIG2, max_worlds=3))
            if isinstance(kripke_bisimilar(k1, k2), BisimWitness):
                continue
            f = distinguishing_formula(k1, k2)
            if f is None:
                continue
            produced += 1
            assert check_epistemic(k1, f)
            assert not check_epistemic(k2, f)
        assert produced >= 25

    def test_none_for_bisimilar_states(self):
        s = triple_state()
        k1 = kripke_rendition(s)
        k2 = kripke_rendition(contract(s))
        assert distinguishing_formula(k1, k2) is None

    def test_valuation_difference_yields_depth_zero_witness(self):
        k1 = kripke_rendition(pair_state())
        drained = AttentionState(
            sig=SIG,
            worlds=("x", "y"),
            partitions={"i": (frozenset({"x", "y"}),)},
            valuation={"x": frozenset({"p"}), "y": frozenset()},
            attention={"i": {"x": 0, "y": 0}},
            actual="x",
        )
        f = distinguishing_formula(k1, kripke_rendition(drained))
        assert f is not None
        assert check_epistemic(k1, f)

    def test_formula_omits_constant_atoms_at_bound_1000(self):
        sig = Signature(agents=("i",), attention_bound=1000, prop_atoms=("p",))
        both = AttentionState(
            sig=sig,
            worlds=("x", "y"),
            partitions={"i": (frozenset({"x", "y"}),)},
            valuation={"x": frozenset({"p"}), "y": frozenset()},
            attention={"i": {"x": 7, "y": 7}},
            actual="x",
        )
        only_x = AttentionState(
            sig=sig,
            worlds=("x",),
            partitions={"i": (frozenset({"x"}),)},
            valuation={"x": frozenset({"p"})},
            attention={"i": {"x": 7}},
            actual="x",
        )
        k1, k2 = kripke_rendition(both), kripke_rendition(only_x)
        assert kripke_bisimilar(k1, k2) == NotBisimilar(round=1)
        f = distinguishing_formula(k1, k2)
        assert f is not None
        assert check_epistemic(k1, f) and not check_epistemic(k2, f)
        assert len(format_formula(f)) < 100

    def test_formula_size_does_not_grow_with_budget_spread(self):
        lengths = set()
        for bound in (200, 1000):
            k1, k2 = budget_spread_pair(bound)
            f = distinguishing_formula(k1, k2)
            assert f is not None
            assert check_epistemic(k1, f) and not check_epistemic(k2, f)
            assert modal_depth(f) == 1
            lengths.add(len(format_formula(f)))
        assert len(lengths) == 1

    def test_formula_has_no_double_negations(self):
        k1, k2 = budget_spread_pair(1000)
        f = distinguishing_formula(k1, k2)
        assert f is not None
        text = format_formula(f)
        assert "~~" not in text
        assert check_epistemic(k1, f) and not check_epistemic(k2, f)
        assert modal_depth(f) == 1
        assert len(text) <= 138

    def test_formula_text_does_not_depend_on_hashing(self):
        script = (
            "from attnplan.bisim import distinguishing_formula\n"
            "from attnplan.logic import Signature, format_formula\n"
            "from attnplan.models import EpistemicState\n"
            "sig = Signature(agents=('i',), attention_bound=1, prop_atoms=('p', 'q', 'r', 's'))\n"
            "val = {'u': {'p', 'q'}, 'v': {'p', 'r'}, 'w': {'p', 'q', 's'}}\n"
            "k1 = EpistemicState(sig=sig, worlds=tuple(val), valuation=val,\n"
            "    partitions={'i': (frozenset(val),)}, actual='u')\n"
            "k2 = EpistemicState(sig=sig, worlds=('u',), valuation={'u': val['u']},\n"
            "    partitions={'i': (frozenset({'u'}),)}, actual='u')\n"
            "print(format_formula(distinguishing_formula(k1, k2)))\n"
        )
        src = str(Path(attnplan.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        (text,) = outputs
        assert "q" in text and "s" in text


class TestActualNotAWorld:
    """Each entry refuses a state whose actual world is none of its worlds
    with ``validate_state``'s message, on either side of a comparison."""

    @pytest.fixture
    def states(self, two_facts_doc):
        good = two_facts_doc.states["init"]
        bad = replace(good, actual="zz")
        (message,) = [v for v in validate_state(bad) if "actual" in v]
        assert message == "actual world 'zz' is not a world"
        return good, bad, message

    def assert_refused(self, call, message):
        with pytest.raises(StateValidationError) as caught:
            call()
        assert caught.value.violations == [message]

    def test_bisimilar(self, states):
        good, bad, message = states
        self.assert_refused(lambda: bisimilar(bad, good), message)
        self.assert_refused(lambda: bisimilar(good, bad), message)

    def test_kripke_bisimilar(self, states):
        good, bad, message = states
        # The rendition refuses ``bad``: give the good one its stray actual.
        k_good = kripke_rendition(good)
        k_bad = replace(k_good, actual=bad.actual)
        self.assert_refused(lambda: kripke_bisimilar(k_bad, k_good), message)
        self.assert_refused(lambda: kripke_bisimilar(k_good, k_bad), message)

    def test_contract(self, states):
        _, bad, message = states
        self.assert_refused(lambda: contract(bad), message)

    def test_distinguishing_formula(self, states):
        good, bad, message = states
        # The rendition refuses ``bad``: give the good one its stray actual.
        k_good = kripke_rendition(good)
        k_bad = replace(k_good, actual=bad.actual)
        self.assert_refused(lambda: distinguishing_formula(k_bad, k_good), message)
        self.assert_refused(lambda: distinguishing_formula(k_good, k_bad), message)


class TestBlockNamesNoWorld:
    """Each entry refuses a hand-built state whose partition names a world it
    lacks (worlds ``a, b``, blocks ``{a, z}, {b}``) with ``validate_state``'s
    message, on a discrete state, which skips refinement, and on one that
    is not, on either side of a comparison."""

    SIG = Signature(agents=("i",), attention_bound=1, prop_atoms=("p",))
    MESSAGE = "agent 'i' does not partition the worlds exactly: unknown ['z']"
    BLOCKS = {"i": (frozenset({"a", "z"}), frozenset({"b"}))}

    @pytest.fixture(params=["discrete", "not discrete"])
    def valuation(self, request):
        p = frozenset({"p"}) if request.param == "discrete" else frozenset()
        return {"a": p, "b": frozenset()}

    def attention_states(self, valuation):
        bad = AttentionState(
            sig=self.SIG,
            worlds=("a", "b"),
            partitions=self.BLOCKS,
            valuation=valuation,
            attention={"i": {"a": 0, "b": 0}},
            actual="a",
        )
        assert validate_state(bad) == [self.MESSAGE]
        good = replace(bad, partitions={"i": (frozenset({"a"}), frozenset({"b"}))})
        return good, bad

    def epistemic_states(self, valuation):
        bad = EpistemicState(
            sig=self.SIG, worlds=("a", "b"), partitions=self.BLOCKS, valuation=valuation, actual="a"
        )
        return replace(bad, partitions={"i": (frozenset({"a", "b"}),)}), bad

    def assert_refused(self, call):
        with pytest.raises(StateValidationError) as caught:
            call()
        assert caught.value.violations == [self.MESSAGE]

    def test_bisimilar(self, valuation):
        good, bad = self.attention_states(valuation)
        self.assert_refused(lambda: bisimilar(bad, good))
        self.assert_refused(lambda: bisimilar(good, bad))
        self.assert_refused(lambda: bisimilar(bad, bad))

    def test_contract(self, valuation):
        _, bad = self.attention_states(valuation)
        self.assert_refused(lambda: contract(bad))

    def test_kripke_bisimilar(self, valuation):
        good, bad = self.epistemic_states(valuation)
        self.assert_refused(lambda: kripke_bisimilar(bad, good))
        self.assert_refused(lambda: kripke_bisimilar(good, bad))

    def test_distinguishing_formula(self, valuation):
        good, bad = self.epistemic_states(valuation)
        self.assert_refused(lambda: distinguishing_formula(bad, good))
        self.assert_refused(lambda: distinguishing_formula(good, bad))

    def test_solve_bounded(self, valuation):
        _, bad = self.attention_states(valuation)
        task = PlanningTask(name="t", initial=bad, actions=(), goal=PropAtom("p"))
        self.assert_refused(lambda: solve_bounded(task, 2))
