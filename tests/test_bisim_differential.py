"""Differential suite: the per-block refinement in ``attnplan.bisim`` against
the callback-driven reference in ``reference_bisim``.

Every case compares the refinement rounds themselves, the comparison's
witness pairs or separating round, ``contract`` on both states, and the
modal depth of the distinguishing formula of the two renditions, which is
the round that separates them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import reference_bisim as ref
from attnplan import bisim
from attnplan.bisim import (
    BisimWitness,
    _refine,
    bisimilar,
    contract,
    distinguishing_formula,
    kripke_bisimilar,
)
from attnplan.logic import Signature, att_eq, format_formula, modal_depth
from attnplan.models import AttentionState, EpistemicState, check, kripke_rendition

from generators import (
    SIG2,
    rand_discrete_state,
    rand_epistemic_state,
    rand_partition,
    rand_state,
    renamed,
    with_duplicate,
)

SIG3 = Signature(agents=("a", "b", "c"), attention_bound=1, prop_atoms=("p",))
EPISTEMIC_SIGS = (
    SIG2,
    Signature(agents=("a",), attention_bound=0, prop_atoms=()),
    Signature(agents=("a", "b"), attention_bound=0, prop_atoms=()),
)


def with_disjoint_copy(rng: random.Random, s: AttentionState) -> AttentionState:
    """``s`` beside a renamed copy of itself that shares no block with it,
    worlds shuffled, the actual world in either copy.  Distinct blocks of
    the result then meet the same set of classes."""
    prefix = rng.choice(["a", "z"])  # copies sort before or after their originals
    copy = {w: prefix + w for w in s.worlds}
    worlds = list(s.worlds) + list(copy.values())
    rng.shuffle(worlds)
    return AttentionState(
        sig=s.sig,
        worlds=tuple(worlds),
        partitions={
            agent: blocks + tuple(frozenset(copy[w] for w in block) for block in blocks)
            for agent, blocks in s.partitions.items()
        },
        valuation={**s.valuation, **{copy[w]: v for w, v in s.valuation.items()}},
        attention={
            agent: {**per_world, **{copy[w]: n for w, n in per_world.items()}}
            for agent, per_world in s.attention.items()
        },
        actual=rng.choice([s.actual, copy[s.actual]]),
    )


def by_first_position(numbers: list[int]) -> list[int]:
    ids: dict[int, int] = {}
    return [ids.setdefault(number, len(ids)) for number in numbers]


def assert_refinement_agrees(s1, s2) -> None:
    *rounds, stable = _refine({}, s1, s2)
    expected = ref.union_rounds(s1, s2)
    nodes = [(0, w) for w in s1.worlds] + [(1, w) for w in s2.worlds]
    assert list(map(by_first_position, rounds)) == [[ids[n] for n in nodes] for ids in expected]
    assert by_first_position(stable) == by_first_position(rounds[-1])
    compare = bisimilar if isinstance(s1, AttentionState) else kripke_bisimilar
    assert compare(s1, s2) == ref.compare(s1, s2)


def assert_distinguishing_round_agrees(k1: EpistemicState, k2: EpistemicState) -> None:
    separated = ref.separation_round(k1, k2)
    if separated is None:
        assert distinguishing_formula(k1, k2, max_rounds=10) is None
        return
    f = distinguishing_formula(k1, k2, max_rounds=separated)
    assert f is not None
    assert modal_depth(f) == separated
    assert check(k1, f) and not check(k2, f)
    if separated > 0:
        assert distinguishing_formula(k1, k2, max_rounds=separated - 1) is None


def assert_attention_pair_agrees(s1: AttentionState, s2: AttentionState) -> None:
    assert_refinement_agrees(s1, s2)
    for s in (s1, s2):
        assert contract(s) == ref.contract(s)
    k1, k2 = kripke_rendition(s1), kripke_rendition(s2)
    assert_refinement_agrees(k1, k2)
    assert_distinguishing_round_agrees(k1, k2)


def test_colour_columns_match_the_reference_colouring():
    """``colours`` lists each world's colour as the oracle reads it off
    the fields, budgets in signature order, also when that order is not
    the sorted one in which the state keys its budgets."""
    rng = random.Random(505)
    unsorted = Signature(agents=("c", "a", "b"), attention_bound=2, prop_atoms=("p", "q"))
    order_matters = 0
    for case in range(150):
        sig = (SIG2, SIG3, unsorted)[case % 3]
        s = rand_state(rng, sig)
        for state in (s, kripke_rendition(s), rand_epistemic_state(rng, EPISTEMIC_SIGS[case % 3])):
            assert state.colours == tuple(ref.colour(state, w) for w in state.worlds)
        if sig is unsorted:
            order_matters += any(
                [s.attention[a][w] for a in sig.agents]
                != [s.attention[a][w] for a in sorted(sig.agents)]
                for w in s.worlds
            )
    assert order_matters >= 10


def test_random_attention_pairs_match_reference():
    rng = random.Random(501)
    outcomes = set()
    for case in range(160):
        sig = SIG2 if case % 4 else SIG3
        s1, s2 = rand_state(rng, sig), rand_state(rng, sig)
        assert_attention_pair_agrees(s1, s2)
        outcomes.add(type(ref.compare(s1, s2)).__name__)
    assert outcomes == {"BisimWitness", "NotBisimilar"}


def test_random_epistemic_pairs_match_reference():
    rng = random.Random(502)
    rounds_seen = set()
    for case in range(120):
        k1 = rand_epistemic_state(rng, EPISTEMIC_SIGS[case % 3])
        if case % 2:
            k2 = rand_epistemic_state(rng, k1.sig)
        else:  # same valuations, so only the relations can separate
            partitions = {agent: rand_partition(rng, k1.worlds) for agent in k1.sig.agents}
            k2 = replace(k1, partitions=partitions, actual=rng.choice(k1.worlds))
        assert_refinement_agrees(k1, k2)
        assert_distinguishing_round_agrees(k1, k2)
        rounds_seen.add(ref.separation_round(k1, k2))
    assert {None, 0, 1} <= rounds_seen


def test_known_bisimilar_pairs_match_reference():
    rng = random.Random(503)
    for case in range(100):
        s = rand_state(rng, SIG2 if case % 4 else SIG3)
        other = contract(s) if case % 2 else with_duplicate(rng, s)
        assert_attention_pair_agrees(s, other)
        assert_attention_pair_agrees(other, s)
        assert isinstance(bisimilar(s, other), BisimWitness)
        assert ref.separation_round(s, other) is None


def with_block_split(rng: random.Random, s: AttentionState) -> AttentionState | None:
    """``s`` with one agent's block of two or more worlds cut in two, or None
    if every block is one world.  Budgets stay constant on each part."""
    choices = [(a, b) for a, blocks in s.partitions.items() for b in blocks if len(b) > 1]
    if not choices:
        return None
    agent, block = rng.choice(choices)
    members = sorted(block)
    rng.shuffle(members)
    cut = rng.randrange(1, len(members))
    parts = [b for b in s.partitions[agent] if b != block]
    parts += [frozenset(members[:cut]), frozenset(members[cut:])]
    return replace(s, partitions={**s.partitions, agent: parts})


def test_discrete_pairs_match_reference(monkeypatch):
    """Pairs with a discrete side agree with the reference, on the states
    and on their renditions.  A renamed copy, or one whose actual world
    moved, is matched by colour without refinement; a copy with one block
    split, another discrete state and a copy with a duplicated world (only
    one side discrete) fall back to refinement, always or mostly."""
    refine, calls = bisim._refine, 0

    def counting_refine(*args, **kwargs):
        nonlocal calls
        calls += 1
        return refine(*args, **kwargs)

    monkeypatch.setattr(bisim, "_refine", counting_refine)
    rng = random.Random(507)
    sig1 = Signature(agents=("a",), attention_bound=2, prop_atoms=("p", "q"))
    refined: Counter[tuple[str, bool]] = Counter()
    outcomes = set()
    for case in range(240):
        s = rand_discrete_state(rng, (sig1, SIG2, SIG3)[case % 3])
        copy = renamed(rng, s)
        others = {
            "renamed": copy,
            "moved": replace(copy, actual=rng.choice(copy.worlds)),
            "split": with_block_split(rng, s),
            "other": rand_discrete_state(rng, s.sig),
            "duplicate": with_duplicate(rng, s),
        }
        for kind, t in others.items():
            if t is None:
                continue
            for left, right in ((s, t), (t, s)):
                for compare, x, y in (
                    (bisimilar, left, right),
                    (kripke_bisimilar, kripke_rendition(left), kripke_rendition(right)),
                ):
                    before = calls
                    outcome = compare(x, y)
                    assert outcome == ref.compare(x, y)
                    refined[kind, calls > before] += 1
                    outcomes.add(getattr(outcome, "round", None))
    assert not refined["renamed", True] and not refined["moved", True]
    assert not refined["split", False] and not refined["duplicate", False]
    assert refined["other", True] > refined["other", False] > 0
    assert refined["moved", False] > 0 and {None, 0, 1} <= outcomes


def test_disjoint_copies_match_reference():
    rng = random.Random(504)
    for case in range(100):
        s = rand_state(rng, SIG2 if case % 4 else SIG3)
        doubled = with_disjoint_copy(rng, s)
        assert contract(doubled) == ref.contract(doubled)
        assert_attention_pair_agrees(s, doubled)
        assert isinstance(bisimilar(s, doubled), BisimWitness)


def test_distinguishing_formulas_print_as_the_reference_builds_them():
    """At ``max_rounds=10`` the formula prints as the oracle's, whose classes
    are ids numbered from 0 by first position, so the order in which a
    block's classes are written shows.  Cases are renditions, epistemic
    states listing arbitrary attention atoms, and renditions with their
    relations redrawn (which separate at later rounds), some with a world
    listing atoms the signature does not know; two signatures list their
    agents out of sorted order."""
    rng = random.Random(506)
    sigs = (
        SIG2,
        SIG3,
        Signature(agents=("c", "a", "b"), attention_bound=2, prop_atoms=("p", "q")),
        Signature(agents=("b", "a"), attention_bound=0, prop_atoms=("p",)),
    )
    depths: Counter[int | None] = Counter()
    for case in range(1200):
        sig = sigs[case // 4 % 4]
        if case % 2 == 0:
            k1 = kripke_rendition(rand_state(rng, sig, max_worlds=6))
            partitions = {agent: rand_partition(rng, k1.worlds) for agent in sig.agents}
            k2 = replace(k1, partitions=partitions, actual=rng.choice(k1.worlds))
        elif case % 4 == 1:
            k1, k2 = rand_epistemic_state(rng, sig), rand_epistemic_state(rng, sig)
        else:
            k1, k2 = (kripke_rendition(rand_state(rng, sig)) for _ in range(2))
        if case % 5 == 0:
            world = rng.choice(k2.worlds)
            extra = {"zz", att_eq(sig.agents[0], sig.attention_bound + 1)}
            k2 = replace(k2, valuation={**k2.valuation, world: k2.valuation[world] | extra})
        expected = ref.distinguishing_formula(k1, k2, max_rounds=10)
        f = distinguishing_formula(k1, k2, max_rounds=10)
        assert (f is None) == (expected is None)
        if f is not None:
            assert format_formula(f) == format_formula(expected)
        depths[None if f is None else modal_depth(f)] += 1
    assert min(depths[depth] for depth in (None, 0, 1)) >= 50 and depths[2] >= 10, depths
