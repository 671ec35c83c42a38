"""The trusted constructor's contract: every state built through
``_normal`` (by the loader's ``taskfile._state``, ``attention_update``,
``AttentionState._read_off``, which writes the states the planner's
``_generated`` and the merging branch of ``bisim._quotient`` cut down,
``kripke_rendition`` and ``product_update``, whose result is an epistemic
or an attention state as its input is) is already in the normal form the
public constructor would give it.

``repr`` pins the order of every dict and every partition's blocks, which
``==`` ignores.  The actions are drawn without the transitivity filter, so
some branch relations have a witness and the update splits a group into
several blocks, the one path where blocks do not come out in order.
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from attnplan.actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    attention_update,
    product_update,
)
from attnplan.bisim import _quotient
from attnplan.emulate import resolve_actual, to_post
from attnplan.errors import IllFormedResult, NotApplicable
from attnplan.logic import TOP, PropAtom, Signature
from attnplan.models import AttentionState, EpistemicState, kripke_rendition
from attnplan.planner import _generated
from attnplan.taskfile import load_bundled, loads, state_document

from generators import SIG2, rand_attention_action, rand_post_action, rand_state


def renormalized(s: AttentionState | EpistemicState) -> AttentionState | EpistemicState:
    return type(s)(**{f.name: getattr(s, f.name) for f in fields(s)})


def assert_normal(s: AttentionState | EpistemicState) -> None:
    assert repr(s) == repr(renormalized(s))


def test_split_groups_come_back_in_normal_order():
    """``e0 ~ e2`` by q and ``e2 ~ e1`` by qstar, but not ``e0 ~ e1``: no
    survivor takes e2, so the update is defined, and each source block's
    group splits by event.  The second block's classes go before the first
    block's second class."""
    sig = Signature(agents=("i",), attention_bound=2, prop_atoms=("p", "q"))
    state = AttentionState(
        sig=sig,
        worlds=("w0", "w1", "w2"),
        partitions={"i": ({"w0", "w2"}, {"w1"})},
        valuation={"w0": set(), "w1": {"q"}, "w2": {"q"}},
        attention={"i": {"w0": 0, "w1": 0, "w2": 0}},
        actual="w2",
    )
    model = AttentionActionModel(
        sig=sig,
        events=("e0", "e1", "e2"),
        q={"i": [{"e0", "e2"}, {"e1"}]},
        qstar={"i": [{"e0"}, {"e1", "e2"}]},
        pre={"e0": TOP, "e1": PropAtom("q"), "e2": PropAtom("p")},
        cost=CostTable(default=1),
    )
    result = attention_update(state, AttentionAction("x", model, {}, "e0"))
    assert result.partitions["i"] == tuple(
        map(frozenset, ({"w0*e0", "w2*e0"}, {"w1*e0"}, {"w1*e1"}, {"w2*e1"}))
    )
    assert_normal(result)


def test_every_trusted_site_builds_the_normal_form():
    rng = random.Random(14)
    seen: Counter[str] = Counter()
    for _ in range(2000):
        state = rand_state(rng, SIG2)
        action = rand_attention_action(rng, SIG2, max_events=4, total=False)
        try:
            result = attention_update(state, action)
        except (NotApplicable, IllFormedResult):
            continue
        assert_normal(result)
        seen["update"] += 1
        relations = [r for pair in action._branches.values() for r in pair]
        seen["update with a witness"] += any(r.witness is not None for r in relations)
        point = _generated(result)
        assert_normal(point)
        seen["generated"] += point is not result
        for s in (result, point):
            quotient, _ = _quotient(s, {})
            assert_normal(quotient)
            seen["merging quotient"] += quotient is not s
    assert min(seen[site] for site in (
        "update", "update with a witness", "generated", "merging quotient"
    )) > 0, seen


@pytest.mark.parametrize(
    "sig", [SIG2, replace(SIG2, agents=("b", "a"))], ids=["SIG2", "agents-unsorted"]
)
def test_epistemic_sites_build_the_normal_form(sig):
    """``kripke_rendition`` passes a state's partitions on; ``product_update``
    writes its own, keyed by agent in sorted order whatever the signature's
    order, for actions ``to_post`` compiles and for hand-built ones."""
    rng = random.Random(16)
    seen: Counter[str] = Counter()
    for _ in range(300):
        k = kripke_rendition(rand_state(rng, sig))
        assert_normal(k)
        plain = {"hand-built": rand_post_action(rng, sig)}
        with contextlib.suppress(IllFormedResult):
            action = rand_attention_action(rng, sig, max_events=4, total=False)
            plain["compiled"] = to_post(action)
        for site, y in plain.items():
            try:
                product = product_update(k, resolve_actual(y, k))
            except NotApplicable:
                continue
            assert_normal(product)
            seen[site] += 1
    assert min(seen[site] for site in ("hand-built", "compiled")) > 0, seen


@pytest.mark.parametrize(
    "sig", [SIG2, replace(SIG2, agents=("b", "a"))], ids=["SIG2", "agents-unsorted"]
)
def test_the_product_of_an_attention_state_is_in_normal_form(sig):
    """On an attention state ``product_update`` writes budgets keyed by
    agent in sorted order, then by pair, beside the partitions it writes
    on an epistemic state."""
    rng = random.Random(17)
    built = 0
    for _ in range(300):
        s = rand_state(rng, sig)
        with contextlib.suppress(IllFormedResult):
            y = to_post(rand_attention_action(rng, sig, max_events=4, total=False))
            try:
                product = product_update(s, resolve_actual(y, s))
            except NotApplicable:
                continue
            assert isinstance(product, AttentionState)
            assert_normal(product)
            built += 1
    assert built > 50, built


@pytest.mark.parametrize("name", ["two_facts.task", "muddy_children.task"])
def test_loaded_fixture_states_are_in_normal_form(name):
    for state in load_bundled(name).states.values():
        assert_normal(state)


@pytest.mark.parametrize(
    "sig", [SIG2, replace(SIG2, agents=("b", "a"))], ids=["SIG2", "agents-unsorted"]
)
def test_loaded_states_are_in_normal_form(sig):
    """``_state`` keys its maps in sorted agent order whatever the
    signature's, and reloads each written state to an equal one."""
    rng = random.Random(29)
    for _ in range(200):
        state = rand_state(rng, sig, max_worlds=5)
        loaded = loads(state_document(state, "s")).states["s"]
        assert_normal(loaded)
        assert loaded == state
