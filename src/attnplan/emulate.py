"""Transforms between attention actions and plain epistemic actions.

``from_nopost`` wraps a postcondition-free epistemic action as an attention
action that charges nothing and refines nothing extra.  ``to_post`` goes the
other way: each event is split into one variant per attention profile (which
agents can afford their question), preconditions gain budget guards, and
postconditions write the discounted budgets back into the attention atoms.
``check_equivalent_on`` replays both presentations over given states and
compares the results up to bisimilarity of their atom-level renditions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    EpistemicAction,
    applicable,
    attention_update,
    branch_classes,
    product_update,
)
from .bisim import BisimWitness, distinguishing_formula, kripke_bisimilar
from .errors import IllFormedResult, NotApplicable
from .logic import (
    And,
    AttEq,
    AttLess,
    Formula,
    Not,
    and_all,
    att_geq,
    bot,
    entails,
    or_,
    or_all,
)
from .models import (
    AttentionState,
    _eval_epistemic,
    kripke_rendition,
)


@dataclass(frozen=True)
class AttentionProfile:
    """One way the agents can split into attending and non-attending."""

    bits: tuple[int, ...]  # aligned with the signature's agent order

    def tag(self) -> str:
        return "".join(str(b) for b in self.bits)


def profiles_for(agent_count: int) -> tuple[AttentionProfile, ...]:
    return tuple(
        AttentionProfile(bits) for bits in product((0, 1), repeat=agent_count)
    )


def from_nopost(y: EpistemicAction, name: str = "nopost") -> AttentionAction:
    """Present a postcondition-free epistemic action as an attention action.

    Same events, relations, and preconditions; the starred relation is the
    identity, every question is trivial, and every cost is zero — so no
    budget moves and no extra refinement happens.
    """
    if not y.is_nopost():
        raise ValueError("the action writes postconditions; only noPost converts")
    model = AttentionActionModel(
        sig=y.sig,
        events=y.events,
        q=y.q,
        qstar={},  # filled to singletons
        pre=y.pre,
        cost=CostTable(default=0),
    )
    return AttentionAction(name=name, model=model, questions={}, actual=y.actual)


def _budget_after_zero(agent: str, cost: int, bound: int) -> Formula:
    """Postcondition of ``(att_agent = 0)``: the budget was at most the cost."""
    return or_all([AttEq(agent, m) for m in range(min(cost, bound) + 1)])


def _budget_after_exact(agent: str, n: int, cost: int, bound: int) -> Formula:
    """Postcondition of ``(att_agent = n)`` for n >= 1: either the budget was
    n and the discount floors at n (only when n - cost clamps to n... it
    cannot for positive cost, the disjunct is kept for shape), or it was
    n + cost exactly; a target above the bound is unreachable (falsity)."""
    was_n = And(AttEq(agent, n), AttEq(agent, max(0, n - cost)))
    source = n + cost
    came_down = And(
        Not(AttEq(agent, n)),
        AttEq(agent, source) if source <= bound else bot(),
    )
    return or_(was_n, came_down)


def _attention_posts(
    agent: str, cost: int, bound: int
) -> dict[AttEq | AttLess, Formula]:
    """Postconditions rewriting one agent's attention atoms after a charge."""
    if cost <= 0:
        return {}
    eq_posts: dict[int, Formula] = {0: _budget_after_zero(agent, cost, bound)}
    for n in range(1, bound + 1):
        eq_posts[n] = _budget_after_exact(agent, n, cost, bound)
    out: dict[AttEq | AttLess, Formula] = {}
    for n in range(bound + 1):
        out[AttEq(agent, n)] = eq_posts[n]
    out[AttLess(agent, 0)] = bot()
    for n in range(1, bound + 1):
        out[AttLess(agent, n)] = or_all([eq_posts[j] for j in range(n)])
    return out


def _attending_guard(agent: str, cost: int, bound: int) -> Formula | None:
    """``att >= cost`` with out-of-range values rendered as constants."""
    if cost <= 0:
        return None  # always affordable: the guard is truth, drop it
    if cost > bound:
        return bot()
    return att_geq(agent, cost)


def _nonattending_guard(agent: str, cost: int, bound: int) -> Formula | None:
    """``att < cost`` with out-of-range values rendered as constants."""
    if cost <= 0:
        return bot()  # a free question is always heard
    if cost > bound:
        return None  # every budget is below the cost, drop the guard
    return AttLess(agent, cost)


def to_post(x: AttentionAction) -> EpistemicAction:
    """Compile an attention action into a plain action with postconditions.

    Every event is copied once per attention profile; the profile's guards
    decide which copy fires on a given state, and only the matching copies
    of the original actual event are executable, so the actual is a family
    resolved per state (see ``resolve_actual``).  Raises IllFormedResult if
    some agent's branch relations are not transitive, in which case no
    partition-form result exists.
    """
    model = x.model
    sig = model.sig
    bound = sig.attention_bound
    agents = sig.agents
    profiles = profiles_for(len(agents))

    costs = {
        agent: {e: model.cost_of(agent, x.questions[agent], e) for e in model.events}
        for agent in agents
    }
    answers = {
        agent: {e: entails(sig, model.pre[e], x.questions[agent]) for e in model.events}
        for agent in agents
    }

    def variant(event: str, profile: AttentionProfile) -> str:
        return f"{event}@{profile.tag()}"

    events: list[str] = []
    pre: dict[str, Formula] = {}
    post: dict[str, dict] = {}
    for event in model.events:
        base_posts: dict = {}
        for agent in agents:
            base_posts.update(_attention_posts(agent, costs[agent][event], bound))
        for profile in profiles:
            name = variant(event, profile)
            events.append(name)
            conjuncts: list[Formula] = [model.pre[event]]
            for k, agent in enumerate(agents):
                if profile.bits[k] == 1:
                    guard = _attending_guard(agent, costs[agent][event], bound)
                else:
                    guard = None
                if guard is not None:
                    conjuncts.append(guard)
            for k, agent in enumerate(agents):
                if profile.bits[k] == 0:
                    guard = _nonattending_guard(agent, costs[agent][event], bound)
                else:
                    guard = None
                if guard is not None:
                    conjuncts.append(guard)
            pre[name] = and_all(conjuncts)
            post[name] = dict(base_posts)

    q: dict[str, tuple[frozenset[str], ...]] = {}
    for k, agent in enumerate(agents):
        blocks: list[frozenset[str]] = []
        for bit, relation in enumerate(branch_classes(model, agent, answers[agent])):
            if relation.witness is not None:
                raise IllFormedResult(agent, relation.witness)
            tagged = [profile for profile in profiles if profile.bits[k] == bit]
            blocks.extend(
                frozenset(variant(e, profile) for e in group for profile in tagged)
                for group in relation.classes
            )
        q[agent] = tuple(blocks)

    all_on = profiles[-1]
    assert all(b == 1 for b in all_on.bits)
    family = tuple(variant(x.actual, profile) for profile in profiles)
    return EpistemicAction(
        sig=sig,
        events=tuple(events),
        q=q,
        pre=pre,
        post=post,
        actual=variant(x.actual, all_on),
        actual_family=family,
    )


def resolve_actual(y: EpistemicAction, s: AttentionState) -> EpistemicAction:
    """Pick the family member executable at ``s``'s actual world.

    Profile guards are mutually exclusive, so at most one member fires;
    none firing means the action is not applicable at ``s``.
    """
    family = y.actual_family or (y.actual,)
    rendition = kripke_rendition(s)
    matches = [
        e for e in family if _eval_epistemic(rendition, y.pre[e], rendition.actual)
    ]
    if not matches:
        raise NotApplicable(
            f"no member of the actual family fires at world {s.actual!r}"
        )
    assert len(matches) == 1, "profile guards must be mutually exclusive"
    return replace(y, actual=matches[0])


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing the two presentations over one state."""

    equivalent: bool
    detail: str
    distinguishing: Formula | None = None


def check_equivalent_on(
    x: AttentionAction, y: EpistemicAction, states: list[AttentionState]
) -> list[Verdict]:
    """Replay ``x`` on each state and ``y`` on its rendition; compare.

    Two runs agree when both are inapplicable, or both apply and the
    rendition of the attention result is bisimilar to the epistemic
    product.  A ``NotEquivalent`` verdict carries a distinguishing formula
    when one exists within two knowledge alternations.
    """
    verdicts: list[Verdict] = []
    for s in states:
        runs_x = applicable(s, x)
        try:
            resolved = resolve_actual(y, s)
            runs_y = True
        except NotApplicable:
            runs_y = False
        if runs_x != runs_y:
            verdicts.append(
                Verdict(
                    False,
                    f"applicability mismatch at {s.actual!r}: "
                    f"attention side {runs_x}, epistemic side {runs_y}",
                )
            )
            continue
        if not runs_x:
            verdicts.append(Verdict(True, "both inapplicable"))
            continue
        r1 = kripke_rendition(attention_update(s, x))
        r2 = product_update(kripke_rendition(s), resolved)
        outcome = kripke_bisimilar(r1, r2)
        if isinstance(outcome, BisimWitness):
            verdicts.append(Verdict(True, "results bisimilar"))
        else:
            verdicts.append(
                Verdict(
                    False,
                    f"results separated at refinement round {outcome.round}",
                    distinguishing_formula(r1, r2),
                )
            )
    return verdicts
