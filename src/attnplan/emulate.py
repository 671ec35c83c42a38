"""Transforms between attention actions and plain epistemic actions.

``from_nopost`` wraps a postcondition-free epistemic action as an attention
action that charges nothing and refines nothing extra.  ``to_post`` goes the
other way: each event is split into one variant per attention profile (which
agents can afford their question), each agent relates the variants by the
branch relation of its bit (``AttentionAction._branches``, derived once per
action), preconditions gain budget guards, and postconditions write the
discounted budgets back into the attention atoms.
A charge c >= 1 leaves ``max(0, before - c)``, so every attention atom's
postcondition is one atom or a constant: ``(att = 0)`` becomes
``(att < c + 1)``, ``(att = n)`` becomes ``(att = n + c)`` and ``(att < n)``
becomes ``(att < n + c)``, with out-of-range atoms read as constants (see
``_attention_posts``).  A variant's post map depends only on what its event
charges each agent, so events whose charges agree share one map object, and
the product update reads each distinct map once per compiled action.
``check_equivalent_on`` replays both presentations over given states and
compares the results up to bisimilarity.

The product update takes either state kind.  On an attention state it reads
each map's attention entries as a budget shift by their formulas' truth
over the budgets, never by ``_attention_posts``, and returns an attention
state; a map that is no shift, or whose charge varies on an agent's blocks,
is an AttnPlanError there.  So the check compares attention states, and
renders states into attention atoms only for a negative verdict's
distinguishing formula, or for an action whose maps are no shifts, whose
product exists only on renditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .actions import (
    AttentionAction,
    AttentionActionModel,
    CostTable,
    EpistemicAction,
    applicable,
    attention_update,
    product_update,
)
from .bisim import BisimWitness, bisimilar, distinguishing_formula, kripke_bisimilar
from .errors import AmbiguousActual, IllFormedResult, NotApplicable
from .logic import TOP, And, AttEq, AttLess, Formula, att_eq, att_geq, att_lt, bot
from .models import AttentionState, EpistemicState, _eval, _require_actual, kripke_rendition


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
    y._actual_pre  # the gate
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


def _attention_posts(
    agent: str, cost: int, bound: int
) -> dict[AttEq | AttLess, Formula]:
    """Postconditions rewriting one agent's attention atoms after a charge.

    A charge ``c >= 1`` leaves ``after = max(0, before - c)``, so each atom
    about ``after`` is one atom (or a constant) about ``before``, with
    ``below(m)`` standing for ``(att < m)`` when ``m <= bound`` and for truth
    otherwise (no budget exceeds the bound):

    - ``(att = 0)``: the budget was at most c, ``below(c + 1)``;
    - ``(att = n)``, n >= 1: no floor was hit, so the budget was exactly
      ``n + c``, which is falsity when ``n + c > bound``;
    - ``(att < 0)``: never true, falsity;
    - ``(att < n)``, n >= 1: ``after < n`` iff ``before < n + c``, that is
      ``below(n + c)``.

    These agree with the atom-by-atom disjunctions of the original encoding
    (kept in the tests as the oracle) at every budget in ``0..bound``; a
    world listing two ``(att = n)`` atoms for one agent is no rendition and
    has no meaning under either.
    """
    if cost <= 0:
        return {}
    never = bot()

    def below(m: int) -> Formula:
        return att_lt(agent, m) if m <= bound else TOP

    out: dict[AttEq | AttLess, Formula] = {att_eq(agent, 0): below(cost + 1)}
    for n in range(1, bound + 1):
        out[att_eq(agent, n)] = att_eq(agent, n + cost) if n + cost <= bound else never
    out[att_lt(agent, 0)] = never
    for n in range(1, bound + 1):
        out[att_lt(agent, n)] = below(n + cost)
    return out


def _budget_guard(agent: str, cost: int, bound: int, attends: int) -> Formula | None:
    """``att >= cost`` for an agent that attends, ``att < cost`` for one that
    does not, with out-of-range values rendered as constants; None for a
    guard that always holds, which is dropped."""
    if cost <= 0:  # a free question is always heard
        return None if attends else bot()
    if cost > bound:  # no budget covers the cost
        return bot() if attends else None
    return att_geq(agent, cost) if attends else att_lt(agent, cost)


def to_post(x: AttentionAction) -> EpistemicAction:
    """Compile an attention action into a plain action with postconditions.

    Every event is copied once per attention profile; the profile's guards
    decide which copy fires on a given state, and only the matching copies
    of the original actual event are executable, so the actual is a family
    resolved per state (see ``resolve_actual``).  An event's variants share
    their guards and the prefixes of their left-associated preconditions,
    so a labelling, whose memo is keyed by value, reads each once and meets
    it by identity.  Variants of events whose charges agree hold one shared
    post map, the union of the agents' ``_attention_posts``;
    ``EpistemicAction`` keeps shared maps shared.
    Raises AttnPlanError for an inconsistent action, as the update does, and
    IllFormedResult if some agent's branch relations are not transitive, in
    which case no partition-form result exists.
    """
    model = x.model
    sig = model.sig
    bound = sig.attention_bound
    agents = sig.agents
    profiles = profiles_for(len(agents))

    x._actual_pre  # the gate
    branches, costs = x._branches, x._costs

    # Each (event, profile) variant's name, by event in profile order.
    variants = {e: [f"{e}@{profile.tag()}" for profile in profiles] for e in model.events}
    shared: dict[tuple[int, ...], dict] = {}  # post maps by charges
    events: list[str] = []
    pre: dict[str, Formula] = {}
    post: dict[str, dict] = {}
    for event in model.events:
        charges = tuple(costs[agent][event] for agent in agents)
        if charges not in shared:
            shared[charges] = {
                atom: formula
                for agent, cost in zip(agents, charges)
                for atom, formula in _attention_posts(agent, cost, bound).items()
            }
        # Each profile prefix's conjunction, one agent's guard further per
        # round; the keys end in profile order.
        chains: dict[tuple[int, ...], Formula] = {(): model.pre[event]}
        for agent, cost in zip(agents, charges):
            guards = [_budget_guard(agent, cost, bound, bit) for bit in (0, 1)]
            chains = {
                bits + (bit,): chain if guard is None else And(chain, guard)
                for bits, chain in chains.items()
                for bit, guard in enumerate(guards)
            }
        for profile, name in zip(profiles, variants[event]):
            events.append(name)
            pre[name] = chains[profile.bits]
            post[name] = shared[charges]  # EpistemicAction copies each map once

    q: dict[str, tuple[frozenset[str], ...]] = {}
    for k, agent in enumerate(agents):
        blocks: list[frozenset[str]] = []
        for bit, relation in enumerate(branches[agent]):
            if relation.witness is not None:
                raise IllFormedResult(agent, relation.witness)
            tagged = [j for j, profile in enumerate(profiles) if profile.bits[k] == bit]
            blocks.extend(
                frozenset(variants[e][j] for e in group for j in tagged)
                for group in relation.classes
            )
        q[agent] = tuple(blocks)

    family = tuple(variants[x.actual])
    return EpistemicAction(
        sig=sig,
        events=tuple(events),
        q=q,
        pre=pre,
        post=post,
        actual=family[-1],  # the last profile: every agent attends
        actual_family=family,
    )


def resolve_actual(
    y: EpistemicAction, s: AttentionState | EpistemicState
) -> EpistemicAction:
    """Pick the family member executable at ``s``'s actual world.

    ``s`` is either state kind: an attention state and its
    ``kripke_rendition`` give every guard the same truth value, so they pick
    the same member.  The profile guards of ``to_post`` are mutually
    exclusive, so at most one member fires; none firing means the action is
    not applicable at ``s``, and several (a hand-built family) raise
    AmbiguousActual.  Each call builds the member afresh, which is cheap: it
    shares ``y``'s checked maps and their readings (``EpistemicAction._member``).
    """
    y._actual_pre  # the gate
    _require_actual(s)
    family = y.actual_family or (y.actual,)
    matches = [e for e in family if _eval(s, y.pre[e], s.actual)]
    if not matches:
        raise NotApplicable(
            f"no member of the actual family fires at world {s.actual!r}"
        )
    if len(matches) > 1:
        raise AmbiguousActual(
            f"members {', '.join(map(repr, matches))} of the actual family all "
            f"fire at world {s.actual!r}; their guards must be mutually exclusive"
        )
    return y._member(matches[0])


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing the two presentations over one state."""

    equivalent: bool
    detail: str
    distinguishing: Formula | None = None


def check_equivalent_on(
    x: AttentionAction, y: EpistemicAction, states: list[AttentionState]
) -> list[Verdict]:
    """Replay ``x`` and ``y`` on each state; compare.

    Two runs agree when both are inapplicable, or both apply and the
    attention result is bisimilar to the product of the state with the
    member of ``y``'s family that fires there.  When every post map of
    ``y`` is a budget shift (``EpistemicAction._charges``), the product is
    taken on the attention state itself and ``bisimilar`` compares
    attention states; otherwise the product is taken on the state's
    ``kripke_rendition`` and ``kripke_bisimilar`` compares it with the
    rendered attention result.  Either way the verdict is the one the
    renditions give, round included, since a rendition's valuation
    determines the budgets and the budgets the rendition.  A negative
    verdict carries a distinguishing formula of the renditions when one
    exists within two knowledge alternations.
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
        r1 = attention_update(s, x)
        if isinstance(resolved._charges, str):  # no budget shift: compare renditions
            r1, r2 = kripke_rendition(r1), product_update(kripke_rendition(s), resolved)
            outcome = kripke_bisimilar(r1, r2)
        else:
            r2 = product_update(s, resolved)
            outcome = bisimilar(r1, r2)
        if isinstance(outcome, BisimWitness):
            verdicts.append(Verdict(True, "results bisimilar"))
            continue
        if isinstance(r1, AttentionState):
            r1, r2 = kripke_rendition(r1), kripke_rendition(r2)
        verdicts.append(
            Verdict(
                False,
                f"results separated at refinement round {outcome.round}",
                distinguishing_formula(r1, r2),
            )
        )
    return verdicts
