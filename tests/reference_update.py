"""Naive reference versions of the update and model-checking code in
``attnplan``.

These are the original implementations: the scanning price lookup of
``cost_of``, the all-pairs survivor loop and partition of
``attention_update``, the per-bit relation loop of
``to_post``, the transitivity test behind ``validate_action`` and relaxed
``is_nfl``, the evaluator for epistemic states that read attention atoms
from the valuation, ``product_update`` with its preconditions and
postconditions evaluated world by world, and ``to_post``'s budget
postconditions as atom-by-atom disjunctions (O(bound) nodes per atom,
O(bound^2) per agent).  They test relatedness by scanning blocks.  The
differential suite compares the library's grouped, extension-set and
closed-form versions against them; nothing in the package imports this
module.
"""

from __future__ import annotations

from attnplan.actions import AttentionAction, AttentionActionModel, EpistemicAction
from attnplan.errors import CostLookupError, IllFormedResult, NotApplicable
from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Formula,
    Know,
    Not,
    PropAtom,
    Top,
    bot,
    entails,
    or_,
    or_all,
)
from attnplan.models import Atom, AttentionState, EpistemicState, Partition, _eval


def _pair_name(world: str, event: str) -> str:
    return f"{world}*{event}"


def same_block(blocks: Partition, e: str, f: str) -> bool:
    return any(e in block and f in block for block in blocks)


def union_related(model: AttentionActionModel, agent: str, e: str, f: str) -> bool:
    return same_block(model.q[agent], e, f) or same_block(model.qstar[agent], e, f)


def union_transitive(model: AttentionActionModel, agent: str) -> bool:
    events = model.events
    for e in events:
        for f in events:
            if not union_related(model, agent, e, f):
                continue
            for g in events:
                if union_related(model, agent, f, g) and not union_related(
                    model, agent, e, g
                ):
                    return False
    return True


def union_total(model: AttentionActionModel, agent: str) -> bool:
    return all(
        union_related(model, agent, e, f) for e in model.events for f in model.events
    )


def cost_of(model: AttentionActionModel, agent: str, question: Formula, event: str) -> int:
    """The price of ``question`` for ``agent`` at ``event``, found by
    scanning every entry for one on the event's q-union-qstar component;
    CostLookupError wherever the library's lookup refuses."""
    if isinstance(question, Top):
        return 0
    if agent not in model.sig.agents or event not in model.events:
        raise CostLookupError(f"unknown agent {agent!r} or event {event!r}")
    related = {
        (e, f) for e in model.events for f in model.events if union_related(model, agent, e, f)
    }
    component = next(c for c in _components(list(model.events), related) if event in c)
    found = [
        entry.cost
        for entry in model.cost.entries
        if entry.agent == agent and entry.formula == question and entry.event in component
    ]
    if len(set(found)) > 1:
        raise CostLookupError(f"conflicting explicit costs for agent {agent!r}")
    if found:
        price = found[0]
    elif agent in model.cost.agent_defaults:
        price = model.cost.agent_defaults[agent]
    elif model.cost.default is not None:
        price = model.cost.default
    else:
        raise CostLookupError(f"no price for agent {agent!r} at event {event!r}")
    if price < 0:
        raise CostLookupError(f"negative cost {price} for agent {agent!r}")
    return price


def _find_intransitive_triple(
    members: list[str], related: set[tuple[str, str]]
) -> tuple[str, str, str] | None:
    for a in members:
        for b in members:
            if a != b and (a, b) not in related:
                continue
            for c in members:
                if (b, c) in related or b == c:
                    if a != c and (a, c) not in related:
                        return (a, b, c)
    return None


def _components(
    members: list[str], related: set[tuple[str, str]]
) -> list[list[str]]:
    """Connected components by union-find, in first-member order."""
    parent = {m: m for m in members}

    def find(z: str) -> str:
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    for a, b in related:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    components: dict[str, list[str]] = {}
    for m in members:
        components.setdefault(find(m), []).append(m)
    return list(components.values())


def _check_complete(
    agent: str, components: list[list[str]], related: set[tuple[str, str]]
) -> None:
    for members in components:
        complete = all(a == b or (a, b) in related for a in members for b in members)
        if not complete:
            triple = _find_intransitive_triple(members, related)
            assert triple is not None
            raise IllFormedResult(agent, triple)


def branch_blocks(
    model: AttentionActionModel, agent: str, answers: dict[str, bool]
) -> list[list[list[str]]]:
    """Event classes of the agent's two branch relations, indexed by bit.

    Raises IllFormedResult with the first witness when one is intransitive,
    bit 0 checked before bit 1.
    """
    out = []
    for bit in (0, 1):
        related: set[tuple[str, str]] = set()
        for e in model.events:
            for f in model.events:
                in_q = same_block(model.q[agent], e, f)
                in_qstar = same_block(model.qstar[agent], e, f)
                if bit == 0:
                    hit = in_q or in_qstar
                else:
                    hit = in_q or (in_qstar and answers[e] == answers[f])
                if hit:
                    related.add((e, f))
        components = _components(list(model.events), related)
        _check_complete(agent, components, related)
        out.append(components)
    return out


def survivors(s: AttentionState, model: AttentionActionModel) -> list[tuple[str, str]]:
    return [(w, e) for w in s.worlds for e in model.events if _eval(s, model.pre[e], w)]


def attention_update(s: AttentionState, x: AttentionAction) -> AttentionState:
    """The all-pairs product: every pair of survivors is compared."""
    model = x.model
    sig = s.sig
    if not _eval(s, model.pre[x.actual], s.actual):
        raise NotApplicable("pre of actual event fails at actual world")
    pairs = survivors(s, model)
    names = {pair: _pair_name(*pair) for pair in pairs}
    costs = {
        agent: {e: cost_of(model, agent, x.questions[agent], e) for e in model.events}
        for agent in sig.agents
    }
    answers = {
        agent: {e: entails(sig, model.pre[e], x.questions[agent]) for e in model.events}
        for agent in sig.agents
    }
    partitions: dict[str, Partition] = {}
    for agent in sig.agents:
        related: set[tuple[str, str]] = set()
        for i, (w, e) in enumerate(pairs):
            for v, f in pairs[i + 1 :]:
                if v not in s.block_of(agent, w):
                    continue
                in_q = same_block(model.q[agent], e, f)
                in_qstar = same_block(model.qstar[agent], e, f)
                if not (in_q or in_qstar):
                    continue
                if costs[agent][e] > s.att(agent, w):
                    hit = True
                else:
                    hit = in_q or (in_qstar and answers[agent][e] == answers[agent][f])
                if hit:
                    a, b = names[(w, e)], names[(v, f)]
                    related.add((a, b))
                    related.add((b, a))
        components = _components([names[p] for p in pairs], related)
        _check_complete(agent, components, related)
        partitions[agent] = tuple(frozenset(c) for c in components)
    return AttentionState(
        sig=sig,
        worlds=tuple(names[p] for p in pairs),
        partitions=partitions,
        valuation={names[(w, e)]: s.valuation[w] for (w, e) in pairs},
        attention={
            agent: {
                names[(w, e)]: max(0, s.att(agent, w) - costs[agent][e])
                for (w, e) in pairs
            }
            for agent in sig.agents
        },
        actual=names[(s.actual, x.actual)],
    )


def eval_epistemic(k: EpistemicState, f: Formula, world: str) -> bool:
    """Truth in an epistemic state, attention atoms true iff listed."""
    if isinstance(f, Top):
        return True
    if isinstance(f, PropAtom):
        return f.name in k.valuation[world]
    if isinstance(f, (AttEq, AttLess)):
        return f in k.valuation[world]
    if isinstance(f, Not):
        return not eval_epistemic(k, f.sub, world)
    if isinstance(f, And):
        return eval_epistemic(k, f.left, world) and eval_epistemic(k, f.right, world)
    if isinstance(f, Know):
        return all(eval_epistemic(k, f.sub, v) for v in k.block_of(f.agent, world))
    raise ValueError(f"not a formula node: {f!r}")


def product_update(k: EpistemicState, y: EpistemicAction) -> EpistemicState:
    """The product with every formula evaluated world by world."""
    if not eval_epistemic(k, y.pre[y.actual], k.actual):
        raise NotApplicable("pre of actual event fails at actual world")
    pairs = [(w, e) for w in k.worlds for e in y.events if eval_epistemic(k, y.pre[e], w)]
    names = {pair: _pair_name(*pair) for pair in pairs}
    partitions: dict[str, Partition] = {}
    for agent in k.sig.agents:
        grouped: dict[tuple[int, int], list[str]] = {}
        source_blocks = {w: i for i, block in enumerate(k.partitions[agent]) for w in block}
        event_blocks = {e: i for i, block in enumerate(y.q[agent]) for e in block}
        for w, e in pairs:
            grouped.setdefault((source_blocks[w], event_blocks[e]), []).append(
                names[(w, e)]
            )
        partitions[agent] = tuple(frozenset(ws) for ws in grouped.values())
    valuation: dict[str, frozenset[Atom]] = {}
    for w, e in pairs:
        post = y.post.get(e, {})
        atoms: set[Atom] = {a for a in k.valuation[w] if a not in post}
        for atom, formula in post.items():
            if eval_epistemic(k, formula, w):
                atoms.add(atom)
        valuation[names[(w, e)]] = frozenset(atoms)
    return EpistemicState(
        sig=k.sig,
        worlds=tuple(names[p] for p in pairs),
        partitions=partitions,
        valuation=valuation,
        actual=names[(k.actual, y.actual)],
    )


def _budget_after_zero(agent: str, cost: int, bound: int) -> Formula:
    """Postcondition of ``(att_agent = 0)``: the budget was at most the cost."""
    return or_all([AttEq(agent, m) for m in range(min(cost, bound) + 1)])


def _budget_after_exact(agent: str, n: int, cost: int, bound: int) -> Formula:
    """Postcondition of ``(att_agent = n)`` for n >= 1: either the budget was
    n and the discount floors at n (never, for a positive cost; the disjunct
    is kept for shape), or it was n + cost exactly; a target above the bound
    is unreachable (falsity)."""
    was_n = And(AttEq(agent, n), AttEq(agent, max(0, n - cost)))
    source = n + cost
    came_down = And(
        Not(AttEq(agent, n)),
        AttEq(agent, source) if source <= bound else bot(),
    )
    return or_(was_n, came_down)


def attention_posts(agent: str, cost: int, bound: int) -> dict[Atom, Formula]:
    """Postconditions rewriting one agent's attention atoms after a charge:
    ``(att < n)`` is the disjunction of the ``(att = j)`` postconditions for
    j < n."""
    if cost <= 0:
        return {}
    eq_posts: dict[int, Formula] = {0: _budget_after_zero(agent, cost, bound)}
    for n in range(1, bound + 1):
        eq_posts[n] = _budget_after_exact(agent, n, cost, bound)
    out: dict[Atom, Formula] = {}
    for n in range(bound + 1):
        out[AttEq(agent, n)] = eq_posts[n]
    out[AttLess(agent, 0)] = bot()
    for n in range(1, bound + 1):
        out[AttLess(agent, n)] = or_all([eq_posts[j] for j in range(n)])
    return out
