"""Naive reference versions of the branch-relation code in ``attnplan``.

These are the original all-pairs implementations: the survivor loop and
partition of ``attention_update``, the per-bit relation loop of
``to_post`` and the transitivity test behind ``validate_action`` and
relaxed ``is_nfl``.  They evaluate preconditions world by world with
``_eval`` and test relatedness by scanning blocks.  The differential
suite compares the library's grouped, extension-set versions against
them; nothing in the package imports this module.
"""

from __future__ import annotations

from attnplan.actions import AttentionAction, AttentionActionModel, _pair_name
from attnplan.errors import IllFormedResult, NotApplicable
from attnplan.logic import entails
from attnplan.models import AttentionState, Partition, _eval


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
        agent: {e: model.cost_of(agent, x.questions[agent], e) for e in model.events}
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
