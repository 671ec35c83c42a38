"""Reference versions of two pieces of ``attnplan.models``.

``normalize_partition`` is the earlier implementation of
``_normalize_partition``: a stable sort of the blocks by the least index in
``items`` of any of their members, with blocks that have no member there
last.  ``kripke_rendition`` is the earlier rendition, world by world and
atom by atom, each attention atom a fresh object rather than the shared one
the library's per-budget sets hold.  The differential tests compare the
library against them; nothing in the package imports this module.
"""

from __future__ import annotations

from typing import Iterable

from attnplan.logic import AttEq, AttLess
from attnplan.models import AttentionState, EpistemicState


def normalize_partition(
    items: tuple[str, ...], blocks: Iterable[Iterable[str]]
) -> tuple[frozenset[str], ...]:
    index = {item: k for k, item in enumerate(items)}
    ordered = sorted(
        (frozenset(b) for b in blocks),
        key=lambda b: min((index.get(m, len(items)) for m in b), default=len(items)),
    )
    return tuple(ordered)


def kripke_rendition(s: AttentionState) -> EpistemicState:
    """``(att_i = n)`` for each agent's budget n at a world and ``(att_i <
    m)`` for every m above it up to the bound, added to the world's atoms."""
    valuation = {}
    for world in s.worlds:
        atoms = set(s.valuation[world])
        for agent in s.sig.agents:
            budget = s.attention[agent][world]
            atoms.add(AttEq(agent, budget))
            for m in range(budget + 1, s.sig.attention_bound + 1):
                atoms.add(AttLess(agent, m))
        valuation[world] = frozenset(atoms)
    return EpistemicState(
        sig=s.sig,
        worlds=s.worlds,
        partitions=s.partitions,
        valuation=valuation,
        actual=s.actual,
    )
