"""Reference version of the block ordering in ``attnplan.models``.

This is the earlier implementation of ``_normalize_partition``: a stable
sort of the blocks by the least index in ``items`` of any of their members,
with blocks that have no member there last.  The differential test compares
the library's one-pass ordering against it; nothing in the package imports
this module.
"""

from __future__ import annotations

from typing import Iterable


def normalize_partition(
    items: tuple[str, ...], blocks: Iterable[Iterable[str]]
) -> tuple[frozenset[str], ...]:
    index = {item: k for k, item in enumerate(items)}
    ordered = sorted(
        (frozenset(b) for b in blocks),
        key=lambda b: min((index.get(m, len(items)) for m in b), default=len(items)),
    )
    return tuple(ordered)
