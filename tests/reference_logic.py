"""Reference version of the formula walk in ``attnplan.logic``.

This is the earlier implementation of ``subformulas``: a recursive
generator yielding every node in pre-order, left before right.  It raises
RecursionError on formulas nested deeper than the interpreter's recursion
limit.  The differential test compares the library's explicit-stack walk
against it; nothing in the package imports this module.
"""

from __future__ import annotations

from typing import Iterator

from attnplan.logic import And, Formula, Know, Not


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, And):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Know):
        yield from subformulas(f.sub)
