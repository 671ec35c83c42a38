"""Reference versions of the formula walk and the prover in ``attnplan.logic``.

``subformulas`` is the earlier implementation of the library's walk: a
recursive generator yielding every node in pre-order, left before right.

The prover below is the earlier tableau, kept as it was: it first copies a
formula into a private tuple AST in negation normal form (``_to_nnf``, which
recurses once per level), then searches the clique tableau's splits by
recursion (``_satisfiable_branch``) and memoises each answer.  Both raise
RecursionError on formulas nested deeper than the interpreter's recursion
limit.  The differential tests compare the library's explicit-stack walk and
its signed-formula tableau against these; nothing in the package imports
this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Formula,
    Know,
    Not,
    PropAtom,
    Signature,
    Top,
    implies,
    validate_formula,
)


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, And):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Know):
        yield from subformulas(f.sub)


# ---------------------------------------------------------------------------
# Satisfiability: negation normal form

# NNF nodes are plain tuples so they hash cheaply:
#   ("top",) ("bot",) ("lit", name, polarity)
#   ("atteq", agent, n, polarity) ("attless", agent, n, polarity)
#   ("and", a, b) ("or", a, b) ("box", agent, a) ("dia", agent, a)

_Nnf = tuple


def _to_nnf(f: Formula, positive: bool) -> _Nnf:
    if isinstance(f, Top):
        return ("top",) if positive else ("bot",)
    if isinstance(f, PropAtom):
        return ("lit", f.name, positive)
    if isinstance(f, AttEq):
        return ("atteq", f.agent, f.bound, positive)
    if isinstance(f, AttLess):
        return ("attless", f.agent, f.bound, positive)
    if isinstance(f, Not):
        return _to_nnf(f.sub, not positive)
    if isinstance(f, And):
        left = _to_nnf(f.left, positive)
        right = _to_nnf(f.right, positive)
        return ("and" if positive else "or", left, right)
    if isinstance(f, Know):
        return ("box" if positive else "dia", f.agent, _to_nnf(f.sub, positive))
    raise ValueError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Satisfiability: clique tableau


class _Branch:
    """One tableau branch: worlds, per-agent cliques, pending obligations."""

    __slots__ = (
        "bound", "next_world", "next_clique", "clique", "members",
        "boxes", "att", "lits", "seen", "todo", "splits",
    )

    def __init__(self, bound: int):
        self.bound = bound
        self.next_world = 1
        self.next_clique = 0
        self.clique: dict[tuple[str, int], int] = {}
        self.members: dict[int, list[int]] = {}
        self.boxes: dict[int, list[_Nnf]] = {}
        self.att: dict[int, tuple[int, int, frozenset[int]]] = {}
        self.lits: dict[tuple[int, str], bool] = {}
        self.seen: set[tuple[int, _Nnf]] = set()
        self.todo: list[tuple[int, _Nnf]] = []
        self.splits: list[tuple[int, _Nnf]] = []

    def clone(self) -> "_Branch":
        other = _Branch.__new__(_Branch)
        other.bound = self.bound
        other.next_world = self.next_world
        other.next_clique = self.next_clique
        other.clique = dict(self.clique)
        other.members = {k: list(v) for k, v in self.members.items()}
        other.boxes = {k: list(v) for k, v in self.boxes.items()}
        other.att = dict(self.att)
        other.lits = dict(self.lits)
        other.seen = set(self.seen)
        other.todo = list(self.todo)
        other.splits = list(self.splits)
        return other

    def clique_of(self, agent: str, world: int) -> int:
        cid = self.clique.get((agent, world))
        if cid is None:
            cid = self.next_clique
            self.next_clique += 1
            self.clique[(agent, world)] = cid
            self.members[cid] = [world]
            self.boxes[cid] = []
        return cid

    def push(self, world: int, node: _Nnf) -> None:
        key = (world, node)
        if key not in self.seen:
            self.seen.add(key)
            self.todo.append(key)


def _expand(branch: _Branch) -> bool:
    """Apply non-branching rules to a fixpoint; False when the branch closes."""
    while branch.todo:
        world, node = branch.todo.pop()
        kind = node[0]
        if kind == "top":
            continue
        if kind == "bot":
            return False
        if kind == "lit":
            _, name, polarity = node
            prior = branch.lits.get((world, name))
            if prior is not None and prior != polarity:
                return False
            branch.lits[(world, name)] = polarity
        elif kind in ("atteq", "attless"):
            _, agent, n, polarity = node
            cid = branch.clique_of(agent, world)
            # The clique's budget lies in [low, high] and outside excluded.
            low, high, excluded = branch.att.get(cid, (0, branch.bound, frozenset()))
            if kind == "atteq" and polarity:
                low, high = max(low, n), min(high, n)
            elif kind == "atteq":
                excluded |= {n}
            elif polarity:
                high = min(high, n - 1)
            else:
                low = max(low, n)
            branch.att[cid] = (low, high, excluded)
            if sum(low <= v <= high for v in excluded) > high - low:
                return False
        elif kind == "and":
            branch.push(world, node[1])
            branch.push(world, node[2])
        elif kind == "or":
            branch.splits.append((world, node))
        elif kind == "box":
            _, agent, body = node
            cid = branch.clique_of(agent, world)
            branch.boxes[cid].append(body)
            for member in branch.members[cid]:
                branch.push(member, body)
        elif kind == "dia":
            _, agent, body = node
            cid = branch.clique_of(agent, world)
            if any((member, body) in branch.seen for member in branch.members[cid]):
                continue
            fresh = branch.next_world
            branch.next_world += 1
            branch.clique[(agent, fresh)] = cid
            branch.members[cid].append(fresh)
            branch.push(fresh, body)
            for body_box in branch.boxes[cid]:
                branch.push(fresh, body_box)
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    return True


def _satisfiable_branch(branch: _Branch) -> bool:
    if not _expand(branch):
        return False
    if not branch.splits:
        return True
    world, node = branch.splits.pop()
    for alternative in (node[1], node[2]):
        candidate = branch.clone()
        candidate.push(world, alternative)
        if _satisfiable_branch(candidate):
            return True
    return False


@lru_cache(maxsize=65536)
def _satisfiable(bound: int, node: _Nnf) -> bool:
    branch = _Branch(bound)
    branch.push(0, node)
    return _satisfiable_branch(branch)


def is_satisfiable(sig: Signature, f: Formula) -> bool:
    """Whether some pointed model over ``sig`` makes ``f`` true."""
    validate_formula(sig, f)
    return _satisfiable(sig.attention_bound, _to_nnf(f, True))


def is_valid(sig: Signature, f: Formula) -> bool:
    """Whether ``f`` holds at every world of every model over ``sig``."""
    validate_formula(sig, f)
    return not _satisfiable(sig.attention_bound, _to_nnf(f, False))


def entails(sig: Signature, f: Formula, g: Formula) -> bool:
    """Whether ``f -> g`` is valid over ``sig``."""
    return is_valid(sig, implies(f, g))
