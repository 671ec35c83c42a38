"""Epistemic language with attention atoms: AST, parser, printer, tableau.

The core connectives are truth, propositional atoms, per-agent attention
atoms ``(att_i = n)`` / ``(att_i < n)``, negation, conjunction, and the
knowledge modality ``K_i``.  Everything else (``F``, ``|``, ``->``, ``<->``,
``>=``, ``>``) is sugar that normalizes to the core at construction, so two
formulas are equal iff their core ASTs are equal.

Every node stores its hash when it is built, taken over its kind name and
fields, a child contributing its own stored hash; its ``__init__`` writes
fields and hash straight into the instance dict, past the frozen
``__setattr__``.  Hashing costs the same at any depth, and sets and dicts
key formulas by value.  Equality stays structural: the one ``__eq__``
tries identity, then the stored hashes, then walks both formulas on an
explicit stack, so it compares formulas of any depth; no code tests ``is``
on a formula.  A ``str`` hashes differently in each process, so a pickle
or copy rebuilds each node through its constructor and never carries a
stored hash over.  Each attention atom
has one shared object: the package builds ``AttEq`` and ``AttLess`` only
through the cached constructors ``att_eq`` and ``att_lt``, which a copy
goes back to.  The tables keep one atom per agent and value asked for.

``subformulas``, the fold ``_fold`` (``format_formula``, ``modal_depth``,
the loader's hash-consing ``_intern``) and the tableau walk on explicit
stacks, so they read a formula of any depth; the parser and the evaluators
recurse.

Validity and entailment are decided by a signed tableau (Smullyan's signed
formulas) over equivalence-class ("clique") relations.  Each obligation
asks that a formula node be true or false at a world, so the tableau reads
the formula as it is, with no normal form: a negation flips the sign, a
true conjunction adds both sides and a false one is the only split, a true
``K_i`` is a box and a false one a diamond.  Each agent's accessibility
within a branch is a partition of the branch's worlds grown by diamond
witnesses, and each (agent, clique) pair carries its candidate attention
values, an interval less excluded values, narrowed by attention literals,
which makes attention introspection come out valid without extra rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import FormulaSyntaxError, FormulaValidationError

_T = TypeVar("_T")

# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Signature:
    """Agents, a common attention bound, and the propositional atoms."""

    agents: tuple[str, ...]
    attention_bound: int
    prop_atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("signature needs at least one agent")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("agent names must be unique")
        if len(set(self.prop_atoms)) != len(self.prop_atoms):
            raise ValueError("atom names must be unique")
        if self.attention_bound < 0:
            raise ValueError("attention bound must be >= 0")
        ident = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
        for name in self.agents + self.prop_atoms:
            if not ident.match(name):
                raise ValueError(f"{name!r} is not a valid identifier")
        for atom in self.prop_atoms:
            if atom in ("T", "F") or atom.startswith(("att_", "K_")):
                raise ValueError(f"atom name {atom!r} collides with reserved syntax")

    def attention_atoms(self) -> tuple["Formula", ...]:
        """Every attention atom expressible within the bound, in a fixed order."""
        out: list[Formula] = []
        for agent in self.agents:
            for n in range(self.attention_bound + 1):
                out.append(att_eq(agent, n))
            for n in range(self.attention_bound + 1):
                out.append(att_lt(agent, n))
        return tuple(out)


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # In the class's own dict, so ``dataclass`` keeps them.
        cls.__hash__ = Formula.__hash__
        cls.__eq__ = Formula.__eq__

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Per pair of nodes: identity, then kind and stored hash, then the
        fields.  The walk follows one child in place and stacks the other."""
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        stack = []  # right-hand pairs still to compare
        f, g = self, other
        while True:
            if f is not g:
                kind = type(f)
                if kind is not type(g) or f._hash != g._hash:
                    return False
                if kind is And:
                    stack.append((f.right, g.right))
                    f, g = f.left, g.left
                    continue
                if kind is Not or kind is Know:
                    if kind is Know and f.agent != g.agent:
                        return False
                    f, g = f.sub, g.sub
                    continue
                if kind is PropAtom:
                    if f.name != g.name:
                        return False
                elif kind is not Top and (f.agent != g.agent or f.bound != g.bound):
                    return False
            if not stack:
                return True
            f, g = stack.pop()

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Top(Formula):
    def __init__(self) -> None:
        vars(self).update(_hash=hash(("Top",)))


@dataclass(frozen=True)
class PropAtom(Formula):
    name: str

    def __init__(self, name: str) -> None:
        vars(self).update(name=name, _hash=hash(("PropAtom", name)))


@dataclass(frozen=True)
class AttEq(Formula):
    """``(att_agent = bound)`` — the agent's attention is exactly ``bound``."""

    agent: str
    bound: int

    def __init__(self, agent: str, bound: int) -> None:
        vars(self).update(agent=agent, bound=bound, _hash=hash(("AttEq", agent, bound)))

    def __reduce__(self) -> tuple:
        return att_eq, (self.agent, self.bound)


@dataclass(frozen=True)
class AttLess(Formula):
    """``(att_agent < bound)`` — the agent's attention is below ``bound``."""

    agent: str
    bound: int

    def __init__(self, agent: str, bound: int) -> None:
        vars(self).update(agent=agent, bound=bound, _hash=hash(("AttLess", agent, bound)))

    def __reduce__(self) -> tuple:
        return att_lt, (self.agent, self.bound)


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula

    def __init__(self, sub: Formula) -> None:
        vars(self).update(sub=sub, _hash=hash(("Not", sub)))


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        vars(self).update(left=left, right=right, _hash=hash(("And", left, right)))


@dataclass(frozen=True)
class Know(Formula):
    agent: str
    sub: Formula

    def __init__(self, agent: str, sub: Formula) -> None:
        vars(self).update(agent=agent, sub=sub, _hash=hash(("Know", agent, sub)))


TOP = Top()
_BOT = Not(TOP)


def bot() -> Formula:
    """``~T``, the one shared node for it, as ``TOP`` is for ``T``."""
    return _BOT


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


@cache
def att_eq(agent: str, bound: int) -> AttEq:
    """``(att_agent = bound)``, the one shared object for it."""
    return AttEq(agent, bound)


@cache
def att_lt(agent: str, bound: int) -> AttLess:
    """``(att_agent < bound)``, the one shared object for it."""
    return AttLess(agent, bound)


def att_geq(agent: str, bound: int) -> Formula:
    """``(att_agent >= bound)`` as negated strict inequality."""
    return Not(att_lt(agent, bound))


def att_gt(agent: str, bound: int) -> Formula:
    """``(att_agent > bound)``: neither below nor equal."""
    return And(Not(att_lt(agent, bound)), Not(att_eq(agent, bound)))


def and_all(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty yields truth."""
    result: Formula | None = None
    for part in parts:
        result = part if result is None else And(result, part)
    return TOP if result is None else result


def or_all(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty yields falsity."""
    result: Formula | None = None
    for part in parts:
        result = part if result is None else or_(result, part)
    return bot() if result is None else result


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of ``f``, pre-order, on an explicit stack (no recursion)."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, And):
            stack += (f.right, f.left)
        elif isinstance(f, (Not, Know)):
            stack.append(f.sub)


def _fold(f: Formula, node: Callable[[Formula, list[_T]], _T]) -> _T:
    """``node(g, values)`` for each node ``g`` of ``f``, children first, where
    ``values`` holds what ``node`` gave ``g``'s children, in order.  On an
    explicit stack (no recursion), each distinct node, by identity, once."""
    done: dict[int, _T] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        if isinstance(g, And):
            kids: tuple[Formula, ...] = (g.left, g.right)
        else:
            kids = (g.sub,) if isinstance(g, (Not, Know)) else ()
        todo = [k for k in kids if id(k) not in done]
        if todo:
            stack += reversed(todo)
        else:
            stack.pop()
            done[id(g)] = node(g, [done[id(k)] for k in kids])
    return done[id(f)]


def _depth(g: Formula, kids: list[int]) -> int:
    if isinstance(g, Know):
        return 1 + kids[0]
    if isinstance(g, (Not, And)):
        return max(kids)
    if isinstance(g, (Top, PropAtom, AttEq, AttLess)):
        return 0
    raise ValueError(f"not a formula node: {g!r}")


def modal_depth(f: Formula) -> int:
    """Maximum nesting of knowledge modalities."""
    return _fold(f, _depth)


def _intern(f: Formula, nodes: dict[Formula, Formula]) -> Formula:
    """``f`` built from ``nodes``' one node per distinct subformula, adding new
    ones (hash-consing): each node is rebuilt on its interned children and
    looked up by value, which its stored hash makes one dict probe and its
    children's identity one level of ``__eq__``."""

    def node(g: Formula, kids: list[Formula]) -> Formula:
        if kids:
            g = Know(g.agent, *kids) if isinstance(g, Know) else type(g)(*kids)
        return nodes.setdefault(g, g)

    return _fold(f, node)


def validate_formula(sig: Signature, f: Formula) -> None:
    """Raise FormulaValidationError if ``f`` does not fit ``sig``."""
    for sub in subformulas(f):
        if isinstance(sub, PropAtom):
            if sub.name not in sig.prop_atoms:
                raise FormulaValidationError(f"unknown atom {sub.name!r}")
        elif isinstance(sub, (AttEq, AttLess)):
            if sub.agent not in sig.agents:
                raise FormulaValidationError(f"unknown agent {sub.agent!r}")
            if not 0 <= sub.bound <= sig.attention_bound:
                raise FormulaValidationError(
                    f"attention value {sub.bound} outside 0..{sig.attention_bound}"
                )
        elif isinstance(sub, Know):
            if sub.agent not in sig.agents:
                raise FormulaValidationError(f"unknown agent {sub.agent!r}")
        elif not isinstance(sub, (Top, Not, And)):
            raise FormulaValidationError(f"not a formula node: {sub!r}")


# ---------------------------------------------------------------------------
# Printing


def _text(g: Formula, kids: list[str]) -> str:
    if isinstance(g, Top):
        return "T"
    if isinstance(g, PropAtom):
        return g.name
    if isinstance(g, AttEq):
        return f"(att_{g.agent} = {g.bound})"
    if isinstance(g, AttLess):
        return f"(att_{g.agent} < {g.bound})"
    if isinstance(g, Not):
        return "~" + kids[0]
    if isinstance(g, And):
        return f"({kids[0]} & {kids[1]})"
    if isinstance(g, Know):
        return f"K_{g.agent} {kids[0]}"
    raise ValueError(f"not a formula node: {g!r}")


def format_formula(f: Formula) -> str:
    """Render a core AST; parses back to the same AST."""
    return _fold(f, _text)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<geq>>=)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<neg>~)
  | (?P<conj>&)
  | (?P<disj>\|)
  | (?P<eq>=)
  | (?P<lt><)
  | (?P<gt>>)
  | (?P<nat>[0-9]+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar:

    formula := andor (('->' | '<->') formula)?
    andor   := unary (('&' | '|') unary)*
    unary   := '~' unary | 'K_<agent>' unary | primary
    primary := 'T' | 'F' | atom | '(' attention ')' | '(' formula ')'
    attention := 'att_<agent>' ('=' | '<' | '>' | '>=') nat
    """

    def __init__(self, sig: Signature, tokens: list[_Token]):
        self.sig = sig
        self.tokens = tokens
        self.i = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
        return f

    def formula(self) -> Formula:
        left = self.andor()
        tok = self.peek()
        if tok.kind == "imp":
            self.take()
            return implies(left, self.formula())
        if tok.kind == "iff":
            self.take()
            return iff(left, self.formula())
        return left

    def andor(self) -> Formula:
        left = self.unary()
        while self.peek().kind in ("conj", "disj"):
            op = self.take()
            right = self.unary()
            left = And(left, right) if op.kind == "conj" else or_(left, right)
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "neg":
            self.take()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text.startswith("K_") and len(tok.text) > 2:
            self.take()
            agent = tok.text[2:]
            if agent not in self.sig.agents:
                raise FormulaSyntaxError(f"unknown agent {agent!r}", tok.pos)
            return Know(agent, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok.kind == "ident":
            if tok.text == "T":
                return TOP
            if tok.text == "F":
                return bot()
            if tok.text not in self.sig.prop_atoms:
                raise FormulaSyntaxError(f"unknown atom {tok.text!r}", tok.pos)
            return PropAtom(tok.text)
        if tok.kind == "lpar":
            nxt = self.peek()
            if (
                nxt.kind == "ident"
                and nxt.text.startswith("att_")
                and self.peek(1).kind in ("eq", "lt", "gt", "geq")
            ):
                return self.attention_atom()
            f = self.formula()
            self.expect("rpar", "')'")
            return f
        raise FormulaSyntaxError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos
        )

    def attention_atom(self) -> Formula:
        ident = self.take()
        agent = ident.text[4:]
        if agent not in self.sig.agents:
            raise FormulaSyntaxError(f"unknown agent {agent!r}", ident.pos)
        op = self.take()
        nat = self.expect("nat", "a number")
        n = int(nat.text)
        if n > self.sig.attention_bound:
            raise FormulaSyntaxError(
                f"attention value {n} exceeds the bound {self.sig.attention_bound}",
                nat.pos,
            )
        self.expect("rpar", "')'")
        if op.kind == "eq":
            return att_eq(agent, n)
        if op.kind == "lt":
            return att_lt(agent, n)
        if op.kind == "gt":
            return att_gt(agent, n)
        if op.kind == "geq":
            return att_geq(agent, n)
        raise FormulaSyntaxError(f"expected =, <, > or >= after att_{agent}", op.pos)


def parse_formula(sig: Signature, text: str) -> Formula:
    """Parse ``text`` against ``sig``; sugar normalizes to the core AST.

    Input nested deeper than the interpreter's stack can descend raises
    FormulaSyntaxError at the token where the descent stopped.
    """
    parser = _Parser(sig, _tokenize(text))
    try:
        return parser.parse()
    except RecursionError:
        raise FormulaSyntaxError("nested too deeply to read", parser.peek().pos) from None


# ---------------------------------------------------------------------------
# Satisfiability: signed clique tableau

# An obligation ``(world, formula, holds)`` asks that ``formula`` be true
# (``holds``) or false at ``world``.


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
        self.boxes: dict[int, list[Formula]] = {}  # bodies that hold at every member
        self.att: dict[int, tuple[int, int, frozenset[int]]] = {}
        self.lits: dict[tuple[int, str], bool] = {}
        self.seen: set[tuple[int, Formula, bool]] = set()
        self.todo: list[tuple[int, Formula, bool]] = []
        self.splits: list[tuple[int, And]] = []  # conjunctions that fail

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

    def push(self, world: int, f: Formula, holds: bool) -> None:
        key = (world, f, holds)
        if key not in self.seen:
            self.seen.add(key)
            self.todo.append(key)


def _expand(branch: _Branch) -> bool:
    """Apply non-branching rules to a fixpoint; False when the branch closes."""
    while branch.todo:
        world, f, holds = branch.todo.pop()
        kind = type(f)
        if kind is Not:
            branch.push(world, f.sub, not holds)
        elif kind is And:
            if holds:
                branch.push(world, f.left, True)
                branch.push(world, f.right, True)
            else:
                branch.splits.append((world, f))
        elif kind is PropAtom:
            prior = branch.lits.get((world, f.name))
            if prior is not None and prior != holds:
                return False
            branch.lits[(world, f.name)] = holds
        elif kind is AttEq or kind is AttLess:
            cid = branch.clique_of(f.agent, world)
            # The clique's budget lies in [low, high] and outside excluded.
            low, high, excluded = branch.att.get(cid, (0, branch.bound, frozenset()))
            if kind is AttEq and holds:
                low, high = max(low, f.bound), min(high, f.bound)
            elif kind is AttEq:
                excluded |= {f.bound}
            elif holds:
                high = min(high, f.bound - 1)
            else:
                low = max(low, f.bound)
            branch.att[cid] = (low, high, excluded)
            if sum(low <= v <= high for v in excluded) > high - low:
                return False
        elif kind is Know and holds:  # a box: the body holds across the clique
            cid = branch.clique_of(f.agent, world)
            branch.boxes[cid].append(f.sub)
            for member in branch.members[cid]:
                branch.push(member, f.sub, True)
        elif kind is Know:  # a diamond: the body fails at some member
            cid = branch.clique_of(f.agent, world)
            if any((member, f.sub, False) in branch.seen for member in branch.members[cid]):
                continue
            fresh = branch.next_world
            branch.next_world += 1
            branch.clique[(f.agent, fresh)] = cid
            branch.members[cid].append(fresh)
            branch.push(fresh, f.sub, False)
            for body in branch.boxes[cid]:
                branch.push(fresh, body, True)
        elif kind is Top:
            if not holds:
                return False
        else:
            raise ValueError(f"not a formula node: {f!r}")
    return True


def _satisfiable(bound: int, f: Formula, holds: bool) -> bool:
    """Whether some model with budgets up to ``bound`` makes ``f`` true
    (``holds``) or false at a world.  Depth first on an explicit stack of
    (branch, pending disjunct) entries: a branch is cloned when an entry is
    popped, and a failing conjunction's left side is tried first."""
    root = _Branch(bound)
    root.push(0, f, holds)
    stack: list[tuple[_Branch, tuple[int, Formula] | None]] = [(root, None)]
    while stack:
        branch, pending = stack.pop()
        if pending is not None:
            branch = branch.clone()
            branch.push(*pending, False)
        if not _expand(branch):
            continue
        if not branch.splits:
            return True
        world, conjunction = branch.splits.pop()
        stack.append((branch, (world, conjunction.right)))
        stack.append((branch, (world, conjunction.left)))
    return False


def is_satisfiable(sig: Signature, f: Formula) -> bool:
    """Whether some pointed model over ``sig`` makes ``f`` true."""
    validate_formula(sig, f)
    return _satisfiable(sig.attention_bound, f, True)


def is_valid(sig: Signature, f: Formula) -> bool:
    """Whether ``f`` holds at every world of every model over ``sig``."""
    validate_formula(sig, f)
    return not _satisfiable(sig.attention_bound, f, False)


def entails(sig: Signature, f: Formula, g: Formula) -> bool:
    """Whether ``f -> g`` is valid over ``sig``."""
    return is_valid(sig, implies(f, g))


def _entails(sig: Signature, f: Formula, g: Formula) -> bool:
    """``entails`` for formulas already validated against ``sig``."""
    return not _satisfiable(sig.attention_bound, implies(f, g), False)
