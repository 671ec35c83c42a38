"""Language core: signatures, ASTs, parsing/printing, and the prover."""

import copy
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import attnplan
from attnplan.errors import FormulaSyntaxError, FormulaValidationError
from attnplan.logic import (
    And,
    AttEq,
    AttLess,
    Know,
    Not,
    PropAtom,
    Signature,
    TOP,
    Top,
    and_all,
    att_eq,
    att_geq,
    att_gt,
    att_lt,
    bot,
    entails,
    format_formula,
    iff,
    implies,
    is_satisfiable,
    is_valid,
    modal_depth,
    or_,
    or_all,
    parse_formula,
    subformulas,
    validate_formula,
)
from attnplan.models import AttentionState, check

import reference_logic
from generators import SIG2, rand_formula

SIG = Signature(agents=("i",), attention_bound=3, prop_atoms=("p", "q"))
# One formula of each node kind, the inner ones over the others.
EVERY_KIND = (
    TOP,
    PropAtom("p"),
    att_eq("a", 1),
    att_lt("b", 2),
    Not(PropAtom("q")),
    And(PropAtom("p"), att_eq("a", 1)),
    Know("a", And(Not(att_lt("b", 2)), TOP)),
)


class TestSignature:
    def test_accepts_well_formed(self):
        sig = Signature(agents=("a", "b"), attention_bound=0, prop_atoms=("x1",))
        assert sig.attention_bound == 0

    def test_accepts_empty_atom_set(self):
        sig = Signature(agents=("a",), attention_bound=1, prop_atoms=())
        assert parse_formula(sig, "(att_a = 1)") == AttEq("a", 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(agents=(), attention_bound=1, prop_atoms=("p",)),
            dict(agents=("a", "a"), attention_bound=1, prop_atoms=("p",)),
            dict(agents=("a",), attention_bound=-1, prop_atoms=("p",)),
            dict(agents=("a",), attention_bound=1, prop_atoms=("p", "p")),
            dict(agents=("a",), attention_bound=1, prop_atoms=("T",)),
            dict(agents=("a",), attention_bound=1, prop_atoms=("att_a",)),
            dict(agents=("a",), attention_bound=1, prop_atoms=("K_a",)),
            dict(agents=("a",), attention_bound=1, prop_atoms=("9lives",)),
            dict(agents=("a-b",), attention_bound=1, prop_atoms=("p",)),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(ValueError):
            Signature(**kwargs)

    def test_attention_atoms_ordered_per_agent(self):
        atoms = SIG2.attention_atoms()
        expected = [AttEq("a", n) for n in range(3)]
        expected += [AttLess("a", n) for n in range(3)]
        expected += [AttEq("b", n) for n in range(3)]
        expected += [AttLess("b", n) for n in range(3)]
        assert list(atoms) == expected


class TestSharedAtoms:
    def test_one_object_per_atom_equal_to_a_direct_one(self):
        assert att_eq("i", 2) is att_eq("i", 2)
        assert att_lt("i", 2) is att_lt("i", 2)
        assert att_eq("i", 2) == AttEq("i", 2) and att_lt("i", 2) == AttLess("i", 2)
        assert hash(att_lt("i", 2)) == hash(AttLess("i", 2))
        assert att_eq("i", 2) != att_lt("i", 2)

    def test_parser_and_sugar_build_the_shared_objects(self):
        assert parse_formula(SIG, "(att_i = 2)") is att_eq("i", 2)
        assert parse_formula(SIG, "(att_i < 2)") is att_lt("i", 2)
        assert parse_formula(SIG, "(att_i >= 2)").sub is att_lt("i", 2)
        gt = parse_formula(SIG, "(att_i > 2)")
        assert gt.left.sub is att_lt("i", 2) and gt.right.sub is att_eq("i", 2)

    def test_falsity_is_one_node(self):
        assert bot() is bot() and bot() == Not(TOP) and bot().sub is TOP
        assert parse_formula(SIG, "F") is bot()
        assert format_formula(bot()) == "~T"

    def test_signature_lists_the_shared_objects(self):
        for atom in SIG2.attention_atoms():
            constructor = att_eq if isinstance(atom, AttEq) else att_lt
            assert atom is constructor(atom.agent, atom.bound)

    def test_the_two_kinds_hash_apart(self):
        for atom in SIG2.attention_atoms():
            assert hash(att_eq(atom.agent, atom.bound)) != hash(att_lt(atom.agent, atom.bound))

    def test_a_direct_or_rebuilt_atom_is_equal_and_hashes_alike(self):
        for atom in SIG2.attention_atoms():
            constructor = att_eq if isinstance(atom, AttEq) else att_lt
            direct = type(atom)(atom.agent, atom.bound)
            assert direct is not atom and direct == atom and hash(direct) == hash(atom)
            constructor.cache_clear()
            rebuilt = constructor(atom.agent, atom.bound)
            assert rebuilt is not atom and rebuilt == atom and hash(rebuilt) == hash(atom)
            assert {atom: 1}[rebuilt] == 1 and direct in {rebuilt}

    def test_pickle_and_deepcopy_give_the_shared_object(self):
        """A stored hash holds only in the process that computed it, so no
        copy carries one over: each rebuilds through the constructor."""
        for atom in SIG2.attention_atoms():
            shared = (att_eq if isinstance(atom, AttEq) else att_lt)(atom.agent, atom.bound)
            direct = type(atom)(atom.agent, atom.bound)
            for source in (shared, direct):
                assert pickle.loads(pickle.dumps(source)) is shared
                assert copy.deepcopy(source) is shared
            assert copy.deepcopy(Know("a", And(direct, PropAtom("p")))).sub.left is shared
        for f in EVERY_KIND:
            for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
                assert type(copied) is type(f) and copied == f
                assert hash(copied) == hash(f) and {f: "entry"}[copied] == "entry"

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_a_formula_pickled_in_another_process_finds_its_entry(self, seed):
        """Pickled under another string-hash seed, each node hashes as one
        built here, so a dict keyed by the original finds the loaded one."""
        src = str(Path(attnplan.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = (
            "import pickle, sys\n"
            "from attnplan.logic import And, AttEq, AttLess, Know, Not, PropAtom, Top\n"
            f"sys.stdout.buffer.write(pickle.dumps({EVERY_KIND!r}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        ).stdout
        table = {f: k for k, f in enumerate(EVERY_KIND)}
        for k, (loaded, f) in enumerate(zip(pickle.loads(out), EVERY_KIND)):
            assert loaded == f and hash(loaded) == hash(f) and table[loaded] == k


class TestParsing:
    @pytest.mark.parametrize(
        "text,ast",
        [
            ("T", TOP),
            ("p", PropAtom("p")),
            ("~p", Not(PropAtom("p"))),
            ("p & q", And(PropAtom("p"), PropAtom("q"))),
            ("K_i p", Know("i", PropAtom("p"))),
            ("~K_i ~p", Not(Know("i", Not(PropAtom("p"))))),
            ("(att_i = 2)", AttEq("i", 2)),
            ("(att_i < 3)", AttLess("i", 3)),
            ("(att_i >= 1)", att_geq("i", 1)),
            ("(att_i > 1)", att_gt("i", 1)),
            ("F", bot()),
            ("p | q", or_(PropAtom("p"), PropAtom("q"))),
            ("p -> q", implies(PropAtom("p"), PropAtom("q"))),
            ("p <-> q", iff(PropAtom("p"), PropAtom("q"))),
        ],
    )
    def test_surface_forms(self, text, ast):
        assert parse_formula(SIG, text) == ast

    def test_negation_binds_tighter_than_conjunction(self):
        assert parse_formula(SIG, "~p & q") == And(Not(PropAtom("p")), PropAtom("q"))

    def test_knowledge_binds_tighter_than_conjunction(self):
        assert parse_formula(SIG, "K_i p & q") == And(
            Know("i", PropAtom("p")), PropAtom("q")
        )

    def test_conjunction_associates_left(self):
        assert parse_formula(SIG, "p & q & p") == And(
            And(PropAtom("p"), PropAtom("q")), PropAtom("p")
        )

    def test_mixed_and_or_associate_left_at_one_level(self):
        assert parse_formula(SIG, "p & q | p") == or_(
            And(PropAtom("p"), PropAtom("q")), PropAtom("p")
        )

    def test_implication_associates_right(self):
        assert parse_formula(SIG, "p -> q -> p") == implies(
            PropAtom("p"), implies(PropAtom("q"), PropAtom("p"))
        )

    def test_implication_binds_looser_than_conjunction(self):
        assert parse_formula(SIG, "p & q -> p") == implies(
            And(PropAtom("p"), PropAtom("q")), PropAtom("p")
        )

    def test_parentheses_override(self):
        assert parse_formula(SIG, "p & (q | p)") == And(
            PropAtom("p"), or_(PropAtom("q"), PropAtom("p"))
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p &",
            "& p",
            "(p",
            "p)",
            "r",
            "K_z p",
            "(att_z = 1)",
            "(att_i = )",
            "(att_i 1)",
            "p q",
            "K_i",
            "~",
            "p # q",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(SIG, text)

    def test_rejects_attention_value_over_bound(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(SIG, "(att_i = 4)")
        assert "exceeds the bound 3" in str(info.value)
        assert info.value.position is not None

    def test_rejects_attention_comparison_over_bound(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(SIG, "(att_i < 4)")

    @pytest.mark.parametrize("text", ["~" * 2000 + "p", "(" * 2000 + "p" + ")" * 2000],
                             ids=["negations", "parentheses"])
    def test_rejects_nesting_too_deep_to_read(self, text):
        with pytest.raises(FormulaSyntaxError, match="nested too deeply to read") as info:
            parse_formula(SIG, text)
        assert 0 < info.value.position < len(text)

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(SIG, "p & r")
        assert info.value.position == 4

    def test_print_then_parse_round_trips(self):
        rng = random.Random(2024)
        for _ in range(300):
            f = rand_formula(rng, SIG2, max_modal_depth=3, max_size=12)
            assert parse_formula(SIG2, format_formula(f)) == f

    def test_format_attention_atoms_parenthesized(self):
        assert format_formula(AttEq("i", 2)) == "(att_i = 2)"
        assert format_formula(AttLess("i", 1)) == "(att_i < 1)"


class TestHelpers:
    def test_and_all_left_associates_and_defaults_to_truth(self):
        p, q = PropAtom("p"), PropAtom("q")
        assert and_all([]) == TOP
        assert and_all([p]) == p
        assert and_all([p, q, p]) == And(And(p, q), p)

    def test_or_all_defaults_to_falsity(self):
        p = PropAtom("p")
        assert or_all([]) == bot()
        assert or_all([p]) == p

    def test_subformulas_counts_nodes(self):
        f = And(PropAtom("p"), Not(PropAtom("p")))
        subs = set(subformulas(f))
        assert PropAtom("p") in subs and f in subs

    def test_subformulas_match_the_recursive_walk(self):
        rng = random.Random(41)
        for sig in (SIG, SIG2):
            for _ in range(300):
                f = rand_formula(rng, sig, max_modal_depth=3, max_size=25)
                assert [id(g) for g in subformulas(f)] == [
                    id(g) for g in reference_logic.subformulas(f)
                ]

    def test_deep_disjunction_validates(self):
        """A 400-way ``or_all`` nests about 1,200 nodes deep, past the
        recursion limit of a recursive walk: it validates, prints, has a
        modal depth and parses back.  The parser recurses, so the printed
        text parses back under a raised limit; the flat surface text
        ``p | p | ...`` needs none."""
        f = or_all([PropAtom("p")] * 400)
        validate_formula(SIG, f)
        assert hash(f) == hash(or_all([PropAtom("p")] * 400)) and f in {f}
        assert sum(1 for _ in subformulas(f)) == 5 * 400 - 4
        with pytest.raises(FormulaValidationError, match="unknown atom 'zz'"):
            validate_formula(SIG, or_all([PropAtom("p")] * 399 + [PropAtom("zz")]))
        text = format_formula(f)
        assert text.startswith("~(~~(~~(") and text.endswith(" & ~p)")
        assert modal_depth(f) == 0
        assert modal_depth(Know("i", f)) == 1
        assert format_formula(parse_formula(SIG, " | ".join(["p"] * 400))) == text
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert format_formula(parse_formula(SIG, text)) == text
        finally:
            sys.setrecursionlimit(limit)

    def test_deep_formulas_compare_by_value(self):
        """Equality walks on an explicit stack.  Two 400-way ``or_all`` built
        apart are equal and find each other in a dict.  Two 2,000-deep
        chains whose stored hashes agree (CPython hashes -1 and -2 alike, so
        atoms bounded -1 and -2 do too) differ at their deepest leaf only,
        and equality walks down to it."""
        f, g = or_all([PropAtom("p")] * 400), or_all([PropAtom("p")] * 400)
        assert f is not g and f == g and not f != g
        assert {f: "entry"}[g] == "entry"

        def chain(leaf):
            for k in range(2000):
                leaf = Know("i", Not(leaf) if k % 2 else leaf)
            return leaf

        left, right = chain(AttEq("i", -1)), chain(AttEq("i", -2))
        assert hash(left) == hash(right)
        assert left != right and not left == right
        assert right not in {left: "entry"} and left not in {right}
        assert chain(AttEq("i", -1)) == left and {left: "entry"}[chain(AttEq("i", -1))]

    def test_deep_knowledge_prints_and_measures(self):
        f = PropAtom("p")
        for k in range(2000):
            f = Know("i", Not(f) if k % 2 else f)
        assert modal_depth(f) == 2000
        assert format_formula(f) == "K_i ~K_i " * 1000 + "p"
        assert hash(f) != hash(f.sub) and {f: 1}[f] == 1

    def test_modal_depth(self):
        p = PropAtom("p")
        assert modal_depth(p) == 0
        assert modal_depth(Know("a", Know("b", p))) == 2
        assert modal_depth(And(Know("a", p), p)) == 1

    def test_validate_formula_flags_unknown_names(self):
        with pytest.raises(FormulaValidationError):
            validate_formula(SIG, PropAtom("zz"))
        with pytest.raises(FormulaValidationError):
            validate_formula(SIG, Know("zz", TOP))
        with pytest.raises(FormulaValidationError):
            validate_formula(SIG, AttEq("i", 99))
        validate_formula(SIG, Know("i", AttEq("i", 3)))


class TestProver:
    def test_propositional_basics(self):
        p, q = PropAtom("p"), PropAtom("q")
        assert is_valid(SIG2, or_(p, Not(p)))
        assert not is_satisfiable(SIG2, And(p, Not(p)))
        assert is_satisfiable(SIG2, And(p, Not(q)))
        assert entails(SIG2, And(p, q), p)
        assert not entails(SIG2, p, q)

    def test_knowledge_axioms(self):
        p = PropAtom("p")
        assert is_valid(SIG2, implies(Know("a", p), p))
        assert is_valid(SIG2, implies(Know("a", p), Know("a", Know("a", p))))
        assert is_valid(
            SIG2, implies(Not(Know("a", p)), Know("a", Not(Know("a", p))))
        )
        assert is_valid(
            SIG2,
            implies(
                And(Know("a", implies(p, PropAtom("q"))), Know("a", p)),
                Know("a", PropAtom("q")),
            ),
        )
        assert not is_valid(SIG2, implies(p, Know("a", p)))
        assert not is_valid(SIG2, implies(Know("a", p), Know("b", p)))

    def test_budget_atoms_partition_the_range(self):
        assert is_valid(SIG2, or_all([AttEq("a", n) for n in range(3)]))
        assert is_valid(SIG2, Not(And(AttEq("a", 0), AttEq("a", 1))))
        assert not is_satisfiable(SIG2, And(AttLess("a", 1), AttEq("a", 1)))
        assert is_satisfiable(SIG2, And(AttLess("a", 2), AttEq("a", 1)))
        assert is_valid(SIG2, Not(AttLess("a", 0)))

    def test_budget_atoms_are_introspective(self):
        assert is_valid(SIG2, implies(AttEq("a", 1), Know("a", AttEq("a", 1))))
        assert is_valid(SIG2, implies(AttLess("a", 2), Know("a", AttLess("a", 2))))
        assert not is_valid(SIG2, implies(AttEq("a", 1), Know("b", AttEq("a", 1))))

    def test_budget_comparisons_cohere(self):
        assert is_valid(SIG2, implies(AttEq("a", 0), AttLess("a", 1)))
        assert is_valid(SIG2, implies(AttEq("a", 2), Not(AttLess("a", 2))))
        assert entails(SIG2, att_gt("a", 0), att_geq("a", 1))

    def test_nested_modalities(self):
        p = PropAtom("p")
        f = Know("a", or_(Know("b", p), Not(Know("b", p))))
        assert is_valid(SIG2, f)
        assert is_satisfiable(SIG2, And(Know("a", p), Not(Know("b", p))))

    @pytest.mark.parametrize("bound", [0, 1, 4])
    def test_budget_atoms_match_a_scan_of_the_budgets(self, bound):
        """Boolean combinations of one agent's attention atoms are satisfiable
        exactly when some budget from 0 to the bound makes them true."""
        sig = Signature(agents=("i",), attention_bound=bound, prop_atoms=("p",))
        rng = random.Random(920 + bound)

        def rand_budget_formula(size: int):
            if size <= 1:
                return rng.choice((att_eq, att_lt))("i", rng.randint(0, bound))
            left = rng.randint(1, size - 1)
            parts = rand_budget_formula(left), rand_budget_formula(size - left)
            return rng.choice((And, or_))(*parts) if rng.random() < 0.7 else Not(parts[0])

        def at_budget(budget: int) -> AttentionState:
            return AttentionState(
                sig=sig,
                worlds=("w",),
                partitions={"i": (frozenset({"w"}),)},
                valuation={"w": frozenset()},
                attention={"i": {"w": budget}},
                actual="w",
            )

        states = [at_budget(v) for v in range(bound + 1)]
        answers = []
        for _ in range(300):
            f = rand_budget_formula(rng.randint(1, 6))
            answers.append(is_satisfiable(sig, f))
            assert answers[-1] == any(check(s, f) for s in states)
        assert answers.count(True) >= 60 and answers.count(False) >= 30

    def test_agrees_with_the_reference_tableau(self):
        """The signed tableau gives the earlier normal-form tableau's answers
        on seeded formulas with knowledge and attention atoms over two
        agents at bounds 0 to 3, and each verdict occurs often."""
        rng = random.Random(4217)
        verdicts = Counter()
        modal_and_attention = 0
        for k in range(1200):
            sig = Signature(agents=("a", "b"), attention_bound=k % 4, prop_atoms=("p", "q"))
            f = rand_formula(rng, sig, max_modal_depth=2, max_size=rng.randint(3, 14))
            satisfiable, valid = is_satisfiable(sig, f), is_valid(sig, f)
            expected = reference_logic.is_satisfiable(sig, f), reference_logic.is_valid(sig, f)
            assert (satisfiable, valid) == expected, format_formula(f)
            verdicts["valid" if valid else "satisfiable" if satisfiable else "unsatisfiable"] += 1
            kinds = {type(g) for g in subformulas(f)}
            modal_and_attention += Know in kinds and bool(kinds & {AttEq, AttLess})
        assert min(verdicts[v] for v in ("valid", "satisfiable", "unsatisfiable")) >= 50
        assert modal_and_attention >= 200

    def test_deep_formulas_are_decided(self):
        """The tableau reads a formula under a sign on explicit stacks, so a
        2,000-way disjunction (about 6,000 nodes deep) and a 2,000-way
        conjunction, negated or not, are decided."""
        p = PropAtom("p")
        assert is_valid(SIG, or_all([p, Not(p)] * 1000))
        assert not is_valid(SIG, or_all([p] * 2000))
        assert is_satisfiable(SIG, Not(and_all([p, Not(p)] * 1000)))
        assert not is_satisfiable(SIG, and_all([p, Not(p)] * 1000))
        assert entails(SIG, and_all([p] * 2000), or_all([PropAtom("q"), p] * 1000))

    def test_cost_does_not_grow_with_the_bound(self):
        """A clique's budget is kept as an interval less some excluded
        values, never as the set of values left, so a bound of a million
        costs the prover no more memory than a bound of three."""
        bound = 10**6
        sig = Signature(agents=("i",), attention_bound=bound, prop_atoms=("p",))
        tracemalloc.start()
        try:
            assert is_valid(sig, implies(att_lt("i", 12), Not(att_eq("i", 12))))
            assert is_satisfiable(sig, att_eq("i", bound))
            assert not is_satisfiable(sig, att_gt("i", bound))
            assert not is_satisfiable(sig, att_lt("i", 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
