"""Every name a package module imports is used in that module, every
import sits at module level, and every module-level private function or
class, and every private method of a module-level class, is used somewhere
in the package.  The trusted constructor ``AttentionState._normal``, which
skips normalization, is named only by the functions that build their parts
in normal form, ``validate_formula`` only by the entry points that
validate formulas, and a cost table's ``entries`` only by the model's price
index and the code that checks, copies or writes the table.  The loader
calls ``validate_action`` once per model and nowhere else.  Only the
interning constructors ``att_eq`` and ``att_lt`` call ``AttEq`` and
``AttLess``, so every attention atom the package builds is the shared one.
Only the parser and the loader's JSON read catch ``RecursionError``, so no
code papers over a walk that should run on an explicit stack.
Only ``_quotient``, after its path for discrete states, and
``_separation``, which ``_compare`` reaches after matching discrete states
by colour, name the refinement loop ``_refine``.
Only ``applicable`` reads the value of an action's gate ``_actual_pre``;
every other site passes the gate as a marked bare statement.  The only
functions that call themselves are the listed recursive walkers, so no new
walker overflows the stack on a deep formula.
The reference modules under ``tests/`` import no private name of the
package, apart from one listed exception.  No cached property hands out an
empty table for code outside its class to fill, so every cached property
is a function of its object's fields.

No linter ships with the project, so this walks each module's syntax tree
with ``ast``.  ``__init__.py`` is left out of the import check: its imports
are the package's public re-exports.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "attnplan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, loads)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module: Path):
    assert unused_imports(module.read_text()) == []


def imports_in_functions(source: str) -> list[str]:
    """``line n: module`` for each import inside a function body."""
    found = {
        node.lineno: getattr(node, "module", None) or node.names[0].name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}: {module}" for line, module in sorted(found.items())]


def test_the_check_finds_an_import_in_a_function():
    source = (
        "import os\n\n"
        "def f():\n    from .a import b\n\n    def g():\n        import json\n"
        "    return b, g\n"
    )
    assert imports_in_functions(source) == ["line 4: a", "line 7: json"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_at_top_level(module: Path):
    assert imports_in_functions(module.read_text()) == []


def referenced_names(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level private function or class that
    no other top-level statement of any of ``sources`` names, and
    ``module: Class.name`` for each private method (cached properties
    included) of a module-level class that neither another top-level
    statement nor another member of its class names."""
    statements = [
        (module, statement)
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    names = [referenced_names(statement) for _, statement in statements]
    statements_naming = Counter(name for used in names for name in used)
    out = []
    for k, (module, statement) in enumerate(statements):
        if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            continue

        def named_elsewhere(name: str) -> bool:
            return statements_naming[name] > (name in names[k])

        if is_private(statement.name) and not named_elsewhere(statement.name):
            out.append(f"{module}: {statement.name}")
        if not isinstance(statement, ast.ClassDef):
            continue
        for member in statement.body:
            if not isinstance(member, ast.FunctionDef) or not is_private(member.name):
                continue
            siblings = [m for m in statement.body if m is not member]
            if not named_elsewhere(member.name) and not any(
                member.name in referenced_names(m) for m in siblings
            ):
                out.append(f"{module}: {statement.name}.{member.name}")
    return out


def test_the_check_finds_an_unused_private_definition():
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _unused():\n    return _unused()\n",
        "b.py": "from .a import _used\n\nclass _Helper:\n    pass\n\nprint(_used())\n",
    }
    assert unused_private_definitions(sources) == ["a.py: _unused", "b.py: _Helper"]


def test_the_check_finds_an_unused_private_method():
    sources = {
        "a.py": (
            "class A:\n"
            "    def _used(self):\n        return self._unused_too\n\n"
            "    @cached_property\n"
            "    def _unused(self):\n        return self._unused\n\n"
            "    @property\n"
            "    def _unused_too(self):\n        return self._used()\n"
        ),
        "b.py": "from .a import A\n\nprint(A()._used)\n",
    }
    assert unused_private_definitions(sources) == ["a.py: A._unused"]


def test_package_uses_every_private_definition():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_definitions(sources) == []


# The functions whose parts come in normal form (see the ``models`` docstring).
TRUSTED_SITES = [
    "actions.py: attention_update",
    "actions.py: product_update",
    "models.py: AttentionState._read_off",
    "models.py: kripke_rendition",
    "taskfile.py: _state",
]


def called_names(node: ast.AST) -> set[str]:
    return {
        sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, (ast.Name, ast.Attribute))
    }


def sites(source: str) -> list[tuple[str, ast.AST]]:
    """Each module-level function as ``function``, each method as
    ``Class.method``, each other member of a class as ``Class.<body>`` and
    each other top-level statement as ``<module>``, with its node."""
    out: list[tuple[str, ast.AST]] = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.ClassDef):
            out.extend(
                (f"{statement.name}.{getattr(m, 'name', '<body>')}", m) for m in statement.body
            )
        elif isinstance(statement, ast.FunctionDef):
            out.append((statement.name, statement))
        else:
            out.append(("<module>", statement))
    return out


def naming_sites(sources: dict[str, str], name: str, names_in=referenced_names) -> list[str]:
    """``module: site`` (see ``sites``) for each site that names ``name``
    (or, with ``called_names``, calls it); defining it does not count."""
    out = [
        f"{module}: {label}"
        for module, source in sorted(sources.items())
        for label, node in sites(source)
        if name in names_in(node)
    ]
    return list(dict.fromkeys(out))


def test_the_check_finds_every_site_naming_a_name():
    sources = {
        "a.py": (
            "class S:\n"
            "    @classmethod\n    def _normal(cls):\n        return cls()\n\n"
            "    def other(self):\n        return S._normal()\n"
        ),
        "b.py": (
            "from .a import S\n\n"
            "def f():\n    def g():\n        return S._normal()\n    return g\n\n"
            "x = S._normal()\n"
        ),
    }
    assert naming_sites(sources, "_normal") == ["a.py: S.other", "b.py: f", "b.py: <module>"]


def test_the_check_finds_every_site_calling_a_name():
    sources = {
        "a.py": (
            "from .logic import AttEq, logic\n\n"
            "def f(x):\n    return isinstance(x, AttEq)\n\n"
            "def g():\n    return logic.AttEq('i', 0)\n\n"
            "atom = AttEq('i', 1)\n"
        ),
    }
    assert naming_sites(sources, "AttEq", called_names) == ["a.py: g", "a.py: <module>"]


def test_only_the_trusted_sites_skip_normalization():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert naming_sites(sources, "_normal") == TRUSTED_SITES


# The sites that run the refinement loop: ``_quotient`` for states that are
# not discrete, and ``_separation``, which ``_compare`` reaches unless two
# discrete states have equal block forms and ``distinguishing_formula`` for
# the rounds.  A new caller would skip the discrete paths.
REFINE_SITES = ["bisim.py: _separation", "bisim.py: _quotient"]


def test_the_check_finds_every_site_naming_refine():
    source = (
        "def _refine(table, *states):\n    return [[0]]\n\n"
        "def _separation(s1, s2):\n    return _refine({}, s1, s2)\n\n"
        "def contract(s):\n    return bisim._refine({}, s)[-1]\n\n"
        "def refiner():\n    return _refine\n"
    )
    assert naming_sites({"a.py": source}, "_refine") == [
        "a.py: _separation",
        "a.py: contract",
        "a.py: refiner",
    ]


def test_only_the_listed_sites_refine():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert naming_sites(sources, "_refine") == REFINE_SITES


# The interning constructors: every attention atom the package builds is
# the one shared object for it, so set and dict lookups meet it by identity.
INTERNING_SITES = {"AttEq": ["logic.py: att_eq"], "AttLess": ["logic.py: att_lt"]}


@pytest.mark.parametrize("kind", sorted(INTERNING_SITES))
def test_only_the_interning_constructors_build_attention_atoms(kind: str):
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert naming_sites(sources, kind, called_names) == INTERNING_SITES[kind]


# The loader checks each action model once, as its question-free action,
# and checks an action only for what it adds to its model.
VALIDATE_ACTION_SITES = ["taskfile.py: _model"]


def test_the_loader_checks_each_model_once():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert naming_sites(sources, "validate_action", called_names) == VALIDATE_ACTION_SITES


# The functions that call themselves.  Every other walk over a formula runs
# on an explicit stack (``logic._fold``, ``subformulas``), so it reads a
# formula of any depth; these recurse once per level and stay so, the
# labelling and the evaluator because explicit-stack versions were slower.
SELF_CALLING = [
    "bisim.py: distinguishing_formula.chi",
    "logic.py: _Parser.formula",
    "logic.py: _Parser.unary",
    "logic.py: _satisfiable_branch",
    "logic.py: _to_nnf",
    "models.py: _Labelling.extension",
    "models.py: _eval",
]


def own_calls(function: ast.FunctionDef, method: bool) -> set[str]:
    """The names ``function`` calls bare or, for a ``method``, as ``self.name``."""
    called = [sub.func for sub in ast.walk(function) if isinstance(sub, ast.Call)]
    if not method:
        return {f.id for f in called if isinstance(f, ast.Name)}
    return {
        f.attr
        for f in called
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self"
    }


def self_calling(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each function that calls itself: a function or
    nested function by its bare name (labelled ``outer.name``), a method as
    ``self.name`` (labelled ``Class.name``)."""
    out = []

    def visit(module: str, node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, prefix, in_class)
                continue
            label = prefix + child.name
            if isinstance(child, ast.FunctionDef) and child.name in own_calls(child, in_class):
                out.append(f"{module}: {label}")
            visit(module, child, label + ".", isinstance(child, ast.ClassDef))

    for module, source in sorted(sources.items()):
        visit(module, ast.parse(source), "", False)
    return out


def test_the_check_finds_every_self_calling_function():
    source = (
        "def walk(f):\n    return [walk(g) for g in f]\n\n"
        "def flat(f):\n    return walk(f)\n\n"
        "def outer(n):\n"
        "    def inner(k):\n        return inner(k - 1) if k else outer\n"
        "    return inner(n)\n\n"
        "class P:\n"
        "    def unary(self):\n        return self.unary() or self.other()\n\n"
        "    def other(self):\n        return P.other\n\n"
        "    def walk(self):\n        return walk(self)\n"
    )
    assert self_calling({"a.py": source}) == ["a.py: walk", "a.py: outer.inner", "a.py: P.unary"]


def test_only_the_listed_functions_call_themselves():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sorted(self_calling(sources)) == SELF_CALLING


# The sites that catch ``RecursionError``: the parser, which recurses, and
# the loader, for the JSON decoder.  Every formula node stores its hash and
# the other walks run on an explicit stack, so nothing else needs a handler.
RECURSION_HANDLERS = ["logic.py: parse_formula", "taskfile.py: loads"]


def recursion_handlers(sources: dict[str, str]) -> list[str]:
    """``module: site`` (see ``sites``) for each site with an ``except``
    clause naming ``RecursionError``, alone or in a tuple."""
    return [
        f"{module}: {label}"
        for module, source in sorted(sources.items())
        for label, node in sites(source)
        if any(
            isinstance(sub, ast.ExceptHandler)
            and sub.type is not None
            and "RecursionError" in referenced_names(sub.type)
            for sub in ast.walk(node)
        )
    ]


def test_the_check_finds_every_recursion_handler():
    source = (
        "def parse(text):\n"
        "    try:\n        return walk(text)\n"
        "    except RecursionError:\n        raise ValueError(text)\n\n"
        "class F:\n"
        "    def __call__(self, text):\n"
        "        try:\n            return hash(text)\n"
        "        except (KeyError, RecursionError) as exc:\n            raise ValueError(exc)\n\n"
        "    def other(self):\n"
        "        try:\n            return 1\n        except Exception:\n            return 0\n\n"
        "try:\n    import json\nexcept builtins.RecursionError:\n    json = None\n"
    )
    assert recursion_handlers({"a.py": source}) == [
        "a.py: parse",
        "a.py: F.__call__",
        "a.py: <module>",
    ]


def test_only_the_listed_sites_catch_recursion_errors():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert recursion_handlers(sources) == RECURSION_HANDLERS


# The gate's value, the actual event's precondition, has one reader: the one
# applicability test, which both updates ask.
GATE_SITES = ["actions.py: EpistemicAction._member prefills", "actions.py: applicable reads"]


def gate_sites(sources: dict[str, str]) -> list[str]:
    """``module: site kind`` (see ``sites``) for each mention of
    ``_actual_pre`` other than its definition and a bare statement marked
    ``# the gate``, which passes the gate and drops its value: ``reads`` for
    a read of the value, ``prefills`` for a keyword that sets it and
    ``passes unmarked`` for a bare statement without the mark."""
    out = []
    for module, source in sorted(sources.items()):
        lines = source.splitlines()
        for label, node in sites(source):
            bare = {
                id(sub.value): "# the gate" in lines[sub.lineno - 1]
                for sub in ast.walk(node)
                if isinstance(sub, ast.Expr)
            }
            for sub in ast.walk(node):
                if isinstance(sub, ast.keyword) and sub.arg == "_actual_pre":
                    out.append(f"{module}: {label} prefills")
                elif isinstance(sub, ast.Attribute) and sub.attr == "_actual_pre":
                    if id(sub) not in bare:
                        out.append(f"{module}: {label} reads")
                    elif not bare[id(sub)]:
                        out.append(f"{module}: {label} passes unmarked")
    return list(dict.fromkeys(out))


def test_the_check_finds_every_use_of_the_gate_value():
    source = (
        "class A:\n"
        "    @cached_property\n    def _actual_pre(self):\n        return self.pre\n\n"
        "    def _member(self):\n        self._actual_pre  # the gate\n"
        "        return A(_actual_pre=self.pre)\n\n"
        "def applicable(s, x):\n    return s.holds(x._actual_pre)\n\n"
        "def prelude(s, x):\n    pre = x._actual_pre  # the gate\n    return s.holds(pre)\n\n"
        "def update(s, x):\n    x._actual_pre\n    return s\n"
    )
    assert gate_sites({"a.py": source}) == [
        "a.py: A._member prefills",
        "a.py: applicable reads",
        "a.py: prelude reads",
        "a.py: update passes unmarked",
    ]


def test_only_applicable_reads_the_gate_value():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert gate_sites(sources) == GATE_SITES


# The entry points that validate formulas against a signature; every other
# reader evaluates what one of them has validated.  Imports name no site.
VALIDATING_SITES = [
    "actions.py: AttentionAction._actual_pre",
    "actions.py: AttentionAction._branches",
    "actions.py: validate_action",
    "logic.py: is_satisfiable",
    "logic.py: is_valid",
    "models.py: check",
    "planner.py: _search",
]


def test_only_the_entry_points_validate_formulas():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert naming_sites(sources, "validate_formula") == VALIDATING_SITES


# The sites that read a cost table's explicit entries.  Prices come from
# the model's index, ``_prices``, alone: ``cost_of`` scans no entry.
ENTRY_SITES = [
    "actions.py: CostTable.<body>",
    "actions.py: AttentionActionModel._prices",
    "actions.py: validate_action",
    "actions.py: is_nfl",
    "actions.py: background_announcement",
    "taskfile.py: _cost_table",
    "taskfile.py: model_fragment",
]


def test_only_the_price_index_reads_cost_entries():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert naming_sites(sources, "entries") == ENTRY_SITES


# The reference modules under tests/ are oracles for the package, so they
# import only its public names.  The one exception: the reference update
# evaluates preconditions with the library's ``_eval``, which
# ``test_update_differential`` checks against the reference evaluator.
REFERENCES = sorted((PACKAGE.parent.parent / "tests").glob("reference_*.py"))
PRIVATE_IMPORTS_ALLOWED = {"reference_update.py": ["attnplan.models._eval"]}


def private_package_imports(source: str) -> list[str]:
    """``module.name`` for each private name imported from ``attnplan``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "attnplan":
            out.extend(
                f"{node.module}.{alias.name}" for alias in node.names if is_private(alias.name)
            )
        elif isinstance(node, ast.Import):
            out.extend(
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] == "attnplan"
                and any(is_private(part) for part in alias.name.split("."))
            )
    return out


def test_the_check_finds_a_private_package_import():
    source = (
        "import attnplan._hidden\nimport json\n"
        "from attnplan.planner import Solution, _search\nfrom json import _default_decoder\n"
    )
    assert private_package_imports(source) == ["attnplan._hidden", "attnplan.planner._search"]


@pytest.mark.parametrize("module", REFERENCES, ids=lambda p: p.name)
def test_reference_imports_no_private_name(module: Path):
    allowed = PRIVATE_IMPORTS_ALLOWED.get(module.name, [])
    assert private_package_imports(module.read_text()) == allowed


def is_empty_container(node: ast.AST) -> bool:
    """``{}``, ``[]``, or a call of ``dict``, ``list`` or ``set`` with no
    arguments."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def fillable_cached_properties(sources: dict[str, str]) -> list[str]:
    """``module: Class.name`` for each cached property of a module-level
    class that returns an empty container, or a comprehension whose
    elements are empty containers: a table for its readers to fill."""
    out = []
    for module, source in sorted(sources.items()):
        for statement in ast.parse(source).body:
            if not isinstance(statement, ast.ClassDef):
                continue
            for member in statement.body:
                if not isinstance(member, ast.FunctionDef) or not any(
                    "cached_property" in referenced_names(d) for d in member.decorator_list
                ):
                    continue
                for node in ast.walk(member):
                    value = node.value if isinstance(node, ast.Return) else None
                    if isinstance(value, ast.DictComp):
                        value = value.value
                    elif isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                        value = value.elt
                    if is_empty_container(value):
                        out.append(f"{module}: {statement.name}.{member.name}")
                        break
    return out


def test_the_check_finds_a_cached_property_handing_out_a_table():
    source = (
        "class A:\n"
        "    @cached_property\n    def _table(self):\n        return {}\n\n"
        "    @functools.cached_property\n"
        "    def _per_agent(self):\n        return {a: set() for a in self.agents}\n\n"
        "    @cached_property\n"
        "    def _lists(self):\n        return [[] for _ in self.agents]\n\n"
        "    @cached_property\n"
        "    def _filled(self):\n        return {a: {a} for a in self.agents}\n\n"
        "    @property\n    def _fresh(self):\n        return {}\n\n"
        "    def plain(self):\n        return []\n"
    )
    assert fillable_cached_properties({"a.py": source}) == [
        "a.py: A._table",
        "a.py: A._per_agent",
        "a.py: A._lists",
    ]


def test_no_cached_property_hands_out_a_table():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert fillable_cached_properties(sources) == []
