"""Source hygiene: every module uses each name it imports, imports at
module level only, and imports no NumPy; every definition in the package
is named somewhere, no module-level function only forwards its
parameters to another, and one class defines the package's random
stream.

No linter is a dependency of the package, so the checks read syntax
trees with :mod:`ast`.  A name counts as used when the module mentions it
anywhere outside its import statements; a name that only a string
annotation mentions counts as unused.  ``__init__.py`` is left out: its
imports are the package's exports.

A function, class or method defined in the package, or a name a module
assigns at its top level, is live when its name occurs, as a name or an
attribute, in the package, the tests or the benchmark outside its own
definition; docstrings and imports do not count.  Dunder names, which
Python reads, and the ``@_result`` procedures, which the result registry
calls, are exempt.  A definition that only the tests name is live only for
them: the package keeps the ones in ``KEPT_FOR_TESTS`` alone, and each
says in its docstring or comment why it stays.

A function only forwards when it is undecorated, takes a parameter, and
is one ``return f(...)`` passing all its parameters and otherwise only
names or constants: ``load(p)`` returning ``load_json(p, build)`` is
``load_json`` under a second name, so callers call ``load_json``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "siflab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never mentions."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = (
        "from typing import Callable, Iterable\n"
        "import json, numpy as np\n"
        "def f(x: Iterable[int]) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Callable", "json"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def imported_packages(source: str) -> set[str]:
    """The top-level packages ``source`` imports, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_the_check_sees_imported_packages():
    source = "import numpy.linalg as la, json\nfrom numpy import zeros\nfrom . import traces\nfrom .errors import E\n"
    assert imported_packages(source) == {"numpy", "json"}


def test_the_package_runs_without_numpy():
    """Verdict vectors are Python ints; the package neither imports NumPy
    nor declares it."""
    importing = [p.name for p in sorted(SRC.glob("*.py")) if "numpy" in imported_packages(p.read_text(encoding="utf-8"))]
    assert importing == []
    assert "numpy" not in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def nested_imports(source: str) -> list[str]:
    """The functions and methods of ``source`` that hold an import, as
    ``name:line`` per import statement."""
    nested = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    nested.append(f"{node.name}:{inner.lineno}")
    return nested


def test_the_check_sees_imports_inside_functions():
    source = (
        "import json\n"
        "def f():\n"
        "    from os import path\n"
        "    return path\n"
        "class A:\n"
        "    def g(self):\n"
        "        import sys\n"
        "        return sys\n"
        "    def h(self):\n"
        "        return json\n"
    )
    assert nested_imports(source) == ["f:3", "g:7"]


def test_the_package_imports_at_module_level_only():
    found = {p.name: nested_imports(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {module: where for module, where in found.items() if where} == {}


def _mentions(tree: ast.AST) -> Counter:
    """How often each name occurs in ``tree`` as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _exempt(node) -> bool:
    if _dunder(node.name):
        return True
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_result" for d in node.decorator_list)


def dead_definitions(defining: dict[str, str], referring: list[str]) -> list[str]:
    """The functions, classes, methods and module-level assigned names of
    ``defining`` (module name to source) that no source of ``defining`` or
    ``referring`` names outside their own definitions, as
    ``module:qualified.name``."""
    trees = {module: ast.parse(source) for module, source in defining.items()}
    mentions = Counter()
    for tree in [*trees.values(), *map(ast.parse, referring)]:
        mentions += _mentions(tree)
    dead = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not _exempt(child) and mentions[child.name] == _mentions(child)[child.name]:
                    dead.append(f"{module}:{name}")
                visit(child, module, name + ".")
            elif isinstance(node, ast.Module) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                own = _mentions(child)
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and not _dunder(n.id) and mentions[n.id] == own[n.id]:
                            dead.append(f"{module}:{n.id}")
            else:
                visit(child, module, prefix)

    for module, tree in trees.items():
        visit(tree, module, "")
    return dead


def test_the_check_sees_dead_and_live_definitions():
    defining = {
        "m": (
            "__all__ = ['A']\n"
            "_UNUSED, _PAIR = 1, 2\n"
            "_TABLE: dict = {_PAIR: 3}\n"
            "_LIVE = _TABLE\n"
            "class A:\n"
            "    def __init__(self): pass\n"
            "    def used(self): return 1\n"
            "    def recursive(self): return self.recursive()\n"
            "@_result('X', 'only the registry calls it')\n"
            "def _procedure(ctx): pass\n"
            "def helper(): pass\n"
            "def outer():\n"
            "    def inner(): pass\n"
            "    return inner\n"
        )
    }
    referring = ['"""helper, outer and A.recursive, in a docstring only"""\nfrom m import A, outer\nA().used(m._LIVE)\n']
    assert dead_definitions(defining, referring) == ["m:_UNUSED", "m:A.recursive", "m:helper", "m:outer"]


def test_every_definition_is_named_somewhere():
    defining = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    referring = [
        p.read_text(encoding="utf-8") for folder in ("tests", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))
    ]
    assert dead_definitions(defining, referring) == []


def only_named_by_tests(defining: dict[str, str], referring: list[str], tests: list[str]) -> list[str]:
    """The definitions of ``defining`` that are dead with ``referring``
    alone and live once ``tests`` count too, as :func:`dead_definitions`
    names them."""
    dead_with_tests = set(dead_definitions(defining, [*referring, *tests]))
    return [name for name in dead_definitions(defining, referring) if name not in dead_with_tests]


def test_the_check_sees_definitions_only_tests_name():
    defining = {
        "m": (
            "LAYOUT = (1, 2)\n"
            "class A:\n"
            "    def used(self): pass\n"
            "    def tested(self): pass\n"
            "def helper(): pass\n"
            "def dead(): pass\n"
        )
    }
    referring = ["from m import A\nA().used()\n"]
    tests = ['"""dead, in a docstring only"""\nfrom m import A, LAYOUT, helper\nA().tested(helper(), LAYOUT)\n']
    assert only_named_by_tests(defining, referring, tests) == ["m:LAYOUT", "m:A.tested", "m:helper"]


# The definitions that only the tests name, each kept for the reason its
# docstring or comment gives.
KEPT_FOR_TESTS = [
    "enumeration.py:BitUniverse.view_eq_mask",
    "enumeration.py:BitUniverse.system_from_mask",
    "fixtures.py:fixture_path",
    "fixtures.py:write_all",
    "traces.py:COMPONENT_ORDER",
    "zl.py:lles",
]


def test_no_definition_is_named_by_tests_alone_but_the_kept_ones():
    """The package, the benchmark and the README's library example are
    the sources that count without the tests."""
    defining = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    referring = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    referring += re.findall(r"```python\n(.*?)```", readme, re.S)
    tests = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))]
    assert only_named_by_tests(defining, referring, tests) == KEPT_FOR_TESTS


def _only_forwards(node) -> bool:
    """Whether ``node`` is a function that only forwards, as the module
    docstring defines it.  In its one-statement body a name that is not a
    parameter is a module-level name or a builtin."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.decorator_list:
        return False
    a = node.args
    params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p is not None}
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not params or len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    args = [arg.value if isinstance(arg, ast.Starred) else arg for arg in call.args]
    args += [k.value for k in call.keywords]
    if not all(isinstance(arg, (ast.Name, ast.Constant)) for arg in args):
        return False
    return params <= {arg.id for arg in args if isinstance(arg, ast.Name)}


def forwarding_functions(sources: dict[str, str]) -> list[str]:
    """The module-level functions of ``sources`` (module name to source)
    that only forward their parameters to another callable, as
    ``module:name``."""
    return [
        f"{module}:{node.name}"
        for module, source in sources.items()
        for node in ast.parse(source).body
        if _only_forwards(node)
    ]


def test_the_check_sees_functions_that_only_forward():
    source = (
        "from functools import lru_cache\n"
        "def load(p): return load_json(p, build)\n"
        "def both(a, b):\n"
        "    \"\"\"A pair.\"\"\"\n"
        "    return Pair(a, b)\n"
        "@lru_cache\n"
        "def view(t, m): return project(t, m)\n"
        "def derive(s): return g(s, (h(s.decl),))\n"
        "def some(a, b): return f(a)\n"
        "def none(): return f(1)\n"
        "def union_system(ss): return ss.union\n"
        "class A:\n"
        "    def m(self, x): return f(self, x)\n"
    )
    assert forwarding_functions({"m": source}) == ["m:load", "m:both"]


def test_no_function_only_forwards():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert forwarding_functions(sources) == []


def random_uses(source: str) -> list[str]:
    """What ``source`` takes from :mod:`random` other than the base of a
    class, as ``name:line``: ``random.Random(seed)``, ``random.randint``
    and ``from random import Random`` each draw from a stream that is
    not the package's one."""
    tree = ast.parse(source)
    bases = {id(base) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for base in node.bases}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "random" and id(node) not in bases:
            found.append(f"{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [f"{alias.name}:{node.lineno}" for alias in node.names]
    return found


def test_the_check_sees_uses_of_random():
    source = (
        "import random\n"
        "from random import Random\n"
        "class _Draws(random.Random):\n"
        "    'random.Random(seed) in a docstring'\n"
        "def f(seed):\n"
        "    return random.Random(seed), random.randint(0, 1), _Draws(seed)\n"
    )
    assert random_uses(source) == ["Random:2", "Random:6", "randint:6"]


def test_one_class_defines_the_random_stream():
    """Every seeded generator draws from ``corpus._Draws``, the one
    subclass of ``random.Random``; no module makes a stream of its own."""
    found = {p.name: random_uses(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {module: where for module, where in found.items() if where} == {}
    subclasses = [
        f"{p.name}:{node.name}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(ast.unparse(base) == "random.Random" for base in node.bases)
    ]
    assert subclasses == ["corpus.py:_Draws"]
