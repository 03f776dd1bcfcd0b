"""Unused-code checks: every name a module imports is read somewhere in it, and
every package definition is read on a path the program runs.

Covers the package modules, except ``__init__.py``, which imports to
re-export, and the scripts. ``__future__`` imports are directives, not names.
"""
import ast
from pathlib import Path
from textwrap import dedent

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "votemanip").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = MODULES + SCRIPTS

# Package definitions kept with no caller on a program path yet: ROADMAP item 2
# (the pair statements) calls exact_pair_probability, and item 1 (the totals
# engine for anonymous score rules) checks its premise with is_anonymous.
AWAITING_CALLERS = frozenset({"exact_pair_probability", "is_anonymous"})


def unused_imports(source: str) -> list[str]:
    """Imported names, with their lines, that no ``Name`` node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport os.path as p\nfrom itertools import chain, product\nproduct\n"
    assert unused_imports(source) == ["line 1: os", "line 2: p", "line 3: chain"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _imports(tree, modules) -> tuple[dict, dict]:
    """(name -> (module, name there), alias -> module) of what ``tree`` imports
    from the package: ``from .m import x`` or ``from votemanip.m import x``
    binds x, and ``from . import m`` or ``from votemanip import m`` binds m."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("votemanip")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in modules:
                    names[alias.asname or alias.name] = (source, alias.name)
                elif alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
    return names, aliases


def _is_method(node) -> bool:
    """A ``def`` in a class body other than a dunder, which runs implicitly."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def unreached_definitions(modules: dict, scripts, kept=frozenset()) -> list:
    """``module.name`` of each top-level ``def`` and ``class`` of ``modules``
    (module name -> source), then ``module.Class.name`` of each of their
    methods but the dunders, that no path reads from ``cli.main``, from the
    ``scripts`` sources or from module-level code, which runs on import.

    A definition read is on the path, and so is every name its body reads; a
    class's body is read without its methods, but with its dunders. A bare
    name reads the top-level definition of that name in its own module or in
    the module it is imported from; ``module.name``, for a package module,
    reads that module's definition; any other attribute read reads every
    method of that name, whatever its class. Names in ``kept`` count as read.
    """
    top, methods, scopes, todo = {}, {}, {}, []
    for module, source in modules.items():
        tree = ast.parse(source)
        scopes[module] = (module, *_imports(tree, modules))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top[module, node.name] = node
                if isinstance(node, ast.ClassDef):
                    for method in filter(_is_method, node.body):
                        methods[module, node.name, method.name] = method
            else:
                todo.append((scopes[module], node))
    todo += [((None, *_imports(tree, modules)), tree) for tree in map(ast.parse, scripts)]
    reached = set()

    def reach(key):
        if key in reached or (key not in top and key not in methods):
            return
        reached.add(key)
        node, scope = top.get(key) or methods[key], scopes[key[0]]
        if isinstance(node, ast.ClassDef):
            todo.extend((scope, part) for part in (*node.decorator_list, *node.bases,
                                                    *node.keywords, *node.body)
                        if not _is_method(part))
        else:
            todo.append((scope, node))

    reach(("cli", "main"))
    for key in [*top, *methods]:
        if key[-1] in kept:
            reach(key)
    while todo:
        (module, names, aliases), root = todo.pop()
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                reach((module, node.id) if (module, node.id) in top else names.get(node.id))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    reach((aliases[node.value.id], node.attr))
                else:
                    for key in methods:
                        if key[-1] == node.attr:
                            reach(key)
    return [".".join(key) for key in [*top, *methods] if key not in reached]


def test_the_walk_finds_an_unreached_definition():
    modules = {
        "cli": dedent("""\
            from . import helpers
            from .helpers import Kept

            def main():
                return helpers.Kept().read(), Kept.used, call(Kept())

            def call(x):
                return x.shadow, shadow(), helpers.inner()

            def dead():
                return lone()
        """),
        "helpers": dedent("""\
            class Kept:
                def __init__(self):
                    self.x = made()

                def read(self):
                    return inner()

                @property
                def used(self):
                    pass

                def unread(self):
                    pass

            def made():
                pass

            def inner():
                pass

            def lone():
                pass

            def on_import():
                pass

            TABLE = on_import()

            def for_later():
                return later()

            def later():
                pass
        """),
        # Read only as a method, as an attribute of an object, or by a name
        # that another module defines or imports.
        "other": dedent("""\
            class Twin:
                def read(self):
                    pass

            def shadow():
                pass

            def inner():
                pass

            def made():
                pass
        """),
    }
    assert unreached_definitions(modules, []) == [
        "cli.dead", "helpers.lone", "helpers.for_later", "helpers.later", "other.Twin",
        "other.shadow", "other.inner", "other.made", "helpers.Kept.unread"]
    script = "from votemanip.helpers import lone\nfrom votemanip import other\nlone(), other.made\n"
    assert unreached_definitions(modules, [script], {"for_later", "unread"}) == [
        "cli.dead", "other.Twin", "other.shadow", "other.inner"]


def test_every_package_definition_serves_the_program():
    modules = {path.stem: path.read_text() for path in MODULES}
    scripts = [path.read_text() for path in SCRIPTS]
    assert unreached_definitions(modules, scripts, AWAITING_CALLERS) == []
