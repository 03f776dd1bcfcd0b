"""Unused-code checks: every name a module imports is read somewhere in it, and
every package definition is read on a path the program runs.

Covers the package modules, except ``__init__.py``, which imports to
re-export, and the scripts. ``__future__`` imports are directives, not names.
"""
import ast
from pathlib import Path

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


def unreached_definitions(modules: dict, scripts, kept=frozenset()) -> list:
    """``module.name`` of each top-level ``def`` and ``class`` of ``modules``
    (module name -> source) that no path reads by name from ``cli.main``, from
    the ``scripts`` sources or from module-level code, which runs on import.

    A definition read by name is on the path, and so is every name its body
    reads (a class's, through all its methods); a name is matched whatever
    module or object it is read from. Names in ``kept`` count as read.
    """
    definitions, entry = {}, [ast.parse(source) for source in scripts]
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((module, node))
                if (module, node.name) == ("cli", "main"):
                    entry.append(node)
            else:
                entry.append(node)
    reached = {"main", *kept}
    todo = entry + [node for name in kept for _module, node in definitions.get(name, [])]
    while todo:
        for node in ast.walk(todo.pop()):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in definitions and name not in reached:
                reached.add(name)
                todo += [definition for _module, definition in definitions[name]]
    return [f"{module}.{name}" for name, found in definitions.items() if name not in reached
            for module, _node in found]


def test_the_walk_finds_an_unreached_definition():
    modules = {
        "cli": "def main():\n    return helpers.Kept().read()\n\ndef dead():\n    return lone()\n",
        "helpers": ("class Kept:\n    def read(self):\n        return inner()\n\n"
                    "def inner():\n    pass\n\ndef lone():\n    pass\n\n"
                    "def on_import():\n    pass\n\nTABLE = on_import()\n"
                    "def for_later():\n    return later()\n\ndef later():\n    pass\n"),
    }
    assert unreached_definitions(modules, []) == ["cli.dead", "helpers.lone",
                                                  "helpers.for_later", "helpers.later"]
    assert unreached_definitions(modules, ["lone()\n"], {"for_later"}) == ["cli.dead"]


def test_every_package_definition_serves_the_program():
    modules = {path.stem: path.read_text() for path in MODULES}
    scripts = [path.read_text() for path in SCRIPTS]
    assert unreached_definitions(modules, scripts, AWAITING_CALLERS) == []
