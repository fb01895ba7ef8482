"""Every module-level import in `src/dmc` is read by its module, and every
module-level definition is named somewhere.

No linter ships with the project, so this parses each module with `ast`.
`from __future__` imports and the re-exports of `__init__.py` are exempt.
A function, class or constant of `src/dmc` must be named (read, imported or
reached as an attribute) somewhere under `src/`, `tests/`, `scripts/` or
`perfbench/`; dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dmc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def module_imports(tree):
    """(bound name, line) of each import statement at the top of the module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [f"{name} (line {line})" for name, line in module_imports(tree) if name not in read]
    assert not unused, f"{path.name} imports but never reads: {', '.join(unused)}"


def module_definitions(tree):
    """(name, line) of each function, class and assigned name at the top of the module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno


def names_in_use():
    """Every name read, imported or reached as an attribute in the project's Python files."""
    named = set()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    named.update(alias.name for alias in node.names)
    return named


def test_every_definition_is_named():
    named = names_in_use()
    unnamed = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in module_definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in named and not name.startswith("__")
    ]
    assert not unnamed, f"defined but never named: {', '.join(unnamed)}"
