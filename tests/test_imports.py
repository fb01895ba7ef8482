"""Every module-level import in `src/dmc` is read by its module.

No linter ships with the project, so this parses each module with `ast`.
`from __future__` imports and the re-exports of `__init__.py` are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dmc"
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
