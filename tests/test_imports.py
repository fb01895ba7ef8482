"""Every module-level import in `src/dmc`, `tests` and `scripts` is read by
its module, every module-level definition is named somewhere, `import
dmc.cli` loads neither scipy nor yaml, the dense-route tests patch
`_average` in every module of `src/dmc` that binds it, no module of
`src/dmc` but `calculus` names `anova`, and no module of `src/dmc` but
`space` calls `np.ndindex`.

No linter ships with the project, so this parses each module with `ast`.
`from __future__` imports, the re-exports of `__init__.py` and import
statements marked `# noqa: F401` (the re-exports of `conftest.py`) are exempt.
A function, class or constant of `src/dmc` must be named (read, imported or
reached as an attribute) somewhere under `src/`, `tests/`, `scripts/` or
`perfbench/`; dunder names are exempt.

scipy and yaml are imported inside the functions that use them, so a fresh
interpreter that imports `dmc.cli` and runs every subcommand has loaded
neither.  Only `space_from_file` loads yaml, when called; scipy is left to
the library's Stein targets.
"""

import ast
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from .test_compact_storage import AVERAGING_MODULES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dmc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def module_imports(tree, lines):
    """(bound name, line) of each import statement at the top of the module, unless marked F401."""
    for node in tree.body:
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize(
    "path", READERS, ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT))
)
def test_every_import_is_read(path):
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [
        f"{name} (line {line})"
        for name, line in module_imports(tree, text.splitlines())
        if name not in read
    ]
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


def names_read(path):
    """Every name read, imported or reached as an attribute in one Python file."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    return named


def names_in_use():
    """Every name read, imported or reached as an attribute in the project's Python files."""
    folders = ("src", "tests", "scripts", "perfbench")
    return set().union(*(names_read(path) for f in folders for path in (ROOT / f).rglob("*.py")))


def test_only_calculus_names_anova():
    """The 2^n subset tree of `anova` stays in `calculus`; order sums come from `order_layers`."""
    naming = [path.name for path in MODULES if path.stem != "calculus" and "anova" in names_read(path)]
    assert not naming, f"modules that name anova: {', '.join(naming)}"


def test_only_space_calls_ndindex():
    """Per-point tables come from `ProductSpace.from_evaluator`, which checks the ceiling first."""
    naming = [path.name for path in MODULES if path.stem != "space" and "ndindex" in names_read(path)]
    assert not naming, f"modules that call np.ndindex: {', '.join(naming)}"


def test_every_definition_is_named():
    named = names_in_use()
    unnamed = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in module_definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in named and not name.startswith("__")
    ]
    assert not unnamed, f"defined but never named: {', '.join(unnamed)}"


def test_the_dense_route_patches_every_average_binding():
    """`_average` is looked up where a module binds it, so the dense route must patch each binder."""
    binders = set()
    for path in MODULES:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        bound = chain(module_imports(tree, text.splitlines()), module_definitions(tree))
        if any(name == "_average" for name, _ in bound):
            binders.add(path.stem)
    assert binders == {module.__name__.rpartition(".")[2] for module in AVERAGING_MODULES}


CHILD = """
import json, sys
from pathlib import Path

tmp = Path(sys.argv[1])
loaded = lambda: sorted(m for m in ("scipy", "yaml") if m in sys.modules)
import dmc.cli

(tmp / "kernel.csv").write_text("0,0.5,0.5\\n0.5,0,0.5\\n0.5,0.5,0\\n")
ARGV = {
    "identities": ["--trials", "2"],
    "semigroup": ["--trials", "200", "--repeats", "1"],
    "clark": ["--trials", "2"],
    "inequalities": ["--trials", "2"],
    "hoeffding": ["--n", "3"],
    "ewens": ["--N", "3", "--enum"],
    "stein-gaussian": ["--n", "4"],
    "stein-gamma": ["--n", "3"],
    "stein-homog": ["--kernel", str(tmp / "kernel.csv")],
    "limits-poisson": ["--functional", "capped", "--grid", "4,8", "--trials", "20"],
    "limits-walk": ["--mode", "mc", "--grid", "8", "--trials", "20"],
}
seen = {"import": loaded(), "commands": sorted(dmc.cli.RUNNERS) + sorted(dmc.cli.CSV_RUNNERS)}
for command, extra in ARGV.items():
    rc = dmc.cli.main([command, *extra, "--out", str(tmp / command)])
    seen[command] = [rc, loaded()]
(tmp / "space.yaml").write_text(
    "coords:\\n  - id: x1\\n    outcomes:\\n"
    "      - {label: a, p: 0.25, value: 0.0}\\n      - {label: b, p: 0.75, value: 2.0}\\n"
)
from dmc.space import space_from_file

seen["space_shape"] = list(space_from_file(tmp / "space.yaml").shape)
seen["space"] = loaded()
print(json.dumps(seen))
"""


def test_cli_import_loads_neither_scipy_nor_yaml(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    commands = seen.pop("commands")
    assert len(commands) == 11
    assert {command: seen[command] for command in commands} == {
        command: [0, []] for command in commands
    }
    assert len((tmp_path / "limits-poisson").read_text().splitlines()) == 3
    assert (seen["space_shape"], seen["space"]) == ([2], ["yaml"])
