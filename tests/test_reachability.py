"""Reachability guard: every module under ``src/repro`` serves the CLI.

The design rule is that every module is reached by a CLI command or an
experiment, and experiments are reached through ``python -m repro run``.
This test follows every ``import`` and ``from ... import`` statement
from :mod:`repro.__main__` — function-level ones included, since the CLI
imports its command bodies lazily — and asserts that the walk reaches
every module in the package. A module that only examples or tests
import fails here.

The walk is static (AST only, nothing is imported). Importing
``a.b.c`` also runs the ``__init__`` of ``a`` and ``a.b``, so a reached
module marks its parent packages reached too.

Because the walk follows import statements, an import nothing uses
could keep a dead module "reached". A second guard therefore fails on
any name a module imports and never uses (package ``__init__`` files
are exempt: they import to re-export).
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_files() -> dict:
    """``{dotted module name: path}`` for every module of the package."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _with_parents(name: str):
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _imported_names(path: Path):
    """Every dotted name an import statement in ``path`` may load."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: relative import; the walk needs absolute ones"
            yield node.module
            # ``from pkg import mod`` loads the submodule ``pkg.mod``.
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_every_module_is_reached_from_the_cli():
    modules = _module_files()
    reached = set()
    frontier = _with_parents("repro.__main__")
    while frontier:
        name = frontier.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        for imported in _imported_names(modules[name]):
            frontier.extend(_with_parents(imported))
    unreached = sorted(set(modules) - reached)
    assert not unreached, (
        f"modules no CLI command or experiment imports: {unreached} — "
        "wire each into a command or delete it"
    )


def _unused_imports(path: Path):
    """``(line, name)`` of every name ``path`` imports and never uses.

    Every import statement counts, function-level ones included. A name
    is used if some ``ast.Name`` has it as its id or a string annotation
    mentions it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return [(line, name) for line, name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert not unused, f"unused imports (delete them): {unused}"
