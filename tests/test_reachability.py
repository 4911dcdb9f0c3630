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
"""

import ast
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
