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

A third guard works one level down: every function and method must be
named somewhere in the package outside its own ``def``, unless an
allowlist with a reason per entry exempts it.
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


#: Functions and methods under ``src/repro`` that no code there names,
#: each with the one-word reason it stays: ``bench`` (a layer target or
#: helper of ``bench/``), ``oracle`` (a check tests run against the
#: model), ``claim`` (a benchmark's paper-shape check reads it),
#: ``example`` (an example script calls it) or ``tests`` (only tests
#: call it: a candidate for deletion or a move to ``tests/``). The list
#: may only shrink: an entry that code starts to name, or that is
#: deleted, fails the guard as well.
UNNAMED_FUNCTIONS = {
    "repro.cache.hierarchy.CacheHierarchy.lose_all_volatile_state": "bench",
    "repro.cache.hierarchy.CacheHierarchy.total_sram_latency_ns": "tests",
    "repro.cache.sram.SetAssociativeCache.mark_dirty": "tests",
    "repro.cache.sram.SetAssociativeCache.resident_lines": "tests",
    "repro.common.address.AddressMap.align_line": "tests",
    "repro.common.address.AddressMap.bank_of_addr": "tests",
    "repro.common.address.AddressMap.bank_of_page": "tests",
    "repro.common.address.AddressMap.page_of_addr": "tests",
    "repro.common.config.CounterCacheConfig.reach_bytes": "tests",
    "repro.core.crash.CrashController.occurrences": "tests",
    "repro.core.reencrypt.RSRRecord.complete": "tests",
    "repro.core.system.CounterStore.load_block": "tests",
    "repro.core.system.SecureMemorySystem.orderly_shutdown": "bench",
    "repro.crypto.integrity.IntegrityEngine.on_write": "example",
    "repro.crypto.integrity.IntegrityEngine.verify_counter_block": "example",
    "repro.crypto.integrity.IntegrityEngine.verify_read": "example",
    "repro.experiments.export.load_json": "tests",
    "repro.experiments.fig15.supermem_reduction_vs_wt": "claim",
    "repro.memory.bank.Bank.earliest_start": "bench",
    "repro.memory.bank.Bank.reset": "tests",
    "repro.memory.write_queue.WriteQueue.has_space": "tests",
    "repro.memory.write_queue.WriteQueue.would_coalesce": "bench",
    "repro.sim.trace_cache.array_stats": "tests",
    "repro.sim.trace_cache.cache_stats": "tests",
    "repro.sim.trace_cache.clear": "bench",
    "repro.sim.trace_cache.outcome_stats": "tests",
    "repro.txn.log.LogEntry.valid": "tests",
    "repro.txn.persist.MemoryDomain.persist_store": "tests",
    "repro.workloads.heap.PersistentHeap.used": "tests",
    "repro.workloads.rbtree.RBTreeWorkload.check_invariants": "oracle",
}


def _functions(tree):
    """``(qualified name, def node, is method)`` of every module-level
    function and every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub, True


def _references(module: str, tree, modules):
    """``(name, target module, line)`` of every name ``tree`` uses.

    A loaded variable, or a string that is an identifier (as ``getattr``
    and ``__all__`` use), targets ``module`` itself; ``from M import
    name`` targets ``M``; an attribute targets the module it is read off
    when that is an imported module, and ``None`` otherwise.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in modules:
                    aliases[alias.asname or alias.name] = submodule
                yield alias.name, node.module, node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, module, node.lineno
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, aliases.get(base), node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, module, node.lineno


def _unnamed_functions():
    """Every function or method that no code in ``src/repro`` names
    outside its own ``def``, as ``module.qualified_name``.

    A method counts as named when any attribute, variable or identifier
    string anywhere has its name (the scan cannot tell classes apart). A
    module-level function must be named from its own module, imported
    from it, or read off it as an attribute: a ``run()`` that only tests
    call is unnamed even though other modules call other ``run``s.
    """
    modules = _module_files()
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in modules.items()
    }
    references = {}
    for module, tree in trees.items():
        for name, target, line in _references(module, tree, modules):
            references.setdefault(name, []).append((target, module, line))
    unnamed = []
    for module, tree in trees.items():
        for qualname, node, is_method in _functions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            named = False
            for target, where, line in references.get(name, ()):
                if where == module and node.lineno <= line <= node.end_lineno:
                    continue  # inside its own def: recursion is not a caller
                if is_method or target == module:
                    named = True
                    break
            if not named:
                unnamed.append(f"{module}.{qualname}")
    return sorted(unnamed)


def test_every_function_is_named_in_the_package():
    unnamed = _unnamed_functions()
    unexpected = sorted(set(unnamed) - set(UNNAMED_FUNCTIONS))
    assert not unexpected, (
        f"functions no code in src/repro names: {unexpected} — call each "
        "from the package, delete it (with its tests), or allowlist it "
        "with a reason"
    )
    stale = sorted(set(UNNAMED_FUNCTIONS) - set(unnamed))
    assert not stale, (
        f"allowlisted functions that are now named or gone: {stale} — "
        "drop them from UNNAMED_FUNCTIONS"
    )
