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

A fourth guard does the same for the config classes: every field must be
passed by keyword, to its class or to ``replace``, by some code under
``src/repro``, ``bench/`` or ``benchmarks/``, unless an allowlist with a
reason per entry exempts it. This one imports the config module to list
the fields.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro.common.config import CacheConfig, CounterCacheConfig, MemoryConfig, SimConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
    "repro.core.system.SecureMemorySystem.orderly_shutdown": "bench",
    "repro.crypto.integrity.IntegrityEngine.on_write": "example",
    "repro.crypto.integrity.IntegrityEngine.verify_counter_block": "example",
    "repro.crypto.integrity.IntegrityEngine.verify_read": "example",
    "repro.experiments.fig15.supermem_reduction_vs_wt": "claim",
    "repro.memory.bank.Bank.earliest_start": "bench",
    "repro.memory.write_queue.WriteQueue.would_coalesce": "bench",
    "repro.sim.trace_cache.clear": "bench",
    "repro.workloads.rbtree.RBTreeWorkload.check_invariants": "oracle",
}

#: Config fields that no keyword argument under ``src/repro``,
#: ``bench/`` or ``benchmarks/`` sets, each with the one-word reason it
#: stays: ``model`` (geometry every run takes as given), ``claim`` (a
#: test guards a paper claim through it) or ``tests`` (only tests set
#: it: a candidate for deletion). A field that nothing sets cannot
#: change a result, so a new one fails the guard unless it is listed;
#: an entry that code starts to set, or that is deleted, fails it too.
#: ``TimingConfig`` is out of scope: each of its fields is a Table 2
#: latency the model reads as given.
UNSET_CONFIG_FIELDS = {
    "SimConfig.l1": "model",
    "SimConfig.l2": "model",
    "SimConfig.l3": "model",
    "SimConfig.timing": "model",
    "SimConfig.tree_cache": "model",
    "MemoryConfig.n_banks": "model",
    # test_without_adr_rsr_pending_lines_are_garbage (Section 3.4.4).
    "SimConfig.rsr_adr": "claim",
    # The hot-path lockstep reference and the drain-release regression
    # reach drain states through them that no queue depth gives.
    "MemoryConfig.wq_high_watermark": "tests",
    "MemoryConfig.wq_low_watermark": "tests",
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


#: Directories whose code counts as a caller that sets a config field.
CONFIG_CALLERS = (SRC / "repro", ROOT / "bench", ROOT / "benchmarks")


def _keywords_passed(roots):
    """``{callee name: set of keyword names}`` over every call in ``roots``.

    The callee is the called name, or the attribute a call reads
    (``dataclasses.replace`` counts as ``replace``).
    """
    passed = {}
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                names = passed.setdefault(name, set())
                names.update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def _unset_config_fields(roots=CONFIG_CALLERS):
    """``Class.field`` of every config field no call in ``roots`` passes
    by keyword to its class or to ``replace``."""
    passed = _keywords_passed(roots)
    unset = []
    for cls in (SimConfig, MemoryConfig, CacheConfig, CounterCacheConfig):
        set_here = passed.get(cls.__name__, set()) | passed.get("replace", set())
        unset += [
            f"{cls.__name__}.{field.name}"
            for field in dataclasses.fields(cls)
            if field.name not in set_here
        ]
    return sorted(unset)


def test_every_config_field_is_set_by_some_caller():
    unset = _unset_config_fields()
    unexpected = sorted(set(unset) - set(UNSET_CONFIG_FIELDS))
    callers = [str(root.relative_to(ROOT)) for root in CONFIG_CALLERS]
    assert not unexpected, (
        f"config fields no code under {callers} sets: {unexpected} — set "
        "each where a run needs it, delete it (with its tests), or "
        "allowlist it with a reason"
    )
    stale = sorted(set(UNSET_CONFIG_FIELDS) - set(unset))
    assert not stale, (
        f"allowlisted config fields that are now set or gone: {stale} — "
        "drop them from UNSET_CONFIG_FIELDS"
    )


def test_config_guard_reports_a_field_no_caller_sets(tmp_path):
    """Only a keyword passed to the field's class or to ``replace`` sets
    it; the same keyword passed to any other callee does not."""
    (tmp_path / "caller.py").write_text(
        "import dataclasses\n"
        "memory = MemoryConfig(n_banks=4)\n"
        "memory = dataclasses.replace(memory, capacity=1 << 20)\n"
        "other(drain_policy='fifo')\n",
        encoding="utf-8",
    )
    unset = _unset_config_fields((tmp_path,))
    assert "MemoryConfig.n_banks" not in unset
    assert "MemoryConfig.capacity" not in unset
    assert "MemoryConfig.drain_policy" in unset
    assert "SimConfig.memory" in unset
