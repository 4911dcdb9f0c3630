"""Docs-drift guards: the docs must track the code they document.

Contracts, all enforced mechanically so documentation cannot rot
silently:

* every ``CrashController.probe("...")`` call site in ``repro.txn`` and
  ``repro.core`` must be named in ``docs/RECOVERY.md`` — and the
  :data:`~repro.core.crash.PROBE_POINTS` registry must equal the set of
  call sites the source scan finds (a probe added without registering
  it, or registered without a call site, fails here);
* every subcommand and long flag of the ``python -m repro`` argparse
  tree must be named in ``docs/CLI.md`` — and, the reverse direction,
  every ``## `name` `` section of CLI.md must name a subcommand, and
  every ``| `--flag` `` row in it a flag of that subcommand; the
  workload names the `simulate` section lists must equal the workload
  registry;
* every :class:`~repro.core.schemes.Scheme` (enum value and display
  label) must be named in ``docs/MODEL.md``;
* every observability vocabulary constant of :mod:`repro.obs.events`
  (``CAT_*`` categories, ``TRACK_*`` series tracks, ``*_EV_*`` event
  names) must appear in ``docs/OBSERVABILITY.md`` or
  ``docs/PERFORMANCE.md`` — and, the reverse direction, every
  category in OBSERVABILITY.md's "Event types" table must be a
  ``CAT_*`` value; the event names that table lists under each category
  must equal the names a traced run and a priced recovery emit there;
* every field of every configuration dataclass (``SimConfig`` and its
  sub-configs) must be named in backticks in ``docs/CONFIG.md`` — a new
  knob (``fidelity``, ...) cannot land undocumented, and every
  backticked name in the first column of a CONFIG.md field table must
  be a field of its dataclass, so a deleted knob cannot linger in the
  docs.

Plus the repo-wide markdown link check (``tools/check_links.py``) so a
renamed doc breaks the tier-1 suite, not just CI.
"""

import argparse
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"

#: A probe call: CrashController.probe("<name>", ...).
_PROBE_CALL = re.compile(r"\.probe\(\s*\n?\s*\"([a-z0-9-]+)\"")


def _source_probe_names() -> set:
    names = set()
    for package in ("txn", "core"):
        for path in (REPO_ROOT / "src" / "repro" / package).glob("**/*.py"):
            names.update(_PROBE_CALL.findall(path.read_text(encoding="utf-8")))
    return names


class TestRecoveryDoc:
    def test_probe_sites_exist(self):
        """The extraction regex must keep matching real call sites."""
        names = _source_probe_names()
        assert len(names) >= 8, names
        assert "wt-no-register-gap" in names
        assert "txn-after-prepare" in names

    def test_every_probe_name_is_documented(self):
        text = (DOCS / "RECOVERY.md").read_text(encoding="utf-8")
        missing = sorted(n for n in _source_probe_names() if n not in text)
        assert not missing, (
            f"crash probes undocumented in docs/RECOVERY.md: {missing} — "
            "add each to the probe catalogue"
        )

    def test_registry_matches_source_scan(self):
        """PROBE_POINTS is the machine-readable probe catalogue (the
        fuzz harness iterates it); it must equal the set of call sites
        actually present in the source."""
        from repro.core.crash import PROBE_POINTS

        scanned = _source_probe_names()
        registered = set(PROBE_POINTS)
        assert registered == scanned, (
            f"unregistered probes: {sorted(scanned - registered)}; "
            f"registered but never fired in source: {sorted(registered - scanned)}"
        )

    def test_every_recovery_path_is_documented(self):
        """Every ``RECOVERY_PATH_*`` constant (the `recovery_path` names
        the CLI and the cost reports print) must appear, backticked, in
        the RECOVERY.md path table."""
        from repro.core import schemes

        text = (DOCS / "RECOVERY.md").read_text(encoding="utf-8")
        paths = [
            getattr(schemes, name)
            for name in dir(schemes)
            if name.startswith("RECOVERY_PATH_")
        ]
        assert len(paths) >= 4, paths
        missing = [path for path in paths if f"`{path}`" not in text]
        assert not missing, (
            f"recovery paths undocumented in docs/RECOVERY.md: {missing}"
        )


class TestModelDoc:
    def test_every_scheme_is_documented(self):
        from repro.core.schemes import Scheme

        text = (DOCS / "MODEL.md").read_text(encoding="utf-8")
        missing = []
        for scheme in Scheme:
            if f"`{scheme.value}`" not in text or scheme.label not in text:
                missing.append(f"{scheme.value} ({scheme.label})")
        assert not missing, (
            f"schemes undocumented in docs/MODEL.md: {missing} — each needs "
            "its enum value in backticks and its display label"
        )


class TestObservabilityDoc:
    def test_every_event_vocabulary_constant_is_documented(self):
        from repro.obs import events

        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        text += (DOCS / "PERFORMANCE.md").read_text(encoding="utf-8")
        missing = []
        for name in dir(events):
            if not (name.startswith(("CAT_", "TRACK_")) or "_EV_" in name):
                continue
            value = getattr(events, name)
            if isinstance(value, str) and value not in text:
                missing.append(f"{name}={value!r}")
        assert not missing, (
            "observability vocabulary undocumented in docs/OBSERVABILITY.md "
            f"or docs/PERFORMANCE.md: {sorted(missing)}"
        )

    def test_documented_categories_exist(self):
        """The reverse direction: every backticked category in the first
        column of the "Event types" table must be a ``CAT_*`` value of
        :mod:`repro.obs.events`, so a deleted category cannot linger."""
        from repro.obs import events

        categories = {
            getattr(events, name) for name in dir(events) if name.startswith("CAT_")
        }
        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        table = text.split("## Event types", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for first_cell in re.findall(r"^\|([^|]*)\|", table, re.M):
            documented.update(re.findall(r"`([^`]+)`", first_cell))
        assert len(documented) >= 6, "OBSERVABILITY.md event table not found"
        unknown = sorted(documented - categories)
        assert not unknown, (
            f"docs/OBSERVABILITY.md documents event categories that do not "
            f"exist: {unknown}"
        )

    def test_documented_event_names_match_emitted(self):
        """Each "Event types" row's second column names exactly the events
        emitted under its category, both ways: by one traced SuperMem
        point on the smoke base config and by one priced recovery."""
        from repro.core.recovery_cost import (
            recovery_trace_events,
            run_recovery_scenario,
        )
        from repro.core.schemes import Scheme
        from repro.experiments.common import experiment_base_config, get_scale
        from repro.obs import Tracer
        from repro.sim.simulator import simulate_workload

        scale = get_scale("smoke")
        tracer = Tracer()
        simulate_workload(
            "hashtable",
            Scheme.SUPERMEM,
            n_ops=scale.n_ops,
            footprint=scale.footprint,
            base_config=experiment_base_config(scale),
            tracer=tracer,
        )
        report, _recovered, _shadow = run_recovery_scenario(Scheme.SUPERMEM)
        events = tracer.events + recovery_trace_events(report)
        emitted = {(event.cat, event.name) for event in events}

        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        table = text.split("## Event types", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for cats, names in re.findall(r"^\|([^|]*)\|([^|]*)\|", table, re.M):
            for cat in re.findall(r"`([^`]+)`", cats):
                documented.update(
                    (cat, name) for name in re.findall(r"`([^`]+)`", names)
                )
        missing = sorted(emitted - documented)
        stale = sorted(documented - emitted)
        assert not missing, (
            f"events missing from docs/OBSERVABILITY.md's event table: {missing}"
        )
        assert not stale, (
            f"docs/OBSERVABILITY.md's event table names events nothing emits: {stale}"
        )


class TestConfigDoc:
    #: Every config dataclass whose fields docs/CONFIG.md must catalogue.
    CONFIG_CLASSES = (
        "SimConfig",
        "MemoryConfig",
        "TimingConfig",
        "CacheConfig",
        "CounterCacheConfig",
    )

    def test_every_config_field_is_documented(self):
        import dataclasses

        from repro.common import config as config_module

        text = (DOCS / "CONFIG.md").read_text(encoding="utf-8")
        missing = []
        for cls_name in self.CONFIG_CLASSES:
            cls = getattr(config_module, cls_name)
            for field in dataclasses.fields(cls):
                if f"`{field.name}`" not in text:
                    missing.append(f"{cls_name}.{field.name}")
        assert not missing, (
            f"config fields undocumented in docs/CONFIG.md: {missing} — "
            "add each field name in backticks with a one-line meaning"
        )

    def test_documented_fields_exist(self):
        """The reverse direction: every backticked name in the first
        column of a CONFIG.md field table must be a field of the
        dataclass its ``## `Class` `` section documents."""
        import dataclasses

        from repro.common import config as config_module

        text = (DOCS / "CONFIG.md").read_text(encoding="utf-8")
        sections = re.split(r"^## (.*)$", text, flags=re.M)
        unknown = []
        checked = 0
        for heading, body in zip(sections[1::2], sections[2::2]):
            match = re.fullmatch(r"`(\w+)`", heading.strip())
            if match is None:
                continue
            cls = getattr(config_module, match.group(1))
            fields = {field.name for field in dataclasses.fields(cls)}
            for first_cell in re.findall(r"^\|([^|]*)\|", body, re.M):
                for name in re.findall(r"`([^`]+)`", first_cell):
                    checked += 1
                    if name not in fields:
                        unknown.append(f"{match.group(1)}.{name}")
        assert checked >= 40, "CONFIG.md field tables not found"
        assert not unknown, (
            f"docs/CONFIG.md documents fields that do not exist: {unknown}"
        )

    def test_fidelity_modes_are_documented(self):
        """The two fidelity values and the forcing rule must be stated."""
        text = (DOCS / "CONFIG.md").read_text(encoding="utf-8")
        for needle in ('`"timing"`', '`"full"`'):
            assert needle in text, f"docs/CONFIG.md lost {needle!r}"


def _walk_parser():
    """Yield (subcommand name, subparser) for every `python -m repro` command."""
    from repro.__main__ import build_parser

    parser = build_parser()
    subactions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert subactions, "build_parser() no longer defines subcommands?"
    for name, subparser in subactions[0].choices.items():
        yield name, subparser


class TestCliDoc:
    @pytest.fixture(scope="class")
    def cli_text(self):
        return (DOCS / "CLI.md").read_text(encoding="utf-8")

    def test_every_subcommand_is_documented(self, cli_text):
        missing = [name for name, _ in _walk_parser() if name not in cli_text]
        assert not missing, f"subcommands undocumented in docs/CLI.md: {missing}"

    def test_documented_sections_and_flags_exist(self, cli_text):
        """The reverse direction: every ``## `name` `` section of CLI.md
        must name a subcommand, and every ``| `--flag` `` row in it a
        flag of that subcommand, so a deleted command or flag cannot
        linger in the docs."""
        flags = {
            name: {
                option
                for action in subparser._actions
                for option in action.option_strings
            }
            for name, subparser in _walk_parser()
        }
        sections = re.split(r"^## (.*)$", cli_text, flags=re.M)
        unknown = []
        checked = 0
        for heading, body in zip(sections[1::2], sections[2::2]):
            match = re.fullmatch(r"`([\w-]+)`", heading.strip())
            if match is None:
                continue
            name = match.group(1)
            if name not in flags:
                unknown.append(name)
                continue
            for flag in re.findall(r"^\| `(--[\w-]+)", body, re.M):
                checked += 1
                if flag not in flags[name]:
                    unknown.append(f"{name} {flag}")
        assert checked >= 20, "CLI.md flag tables not found"
        assert not unknown, (
            f"docs/CLI.md documents commands or flags that do not exist: {unknown}"
        )

    def test_every_experiment_choice_is_documented(self, cli_text):
        """The `run` positional's experiment names (fig13 ...
        fig-channels, fig-recovery) must each be named in CLI.md —
        backticked, as the positional-choices prose lists them."""
        from repro.__main__ import EXPERIMENTS

        assert "fig-channels" in EXPERIMENTS
        missing = [name for name in EXPERIMENTS if f"`{name}`" not in cli_text]
        assert not missing, (
            f"experiments undocumented in docs/CLI.md: {missing}"
        )

    def test_simulate_workload_names_match_registry(self, cli_text):
        """The backticked names in the `simulate` section's
        ``Positional `workload`:`` sentence must be exactly the registered
        workloads, so a deleted workload cannot linger in the docs."""
        from repro.workloads.generator import _REGISTRY

        body = re.split(r"^## `simulate`$", cli_text, flags=re.M)[1]
        sentence = re.search(
            r"^Positional `workload`:(.*?)\.(?:\s|$)", body, re.M | re.S
        )
        assert sentence is not None, "simulate's workload sentence not found"
        documented = re.findall(r"`([\w+-]+)`", sentence.group(1))
        assert sorted(documented) == sorted(_REGISTRY), (
            f"docs/CLI.md simulate workloads {documented} != registry "
            f"{sorted(_REGISTRY)}"
        )

    def test_every_long_flag_is_documented(self, cli_text):
        missing = []
        for name, subparser in _walk_parser():
            for action in subparser._actions:
                for option in action.option_strings:
                    if option.startswith("--") and option not in cli_text:
                        missing.append(f"{name} {option}")
        assert not missing, f"flags undocumented in docs/CLI.md: {missing}"

    def test_every_positional_is_documented(self, cli_text):
        missing = []
        for name, subparser in _walk_parser():
            for action in subparser._actions:
                if action.option_strings or isinstance(
                    action, argparse._SubParsersAction
                ):
                    continue
                if action.dest not in cli_text:
                    missing.append(f"{name} {action.dest}")
        assert not missing, f"positionals undocumented in docs/CLI.md: {missing}"


class TestMarkdownLinks:
    def test_all_intra_repo_links_resolve(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "check_links", REPO_ROOT / "tools" / "check_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        status = module.main(REPO_ROOT)
        output = capsys.readouterr().out
        assert status == 0, f"broken markdown links:\n{output}"
