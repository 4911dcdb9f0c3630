"""Design-space auto-tuner: an ArchGym-style search loop over SimConfig.

The simulator is fast (recorded cache walks replayed per scheme),
parallel and resumable (supervised runner pool + content-digest
journal), and carries a validated closed-form surrogate. This module turns that substrate into a *search*
subsystem: a gym-like explore loop that optimizes a fitness over a typed
space of :class:`~repro.common.config.SimConfig` knobs, per workload mix.

Shape of one run (``repro tune``):

* **Search space** — :data:`SEARCH_SPACE` names six hardware knobs
  (counter-cache size, write-queue depth, drain hysteresis, bank count,
  channel count, bank layout), each a :class:`Knob` that knows its
  discrete choices, how to *apply* a value onto a ``SimConfig``, and how
  to *read* the baseline value back out of one. The full grid is ~3.8 k
  points; the tuner samples it under a step budget.
* **Baseline first** — step 0 always evaluates the default experiment
  configuration (:func:`~repro.experiments.common.experiment_base_config`,
  i.e. the exact config every point of the default fig13 grid runs), so
  the best-found fitness can never be worse than the stock geometry and
  the improvement ratio is always well-defined.
* **Strategies** — :class:`RandomStrategy`, :class:`HillClimbStrategy`
  and :class:`EvolutionaryStrategy` implement the tiny :class:`Strategy`
  protocol (``propose(rng, history)``). All randomness flows through one
  seeded ``random.Random``, so a (seed, strategy, budget, mix) tuple
  fully determines the trajectory.
* **Evaluation** — each candidate becomes one
  :class:`~repro.experiments.runner.PointSpec` per workload in the mix
  and runs through :func:`~repro.experiments.runner.run_points_report`
  with the shared journal, inheriting the pool's timeouts, retries,
  ``--jobs`` fan-out and crash-exact resume: a tuner killed mid-search
  and re-run with the same journal replays finished evaluations from
  disk (``executed_points == 0`` for the replayed prefix) and lands on a
  bit-identical trajectory digest.
* **Surrogate screening** — with ``--surrogate-first`` an online linear
  model over *knob* features (:class:`SurrogateScreen`), optionally
  anchored on the PR-7 trace surrogate's run-time prediction, prunes
  candidates predicted worse than ``best * margin`` before paying for
  simulation. Measured-vs-anchor residuals are logged per accepted point
  (``repro_tune_surrogate_residual_ratio``). The PR-7 model's features
  are trace-static — config-independent by construction — so it supplies
  the *level*; the online model supplies the knob *deltas* (see
  ``docs/TUNING.md`` for the caveats).
* **Trajectory** — every step appends one JSONL record to the trajectory
  file (kind ``tune_step``; header ``tune_header``; final summary
  ``tune_result``), and :func:`trajectory_digest` hashes the
  (step, candidate, fitness, pruned) projection — wall-clock and resume
  counts are excluded, so interrupted-then-resumed runs digest
  identically to uninterrupted ones. ``repro tune-report`` renders best
  point, fitness-vs-budget curve and times-to-completion from this file
  alone.

Observability: :class:`TunerMetrics` publishes the ``repro_tune_*``
families (docs-drift guarded against ``docs/OBSERVABILITY.md``), and
steps emit ``CAT_TUNER`` events (``tune_step`` / ``tune_prune`` /
``tune_improve`` / ``tune_result``) through the registry's event stream
and :meth:`TuneResult.trace_events`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, SweepError
from repro.core.schemes import Scheme
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import PointSpec, run_points_report
from repro.obs.events import (
    CAT_TUNER,
    TRACK_TUNER,
    TUNER_EV_IMPROVE,
    TUNER_EV_PRUNE,
    TUNER_EV_RESULT,
    TUNER_EV_STEP,
    TraceEvent,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sim.metrics import SimResult
from repro.sim.surrogate import _fit_ols

CACHE_LINE = 64

#: Step-budget presets (candidate evaluations, baseline included).
TUNE_BUDGETS = {"small": 8, "medium": 24, "large": 64}

#: Fitness vocabulary (all minimized). ``run_time_ns`` sums simulated
#: run time over the mix; ``bytes_per_persist`` is NVM write traffic per
#: application byte persisted (surviving writes x 64 B / data writes);
#: ``weighted`` blends both, each normalized to the step-0 baseline.
FITNESS_NAMES = ("run_time_ns", "bytes_per_persist", "weighted")

#: Strategy vocabulary accepted by :func:`make_strategy` / ``--strategy``.
STRATEGY_NAMES = ("random", "hillclimb", "evolutionary")


# ----------------------------------------------------------------------
# Search space
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One tunable dimension of the config search space.

    ``apply`` grafts a choice onto a ``SimConfig`` (returning a new
    frozen config); ``read`` recovers the knob's value from a config so
    the baseline candidate can be expressed in knob coordinates.
    ``field`` names the underlying ``SimConfig`` path(s) for the docs
    table (drift-guarded by ``tests/test_docs_drift.py``).
    """

    name: str
    field: str
    choices: Tuple[object, ...]
    apply: Callable[[SimConfig, object], SimConfig]
    read: Callable[[SimConfig], object]


def _replace_memory(config: SimConfig, **kwargs) -> SimConfig:
    return dataclasses.replace(
        config, memory=dataclasses.replace(config.memory, **kwargs)
    )


def _apply_counter_cache(config: SimConfig, kb: object) -> SimConfig:
    size = int(kb) << 10
    # Same associativity rule the fig17 sweep uses (experiment_base_config).
    assoc = min(8, max(1, size // CACHE_LINE))
    return dataclasses.replace(
        config,
        counter_cache=dataclasses.replace(
            config.counter_cache, size=size, assoc=assoc
        ),
    )


def _apply_wq(config: SimConfig, entries: object) -> SimConfig:
    # Reset watermarks to the depth-derived defaults; the hysteresis knob
    # (applied after this one — SEARCH_SPACE order matters) re-derives
    # them against the new depth.
    return _replace_memory(
        config,
        write_queue_entries=int(entries),
        wq_high_watermark=None,
        wq_low_watermark=None,
    )


#: Named drain-hysteresis presets as (high, low) fractions of WQ depth.
#: ``default`` keeps the controller's own derivation (3d/4, d/4).
HYSTERESIS_PRESETS = {
    "default": None,
    "eager": (0.5, 0.125),
    "deep": (0.875, 0.125),
    "narrow": (0.75, 0.625),
}


def _apply_hysteresis(config: SimConfig, name: object) -> SimConfig:
    fracs = HYSTERESIS_PRESETS[str(name)]
    if fracs is None:
        return _replace_memory(
            config, wq_high_watermark=None, wq_low_watermark=None
        )
    depth = config.memory.write_queue_entries
    high = max(1, int(depth * fracs[0]))
    low = max(0, int(depth * fracs[1]))
    if low >= high:  # tiny queues: keep the controller's invariant
        low = high - 1
    return _replace_memory(config, wq_high_watermark=high, wq_low_watermark=low)


def _read_hysteresis(config: SimConfig) -> str:
    if config.memory.wq_high_watermark is None:
        return "default"
    depth = config.memory.write_queue_entries
    for name, fracs in HYSTERESIS_PRESETS.items():
        if fracs is None:
            continue
        if (
            config.memory.wq_high_watermark == max(1, int(depth * fracs[0]))
            and config.memory.wq_low_watermark
            in (max(0, int(depth * fracs[1])), max(1, int(depth * fracs[0])) - 1)
        ):
            return name
    return "default"


#: The typed search space, in application order (WQ depth before
#: hysteresis: the watermark presets are fractions of the final depth).
#: Full grid: 7 x 5 x 4 x 3 x 3 x 3 = 3780 candidate configurations.
SEARCH_SPACE: Tuple[Knob, ...] = (
    Knob(
        name="counter_cache_kb",
        field="counter_cache.size (+ assoc)",
        choices=(1, 2, 4, 8, 16, 64, 256),
        apply=_apply_counter_cache,
        read=lambda config: config.counter_cache.size >> 10,
    ),
    Knob(
        name="wq_entries",
        field="memory.write_queue_entries",
        choices=(8, 16, 32, 64, 128),
        apply=_apply_wq,
        read=lambda config: config.memory.write_queue_entries,
    ),
    Knob(
        name="drain_hysteresis",
        field="memory.wq_high_watermark / wq_low_watermark",
        choices=tuple(HYSTERESIS_PRESETS),
        apply=_apply_hysteresis,
        read=_read_hysteresis,
    ),
    Knob(
        name="n_banks",
        field="memory.n_banks",
        choices=(4, 8, 16),
        apply=lambda config, v: _replace_memory(config, n_banks=int(v)),
        read=lambda config: config.memory.n_banks,
    ),
    Knob(
        name="n_channels",
        field="memory.n_channels",
        choices=(1, 2, 4),
        apply=lambda config, v: _replace_memory(config, n_channels=int(v)),
        read=lambda config: config.memory.n_channels,
    ),
    Knob(
        name="layout",
        field="memory.bank_mapping",
        choices=("page", "line", "contiguous"),
        apply=lambda config, v: _replace_memory(config, bank_mapping=str(v)),
        read=lambda config: config.memory.bank_mapping,
    ),
)

KNOBS = {knob.name: knob for knob in SEARCH_SPACE}

Candidate = Dict[str, object]


def candidate_key(candidate: Candidate) -> Tuple[Tuple[str, object], ...]:
    """Hashable canonical form (for dedup sets and digests)."""
    return tuple(sorted(candidate.items()))


def baseline_candidate(base: SimConfig) -> Candidate:
    """The base config expressed in knob coordinates."""
    return {knob.name: knob.read(base) for knob in SEARCH_SPACE}


def candidate_config(base: SimConfig, candidate: Candidate) -> SimConfig:
    """Apply a candidate onto ``base``; raises ``ConfigError`` if the
    combination violates a config invariant (e.g. banks % channels)."""
    config = base
    for knob in SEARCH_SPACE:  # application order matters (wq -> hysteresis)
        config = knob.apply(config, candidate[knob.name])
    return config


def candidate_valid(base: SimConfig, candidate: Candidate) -> bool:
    try:
        candidate_config(base, candidate)
    except ConfigError:
        return False
    return True


def describe_candidate(candidate: Candidate, baseline: Candidate) -> str:
    """Compact human label: only the knobs that differ from baseline."""
    diff = [
        f"{name}={candidate[name]}"
        for name in (k.name for k in SEARCH_SPACE)
        if candidate[name] != baseline[name]
    ]
    return "{" + " ".join(diff) + "}" if diff else "{baseline}"


# ----------------------------------------------------------------------
# Fitness
# ----------------------------------------------------------------------


def measure_results(results: Sequence[SimResult]) -> Tuple[float, float]:
    """(summed run time ns, bytes written to NVM per persisted byte)."""
    run_time = float(sum(r.total_time_ns for r in results))
    surviving = sum(r.surviving_writes for r in results)
    data = sum(r.data_writes for r in results)
    bytes_per_persist = (
        surviving * CACHE_LINE / data if data else float(surviving * CACHE_LINE)
    )
    return run_time, bytes_per_persist


def fitness_value(
    fitness: str,
    run_time_ns: float,
    bytes_per_persist: float,
    baseline: Optional[Tuple[float, float]],
    weight: float,
) -> float:
    """One scalar to minimize. ``weighted`` normalizes each component to
    the step-0 baseline measurement so the two scales are commensurate."""
    if fitness == "run_time_ns":
        return run_time_ns
    if fitness == "bytes_per_persist":
        return bytes_per_persist
    if fitness == "weighted":
        if baseline is None:  # step 0: defined to be exactly 1.0
            return 1.0
        base_rt, base_bpp = baseline
        rt_norm = run_time_ns / base_rt if base_rt else 1.0
        bpp_norm = bytes_per_persist / base_bpp if base_bpp else 1.0
        return weight * rt_norm + (1.0 - weight) * bpp_norm
    raise ConfigError(
        f"unknown fitness {fitness!r}; expected one of {FITNESS_NAMES}"
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


class Strategy:
    """The pluggable search-strategy protocol.

    ``propose`` sees the ordered list of *measured* steps so far (pruned
    steps excluded — they carry no fitness signal) and returns the next
    candidate. It must draw all randomness from ``rng`` so trajectories
    are a pure function of the seed.
    """

    name = "strategy"

    def propose(self, rng, history: Sequence["TuneStep"]) -> Candidate:
        raise NotImplementedError


def _best_step(history: Sequence["TuneStep"]) -> Optional["TuneStep"]:
    measured = [s for s in history if s.fitness is not None]
    if not measured:
        return None
    return min(measured, key=lambda s: (s.fitness, s.step))


class RandomStrategy(Strategy):
    """Uniform independent sampling of every knob."""

    name = "random"

    def propose(self, rng, history: Sequence["TuneStep"]) -> Candidate:
        return {knob.name: rng.choice(knob.choices) for knob in SEARCH_SPACE}


class HillClimbStrategy(Strategy):
    """Mutate one knob of the best point found so far."""

    name = "hillclimb"

    def propose(self, rng, history: Sequence["TuneStep"]) -> Candidate:
        best = _best_step(history)
        if best is None:
            return RandomStrategy().propose(rng, history)
        candidate = dict(best.candidate)
        knob = rng.choice(SEARCH_SPACE)
        alternatives = [c for c in knob.choices if c != candidate[knob.name]]
        candidate[knob.name] = rng.choice(alternatives or list(knob.choices))
        return candidate


class EvolutionaryStrategy(Strategy):
    """(mu + crossover + mutation) over an elite pool.

    Two parents drawn from the ``elite`` best measured points, uniform
    per-knob crossover, then independent per-knob mutation with
    probability ``mutate_p``. Degenerates to random sampling until two
    points have been measured.
    """

    name = "evolutionary"

    def __init__(self, elite: int = 4, mutate_p: float = 0.25):
        self.elite = elite
        self.mutate_p = mutate_p

    def propose(self, rng, history: Sequence["TuneStep"]) -> Candidate:
        measured = [s for s in history if s.fitness is not None]
        if len(measured) < 2:
            return RandomStrategy().propose(rng, history)
        pool = sorted(measured, key=lambda s: (s.fitness, s.step))[: self.elite]
        a = rng.choice(pool).candidate
        b = rng.choice(pool).candidate
        child: Candidate = {}
        for knob in SEARCH_SPACE:
            child[knob.name] = (a if rng.random() < 0.5 else b)[knob.name]
            if rng.random() < self.mutate_p:
                child[knob.name] = rng.choice(knob.choices)
        return child


def make_strategy(name: Union[str, Strategy]) -> Strategy:
    if isinstance(name, Strategy):
        return name
    try:
        return {
            "random": RandomStrategy,
            "hillclimb": HillClimbStrategy,
            "evolutionary": EvolutionaryStrategy,
        }[name]()
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
        ) from None


def _propose_candidate(
    strategy: Strategy,
    rng,
    history: Sequence["TuneStep"],
    base: SimConfig,
    seen: set,
    attempts: int = 32,
) -> Candidate:
    """Draw a valid, preferably-unseen candidate (bounded rejection).

    Re-proposing an already-evaluated point is not an error — the journal
    makes repeats nearly free — but fresh points explore more per step,
    so duplicates are rejected for ``attempts`` draws before giving up.
    """
    fallback: Optional[Candidate] = None
    for _ in range(attempts):
        candidate = strategy.propose(rng, history)
        if not candidate_valid(base, candidate):
            continue
        if candidate_key(candidate) in seen:
            fallback = candidate
            continue
        return candidate
    if fallback is None:
        raise ConfigError(
            f"strategy {strategy.name!r} proposed no valid candidate "
            f"in {attempts} draws"
        )
    return fallback


# ----------------------------------------------------------------------
# Surrogate screening
# ----------------------------------------------------------------------


class SurrogateScreen:
    """Online knob-feature fitness model used to prune candidates.

    The PR-7 surrogate predicts run time from *trace-static* features —
    deliberately config-independent — so it cannot rank two configs of
    the same workload by itself. The screen therefore splits the job:
    an optional ``anchor`` (the PR-7 model summed over the mix) carries
    the workload/scheme level, and a small ridge-stabilised linear model
    over knob features (fit with the same :func:`_fit_ols` the surrogate
    uses) learns the config deltas from the points measured so far.
    Predictions start after ``min_train`` measurements; a candidate is
    pruned when its predicted fitness exceeds ``best * margin``.
    """

    FEATURE_NAMES = (
        "intercept",
        "log2_counter_cache_kb",
        "log2_wq_entries",
        "log2_n_banks",
        "log2_n_channels",
        "wq_high_frac",
        "wq_low_frac",
        "layout_line",
        "layout_contiguous",
    )

    def __init__(
        self,
        anchor: Optional[Callable[[Candidate], float]] = None,
        margin: float = 1.25,
        min_train: int = 6,
    ):
        self.anchor = anchor
        self.margin = margin
        self.min_train = min_train
        self._rows: List[List[float]] = []
        self._targets: List[float] = []
        self._coef: Optional[List[float]] = None

    def features(self, candidate: Candidate) -> List[float]:
        import math

        fracs = HYSTERESIS_PRESETS[str(candidate["drain_hysteresis"])]
        high, low = fracs if fracs is not None else (0.75, 0.25)
        layout = candidate["layout"]
        return [
            1.0,
            math.log2(float(candidate["counter_cache_kb"])),
            math.log2(float(candidate["wq_entries"])),
            math.log2(float(candidate["n_banks"])),
            math.log2(float(candidate["n_channels"])),
            high,
            low,
            1.0 if layout == "line" else 0.0,
            1.0 if layout == "contiguous" else 0.0,
        ]

    def observe(self, candidate: Candidate, fitness: float) -> None:
        anchor = self.anchor(candidate) if self.anchor is not None else 0.0
        self._rows.append(self.features(candidate))
        self._targets.append(fitness - anchor)
        self._coef = None  # refit lazily on next predict

    def predict(self, candidate: Candidate) -> Optional[float]:
        if len(self._rows) < self.min_train:
            return None
        if self._coef is None:
            self._coef = _fit_ols(self._rows, self._targets)
        anchor = self.anchor(candidate) if self.anchor is not None else 0.0
        row = self.features(candidate)
        return anchor + sum(c * x for c, x in zip(self._coef, row))

    def should_prune(
        self, candidate: Candidate, best_fitness: Optional[float]
    ) -> Tuple[bool, Optional[float]]:
        predicted = self.predict(candidate)
        if predicted is None or best_fitness is None:
            return False, predicted
        return predicted > best_fitness * self.margin, predicted


def build_anchor(
    model, specs_for: Callable[[Candidate], List[PointSpec]], fitness: str
) -> Optional[Callable[[Candidate], float]]:
    """Anchor function from a loaded PR-7 :class:`SurrogateModel`.

    Only meaningful for the run-time fitness (that is what the model
    predicts). The model's features are trace-static, so the anchor is a
    constant per mix — it sets the level the online model corrects, and
    its measured-vs-predicted residuals quantify how far the search has
    wandered from the surrogate's training geometry.
    """
    if model is None or fitness != "run_time_ns":
        return None
    from repro.sim.surrogate import predict_spec

    def anchor(candidate: Candidate) -> float:
        return float(sum(predict_spec(model, s) for s in specs_for(candidate)))

    return anchor


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

#: The tuner's metric vocabulary. Docs-drift guarded: every name must
#: appear (in backticks) in ``docs/OBSERVABILITY.md``, and the tuple must
#: equal the families :class:`TunerMetrics` declares.
TUNER_METRIC_NAMES = (
    "repro_tune_steps_total",
    "repro_tune_best_fitness",
    "repro_tune_improvements_total",
    "repro_tune_step_wall_seconds",
    "repro_tune_surrogate_residual_ratio",
)

_STEP_WALL_BOUNDS = tuple(
    mag * mult for mag in (0.01, 0.1, 1.0, 10.0, 100.0) for mult in (1, 2, 5)
)


class TunerMetrics:
    """Typed handles on the ``repro_tune_*`` families."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.enabled = registry.enabled
        self.steps = registry.counter(
            "repro_tune_steps_total",
            "Search steps finished, by outcome.",
            labels=("outcome",),  # measured / pruned
        )
        self.best = registry.gauge(
            "repro_tune_best_fitness",
            "Best (lowest) fitness found so far.",
            merge="min",
        )
        self.improvements = registry.counter(
            "repro_tune_improvements_total",
            "Steps that improved on the best fitness so far.",
        )
        self.step_wall = registry.histogram(
            "repro_tune_step_wall_seconds",
            "Per-step wall time (candidate evaluation) in seconds.",
            bounds=_STEP_WALL_BOUNDS,
        )
        self.residual = registry.histogram(
            "repro_tune_surrogate_residual_ratio",
            "Per accepted point: |measured - surrogate prediction| / measured.",
            bounds=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0),
        )

    def event(self, kind: str, **fields: object) -> None:
        self.registry.event(kind, **fields)


# ----------------------------------------------------------------------
# Trajectory records
# ----------------------------------------------------------------------


@dataclass
class TuneStep:
    """One search step (either measured or surrogate-pruned)."""

    step: int
    candidate: Candidate
    #: Fitness (lower = better); ``None`` for pruned steps.
    fitness: Optional[float]
    run_time_ns: Optional[float]
    bytes_per_persist: Optional[float]
    #: Screen prediction for this candidate, when one was available.
    predicted: Optional[float]
    #: PR-7 surrogate anchor prediction (run-time ns), when configured.
    anchor_ns: Optional[float]
    pruned: bool
    best_fitness: Optional[float]
    wall_s: float
    #: Points satisfied from / executed past the journal this step.
    resumed_points: int
    executed_points: int

    def content(self) -> List[object]:
        """Digest projection: what the search *decided*, not how long it
        took — excludes wall-clock and resume counts so an interrupted
        and resumed run digests identically to an uninterrupted one."""
        return [
            self.step,
            sorted((k, v) for k, v in self.candidate.items()),
            self.fitness,
            self.pruned,
        ]

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": "tune_step",
            "step": self.step,
            "candidate": dict(sorted(self.candidate.items())),
            "fitness": self.fitness,
            "run_time_ns": self.run_time_ns,
            "bytes_per_persist": self.bytes_per_persist,
            "predicted": self.predicted,
            "anchor_ns": self.anchor_ns,
            "pruned": self.pruned,
            "best_fitness": self.best_fitness,
            "wall_s": self.wall_s,
            "resumed_points": self.resumed_points,
            "executed_points": self.executed_points,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "TuneStep":
        return cls(
            step=record["step"],  # type: ignore[arg-type]
            candidate=dict(record["candidate"]),  # type: ignore[arg-type]
            fitness=record.get("fitness"),  # type: ignore[arg-type]
            run_time_ns=record.get("run_time_ns"),  # type: ignore[arg-type]
            bytes_per_persist=record.get("bytes_per_persist"),  # type: ignore[arg-type]
            predicted=record.get("predicted"),  # type: ignore[arg-type]
            anchor_ns=record.get("anchor_ns"),  # type: ignore[arg-type]
            pruned=bool(record.get("pruned")),
            best_fitness=record.get("best_fitness"),  # type: ignore[arg-type]
            wall_s=float(record.get("wall_s", 0.0)),  # type: ignore[arg-type]
            resumed_points=int(record.get("resumed_points", 0)),  # type: ignore[arg-type]
            executed_points=int(record.get("executed_points", 0)),  # type: ignore[arg-type]
        )


def trajectory_digest(steps: Sequence[TuneStep]) -> str:
    """sha256 over the canonical decision content of a trajectory."""
    payload = json.dumps([s.content() for s in steps], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class TuneResult:
    """Everything one ``tune()`` run decided, plus its accounting."""

    workloads: Tuple[str, ...]
    scheme: Scheme
    scale: str
    strategy: str
    fitness: str
    seed: int
    budget: int
    steps: List[TuneStep] = field(default_factory=list)
    best_step: int = 0
    best_candidate: Candidate = field(default_factory=dict)
    best_fitness: float = 0.0
    baseline_fitness: float = 0.0
    best_config: Optional[SimConfig] = None
    wall_s: float = 0.0
    executed_points: int = 0
    resumed_points: int = 0
    pruned_steps: int = 0
    journal_path: Optional[str] = None
    trajectory_path: Optional[str] = None

    @property
    def digest(self) -> str:
        return trajectory_digest(self.steps)

    @property
    def improvement(self) -> float:
        """baseline / best (>= 1.0 by construction: step 0 is baseline)."""
        if not self.best_fitness:
            return 1.0
        return self.baseline_fitness / self.best_fitness

    def recommended(self) -> Dict[str, object]:
        """The RECOMMENDED_CONFIG.json payload."""
        config = self.best_config
        return {
            "kind": "supermem-recommended-config",
            "fitness": self.fitness,
            "best_fitness": self.best_fitness,
            "baseline_fitness": self.baseline_fitness,
            "improvement": self.improvement,
            "best_step": self.best_step,
            "candidate": dict(sorted(self.best_candidate.items())),
            "config": {
                "counter_cache_size": config.counter_cache.size,
                "counter_cache_assoc": config.counter_cache.assoc,
                "write_queue_entries": config.memory.write_queue_entries,
                "wq_high_watermark": config.memory.wq_high_watermark,
                "wq_low_watermark": config.memory.wq_low_watermark,
                "n_banks": config.memory.n_banks,
                "n_channels": config.memory.n_channels,
                "bank_mapping": config.memory.bank_mapping,
            }
            if config is not None
            else {},
            "search": {
                "strategy": self.strategy,
                "seed": self.seed,
                "budget": self.budget,
                "scale": self.scale,
                "workloads": list(self.workloads),
                "scheme": self.scheme.value,
            },
            "steps": len(self.steps),
            "pruned_steps": self.pruned_steps,
            "executed_points": self.executed_points,
            "resumed_points": self.resumed_points,
            "trajectory_digest": self.digest,
        }

    def result_record(self) -> Dict[str, object]:
        """The trailing ``tune_result`` trajectory record."""
        return {
            "kind": "tune_result",
            "best_step": self.best_step,
            "best_candidate": dict(sorted(self.best_candidate.items())),
            "best_fitness": self.best_fitness,
            "baseline_fitness": self.baseline_fitness,
            "improvement": self.improvement,
            "digest": self.digest,
            "wall_s": self.wall_s,
            "executed_points": self.executed_points,
            "resumed_points": self.resumed_points,
            "pruned_steps": self.pruned_steps,
        }

    def trace_events(self) -> List[TraceEvent]:
        """``CAT_TUNER`` instants for Chrome-trace export."""
        events: List[TraceEvent] = []
        clock = 0.0
        best: Optional[float] = None
        for step in self.steps:
            clock += step.wall_s * 1e9
            name = TUNER_EV_PRUNE if step.pruned else TUNER_EV_STEP
            if step.fitness is not None and (best is None or step.fitness < best):
                best = step.fitness
                name = TUNER_EV_IMPROVE if step.step > 0 else name
            events.append(
                TraceEvent(
                    cat=CAT_TUNER,
                    name=name,
                    track=TRACK_TUNER,
                    ts=clock,
                    args={
                        "step": step.step,
                        "fitness": step.fitness,
                        "best": step.best_fitness,
                    },
                )
            )
        events.append(
            TraceEvent(
                cat=CAT_TUNER,
                name=TUNER_EV_RESULT,
                track=TRACK_TUNER,
                ts=clock,
                args={
                    "best_step": self.best_step,
                    "best_fitness": self.best_fitness,
                    "improvement": self.improvement,
                },
            )
        )
        return events


class _TrajectoryWriter:
    """Append-per-step JSONL writer (flushed so a SIGKILL loses at most
    the in-flight step; ``tune-report`` tolerates the torn tail)."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record: Dict[str, object]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# The search loop
# ----------------------------------------------------------------------


def resolve_budget(budget: Union[int, str]) -> int:
    if isinstance(budget, str):
        if budget in TUNE_BUDGETS:
            return TUNE_BUDGETS[budget]
        try:
            budget = int(budget)
        except ValueError:
            raise ConfigError(
                f"unknown budget {budget!r}; expected an integer or one of "
                f"{sorted(TUNE_BUDGETS)}"
            ) from None
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    return budget


def tune(
    workloads: Sequence[str],
    scheme: Scheme = Scheme.SUPERMEM,
    budget: Union[int, str] = "small",
    strategy: Union[str, Strategy] = "hillclimb",
    fitness: str = "run_time_ns",
    weight: float = 0.5,
    seed: int = 1,
    scale: Union[str, Scale] = "smoke",
    request_size: int = 1024,
    jobs: int = 1,
    journal: Optional[Union[str, SweepJournal]] = None,
    surrogate_model=None,
    surrogate_first: bool = False,
    prune_margin: float = 1.25,
    screen_min_train: int = 6,
    trajectory: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: bool = True,
) -> TuneResult:
    """Run one budgeted search; returns the full :class:`TuneResult`.

    Deterministic: (workloads, scheme, scale, budget, strategy, fitness,
    weight, seed, request_size, surrogate settings) fully determine the
    trajectory digest — ``jobs`` and ``journal`` affect only wall clock
    and resume accounting, never decisions.
    """
    if fitness not in FITNESS_NAMES:
        raise ConfigError(
            f"unknown fitness {fitness!r}; expected one of {FITNESS_NAMES}"
        )
    workloads = tuple(workloads)
    if not workloads:
        raise ConfigError("tune needs at least one workload")
    budget = resolve_budget(budget)
    strat = make_strategy(strategy)
    scale_obj = scale if isinstance(scale, Scale) else get_scale(scale)
    base = experiment_base_config(scale_obj)
    if isinstance(journal, str):
        journal = SweepJournal(journal)
    registry = metrics if metrics is not None else NULL_METRICS
    tm = TunerMetrics(registry)

    import random as _random

    rng = _random.Random(seed)

    def specs_for(candidate: Candidate) -> List[PointSpec]:
        config = candidate_config(base, candidate)
        return [
            PointSpec(
                workload=workload,
                scheme=scheme,
                n_ops=scale_obj.n_ops,
                request_size=request_size,
                footprint=scale_obj.footprint,
                base_config=config,
                seed=seed,
            )
            for workload in workloads
        ]

    screen: Optional[SurrogateScreen] = None
    anchor = None
    if surrogate_first:
        anchor = build_anchor(surrogate_model, specs_for, fitness)
        screen = SurrogateScreen(
            anchor=anchor, margin=prune_margin, min_train=screen_min_train
        )

    result = TuneResult(
        workloads=workloads,
        scheme=scheme,
        scale=scale_obj.name,
        strategy=strat.name,
        fitness=fitness,
        seed=seed,
        budget=budget,
        journal_path=journal.path if journal is not None else None,
        trajectory_path=trajectory,
    )
    writer = _TrajectoryWriter(trajectory) if trajectory else None
    if writer is not None:
        writer.write(
            {
                "kind": "tune_header",
                "workloads": list(workloads),
                "scheme": scheme.value,
                "scale": scale_obj.name,
                "strategy": strat.name,
                "fitness": fitness,
                "weight": weight,
                "seed": seed,
                "budget": budget,
                "request_size": request_size,
                "surrogate_first": surrogate_first,
                "prune_margin": prune_margin,
                "search_space": {k.name: list(k.choices) for k in SEARCH_SPACE},
            }
        )

    base_candidate = baseline_candidate(base)
    seen: set = set()
    measured: List[TuneStep] = []
    baseline_measure: Optional[Tuple[float, float]] = None
    best_fitness: Optional[float] = None
    started = time.perf_counter()

    try:
        for step_index in range(budget):
            step_started = time.perf_counter()
            if step_index == 0:
                # Baseline first: the stock geometry every default fig13
                # point runs, so best-found can never regress it.
                candidate = dict(base_candidate)
            else:
                candidate = _propose_candidate(
                    strat, rng, measured, base, seen
                )
            seen.add(candidate_key(candidate))

            predicted: Optional[float] = None
            pruned = False
            if screen is not None and step_index > 0:
                pruned, predicted = screen.should_prune(candidate, best_fitness)

            anchor_ns = anchor(candidate) if anchor is not None else None

            if pruned:
                step = TuneStep(
                    step=step_index,
                    candidate=candidate,
                    fitness=None,
                    run_time_ns=None,
                    bytes_per_persist=None,
                    predicted=predicted,
                    anchor_ns=anchor_ns,
                    pruned=True,
                    best_fitness=best_fitness,
                    wall_s=time.perf_counter() - step_started,
                    resumed_points=0,
                    executed_points=0,
                )
                result.steps.append(step)
                result.pruned_steps += 1
                tm.steps.labels("pruned").inc()
                if tm.enabled:
                    tm.event(
                        TUNER_EV_PRUNE,
                        step=step_index,
                        predicted=predicted,
                        best=best_fitness,
                    )
                if writer is not None:
                    writer.write(step.to_record())
                if progress:
                    print(
                        f"[tune] step {step_index + 1}/{budget} "
                        f"{describe_candidate(candidate, base_candidate)} "
                        f"pruned (predicted={predicted:.3g} "
                        f"best={best_fitness:.3g})",
                        file=sys.stderr,
                    )
                continue

            specs = specs_for(candidate)
            results, report = run_points_report(
                specs,
                jobs=jobs,
                label=f"tune[{step_index}]",
                progress=lambda done, total: None,
                journal=journal,
                metrics=registry,
            )
            if report.failures:
                raise SweepError(report.failures)
            run_time_ns, bytes_per_persist = measure_results(
                [r for r in results if r is not None]
            )
            fit = fitness_value(
                fitness, run_time_ns, bytes_per_persist, baseline_measure, weight
            )
            if step_index == 0:
                baseline_measure = (run_time_ns, bytes_per_persist)
                result.baseline_fitness = fit

            if screen is not None:
                screen.observe(candidate, fit)
            if anchor_ns is not None and run_time_ns:
                residual = abs(run_time_ns - anchor_ns) / run_time_ns
                tm.residual.observe(residual)

            improved = best_fitness is None or fit < best_fitness
            if improved:
                best_fitness = fit
                result.best_step = step_index
                result.best_candidate = dict(candidate)
                result.best_fitness = fit
                result.best_config = candidate_config(base, candidate)
                if step_index > 0:
                    tm.improvements.inc()
                    if tm.enabled:
                        tm.event(
                            TUNER_EV_IMPROVE,
                            step=step_index,
                            fitness=fit,
                        )

            executed = report.n_points - report.resumed - len(report.failures)
            step = TuneStep(
                step=step_index,
                candidate=candidate,
                fitness=fit,
                run_time_ns=run_time_ns,
                bytes_per_persist=bytes_per_persist,
                predicted=predicted,
                anchor_ns=anchor_ns,
                pruned=False,
                best_fitness=best_fitness,
                wall_s=time.perf_counter() - step_started,
                resumed_points=report.resumed,
                executed_points=executed,
            )
            result.steps.append(step)
            measured.append(step)
            result.resumed_points += report.resumed
            result.executed_points += executed
            tm.steps.labels("measured").inc()
            tm.best.set(best_fitness)
            tm.step_wall.observe(step.wall_s)
            if tm.enabled:
                tm.event(
                    TUNER_EV_STEP,
                    step=step_index,
                    fitness=fit,
                    best=best_fitness,
                    resumed=report.resumed,
                )
            if writer is not None:
                writer.write(step.to_record())
            if progress:
                marker = " *" if improved and step_index > 0 else ""
                resumed_note = (
                    f" resumed={report.resumed}" if report.resumed else ""
                )
                print(
                    f"[tune] step {step_index + 1}/{budget} "
                    f"{describe_candidate(candidate, base_candidate)} "
                    f"fitness={fit:.6g} best={best_fitness:.6g}"
                    f"{resumed_note}{marker}",
                    file=sys.stderr,
                )

        result.wall_s = time.perf_counter() - started
        if writer is not None:
            writer.write(result.result_record())
            if tm.enabled:
                tm.event(TUNER_EV_RESULT, **{
                    k: v
                    for k, v in result.result_record().items()
                    if k not in ("kind", "best_candidate")
                })
    finally:
        if writer is not None:
            writer.close()
    return result


# ----------------------------------------------------------------------
# Reporting (from the trajectory file alone)
# ----------------------------------------------------------------------


def load_trajectory(
    path: str,
) -> Tuple[Dict[str, object], List[TuneStep], Optional[Dict[str, object]]]:
    """(header, steps, result-record-or-None) from a trajectory JSONL.

    Tolerates a torn tail (a SIGKILL mid-append) the same way the sweep
    journal does: undecodable lines are dropped, so the trajectory of a
    killed run still renders.
    """
    header: Dict[str, object] = {}
    steps: List[TuneStep] = []
    final: Optional[Dict[str, object]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail
            kind = record.get("kind")
            if kind == "tune_header":
                header = record
            elif kind == "tune_step":
                steps.append(TuneStep.from_record(record))
            elif kind == "tune_result":
                final = record
    return header, steps, final


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def render_tune_report(
    header: Dict[str, object],
    steps: Sequence[TuneStep],
    final: Optional[Dict[str, object]],
    top: int = 5,
) -> str:
    """Markdown report: best point, trajectory, times-to-completion."""
    lines: List[str] = []
    strategy = header.get("strategy", "?")
    fitness = header.get("fitness", "?")
    workloads = "+".join(header.get("workloads", []) or ["?"])
    lines.append("# Tune report")
    lines.append("")
    lines.append(
        f"strategy `{strategy}` · fitness `{fitness}` · mix `{workloads}` · "
        f"scheme `{header.get('scheme', '?')}` · scale "
        f"`{header.get('scale', '?')}` · seed {header.get('seed', '?')} · "
        f"budget {header.get('budget', len(steps))}"
    )
    lines.append("")

    measured = [s for s in steps if s.fitness is not None]
    pruned = [s for s in steps if s.pruned]
    if not measured:
        lines.append("No measured steps in the trajectory.")
        return "\n".join(lines)

    best = min(measured, key=lambda s: (s.fitness, s.step))
    baseline = measured[0]
    improvement = (
        baseline.fitness / best.fitness if best.fitness else 1.0
    )

    lines.append("## Best point")
    lines.append("")
    lines.append(
        f"step {best.step} · fitness {_fmt(best.fitness)} "
        f"(baseline {_fmt(baseline.fitness)}, {improvement:.3f}x)"
    )
    lines.append("")
    lines.append("| knob | best | baseline |")
    lines.append("|---|---|---|")
    for knob in SEARCH_SPACE:
        lines.append(
            f"| `{knob.name}` | {best.candidate.get(knob.name)} "
            f"| {baseline.candidate.get(knob.name)} |"
        )
    lines.append("")

    lines.append("## Fitness vs budget")
    lines.append("")
    lines.append("| step | candidate | fitness | best so far | |")
    lines.append("|---|---|---|---|---|")
    base_candidate = baseline.candidate
    worst = max(s.fitness for s in measured)
    span = worst - best.fitness
    for step in steps:
        desc = describe_candidate(step.candidate, base_candidate)
        if step.pruned:
            lines.append(
                f"| {step.step} | `{desc}` | pruned "
                f"(pred {_fmt(step.predicted)}) | {_fmt(step.best_fitness)} | |"
            )
            continue
        frac = 1.0 - ((step.fitness - best.fitness) / span if span else 0.0)
        bar = "#" * max(1, round(frac * 20))
        lines.append(
            f"| {step.step} | `{desc}` | {_fmt(step.fitness)} "
            f"| {_fmt(step.best_fitness)} | `{bar}` |"
        )
    lines.append("")

    lines.append("## Times to completion")
    lines.append("")
    lines.append("| improvement | step | fitness | cumulative wall (s) |")
    lines.append("|---|---|---|---|")
    cumulative = 0.0
    best_seen: Optional[float] = None
    nth = 0
    for step in steps:
        cumulative += step.wall_s
        if step.fitness is None:
            continue
        if best_seen is None or step.fitness < best_seen:
            best_seen = step.fitness
            lines.append(
                f"| {nth} | {step.step} | {_fmt(step.fitness)} "
                f"| {cumulative:.2f} |"
            )
            nth += 1
    lines.append("")

    ranked = sorted(measured, key=lambda s: (s.fitness, s.step))[:top]
    lines.append(f"## Top {len(ranked)} points")
    lines.append("")
    lines.append("| rank | step | fitness | candidate |")
    lines.append("|---|---|---|---|")
    for rank, step in enumerate(ranked, start=1):
        lines.append(
            f"| {rank} | {step.step} | {_fmt(step.fitness)} "
            f"| `{describe_candidate(step.candidate, base_candidate)}` |"
        )
    lines.append("")

    total_wall = sum(s.wall_s for s in steps)
    resumed = sum(s.resumed_points for s in steps)
    executed = sum(s.executed_points for s in steps)
    lines.append("## Totals")
    lines.append("")
    lines.append(
        f"{len(measured)} measured steps, {len(pruned)} pruned; "
        f"{executed} points executed, {resumed} replayed from the journal; "
        f"wall {total_wall:.2f} s; trajectory digest "
        f"`{trajectory_digest(list(steps))}`"
    )
    if final is not None and final.get("digest") not in (
        None,
        trajectory_digest(list(steps)),
    ):
        lines.append("")
        lines.append(
            "WARNING: trajectory digest does not match the recorded "
            "tune_result digest — the file was truncated or edited."
        )
    return "\n".join(lines)


def report_payload(
    header: Dict[str, object],
    steps: Sequence[TuneStep],
    final: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """JSON-export form of the report (``tune-report --json``)."""
    measured = [s for s in steps if s.fitness is not None]
    best = (
        min(measured, key=lambda s: (s.fitness, s.step)) if measured else None
    )
    return {
        "kind": "supermem-tune-report",
        "header": header,
        "steps": [s.to_record() for s in steps],
        "best": best.to_record() if best is not None else None,
        "baseline_fitness": measured[0].fitness if measured else None,
        "improvement": (
            measured[0].fitness / best.fitness
            if best is not None and best.fitness
            else 1.0
        ),
        "pruned_steps": sum(1 for s in steps if s.pruned),
        "executed_points": sum(s.executed_points for s in steps),
        "resumed_points": sum(s.resumed_points for s in steps),
        "wall_s": sum(s.wall_s for s in steps),
        "digest": trajectory_digest(list(steps)),
        "result": final,
    }
