"""Typed fleet metrics: Counter / Gauge / Histogram families with labels.

Where :mod:`repro.obs.tracer` records the dynamics of one *simulated*
machine, this module records the dynamics of the *harness fleet* — the
supervised worker pool, the resume journal and the outcome store. The
design mirrors the tracer's rules:

* **Zero overhead when disabled.** The default everywhere is
  :data:`NULL_METRICS`, a singleton whose families are all no-ops and
  whose ``enabled`` flag is ``False``, so instrumented code can guard
  expensive label formatting with ``if metrics.enabled:`` and pay at most
  an attribute load and a branch (the ``NULL_TRACER`` idiom).
* **Typed families, not a generic log call.** A metric is declared once
  with a kind (counter / gauge / histogram), a help string, and its label
  names; every later use goes through the declared family, so the
  snapshot schema is stable and the docs-drift test can hold the
  vocabulary to :doc:`docs/OBSERVABILITY.md`.
* **Snapshot.** ``registry.snapshot()`` is a plain JSON-able dict; the
  sweep runner stores it on ``RunnerReport.metrics``, and
  :func:`snapshot_value` reads one series back out of it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.obs.histogram import Histogram

_VALID_KINDS = ("counter", "gauge", "histogram")


class _Series:
    """One labelled time series of a family: a scalar or a histogram."""

    __slots__ = ("value", "hist")

    def __init__(self, hist: Optional[Histogram] = None):
        self.value: float = 0.0
        self.hist = hist

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set(self, value: float) -> None:
        self.value = value

    def observe(self, value: float) -> None:
        self.hist.record(value)  # type: ignore[union-attr]


class MetricFamily:
    """A named metric with fixed label names and one series per label set.

    Obtained from :meth:`MetricsRegistry.counter` / ``gauge`` /
    ``histogram``; use :meth:`labels` to get (or create) the series for
    one label-value combination, or call ``inc``/``set``/``observe``
    directly on the family when it has no labels.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str] = (),
        bounds: Sequence[float] = (),
    ):
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.bounds = tuple(bounds)
        self.series: Dict[Tuple[str, ...], _Series] = {}

    # -- series access ---------------------------------------------------

    def labels(self, *values: object) -> _Series:
        """The series for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label values "
                f"{self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _Series(
                Histogram(self.bounds) if self.kind == "histogram" else None
            )
        return series

    # Unlabelled convenience: the family itself acts as its only series.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def value(self, *values: object) -> float:
        """Current scalar value of one series (0.0 if never touched)."""
        key = tuple(str(v) for v in values)
        series = self.series.get(key)
        return series.value if series is not None else 0.0

    def total(self) -> float:
        """Sum of every series' scalar value (counters/gauges)."""
        return sum(series.value for series in self.series.values())


class _NullSeries:
    """The no-op series every :data:`NULL_METRICS` family hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullFamily(_NullSeries):
    """A disabled metric family: ``labels(...)`` returns a no-op series."""

    __slots__ = ()
    series: Dict[Tuple[str, ...], _Series] = {}

    def labels(self, *values: object) -> "_NullFamily":
        return self

    def value(self, *values: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


_NULL_FAMILY = _NullFamily()


class MetricsRegistry:
    """Holds every declared metric family; the snapshot root.

    Declaring the same name twice returns the existing family (and
    raises if the second declaration disagrees on kind or labels), so
    instrumentation sites can re-declare idempotently.
    """

    enabled = True

    def __init__(self):
        self.families: Dict[str, MetricFamily] = {}

    # -- declaration -----------------------------------------------------

    def _declare(self, name: str, kind: str, help: str, **kwargs) -> MetricFamily:
        existing = self.families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(
                kwargs.get("label_names", ())
            ):
                raise ValueError(
                    f"metric {name!r} re-declared with a different "
                    f"kind/label set (was {existing.kind}{existing.label_names})"
                )
            return existing
        family = MetricFamily(name, kind, help, **kwargs)
        self.families[name] = family
        return family

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A monotonically increasing count."""
        return self._declare(name, "counter", help, label_names=labels)

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A point-in-time value."""
        return self._declare(name, "gauge", help, label_names=labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        bounds: Sequence[float] = (),
    ) -> MetricFamily:
        """A fixed-bucket distribution."""
        return self._declare(
            name, "histogram", help, label_names=labels, bounds=bounds
        )

    # -- snapshot --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain JSON-able dict of every family and series."""
        families: Dict[str, object] = {}
        for name, family in sorted(self.families.items()):
            series = []
            for key in sorted(family.series):
                entry: Dict[str, object] = {"labels": list(key)}
                if family.kind == "histogram":
                    entry["hist"] = family.series[key].hist.to_dict()
                else:
                    entry["value"] = family.series[key].value
                series.append(entry)
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return {"families": families}


def snapshot_value(
    snapshot: Dict[str, object], name: str, labels: Sequence[str] = ()
) -> float:
    """Read one scalar series out of a snapshot (0.0 when absent)."""
    family = snapshot.get("families", {}).get(name)  # type: ignore[union-attr]
    if not family:
        return 0.0
    want = [str(v) for v in labels]
    for entry in family["series"]:
        if entry["labels"] == want:
            return float(entry.get("value", 0.0))
    return 0.0


class NullMetrics:
    """The disabled registry: every family is a shared no-op.

    Instrumented code holds this by default, so building a harness
    without metrics records nothing and allocates nothing; ``enabled``
    is ``False`` so hot paths can skip label/value construction.
    """

    enabled = False
    families: Dict[str, MetricFamily] = {}

    def counter(self, name, help, labels=()) -> _NullFamily:
        return _NULL_FAMILY

    def gauge(self, name, help, labels=()) -> _NullFamily:
        return _NULL_FAMILY

    def histogram(self, name, help, labels=(), bounds=()) -> _NullFamily:
        return _NULL_FAMILY

    def snapshot(self) -> Dict[str, object]:
        return {"families": {}}


#: The process-wide disabled registry every component defaults to.
NULL_METRICS = NullMetrics()
