"""Hierarchical statistics registry.

Every component of the simulated system (caches, write queue, banks, the
encryption engine, transaction layer) records counters and accumulators into
one shared :class:`Stats` object, namespaced by component. Experiments read
the totals out at the end of a run; nothing in the timing model depends on
the statistics, so recording can never perturb results.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Set, Tuple

Key = Tuple[str, str]

#: The process-wide slot registry: ``(namespace, counter)`` -> slot index,
#: and each slot's key. One registry per process, not per instance, keeps
#: each point's ``Stats`` down to its value list. Slots are only ever
#: appended, so an index stays valid for the life of the process.
_SLOT_OF: Dict[Key, int] = {}
_KEY_OF: List[Key] = []


class Stats:
    """A ``(namespace, counter) -> value`` store with helpers.

    Counter values are numeric (int or float). Namespaces are free-form
    strings such as ``"wq"`` or ``"bank.3"``.

    The values live in one flat list, :attr:`values`, indexed by slots of
    the process-wide registry. Hot components look their slots up once
    with :meth:`slot` and bump ``values[slot] += n`` directly. A slot starts
    at ``0.0`` and only ever gains positive amounts that way, so a counter
    is reported (by iteration, :meth:`snapshot`, :meth:`namespace` and
    :meth:`get`) once its slot is nonzero or once :meth:`inc` or
    :meth:`set` has written it, even to zero. Pickling carries keys by
    name, so a ``Stats`` survives the trip between processes whose
    registries differ.

    Examples
    --------
    >>> s = Stats()
    >>> s.inc("wq", "appends")
    >>> s.inc("wq", "appends", 2)
    >>> s.get("wq", "appends")
    3
    """

    __slots__ = ("values", "_written")

    def __init__(self) -> None:
        #: One value per registry slot (possibly shorter than the
        #: registry); only ever extended in place, never replaced.
        self.values: List[float] = []
        self._written: Set[int] = set()

    def slot(self, namespace: str, counter: str) -> int:
        """The index of a counter in :attr:`values`, registering it."""
        key = (namespace, counter)
        index = _SLOT_OF.get(key)
        if index is None:
            index = _SLOT_OF[key] = len(_KEY_OF)
            _KEY_OF.append(key)
        values = self.values
        if index >= len(values):
            values.extend([0.0] * (len(_KEY_OF) - len(values)))
        return index

    def inc(self, namespace: str, counter: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter (creating it at zero)."""
        index = self.slot(namespace, counter)
        self.values[index] += amount
        self._written.add(index)

    def set(self, namespace: str, counter: str, value: float) -> None:
        """Overwrite a counter with ``value``."""
        index = self.slot(namespace, counter)
        self.values[index] = value
        self._written.add(index)

    def _items(self) -> Iterator[Tuple[Key, float]]:
        """``(key, value)`` of every reported counter, in slot order."""
        written = self._written
        for index, value in enumerate(self.values):
            if value or index in written:
                yield _KEY_OF[index], value

    def _value(self, namespace: str, counter: str, default: float) -> float:
        index = _SLOT_OF.get((namespace, counter))
        if index is not None and index < len(self.values):
            value = self.values[index]
            if value or index in self._written:
                return value
        return default

    def get(self, namespace: str, counter: str, default: float = 0) -> float:
        """Read a counter, returning ``default`` when absent."""
        value = self._value(namespace, counter, default)
        return int(value) if float(value).is_integer() else value

    def namespace(self, namespace: str) -> Dict[str, float]:
        """All counters of one namespace as a plain dict."""
        return {
            counter: value
            for (space, counter), value in self._items()
            if space == namespace
        }

    def ratio(self, namespace: str, num: str, den: str) -> float:
        """``num / den`` within a namespace, 0.0 when the denominator is 0."""
        d = self._value(namespace, den, 0)
        if not d:
            return 0.0
        return self._value(namespace, num, 0) / d

    def snapshot(self) -> Mapping[Key, float]:
        """A plain ``{(namespace, counter): value}`` copy of every counter."""
        return dict(self._items())

    def __iter__(self) -> Iterator[Tuple[str, str, float]]:
        for (space, counter), value in sorted(self._items()):
            yield space, counter, value

    def __reduce__(self):
        # By key name, not slot index: a receiving process's registry may
        # number its slots differently.
        return _restore, (self.snapshot(),)


def _restore(counters: Mapping[Key, float]) -> Stats:
    """Rebuild a pickled :class:`Stats`."""
    stats = Stats()
    for (namespace, counter), value in counters.items():
        stats.set(namespace, counter, value)
    return stats
