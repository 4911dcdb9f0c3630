"""Differential test: indexed WriteQueue vs a naive list-scan reference.

The production queue keeps per-line and per-bank lists in FIFO order
(line -> entries, bank -> data entries, bank -> counter entries) to make
append/find/remove O(1). This file pits it against ``NaiveWriteQueue`` — a
faithful copy of the original O(n) list-scan implementation — on randomized
append/coalesce/remove/find sequences. Every observable must match
exactly: entry order, per-entry fields, coalesce decisions, forwarding
lookups, and the stats counters experiments read.
"""

import random

import pytest

from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.memory.write_queue import (
    CWC_MERGE_IN_PLACE,
    CWC_REMOVE_OLDER,
    WQEntry,
    WriteQueue,
)


class NaiveWriteQueue:
    """The seed implementation: a plain list with linear scans."""

    def __init__(self, capacity, stats, cwc_enabled=False, cwc_policy=CWC_REMOVE_OLDER):
        self.capacity = capacity
        self.cwc_enabled = cwc_enabled
        self.cwc_policy = cwc_policy
        self._stats = stats
        self._entries = []
        self._seq = 0

    def __len__(self):
        return len(self._entries)

    @property
    def full(self):
        return len(self._entries) >= self.capacity

    def has_space(self, n=1):
        return len(self._entries) + n <= self.capacity

    def append(self, entry):
        coalesced = False
        if self.cwc_enabled and entry.is_counter:
            older = self._find_counter(entry.line)
            if older is not None:
                coalesced = True
                self._stats.inc("wq", "cwc_coalesced")
                if self.cwc_policy == CWC_REMOVE_OLDER:
                    self._entries.remove(older)
                else:
                    older.payload = entry.payload
                    self._count_append(entry)
                    return True
        if self.full:
            raise SimulationError("append to full write queue")
        entry.seq = self._seq
        self._seq += 1
        self._entries.append(entry)
        self._count_append(entry)
        if len(self._entries) > self._stats.get("wq", "peak_occupancy"):
            self._stats.set("wq", "peak_occupancy", len(self._entries))
        return coalesced

    def _count_append(self, entry):
        self._stats.inc("wq", "appends")
        if entry.is_counter:
            self._stats.inc("wq", "counter_appends")
        else:
            self._stats.inc("wq", "data_appends")

    def would_coalesce(self, line):
        return self.cwc_enabled and self._find_counter(line) is not None

    def _find_counter(self, line):
        for entry in self._entries:
            if entry.is_counter and entry.line == line:
                return entry
        return None

    def __iter__(self):
        return iter(self._entries)

    def remove(self, entry):
        self._entries.remove(entry)

    def find_line(self, line):
        for entry in reversed(self._entries):
            if entry.line == line:
                return entry
        return None

    def oldest(self):
        return self._entries[0] if self._entries else None

    def adr_flush_order(self):
        return list(self._entries)

    def clear(self):
        self._entries.clear()


def _entry(rng, lines):
    line = rng.choice(lines)
    return dict(
        line=line,
        bank=line % 8,
        row=line // 8,
        is_counter=rng.random() < 0.5,
        enq_time=float(rng.randrange(1000)),
        payload=bytes([rng.randrange(256)]),
        core=rng.randrange(4),
    )


def _snapshot(queue):
    """Everything observable about the queue, as comparable values."""
    entries = [
        (e.line, e.bank, e.row, e.is_counter, e.enq_time, e.payload, e.core, e.seq)
        for e in queue
    ]
    return {
        "entries": entries,
        "len": len(queue),
        "full": len(queue) >= queue.capacity,
        "oldest": entries[0] if entries else None,
        "adr": [
            (e.line, e.is_counter, e.payload, e.seq) for e in queue.adr_flush_order()
        ],
    }


@pytest.mark.parametrize("cwc", [False, True])
@pytest.mark.parametrize("policy", [CWC_REMOVE_OLDER, CWC_MERGE_IN_PLACE])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_sequences_match_reference(cwc, policy, seed):
    rng = random.Random(seed * 1000 + cwc * 10 + (policy == CWC_MERGE_IN_PLACE))
    lines = list(range(12))  # small line space forces frequent collisions
    indexed_stats, naive_stats = Stats(), Stats()
    indexed = WriteQueue(16, indexed_stats, cwc_enabled=cwc, cwc_policy=policy)
    naive = NaiveWriteQueue(16, naive_stats, cwc_enabled=cwc, cwc_policy=policy)

    for _ in range(2000):
        action = rng.random()
        if action < 0.55:  # append (skip when neither could take it)
            fields = _entry(rng, lines)
            coalesces = naive.would_coalesce(fields["line"]) and fields["is_counter"]
            assert indexed.would_coalesce(fields["line"]) == naive.would_coalesce(
                fields["line"]
            )
            if not naive.has_space(0 if coalesces else 1):
                continue
            if naive.full and not coalesces:
                continue
            got_i = indexed.append(WQEntry(**fields))
            got_n = naive.append(WQEntry(**fields))
            assert got_i == got_n
        elif action < 0.80:  # remove a random queued entry (drain scheduler)
            snapshot = list(naive)
            if not snapshot:
                continue
            victim = rng.choice(snapshot)
            # Find the matching entry in the indexed queue by seq.
            twin = next(e for e in indexed if e.seq == victim.seq)
            naive.remove(victim)
            indexed.remove(twin)
        elif action < 0.95:  # lookups
            line = rng.choice(lines)
            found_i = indexed.find_line(line)
            found_n = naive.find_line(line)
            assert (found_i is None) == (found_n is None)
            if found_i is not None:
                assert found_i.seq == found_n.seq
                assert found_i.payload == found_n.payload
            assert indexed.would_coalesce(line) == naive.would_coalesce(line)
        else:  # occasional full clear (ADR flush path)
            assert [e.seq for e in indexed.adr_flush_order()] == [
                e.seq for e in naive.adr_flush_order()
            ]
            indexed.clear()
            naive.clear()
        assert _snapshot(indexed) == _snapshot(naive)

    assert indexed_stats.snapshot() == naive_stats.snapshot()


def test_indexed_remove_rejects_foreign_entry():
    stats = Stats()
    queue = WriteQueue(4, stats)
    queue.append(WQEntry(line=1, bank=0, row=0, is_counter=False, enq_time=0.0))
    stranger = WQEntry(line=2, bank=0, row=0, is_counter=False, enq_time=0.0)
    with pytest.raises(ValueError):
        queue.remove(stranger)


def test_indexes_empty_after_drain():
    """Internal indices must not leak entries after drain + clear."""
    stats = Stats()
    queue = WriteQueue(8, stats, cwc_enabled=True)
    for i in range(6):
        queue.append(
            WQEntry(line=i % 3, bank=0, row=0, is_counter=(i % 2 == 0), enq_time=0.0)
        )
    while queue.oldest() is not None:
        queue.remove(queue.oldest())
    assert len(queue) == 0
    assert queue.by_line == {}
    assert queue.data_by_bank == {}
    assert queue.counters_by_bank == {}
    assert queue.find_line(0) is None
    assert not queue.would_coalesce(0)
