"""Differential test: indexed WriteQueue vs a naive list-scan reference.

The production queue keeps per-line and per-bank lists in FIFO order
(line -> entries, bank -> data entries, bank -> counter entries) to make
append/find/remove O(1), and it coalesces a counter write in place: the
caller hands over the CWC target, and under remove-older that entry
becomes the new write at the tail. This file pits it against
``NaiveWriteQueue`` — a faithful copy of the original O(n) list-scan
implementation, which removes the older entry and appends a new one — on
randomized append/coalesce/remove/find sequences. Every observable must
match exactly: entry order, per-entry fields, coalesce decisions,
forwarding lookups, and the stats counters experiments read.
"""

import dataclasses
import random
from typing import Optional

import pytest

from repro.common.stats import Stats
from repro.memory import write_queue
from repro.memory.write_queue import (
    CWC_MERGE_IN_PLACE,
    CWC_REMOVE_OLDER,
    WriteQueue,
)


@dataclasses.dataclass(eq=False)
class NaiveEntry:
    line: int
    bank: int
    is_counter: bool
    enq_time: float
    payload: Optional[bytes] = None
    seq: int = 0


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
        assert not self.full
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


def _fields(rng, lines, moving_banks):
    """One write. With ``moving_banks`` a counter line's bank changes from
    one append to the next, as under the ``line`` bank mapping, where a
    counter line follows the bank of the data line written."""
    line = rng.choice(lines)
    is_counter = rng.random() < 0.5
    return dict(
        line=line,
        bank=rng.randrange(8) if moving_banks and is_counter else line % 8,
        is_counter=is_counter,
        enq_time=float(rng.randrange(1000)),
        payload=bytes([rng.randrange(256)]),
    )


def _snapshot(queue):
    """Everything observable about the queue, as comparable values."""
    entries = [
        (e.line, e.bank, e.is_counter, e.enq_time, e.payload, e.seq) for e in queue
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


def _check_lists(queue):
    """Each list holds its key's entries in append order, none empty."""
    total = 0
    for lists, key, counters in (
        (queue.by_line, "line", None),
        (queue.data_by_bank, "bank", False),
        (queue.counters_by_bank, "bank", True),
    ):
        for value, bucket in lists.items():
            assert bucket
            assert all(getattr(e, key) == value for e in bucket)
            if counters is not None:
                assert all(e.is_counter is counters for e in bucket)
                total += len(bucket)
            seqs = [e.seq for e in bucket]
            assert seqs == sorted(set(seqs))
    assert total == queue.n == sum(len(b) for b in queue.by_line.values())


@pytest.mark.parametrize("moving_banks", [False, True])
@pytest.mark.parametrize("cwc", [False, True])
@pytest.mark.parametrize("policy", [CWC_REMOVE_OLDER, CWC_MERGE_IN_PLACE])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_sequences_match_reference(
    cwc, policy, seed, moving_banks, monkeypatch
):
    rng = random.Random(
        seed * 1000 + cwc * 10 + (policy == CWC_MERGE_IN_PLACE) + 100 * moving_banks
    )
    built = []
    real_entry = write_queue.WQEntry

    def counted_entry(*args):
        built.append(args)
        return real_entry(*args)

    monkeypatch.setattr(write_queue, "WQEntry", counted_entry)
    lines = list(range(12))  # small line space forces frequent collisions
    indexed_stats, naive_stats = Stats(), Stats()
    indexed = WriteQueue(16, indexed_stats, cwc_enabled=cwc, cwc_policy=policy)
    naive = NaiveWriteQueue(16, naive_stats, cwc_enabled=cwc, cwc_policy=policy)
    inserted = coalesced = moved = 0

    for _ in range(2000):
        action = rng.random()
        if action < 0.55:  # append (skip when neither could take it)
            fields = _fields(rng, lines, moving_banks)
            line = fields["line"]
            # As the controller does: one lookup, handed to the append.
            target = indexed.cwc_target(line) if fields["is_counter"] else None
            coalesces = target is not None
            old_bank = target.bank if coalesces else None
            assert coalesces == (fields["is_counter"] and naive.would_coalesce(line))
            if naive.full and not coalesces:
                continue
            got_i = indexed.append(**fields, target=target)
            got_n = naive.append(NaiveEntry(**fields))
            assert got_i == got_n == coalesces
            if coalesces:
                coalesced += 1
                # The target itself is now the write: still the line's
                # only queued counter entry, with the new payload.
                assert indexed.cwc_target(line) is target
                assert target.payload == fields["payload"]
                if policy == CWC_REMOVE_OLDER:
                    assert indexed.find_line(line) is target
                    moved += target.bank != old_bank
            else:
                inserted += 1
            assert len(built) == inserted
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
        _check_lists(indexed)

    assert indexed_stats.snapshot() == naive_stats.snapshot()
    assert (coalesced > 50) == cwc
    # A coalesced counter write changed bank (and bank list) in place.
    assert (moved > 0) == (cwc and moving_banks and policy == CWC_REMOVE_OLDER)


def test_indexed_remove_rejects_foreign_entry():
    stats = Stats()
    queue = WriteQueue(4, stats)
    queue.append(1, 0, False, 0.0)
    stranger = dataclasses.replace(queue.find_line(1), line=2)
    with pytest.raises(ValueError):
        queue.remove(stranger)


def test_indexes_empty_after_drain():
    """Internal indices must not leak entries after drain + clear."""
    stats = Stats()
    queue = WriteQueue(8, stats, cwc_enabled=True)
    for i in range(6):
        line, is_counter = i % 3, i % 2 == 0
        target = queue.cwc_target(line) if is_counter else None
        queue.append(line, 0, is_counter, 0.0, None, target)
    while queue.oldest() is not None:
        queue.remove(queue.oldest())
    assert len(queue) == 0
    assert queue.by_line == {}
    assert queue.data_by_bank == {}
    assert queue.counters_by_bank == {}
    assert queue.find_line(0) is None
    assert not queue.would_coalesce(0)
