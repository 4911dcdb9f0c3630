"""Drain-scheduler equivalence: the per-bank scan and its start bound are exact.

The production scheduler
(:meth:`~repro.memory.controller.MemoryController._best_candidate`)
picks the next write from the heads of per-bank buckets, and
:meth:`~repro.memory.controller.MemoryController.advance_to` skips the
scan while a lower bound on every queued write's start (``_hold``) lies
after the request. The reference scheduler kept here scans on every
step: :func:`reference_advance_to` over a naive full-queue scan
(:func:`naive_best_candidate`) that computes every entry's start and
takes the ``(start, seq)`` minimum. Nothing about the *model* may
differ, so:

* full simulations agree on every latency and every stats counter with
  runs under the reference scheduler, including WT 4096 B points that
  keep the write queue at capacity (the regime that exercises the
  per-bank scan and make-space loops) and 4- and 8-program points,
  whose cores append behind the controller's clock;
* the per-bank scan picks the exact same entry, and reports the exact
  runner-up start, as the naive scan under randomized
  append/read/drain interleavings, each of which moves the queue or the
  bank and bus state the pick depends on;
* after every such mutation ``_hold`` is at most the naive earliest
  start, and a controller with the bound stays in the exact state of a
  reference controller driven through the same calls, under every drain
  policy and CWC policy, a zero low watermark, two channels, and
  out-of-order appends from several per-core clocks;
* the drain scans at most 1.15 times per issued write on a saturated
  Figure 13 cell and an 8-program Figure 14 cell.

The reference controller also appends the way the write path did before
counter writes coalesced in place: :func:`reference_make_space` looks
the CWC target up again after every issue instead of carrying it, and
:func:`reference_append` removes the target and appends a new entry. On
a saturated SuperMem cell the production path builds one entry per
inserted write and looks a counter write's target up once.
"""

import collections
import dataclasses
import random

import pytest

from repro.common.config import SimConfig
from repro.common.stats import Stats
from repro.core.schemes import Scheme
from repro.experiments import fig13, fig14
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.runner import run_points
from repro.memory import write_queue
from repro.memory.controller import MemoryController
from repro.memory.write_queue import CWC_MERGE_IN_PLACE, WriteQueue
from repro.sim import trace_cache
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.simulator import simulate_workload
from tests.experiments.grids import narrow


def _start(mc, entry):
    """An entry's start under the controller's policy (deferral included)."""
    start = mc._entry_start(entry)
    if entry.is_counter and mc._counter_defer_ns:
        start = max(start, entry.enq_time + mc._counter_defer_ns)
    return start


def naive_best_candidate(mc):
    """Full-queue walk: every entry's start, strict-< FIFO tie-break."""
    if mc._policy == "fifo":
        entry = mc.wq.oldest()
        return None if entry is None else (mc._entry_start(entry), entry)
    best_start = None
    best_entry = None
    for entry in mc.wq:
        start = _start(mc, entry)
        if best_start is None or start < best_start:
            best_start, best_entry = start, entry
    if best_entry is None:
        return None
    return best_start, best_entry


def naive_runner_up(mc, picked):
    """The smallest start outside ``picked``'s bucket (its bank and kind)."""
    return min(
        (
            _start(mc, entry)
            for entry in mc.wq
            if (entry.bank, entry.is_counter) != (picked.bank, picked.is_counter)
        ),
        default=float("inf"),
    )


def reference_advance_to(mc, t):
    """The drain step without a start bound: it scans on every step."""
    wq = mc.wq
    draining = mc._draining
    if not draining and wq.n < mc.high_watermark:
        if t > mc.clock:
            mc.clock = t
        return
    while True:
        occupancy = wq.n
        if draining:
            if occupancy <= mc.low_watermark:
                draining = False
                break
        elif occupancy >= mc.high_watermark:
            draining = True
        else:
            break
        candidate = naive_best_candidate(mc)
        if candidate is None:
            break
        start, entry = candidate
        if start > t:
            break
        mc._issue(entry, start)
        if start > mc.clock:
            mc.clock = start
    mc._draining = draining
    if t > mc.clock:
        mc.clock = t


def _reference_pick(mc):
    """The naive pick in the production shape, for make-space and drain_all.

    A runner-up of ``-inf`` keeps ``_hold`` from ever holding anything
    back; :func:`reference_advance_to` does not read it anyway.
    """
    start, entry = naive_best_candidate(mc)
    return start, entry, float("-inf")


def reference_make_space(mc, t, slots, core, target=None):
    """Make space looking the CWC target up again after every issue."""
    wq = mc.wq
    line = None if target is None else target.line
    append_time = t
    while True:
        target = None if line is None else wq.cwc_target(line)
        if wq.n + slots - (target is not None) <= wq.capacity:
            break
        start, entry, _ = mc._best_candidate()
        mc._issue(entry, start)
        if start > mc.clock:
            mc.clock = start
        if start > append_time:
            append_time = start
    if append_time > t:
        mc._stats.inc("wq", "full_stalls")
        mc._stats.inc("wq", "stall_ns", append_time - t)
    return append_time, target


_production_append = WriteQueue.append


def reference_append(wq, line, bank, is_counter, enq_time, payload=None, target=None):
    """CWC as Section 3.4.3 states it: remove the older entry, then
    append the new write as a new entry."""
    if target is None or wq.cwc_policy == CWC_MERGE_IN_PLACE:
        return _production_append(wq, line, bank, is_counter, enq_time, payload, target)
    wq.remove(target)
    wq._vals[wq._k_cwc] += 1
    _production_append(wq, line, bank, is_counter, enq_time, payload)
    return True


class ReferenceController(MemoryController):
    """A controller that runs the reference scheduler and append path."""

    advance_to = reference_advance_to
    _best_candidate = _reference_pick
    _make_space = reference_make_space

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.wq.append = reference_append.__get__(self.wq)


def _run(workload, scheme, size, programs=None):
    trace_cache.clear()
    base = experiment_base_config(get_scale("smoke"))
    if programs is not None:
        return simulate_multiprogrammed(
            workload,
            scheme,
            programs,
            n_ops=12,
            request_size=size,
            base_config=base,
            seed=1,
        )
    return simulate_workload(
        workload,
        scheme,
        n_ops=12,
        request_size=size,
        footprint=1 << 20,
        seed=1,
        base_config=base,
    )


class TestSimulationEquivalence:
    @pytest.mark.parametrize(
        "workload,scheme,size,programs",
        [
            ("array", Scheme.SUPERMEM, 256, None),
            ("btree", Scheme.SUPERMEM, 1024, None),
            ("queue", Scheme.UNSEC, 256, None),
            ("btree", Scheme.SCA, 1024, None),
            # Integrity tree: node fetches and write-backs join the queue.
            ("array", Scheme.SUPERMEM_BMT, 256, None),
            ("btree", Scheme.SUPERMEM_BMT, 1024, None),
            # Large requests keep the write queue saturated: the per-bank
            # scan and the make-space loop both run hot.
            ("array", Scheme.WT_BASE, 4096, None),
            ("btree", Scheme.WT_BASE, 4096, None),
            ("array", Scheme.SUPERMEM, 4096, None),
            ("queue", Scheme.SUPERMEM_BMT, 4096, None),
            # Several cores share the controller and append behind its
            # clock: the only points with out-of-order appends.
            ("array", Scheme.SUPERMEM, 1024, 4),
            ("array", Scheme.SUPERMEM_BMT, 1024, 4),
            ("hashtable", Scheme.SUPERMEM, 1024, 4),
            ("hashtable", Scheme.SUPERMEM_BMT, 1024, 4),
            ("array", Scheme.SUPERMEM, 1024, 8),
            ("array", Scheme.SUPERMEM_BMT, 1024, 8),
            ("hashtable", Scheme.SUPERMEM, 1024, 8),
            ("hashtable", Scheme.SUPERMEM_BMT, 1024, 8),
        ],
    )
    def test_hot_matches_reference(
        self, workload, scheme, size, programs, monkeypatch
    ):
        fast = _run(workload, scheme, size, programs)
        monkeypatch.setattr(MemoryController, "advance_to", reference_advance_to)
        monkeypatch.setattr(MemoryController, "_best_candidate", _reference_pick)
        monkeypatch.setattr(MemoryController, "_make_space", reference_make_space)
        monkeypatch.setattr(WriteQueue, "append", reference_append)
        ref = _run(workload, scheme, size, programs)
        assert fast.total_time_ns == ref.total_time_ns
        assert fast.txn_latencies == ref.txn_latencies
        assert fast.stats.snapshot() == ref.stats.snapshot()


def _controller():
    return MemoryController(SimConfig(), Stats())


def _assert_same_candidate(mc):
    """The per-bank pick, runner-up and start bound match the naive scan."""
    ref = naive_best_candidate(mc)
    if ref is None:
        return
    start, entry, runner_up = mc._best_candidate()
    assert start == ref[0]
    assert entry is ref[1]
    if mc._policy == "fifo":
        assert runner_up == float("-inf")
    else:
        assert runner_up == naive_runner_up(mc, entry)
    # The bound: every queued write's start (fifo: the oldest's) is at
    # least _hold, and the naive pick's start is the smallest of them.
    assert mc._hold <= ref[0]


class TestCandidateScan:
    def test_randomized_interleaving_matches_reference(self):
        """Per-bank scan == naive scan after every mutation.

        Mutations cover everything a pick depends on: appends (the
        queue), issues via advance_to (the queue plus bank and bus
        state), and demand reads (bank and bus state, queue untouched).
        """
        rng = random.Random(99)
        mc = _controller()
        t = 0.0
        for _ in range(300):
            action = rng.randrange(4)
            t += rng.choice((0.0, 1.0, 17.0))
            if action == 0:
                mc.append_write(t, rng.randrange(256))
            elif action == 1:
                mc.append_write(
                    t, 4096 + rng.randrange(64), is_counter=True
                )
            elif action == 2:
                mc.read(t, rng.randrange(256))
            else:
                mc.advance_to(t)
            _assert_same_candidate(mc)
        mc.drain_all()
        assert len(mc.wq) == 0

    def test_repeated_probe_uses_consistent_candidate(self):
        """Back-to-back scans of an unchanged queue stay equal to the naive scan."""
        mc = _controller()
        for line in range(6):
            mc.append_write(float(line), line)
        for _ in range(5):
            _assert_same_candidate(mc)

    @pytest.mark.parametrize("policy", ["defer-counters", "frfcfs", "fifo"])
    def test_out_of_order_appends_match_reference(self, policy):
        """Per-bank pick == naive scan after every mutation, out of order.

        Several per-core clocks drive the public controller API, so
        appends arrive out of time order exactly as under multicore
        interleaving: a later counter entry can then carry an earlier
        ``enq_time`` than its bucket's FIFO-first entry, and under
        ``defer-counters`` it can win the pick. Under ``fifo`` the pick is
        the queue's oldest entry, derived from the bucket heads; it must be
        the smallest ``seq`` in the whole queue.
        """
        rng = random.Random(2019)
        cfg = SimConfig()
        cfg = dataclasses.replace(
            cfg, memory=dataclasses.replace(cfg.memory, drain_policy=policy)
        )
        mc = MemoryController(cfg, Stats())
        n_banks = cfg.memory.n_banks
        clocks = [0.0] * 4
        enq_times = []
        non_head_picks = 0
        for _ in range(1500):
            core = rng.randrange(len(clocks))
            clocks[core] += rng.choice((0.0, 3.0, 40.0, 250.0, 900.0))
            t = clocks[core]
            action = rng.randrange(5)
            if action == 0:
                enq_times.append(mc.append_write(t, rng.randrange(256), core=core))
            elif action == 1:
                enq_times.append(
                    mc.append_write(
                        t,
                        4096 + rng.randrange(16),
                        bank=rng.randrange(n_banks),
                        is_counter=True,
                        core=core,
                    )
                )
            elif action == 2:
                line = rng.randrange(256)
                enq_times.append(
                    mc.append_pair(
                        t,
                        line,
                        line % n_banks,
                        None,
                        4096 + rng.randrange(16),
                        rng.randrange(n_banks),
                        None,
                        core,
                    )
                )
            elif action == 3:
                mc.read(t, rng.randrange(256))
            else:
                mc.advance_to(t)
            _assert_same_candidate(mc)
            if policy == "fifo":
                oldest = min(mc.wq, key=lambda entry: entry.seq, default=None)
                assert mc.wq.oldest() is oldest
            ref = naive_best_candidate(mc)
            if ref is not None and ref[1].is_counter:
                bucket = mc.wq.counters_by_bank[ref[1].bank]
                non_head_picks += bucket[0] is not ref[1]
        assert any(b < a for a, b in zip(enq_times, enq_times[1:]))
        if policy == "defer-counters":
            # The bucket walk, not just the FIFO-first entry, was needed.
            assert non_head_picks > 0
        mc.drain_all()
        assert len(mc.wq) == 0


def _state(mc):
    """Everything a drain step may change, for a lockstep comparison."""
    return (
        [(e.line, e.bank, e.is_counter, e.enq_time, e.payload, e.seq) for e in mc.wq],
        [(bank.free_at, bank.open_row, bank.last_write_end) for bank in mc.banks],
        tuple(mc.rank._activates),
        list(mc.bus_free_at),
        mc.clock,
        mc._draining,
        mc._stats.snapshot(),
    )


class TestStartBound:
    @pytest.mark.parametrize(
        "policy,cwc_policy,memory",
        [
            ("defer-counters", "remove-older", {}),
            ("defer-counters", "merge-in-place", {}),
            ("frfcfs", "remove-older", {}),
            ("frfcfs", "merge-in-place", {}),
            ("fifo", "remove-older", {}),
            ("fifo", "merge-in-place", {}),
            ("defer-counters", "remove-older", {"wq_low_watermark": 0}),
            ("fifo", "remove-older", {"wq_low_watermark": 0}),
            ("defer-counters", "remove-older", {"n_channels": 2}),
            ("frfcfs", "merge-in-place", {"n_channels": 2, "wq_low_watermark": 0}),
            ("defer-counters", "remove-older", {"bank_mapping": "line"}),
            ("fifo", "remove-older", {"bank_mapping": "line"}),
        ],
    )
    def test_lockstep_with_reference(self, policy, cwc_policy, memory):
        """A controller with the bound stays in the reference's exact state.

        Two cores drive both controllers through the same calls. Their
        clocks jump independently, so one core's requests keep arriving
        behind the controller's clock. After every call the queue, banks,
        rank, bus, clock, hysteresis flag and stats are equal, and
        ``_hold`` bounds the naive earliest start. Calls that the bound
        lets skip the scan (drain engaged, ``t < _hold``) must occur.
        Under the ``line`` bank mapping a counter line follows the bank of
        the data line written, so a coalesced counter write changes bank.
        """
        rng = random.Random(29)
        cfg = SimConfig(cwc_enabled=True, cwc_policy=cwc_policy)
        cfg = dataclasses.replace(
            cfg,
            memory=dataclasses.replace(
                cfg.memory, drain_policy=policy, write_queue_entries=16, **memory
            ),
        )
        mc = MemoryController(cfg, Stats())
        ref = ReferenceController(cfg, Stats())
        n_banks = cfg.memory.n_banks
        home_banks = cfg.memory.bank_mapping != "line"
        clocks = [0.0, 0.0]
        skipped = late = 0
        for _ in range(2000):
            core = rng.randrange(len(clocks))
            clocks[core] += rng.choice((0.0, 3.0, 40.0, 250.0, 900.0))
            t = clocks[core]
            engaged = mc._draining or mc.wq.n >= mc.high_watermark
            skipped += engaged and t < mc._hold
            late += t < mc.clock
            action = rng.randrange(5)
            if action == 0:
                line = rng.randrange(256)
                calls = [c.append_write(t, line, core=core) for c in (mc, ref)]
            elif action == 1:
                # A counter line has one home bank, as under every layout
                # of the page mapping.
                line = 4096 + rng.randrange(16)
                bank = line % n_banks if home_banks else rng.randrange(n_banks)
                calls = [
                    c.append_write(t, line, bank=bank, is_counter=True, core=core)
                    for c in (mc, ref)
                ]
            elif action == 2:
                line = rng.randrange(256)
                counter_line = 4096 + rng.randrange(16)
                counter_bank = (
                    counter_line % n_banks if home_banks else rng.randrange(n_banks)
                )
                calls = [
                    c.append_pair(
                        t,
                        line,
                        line % n_banks,
                        None,
                        counter_line,
                        counter_bank,
                        None,
                        core,
                    )
                    for c in (mc, ref)
                ]
            elif action == 3:
                line = rng.randrange(256)
                calls = [c.read(t, line) for c in (mc, ref)]
            else:
                calls = [c.advance_to(t) for c in (mc, ref)]
            assert calls[0] == calls[1]
            assert _state(mc) == _state(ref)
            _assert_same_candidate(mc)
        assert skipped > 0
        assert late > 0
        assert mc.drain_all() == ref.drain_all()
        assert _state(mc) == _state(ref)


    @pytest.mark.parametrize("pair", [False, True])
    def test_fifo_coalesce_releases_the_bound(self, pair):
        """Under ``fifo`` CWC can remove the oldest entry, the one the
        bound is about; the next oldest may start at once."""
        cfg = SimConfig(cwc_enabled=True)
        cfg = dataclasses.replace(
            cfg,
            memory=dataclasses.replace(
                cfg.memory,
                drain_policy="fifo",
                write_queue_entries=4,
                wq_high_watermark=1,
                wq_low_watermark=0,
            ),
        )
        mc = MemoryController(cfg, Stats())
        counter = 1 << 20
        mc.append_write(0.0, 0, bank=0)
        mc.advance_to(0.0)  # bank 0 is now busy for a write service
        mc.append_write(1.0, counter, bank=0, is_counter=True)
        mc.append_write(2.0, 1, bank=1)
        mc.advance_to(3.0)  # the oldest, the counter, waits for bank 0
        assert mc._hold > 5.0
        # Coalesces with the oldest: the bank-1 write is now the oldest.
        if pair:
            # Its data write waits for busy bank 0 as well.
            mc.append_pair(4.0, 2, 0, None, counter, 0, None)
        else:
            mc.append_write(4.0, counter, bank=0, is_counter=True)
        assert mc.wq.oldest().bank == 1
        mc.advance_to(5.0)
        assert mc._stats.get("wq", "issued") == 2

    @pytest.mark.parametrize("policy", ["defer-counters", "frfcfs", "fifo"])
    def test_make_space_issues_the_pairs_own_target(self, policy):
        """A pair whose CWC target the make-space drain issues needs two slots.

        The queue is full and its oldest entry is a counter write to the
        pair's counter line, so the pair first counts on one slot. A core
        arrives behind the controller's clock, so nothing can issue at its
        own time and the make-space drain picks that oldest entry first.
        With the target gone nothing coalesces: the drain issues one more
        write and both halves of the pair are appended as new entries.
        Production and reference controllers stay in lockstep throughout.
        """
        cfg = SimConfig(cwc_enabled=True)
        cfg = dataclasses.replace(
            cfg,
            memory=dataclasses.replace(
                cfg.memory,
                drain_policy=policy,
                write_queue_entries=4,
                wq_high_watermark=4,
                wq_low_watermark=2,
            ),
        )
        mc = MemoryController(cfg, Stats())
        ref = ReferenceController(cfg, Stats())
        counter = 1 << 20
        steps = [
            lambda c: c.append_write(0.0, counter, bank=0, is_counter=True),
            lambda c: c.append_write(100.0, 1 * 64),
            lambda c: c.append_write(200.0, 2 * 64),
            lambda c: c.append_write(300.0, 3 * 64),
            # A second core, behind the clock: the pair's target is the
            # oldest entry, the counter written first.
            lambda c: c.append_pair(50.0, 4 * 64, 4, None, counter, 0, None, 1),
        ]
        for step in steps:
            target = mc.wq.cwc_target(counter)
            assert step(mc) == step(ref)
            assert _state(mc) == _state(ref)
            _assert_same_candidate(mc)
        stats = mc._stats
        assert target is not None and target.seq == 0
        assert stats.get("wq", "issued") == 2
        assert stats.get("wq", "cwc_coalesced") == 0
        assert stats.get("wq", "full_stalls") == 1
        assert len(mc.wq) == 4
        assert [e.line for e in mc.wq] == [2 * 64, 3 * 64, 4 * 64, counter]
        assert mc.wq.cwc_target(counter) is not target
        assert mc.drain_all() == ref.drain_all()
        assert _state(mc) == _state(ref)


class TestScanCount:
    def test_about_one_scan_per_issued_write(self, monkeypatch):
        """The drain scans at most 1.15 times per issued write.

        Without the start bound every request that finds nothing ready
        yet costs a scan of its own: 2.1 scans per issue on the saturated
        Figure 13 cell below and 2.4 on the 8-program Figure 14 cell.
        """
        calls = collections.Counter()
        for name in ("_best_candidate", "_issue"):
            method = getattr(MemoryController, name)

            def counted(mc, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(mc, *args)

            monkeypatch.setattr(MemoryController, name, counted)
        for grid, cell in (
            (fig13.specs("smoke"), ("array", 4096)),
            (fig14.specs("smoke"), ("hashtable", 8)),
        ):
            calls.clear()
            _, specs = narrow(grid, lambda c: c == cell)
            run_points(specs)
            assert calls["_issue"] > 1000
            assert calls["_best_candidate"] <= 1.15 * calls["_issue"], (cell, calls)


class TestAppendCount:
    def test_one_entry_per_inserted_write(self, monkeypatch):
        """Only inserted writes build entries; counter writes look up once.

        On the saturated SuperMem cell below, entries built equal the
        writes the queue inserted (appends minus coalesces), and
        ``cwc_target`` runs at most once per counter append: 4,175
        entries and 3,960 lookups for 7,920 appends. Before coalescing
        moved the queued entry in place, every append built an entry and
        the lookups came to 14,145.
        """
        counts = collections.Counter()
        real_entry = write_queue.WQEntry
        lookup = WriteQueue.cwc_target

        def counted_entry(*args):
            counts["built"] += 1
            return real_entry(*args)

        def counted_lookup(wq, line):
            counts["lookups"] += 1
            return lookup(wq, line)

        monkeypatch.setattr(write_queue, "WQEntry", counted_entry)
        monkeypatch.setattr(WriteQueue, "cwc_target", counted_lookup)
        _, specs = narrow(fig13.specs("smoke"), lambda c: c == ("array", 4096))
        (result,) = run_points(
            [spec for spec in specs if spec.scheme is Scheme.SUPERMEM]
        )
        stats = result.stats
        coalesced = stats.get("wq", "cwc_coalesced")
        assert stats.get("wq", "full_stalls") > 100
        assert coalesced > 1000
        assert counts["built"] == stats.get("wq", "appends") - coalesced
        assert counts["lookups"] <= stats.get("wq", "counter_appends")
