"""Drain-scheduler equivalence: the per-bank candidate scan is exact.

The production scheduler
(:meth:`~repro.memory.controller.MemoryController._best_candidate`)
picks the next write from the heads of per-bank buckets. A naive
full-queue scan (:func:`naive_best_candidate`, kept here as the
differential oracle) computes every entry's start and takes the
``(start, seq)`` minimum. Nothing about the *model* may differ, so:

* full simulations agree on every latency and every stats counter with
  runs whose scheduler is swapped for the naive scan, including a WT
  4096 B point that keeps the write queue at capacity (the regime that
  exercises the per-bank scan and make-space loops);
* the per-bank scan picks the exact same entry as the naive scan under
  randomized append/read/drain interleavings, each of which moves the
  queue or the bank and bus state the pick depends on;
* out-of-order appends from several per-core clocks (the multicore
  case) still match the naive scan, including picks where a held-back
  counter bucket's FIFO-first entry loses to a later one.
"""

import dataclasses
import random

import pytest

from repro.common.config import SimConfig
from repro.common.stats import Stats
from repro.core.schemes import Scheme
from repro.experiments.common import experiment_base_config, get_scale
from repro.memory.controller import MemoryController
from repro.memory.write_queue import WQEntry
from repro.sim import trace_cache
from repro.sim.simulator import simulate_workload


def naive_best_candidate(mc):
    """Full-queue walk: every entry's start, strict-< FIFO tie-break."""
    if mc._policy == "fifo":
        entry = mc.wq.oldest()
        return None if entry is None else (mc._entry_start(entry), entry)
    defer = mc._counter_defer_ns if mc._policy == "defer-counters" else 0.0
    best_start = None
    best_entry = None
    for entry in mc.wq:
        start = mc._entry_start(entry)
        if entry.is_counter and defer:
            start = max(start, entry.enq_time + defer)
        if best_start is None or start < best_start:
            best_start, best_entry = start, entry
    if best_entry is None:
        return None
    return best_start, best_entry


def _run(workload, scheme, size):
    trace_cache.clear()
    return simulate_workload(
        workload,
        scheme,
        n_ops=12,
        request_size=size,
        footprint=1 << 20,
        seed=1,
        base_config=experiment_base_config(get_scale("smoke")),
    )


class TestSimulationEquivalence:
    @pytest.mark.parametrize(
        "workload,scheme,size",
        [
            ("array", Scheme.SUPERMEM, 256),
            ("btree", Scheme.SUPERMEM, 1024),
            ("queue", Scheme.UNSEC, 256),
            ("btree", Scheme.SCA, 1024),
            # Integrity tree: node fetches and write-backs join the queue.
            ("array", Scheme.SUPERMEM_BMT, 256),
            ("btree", Scheme.SUPERMEM_BMT, 1024),
            # Large requests keep the write queue saturated: the per-bank
            # scan and the make-space loop both run hot.
            ("array", Scheme.WT_BASE, 4096),
            ("btree", Scheme.WT_BASE, 4096),
            ("array", Scheme.SUPERMEM, 4096),
            ("queue", Scheme.SUPERMEM_BMT, 4096),
        ],
    )
    def test_hot_matches_reference(self, workload, scheme, size, monkeypatch):
        fast = _run(workload, scheme, size)
        monkeypatch.setattr(MemoryController, "_best_candidate", naive_best_candidate)
        ref = _run(workload, scheme, size)
        assert fast.total_time_ns == ref.total_time_ns
        assert fast.txn_latencies == ref.txn_latencies
        assert fast.stats.snapshot() == ref.stats.snapshot()


def _controller():
    return MemoryController(SimConfig(), Stats())


def _assert_same_candidate(mc):
    fast = mc._best_candidate()
    ref = naive_best_candidate(mc)
    if ref is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast[0] == ref[0]
        assert fast[1] is ref[1]


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
                        row=0,
                        is_counter=True,
                        core=core,
                    )
                )
            elif action == 2:
                line = rng.randrange(256)
                data = WQEntry(line, line % n_banks, 0, False, 0.0, core=core)
                counter = WQEntry(
                    4096 + rng.randrange(16),
                    rng.randrange(n_banks),
                    0,
                    True,
                    0.0,
                    core=core,
                )
                enq_times.append(mc.append_pair(t, data, counter))
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
