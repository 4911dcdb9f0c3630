"""Cross-process outcome store: bit-identity, robustness, concurrency.

The store (:mod:`repro.sim.outcome_store`) is the on-disk second tier
under the per-process trace cache. Its contract has three legs, each
pinned here:

* **Bit-identity** — a trace or recording loaded from the store replays
  to results exactly equal to the compute path it replaces (op tuples,
  replay arrays, outcome streams, and end-to-end simulation results).
* **Robustness** — truncated, corrupted, mistyped, or mismatched
  entries read as misses (and are unlinked), never as wrong data; the
  size cap evicts least-recently-used entries and never touches foreign
  files.
* **Concurrency** — writers racing on the same digest publish
  atomically (temp file + rename): readers observe either nothing or a
  complete, checksum-valid entry.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.common.config import SimConfig
from repro.core.schemes import Scheme, scheme_config
from repro.sim import outcome_store, trace_cache
from repro.sim.batch import OutcomeSegment, ReplayOutcomes, build_arrays
from repro.sim.outcome_store import OutcomeStore
from repro.sim.simulator import simulate_workload
from repro.txn.persist import OP_CLWB, OP_FENCE, OP_STORE
from repro.workloads.generator import GeneratedTrace, generate_trace


@pytest.fixture(autouse=True)
def fresh_state():
    trace_cache.clear()
    trace_cache.use_store(None)
    outcome_store.reset_store_stats()
    yield
    trace_cache.clear()
    trace_cache.use_store(None)
    outcome_store.reset_store_stats()


def _cache_sig(scheme: Scheme = Scheme.SUPERMEM):
    cfg = scheme_config(scheme, None)
    return (cfg.l1, cfg.l2, cfg.l3, cfg.timing)


# ----------------------------------------------------------------------
# Encoding round trips
# ----------------------------------------------------------------------


class TestTraceRoundTrip:
    def test_generated_trace_round_trips_bit_identically(self, tmp_path):
        trace = generate_trace("btree", n_ops=25, request_size=256, seed=9)
        store = OutcomeStore(str(tmp_path))
        store.save_trace("d" * 64, trace)
        loaded = store.load_trace("d" * 64)
        assert loaded is not None
        assert loaded.ops == trace.ops
        assert loaded.warmup_ops == trace.warmup_ops
        assert loaded.workload_name == trace.workload_name
        assert loaded.request_size == trace.request_size
        assert loaded.footprint == trace.footprint
        assert loaded.n_ops == trace.n_ops
        assert loaded.seed == trace.seed

    def test_decoded_arrays_match_build_arrays(self, tmp_path):
        trace = generate_trace(
            "hashtable", n_ops=20, request_size=1024, seed=4, track_payloads=True
        )
        store = OutcomeStore(str(tmp_path))
        store.save_trace("e" * 64, trace)
        loaded = store.load_trace("e" * 64)
        expected = build_arrays(trace.ops)
        got = loaded.replay_arrays
        assert got is not None  # the decode attaches arrays in one pass
        assert got.kinds == expected.kinds
        assert got.args == expected.args
        assert got.payloads == expected.payloads
        assert got.n == expected.n

    def test_payload_none_vs_empty_bytes_preserved(self, tmp_path):
        # The u16 len+1 encoding reserves 0 for None; b"" must survive
        # as b"", not collapse into None (build_arrays distinguishes).
        trace = GeneratedTrace(
            ops=[
                (OP_STORE, 7),
                (OP_CLWB, 7, None),
                (OP_CLWB, 8, b""),
                (OP_CLWB, 9, b"\x01\x02"),
                (OP_FENCE,),
            ],
            workload_name="synthetic",
            request_size=64,
            footprint=1 << 12,
            n_ops=1,
            seed=0,
        )
        store = OutcomeStore(str(tmp_path))
        store.save_trace("f" * 64, trace)
        loaded = store.load_trace("f" * 64)
        assert loaded.ops == trace.ops
        assert loaded.replay_arrays.payloads == [None, None, b"", b"\x01\x02", None]

    def test_warmup_arrays_attached_only_when_present(self, tmp_path):
        bare = generate_trace("array", n_ops=10, seed=1)
        store = OutcomeStore(str(tmp_path))
        store.save_trace("a" * 64, bare)
        loaded = store.load_trace("a" * 64)
        assert loaded.warmup_ops == bare.warmup_ops
        if not bare.warmup_ops:
            assert loaded.warmup_replay_arrays is None


class TestOutcomesRoundTrip:
    def _outcomes(self, with_warmup: bool) -> ReplayOutcomes:
        main = OutcomeSegment(
            kinds=bytes([0, 1, 2, 0]),
            lats=[1.5, 0.0, 37.25, 2.0],
            wbs={2: (11, 12), 3: (99,)},
        )
        warmup = (
            OutcomeSegment(kinds=bytes([1]), lats=[4.0], wbs={})
            if with_warmup
            else None
        )
        # int-vs-float must survive: replay does vals[key] += delta.
        stat_delta = (
            (("cache", "hits"), 3),
            (("nvm", "busy_ns"), 12.5),
        )
        return ReplayOutcomes(main, warmup, stat_delta)

    @pytest.mark.parametrize("with_warmup", [False, True])
    def test_round_trip_exact(self, tmp_path, with_warmup):
        store = OutcomeStore(str(tmp_path))
        sig = _cache_sig()
        outcomes = self._outcomes(with_warmup)
        store.save_outcomes("1" * 64, sig, outcomes)
        loaded = store.load_outcomes("1" * 64, sig)
        assert loaded is not None
        assert loaded.main.kinds == outcomes.main.kinds
        assert loaded.main.lats == outcomes.main.lats
        assert loaded.main.wbs == outcomes.main.wbs
        if with_warmup:
            assert loaded.warmup.kinds == outcomes.warmup.kinds
            assert loaded.warmup.lats == outcomes.warmup.lats
            assert loaded.warmup.wbs == outcomes.warmup.wbs
        else:
            assert loaded.warmup is None
        assert loaded.stat_delta == outcomes.stat_delta
        assert [type(v) for _, v in loaded.stat_delta] == [int, float]

    def test_geometry_keys_entries_apart(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        sig_a = _cache_sig(Scheme.SUPERMEM)
        cfg = scheme_config(Scheme.SUPERMEM, None)
        sig_b = (
            dataclasses.replace(cfg.l1, size=cfg.l1.size * 2),
            cfg.l2,
            cfg.l3,
            cfg.timing,
        )
        store.save_outcomes("2" * 64, sig_a, self._outcomes(False))
        assert store.load_outcomes("2" * 64, sig_b) is None
        assert store.load_outcomes("2" * 64, sig_a) is not None

    def test_length_mismatch_reads_as_miss_and_unlinks(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        sig = _cache_sig()
        store.save_outcomes("3" * 64, sig, self._outcomes(False))
        assert store.load_outcomes("3" * 64, sig, n_main=999) is None
        # The mismatched entry was dropped: a well-formed lookup misses too.
        assert store.load_outcomes("3" * 64, sig) is None


# ----------------------------------------------------------------------
# Differential bit-identity through the simulator
# ----------------------------------------------------------------------


def _run(workload, scheme, store_dir=None, fidelity="timing", warmup_ops=0):
    base = None
    if store_dir is not None:
        base = dataclasses.replace(SimConfig(), outcome_store=str(store_dir))
    return simulate_workload(
        workload,
        scheme,
        n_ops=15,
        request_size=256,
        seed=2,
        warmup_ops=warmup_ops,
        base_config=base,
        fidelity=fidelity,
    )


class TestDifferential:
    @pytest.mark.parametrize("fidelity", ["timing", "full"])
    @pytest.mark.parametrize("scheme", [Scheme.SUPERMEM, Scheme.WT_BASE])
    def test_cold_and_warm_store_match_no_store(self, tmp_path, scheme, fidelity):
        reference = _run("array", scheme, fidelity=fidelity)

        trace_cache.clear()
        cold = _run("array", scheme, store_dir=tmp_path, fidelity=fidelity)

        trace_cache.clear()  # a fresh process: everything must load
        outcome_store.reset_store_stats()
        warm = _run("array", scheme, store_dir=tmp_path, fidelity=fidelity)
        stats = outcome_store.store_stats()
        assert stats["trace_hits"] == 1 and stats["trace_misses"] == 0
        assert stats["outcome_hits"] == 1 and stats["outcome_misses"] == 0

        for result in (cold, warm):
            assert result.total_time_ns == reference.total_time_ns
            assert result.txn_latencies == reference.txn_latencies
            assert result.stats.snapshot() == reference.stats.snapshot()

    def test_warmup_segment_round_trips_through_store(self, tmp_path):
        reference = _run("queue", Scheme.SUPERMEM, warmup_ops=5)
        trace_cache.clear()
        _run("queue", Scheme.SUPERMEM, store_dir=tmp_path, warmup_ops=5)
        trace_cache.clear()
        warm = _run("queue", Scheme.SUPERMEM, store_dir=tmp_path, warmup_ops=5)
        assert warm.total_time_ns == reference.total_time_ns
        assert warm.txn_latencies == reference.txn_latencies
        assert warm.stats.snapshot() == reference.stats.snapshot()

    def test_sweep_second_process_records_nothing(self, tmp_path):
        """The fleet guarantee: a warm process generates and records zero."""
        schemes = (Scheme.UNSEC, Scheme.WT_BASE, Scheme.SUPERMEM)

        def sweep():
            return [_run("btree", s, store_dir=tmp_path) for s in schemes]

        cold = sweep()
        trace_cache.clear()
        outcome_store.reset_store_stats()
        warm = sweep()
        stats = outcome_store.store_stats()
        assert stats["trace_misses"] == 0
        assert stats["outcome_misses"] == 0
        assert stats["bytes_written"] == 0  # nothing recorded, nothing saved
        for a, b in zip(cold, warm):
            assert a.total_time_ns == b.total_time_ns
            assert a.txn_latencies == b.txn_latencies
            assert a.stats.snapshot() == b.stats.snapshot()

    def test_no_store_config_never_touches_disk(self, tmp_path):
        _run("array", Scheme.SUPERMEM, store_dir=tmp_path)
        trace_cache.clear()
        outcome_store.reset_store_stats()
        _run("array", Scheme.SUPERMEM)  # outcome_store=None deactivates
        stats = outcome_store.store_stats()
        assert stats == {key: 0 for key in stats}
        assert trace_cache.active_store() is None


# ----------------------------------------------------------------------
# Corruption / truncation tolerance
# ----------------------------------------------------------------------


class TestCorruption:
    def _entry_path(self, store, tmp_path):
        trace = generate_trace("array", n_ops=10, seed=5)
        store.save_trace("b" * 64, trace)
        return os.path.join(store.root, "b" * 64 + ".trace")

    def test_truncated_header_is_miss_and_unlinked(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        path = self._entry_path(store, tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"SM")
        assert store.load_trace("b" * 64) is None
        assert not os.path.exists(path)

    def test_truncated_payload_is_miss_and_unlinked(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        path = self._entry_path(store, tmp_path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert store.load_trace("b" * 64) is None
        assert not os.path.exists(path)

    def test_bad_magic_is_miss_and_unlinked(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        path = self._entry_path(store, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        assert store.load_trace("b" * 64) is None
        assert not os.path.exists(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        path = self._entry_path(store, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(path, "wb").write(bytes(data))
        assert store.load_trace("b" * 64) is None
        assert not os.path.exists(path)

    def test_wrong_entry_kind_is_miss(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        path = self._entry_path(store, tmp_path)
        alias = os.path.join(
            store.root, store._outcome_name("b" * 64, _cache_sig())
        )
        os.rename(path, alias)
        # A trace-kind entry under an outcomes name must not decode.
        assert store.load_outcomes("b" * 64, _cache_sig()) is None
        assert not os.path.exists(alias)

    def test_missing_file_is_plain_miss(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        outcome_store.reset_store_stats()
        assert store.load_trace("c" * 64) is None
        assert outcome_store.store_stats()["trace_misses"] == 1


# ----------------------------------------------------------------------
# Size cap / GC / clear
# ----------------------------------------------------------------------


class TestGc:
    def _fill(self, store, n=3):
        names = []
        for i in range(n):
            digest = f"{i:064d}"
            store.save_trace(digest, generate_trace("array", n_ops=10, seed=i))
            names.append(digest + ".trace")
        return names

    def test_gc_evicts_oldest_mtime_first(self, tmp_path):
        store = OutcomeStore(str(tmp_path), cap_bytes=1 << 30)
        names = self._fill(store)
        for age, name in enumerate(reversed(names)):
            path = os.path.join(store.root, name)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        keep = os.path.getsize(os.path.join(store.root, names[0]))
        removed = store.gc(cap_bytes=keep)
        assert removed == 2
        survivors = [info.name for info in store.entries()]
        assert survivors == [names[0]]  # newest mtime survived

    def test_write_triggers_gc_at_cap(self, tmp_path):
        store = OutcomeStore(str(tmp_path), cap_bytes=1)
        self._fill(store, n=2)
        # Every publish immediately GCs back under the (tiny) cap.
        assert len(store.entries()) <= 1

    def test_foreign_files_never_collected(self, tmp_path):
        store = OutcomeStore(str(tmp_path), cap_bytes=1 << 30)
        foreign = tmp_path / "README"
        foreign.write_text("not an entry")
        self._fill(store)
        store.gc(cap_bytes=0)
        assert foreign.exists()
        store.clear()
        assert foreign.exists()
        kinds = {info.kind for info in store.entries()}
        assert kinds == {"other"}

    def test_no_temp_files_left_behind(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        self._fill(store)
        assert not [n for n in os.listdir(store.root) if n.startswith(".tmp.")]

    def test_stats_counts_by_kind(self, tmp_path):
        store = OutcomeStore(str(tmp_path))
        self._fill(store, n=2)
        store.save_outcomes(
            "9" * 64,
            _cache_sig(),
            ReplayOutcomes(OutcomeSegment(b"\x00", [1.0], {}), None, ()),
        )
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["by_kind"]["trace"]["entries"] == 2
        assert stats["by_kind"]["outcomes"]["entries"] == 1
        assert stats["bytes"] == sum(i.size for i in store.entries())


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------


def _racing_writer(root: str, digest: str, seed: int, rounds: int) -> None:
    store = OutcomeStore(root)
    trace = generate_trace("btree", n_ops=15, request_size=256, seed=seed)
    for _ in range(rounds):
        store.save_trace(digest, trace)


class TestConcurrentWriters:
    def test_two_processes_racing_same_digest(self, tmp_path):
        """Atomic rename: readers racing two writers never see a torn
        entry — every load either misses or decodes a complete trace."""
        digest = "c" * 64
        procs = [
            multiprocessing.Process(
                target=_racing_writer, args=(str(tmp_path), digest, 7, 40)
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        store = OutcomeStore(str(tmp_path))
        expected = generate_trace("btree", n_ops=15, request_size=256, seed=7)
        observed = 0
        while any(proc.is_alive() for proc in procs):
            loaded = store.load_trace(digest)
            if loaded is not None:
                observed += 1
                assert loaded.ops == expected.ops
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        # Last write wins and is readable afterwards.
        final = store.load_trace(digest)
        assert final is not None
        assert final.ops == expected.ops
        assert observed >= 1
        assert not [
            n for n in os.listdir(str(tmp_path)) if n.startswith(".tmp.")
        ]


# ----------------------------------------------------------------------
# The `repro cache` CLI
# ----------------------------------------------------------------------


class TestCacheCli:
    def test_json_stats_and_prune(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        store = OutcomeStore(str(tmp_path))
        store.save_trace("5" * 64, generate_trace("array", n_ops=10, seed=1))

        assert main(["cache", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["by_kind"]["trace"]["entries"] == 1

        assert main(["cache", str(tmp_path), "--prune", "--cap-mb", "0", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["pruned"] == 1
        assert stats["entries"] == 0
