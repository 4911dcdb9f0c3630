"""Cross-process outcome store: traces + hierarchy recordings on disk.

The per-process caches of :mod:`repro.sim.trace_cache` make a seven-scheme
sweep generate each trace once and record each (trace, cache geometry)
cache walk once — *per process*. Every worker of a ``--jobs 4`` sweep,
every fresh ``repro run`` invocation, and every CI drill
still pays generation and recording from scratch. This module is the
second tier under that cache: a content-digest-keyed on-disk store that
persists the compact binary form of a generated trace (its op streams,
decoded to :class:`~repro.sim.batch.TraceArrays` on load) and of each
recorded :class:`~repro.sim.batch.ReplayOutcomes` stream, so a fleet of
processes records each (trace, geometry) exactly once.

The store follows the sweep journal's robustness rules
(:mod:`repro.experiments.journal`):

* **Content keys, not positions.** A trace entry is keyed by a sha256
  digest over every :func:`~repro.workloads.generator.generate_trace`
  input; an outcomes entry by that digest plus a digest of the cache
  geometry signature ``(l1, l2, l3, timing)``. Two entries share a key
  iff they would simulate identically.
* **Salted by code version.** :data:`STORE_SALT` plus
  ``repro.__version__`` is folded into every digest, so entries written
  by a different model version become unreachable (and are eventually
  garbage-collected) instead of silently replaying stale results.
* **Torn files are expected.** Every entry carries a length header and a
  trailing sha256 checksum over its payload; a truncated or corrupted
  file reads as a miss (and is unlinked), never as wrong data.
* **Atomic publication.** Entries are written to a per-writer temp file
  and published with ``os.replace``, so concurrent workers racing on the
  same digest are safe: readers see either nothing or a complete entry,
  and the last writer wins with bytes identical to the loser's.

The store is size-capped: after each write the total entry size is
checked against ``cap_bytes`` and least-recently-*used* entries (mtime
order — loads touch mtime) are evicted until the store fits. Every load
path is **bit-identical** to the compute path it replaces — differential
tests in ``tests/sim/test_outcome_store.py`` assert equality of the
decoded op tuples, arrays, outcome streams, and end-to-end results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import struct
from array import array
from typing import Dict, List, Optional, Tuple

from repro.sim.batch import OutcomeSegment, ReplayOutcomes, TraceArrays
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
)
from repro.workloads.generator import GeneratedTrace

#: Bump when the entry encoding or the simulation model changes in a way
#: that invalidates stored traces/recordings. Folded (with
#: ``repro.__version__``) into every digest, so a bump orphans old
#: entries rather than replaying them.
STORE_SALT = "supermem-outcomes-v1"

#: Default size cap: generous for figure grids (a smoke-scale trace entry
#: is a few KB), small enough that unattended sweeps cannot fill a disk.
DEFAULT_CAP_BYTES = 256 << 20

_MAGIC = b"SMOS"
_VERSION = 1
_KIND_TRACE = 1
_KIND_OUTCOMES = 2
#: magic + version u16 + kind u8 + payload length u64
_HEADER = struct.Struct("<4sHBQ")
_CHECKSUM_LEN = 32

_TRACE_SUFFIX = ".trace"
_OUTCOME_SUFFIX = ".outc"

# ----------------------------------------------------------------------
# Process-wide store accounting (mirrors trace_cache's counter style).
# ----------------------------------------------------------------------

_STAT_KEYS = (
    "trace_hits",
    "trace_misses",
    "outcome_hits",
    "outcome_misses",
    "bytes_read",
    "bytes_written",
)

_stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}


def store_stats() -> Dict[str, int]:
    """Process-wide store counters since :func:`reset_store_stats`.

    ``trace_hits``/``trace_misses`` and ``outcome_hits``/
    ``outcome_misses`` count disk lookups by entry kind (a corrupt entry
    counts as a miss); ``bytes_read``/``bytes_written`` total the entry
    bytes moved. The sweep runner carries their per-sweep delta on
    ``RunnerReport.outcome_store`` and prints the lookups on its stderr
    accounting line.
    """
    return dict(_stats)


def reset_store_stats() -> None:
    """Zero the process-wide store counters."""
    for key in _STAT_KEYS:
        _stats[key] = 0


# ----------------------------------------------------------------------
# Content digests
# ----------------------------------------------------------------------


def _jsonify(obj: object) -> object:
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"not store-digestable: {obj!r}")


def digest_salt() -> str:
    """The full salt folded into every store digest."""
    from repro import __version__

    return f"{STORE_SALT}:{__version__}"


def _digest(payload: Dict[str, object]) -> str:
    canon = json.dumps(payload, sort_keys=True, default=_jsonify)
    return hashlib.sha256(canon.encode()).hexdigest()


def trace_digest(
    name: str,
    n_ops: int,
    request_size: int,
    footprint: int,
    heap_base: int,
    heap_capacity: Optional[int],
    seed: int,
    warmup_ops: int,
    track_payloads: bool,
) -> str:
    """Content digest over every input that determines a generated trace.

    The same key set :func:`repro.sim.trace_cache.cached_generate_trace`
    memoizes on, plus the version salt.
    """
    return _digest(
        {
            "salt": digest_salt(),
            "kind": "trace",
            "name": name,
            "n_ops": n_ops,
            "request_size": request_size,
            "footprint": footprint,
            "heap_base": heap_base,
            "heap_capacity": heap_capacity,
            "seed": seed,
            "warmup_ops": warmup_ops,
            "track_payloads": track_payloads,
        }
    )


def geometry_digest(cache_sig: Tuple) -> str:
    """Content digest of one cache-geometry signature.

    ``cache_sig`` is the ``(l1, l2, l3, timing)`` tuple of frozen config
    dataclasses that keys recorded outcome streams in the process cache;
    the digest covers every field of each, so two geometries share a
    digest iff their cache walks are identical.
    """
    return _digest(
        {
            "salt": digest_salt(),
            "kind": "geometry",
            "sig": [dataclasses.asdict(part) for part in cache_sig],
        }
    )[:24]


# ----------------------------------------------------------------------
# Binary op-stream encoding (buffer-resident)
# ----------------------------------------------------------------------

_PACK_B = struct.Struct("<B").pack
_PACK_Q = struct.Struct("<Q").pack
_PACK_D = struct.Struct("<d").pack
_PACK_H = struct.Struct("<H").pack
_UNPACK_Q = struct.Struct("<Q").unpack_from
_UNPACK_D = struct.Struct("<d").unpack_from
_UNPACK_H = struct.Struct("<H").unpack_from


def _pack_ops(buf: bytearray, ops) -> None:
    """Append one op stream to ``buf``.

    Each op is a one-byte opcode followed by its operand: a u64 address
    (load, store, CLWB) or transaction id, or an f64 compute time. CLWB
    payloads are length-prefixed with ``0`` reserved for ``None``
    (lengths are stored +1), preserving the ``None``-vs-``b""``
    distinction bit-for-bit.
    """
    append = buf.extend
    for op in ops:
        kind = op[0]
        append(_PACK_B(kind))
        if kind <= OP_STORE:  # OP_LOAD or OP_STORE
            append(_PACK_Q(op[1]))
        elif kind == OP_CLWB:
            append(_PACK_Q(op[1]))
            payload = op[2] if len(op) > 2 else None
            if payload is None:
                append(_PACK_H(0))
            else:
                append(_PACK_H(len(payload) + 1))
                append(payload)
        elif kind == OP_FENCE:
            pass
        elif kind in (OP_TXN_BEGIN, OP_TXN_END):
            append(_PACK_Q(op[1]))
        elif kind == OP_COMPUTE:
            append(_PACK_D(op[1]))
        else:
            raise ValueError(f"cannot serialise op {op!r}")


def _unpack_ops(buf: bytes, off: int, n: int) -> Tuple[list, TraceArrays, int]:
    """Decode ``n`` ops from ``buf`` at ``off``.

    Returns the op tuples *and* their :class:`TraceArrays` built in the
    same pass — a store hit pays one decode, never an extra
    :func:`~repro.sim.batch.build_arrays` walk — plus the next offset.
    The arrays match :func:`build_arrays` exactly (``payloads`` stays
    ``None`` unless some clwb actually carries bytes).
    """
    ops: list = []
    ops_append = ops.append
    kinds = bytearray(n)
    args: List[object] = [0] * n
    payloads: Optional[List[Optional[bytes]]] = None
    for i in range(n):
        kind = buf[off]
        off += 1
        kinds[i] = kind
        if kind <= OP_STORE:
            (line,) = _UNPACK_Q(buf, off)
            off += 8
            args[i] = line
            ops_append((kind, line))
        elif kind == OP_CLWB:
            (line,) = _UNPACK_Q(buf, off)
            off += 8
            (plen,) = _UNPACK_H(buf, off)
            off += 2
            if plen:
                payload = bytes(buf[off : off + plen - 1])
                off += plen - 1
                if payloads is None:
                    payloads = [None] * n
                payloads[i] = payload
            else:
                payload = None
            args[i] = line
            ops_append((kind, line, payload))
        elif kind == OP_FENCE:
            ops_append((kind,))
        elif kind in (OP_TXN_BEGIN, OP_TXN_END):
            (txn_id,) = _UNPACK_Q(buf, off)
            off += 8
            args[i] = txn_id
            ops_append((kind, txn_id))
        elif kind == OP_COMPUTE:
            (ns,) = _UNPACK_D(buf, off)
            off += 8
            args[i] = ns
            ops_append((kind, ns))
        else:
            raise ValueError(f"unknown opcode {kind} in store entry")
    return ops, TraceArrays(bytes(kinds), args, payloads, n), off


def _encode_trace(trace: GeneratedTrace) -> bytes:
    """The store payload of one generated trace: metadata + op streams."""
    meta = json.dumps(
        {
            "workload_name": trace.workload_name,
            "request_size": trace.request_size,
            "footprint": trace.footprint,
            "n_ops": trace.n_ops,
            "seed": trace.seed,
        },
        sort_keys=True,
    ).encode()
    buf = bytearray()
    buf += _PACK_Q(len(meta))
    buf += meta
    buf += _PACK_Q(len(trace.ops))
    buf += _PACK_Q(len(trace.warmup_ops))
    _pack_ops(buf, trace.ops)
    _pack_ops(buf, trace.warmup_ops)
    return bytes(buf)


def _decode_trace(payload: bytes) -> GeneratedTrace:
    """Rebuild a :class:`GeneratedTrace` (with replay arrays attached)."""
    (meta_len,) = _UNPACK_Q(payload, 0)
    off = 8 + meta_len
    meta = json.loads(payload[8:off].decode())
    (n_main,) = _UNPACK_Q(payload, off)
    (n_warm,) = _UNPACK_Q(payload, off + 8)
    off += 16
    ops, arrays, off = _unpack_ops(payload, off, n_main)
    warmup, warm_arrays, off = _unpack_ops(payload, off, n_warm)
    if off != len(payload):
        raise ValueError("trailing bytes in trace entry")
    trace = GeneratedTrace(
        ops=ops,
        workload_name=meta["workload_name"],
        request_size=meta["request_size"],
        footprint=meta["footprint"],
        n_ops=meta["n_ops"],
        seed=meta["seed"],
        warmup_ops=warmup,
    )
    trace.replay_arrays = arrays
    if n_warm:
        trace.warmup_replay_arrays = warm_arrays
    return trace


# ----------------------------------------------------------------------
# Outcome-stream encoding
# ----------------------------------------------------------------------


def _pack_segment(buf: bytearray, segment: OutcomeSegment) -> None:
    n = len(segment.kinds)
    buf += _PACK_Q(n)
    buf += segment.kinds
    buf += array("d", segment.lats).tobytes()
    wbs = segment.wbs
    buf += _PACK_Q(len(wbs))
    for index in sorted(wbs):
        victims = wbs[index]
        buf += _PACK_Q(index)
        buf += _PACK_H(len(victims))
        for victim in victims:
            buf += _PACK_Q(victim)


def _unpack_segment(buf: bytes, off: int) -> Tuple[OutcomeSegment, int]:
    (n,) = _UNPACK_Q(buf, off)
    off += 8
    kinds = bytes(buf[off : off + n])
    off += n
    lats = array("d")
    lats.frombytes(buf[off : off + 8 * n])
    off += 8 * n
    (n_wbs,) = _UNPACK_Q(buf, off)
    off += 8
    wbs: dict = {}
    for _ in range(n_wbs):
        (index,) = _UNPACK_Q(buf, off)
        off += 8
        (n_vict,) = _UNPACK_H(buf, off)
        off += 2
        victims = []
        for _ in range(n_vict):
            (victim,) = _UNPACK_Q(buf, off)
            off += 8
            victims.append(victim)
        wbs[index] = tuple(victims)
    return OutcomeSegment(kinds, list(lats), wbs), off


def _encode_outcomes(outcomes: ReplayOutcomes) -> bytes:
    """The store payload of one recorded hierarchy outcome stream.

    Kinds travel as raw bytes, latencies as ``array('d')`` (f64
    round-trips are exact), write-back maps sparsely; the stat delta
    rides as JSON because JSON preserves the int-vs-float distinction
    the replay's ``vals[key] += delta`` bumps rely on.
    """
    buf = bytearray()
    buf += _PACK_B(1 if outcomes.warmup is not None else 0)
    _pack_segment(buf, outcomes.main)
    if outcomes.warmup is not None:
        _pack_segment(buf, outcomes.warmup)
    delta = json.dumps(
        [[list(key), value] for key, value in outcomes.stat_delta],
        sort_keys=False,
    ).encode()
    buf += _PACK_Q(len(delta))
    buf += delta
    return bytes(buf)


def _decode_outcomes(payload: bytes) -> ReplayOutcomes:
    has_warmup = payload[0]
    main, off = _unpack_segment(payload, 1)
    warmup = None
    if has_warmup:
        warmup, off = _unpack_segment(payload, off)
    (delta_len,) = _UNPACK_Q(payload, off)
    off += 8
    delta_raw = json.loads(payload[off : off + delta_len].decode())
    if off + delta_len != len(payload):
        raise ValueError("trailing bytes in outcomes entry")
    stat_delta = tuple((tuple(key), value) for key, value in delta_raw)
    return ReplayOutcomes(main, warmup, stat_delta)


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EntryInfo:
    """One on-disk entry, as reported by :meth:`OutcomeStore.entries`."""

    name: str
    kind: str  # "trace" / "outcomes" / "other"
    size: int
    mtime: float


class OutcomeStore:
    """A directory of digest-named, checksummed, atomically-written entries.

    ``root`` is created on first use. One file per entry:
    ``<trace-digest>.trace`` holds a trace's op streams,
    ``<trace-digest>-<geometry-digest>.outc`` one recorded outcome
    stream. Writers publish via temp file + ``os.replace``; readers
    verify the header and payload checksum and treat any mismatch as a
    miss (unlinking the bad file). Loads touch mtime, and :meth:`gc`
    evicts oldest-mtime entries beyond ``cap_bytes`` — LRU by access.
    """

    def __init__(self, root: str, cap_bytes: Optional[int] = None):
        self.root = os.path.abspath(root)
        self.cap_bytes = DEFAULT_CAP_BYTES if cap_bytes is None else cap_bytes
        os.makedirs(self.root, exist_ok=True)
        self._tmp_seq = 0

    # -- entry files -----------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _write_entry(self, name: str, kind: int, payload: bytes) -> None:
        data = (
            _HEADER.pack(_MAGIC, _VERSION, kind, len(payload))
            + payload
            + hashlib.sha256(payload).digest()
        )
        self._tmp_seq += 1
        tmp = self._path(f".tmp.{os.getpid()}.{self._tmp_seq}.{name}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(name))
        except OSError:
            # A full disk or vanished directory degrades the store to a
            # pass-through; the compute path still has the result.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        _stats["bytes_written"] += len(data)
        self.gc()

    def _read_entry(self, name: str, kind: int) -> Optional[bytes]:
        path = self._path(name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        header_len = _HEADER.size
        if len(data) < header_len + _CHECKSUM_LEN:
            self._drop(path)
            return None
        magic, version, entry_kind, payload_len = _HEADER.unpack_from(data)
        if (
            magic != _MAGIC
            or version != _VERSION
            or entry_kind != kind
            or len(data) != header_len + payload_len + _CHECKSUM_LEN
        ):
            self._drop(path)
            return None
        payload = data[header_len : header_len + payload_len]
        if hashlib.sha256(payload).digest() != data[header_len + payload_len :]:
            self._drop(path)
            return None
        _stats["bytes_read"] += len(data)
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return payload

    @staticmethod
    def _drop(path: str) -> None:
        """Best-effort unlink of a torn/corrupt entry."""
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- traces ----------------------------------------------------------

    def load_trace(self, digest: str) -> Optional[GeneratedTrace]:
        """The stored trace for ``digest`` (arrays attached), or ``None``."""
        payload = self._read_entry(digest + _TRACE_SUFFIX, _KIND_TRACE)
        if payload is None:
            _stats["trace_misses"] += 1
            return None
        try:
            trace = _decode_trace(payload)
        except (ValueError, KeyError, IndexError, struct.error, UnicodeDecodeError):
            self._drop(self._path(digest + _TRACE_SUFFIX))
            _stats["trace_misses"] += 1
            return None
        _stats["trace_hits"] += 1
        return trace

    def save_trace(self, digest: str, trace: GeneratedTrace) -> None:
        """Persist one generated trace under its content digest."""
        self._write_entry(digest + _TRACE_SUFFIX, _KIND_TRACE, _encode_trace(trace))

    # -- outcome streams -------------------------------------------------

    @staticmethod
    def _outcome_name(trace_digest_: str, cache_sig: Tuple) -> str:
        return f"{trace_digest_}-{geometry_digest(cache_sig)}{_OUTCOME_SUFFIX}"

    def load_outcomes(
        self,
        trace_digest_: str,
        cache_sig: Tuple,
        n_main: Optional[int] = None,
        n_warm: Optional[int] = None,
    ) -> Optional[ReplayOutcomes]:
        """The stored recording for (trace digest, geometry), or ``None``.

        ``n_main``/``n_warm`` let the caller assert the recording matches
        its trace — a mismatched entry (impossible short of a digest
        collision, but cheap to check) reads as a miss.
        """
        name = self._outcome_name(trace_digest_, cache_sig)
        payload = self._read_entry(name, _KIND_OUTCOMES)
        if payload is None:
            _stats["outcome_misses"] += 1
            return None
        try:
            outcomes = _decode_outcomes(payload)
        except (ValueError, KeyError, IndexError, struct.error, UnicodeDecodeError):
            self._drop(self._path(name))
            _stats["outcome_misses"] += 1
            return None
        recorded_warm = 0 if outcomes.warmup is None else len(outcomes.warmup.kinds)
        if (n_main is not None and len(outcomes.main.kinds) != n_main) or (
            n_warm is not None and recorded_warm != n_warm
        ):
            self._drop(self._path(name))
            _stats["outcome_misses"] += 1
            return None
        _stats["outcome_hits"] += 1
        return outcomes

    def save_outcomes(
        self, trace_digest_: str, cache_sig: Tuple, outcomes: ReplayOutcomes
    ) -> None:
        """Persist one recorded outcome stream for (trace, geometry)."""
        self._write_entry(
            self._outcome_name(trace_digest_, cache_sig),
            _KIND_OUTCOMES,
            _encode_outcomes(outcomes),
        )

    # -- inspection / GC -------------------------------------------------

    def entries(self) -> List[EntryInfo]:
        """Every published entry, oldest mtime first (in-flight temp
        files and foreign files are reported as kind ``"other"``)."""
        infos: List[EntryInfo] = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return infos
        for name in names:
            try:
                st = os.stat(self._path(name))
            except OSError:
                continue  # racing writer published/retired it meanwhile
            if name.endswith(_TRACE_SUFFIX):
                kind = "trace"
            elif name.endswith(_OUTCOME_SUFFIX):
                kind = "outcomes"
            else:
                kind = "other"
            infos.append(EntryInfo(name, kind, st.st_size, st.st_mtime))
        infos.sort(key=lambda info: (info.mtime, info.name))
        return infos

    def stats(self) -> Dict[str, object]:
        """Inspection summary: entry counts and bytes by kind, plus cap."""
        infos = self.entries()
        by_kind: Dict[str, Dict[str, int]] = {}
        total = 0
        for info in infos:
            bucket = by_kind.setdefault(info.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += info.size
            total += info.size
        return {
            "root": self.root,
            "entries": len(infos),
            "bytes": total,
            "cap_bytes": self.cap_bytes,
            "by_kind": by_kind,
        }

    def gc(self, cap_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries beyond the size cap.

        Returns the number of entries removed. ``cap_bytes`` overrides
        the store's cap for this pass (``repro cache --prune`` uses it).
        """
        cap = self.cap_bytes if cap_bytes is None else cap_bytes
        infos = self.entries()
        total = sum(info.size for info in infos)
        removed = 0
        for info in infos:  # oldest first
            if total <= cap:
                break
            if info.kind == "other":
                continue  # never GC foreign files or in-flight temps
            self._drop(self._path(info.name))
            total -= info.size
            removed += 1
        return removed

    def clear(self) -> int:
        """Remove every trace/outcomes entry. Returns the count removed."""
        removed = 0
        for info in self.entries():
            if info.kind == "other":
                continue
            self._drop(self._path(info.name))
            removed += 1
        return removed
