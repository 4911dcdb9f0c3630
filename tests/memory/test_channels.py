"""Tests for multi-channel command-bus modelling."""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig, TimingConfig
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.memory.controller import MemoryController

T = TimingConfig()


def make_mc(n_channels=1, bus_ns=None, **kw):
    timing = TimingConfig(bus_ns=bus_ns) if bus_ns is not None else TimingConfig()
    cfg = SimConfig(
        memory=MemoryConfig(capacity=8 << 20, n_channels=n_channels, **kw),
        timing=timing,
    )
    return MemoryController(cfg, Stats())


def test_invalid_channel_counts_rejected():
    with pytest.raises(ConfigError):
        MemoryConfig(n_banks=8, n_channels=3)
    with pytest.raises(ConfigError):
        MemoryConfig(n_banks=8, n_channels=0)


def test_channel_of_bank():
    mc = make_mc(n_channels=2)
    assert mc._channel_of(0) == 0
    assert mc._channel_of(3) == 0
    assert mc._channel_of(4) == 1
    assert mc._channel_of(7) == 1


def test_single_channel_is_default():
    mc = make_mc()
    assert mc.n_channels == 1
    assert mc.bus_free_at == [0.0]


def test_reads_on_different_channels_avoid_bus_serialisation():
    """With a large bus occupancy, two same-instant reads to banks in
    different channels both start immediately; in one channel the second
    is pushed behind the first's bus slot."""
    single = make_mc(n_channels=1, bus_ns=40.0)
    r1 = single.read(0.0, line=0)  # bank 0
    r2 = single.read(0.0, line=4 * 64)  # bank 4, same channel
    assert r2 == pytest.approx(r1 + 40.0)

    dual = make_mc(n_channels=2, bus_ns=40.0)
    r1 = dual.read(0.0, line=0)  # bank 0 -> channel 0
    r2 = dual.read(0.0, line=4 * 64)  # bank 4 -> channel 1
    assert r2 == pytest.approx(r1)


def test_writes_track_per_channel_bus():
    mc = make_mc(n_channels=2, bus_ns=40.0, wq_high_watermark=1, wq_low_watermark=0)
    mc.append_write(0.0, line=0)  # bank 0 -> channel 0
    mc.append_write(0.0, line=4 * 64)  # bank 4 -> channel 1
    mc.drain_all()
    assert mc.bus_free_at[0] > 0
    assert mc.bus_free_at[1] > 0


def test_end_to_end_simulation_with_two_channels():
    from repro.core.schemes import Scheme, scheme_config
    from repro.sim.simulator import Simulator
    from repro.workloads.generator import generate_trace

    trace = generate_trace("queue", n_ops=10, request_size=256, footprint=64 << 10)
    cfg = dataclasses.replace(
        scheme_config(
            Scheme.SUPERMEM,
            SimConfig(memory=MemoryConfig(capacity=8 << 20, n_channels=2)),
        ),
        fidelity="timing",
    )
    result = Simulator(cfg).run(list(trace.ops))
    assert result.n_txns == 10
