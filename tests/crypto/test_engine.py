"""Tests for the PRF pad engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.crypto.engine import PRFPadEngine


@pytest.fixture(params=["prf"])
def engine(request):
    return PRFPadEngine(b"prf-key")


def test_pad_length(engine):
    assert len(engine.pad(0, 0)) == CACHE_LINE_SIZE


def test_pad_deterministic(engine):
    assert engine.pad(12, 34) == engine.pad(12, 34)


def test_pad_differs_by_address(engine):
    assert engine.pad(1, 7) != engine.pad(2, 7)


def test_pad_differs_by_counter(engine):
    assert engine.pad(1, 7) != engine.pad(1, 8)


def test_pad_not_trivial(engine):
    pad = engine.pad(5, 5)
    assert pad != bytes(CACHE_LINE_SIZE)
    assert len(set(pad)) > 4  # not a constant fill


def test_pads_batch_matches_individual(engine):
    pairs = [(line, counter) for line in range(5) for counter in range(3)]
    assert engine.pads(pairs) == [engine.pad(*pair) for pair in pairs]


def test_prf_engine_needs_nonempty_key():
    with pytest.raises(ConfigError):
        PRFPadEngine(b"")


def test_engines_produce_independent_streams():
    """Different keys must give unrelated pads."""
    a = PRFPadEngine(b"key-a").pad(1, 1)
    b = PRFPadEngine(b"key-b").pad(1, 1)
    assert a != b


def test_large_counter_values_supported():
    engine = PRFPadEngine(b"key")
    big = (1 << 62) + 3
    assert engine.pad(0, big) != engine.pad(0, big - 1)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=1 << 40),
)
def test_property_prf_unique_per_counter(addr, counter):
    engine = PRFPadEngine(b"property-key")
    assert engine.pad(addr, counter) != engine.pad(addr, counter + 1)
