"""Tests for the pluggable pad engines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.crypto.engine import AESPadEngine, PRFPadEngine, make_engine


@pytest.fixture(params=["prf", "aes"])
def engine(request):
    key = b"0123456789abcdef" if request.param == "aes" else b"prf-key"
    return make_engine(request.param, key)


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


def test_make_engine_rejects_unknown():
    with pytest.raises(ConfigError):
        make_engine("rot13", b"key")


def test_aes_engine_needs_16_byte_key():
    with pytest.raises(ConfigError):
        AESPadEngine(b"short")


def test_prf_engine_needs_nonempty_key():
    with pytest.raises(ConfigError):
        PRFPadEngine(b"")


def test_engines_produce_independent_streams():
    """Different keys must give unrelated pads."""
    a = PRFPadEngine(b"key-a").pad(1, 1)
    b = PRFPadEngine(b"key-b").pad(1, 1)
    assert a != b


def test_aes_and_prf_engines_disagree():
    """AES and PRF are different constructions — guard against one
    silently delegating to the other."""
    key = bytes(range(16))
    assert AESPadEngine(key).pad(5, 5) != PRFPadEngine(key).pad(5, 5)


def test_large_counter_values_supported():
    engine = PRFPadEngine(b"key")
    big = (1 << 62) + 3
    assert engine.pad(0, big) != engine.pad(0, big - 1)


def test_aes_engine_counter_wraps_at_56_bits():
    """The AES seed packs a 56-bit counter; values beyond that alias."""
    engine = AESPadEngine(b"0123456789abcdef")
    assert engine.pad(0, 1 << 56) == engine.pad(0, 0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=1 << 40),
)
def test_property_prf_unique_per_counter(addr, counter):
    engine = PRFPadEngine(b"property-key")
    assert engine.pad(addr, counter) != engine.pad(addr, counter + 1)
