"""Tests for the split-counter and monolithic counter blocks."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import LINES_PER_PAGE
from repro.crypto.counters import (
    CounterBlock,
    MINOR_COUNTER_MAX,
    MonolithicCounterBlock,
)


def test_block_starts_zeroed():
    block = CounterBlock()
    assert block.major == 0
    assert block.minors == [0] * LINES_PER_PAGE


def test_minor_counter_max_is_7_bits():
    assert MINOR_COUNTER_MAX == 127


def test_bump_increments_minor():
    block = CounterBlock()
    assert block.bump(3) is False
    assert block.minors[3] == 1
    assert block.minors[4] == 0


def test_encryption_counter_combines_major_and_minor():
    block = CounterBlock(major=2)
    block.minors[5] = 9
    assert block.encryption_counter(5) == (2 << 7) | 9


def test_bump_reports_overflow_at_127():
    block = CounterBlock()
    for _ in range(MINOR_COUNTER_MAX):
        assert block.bump(0) is False
    assert block.minors[0] == 127
    assert block.bump(0) is True
    # saturated, not wrapped; counter unchanged until re-encryption
    assert block.minors[0] == 127


def test_start_reencryption_bumps_major_and_keeps_minors():
    """Minors survive the major bump: they are zeroed one at a time as
    their lines are re-encrypted, which is what keeps a mid-re-encryption
    crash recoverable (old major from the RSR + old minors from NVM)."""
    block = CounterBlock(major=4)
    block.minors[0] = 127
    block.minors[1] = 50
    old = block.start_reencryption()
    assert old == 4
    assert block.major == 5
    assert block.minors[0] == 127 and block.minors[1] == 50
    block.reset_minor(0)
    assert block.minors[0] == 0 and block.minors[1] == 50


def test_reencryption_never_reuses_encryption_counter():
    """After re-encryption every line's combined counter must be fresh."""
    block = CounterBlock()
    seen = set()
    for slot in range(LINES_PER_PAGE):
        seen.add(block.encryption_counter(slot))
    # drive slot 0 to overflow
    for _ in range(MINOR_COUNTER_MAX):
        block.bump(0)
        assert block.encryption_counter(0) not in seen
        seen.add(block.encryption_counter(0))
    assert block.bump(0) is True
    block.start_reencryption()
    for slot in range(LINES_PER_PAGE):
        assert block.encryption_counter(slot) not in seen


def test_serialization_fits_one_line():
    block = CounterBlock(major=123456789)
    block.minors = [i % 128 for i in range(LINES_PER_PAGE)]
    image = block.to_bytes()
    assert len(image) == 64


def test_serialization_roundtrip():
    block = CounterBlock(major=(1 << 63) + 7)
    block.minors = [(i * 37) % 128 for i in range(LINES_PER_PAGE)]
    parsed = CounterBlock.from_bytes(block.to_bytes())
    assert parsed.major == block.major
    assert parsed.minors == block.minors


def _reference_to_bytes(block: CounterBlock) -> bytes:
    """The 7-bit wire format, one minor and one output byte at a time."""
    out = bytearray(struct.pack("<Q", block.major & ((1 << 64) - 1)))
    bits = 0
    nbits = 0
    for minor in block.minors:
        bits |= (minor & 0x7F) << nbits
        nbits += 7
        while nbits >= 8:
            out.append(bits & 0xFF)
            bits >>= 8
            nbits -= 8
    if nbits:
        out.append(bits & 0xFF)
    return bytes(out)


def _reference_from_bytes(data: bytes):
    """``(major, minors)`` of a 7-bit image, one input byte at a time."""
    major = struct.unpack_from("<Q", data, 0)[0]
    minors = []
    bits = 0
    nbits = 0
    pos = 8
    while len(minors) < LINES_PER_PAGE:
        while nbits < 7:
            bits |= data[pos] << nbits
            nbits += 8
            pos += 1
        minors.append(bits & 0x7F)
        bits >>= 7
        nbits -= 7
    return major, minors


#: ``to_bytes`` of :func:`_golden_block`, as the bit loop produced it.
GOLDEN_IMAGE_HEX = (
    "efcdab89674523010b5855ff21a61d336c5f7464476c5b4049f9a6e4bc035453"
    "7ee1850d2b685df323275c537c477866c4ac7b5051fda065fd23645b72e3064c"
)


def _golden_block() -> CounterBlock:
    # A major past 64 bits and minors past 7 bits: both are truncated.
    return CounterBlock(
        major=(1 << 64) + 0x0123456789ABCDEF,
        minors=[(i * 37 + 11) % 256 for i in range(LINES_PER_PAGE)],
    )


def test_serialization_matches_the_golden_image():
    image = _golden_block().to_bytes()
    assert image.hex() == GOLDEN_IMAGE_HEX
    parsed = CounterBlock.from_bytes(image)
    assert parsed.major == 0x0123456789ABCDEF
    assert parsed.minors == [(i * 37 + 11) % 128 for i in range(LINES_PER_PAGE)]


def test_serialization_matches_the_bit_loop_on_random_blocks():
    rng = random.Random(7)
    for _ in range(2000):
        block = CounterBlock(
            major=rng.getrandbits(rng.choice((1, 7, 63, 64, 80))),
            minors=[rng.randrange(256) for _ in range(LINES_PER_PAGE)],
        )
        image = block.to_bytes()
        assert image == _reference_to_bytes(block)
        parsed = CounterBlock.from_bytes(image)
        assert (parsed.major, parsed.minors) == _reference_from_bytes(image)


def test_copy_is_independent():
    block = CounterBlock()
    dup = block.copy()
    block.bump(0)
    assert dup.minors[0] == 0


def test_rejects_wrong_minor_count():
    with pytest.raises(Exception):
        CounterBlock(minors=[0] * 10)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.lists(
        st.integers(min_value=0, max_value=127),
        min_size=LINES_PER_PAGE,
        max_size=LINES_PER_PAGE,
    ),
)
def test_property_roundtrip(major, minors):
    block = CounterBlock(major=major, minors=list(minors))
    parsed = CounterBlock.from_bytes(block.to_bytes())
    assert parsed.major == major
    assert parsed.minors == minors


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=LINES_PER_PAGE - 1), max_size=200))
def test_property_counters_monotone_nondecreasing(slots):
    """Bumping never decreases any encryption counter."""
    block = CounterBlock()
    previous = [block.encryption_counter(s) for s in range(LINES_PER_PAGE)]
    for slot in slots:
        if block.bump(slot):
            block.start_reencryption()
        current = [block.encryption_counter(s) for s in range(LINES_PER_PAGE)]
        assert all(c >= p for c, p in zip(current, previous)) or block.minors == [
            0
        ] * LINES_PER_PAGE
        previous = current


class TestMonolithic:
    def test_never_overflows(self):
        block = MonolithicCounterBlock()
        for _ in range(500):
            assert block.bump(0) is False
        assert block.encryption_counter(0) == 500

    def test_eight_counters_per_line(self):
        assert MonolithicCounterBlock.LINES_PER_BLOCK == 8
        assert len(MonolithicCounterBlock().counters) == 8

    def test_serialization_roundtrip(self):
        block = MonolithicCounterBlock(counters=[i * 1000 for i in range(8)])
        parsed = MonolithicCounterBlock.from_bytes(block.to_bytes())
        assert parsed.counters == block.counters
        assert len(block.to_bytes()) == 64

    def test_copy_is_independent(self):
        block = MonolithicCounterBlock()
        dup = block.copy()
        block.bump(1)
        assert dup.counters[1] == 0
