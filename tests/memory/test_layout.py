"""Tests for the counter placement layouts (paper Figure 8)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import AddressMap, LINES_PER_PAGE
from repro.common.config import CounterPlacementPolicy
from repro.common.errors import ConfigError
from repro.memory.layout import (
    SameBankLayout,
    SingleBankLayout,
    XBankLayout,
    make_layout,
)

AMAP = AddressMap(capacity=8 << 20, n_banks=8)


def test_counter_lines_live_beyond_data_space():
    layout = SingleBankLayout(AMAP)
    assert layout.counter_line(0) == AMAP.n_lines
    assert layout.counter_line(5) == AMAP.n_lines + 5


def test_counter_lines_unique_per_page():
    layout = SingleBankLayout(AMAP)
    lines = {layout.counter_line(p) for p in range(AMAP.n_pages)}
    assert len(lines) == AMAP.n_pages


def test_single_bank_pins_everything():
    layout = SingleBankLayout(AMAP)
    assert layout.dedicated_bank == 7
    for page in range(32):
        data_bank = AMAP.bank_of_line(page * LINES_PER_PAGE)
        assert layout.placement(page, data_bank).bank == 7


@pytest.mark.parametrize("n_banks", [4, 16])
def test_single_bank_dedicates_the_last_bank(n_banks):
    amap = AddressMap(capacity=n_banks << 20, n_banks=n_banks)
    layout = SingleBankLayout(amap)
    assert layout.dedicated_bank == n_banks - 1
    for data_bank in range(n_banks):
        assert layout.placement(data_bank, data_bank).bank == n_banks - 1


def test_same_bank_colocates():
    layout = SameBankLayout(AMAP)
    for page in range(32):
        data_bank = AMAP.bank_of_line(page * LINES_PER_PAGE)
        assert layout.placement(page, data_bank).bank == data_bank


def test_xbank_half_ring_offset():
    """Data in bank X => counter in bank (X + N/2) mod N (Fig. 8c)."""
    layout = XBankLayout(AMAP)
    assert layout.offset == 4
    for page in range(32):
        data_bank = AMAP.bank_of_line(page * LINES_PER_PAGE)
        assert layout.placement(page, data_bank).bank == (data_bank + 4) % 8


def test_xbank_never_local():
    layout = XBankLayout(AMAP)
    for page in range(64):
        data_bank = AMAP.bank_of_line(page * LINES_PER_PAGE)
        assert layout.placement(page, data_bank).bank != data_bank


def test_xbank_custom_offset():
    layout = XBankLayout(AMAP, offset=1)
    assert layout.placement(0, 0).bank == 1
    with pytest.raises(ConfigError):
        XBankLayout(AMAP, offset=0)
    with pytest.raises(ConfigError):
        XBankLayout(AMAP, offset=8)


def test_placement_row_is_consistent():
    layout = XBankLayout(AMAP)
    p0 = layout.placement(0, 0)
    p1 = layout.placement(1, 1)
    assert p0.row != p1.row or p0.line // 64 == p1.line // 64
    assert p0.row == AMAP.row_of_line(p0.line)


def test_make_layout_dispatch():
    assert isinstance(
        make_layout(CounterPlacementPolicy.SINGLE_BANK, AMAP), SingleBankLayout
    )
    assert isinstance(
        make_layout(CounterPlacementPolicy.SAME_BANK, AMAP), SameBankLayout
    )
    xb = make_layout(CounterPlacementPolicy.XBANK, AMAP, xbank_offset=2)
    assert isinstance(xb, XBankLayout)
    assert xb.offset == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=AMAP.n_pages - 1))
def test_property_banks_always_valid(page):
    data_bank = AMAP.bank_of_line(page * LINES_PER_PAGE)
    for layout in (SingleBankLayout(AMAP), SameBankLayout(AMAP), XBankLayout(AMAP)):
        placement = layout.placement(page, data_bank)
        assert 0 <= placement.bank < AMAP.n_banks
        assert placement.line >= AMAP.n_lines
