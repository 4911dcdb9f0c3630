"""Tests for physical address arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.common.address import (
    AddressMap,
    BANK_MAPPINGS,
    CACHE_LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SIZE,
)
from repro.common.errors import ConfigError

CAPACITY = 8 << 20  # 8 MB, 8 banks => 1 MB per bank


@pytest.fixture
def amap():
    return AddressMap(capacity=CAPACITY, n_banks=8)


def test_constants_are_consistent():
    assert PAGE_SIZE % CACHE_LINE_SIZE == 0
    assert LINES_PER_PAGE == PAGE_SIZE // CACHE_LINE_SIZE == 64


def test_basic_sizes(amap):
    assert amap.n_lines == CAPACITY // 64
    assert amap.n_pages == CAPACITY // 4096
    assert amap.bank_size == CAPACITY // 8


def test_line_addr(amap):
    assert amap.line_addr(0) == 0
    assert amap.line_addr(5) == 320


def test_page_mapping(amap):
    assert amap.page_of_line(0) == 0
    assert amap.page_of_line(LINES_PER_PAGE - 1) == 0
    assert amap.page_of_line(LINES_PER_PAGE) == 1


def test_line_in_page_is_minor_counter_slot(amap):
    assert amap.line_in_page(0) == 0
    assert amap.line_in_page(LINES_PER_PAGE - 1) == LINES_PER_PAGE - 1
    assert amap.line_in_page(LINES_PER_PAGE) == 0


def test_lines_of_page(amap):
    lines = amap.lines_of_page(3)
    assert len(lines) == LINES_PER_PAGE
    assert lines[0] == 3 * LINES_PER_PAGE
    assert all(amap.page_of_line(line) == 3 for line in lines)


def test_pages_interleave_across_banks(amap):
    """Consecutive pages must land in consecutive banks (Section 3.3)."""
    banks = [amap.bank_of_line(p * LINES_PER_PAGE) for p in range(16)]
    assert banks == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]


def test_lines_within_page_share_bank(amap):
    assert {amap.bank_of_line(line) for line in amap.lines_of_page(5)} == {5}


def test_row_of_line_groups_lines(amap):
    """A row is one page: its 64 lines share it, the next page does not."""
    assert {amap.row_of_line(line) for line in amap.lines_of_page(2)} == {2}
    assert amap.row_of_line(3 * LINES_PER_PAGE) == 3


def test_invalid_geometry_raises():
    with pytest.raises(ConfigError):
        AddressMap(capacity=0, n_banks=8)
    with pytest.raises(ConfigError):
        AddressMap(capacity=1000, n_banks=8)  # not a multiple
    with pytest.raises(ConfigError):
        AddressMap(capacity=8 << 20, n_banks=0)


@given(st.integers(min_value=0, max_value=(CAPACITY // 64) - 1))
def test_property_line_page_consistency(line):
    amap = AddressMap(capacity=CAPACITY, n_banks=8)
    page = amap.page_of_line(line)
    assert page == amap.line_addr(line) // PAGE_SIZE
    assert line in amap.lines_of_page(page)
    assert amap.lines_of_page(page)[amap.line_in_page(line)] == line


@given(st.integers(min_value=0, max_value=(CAPACITY // 64) - 1))
def test_property_bank_in_range(line):
    amap = AddressMap(capacity=CAPACITY, n_banks=8)
    assert 0 <= amap.bank_of_line(line) < 8


@given(
    st.integers(min_value=0, max_value=(CAPACITY // 64) - 1),
    st.integers(min_value=0, max_value=(CAPACITY // 64) - 1),
    st.sampled_from(BANK_MAPPINGS),
)
def test_property_lines_share_a_row_iff_they_share_a_page(a, b, mapping):
    amap = AddressMap(capacity=CAPACITY, n_banks=8, bank_mapping=mapping)
    same_row = amap.row_of_line(a) == amap.row_of_line(b)
    assert same_row == (amap.page_of_line(a) == amap.page_of_line(b))
