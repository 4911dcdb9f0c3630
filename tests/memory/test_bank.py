"""Tests for PCM bank and rank timing."""

import pytest

from repro.common.config import TimingConfig
from repro.common.stats import Stats
from repro.memory.bank import Bank, RankState

T = TimingConfig()


def make_bank():
    stats = Stats()
    return Bank(0, T, RankState(T), stats), stats


def test_write_occupies_bank_for_write_service():
    bank, _ = make_bank()
    end = bank.service_write(100.0)
    assert end == pytest.approx(100.0 + T.write_service_ns)
    assert bank.free_at == end


def test_back_to_back_writes_serialize():
    bank, _ = make_bank()
    first = bank.service_write(0.0)
    second = bank.service_write(0.0)
    assert second == pytest.approx(first + T.write_service_ns)


def test_read_row_miss_then_hit():
    bank, stats = make_bank()
    end1, hit1 = bank.service_read(0.0, row=7)
    assert hit1 is False
    assert end1 == pytest.approx(T.read_service_ns)
    end2, hit2 = bank.service_read(end1, row=7)
    assert hit2 is True
    assert end2 == pytest.approx(end1 + T.read_hit_service_ns)
    assert stats.get("bank.0", "row_hits") == 1


def test_read_different_row_misses():
    bank, _ = make_bank()
    bank.service_read(0.0, row=7)
    _, hit = bank.service_read(1000.0, row=8)
    assert hit is False


def test_write_closes_row_buffer():
    bank, _ = make_bank()
    bank.service_read(0.0, row=7)
    bank.service_write(100.0)
    _, hit = bank.service_read(1000.0, row=7)
    assert hit is False


def test_twtr_delays_read_after_write():
    bank, _ = make_bank()
    write_end = bank.service_write(0.0)
    end, _ = bank.service_read(write_end, row=1)
    assert end == pytest.approx(write_end + T.twtr_ns + T.read_service_ns)


def test_twtr_not_applied_long_after_write():
    bank, _ = make_bank()
    write_end = bank.service_write(0.0)
    late = write_end + 100.0
    end, _ = bank.service_read(late, row=1)
    assert end == pytest.approx(late + T.read_service_ns)


def test_tfaw_limits_activation_rate():
    """A fifth activation within the tFAW window must be delayed."""
    stats = Stats()
    rank = RankState(T)
    banks = [Bank(i, T, rank, stats) for i in range(5)]
    # Four reads at t=0 on different banks: all activate immediately.
    for bank in banks[:4]:
        bank.service_read(0.0, row=0)
    end, _ = banks[4].service_read(0.0, row=0)
    assert end == pytest.approx(T.tfaw_ns + T.read_service_ns)


def test_row_hit_spends_no_tfaw_activation():
    """A row-buffer hit opens no row, so it does not count toward the
    four activations a tFAW window allows."""
    stats = Stats()
    rank = RankState(T)
    banks = [Bank(i, T, rank, stats) for i in range(5)]
    for bank in banks[:3]:
        bank.service_read(0.0, row=0)
    end, hit = banks[0].service_read(T.read_service_ns, row=0)
    assert hit is True
    assert end == pytest.approx(T.read_service_ns + T.read_hit_service_ns)
    # The fourth activation is still free; the fifth waits out tFAW.
    end, _ = banks[3].service_read(0.0, row=0)
    assert end == pytest.approx(T.read_service_ns)
    end, _ = banks[4].service_read(0.0, row=0)
    assert end == pytest.approx(T.tfaw_ns + T.read_service_ns)


def test_earliest_start():
    bank, _ = make_bank()
    assert bank.earliest_start(50.0) == 50.0
    bank.service_write(0.0)
    assert bank.earliest_start(50.0) == pytest.approx(T.write_service_ns)


def test_busy_accounting():
    bank, stats = make_bank()
    bank.service_write(0.0)
    bank.service_read(1000.0, row=0)
    busy = stats.get("bank.0", "busy_ns")
    assert busy == pytest.approx(T.write_service_ns + T.read_service_ns)

