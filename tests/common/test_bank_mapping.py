"""Tests for the bank-interleaving policies."""

import pytest

from repro.common.address import AddressMap, CACHE_LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.common.config import MemoryConfig
from repro.common.errors import ConfigError

CAPACITY = 8 << 20


def test_unknown_mapping_rejected():
    with pytest.raises(ConfigError):
        AddressMap(capacity=CAPACITY, n_banks=8, bank_mapping="hash")


class TestPageMapping:
    amap = AddressMap(capacity=CAPACITY, n_banks=8, bank_mapping="page")

    def test_page_rotation(self):
        assert [self.amap.bank_of_line(p * LINES_PER_PAGE) for p in range(10)] == [
            0, 1, 2, 3, 4, 5, 6, 7, 0, 1,
        ]

    def test_lines_of_page_share_bank(self):
        banks = {self.amap.bank_of_line(line) for line in self.amap.lines_of_page(3)}
        assert banks == {3}


class TestLineMapping:
    amap = AddressMap(capacity=CAPACITY, n_banks=8, bank_mapping="line")

    def test_consecutive_lines_rotate(self):
        assert [self.amap.bank_of_line(line) for line in range(10)] == [
            0, 1, 2, 3, 4, 5, 6, 7, 0, 1,
        ]

    def test_page_spans_all_banks(self):
        banks = {self.amap.bank_of_line(line) for line in self.amap.lines_of_page(0)}
        assert banks == set(range(8))


class TestContiguousMapping:
    amap = AddressMap(capacity=CAPACITY, n_banks=8, bank_mapping="contiguous")

    def test_slab_ownership(self):
        slab_lines = CAPACITY // 8 // CACHE_LINE_SIZE
        assert self.amap.bank_of_line(0) == 0
        assert self.amap.bank_of_line(slab_lines - 1) == 0
        assert self.amap.bank_of_line(slab_lines) == 1
        assert self.amap.bank_of_line(self.amap.n_lines - 1) == 7

    def test_page_bank_consistent_with_lines(self):
        page = (CAPACITY // 8) // PAGE_SIZE + 1  # a page inside bank 1
        line_banks = {
            self.amap.bank_of_line(line) for line in self.amap.lines_of_page(page)
        }
        assert line_banks == {1}


def test_memory_config_plumbs_mapping():
    amap = MemoryConfig(capacity=CAPACITY, bank_mapping="line").address_map()
    assert amap.bank_mapping == "line"
    assert amap.bank_of_line(1) == 1


def test_simulation_runs_under_each_mapping():
    import dataclasses

    from repro.common.config import SimConfig
    from repro.core.schemes import Scheme, scheme_config
    from repro.sim.simulator import Simulator
    from repro.workloads.generator import generate_trace

    trace = generate_trace("queue", n_ops=10, request_size=256, footprint=128 << 10)
    totals = {}
    for mapping in ("page", "line", "contiguous"):
        cfg = dataclasses.replace(
            scheme_config(
                Scheme.SUPERMEM,
                SimConfig(memory=MemoryConfig(capacity=CAPACITY, bank_mapping=mapping)),
            ),
            fidelity="timing",
        )
        result = Simulator(cfg).run(list(trace.ops))
        totals[mapping] = result.total_time_ns
    # All three complete; contiguous (one busy bank) must be slowest or
    # equal for a sequential workload.
    assert totals["contiguous"] >= totals["line"] - 1e-6
