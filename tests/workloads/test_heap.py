"""Tests for the persistent heap allocator."""

import pytest

from repro.common.errors import SimulationError
from repro.workloads.heap import PersistentHeap


def test_sequential_allocation():
    heap = PersistentHeap(capacity=4096)
    a = heap.alloc(64)
    b = heap.alloc(64)
    assert a == 0
    assert b == 64
    assert heap.free == 4096 - 128


def test_alignment():
    heap = PersistentHeap(capacity=1 << 20)
    heap.alloc(10)
    addr = heap.alloc(64, align=4096)
    assert addr % 4096 == 0


def test_alloc_lines_and_pages():
    heap = PersistentHeap(capacity=1 << 20)
    lines = heap.alloc_lines(3)
    assert lines % 64 == 0
    page = heap.alloc_pages(2)
    assert page % 4096 == 0
    assert heap.capacity - heap.free >= 3 * 64 + 2 * 4096


def test_base_offset():
    heap = PersistentHeap(capacity=4096, base=8192)
    assert heap.alloc(64) == 8192
    assert heap.end == 8192 + 4096


def test_exhaustion():
    heap = PersistentHeap(capacity=128)
    heap.alloc(128)
    with pytest.raises(SimulationError):
        heap.alloc(1)


def test_invalid_requests():
    heap = PersistentHeap(capacity=4096)
    with pytest.raises(SimulationError):
        heap.alloc(0)
    with pytest.raises(SimulationError):
        heap.alloc(64, align=3)
    with pytest.raises(SimulationError):
        PersistentHeap(capacity=0)


def test_free_accounting():
    heap = PersistentHeap(capacity=1024)
    heap.alloc(512)
    assert heap.free == 512
