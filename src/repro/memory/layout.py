"""Counter-line placement policies (paper Figure 8).

A counter line holds the split counters of one data page. *Where* that
line lives decides which bank absorbs the write-through counter traffic:

* :class:`SingleBankLayout` (Fig. 8a) — every counter line in one dedicated
  bank, the convention of prior secure-NVM work. Fine for a write-back
  counter cache; a serial bottleneck for a write-through one.
* :class:`SameBankLayout` (Fig. 8b) — counter line co-located with its data
  page's bank. No dedicated-bank bottleneck, but each data write now costs
  its own bank two serial writes.
* :class:`XBankLayout` (Fig. 8c) — SuperMem: counter line in bank
  ``(data_bank + n_banks // 2) mod n_banks``, so data and counter writes
  proceed in parallel on different banks, and the half-ring offset keeps an
  application's contiguous (adjacent-bank) pages from colliding with their
  own counters. The offset is configurable for the ablation benchmark that
  sweeps it.

Counter lines are addressed in an *index extension region* above the data
lines: the counter line of data page ``p`` has line index
``n_data_lines + p``. Physically this corresponds to a reserved counter
region whose internal address bits are arranged to produce the desired bank;
modelling it as (line index, explicit bank) keeps the data-side mapping
untouched, which is the application-transparency requirement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.common.address import AddressMap
from repro.common.config import CounterPlacementPolicy
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CounterPlacement:
    """Physical location of one counter line."""

    line: int
    bank: int
    row: int


class CounterLayout(abc.ABC):
    """Maps a counter block key (page index) to a physical placement."""

    def __init__(self, amap: AddressMap):
        self._amap = amap
        self._base_line = amap.n_lines  # start of the counter extension
        # placement() is pure in (block_key, data_bank) for a constructed
        # layout, and it runs once per persisted line — memoize the frozen
        # results (working sets touch few distinct pages, so this stays
        # small and hits nearly always).
        self._placement_memo: dict = {}

    def counter_line(self, block_key: int) -> int:
        """Line index of the counter line for block ``block_key``."""
        return self._base_line + block_key

    @abc.abstractmethod
    def bank_of(self, block_key: int, data_bank: int) -> int:
        """Bank that stores the counter line for ``block_key``."""

    def placement(self, block_key: int, data_bank: int) -> CounterPlacement:
        """Full placement of the counter line for ``block_key``."""
        key = (block_key, data_bank)
        cached = self._placement_memo.get(key)
        if cached is not None:
            return cached
        line = self.counter_line(block_key)
        result = CounterPlacement(
            line=line,
            bank=self.bank_of(block_key, data_bank),
            row=self._amap.row_of_line(line),
        )
        self._placement_memo[key] = result
        return result


class SingleBankLayout(CounterLayout):
    """All counters in one dedicated bank: the last one."""

    def __init__(self, amap: AddressMap):
        super().__init__(amap)
        self.dedicated_bank = amap.n_banks - 1

    def bank_of(self, block_key: int, data_bank: int) -> int:
        return self.dedicated_bank


class SameBankLayout(CounterLayout):
    """Counter line in the same bank as its data page."""

    def bank_of(self, block_key: int, data_bank: int) -> int:
        return data_bank


class XBankLayout(CounterLayout):
    """Counter line offset half a ring away from its data bank."""

    def __init__(self, amap: AddressMap, offset: int | None = None):
        super().__init__(amap)
        self.offset = amap.n_banks // 2 if offset is None else offset
        if not 1 <= self.offset < amap.n_banks:
            raise ConfigError(
                f"XBank offset {self.offset} outside 1..{amap.n_banks - 1}"
            )

    def bank_of(self, block_key: int, data_bank: int) -> int:
        return (data_bank + self.offset) % self._amap.n_banks


def make_layout(
    policy: CounterPlacementPolicy,
    amap: AddressMap,
    xbank_offset: int | None = None,
) -> CounterLayout:
    """Build the layout implementing ``policy``."""
    if policy is CounterPlacementPolicy.SINGLE_BANK:
        return SingleBankLayout(amap)
    if policy is CounterPlacementPolicy.SAME_BANK:
        return SameBankLayout(amap)
    if policy is CounterPlacementPolicy.XBANK:
        return XBankLayout(amap, offset=xbank_offset)
    raise ConfigError(f"unknown placement policy {policy!r}")
