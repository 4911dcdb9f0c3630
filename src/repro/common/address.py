"""Physical address arithmetic for the simulated NVM system.

The simulated machine uses a flat physical address space. Three granularities
matter throughout the reproduction:

* **cache line** (64 B) — the unit of CPU cache residency, of memory reads
  and writes, and of counter storage (one 64 B line holds the split counters
  of one whole page, see :mod:`repro.crypto.counters`);
* **page** (4 KB) — the unit of the split-counter scheme: one 64-bit major
  counter plus 64 seven-bit minor counters cover one page;
* **bank** — the unit of NVM parallelism. Following the paper's premise that
  "the operating system usually allocates continuous memory space for the
  same application which may locate in the adjacent banks" (Section 3.3),
  contiguous physical *pages* interleave across banks::

      bank(page) = page mod n_banks

  so a multi-page allocation naturally spreads over adjacent banks, while
  the 64 lines inside one page all live in the same bank. This is the
  mapping that makes the paper's Figure 8 examples come out: three
  consecutive data pages land in banks 0, 1, 2.

A row of the row-buffer model is one page: the 64 lines of a page share
a row, and so a bank's row buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

#: Size of one cache line / memory line in bytes. Fixed by the paper's
#: architecture (64-bit x86, 64 B lines) and relied on by the split-counter
#: layout (64 minor counters x 7 bits + 64-bit major = 512 bits = 64 B).
CACHE_LINE_SIZE = 64

#: Size of one page in bytes. The split-counter scheme shares one major
#: counter across a 4 KB page.
PAGE_SIZE = 4096

#: Number of cache lines per page (64 for 64 B lines and 4 KB pages).
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE


#: Supported bank-interleaving policies.
BANK_MAPPINGS = ("page", "line", "contiguous")


@dataclass(frozen=True)
class AddressMap:
    """Maps physical addresses to lines, pages, banks and rows.

    Parameters
    ----------
    capacity:
        Total NVM capacity in bytes. Must be a positive multiple of
        ``n_banks * PAGE_SIZE``.
    n_banks:
        Number of independently schedulable NVM banks (8 in the paper).
    bank_mapping:
        Interleaving policy (ablation knob):

        * ``"page"`` (default, the reproduction's model): consecutive
          pages rotate across banks — one page (and its counter line's
          coverage) lives in one bank, contiguous allocations span
          adjacent banks;
        * ``"line"``: consecutive lines rotate across banks (maximum
          intra-page parallelism). NOTE: a page's counter line then has
          no single "home" data bank, so counter placement follows the
          bank of the line being written — an idealisation usable for
          timing ablations only;
        * ``"contiguous"``: each bank owns one contiguous slab
          (``addr // bank_size``) — the no-interleaving strawman.

    Examples
    --------
    >>> amap = AddressMap(capacity=8 * (1 << 20), n_banks=8)
    >>> amap.bank_of_line(0)
    0
    >>> amap.bank_of_line(LINES_PER_PAGE)
    1
    """

    capacity: int
    n_banks: int = 8
    bank_mapping: str = "page"

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {self.capacity}")
        if self.n_banks <= 0:
            raise ConfigError(f"n_banks must be positive, got {self.n_banks}")
        if self.capacity % (self.n_banks * PAGE_SIZE) != 0:
            raise ConfigError(
                "capacity must be a multiple of n_banks * PAGE_SIZE "
                f"({self.n_banks * PAGE_SIZE}), got {self.capacity}"
            )
        if self.bank_mapping not in BANK_MAPPINGS:
            raise ConfigError(
                f"bank_mapping must be one of {BANK_MAPPINGS}, got "
                f"{self.bank_mapping!r}"
            )

    # ------------------------------------------------------------------
    # Size-derived properties
    # ------------------------------------------------------------------

    @property
    def n_lines(self) -> int:
        """Total number of cache lines in the address space."""
        return self.capacity // CACHE_LINE_SIZE

    @property
    def n_pages(self) -> int:
        """Total number of pages in the address space."""
        return self.capacity // PAGE_SIZE

    @property
    def bank_size(self) -> int:
        """Bytes of storage owned by each bank."""
        return self.capacity // self.n_banks

    # ------------------------------------------------------------------
    # Granularity conversions
    # ------------------------------------------------------------------

    def line_addr(self, line: int) -> int:
        """Return the byte address of the first byte of line ``line``."""
        return line * CACHE_LINE_SIZE

    def page_of_line(self, line: int) -> int:
        """Return the page index containing line ``line``."""
        return line // LINES_PER_PAGE

    def line_in_page(self, line: int) -> int:
        """Return the index (0..63) of ``line`` within its page.

        This is the index of the line's minor counter inside the page's
        counter line.
        """
        return line % LINES_PER_PAGE

    def lines_of_page(self, page: int) -> range:
        """Return the range of line indices belonging to ``page``."""
        first = page * LINES_PER_PAGE
        return range(first, first + LINES_PER_PAGE)

    # ------------------------------------------------------------------
    # Bank / row mapping
    # ------------------------------------------------------------------

    def bank_of_line(self, line: int) -> int:
        """Bank serving line ``line`` under the configured interleaving."""
        mapping = self.bank_mapping
        if mapping == "page":  # the default, first: every figure uses it
            return (line // LINES_PER_PAGE) % self.n_banks
        if mapping == "line":
            return line % self.n_banks
        # "contiguous"
        return min(self.n_banks - 1, (line * CACHE_LINE_SIZE) // self.bank_size)

    def row_of_line(self, line: int) -> int:
        """Row identifier (within the whole device) of line ``line``.

        Rows are used only for the per-bank row-buffer model, so a global
        row id is sufficient: two lines share a row buffer entry iff they
        lie in the same page (which implies the same bank under the
        page-interleaved mapping).
        """
        return line // LINES_PER_PAGE
