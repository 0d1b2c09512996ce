"""A two-level page table materialised in simulated DRAM rows.

One virtual page maps to one DRAM row (the natural granule here, since
RowHammer disturbs whole rows).  The table is radix-style: the root
(L1) row holds PTEs pointing at leaf (L2) rows; leaf PTEs hold the
final frame numbers.  All table state lives *in DRAM data*, so a
RowHammer flip in a table row genuinely corrupts translation -- the
page-table attack needs nothing scripted.
"""

from __future__ import annotations

import math
from typing import Callable

from ..dram.device import DRAMDevice
from .pte import (
    PTE,
    PTE_BYTES,
    PTEFlags,
    decode_pte,
    encode_pte,
    pte_from_bytes,
    pte_to_bytes,
)

__all__ = ["PageTable", "PageFault"]


class PageFault(RuntimeError):
    """Raised when translation hits an invalid entry or a frame number
    past physical memory."""


class PageTable:
    """Two-level page table over DRAM frames (1 page == 1 row)."""

    def __init__(self, device: DRAMDevice, table_rows: list[int]):
        """``table_rows``: DRAM rows reserved for page-table storage.

        The first row becomes the L1 root; further rows are allocated to
        L2 leaf tables on demand.
        """
        if not table_rows:
            raise ValueError("need at least one row for the root table")
        self.device = device
        self.entries_per_table = device.config.row_bytes // PTE_BYTES
        self.l2_bits = int(math.log2(self.entries_per_table))
        if 2 ** self.l2_bits != self.entries_per_table:
            raise ValueError("row must hold a power-of-two number of PTEs")
        self.root_row = table_rows[0]
        self._spare_rows = list(table_rows[1:])
        self._l2_rows: dict[int, int] = {}  # l1 index -> row holding that L2 table

    # ------------------------------------------------------------------
    # Mapping management (OS side: uses the data plane)
    # ------------------------------------------------------------------
    def map(self, vpn: int, pfn: int, flags: PTEFlags = PTEFlags()) -> None:
        """Install a translation ``vpn -> pfn``."""
        l1_index, l2_index = self._split(vpn)
        l2_row = self._l2_rows.get(l1_index)
        if l2_row is None:
            l2_row = self._allocate_l2(l1_index)
        self._store(l2_row, l2_index, PTE(valid=True, pfn=pfn, flags=flags))

    def unmap(self, vpn: int) -> None:
        l1_index, l2_index = self._split(vpn)
        l2_row = self._l2_rows.get(l1_index)
        if l2_row is not None:
            self._store(l2_row, l2_index, PTE(valid=False, pfn=0))

    # ------------------------------------------------------------------
    # Walking (hardware side)
    # ------------------------------------------------------------------
    def walk(
        self, vpn: int, read_pte: Callable[[int, int], PTE] | None = None
    ) -> PTE:
        """Translate by reading the in-DRAM tables.

        ``read_pte(row, index)`` reads one entry: by default the
        timing-free :meth:`_load`; the MMU passes its controller-routed
        read.  An invalid entry, or a frame number past physical memory
        (a flipped high PFN bit), faults before anything reads that row.
        """
        read_pte = read_pte or self._load
        l1_index, l2_index = self._split(vpn)
        root_entry = read_pte(self.root_row, l1_index)
        self._check(root_entry, "L1", l1_index, vpn)
        l2_entry = read_pte(root_entry.pfn, l2_index)
        self._check(l2_entry, "L2", l2_index, vpn)
        return l2_entry

    # ------------------------------------------------------------------
    # Introspection used by attacks and defenses
    # ------------------------------------------------------------------
    def table_rows(self) -> list[int]:
        """All DRAM rows currently holding page-table data."""
        return [self.root_row, *sorted(self._l2_rows.values())]

    def pte_location(self, vpn: int) -> tuple[int, int]:
        """(row, byte offset) where the *leaf* PTE of ``vpn`` lives."""
        l1_index, l2_index = self._split(vpn)
        l2_row = self._l2_rows.get(l1_index)
        if l2_row is None:
            raise PageFault(f"vpn {vpn} has no leaf table")
        return l2_row, l2_index * PTE_BYTES

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _split(self, vpn: int) -> tuple[int, int]:
        if vpn < 0:
            raise ValueError("vpn must be non-negative")
        l1_index = vpn >> self.l2_bits
        if l1_index >= self.entries_per_table:
            raise ValueError(f"vpn {vpn} exceeds two-level reach")
        return l1_index, vpn & (self.entries_per_table - 1)

    def _check(self, entry: PTE, level: str, index: int, vpn: int) -> None:
        if not entry.valid:
            raise PageFault(f"{level} entry {index} invalid for vpn {vpn}")
        total = self.device.config.total_rows
        if entry.pfn >= total:
            raise PageFault(
                f"{level} entry {index} for vpn {vpn} points at frame "
                f"{entry.pfn}, past the device's {total} rows"
            )

    def _allocate_l2(self, l1_index: int) -> int:
        if not self._spare_rows:
            raise RuntimeError("out of page-table rows")
        l2_row = self._spare_rows.pop(0)
        self._l2_rows[l1_index] = l2_row
        self._store(self.root_row, l1_index, PTE(valid=True, pfn=l2_row))
        return l2_row

    def _store(self, row: int, index: int, pte: PTE) -> None:
        self.device.poke_bytes(row, index * PTE_BYTES, pte_to_bytes(encode_pte(pte)))

    def _load(self, row: int, index: int) -> PTE:
        data = self.device.peek_bytes(row, index * PTE_BYTES, PTE_BYTES)
        return decode_pte(pte_from_bytes(data))
