"""MMU: translation through the memory controller, with a tiny TLB.

Page-table walks issue privileged READ requests through the controller,
so PTW traffic pays DRAM timing, shows up in the stats, and -- crucially
for the PTA experiments -- reads whatever bits RowHammer left in the
table rows.
"""

from __future__ import annotations

from collections import OrderedDict

from ..controller.controller import MemoryController
from .page_table import PageTable
from .pte import PTE, PTE_BYTES, decode_pte, pte_from_bytes

__all__ = ["MMU"]


class MMU:
    """Hardware walker bound to one page table and controller."""

    def __init__(
        self,
        controller: MemoryController,
        page_table: PageTable,
        tlb_entries: int = 0,
    ):
        self.controller = controller
        self.page_table = page_table
        self.tlb_entries = tlb_entries
        self._tlb: OrderedDict[int, int] = OrderedDict()
        self.walks = 0
        self.tlb_hits = 0

    def translate(self, vpn: int) -> int:
        """Virtual page number -> physical frame (DRAM row)."""
        if self.tlb_entries:
            cached = self._tlb.get(vpn)
            if cached is not None:
                self._tlb.move_to_end(vpn)
                self.tlb_hits += 1
                return cached
        self.walks += 1
        pfn = self.page_table.walk(vpn, self._read_pte).pfn
        if self.tlb_entries:
            self._tlb[vpn] = pfn
            if len(self._tlb) > self.tlb_entries:
                self._tlb.popitem(last=False)
        return pfn

    def flush_tlb(self) -> None:
        self._tlb.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _read_pte(self, row: int, index: int) -> PTE:
        offset = index * PTE_BYTES
        burst_start = (offset // 64) * 64
        self.controller.read(row, column=burst_start, privileged=True)
        physical = row
        if self.controller.locker is not None:
            physical = self.controller.locker.translate(row)
        if self.controller.defense is not None:
            physical = self.controller.defense.translate(physical)
        data = self.controller.device.peek_bytes(physical, offset, PTE_BYTES)
        return decode_pte(pte_from_bytes(data))
