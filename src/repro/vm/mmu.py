"""MMU: translation through the memory controller, with a tiny TLB.

Page-table walks issue privileged READ requests through the controller,
so PTW traffic pays DRAM timing, shows up in the stats, and -- crucially
for the PTA experiments -- reads whatever bits RowHammer left in the
table rows.
"""

from __future__ import annotations

from collections import OrderedDict

from ..controller.controller import MemoryController
from .page_table import PageFault, PageTable
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
        pfn = self._walk_via_controller(vpn)
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
    def _walk_via_controller(self, vpn: int) -> int:
        table = self.page_table
        self.walks += 1
        l1_index = vpn >> table.l2_bits
        l2_index = vpn & (table.entries_per_table - 1)
        root_entry = self._read_pte(table.root_row, l1_index)
        if not root_entry.valid:
            raise PageFault(f"L1 entry {l1_index} invalid for vpn {vpn}")
        self._check_frame(root_entry, "L1", l1_index, vpn)
        leaf_entry = self._read_pte(root_entry.pfn, l2_index)
        if not leaf_entry.valid:
            raise PageFault(f"L2 entry {l2_index} invalid for vpn {vpn}")
        self._check_frame(leaf_entry, "L2", l2_index, vpn)
        return leaf_entry.pfn

    def _check_frame(self, entry: PTE, level: str, index: int, vpn: int) -> None:
        """Fault on a frame number past physical memory (a flipped high
        PFN bit) before anything reads that row."""
        total = self.controller.device.config.total_rows
        if entry.pfn >= total:
            raise PageFault(
                f"{level} entry {index} for vpn {vpn} points at frame "
                f"{entry.pfn}, past the device's {total} rows"
            )

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
