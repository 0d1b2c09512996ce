"""PTA: the page-table attack (threat model of Fig. 3(b), after PT-Guard).

The victim's weight pages are reached through a two-level page table in
DRAM.  The attacker:

1. allocates a frame whose number differs from a victim frame's in one
   bit and fills it with malicious bytes (step 1-2 of Fig. 3(b));
2. locates the victim's leaf PTE and the row-bit position of that PFN
   bit (the "detailed mapping" of the threat model);
3. RowHammers the PTE row's neighbours to flip the bit, redirecting the
   victim's virtual page to the malicious frame (step 3);
4. the victim's next inference walks the corrupted table and streams
   weights from the wrong frame -- or, when the flipped bit sends the
   frame number past physical memory, faults and cannot run at all (a
   denial of service, recorded as such).

With DRAM-Locker protecting the page-table rows, step 3's activations
are skipped and translation stays intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..locker.planner import LockMode
from ..nn import memo
from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from ..vm.mmu import MMU
from ..vm.page_table import PageFault, PageTable
from ..vm.pte import pfn_bit_positions
from .hammer import HammerDriver
from .registry import AttackContext, register_attack

__all__ = [
    "PagedWeights",
    "PTARecord",
    "PTAResult",
    "PageTableAttack",
]


class PagedWeights:
    """The victim's view: weight rows reached through the MMU."""

    def __init__(
        self,
        store: WeightStore,
        page_table: PageTable,
        mmu: MMU,
    ):
        self.store = store
        self.page_table = page_table
        self.mmu = mmu
        #: vpn assigned to each weight data row, in row order.
        self.vpn_of_row: dict[int, int] = {}
        for vpn, row in enumerate(store.data_rows):
            page_table.map(vpn, row)
            self.vpn_of_row[row] = vpn

    def sync_via_translation(self) -> None:
        """Load model weights through (possibly corrupted) translation."""
        self.store.sync_model(
            force=True,
            row_source=lambda row: self.mmu.translate(self.vpn_of_row[row]),
        )

    def redirected_pages(self) -> list[int]:
        """VPNs whose translation no longer points at the true frame
        (a faulting translation included)."""
        wrong = []
        for row, vpn in self.vpn_of_row.items():
            try:
                redirected = self.mmu.translate(vpn) != row
            except PageFault:
                redirected = True
            if redirected:
                wrong.append(vpn)
        return sorted(wrong)


@dataclass
class PTARecord:
    """One PTE-redirect attempt.

    ``page_fault`` holds the fault the victim's translation raised, if
    any: its weights could not be loaded, so no inference completes
    and ``accuracy_after`` is 0.
    """

    iteration: int
    vpn: int
    pte_row: int
    pte_bit: int
    executed: bool
    accuracy_after: float
    activations_blocked: int
    page_fault: str | None = None


@dataclass
class PTAResult:
    accuracies: list[float] = field(default_factory=list)
    records: list[PTARecord] = field(default_factory=list)

    @property
    def executed_redirects(self) -> int:
        return sum(1 for record in self.records if record.executed)

    @property
    def page_faults(self) -> int:
        """Attempts after which the victim's translation faulted."""
        return sum(1 for record in self.records if record.page_fault)


class PageTableAttack:
    """Iteratively redirects the victim's most valuable weight pages."""

    def __init__(
        self,
        qmodel: QuantizedModel,
        dataset: Dataset,
        paged: PagedWeights,
        driver: HammerDriver,
        malicious_byte: int = 0x80,
        seed: int = 0,
    ):
        self.qmodel = qmodel
        self.dataset = dataset
        self.paged = paged
        self.driver = driver
        self.malicious_byte = malicious_byte
        self.rng = np.random.default_rng(seed)
        self.device = driver.device
        self._attacker_frames: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Target selection: pages holding the largest-gradient weights first
    # ------------------------------------------------------------------
    def rank_victim_rows(self) -> list[int]:
        model = self.qmodel.model
        model.zero_grad()
        x = self.dataset.test_x[:64]
        y = self.dataset.test_y[:64]
        model.loss_and_grad(x, y)
        layers = model.weight_layers()
        score: dict[int, float] = {}
        for name, tensor in self.qmodel.tensors.items():
            grad = np.abs(layers[name].weight.grad.reshape(-1))
            for segment in self.paged.store._by_tensor[name]:
                chunk = grad[
                    segment.tensor_offset : segment.tensor_offset + segment.length
                ]
                score[segment.row] = score.get(segment.row, 0.0) + float(chunk.sum())
        return sorted(score, key=score.get, reverse=True)

    # ------------------------------------------------------------------
    # One redirect attempt
    # ------------------------------------------------------------------
    def _attacker_frame_for(self, victim_row: int) -> tuple[int, int] | None:
        """A frame number differing from ``victim_row`` in one PFN bit.

        Returns ``(frame, pfn_bit)`` or None if no single-bit alias is
        free.  The attacker fills the frame with malicious bytes via
        its own (legitimate, unprivileged) writes.
        """
        total = self.device.config.total_rows
        occupied = set(self.paged.store.data_rows)
        occupied.update(self.paged.page_table.table_rows())
        for bit in range(int(np.ceil(np.log2(total)))):
            alias = victim_row ^ (1 << bit)
            if alias < total and alias not in occupied:
                payload = np.full(
                    self.device.config.row_bytes, self.malicious_byte, np.uint8
                )
                self.device.poke_row(alias, payload)
                return alias, bit
        return None

    def redirect_page(self, victim_row: int, iteration: int) -> PTARecord:
        vpn = self.paged.vpn_of_row[victim_row]
        alias = self._attacker_frame_for(victim_row)
        if alias is None:
            raise RuntimeError("no single-bit alias frame available")
        _, pfn_bit = alias
        pte_row, pte_offset = self.paged.page_table.pte_location(vpn)
        row_bit = pfn_bit_positions(pte_offset, pfn_bit)
        outcome = self.driver.hammer_bit(pte_row, row_bit)
        self.paged.mmu.flush_tlb()
        page_fault = None
        try:
            self.paged.sync_via_translation()
        except PageFault as fault:
            # The flip sent a frame number past physical memory: the
            # victim cannot load its weights, so nothing is served.
            page_fault = str(fault)
            accuracy = 0.0
        else:
            # Intact translation serves the same weights: a memo hit.
            accuracy = memo.accuracy(
                self.qmodel.model,
                self.dataset.test_x[:512],
                self.dataset.test_y[:512],
            )
        return PTARecord(
            iteration=iteration,
            vpn=vpn,
            pte_row=pte_row,
            pte_bit=row_bit,
            executed=outcome.flipped,
            accuracy_after=accuracy,
            activations_blocked=outcome.activations_blocked,
            page_fault=page_fault,
        )

    # ------------------------------------------------------------------
    # Attack loop
    # ------------------------------------------------------------------
    def run(self, iterations: int) -> PTAResult:
        result = PTAResult()
        targets = self.rank_victim_rows()
        cursor = 0
        for iteration in range(1, iterations + 1):
            victim_row = targets[cursor % len(targets)]
            cursor += 1
            record = self.redirect_page(victim_row, iteration)
            result.records.append(record)
            result.accuracies.append(record.accuracy_after)
        return result


@register_attack(
    "pta",
    description="Page-table attack: PTE bit flips redirect weight pages",
)
def _pta(ctx: AttackContext, **params) -> PageTableAttack:
    """Builds the paged-weights view and aims the attack at it.

    The page-table rows live in the last bank, spaced so their guard
    rows never collide with each other; when the system's controller
    carries a locker, they get adjacent-row protection.
    """
    if ctx.store is None or ctx.driver is None:
        raise ValueError("the page-table attack needs a DRAM-resident victim")
    controller = ctx.driver.controller
    device = ctx.store.device
    bank = device.config.banks - 1
    page_table = PageTable(
        device,
        [device.mapper.row_index((bank, 0, local)) for local in range(0, 32, 2)],
    )
    paged = PagedWeights(ctx.store, page_table, MMU(controller, page_table))
    if controller.locker is not None:
        controller.locker.protect(page_table.table_rows(), mode=LockMode.ADJACENT)
    return PageTableAttack(
        ctx.qmodel, ctx.dataset, paged, ctx.driver, seed=ctx.seed, **params
    )
