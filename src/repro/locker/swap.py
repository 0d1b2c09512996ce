"""The SWAP engine.

Executes the three-RowClone SWAP micro-program of Fig. 4(b) through the
micro-ISA executor, with process-variation failure injection calibrated
by the Section IV-D Monte-Carlo model (0 % / 0.14 % / 9.6 % per-copy
error at +/-0 % / 10 % / 20 % variation).

Failure semantics: the engine draws the per-copy outcomes *before*
touching the array.  If all three copies succeed, the micro-program runs
and the data genuinely exchanges places.  If any copy would fail, the
swap aborts with no net data movement -- the locked row's data stays in
place, which is precisely the exposure the paper's security analysis
charges against DRAM-Locker.  (A half-completed swap would corrupt
data; real controllers verify-and-retry, so "no movement + exposure"
is the faithful end state.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dram.device import DRAMDevice
from ..isa.executor import MicroExecutor, MicroRegisterFile
from ..isa.programs import REG_BUFFER, REG_FREE, REG_LOCKED, swap_program

__all__ = ["SWAP_COPIES", "SwapResult", "SwapEngine", "per_copy_error_rate"]

#: RowClone copies in one SWAP micro-program (Fig. 4(b)).
SWAP_COPIES = 3


def per_copy_error_rate(swap_failure_rate: float) -> float:
    """The per-RowClone failure rate whose :data:`SWAP_COPIES` copies
    compose to ``swap_failure_rate``, the whole-SWAP rate the paper
    charges (9.6 % at the +/-20 % corner)."""
    return 1.0 - (1.0 - swap_failure_rate) ** (1.0 / SWAP_COPIES)


@dataclass
class SwapResult:
    """Outcome of one SWAP operation."""

    success: bool
    copies_attempted: int
    copies_failed: int
    latency_ns: float


class SwapEngine:
    """Three-copy in-DRAM swap with per-copy failure injection."""

    def __init__(
        self,
        device: DRAMDevice,
        copy_error_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if not 0.0 <= copy_error_rate < 1.0:
            raise ValueError("copy_error_rate must be in [0, 1)")
        self.device = device
        self.copy_error_rate = copy_error_rate
        self.rng = rng or np.random.default_rng(0)
        self.registers = MicroRegisterFile()
        self.executor = MicroExecutor(self._copy, registers=self.registers)
        self._program = swap_program()
        self.swaps_attempted = 0
        self.swaps_failed = 0

    def swap(self, locked_row: int, free_row: int, buffer_row: int) -> SwapResult:
        """Exchange the *data* of ``locked_row`` and ``free_row``."""
        mapper = self.device.mapper
        if not (
            mapper.same_subarray(locked_row, free_row)
            and mapper.same_subarray(locked_row, buffer_row)
        ):
            raise ValueError("SWAP rows must share one subarray (RowClone FPM)")
        if len({locked_row, free_row, buffer_row}) != 3:
            raise ValueError("SWAP needs three distinct rows")

        self.swaps_attempted += 1
        copies = SWAP_COPIES
        failures = int(np.sum(self.rng.random(copies) < self.copy_error_rate))
        rowclone_ns = self.device.timing.rowclone_ns

        if failures:
            # Abort: attempted copies up to and including the failing one.
            self.swaps_failed += 1
            self.device.stats.swap_copy_failures += failures
            latency = copies * rowclone_ns  # verify-and-abort still cycles the rows
            self.device.advance(latency)
            return SwapResult(
                success=False,
                copies_attempted=copies,
                copies_failed=failures,
                latency_ns=latency,
            )

        self.registers.load(
            {REG_LOCKED: locked_row, REG_FREE: free_row, REG_BUFFER: buffer_row}
        )
        run = self.executor.run(self._program)
        latency = run.copies * rowclone_ns
        self.device.advance(latency)
        self.device.stats.swaps += 1
        return SwapResult(
            success=True,
            copies_attempted=run.copies,
            copies_failed=0,
            latency_ns=latency,
        )

    def _copy(self, src_row: int, dst_row: int) -> None:
        self.device.rowclone(src_row, dst_row)
