"""Auto-refresh engine.

Real DDR4 issues one REF every tREFI; 8192 REFs cover the device in one
64 ms window.  Here each REF refreshes an equal slice of the global row
space in index order and resets the RowHammer counters of the refreshed
rows -- which is exactly the interaction the attacks race against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .device import DRAMDevice

__all__ = ["RefreshEngine"]


class RefreshEngine:
    """Walks the row space, one slice per tREFI."""

    def __init__(self, device: "DRAMDevice"):
        self.device = device
        timing = device.timing
        self.refs_per_window = max(1, round(timing.tref_w / timing.trefi))
        self.rows_per_ref = math.ceil(device.config.total_rows / self.refs_per_window)
        self.cursor = 0
        self.next_ref_ns = timing.trefi
        self.windows_completed = 0

    def tick(self, now_ns: float) -> None:
        """Issue every REF that became due at or before ``now_ns``."""
        while now_ns >= self.next_ref_ns:
            self._refresh_slice()
            self.next_ref_ns += self.device.timing.trefi

    def quiet_steps(self, now_ns: float, step_ns: float) -> int:
        """How many ``step_ns``-sized steps fit before the next REF is
        due, with a one-step safety margin: an ACT epoch at most this
        long meets no REF, so the bulk engine commits it without
        locating ticks."""
        return int((self.next_ref_ns - now_ns) / step_ns) - 1

    def wraps_by(self, now_ns: float) -> bool:
        """Whether ``tick(now_ns)`` would complete a refresh window: one
        of the REFs due by then refreshes the last slice and wraps the
        walker (``cursor + rows_per_ref >= total_rows``)."""
        total = self.device.config.total_rows
        cursor = self.cursor
        due = self.next_ref_ns
        while now_ns >= due:
            cursor += self.rows_per_ref
            if cursor >= total:
                return True
            due += self.device.timing.trefi
        return False

    def _refresh_slice(self) -> None:
        device = self.device
        total = device.config.total_rows
        start = self.cursor
        end = min(start + self.rows_per_ref, total)
        device.rowhammer.reset_rows(start, end)
        device.stats.refreshes += 1
        device.stats.energy.refresh += device.energy.e_ref
        # REF requires all banks precharged.
        for bank in device.banks:
            bank.open_row = None
        if end >= total:
            self.cursor = 0
            self.windows_completed += 1
        else:
            self.cursor = end
