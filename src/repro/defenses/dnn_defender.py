"""DNN-Defender (Zhou et al., arXiv:2305.08034): priority-ranked
victim-row in-DRAM swap inside refresh windows.

DNN-Defender protects DNN weight rows *victim-first*: instead of
tracking aggressors precisely, it watches per-row activation pressure
within each refresh window and, when a row turns hot, swaps the most
valuable threatened *victim* (ranked by registered priority -- weight
rows first -- then by address) away from the aggressor's neighborhood.
The swap is three in-DRAM RowClones through the subarray's reserved
buffer row, composed onto a :class:`RowPermutation` the controller
follows, so both the protection and its latency cost are emergent in
simulation.  A per-window swap budget models the paper's constraint
that swaps must fit inside refresh windows.

The window-scoped state (counts and the swap budget) resets only when
a refresh window completes.  The controller's fused epochs cross
ordinary refresh ticks but stop before the ACT whose REF completes a
window; that ACT runs scalar and the next plan's ``_window_check``
resets the window, as in the scalar loop.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..dram.config import DRAMConfig
from .base import Defense, DefenseAction, OverheadReport, RunAction
from .permutation import RowPermutation

__all__ = ["DNNDefender"]


class DNNDefender(Defense):
    name = "DNN-Defender"

    def __init__(
        self,
        swaps_per_window: int = 4,
        hot_threshold: int | None = None,
        seed: int = 0,
    ):
        super().__init__()
        if swaps_per_window < 1:
            raise ValueError("swaps_per_window must be >= 1")
        if hot_threshold is not None and hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        self.swaps_per_window = swaps_per_window
        self.hot_threshold = hot_threshold
        self.rng = np.random.default_rng(seed)
        self.permutation = RowPermutation()
        self._counts: dict[int, int] = {}
        self._priority: dict[int, int] = {}
        self._window_swaps = 0
        self.swaps_performed = 0

    def attach(self, device) -> None:
        super().attach(device)
        if self.hot_threshold is None:
            self.hot_threshold = max(2, device.timing.trh // 4)

    def prioritize(self, rows) -> None:
        """Register victim rows to protect first, most critical first.

        The serving layer passes the model's weight rows here at
        victim-load time; unranked rows default to priority 0 and are
        only swapped when no ranked victim is threatened.
        """
        rows = [int(row) for row in rows]
        for rank, row in enumerate(rows):
            self._priority[row] = len(rows) - rank

    def translate(self, row: int) -> int:
        return self.permutation.where(row)

    def on_activate(self, row: int, now_ns: float) -> DefenseAction:
        self._window_check()
        assert self.device is not None
        assert self.hot_threshold is not None
        action = DefenseAction()
        count = self._counts.get(row, 0) + 1
        if (
            count >= self.hot_threshold
            and self._window_swaps < self.swaps_per_window
        ):
            count = 0
            self._defend(row, action)
        self._counts[row] = count
        return self._charge(action)

    def plan_activate_run(self, row: int, limit: int) -> RunAction | None:
        """Quiet while the row's window count stays below the hot
        threshold; the swapping ACT itself runs scalar.  With the
        window's swap budget exhausted, counting is the only effect
        left and the whole horizon is uniform."""
        self._window_check()
        assert self.hot_threshold is not None
        if self._window_swaps >= self.swaps_per_window:
            return RunAction(limit)
        count = self._counts.get(row, 0)
        return RunAction(max(0, min(limit, self.hot_threshold - 1 - count)))

    def on_activate_run(
        self, row: int, count: int, now_ns: float, step_ns: float
    ) -> None:
        self._counts[row] = self._counts.get(row, 0) + count

    def on_refresh_window(self) -> None:
        self._counts.clear()
        self._window_swaps = 0

    def _defend(self, row: int, action: DefenseAction) -> None:
        assert self.device is not None
        device = self.device
        mapper = device.mapper
        victims = mapper.neighbors(row, radius=1)
        if not victims:
            return
        # Priority rank: the most valuable resident data first (the
        # permutation tracks where registered rows currently live),
        # ties broken by lower address.
        victim = max(
            victims,
            key=lambda v: (
                self._priority.get(self.permutation.resident(v), 0),
                -v,
            ),
        )
        if (
            self._priority
            and self._priority.get(self.permutation.resident(victim), 0) == 0
        ):
            # Victim-focused: with a priority ranking registered, the
            # per-window swap budget is spent only on ranked victims --
            # relocating sacrificial data would burn the budget the
            # next threatened weight row needs.
            return
        addr = mapper.row_address(victim)
        reserved = mapper.reserved_rows(addr.bank, addr.subarray)
        buffer_row = next((r for r in reserved if r != victim), None)
        if buffer_row is None:
            return
        usable = device.config.usable_rows_per_subarray
        # The swap partner takes the victim's place in the hammer zone,
        # so it must be sacrificial: sample for a priority-0 resident
        # (bounded tries keep the RNG stream deterministic) and give up
        # on this window's swap rather than relocate ranked data into
        # the line of fire.
        partner = None
        for _ in range(16):
            local = int(self.rng.integers(usable))
            candidate = mapper.row_index((addr.bank, addr.subarray, local))
            if candidate in (victim, row):
                continue
            resident = self.permutation.resident(candidate)
            if self._priority.get(resident, 0) == 0:
                partner = candidate
                break
        if partner is None:
            return
        for src, dst in (
            (victim, buffer_row),
            (partner, victim),
            (buffer_row, partner),
        ):
            device.rowclone(src, dst)
        self.permutation.swap_locations(victim, partner)
        self._window_swaps += 1
        self.swaps_performed += 1
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("defense.dnn_defender.swaps")
            tel.audit.emit(
                "dnn-defender-swap",
                now_ns=device.now_ns,
                aggressor=row,
                victim=victim,
                partner=partner,
            )
        action.extra_ns += 3 * device.timing.rowclone_ns
        action.moved_rows += 2
        action.note = "dnn-defender-swap"

    def overhead(self, config: DRAMConfig) -> OverheadReport:
        """In-DRAM mechanism: swap scratch rides the reserved swap-pool
        rows (one buffer row per subarray), plus the window counters."""
        subarrays = config.total_rows // config.rows_per_subarray
        return OverheadReport(
            framework="DNN-Defender",
            involved_memory="DRAM",
            capacity={"DRAM": subarrays * config.row_bytes},
            area_pct=0.4,
        )
