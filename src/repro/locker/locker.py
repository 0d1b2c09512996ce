"""The DRAM-Locker defense.

Combines the lock-table, the three-copy SWAP engine, the re-lock policy
and the row-indirection bookkeeping into the controller-facing object:

* unprivileged requests to locked rows are **skipped** (Fig. 4(a));
* privileged requests trigger an **unlock-SWAP** that migrates the data
  to a free row in the same subarray (Fig. 4(b)) and are then served at
  the new address (Fig. 4(c));
* after ``relock_interval`` R/W instructions the row is **re-secured**
  (Fig. 4(d)): the data is swapped back home; if the restoring swap
  fails, the lock instead *follows the data* -- the paper's literal
  "reinstate the swapped address into the lock-table";
* a **failed unlock-SWAP** leaves the data in place; the controller
  falls back to direct access (availability over security), opening the
  temporary exposure window the paper's 9.6 %-error analysis charges.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Iterable

import numpy as np

from .. import obs
from ..controller.request import MemRequest
from ..defenses.base import OverheadReport
from ..dram.config import DRAMConfig
from ..dram.device import DRAMDevice
from ..dram.stats import walk_add
from .lock_table import LOCK_LOOKUP_NS, LockTable
from .planner import LockMode, ProtectionPlan, plan_protection
from .swap import SwapEngine

__all__ = ["LockerConfig", "AccessDecision", "DRAMLocker", "LOCK_LOOKUP_NS"]


@dataclass(frozen=True)
class LockerConfig:
    """Tunables of one DRAM-Locker instance.

    Attributes:
        lock_table_bytes: SRAM budget of the lock-table (paper: 56 KB).
        relock_interval: R/W instructions between an unlock-SWAP and the
            re-secure step (paper: 1 000, matching the TRH=1k worst case).
        copy_error_rate: Per-RowClone failure probability from the
            Section IV-D Monte-Carlo model (0 / 0.0014 / 0.096).
        fallback_on_swap_failure: Serve a privileged request directly
            when its unlock-SWAP fails (True, the availability-first
            behaviour the security analysis assumes) or block it.
        seed: Seed for the swap-failure draws.
    """

    lock_table_bytes: int = 56 * 1024
    relock_interval: int = 1000
    copy_error_rate: float = 0.0
    fallback_on_swap_failure: bool = True
    seed: int = 0


@dataclass
class AccessDecision:
    """The locker's verdict on one memory request."""

    allowed: bool
    physical_row: int = -1
    extra_ns: float = 0.0
    swapped: bool = False
    reason: str = ""


class _PendingKind(Enum):
    RESTORE = "restore"  # swap data back home, return free row to pool
    RESECURE = "resecure"  # close an exposure window left by a failed swap


@dataclass(order=True)
class _Pending:
    due: int
    order: int
    kind: _PendingKind = field(compare=False)
    logical_row: int = field(compare=False, default=-1)
    physical_row: int = field(compare=False, default=-1)


class DRAMLocker:
    """Lock-table + SWAP defense bound to one DRAM device."""

    name = "DRAM-Locker"

    def __init__(self, device: DRAMDevice, config: LockerConfig | None = None):
        self.device = device
        self.config = config or LockerConfig()
        self.mapper = device.mapper
        self.table = LockTable(self.config.lock_table_bytes)
        self.swap_engine = SwapEngine(
            device,
            copy_error_rate=self.config.copy_error_rate,
            rng=np.random.default_rng(self.config.seed),
        )
        # Row permutation: where does each logical row's data live now?
        self._where: dict[int, int] = {}  # logical -> physical
        self._resident: dict[int, int] = {}  # physical -> logical
        # Reserved-row pools, built lazily per subarray.
        self._buffer_row: dict[tuple[int, int], int] = {}
        self._free_pool: dict[tuple[int, int], list[int]] = {}
        self.rw_instructions = 0
        self._pending: list[_Pending] = []
        self._order = count()
        self.exposed: set[int] = set()
        self.protected_data: set[int] = set()
        self.plan: ProtectionPlan | None = None
        # Counters for the evaluation harness.
        self.blocked_requests = 0
        self.unlock_swaps = 0
        self.failed_unlock_swaps = 0
        self.restores = 0
        self.failed_restores = 0
        #: Availability-first fallbacks that suspended enforcement on a
        #: row -- each is one exposure window the serving SLA report
        #: charges against the defense.
        self.exposure_windows = 0

    # ------------------------------------------------------------------
    # Protection setup
    # ------------------------------------------------------------------
    def protect(
        self,
        data_rows: Iterable[int],
        mode: LockMode = LockMode.ADJACENT,
        radius: int = 1,
    ) -> ProtectionPlan:
        """Lock the aggressors of ``data_rows`` per the chosen policy."""
        plan = plan_protection(self.mapper, data_rows, mode=mode, radius=radius)
        self.table.lock_all(plan.locked_rows)
        self.protected_data.update(plan.data_rows)
        self.plan = plan
        return plan

    def lock_rows(self, rows: Iterable[int]) -> None:
        """Manually add rows to the lock-table (paper Section IV-A)."""
        self.table.lock_all(rows)

    def unlock_rows(self, rows: Iterable[int]) -> None:
        for row in rows:
            self.table.unlock(row)

    # ------------------------------------------------------------------
    # Address indirection
    # ------------------------------------------------------------------
    def translate(self, logical_row: int) -> int:
        """Current physical location of a logical row's data."""
        return self._where.get(logical_row, logical_row)

    # ------------------------------------------------------------------
    # Request path (called by the controller)
    # ------------------------------------------------------------------
    def on_request(self, request: MemRequest) -> AccessDecision:
        self.rw_instructions += 1
        self._process_due()

        stats = self.device.stats
        stats.lock_lookups += 1
        stats.energy.lock_table += self.device.energy.e_lock_lookup
        extra_ns = LOCK_LOOKUP_NS

        physical = self.translate(request.row)
        if not self.table.is_locked(physical) or physical in self.exposed:
            return AccessDecision(True, physical, extra_ns)

        if not request.privileged:
            self.blocked_requests += 1
            return AccessDecision(
                False, extra_ns=extra_ns, reason="locked row, unprivileged"
            )

        return self._unlock_via_swap(request.row, physical, extra_ns)

    # ------------------------------------------------------------------
    # Batch request path (called by MemoryController.execute_batch)
    # ------------------------------------------------------------------
    def quiet_span(self) -> int:
        """Requests the batch engine may process before the next pending
        restore / re-secure deadline fires (and hence before any lock,
        exposure, or row-indirection state can change under it)."""
        if not self._pending:
            return sys.maxsize
        return max(0, self._pending[0].due - self.rw_instructions - 1)

    def next_deadline(self) -> int | None:
        """The R/W-instruction count at which the earliest pending
        restore / re-secure fires, or ``None`` when nothing is pending
        -- the locker's closed-form event, ``quiet_span()`` steps
        away."""
        if not self._pending:
            return None
        return self._pending[0].due

    def classify(self, logical_row: int) -> tuple[int, bool, bool]:
        """Non-mutating, uncounted preview of :meth:`on_request`'s verdict:
        ``(physical_row, locked, exposed)``."""
        physical = self.translate(logical_row)
        return physical, physical in self.table, physical in self.exposed

    def charge_bulk(self, count: int, hit: bool) -> None:
        """Account ``count`` allowed lookups the way ``count`` scalar
        :meth:`on_request` calls would (same accumulators, same order)."""
        self.rw_instructions += count
        stats = self.device.stats
        stats.lock_lookups += count
        stats.energy.lock_table = walk_add(
            stats.energy.lock_table, self.device.energy.e_lock_lookup, count
        )
        self.table.charge_lookups(count, count if hit else 0)

    def charge_bulk_blocked(self, count: int) -> None:
        """Account ``count`` blocked (locked-row, unprivileged) lookups."""
        self.charge_bulk(count, hit=True)
        self.blocked_requests += count

    # ------------------------------------------------------------------
    # Unlock / re-lock machinery
    # ------------------------------------------------------------------
    def _unlock_via_swap(
        self, logical: int, physical: int, extra_ns: float
    ) -> AccessDecision:
        resources = self._swap_resources(physical)
        if resources is None:
            return self._fallback(physical, extra_ns, reason="no free rows")
        free_row, buffer_row = resources

        result = self.swap_engine.swap(physical, free_row, buffer_row)
        extra_ns += result.latency_ns
        self.unlock_swaps += 1
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("locker.unlock_swaps")

        if not result.success:
            self.failed_unlock_swaps += 1
            self._release_free_row(free_row)
            if tel is not None:
                tel.metrics.inc("locker.failed_unlock_swaps")
                tel.audit.emit(
                    "locker-swap-failed",
                    now_ns=self.device.now_ns,
                    row=physical,
                )
            return self._fallback(physical, extra_ns, reason="swap failed")

        self._swap_mapping(physical, free_row)
        self._schedule(
            _PendingKind.RESTORE, logical_row=logical, physical_row=physical
        )
        return AccessDecision(
            True, self.translate(logical), extra_ns, swapped=True
        )

    def _fallback(
        self, physical: int, extra_ns: float, reason: str
    ) -> AccessDecision:
        if not self.config.fallback_on_swap_failure:
            self.blocked_requests += 1
            return AccessDecision(False, extra_ns=extra_ns, reason=reason)
        # Availability-first: serve directly and suspend enforcement on
        # this row until the re-secure deadline -- the exposure window.
        self.exposure_windows += 1
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("locker.exposures")
            tel.audit.emit(
                "locker-exposure",
                now_ns=self.device.now_ns,
                row=physical,
                reason=reason,
            )
        self.exposed.add(physical)
        self._schedule(_PendingKind.RESECURE, physical_row=physical)
        return AccessDecision(
            True, physical, extra_ns, reason=f"exposed ({reason})"
        )

    def _process_due(self) -> None:
        while self._pending and self._pending[0].due <= self.rw_instructions:
            item = heapq.heappop(self._pending)
            if item.kind is _PendingKind.RESECURE:
                self.exposed.discard(item.physical_row)
            else:
                self._restore(item)

    def _restore(self, item: _Pending) -> None:
        """Fig. 4(d): re-secure a previously unlocked row."""
        logical = item.logical_row
        home = item.physical_row
        current = self.translate(logical)
        if current == home:
            return  # already home (e.g. restored via another path)
        key = self._subarray_key(home)
        buffer_row = self._buffer_row.get(key)
        if buffer_row is None:
            return
        result = self.swap_engine.swap(current, home, buffer_row)
        self.restores += 1
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("locker.restores")
        if result.success:
            # Careful with argument order: swap(current, home) exchanged
            # the data, so undo the mapping and return the pool row.
            self._swap_mapping(current, home)
            self._release_free_row(current)
        else:
            # The restoring swap failed: the data stays at `current`;
            # the lock follows the data (paper's literal re-lock).
            self.failed_restores += 1
            if tel is not None:
                tel.metrics.inc("locker.failed_restores")
                tel.audit.emit(
                    "locker-restore-failed",
                    now_ns=self.device.now_ns,
                    row=current,
                    home=home,
                )
            self.table.lock(current)

    # ------------------------------------------------------------------
    # Pools and mapping internals
    # ------------------------------------------------------------------
    def _subarray_key(self, row: int) -> tuple[int, int]:
        addr = self.mapper.row_address(row)
        return (addr.bank, addr.subarray)

    def _ensure_pool(self, key: tuple[int, int]) -> None:
        if key in self._buffer_row:
            return
        reserved = self.mapper.reserved_rows(*key)
        if len(reserved) < 2:
            raise RuntimeError(
                "subarray has no reserved rows; increase "
                "DRAMConfig.reserved_rows_per_subarray"
            )
        self._buffer_row[key] = reserved[0]
        self._free_pool[key] = list(reserved[1:])

    def _swap_resources(self, physical: int) -> tuple[int, int] | None:
        key = self._subarray_key(physical)
        self._ensure_pool(key)
        pool = self._free_pool[key]
        if not pool:
            return None
        return pool.pop(), self._buffer_row[key]

    def _release_free_row(self, row: int) -> None:
        self._free_pool[self._subarray_key(row)].append(row)

    def _swap_mapping(self, physical_a: int, physical_b: int) -> None:
        logical_a = self._resident.get(physical_a, physical_a)
        logical_b = self._resident.get(physical_b, physical_b)
        self._set_location(logical_a, physical_b)
        self._set_location(logical_b, physical_a)

    def _set_location(self, logical: int, physical: int) -> None:
        if logical == physical:
            # Identity entries are represented by absence.
            self._where.pop(logical, None)
            self._resident.pop(physical, None)
        else:
            self._where[logical] = physical
            self._resident[physical] = logical

    def _schedule(
        self,
        kind: _PendingKind,
        logical_row: int = -1,
        physical_row: int = -1,
    ) -> None:
        heapq.heappush(
            self._pending,
            _Pending(
                due=self.rw_instructions + self.config.relock_interval,
                order=next(self._order),
                kind=kind,
                logical_row=logical_row,
                physical_row=physical_row,
            ),
        )

    # ------------------------------------------------------------------
    # SLA / serving accounting
    # ------------------------------------------------------------------
    def exposure_summary(self) -> dict[str, int]:
        """The locker-side stats the serving SLA report folds in: how
        often the defense blocked, swapped, and -- the failure surface
        -- left a row temporarily exposed."""
        return {
            "blocked_requests": self.blocked_requests,
            "unlock_swaps": self.unlock_swaps,
            "failed_unlock_swaps": self.failed_unlock_swaps,
            "restores": self.restores,
            "failed_restores": self.failed_restores,
            "exposure_windows": self.exposure_windows,
            "exposed_now": len(self.exposed),
            "locked_rows": len(self.table),
        }

    # ------------------------------------------------------------------
    # Table I row
    # ------------------------------------------------------------------
    def overhead(self, config: DRAMConfig) -> OverheadReport:
        """DRAM-Locker's Table I row: no DRAM cost, one small SRAM."""
        return OverheadReport(
            framework="DRAM-Locker",
            involved_memory="DRAM-SRAM",
            capacity={"DRAM": 0, "SRAM": self.config.lock_table_bytes},
            area_pct=0.02,
        )
