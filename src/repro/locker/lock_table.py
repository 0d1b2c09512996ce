"""The lock-table.

A small SRAM structure holding the physical row addresses that must not
be activated.  Unlike the count-tables of counter-based defenses it
stores *no counters* -- one valid address per entry -- which is where
DRAM-Locker's Table I advantage (56 KB SRAM, 0.02 % area) comes from.

The default capacity matches the paper: 56 KB at 4 bytes per entry
(a 22-bit row address for the 32 GB configuration, padded to a word)
gives 14 336 lockable rows.
"""

from __future__ import annotations

__all__ = ["LockTableFullError", "LockTable", "LOCK_LOOKUP_NS"]

#: Latency of one lock-table SRAM lookup (45 nm, ~56 KB array).  Single
#: source of truth -- the locker and the memory controller both import
#: this constant.
LOCK_LOOKUP_NS = 1.2


class LockTableFullError(RuntimeError):
    """Raised when locking more rows than the SRAM can hold."""


class LockTable:
    """Set-of-locked-rows with SRAM capacity accounting."""

    ENTRY_BYTES = 4

    def __init__(self, capacity_bytes: int = 56 * 1024):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_bytes // self.ENTRY_BYTES
        self._locked: set[int] = set()
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def lock(self, row: int) -> None:
        if row in self._locked:
            return
        if len(self._locked) >= self.capacity_entries:
            raise LockTableFullError(
                f"lock-table full ({self.capacity_entries} entries); "
                "raise capacity_bytes or protect fewer rows"
            )
        self._locked.add(row)

    def lock_all(self, rows) -> None:
        for row in rows:
            self.lock(row)

    def unlock(self, row: int) -> None:
        self._locked.discard(row)

    def clear(self) -> None:
        self._locked.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_locked(self, row: int) -> bool:
        """Controller-path lookup: counted in the stats."""
        self.lookups += 1
        hit = row in self._locked
        if hit:
            self.hits += 1
        return hit

    def charge_lookups(self, count: int, hits: int) -> None:
        """Account ``count`` lookups (``hits`` of them hits) performed by
        a bulk path that already knows the verdicts."""
        self.lookups += count
        self.hits += hits

    def __contains__(self, row: int) -> bool:
        """Uncounted membership test for bookkeeping code."""
        return row in self._locked

    def __len__(self) -> int:
        return len(self._locked)

    @property
    def occupancy(self) -> float:
        """Fraction of SRAM entries in use."""
        return len(self._locked) / self.capacity_entries

    def snapshot(self) -> frozenset[int]:
        """Immutable view of the locked set (for tests/reports)."""
        return frozenset(self._locked)
