"""RADAR (Li et al., arXiv:2101.08254): run-time checksum detection
and accuracy recovery for DNN weights.

Where DRAM-Locker *prevents* disturbance flips, RADAR lets them land
and *recovers*: weight rows are partitioned into checksum groups whose
blake2 digests are computed once at victim-load time
(:meth:`Radar.bind_store`).  At run time two detection paths share one
recovery routine:

* **inference reads** -- every ACT of a protected row re-verifies its
  group digest (the checksum streams alongside the data, charged as
  ``check_ns`` per access);
* **scrub pass** -- every ``scrub_interval`` activations (any row) a
  full sweep re-verifies every group.  :meth:`Radar.plan_activate_run`
  plans the quiet span until the next scrub boundary in closed form,
  so fused epochs leap straight to the scrub ACT.

Recovery is two-level.  Groups inside the golden budget keep exact
row copies ("locatable"): corrupted rows are restored bit-exactly.
Groups beyond the budget carry only the digest: corruption is detected
but not locatable, and the whole group is zeroed -- zero weights
degrade accuracy gracefully instead of silently misclassifying
(RADAR's accuracy-recovery argument).

Engine equivalence: RADAR performs no refresh-window-scoped work, and
its plans read no clock.  Row content only changes on TRH-crossing
ACTs and locker deadlines, both of which the controller forces onto
the scalar path -- therefore a digest verified at plan time stays
valid for the whole planned run, refresh ticks included, and the bulk
hook pair is bit-identical to the scalar loop (pinned by
``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..dram.config import DRAMConfig
from ..dram.stats import walk_add
from .base import KIB, Defense, DefenseAction, OverheadReport, RunAction

__all__ = ["Radar", "RadarGroup"]

#: blake2b digest width for group checksums (bytes).
DIGEST_SIZE = 16


@dataclass
class RadarGroup:
    """One checksum group: a handful of weight rows under one digest."""

    index: int
    rows: tuple[int, ...]
    locatable: bool
    digest: bytes = b""
    golden: dict[int, np.ndarray] = field(default_factory=dict)


class Radar(Defense):
    name = "RADAR"

    def __init__(
        self,
        scrub_interval: int | None = None,
        group_rows: int = 4,
        check_ns: float | None = None,
        scrub_ns_per_group: float | None = None,
        restore_ns_per_row: float | None = None,
    ):
        super().__init__()
        if scrub_interval is not None and scrub_interval < 1:
            raise ValueError("scrub_interval must be >= 1")
        if group_rows < 1:
            raise ValueError("group_rows must be >= 1")
        self.scrub_interval = scrub_interval
        self.group_rows = group_rows
        self.check_ns = check_ns
        self.scrub_ns_per_group = scrub_ns_per_group
        self.restore_ns_per_row = restore_ns_per_row
        self.store = None
        self._groups: list[RadarGroup] = []
        self._row_group: dict[int, RadarGroup] = {}
        self._acts = 0
        self.read_checks = 0
        self.scrubs = 0
        self.corruptions_detected = 0
        self.rows_restored = 0
        self.rows_zeroed = 0
        self.last_detection_ns: float | None = None
        self.detection_log: list[dict] = []

    def attach(self, device) -> None:
        super().attach(device)
        timing = device.timing
        if self.scrub_interval is None:
            self.scrub_interval = max(1, timing.trh // 2)
        if self.check_ns is None:
            self.check_ns = timing.trc
        if self.scrub_ns_per_group is None:
            self.scrub_ns_per_group = timing.trc
        if self.restore_ns_per_row is None:
            self.restore_ns_per_row = timing.rowclone_ns

    # ------------------------------------------------------------------
    # Victim-load-time binding
    # ------------------------------------------------------------------
    def bind_store(self, store, *, golden_limit: int | None = None) -> int:
        """Compute group checksums over ``store``'s weight rows.

        ``golden_limit`` caps how many rows keep exact golden copies
        (``None``: all of them).  Groups that fit the budget become
        *locatable* (exact restore); the rest carry only the digest and
        fall back to zero-out recovery.  Returns the group count.
        """
        assert self.device is not None, "defense not attached"
        rows = [int(row) for row in store.data_rows]
        self.store = store
        self._groups = []
        self._row_group = {}
        budget = len(rows) if golden_limit is None else golden_limit
        taken = 0
        for start in range(0, len(rows), self.group_rows):
            members = tuple(rows[start : start + self.group_rows])
            locatable = taken + len(members) <= budget
            golden: dict[int, np.ndarray] = {}
            if locatable:
                for row in members:
                    golden[row] = self.device.peek_row(row).copy()
                taken += len(members)
            group = RadarGroup(
                index=len(self._groups),
                rows=members,
                locatable=locatable,
                golden=golden,
            )
            group.digest = self._group_digest(members)
            self._groups.append(group)
            for row in members:
                self._row_group[row] = group
        return len(self._groups)

    @property
    def groups(self) -> tuple[RadarGroup, ...]:
        return tuple(self._groups)

    def _group_digest(self, rows: tuple[int, ...]) -> bytes:
        assert self.device is not None
        digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
        for row in rows:
            digest.update(self.device.peek_row(row, copy=False).tobytes())
        return digest.digest()

    # ------------------------------------------------------------------
    # Scalar hook
    # ------------------------------------------------------------------
    def on_activate(self, row: int, now_ns: float) -> DefenseAction:
        assert self.scrub_interval is not None
        action = DefenseAction()
        self._acts += 1
        group = self._row_group.get(row)
        if group is not None:
            # Detection on inference reads: the checksum streams with
            # the data on every access to a protected row.
            self.read_checks += 1
            tel = obs.ACTIVE
            if tel is not None:
                tel.metrics.inc("defense.radar.read_checks")
            action.extra_ns += self.check_ns
            if self._group_digest(group.rows) != group.digest:
                self._recover(group, action, now_ns, via="read")
        if self._acts % self.scrub_interval == 0:
            self._scrub_groups(action, now_ns, via="scrub")
        return self._charge(action)

    def _scrub_groups(
        self, action: DefenseAction, now_ns: float, via: str
    ) -> None:
        self.scrubs += 1
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("defense.radar.scrubs", via=via)
        for group in self._groups:
            action.extra_ns += self.scrub_ns_per_group
            if self._group_digest(group.rows) != group.digest:
                self._recover(group, action, now_ns, via=via)
        if self._groups and not action.note:
            action.note = "radar-scrub"

    def _recover(
        self, group: RadarGroup, action: DefenseAction, now_ns: float, via: str
    ) -> None:
        assert self.device is not None
        device = self.device
        self.corruptions_detected += 1
        self.last_detection_ns = now_ns
        if group.locatable:
            for row in group.rows:
                golden = group.golden[row]
                if not np.array_equal(
                    device.peek_row(row, copy=False), golden
                ):
                    device.poke_row(row, golden.copy())
                    self.rows_restored += 1
                    action.extra_ns += self.restore_ns_per_row
            mode = "restore"
        else:
            zeros = np.zeros(device.config.row_bytes, dtype=np.uint8)
            for row in group.rows:
                device.poke_row(row, zeros)
                self.rows_zeroed += 1
                action.extra_ns += self.restore_ns_per_row
            mode = "zero"
        group.digest = self._group_digest(group.rows)
        action.note = f"radar-{mode}"
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("defense.radar.detections", mode=mode)
            tel.metrics.set("defense.radar.rows_restored", self.rows_restored)
            tel.metrics.set("defense.radar.rows_zeroed", self.rows_zeroed)
            tel.audit.emit(
                "radar-recovery",
                now_ns=now_ns,
                group=group.index,
                via=via,
                mode=mode,
            )
        self.detection_log.append(
            {
                "now_ns": now_ns,
                "group": group.index,
                "via": via,
                "mode": mode,
            }
        )
        if self.store is not None:
            # Pull the repaired bytes back into the model tensors so
            # the next inference runs on the recovered weights.
            self.store.sync_model(force=True)

    # ------------------------------------------------------------------
    # Bulk hook pair
    # ------------------------------------------------------------------
    def plan_activate_run(self, row: int, limit: int) -> RunAction | None:
        """Quiet until the next scrub boundary; protected rows charge
        ``check_ns`` per ACT (the streamed checksum) and break
        immediately when their group digest already mismatches."""
        assert self.scrub_interval is not None
        quiet = self.scrub_interval - 1 - (self._acts % self.scrub_interval)
        group = self._row_group.get(row)
        if group is None:
            return RunAction(max(0, min(limit, quiet)))
        if self._group_digest(group.rows) != group.digest:
            return RunAction(0)
        return RunAction(max(0, min(limit, quiet)), extra_ns=self.check_ns)

    def on_activate_run(
        self, row: int, count: int, now_ns: float, step_ns: float
    ) -> None:
        self._acts += count
        group = self._row_group.get(row)
        if group is not None:
            self.read_checks += count
            tel = obs.ACTIVE
            if tel is not None:
                tel.metrics.inc("defense.radar.read_checks", count)
            # Scalar ``_charge`` adds check_ns and bumps ``actions``
            # once per ACT.
            self.mitigation_ns_total = walk_add(
                self.mitigation_ns_total, self.check_ns, count
            )
            self.actions += count

    def refresh_checksums(self) -> None:
        """Re-snapshot every group digest (and golden copy) from the
        current row content -- for out-of-band weight rewrites such as
        the serving health monitor's golden-restore path, which would
        otherwise leave the digests pointing at the pre-restore bytes.
        """
        assert self.device is not None, "defense not attached"
        for group in self._groups:
            if group.locatable:
                for row in group.rows:
                    group.golden[row] = self.device.peek_row(row).copy()
            group.digest = self._group_digest(group.rows)

    # ------------------------------------------------------------------
    # Out-of-band scrub (the serving health monitor's probe path)
    # ------------------------------------------------------------------
    def scrub_now(self, now_ns: float | None = None) -> int:
        """Run one scrub pass outside the ACT stream.

        Detection/recovery latency is charged through the same
        defense-ns accounting.  Returns how many corrupted groups were
        detected (and recovered) by this pass.
        """
        assert self.device is not None, "defense not attached"
        if now_ns is None:
            now_ns = self.device.now_ns
        before = self.corruptions_detected
        action = DefenseAction()
        self._scrub_groups(action, now_ns, via="probe")
        self._charge(action)
        return self.corruptions_detected - before

    def overhead(self, config: DRAMConfig) -> OverheadReport:
        """Checksum store in SRAM, golden copies in reserved DRAM."""
        groups = max(1, len(self._groups))
        golden_rows = sum(
            len(group.rows) for group in self._groups if group.locatable
        )
        return OverheadReport(
            framework="RADAR",
            involved_memory="SRAM-DRAM",
            capacity={
                "SRAM": max(2 * KIB, groups * DIGEST_SIZE),
                "DRAM": golden_rows * config.row_bytes,
            },
            counters=1,
        )
