"""Common interface for RowHammer mitigation mechanisms.

Every defense -- the baselines and DRAM-Locker itself -- plugs into the
memory controller through the same three hooks:

* :meth:`Defense.translate` -- address indirection (swap/shuffle-based
  mechanisms relocate rows and the controller must follow);
* :meth:`Defense.on_activate` -- called for every ACT the controller
  issues; the defense may charge mitigation latency, perform victim
  refreshes, or trigger its own row moves;
* :meth:`Defense.overhead` -- the storage/area accounting behind
  Table I.

The **bulk hook pair** lets the batched engine run defended ACT runs
without one Python call per activation:

* :meth:`Defense.plan_activate_run` -- how many upcoming ACTs of one
  row are *uniform*: every one of them would return a
  :class:`DefenseAction` with the same ``extra_ns`` and no victim
  refreshes, row moves, table evictions, escalations, prunes, or any
  other state change beyond pure counter increments.  Returning
  ``None`` opts the defense out (the controller falls back to the
  scalar loop); a plan of 0 forces one scalar step (the ACT where the
  defense acts) after which the controller re-plans.
* :meth:`Defense.on_activate_run` -- commit the state updates of a
  planned run in closed form, bit-identical to ``count`` scalar
  ``on_activate`` calls.

The controller commits a planned run across refresh ticks in one fused
epoch, but never across the REF that completes a refresh window: that
ACT runs scalar, so ``_window_check`` resets window-scoped state where
the scalar loop does.  A plan must read only the defense's own state
(after its ``_window_check``), never the clock or the hammer counters,
so the run it planned stays uniform across the ticks the epoch fires.

Chunk boundaries are therefore exactly the points where a defense can
change behaviour: counter/Misra-Gries threshold crossings, TRR sampler
insertions/evictions, Hydra group escalations and row-counter
overflows, TWiCE prune checkpoints, SHADOW/RRS swap events, and PARA's
sub-``p`` RNG draws (located by vectorizing the draw stream, which is
bit-identical to the scalar draw sequence).  Every boundary ACT runs on
the scalar path, so outcomes match the scalar loop bit-for-bit --
``tests/test_batch_execution.py`` pins this per registered defense.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..dram.config import DRAMConfig
from ..dram.device import DRAMDevice

__all__ = [
    "DefenseAction",
    "RunAction",
    "OverheadReport",
    "Defense",
    "NoDefense",
]

KIB = 1024
MIB = 1024 * 1024


@dataclass
class DefenseAction:
    """What a defense did in response to one activation."""

    extra_ns: float = 0.0
    refreshed_victims: int = 0
    moved_rows: int = 0
    note: str = ""


@dataclass(frozen=True)
class RunAction:
    """A defense's plan for a run of identical activations.

    Attributes:
        count: Upcoming ACTs of the planned row that are uniform (see
            :meth:`Defense.plan_activate_run`); 0 means the very next
            ACT may act and must take the scalar path.
        extra_ns: Mitigation latency each of those ACTs charges --
            identical across the run by the planning contract (e.g.
            Hydra's per-ACT DRAM row-counter access), usually 0.0.
    """

    count: int
    extra_ns: float = 0.0


@dataclass
class OverheadReport:
    """One row of Table I.

    Attributes:
        framework: Mechanism name as printed in the paper.
        involved_memory: Storage technologies the mechanism occupies,
            e.g. ``"DRAM-SRAM"``.
        capacity: Mapping from technology to bytes of storage, e.g.
            ``{"SRAM": 57344}``.  ``None`` values mean Not Reported.
        counters: Number of hardware counters, if the mechanism is
            counter-based (Table I's "area overhead" column reports
            counter counts for those mechanisms).
        area_pct: Die area overhead in percent, for mechanisms whose
            area cost is structural rather than counter storage.
    """

    framework: str
    involved_memory: str
    capacity: dict[str, float | None] = field(default_factory=dict)
    counters: int | None = None
    area_pct: float | None = None

    def capacity_text(self) -> str:
        """Format the capacity column the way the paper prints it."""
        marks = {"DRAM": "*", "SRAM": "†", "CAM": "‡"}
        parts = []
        for tech, amount in self.capacity.items():
            mark = marks.get(tech, "")
            if amount is None:
                parts.append(f"NR{mark}")
            elif amount == 0:
                parts.append(f"0{mark}" if tech != "DRAM" else "0")
            elif amount >= 100 * KIB:
                value = round(amount / MIB, 3)
                parts.append(f"{value:g}MB{mark}")
            else:
                parts.append(f"{amount / KIB:g}KB{mark}")
        return "+".join(parts) if parts else "0"

    def area_text(self) -> str:
        """Format the area column the way the paper prints it."""
        if self.counters is not None:
            unit = "counter" if self.counters == 1 else "counters"
            return f"{self.counters} {unit}"
        if self.area_pct is not None:
            return f"{self.area_pct:g}%"
        return "NULL"


class Defense(ABC):
    """Base class for controller-integrated mitigations."""

    name: str = "defense"

    def __init__(self) -> None:
        self.device: DRAMDevice | None = None
        self.mitigation_ns_total = 0.0
        self.actions = 0
        self._windows_seen = 0

    def attach(self, device: DRAMDevice) -> None:
        """Bind the defense to the device it protects."""
        self.device = device

    def on_refresh_window(self) -> None:
        """Called once per completed refresh window; default: nothing."""

    def _window_check(self) -> None:
        """Fire :meth:`on_refresh_window` when a tREFW boundary passed.

        Concrete defenses call this at the top of ``on_activate`` so
        window-scoped state (count tables, prune lists) resets in step
        with the device's refresh walker.
        """
        assert self.device is not None, "defense not attached"
        completed = self.device.refresh.windows_completed
        while self._windows_seen < completed:
            self._windows_seen += 1
            self.on_refresh_window()

    def translate(self, row: int) -> int:
        """Map a pre-defense row number to its current physical row."""
        return row

    def on_activate(self, row: int, now_ns: float) -> DefenseAction:
        """React to one ACT of (physical) ``row``; default: do nothing."""
        return DefenseAction()

    # ------------------------------------------------------------------
    # Bulk hooks (the batched engine's fast path)
    # ------------------------------------------------------------------
    def plan_activate_run(self, row: int, limit: int) -> RunAction | None:
        """Plan up to ``limit`` upcoming ACTs of ``row`` for bulk
        execution.  The returned :class:`RunAction` promises that the
        next ``count`` scalar ``on_activate(row, ...)`` calls would each
        produce ``DefenseAction(extra_ns=plan.extra_ns)`` and mutate
        nothing beyond deterministic counter increments.

        Default: ``None`` -- the defense has not opted in and the
        controller keeps the request-at-a-time scalar path.
        """
        return None

    def on_activate_run(
        self, row: int, count: int, now_ns: float, step_ns: float
    ) -> None:
        """Commit the state updates of ``count`` planned ACTs of
        ``row`` in bulk, bit-identical to the scalar loop.  Only called
        after :meth:`plan_activate_run` returned a plan with
        ``plan.count >= count``.  ``now_ns`` is the simulated time of
        the run's first activation and ``step_ns`` the per-ACT advance.

        Default: replay through :meth:`on_activate` (correct for any
        subclass that overrides only the planner, at scalar cost).
        """
        for index in range(count):
            self.on_activate(row, now_ns + index * step_ns)

    @abstractmethod
    def overhead(self, config: DRAMConfig) -> OverheadReport:
        """Storage and area cost for Table I under ``config``."""

    # ------------------------------------------------------------------
    # Shared helpers for concrete mitigations
    # ------------------------------------------------------------------
    def _refresh_victims(self, row: int, action: DefenseAction) -> None:
        """Neighbour-refresh mitigation used by TRR-style defenses."""
        assert self.device is not None, "defense not attached"
        device = self.device
        for victim in device.mapper.neighbors(row, radius=1):
            device.rowhammer.neutralize_victim(victim)
            device.stats.refreshes += 1
            device.stats.energy.refresh += device.energy.e_ref
            action.extra_ns += device.timing.trc
            action.refreshed_victims += 1

    def _charge(self, action: DefenseAction) -> DefenseAction:
        self.mitigation_ns_total += action.extra_ns
        if action.extra_ns or action.refreshed_victims or action.moved_rows:
            self.actions += 1
        return action


class NoDefense(Defense):
    """Unprotected baseline."""

    name = "none"

    def plan_activate_run(self, row: int, limit: int) -> RunAction | None:
        # The base on_activate neither checks windows nor charges; a
        # whole run is uniform by construction.
        return RunAction(limit)

    def on_activate_run(
        self, row: int, count: int, now_ns: float, step_ns: float
    ) -> None:
        pass

    def overhead(self, config: DRAMConfig) -> OverheadReport:
        return OverheadReport(
            framework="None", involved_memory="-", capacity={}, counters=None
        )
