"""The memory controller.

Executes :class:`MemRequest` streams against a :class:`DRAMDevice` with
an open-page policy and DDR timing, routing every request through the
optional protection hooks:

1. **DRAM-Locker** (if installed) -- lock-table lookup, address
   remapping, unlock-SWAP for privileged requests, skip for blocked
   ones;
2. **baseline defense** (if installed) -- address translation plus a
   per-ACT mitigation hook.

The controller is where "skipped instructions cost nothing" becomes
measurable: a blocked request consumes only the lock-table lookup
latency and never reaches the DRAM array.

Execution engines and APIs:

* :meth:`MemoryController.execute` -- the scalar reference path, one
  request per call;
* :meth:`MemoryController.execute_batch` -- the batched engine.  Runs
  of identical attacker activations (the hammer hot loop) are accounted
  in bulk -- **including under a baseline defense**, via the
  :class:`~repro.defenses.base.Defense` bulk hook pair -- with chunk
  boundaries at every point where any observable can change: refresh
  ticks, RowHammer threshold crossings, locker deadlines and
  unlock-SWAPs, and every defense event (counter thresholds, sampler
  insertions/evictions, Hydra escalations, TWiCE prunes, swap/shuffle
  moves, PARA's sub-``p`` draws).  Outcomes are bit-identical to
  calling ``execute`` in a loop -- hammer counters, ``MemoryStats``
  (floats accumulated in the scalar addition order via the
  sequential-accumulator helpers), defense state, RNG streams.
  ``tests/test_batch_execution.py`` holds the equivalence suite.
* :meth:`MemoryController.execute_run` /
  :meth:`MemoryController.execute_summary` -- **summary mode**: same
  engine, but the per-request :class:`RequestResult` materialization is
  replaced by one :class:`RunSummary` (issued/blocked/latency/flips),
  so a million-activation campaign performs O(chunks) allocation.
  ``HammerDriver`` and ``WeightStore.stream_inference`` consume this.

``engine="scalar"`` at construction keeps every path on the reference
loop (the discipline shared with ``repro.nn.functional.contract`` and
the suffix-forward search engine: the fast path is only used where
equivalence is pinned).  ``engine="bulk"`` and ``engine="events"`` run
the same fast path; ``"events"`` only changes how the serving layer
schedules streams across channels (:mod:`repro.controller.events`).
ACT runs commit whole multi-tick epochs in one fused
``np.add.accumulate`` pass, with or without a defense.  An epoch stops
before the ACT whose REF completes a refresh window, so window-scoped
defense state resets where the scalar loop resets it -- bit-identical
to the scalar reference (the contract ``docs/ARCHITECTURE.md``
documents).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .. import obs
from ..defenses.base import Defense
from ..dram.device import DRAMDevice
from ..engines import EXECUTION_ENGINES, resolve_engine
from ..dram.stats import walk_add_many
from ..locker.lock_table import LOCK_LOOKUP_NS
from .request import (
    Kind,
    MemRequest,
    RequestResult,
    RequestRun,
    RunSummary,
    Status,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..locker.locker import DRAMLocker

__all__ = [
    "ENGINES",
    "MemoryController",
    "SummarySink",
    "make_summary_sink",
    "LOCK_LOOKUP_NS",
]

#: The execution engines a controller can be built with: ``scalar`` is
#: the reference loop; ``bulk`` and ``events`` share the fast ACT-run
#: path (``events`` differs only in the serving layer's cross-channel
#: scheduling).  All three produce bit-identical payloads.  Canonically
#: defined in :mod:`repro.engines`; re-exported here under the
#: controller's historical name.
ENGINES = EXECUTION_ENGINES

#: Upper bound on one fused epoch's accumulate buffer (6 float64 rows of
#: ``cap + 1`` columns, ~3 MB): million-ACT runs split at cap
#: boundaries, which is fold-safe (the scalar addition order is a
#: concatenation of the per-epoch folds).
EPOCH_CAP = 1 << 16


class _ListSink:
    """Collects full per-request results (the ``execute_batch`` mode)."""

    __slots__ = ("controller", "results")

    def __init__(self, controller: "MemoryController"):
        self.controller = controller
        self.results: list[RequestResult] = []

    def add(self, result: RequestResult) -> None:
        """Collect one scalar-path result (already logged by ``execute``)."""
        self.results.append(result)

    def add_run(
        self,
        requests: Sequence[MemRequest],
        start: int,
        count: int,
        status: Status,
        latency_ns: float,
        defense_ns: float,
        physical: int | None,
    ) -> None:
        """Materialize one bulk run as ``count`` per-request results."""
        chunk = [
            RequestResult(
                requests[k],
                status,
                latency_ns=latency_ns,
                defense_ns=defense_ns,
                physical_row=physical,
            )
            for k in range(start, start + count)
        ]
        if self.controller.results_log_enabled:
            self.controller.results.extend(chunk)
        self.results.extend(chunk)


class SummarySink:
    """Reduces the stream to one :class:`RunSummary` -- no per-request
    allocation; float totals keep the scalar in-order fold."""

    __slots__ = ("summary",)

    def __init__(self) -> None:
        self.summary = RunSummary()

    def add(self, result: RequestResult) -> None:
        """Fold one result into the running :class:`RunSummary`."""
        summary = self.summary
        if result.status is Status.BLOCKED:
            summary.blocked += 1
        else:
            summary.issued += 1
        summary.latency_ns += result.latency_ns
        summary.defense_ns += result.defense_ns
        if result.flips:
            summary.flips.extend(result.flips)

    def add_run(
        self,
        requests: Sequence[MemRequest],
        start: int,
        count: int,
        status: Status,
        latency_ns: float,
        defense_ns: float,
        physical: int | None,
    ) -> None:
        """Fold one bulk run into the summary without materializing it.

        The float sums advance via :func:`walk_add_many`, replaying the
        scalar left-to-right addition order bit-for-bit.
        """
        summary = self.summary
        if status is Status.BLOCKED:
            summary.blocked += count
        else:
            summary.issued += count
        summary.latency_ns, summary.defense_ns = walk_add_many(
            (summary.latency_ns, summary.defense_ns),
            (latency_ns, defense_ns),
            count,
        )


def make_summary_sink() -> "SummarySink":
    """A fresh summary-mode result sink for :meth:`MemoryController.
    execute_stream` callers (the sharded serving system feeds several
    controllers into one); read the reduced outcome from ``.summary``."""
    return SummarySink()


class MemoryController:
    """Order-preserving request executor with defense hooks."""

    def __init__(
        self,
        device: DRAMDevice,
        defense: Defense | None = None,
        locker: "DRAMLocker | None" = None,
        engine: str = "bulk",
    ):
        resolve_engine(engine)
        self.device = device
        self.defense = defense
        self.locker = locker
        self.engine = engine
        if defense is not None:
            defense.attach(device)
        self.results_log_enabled = False
        self.results: list[RequestResult] = []

    # ------------------------------------------------------------------
    # Convenience entry points
    # ------------------------------------------------------------------
    def read(
        self,
        row: int,
        column: int = 0,
        size: int = 64,
        privileged: bool = False,
    ) -> RequestResult:
        """Execute one READ of ``row`` (convenience wrapper)."""
        return self.execute(
            MemRequest(Kind.READ, row, column, size, privileged=privileged)
        )

    def write(
        self,
        row: int,
        column: int = 0,
        size: int = 64,
        privileged: bool = False,
    ) -> RequestResult:
        """Execute one WRITE to ``row`` (convenience wrapper)."""
        return self.execute(
            MemRequest(Kind.WRITE, row, column, size, privileged=privileged)
        )

    def hammer(self, row: int, count: int = 1) -> list[RequestResult]:
        """Issue ``count`` attacker activations (ACT+PRE) of one row.

        The request stream is a :class:`RequestRun` -- one shared
        request object, O(1) memory before execution -- and results
        still arrive one per activation.  Prefer :meth:`hammer_run`
        when only the issued/blocked tallies matter.
        """
        return self.execute_batch(
            RequestRun(MemRequest(Kind.ACT, row, privileged=False), count)
        )

    def hammer_run(self, row: int, count: int = 1) -> RunSummary:
        """Summary-mode :meth:`hammer`: same execution, same device
        state, but no per-activation result objects."""
        return self.execute_run(
            MemRequest(Kind.ACT, row, privileged=False), count
        )

    def run(self, requests: Iterable[MemRequest]) -> list[RequestResult]:
        """Execute a request stream in order."""
        return [self.execute(request) for request in requests]

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------
    def execute(self, request: MemRequest) -> RequestResult:
        """Execute one request on the scalar reference path.

        This is the semantics every fast engine is held to: locker
        lookup/blocking, defense ``on_activate`` dispatch, timing and
        energy charges, RowHammer accounting, and one
        :class:`RequestResult` -- request at a time.
        """
        device = self.device
        timing = device.timing
        physical = request.row
        defense_ns = 0.0
        swapped = False

        # --- DRAM-Locker request path -------------------------------
        if self.locker is not None:
            decision = self.locker.on_request(request)
            defense_ns += decision.extra_ns
            if not decision.allowed:
                device.advance(decision.extra_ns)
                device.stats.blocked_requests += 1
                device.stats.defense_ns += decision.extra_ns
                tel = obs.ACTIVE
                if tel is not None:
                    tel.metrics.inc(
                        "controller.blocked_requests", engine=self.engine
                    )
                    tel.audit.emit(
                        "locker-block",
                        now_ns=device.now_ns,
                        row=request.row,
                        count=1,
                    )
                result = RequestResult(
                    request,
                    Status.BLOCKED,
                    latency_ns=decision.extra_ns,
                    defense_ns=decision.extra_ns,
                    physical_row=None,
                )
                self._log(result)
                return result
            physical = decision.physical_row
            swapped = decision.swapped

        # --- baseline defense translation ---------------------------
        if self.defense is not None:
            physical = self.defense.translate(physical)

        # --- DDR timing + device commands ---------------------------
        addr = device.mapper.row_address(physical)
        bank = device.banks[addr.bank]
        bursts = max(1, math.ceil(request.size / 64))
        flips = []
        row_hit = bank.open_row == physical and request.kind is not Kind.ACT

        if request.kind is Kind.ACT:
            # Closed-row hammering pattern: ACT then immediate PRE.
            service_ns = timing.trc
            flips += device.activate(physical)
            defense_ns += self._defense_hook(physical)
            device.precharge(addr.bank)
        elif row_hit:
            service_ns = timing.row_hit_ns + (bursts - 1) * timing.tccd
            device.stats.row_hits += 1
        else:
            service_ns = timing.trcd + timing.tcl + timing.tbl
            service_ns += (bursts - 1) * timing.tccd
            if bank.open_row is not None:
                service_ns += timing.trp
                device.precharge(addr.bank)
            device.stats.row_misses += 1
            flips += device.activate(physical)
            defense_ns += self._defense_hook(physical)

        if request.kind is Kind.READ:
            device.read_burst_run(physical, request.column, bursts)
        elif request.kind is Kind.WRITE:
            device.write_burst_run(
                physical, request.column, bursts, np.zeros(64, dtype=np.uint8)
            )

        device.advance(service_ns + defense_ns)
        device.stats.busy_ns += service_ns
        device.stats.defense_ns += defense_ns

        result = RequestResult(
            request,
            Status.DONE,
            latency_ns=service_ns + defense_ns,
            defense_ns=defense_ns,
            physical_row=physical,
            row_hit=row_hit,
            swapped=swapped,
            flips=flips,
        )
        self._log(result)
        return result

    # ------------------------------------------------------------------
    # Batched / summary execution
    # ------------------------------------------------------------------
    def execute_batch(
        self, requests: Sequence[MemRequest]
    ) -> list[RequestResult]:
        """Execute a request stream in order through the batched engine.

        Returns exactly what ``[self.execute(r) for r in requests]``
        would: same results, same stats, same device, defense, and
        locker state.  Runs of identical attacker activations are
        accounted in bulk between the chunk boundaries where state can
        change; everything else takes the scalar path.
        """
        sink = _ListSink(self)
        self._drain(requests, sink)
        return sink.results

    def execute_summary(self, requests: Sequence[MemRequest]) -> RunSummary:
        """Execute a request stream through the batched engine, reduced
        to one :class:`RunSummary` -- device/defense/locker state is
        identical to :meth:`execute_batch`, but no per-request results
        are materialized (bulk chunks allocate nothing per request).

        The results log, when enabled, only sees the scalar boundary
        steps in this mode; use :meth:`execute_batch` for full traces.
        """
        sink = SummarySink()
        self._drain(requests, sink)
        return sink.summary

    def execute_run(self, request: MemRequest, count: int) -> RunSummary:
        """Summary-mode execution of ``count`` repetitions of one
        request: the zero-allocation accounting path of the hammer hot
        loop (O(1) memory in, O(chunks) work out)."""
        return self.execute_summary(RequestRun(request, count))

    def execute_stream(self, requests: Sequence[MemRequest], sink) -> None:
        """Execute a request stream into a caller-supplied result sink.

        The sink protocol is the one the built-in list/summary sinks
        implement: ``add(result)`` for each scalar step and
        ``add_run(requests, start, count, status, latency_ns,
        defense_ns, physical)`` for each bulk chunk (``count`` requests
        sharing one per-step latency).  This is how the serving
        subsystem's SLA accountant observes per-request latencies --
        bulk chunks arrive as ``(latency, count)`` pairs -- without the
        engine ever materializing per-request results.
        """
        self._drain(requests, sink)

    def _drain(self, requests: Sequence[MemRequest], sink) -> None:
        """Feed a request stream through ``sink`` via the configured
        engine, finding bulkable ACT runs unless ``engine`` is
        ``'scalar'`` (everything else shares the scalar path)."""
        if self.engine == "scalar":
            if isinstance(requests, RequestRun):
                request = requests.request
                for _ in range(len(requests)):
                    sink.add(self.execute(request))
            else:
                for request in requests:
                    sink.add(self.execute(request))
            return
        if isinstance(requests, RequestRun):
            # Run-length input: the whole stream is one known run, no
            # per-element scan needed.
            total = len(requests)
            if total > 1 and requests.request.kind is Kind.ACT:
                self._drain_act_run(requests, 0, total, sink)
            else:
                for index in range(total):
                    sink.add(self.execute(requests.request))
            return
        if not isinstance(requests, (list, tuple)):
            requests = list(requests)
        total = len(requests)
        index = 0
        while index < total:
            request = requests[index]
            if request.kind is Kind.ACT:
                end = index + 1
                row, privileged = request.row, request.privileged
                while end < total:
                    peer = requests[end]
                    if (
                        peer.kind is not Kind.ACT
                        or peer.row != row
                        or peer.privileged != privileged
                    ):
                        break
                    end += 1
                if end - index > 1:
                    self._drain_act_run(requests, index, end, sink)
                    index = end
                    continue
            sink.add(self.execute(request))
            index += 1

    def _drain_act_run(
        self,
        requests: Sequence[MemRequest],
        start: int,
        end: int,
        sink,
    ) -> None:
        """Drain ``requests[start:end]`` -- identical ACTs of one row --
        alternating exact bulk commits with scalar steps at every point
        where a threshold crossing, locker deadline, refresh-window end
        or defense event could change the outcome.

        The defense plans each span once (``plan_activate_run``); the
        span then commits as one fused multi-tick epoch
        (:meth:`_fused_epoch`)."""
        device = self.device
        locker = self.locker
        defense = self.defense
        trc = device.timing.trc
        row = requests[start].row
        privileged = requests[start].privileged

        index = start
        while index < end:
            if locker is not None:
                pending_bound = locker.quiet_span()
                if pending_bound <= 0:
                    sink.add(self.execute(requests[index]))
                    index += 1
                    continue
                physical, locked, exposed = locker.classify(row)
                if locked and not exposed:
                    if privileged:
                        # Unlock-SWAP path: strictly scalar, ordering is
                        # part of the defense semantics.
                        sink.add(self.execute(requests[index]))
                        index += 1
                        continue
                    count = min(end - index, pending_bound)
                    self._bulk_blocked(requests, index, count, sink)
                    index += count
                    continue
                lookup_hit = locked  # exposed rows still hit the table
                lock_ns = LOCK_LOOKUP_NS
            else:
                physical = row
                pending_bound = end - index
                lookup_hit = False
                lock_ns = 0.0

            # Baseline defense: translate, then ask the defense how far
            # ahead it stays uniform.  Non-opted-in defenses (plan is
            # None) keep the request-at-a-time scalar path.
            defense_extra = 0.0
            limit = min(end - index, pending_bound)
            if defense is not None:
                physical = defense.translate(physical)
                plan = defense.plan_activate_run(physical, limit)
                if plan is None or plan.count <= 0:
                    sink.add(self.execute(requests[index]))
                    index += 1
                    continue
                limit = min(limit, plan.count)
                defense_extra = plan.extra_ns

            extra_ns = lock_ns + defense_extra  # the scalar fold order
            count = self._fused_epoch(
                requests, index, physical, lookup_hit, extra_ns,
                trc + extra_ns, limit, sink,
            )
            if count <= 0:
                sink.add(self.execute(requests[index]))
                index += 1
                continue
            index += count

    def _fused_epoch(
        self,
        requests: Sequence[MemRequest],
        start: int,
        physical: int,
        lookup_hit: bool,
        extra_ns: float,
        step_ns: float,
        limit: int,
        sink,
    ) -> int:
        """Commit up to ``limit`` quiet ACTs of ``physical`` in one pass.

        The epoch may span refresh ticks: the tick steps are located
        exactly (by searching the accumulated clock column for
        ``next_ref_ns``, the same comparison the scalar ``advance``
        performs on the same folded values) and fired in place, so the
        REF walker, the hammer counters, and every energy accumulator
        evolve bit-identically to the scalar loop.  The epoch stops
        *before* two kinds of step, which run scalar:

        * a TRH crossing, so flips land with the exact folded timestamp;
        * the step whose advance fires the REF that completes a refresh
          window (:meth:`~repro.dram.refresh.RefreshEngine.wraps_by`).
          The next ACT's ``_window_check`` (or the next plan's) then
          resets window-scoped defense state exactly where the scalar
          loop resets it.  Inside a window every per-ACT
          ``_window_check`` is a no-op, and no plan reads the clock or
          the hammer counters, so a planned span stays uniform across
          the REFs the epoch fires.

        Returns the number of ACTs committed (0 means the very next ACT
        is a boundary and must take the scalar path).  The caller
        guarantees no locker deadline and no defense event falls inside
        ``limit`` steps.
        """
        device = self.device
        refresh = device.refresh
        rowhammer = device.rowhammer
        stats = device.stats
        breakdown = stats.energy
        energy = device.energy
        now_start = device.now_ns
        limit = min(limit, EPOCH_CAP)
        accumulators = (
            breakdown.activate,
            breakdown.precharge,
            breakdown.background,
            stats.busy_ns,
            stats.defense_ns,
            now_start,
        )
        steps = (
            energy.e_act,
            energy.e_pre,
            energy.background_nj(step_ns),
            device.timing.trc,
            extra_ns,
            step_ns,
        )

        position = 0  # ACT steps already charged onto the hammer counter
        leap = limit <= min(
            refresh.quiet_steps(now_start, step_ns),
            rowhammer.quiet_span(physical),
        )
        if leap:
            # No REF and no crossing inside the epoch: every accumulator
            # advances by a constant step, no clock column needed.
            committed = limit
            final = walk_add_many(accumulators, steps, limit)
        else:
            # One strict sequential scan per accumulator: column k holds
            # every accumulator's exact value after k steps (the scalar
            # fold).
            buffer = np.empty((6, limit + 1), dtype=np.float64)
            buffer[:, 0] = accumulators
            buffer[:, 1:] = np.array(steps, dtype=np.float64)[:, None]
            np.add.accumulate(buffer, axis=1, out=buffer)
            now_column = buffer[5]
            stepped = now_column[1:]  # the clock after each step

            committed = limit
            while True:
                # 1-based step index of the next TRH / Half-Double
                # crossing, from the *current* counter (ticks inside the
                # epoch reset it).
                crossing = position + rowhammer.quiet_span(physical) + 1
                # 1-based step index whose advance first satisfies the
                # scalar tick condition ``now >= next_ref`` on the
                # folded clock.
                tick = (
                    int(stepped.searchsorted(refresh.next_ref_ns, side="left"))
                    + 1
                )
                if crossing <= limit and crossing <= tick:
                    # The crossing ACT must run scalar (possible
                    # disturbance): stop the epoch just before it.  If
                    # the crossing step is also the tick step, the tick
                    # fires during that scalar boundary ACT's own
                    # advance, not here.
                    committed = crossing - 1
                    break
                if tick > limit:
                    break
                now_tick = float(now_column[tick])
                if refresh.wraps_by(now_tick):
                    # This step's advance completes a refresh window:
                    # it runs scalar.
                    committed = tick - 1
                    break
                # Fuse across this REF: the boundary ACT's counter bump
                # lands first (scalar order: activate, then advance
                # fires the tick), then the due slices reset their rows.
                rowhammer.charge_activations(physical, tick - position)
                position = tick
                refresh.tick(now_tick)
            if committed <= 0:
                return 0
            final = buffer[:, committed].tolist()

        rowhammer.charge_activations(physical, committed - position)
        (
            breakdown.activate,
            breakdown.precharge,
            breakdown.background,
            stats.busy_ns,
            stats.defense_ns,
            device.now_ns,
        ) = final

        tel = obs.ACTIVE
        if tel is not None:
            engine = self.engine
            if leap:
                tel.metrics.inc("controller.epoch_leaps", engine=engine)
                tel.metrics.inc("controller.act_runs", engine=engine)
                tel.metrics.set(
                    "controller.defense_ns", stats.defense_ns, engine=engine
                )
            else:
                tel.metrics.inc("controller.fused_epochs", engine=engine)
            tel.metrics.inc("controller.acts", committed, engine=engine)

        stats.activates += committed
        stats.precharges += committed
        # Every scalar ACT ends with a precharge of its own bank.
        device.banks[device.mapper.row_address(physical).bank].open_row = None
        if self.locker is not None:
            self.locker.charge_bulk(committed, lookup_hit)
        if self.defense is not None:
            self.defense.on_activate_run(
                physical, committed, now_start, step_ns
            )
        sink.add_run(
            requests,
            start,
            committed,
            Status.DONE,
            latency_ns=step_ns,
            defense_ns=extra_ns,
            physical=physical,
        )
        return committed

    def _bulk_blocked(
        self,
        requests: Sequence[MemRequest],
        start: int,
        count: int,
        sink,
    ) -> None:
        """Account ``count`` blocked (locked-row, unprivileged) requests
        in bulk.  Blocked requests touch no counters and no banks, so
        deferring the refresh catch-up to the end of the chunk leaves
        every observable identical to the scalar loop."""
        device = self.device
        stats = device.stats
        (
            stats.energy.background,
            stats.defense_ns,
            device.now_ns,
        ) = walk_add_many(
            (stats.energy.background, stats.defense_ns, device.now_ns),
            (
                device.energy.background_nj(LOCK_LOOKUP_NS),
                LOCK_LOOKUP_NS,
                LOCK_LOOKUP_NS,
            ),
            count,
        )
        stats.blocked_requests += count
        self.locker.charge_bulk_blocked(count)
        device.refresh.tick(device.now_ns)

        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("controller.blocked_runs", engine=self.engine)
            tel.metrics.inc(
                "controller.blocked_requests", count, engine=self.engine
            )
            tel.audit.emit(
                "locker-block",
                now_ns=device.now_ns,
                row=requests[start].row,
                count=count,
            )

        sink.add_run(
            requests,
            start,
            count,
            Status.BLOCKED,
            latency_ns=LOCK_LOOKUP_NS,
            defense_ns=LOCK_LOOKUP_NS,
            physical=None,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _defense_hook(self, physical: int) -> float:
        if self.defense is None:
            return 0.0
        action = self.defense.on_activate(physical, self.device.now_ns)
        return action.extra_ns

    def _log(self, result: RequestResult) -> None:
        if self.results_log_enabled:
            self.results.append(result)
