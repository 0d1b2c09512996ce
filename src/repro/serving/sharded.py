"""The sharded multi-channel memory system.

``ShardedMemorySystem`` composes ``config.channels`` independent
channels -- each its own :class:`~repro.dram.device.DRAMDevice`,
:class:`~repro.controller.MemoryController`, optional per-channel
baseline defense instance, and optional per-channel
:class:`~repro.locker.DRAMLocker` lock table -- behind one flat
*system row* address space, placed by the
:class:`~repro.dram.address.ChannelInterleaver` policy layer.

Requests address system rows; the system translates them to per-channel
rows and routes them through that channel's controller, so every
protection effect (lock-table skips, unlock-SWAPs, defense
mitigations, RowHammer disturbance) stays the emergent per-channel
behaviour the single-channel experiments pinned down.  Channels are
truly independent memory systems: each has its own clock, and the
system's *makespan* (the simulated time a serving run took) is the
maximum channel clock -- which is what makes aggregate requests/sec
scale with the channel count.

With ``channels == 1`` the translation is the identity and every
observable -- stats, flips, stored bytes, locker state, RNG streams --
is identical to driving a bare ``MemoryController``
(``tests/test_serving.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .. import obs
from ..controller.controller import MemoryController, make_summary_sink
from ..controller.events import SystemEventQueue
from ..controller.request import (
    Kind,
    MemRequest,
    RequestResult,
    RequestRun,
    RunSummary,
)
from ..defenses.base import Defense
from ..defenses.stack import build_stack
from ..dram.address import ChannelInterleaver
from ..dram.config import DRAMConfig
from ..dram.device import DRAMDevice
from ..locker.locker import DRAMLocker, LockerConfig
from ..locker.planner import LockMode, ProtectionPlan
from .workload import derive_seed

__all__ = ["ChannelState", "ShardedMemorySystem"]


def _run_batch(state: "ChannelState", batch, sink) -> None:
    """Execute one per-channel sub-batch, stamping audit events with
    the channel index.  Applies at execution/drain time, so the stamp
    is identical whether the stream ran immediately (bulk) or deferred
    through the event queue (events)."""
    tel = obs.ACTIVE
    if tel is None:
        state.controller.execute_stream(batch, sink)
        return
    with tel.audit.context(channel=state.index):
        state.controller.execute_stream(batch, sink)


@dataclass
class ChannelState:
    """One channel's stack."""

    index: int
    device: DRAMDevice
    controller: MemoryController
    locker: DRAMLocker | None
    defense: Defense | None


class ShardedMemorySystem:
    """N channels x MemoryController behind one system address space."""

    def __init__(
        self,
        config: DRAMConfig,
        *,
        policy: str = "row",
        trh: int | None = None,
        defense: str = "None",
        locker_config: LockerConfig | None = None,
        weak_cell_fraction: float = 0.0,
        seed: int = 0,
        engine: str = "bulk",
    ):
        """Build the per-channel stacks, each defended as ``defense``
        names it in :data:`~repro.defenses.builders.DEFENDED_HAMMER_DEFENSES`
        (:func:`~repro.defenses.stack.build_stack`).

        Under ``"DRAM-Locker"`` every channel gets its own locker (lock
        table, swap engine, free-row pools); ``locker_config`` is the
        channel-0 template -- other channels get a re-seeded copy so
        their swap-failure draws are independent.  A baseline name gets
        one defense instance per channel.  Channel 0 uses ``seed``
        itself (the single-channel equivalence anchor); channel
        ``c > 0`` derives ``derive_seed(f"channel-{c}", seed)``.
        """
        self.config = config
        self.interleaver = ChannelInterleaver(config, policy=policy)
        self.engine = engine
        channel_config = config.channel_config()
        template = locker_config or LockerConfig()
        self.channels: list[ChannelState] = []
        for index in range(config.channels):
            channel_seed = self.channel_seed(index, seed)
            device, locker, instance, controller = build_stack(
                defense,
                config=channel_config,
                trh=trh,
                seed=channel_seed,
                weak_cell_fraction=weak_cell_fraction,
                locker_config=(
                    template if index == 0
                    else replace(template, seed=channel_seed)
                ),
                engine=engine,
            )
            self.channels.append(
                ChannelState(index, device, controller, locker, instance)
            )
        # Channels marked failed by fault injection; callers (the
        # serving engine) must route or shed around them -- the stacks
        # themselves stay intact so post-mortem reads still work.
        self._failed: set[int] = set()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_channel(self, index: int) -> None:
        """Mark one channel failed: it stops serving.  The serving
        engine consults :meth:`channel_failed` and sheds (or spills via
        the channel scaler) every op that would land on it."""
        if not 0 <= index < len(self.channels):
            raise ValueError(f"no channel {index} to fail")
        self._failed.add(index)

    def stall_channel(self, index: int, stall_ns: float) -> None:
        """A one-shot brownout: jump the channel's clock ``stall_ns``
        forward (ticking its refresh machinery), so every later op on
        it completes late -- the sojourn books absorb the hit."""
        if not 0 <= index < len(self.channels):
            raise ValueError(f"no channel {index} to stall")
        self.channels[index].device.advance(stall_ns)

    def channel_failed(self, index: int) -> bool:
        """Whether fault injection has failed this channel."""
        return index in self._failed

    @property
    def failed_channels(self) -> tuple[int, ...]:
        """Failed channel indices, sorted."""
        return tuple(sorted(self._failed))

    @staticmethod
    def channel_seed(index: int, seed: int) -> int:
        """Channel 0 keeps the base seed (so a single-channel system is
        seed-identical to a bare controller); later channels derive."""
        if index == 0:
            return seed
        return derive_seed(f"channel-{index}", seed)

    # ------------------------------------------------------------------
    # Address plumbing
    # ------------------------------------------------------------------
    @property
    def system_rows(self) -> int:
        """Total rows in the flat system address space."""
        return self.interleaver.system_rows

    def locate(self, system_row: int) -> tuple[ChannelState, int]:
        """Resolve a system row to its channel stack and local row."""
        channel, local = self.interleaver.locate(system_row)
        return self.channels[channel], local

    def system_row(self, channel: int, local_row: int) -> int:
        """Lift a channel-local row back to its system address."""
        return self.interleaver.system_row(channel, local_row)

    def neighbors(self, system_row: int, radius: int = 1) -> list[int]:
        """System rows physically adjacent to ``system_row`` -- i.e.
        its channel-local neighbors lifted back to system space
        (adjacency never crosses a channel)."""
        state, local = self.locate(system_row)
        return [
            self.system_row(state.index, neighbor)
            for neighbor in state.device.mapper.neighbors(local, radius=radius)
        ]

    def _translate(self, request: MemRequest) -> tuple[ChannelState, MemRequest]:
        state, local = self.locate(request.row)
        if local == request.row:
            return state, request
        return state, replace_row(request, local)

    # ------------------------------------------------------------------
    # Protection setup
    # ------------------------------------------------------------------
    def protect(
        self,
        system_rows: Iterable[int],
        mode: LockMode = LockMode.ADJACENT,
        radius: int = 1,
    ) -> dict[int, ProtectionPlan]:
        """Protect system rows via each channel's own locker."""
        per_channel: dict[int, list[int]] = {}
        for row in system_rows:
            state, local = self.locate(row)
            per_channel.setdefault(state.index, []).append(local)
        plans: dict[int, ProtectionPlan] = {}
        for index, rows in sorted(per_channel.items()):
            locker = self.channels[index].locker
            if locker is None:
                raise RuntimeError("system built without lockers (defense is not DRAM-Locker)")
            plans[index] = locker.protect(rows, mode=mode, radius=radius)
        return plans

    # ------------------------------------------------------------------
    # Execution (system-row in, channel-routed out)
    # ------------------------------------------------------------------
    def execute(self, request: MemRequest) -> RequestResult:
        """Route one system-row request to its owning channel."""
        state, translated = self._translate(request)
        return state.controller.execute(translated)

    def read(
        self, system_row: int, column: int = 0, size: int = 64,
        privileged: bool = False,
    ) -> RequestResult:
        """Convenience READ of one system row."""
        return self.execute(
            MemRequest(Kind.READ, system_row, column, size, privileged=privileged)
        )

    def write(
        self, system_row: int, column: int = 0, size: int = 64,
        privileged: bool = False,
    ) -> RequestResult:
        """Convenience WRITE to one system row."""
        return self.execute(
            MemRequest(Kind.WRITE, system_row, column, size, privileged=privileged)
        )

    def execute_run(self, request: MemRequest, count: int) -> RunSummary:
        """Summary-mode run of one repeated request (a hammer burst):
        the whole run lands on one channel, so it rides that channel's
        bulk engine untouched."""
        state, translated = self._translate(request)
        return state.controller.execute_run(translated, count)

    def hammer_run(self, system_row: int, count: int = 1) -> RunSummary:
        """``count`` attacker activations of one system row, O(1) memory."""
        return self.execute_run(
            MemRequest(Kind.ACT, system_row, privileged=False), count
        )

    def _batches(
        self, requests: Sequence[MemRequest]
    ) -> list[tuple[ChannelState, Sequence[MemRequest]]]:
        """Translate a system-row stream into per-channel sub-batches.

        Consecutive requests for one channel become one sub-stream (so
        same-row ACT runs keep their run-length detection); a
        :class:`RequestRun` is routed whole.  Pure address arithmetic:
        no device state is touched, which is what lets
        :meth:`handoff_stream` run it on the ingestion thread.
        """
        if isinstance(requests, RequestRun):
            state, translated = self._translate(requests.request)
            return [(state, RequestRun(translated, len(requests)))]
        batches: list[tuple[ChannelState, list[MemRequest]]] = []
        for request in requests:
            state, translated = self._translate(request)
            if not batches or batches[-1][0] is not state:
                batches.append((state, []))
            batches[-1][1].append(translated)
        return batches

    def execute_stream(self, requests: Sequence[MemRequest], sink) -> None:
        """Drain a mixed stream through the per-channel bulk engines.

        Routing and sub-batching per :meth:`_batches`; results flow
        into ``sink`` via the controller sink protocol.
        """
        for state, batch in self._batches(requests):
            _run_batch(state, batch, sink)

    def handoff_stream(self, requests: Sequence[MemRequest], sink):
        """Non-blocking hand-off: translate and batch *now*, execute
        *later* -- returns a zero-argument thunk that performs the
        deferred :meth:`execute_stream`.

        The live frontend's ingestion thread calls this so address
        translation and run-length batching happen off the executor;
        only the returned thunk (run by whichever thread owns the
        devices) touches device or sink state.
        """
        batches = self._batches(requests)

        def execute() -> None:
            """Run the prepared per-channel batches, in order."""
            for state, batch in batches:
                _run_batch(state, batch, sink)

        return execute

    def execute_summary(self, requests: Sequence[MemRequest]) -> RunSummary:
        """Summary-mode stream execution (one RunSummary, no
        per-request results), routed across channels."""
        sink = make_summary_sink()
        self.execute_stream(requests, sink)
        return sink.summary

    # ------------------------------------------------------------------
    # Event-driven execution (the serving engine's "events" drive)
    # ------------------------------------------------------------------
    def event_queue(self) -> SystemEventQueue:
        """One shared cross-channel event queue over this system.

        The queue schedules submitted streams in slowest-channel-first
        order while preserving per-channel and per-sink FIFO order --
        the two constraints that make its payloads bit-identical to
        immediate :meth:`execute_stream` calls (channels are
        independent state machines; sinks fold observations in
        first-seen order).  The serving engine drains it once per time
        slice (the SLA-histogram epoch).
        """
        return SystemEventQueue(
            lambda channel: self.channels[channel].device.now_ns
        )

    def submit_stream(
        self, queue: SystemEventQueue, requests: Sequence[MemRequest], sink
    ) -> None:
        """Enqueue a stream on ``queue`` for clock-ordered execution.

        Routing and per-channel sub-batching are identical to
        :meth:`execute_stream` -- translation happens now, execution at
        drain time.  A stream spanning several channels is submitted as
        one atomic item on every involved channel, so its sub-batches
        run back to back in original order.
        """
        batches = self._batches(requests)
        if not batches:
            return
        channels = tuple(dict.fromkeys(state.index for state, _ in batches))

        def run_batches() -> None:
            """Drain this submission's per-channel batches, in order."""
            for state, batch in batches:
                _run_batch(state, batch, sink)

        queue.submit(channels, sink, run_batches)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def peek_bytes(self, system_row: int, column: int, length: int):
        """Raw bytes of one system row, without touching timing state."""
        state, local = self.locate(system_row)
        return state.device.peek_bytes(local, column, length)

    def register_template(self, system_row: int, bits: list[int]) -> None:
        """Register an attacker data-pattern template on one system row."""
        state, local = self.locate(system_row)
        state.device.vulnerability.register_template(local, bits)

    @property
    def makespan_ns(self) -> float:
        """Simulated completion time: the slowest channel's clock.
        Channels are independent memory systems serving in parallel."""
        return max(state.device.now_ns for state in self.channels)

    def aggregate_stats(self) -> dict[str, float]:
        """Sum of every channel's ``MemoryStats.as_dict()``."""
        totals: dict[str, float] = {}
        for state in self.channels:
            for key, value in state.device.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def channel_report(self) -> list[dict]:
        """Per-channel load/clock summary for the serving payload."""
        report = []
        for state in self.channels:
            stats = state.device.stats
            report.append(
                {
                    "channel": state.index,
                    "now_ns": state.device.now_ns,
                    "activates": stats.activates,
                    "reads": stats.reads,
                    "writes": stats.writes,
                    "blocked_requests": stats.blocked_requests,
                    "bit_flips": stats.bit_flips,
                    "busy_ns": stats.busy_ns,
                    # Only present on injected-fault runs, so fault-free
                    # payloads keep their exact historical shape.
                    **(
                        {"failed": True}
                        if state.index in self._failed
                        else {}
                    ),
                }
            )
        return report

    def locker_summaries(self) -> dict[str, dict]:
        """Per-channel exposure-window stats (empty when unprotected)."""
        return {
            f"channel-{state.index}": state.locker.exposure_summary()
            for state in self.channels
            if state.locker is not None
        }


def replace_row(request: MemRequest, row: int) -> MemRequest:
    """A copy of ``request`` addressing a different (channel-local) row."""
    return MemRequest(
        request.kind, row, request.column, request.size,
        request.privileged, request.tag,
    )
