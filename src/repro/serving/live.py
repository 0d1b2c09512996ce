"""The live serving frontend: admission control, bounded queues,
dynamic channel scaling, and the threaded open-loop ingestion server.

This module holds everything the trace-replay and wall-clock-paced
paths add *around* :class:`~repro.serving.engine.ServingSimulation`
(which stays the single owner of the simulated devices):

* :class:`AdmissionConfig` / :class:`AdmissionController` -- per-tenant
  token-bucket throttling in trace time plus SLA-pressure shedding off
  the sojourn-p99 signal; every drop is booked per tenant, per reason,
  in the :class:`~repro.serving.sla.SLAAccountant`.
* :class:`ChannelBacklog` -- the bounded outstanding-op accounting per
  channel; when an op's channels are full at arrival it is shed with
  reason ``"queue-full"``.
* :class:`ScalingConfig` / :class:`ChannelScaler` -- spill a hot
  tenant's traffic onto a pre-built spare channel when its sojourn p99
  breaches the target (block interleaving only: adding a channel under
  row interleaving would re-shard every tenant's address space).
* :class:`LiveServer` -- the two-thread open-loop server: an ingestion
  thread paces arrivals off the trace clock (``speedup`` x recorded
  rate), screens them through admission control and the backlog bound,
  and pre-translates admitted streams via the sharded system's
  non-blocking ``handoff_stream``; the executor (the caller's thread)
  owns the simulation and is the only thread that touches device
  state.

Determinism: the synchronous replay path (``speedup=0``) never
constructs these thread objects at all -- admission decisions there
are pure functions of the trace and seed, which is what the
replay-equivalence and shedding-determinism tests pin.  Wall-clock
pacing makes *which* ops overflow the backlog timing-dependent by
design; the conservation identity (offered == served + shed) is the
invariant tests hold onto.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .. import obs
from ..controller.request import MemRequest, RequestRun
from .sla import SLAAccountant
from .workload import derive_seed

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ChannelBacklog",
    "ScalingConfig",
    "ChannelScaler",
    "LiveServer",
    "LiveServingError",
]


class LiveServingError(RuntimeError):
    """A live serving run failed with structured context.

    Wraps the underlying exception (``__cause__``) from either thread
    instead of letting it hang the process: ``context`` carries the
    failing phase (``"ingestion"`` or ``"executor"``) and the
    conservation counters at the moment of failure, so partial runs
    remain diagnosable.
    """

    def __init__(self, message: str, context: dict):
        super().__init__(f"{message} [context: {context}]")
        self.context = context


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs for trace replay and live serving.

    Attributes:
        rate: Token-bucket refill rate, ops per trace-second per
            tenant (``None`` disables throttling).
        burst: Bucket capacity in ops (also the initial fill).
        p99_target_ns: Sojourn-p99 target; tenants above it are
            pressure-shed (``None`` disables pressure shedding).
        min_samples: Sojourn observations a tenant needs before the
            pressure signal is trusted.
        shed_fraction: Probability an over-target op is shed (draws
            come from the dedicated ``derive_seed("admission", seed)``
            stream, so replay shedding is deterministic).
        queue_depth: Bounded outstanding-op limit per channel for the
            wall-clock-paced live server (ignored by synchronous
            replay, whose backlog is always zero).
        exempt: Tenant names never shed (e.g. a victim owner whose
            guard traffic must keep flowing).
    """

    rate: float | None = None
    burst: float = 8.0
    p99_target_ns: float | None = None
    min_samples: int = 32
    shed_fraction: float = 0.5
    queue_depth: int = 64
    exempt: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None)")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        if not 0.0 <= self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be within [0, 1]")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")


class AdmissionController:
    """Per-tenant admission decisions over one serving run.

    Two mechanisms compose (throttle first, then pressure):

    * **token bucket** -- refilled in *trace time* (arrival
      timestamps), so a decision depends only on the trace and the
      config, never on the wall clock;
    * **SLA-pressure shedding** -- when a tenant's sojourn p99 (read
      from the accountant's books) breaches the target, each arriving
      op is shed with probability ``shed_fraction``.

    The controller only *decides*; the caller books the drop via
    :meth:`~repro.serving.sla.SLAAccountant.observe_shed` so shed
    accounting lives with the rest of the SLA books.
    """

    def __init__(
        self, config: AdmissionConfig, sla: SLAAccountant, seed: int = 0
    ):
        """Bind the controller to a run's accountant and seed."""
        self.config = config
        self._sla = sla
        self._rng = np.random.default_rng(derive_seed("admission", seed))
        self._tokens: dict[str, float] = {}
        self._refilled_at: dict[str, float] = {}

    def screen(self, tenant: str, arrival_s: float) -> str | None:
        """Decide one arrival: ``None`` admits, otherwise the shed
        reason (``"throttled"`` or ``"pressure"``)."""
        config = self.config
        if tenant in config.exempt:
            return None
        if config.rate is not None:
            tokens = self._tokens.get(tenant, config.burst)
            last = self._refilled_at.get(tenant, 0.0)
            tokens = min(
                config.burst, tokens + (arrival_s - last) * config.rate
            )
            self._refilled_at[tenant] = arrival_s
            if tokens < 1.0:
                self._tokens[tenant] = tokens
                return "throttled"
            self._tokens[tenant] = tokens  # consumed below on admit
        if config.p99_target_ns is not None:
            p99 = self._sla.sojourn_p99_ns(tenant, config.min_samples)
            if (
                p99 is not None
                and p99 > config.p99_target_ns
                and self._rng.random() < config.shed_fraction
            ):
                return "pressure"
        if config.rate is not None:
            self._tokens[tenant] -= 1.0
        return None


class ChannelBacklog:
    """Bounded outstanding-op accounting, one counter per channel.

    The live server's ingestion thread acquires an op's channels
    all-or-nothing at arrival; the executor releases them after the op
    completes.  When any involved channel is at ``depth`` the op is
    shed with reason ``"queue-full"`` -- the bounded
    outstanding-request queue of the serving frontend.
    """

    def __init__(self, channels: int, depth: int):
        """``channels`` counters, each bounded at ``depth``."""
        if channels <= 0 or depth <= 0:
            raise ValueError("channels and depth must be positive")
        self.depth = depth
        self._outstanding = [0] * channels
        self._lock = threading.Lock()

    def try_acquire(self, indices) -> bool:
        """Atomically admit one op onto ``indices``; False when any
        involved channel is full (nothing is acquired then)."""
        with self._lock:
            if any(
                self._outstanding[index] >= self.depth for index in indices
            ):
                return False
            for index in indices:
                self._outstanding[index] += 1
            tel = obs.ACTIVE
            if tel is not None:
                for index in indices:
                    tel.metrics.high_water(
                        "serving.backlog_depth",
                        self._outstanding[index],
                        channel=index,
                    )
            return True

    def release(self, indices) -> None:
        """Return one completed op's slots."""
        with self._lock:
            for index in indices:
                if self._outstanding[index] <= 0:
                    raise RuntimeError(
                        f"release without acquire on channel {index}"
                    )
                self._outstanding[index] -= 1

    def outstanding(self, index: int) -> int:
        """Current outstanding ops on one channel."""
        with self._lock:
            return self._outstanding[index]


@dataclass(frozen=True)
class ScalingConfig:
    """Dynamic channel-scaling knobs.

    Attributes:
        max_channels: Total channel budget; the simulation pre-builds
            ``max_channels - channels`` spare channels that receive no
            tenant partition until a spill assigns them one.
        p99_target_ns: Sojourn-p99 threshold that marks a tenant hot.
        min_samples: Sojourn observations required before the signal
            is trusted (mirrors the admission controller).
    """

    max_channels: int
    p99_target_ns: float
    min_samples: int = 32

    def __post_init__(self) -> None:
        if self.max_channels <= 0:
            raise ValueError("max_channels must be positive")
        if self.p99_target_ns <= 0:
            raise ValueError("p99_target_ns must be positive")


class ChannelScaler:
    """Spill hot tenants onto spare channels when p99 breaches target.

    At each slice boundary (:meth:`on_epoch`) every un-spilled tenant's
    sojourn p99 is checked; the first breacher claims the next spare
    channel and gets a **replica partition** at the same offset
    discipline as the home one (starting at the channel's tenant-zone
    base).  From then on :meth:`route` alternates the tenant's ops
    between home and replica rows, halving its per-channel load.  The
    replica carries load, not data consistency -- tenant rows hold
    synthetic fill, and nothing in the serving payload reads them back.

    Deterministic: decisions depend only on the (deterministic) sojourn
    books and tenant order; no RNG is involved.
    """

    def __init__(
        self,
        system,
        partitions: dict[str, tuple[int, int]],
        *,
        base_channels: int,
        scaling: ScalingConfig,
        tenant_first_local: int,
    ):
        """``partitions`` maps tenant name -> home ``(first, count)``
        system-row range; spare channels are ``base_channels ..
        scaling.max_channels - 1`` of ``system``."""
        self._system = system
        self._partitions = dict(partitions)
        self._scaling = scaling
        self._tenant_first_local = tenant_first_local
        self._spare = list(range(base_channels, scaling.max_channels))
        self._spill: dict[str, tuple[int, int, int]] = {}
        self._toggle: dict[str, bool] = {}
        # Tenants whose home channel failed: route() moves *every* op
        # to the replica instead of alternating.
        self._forced: set[str] = set()

    def on_epoch(self, sla: SLAAccountant) -> None:
        """The slice-boundary check: spill newly hot tenants while
        spare channels remain (tenant-name order breaks ties)."""
        if not self._spare:
            return
        for tenant in sorted(self._partitions):
            if not self._spare:
                return
            if tenant in self._spill:
                continue
            p99 = sla.sojourn_p99_ns(tenant, self._scaling.min_samples)
            if p99 is not None and p99 > self._scaling.p99_target_ns:
                self._spill_tenant(tenant)

    def _spill_tenant(self, tenant: str) -> None:
        first, count = self._partitions[tenant]
        channel = self._spare[0]
        zone = (
            self._system.interleaver.rows_per_channel
            - self._tenant_first_local
        )
        if count > zone:
            return  # partition larger than a spare channel's zone
        self._spare.pop(0)
        spill_first = self._system.system_row(
            channel, self._tenant_first_local
        )
        self._spill[tenant] = (first, count, spill_first)
        self._toggle[tenant] = False
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("serving.scaler_spills", tenant=tenant)

    def on_channel_failed(self, failed_channel: int) -> None:
        """Fail-over: force-spill every tenant homed on a failed
        channel onto a spare, and stop load-balancing back onto it.

        Tenants already spilled (load-balancing) switch to full
        replica routing; un-spilled tenants claim the next healthy
        spare.  Tenants left without a spare keep their home rows and
        are shed upstream (``"channel_fault"``) -- degradation stays
        graceful, conservation stays exact.
        """
        self._spare = [
            channel for channel in self._spare if channel != failed_channel
        ]
        for tenant in sorted(self._partitions):
            first, _count = self._partitions[tenant]
            home_channel, _ = self._system.interleaver.locate(first)
            if home_channel != failed_channel:
                continue
            if tenant not in self._spill:
                if not self._spare:
                    continue
                self._spill_tenant(tenant)
            if tenant in self._spill:
                self._forced.add(tenant)

    def route(self, tenant: str, requests):
        """Translate every other op of a spilled tenant to its replica
        partition -- every op, for tenants force-spilled off a failed
        channel; everyone else's streams pass through untouched."""
        info = self._spill.get(tenant)
        if info is None:
            return requests
        if tenant not in self._forced:
            flip = not self._toggle[tenant]
            self._toggle[tenant] = flip
            if not flip:
                return requests
        first, _count, spill_first = info

        def move(request: MemRequest) -> MemRequest:
            return replace(request, row=spill_first + (request.row - first))

        if isinstance(requests, RequestRun):
            return RequestRun(move(requests.request), requests.count)
        return [move(request) for request in requests]

    def report(self) -> dict:
        """The payload's ``"scaling"`` section: who spilled where."""
        spilled = {}
        for tenant in sorted(self._spill):
            first, count, spill_first = self._spill[tenant]
            channel, _ = self._system.interleaver.locate(spill_first)
            spilled[tenant] = {
                "channel": channel,
                "home_first": first,
                "rows": count,
                "spill_first": spill_first,
            }
        return {
            "spilled": spilled,
            "spare_remaining": len(self._spare),
            # Present only on injected-fault runs, so fault-free
            # payloads keep their exact historical shape.
            **(
                {"forced": sorted(self._forced)} if self._forced else {}
            ),
        }


class LiveServer:
    """Wall-clock-paced open-loop serving over a recorded trace.

    Two threads:

    * the **ingestion thread** walks the trace, sleeping until each
      op's scaled arrival time (``arrival_s / speedup`` on the wall
      clock), screens it through admission control and the per-channel
      :class:`ChannelBacklog`, pre-translates admitted streams via the
      sharded system's non-blocking
      :meth:`~repro.serving.sharded.ShardedMemorySystem.handoff_stream`
      (pure address arithmetic -- no device state), and enqueues the
      result;
    * the **executor** (the thread that calls :meth:`run`) owns the
      simulation: it drains the transport queue in order, executing
      ops, booking sheds, and closing slices -- the same
      ``serve_op`` / ``end_slice`` code path as synchronous replay.

    Pressure-shedding reads of the sojourn books from the ingestion
    thread are racy by design (a stale p99 sheds one op early or
    late); all *mutation* of device and SLA state stays on the
    executor.
    """

    def __init__(
        self,
        sim,
        trace,
        *,
        speedup: float,
        admission: AdmissionController | None = None,
    ):
        """Serve ``trace`` over ``sim`` at ``speedup`` x recorded pace.

        ``sim`` is an unconsumed
        :class:`~repro.serving.engine.ServingSimulation`; ``admission``
        is optional (everything is admitted without it, modulo the
        backlog bound, whose depth comes from the admission config or
        defaults to 64).
        """
        if speedup <= 0:
            raise ValueError("speedup must be positive for live pacing")
        self.sim = sim
        self.trace = trace
        self.speedup = speedup
        self.admission = admission
        depth = (
            admission.config.queue_depth if admission is not None else 64
        )
        self.backlog = ChannelBacklog(len(sim.system.channels), depth)
        self.offered = 0
        self.served = 0
        self.shed = 0
        #: Bounded wait for the ingestion thread at shutdown; past it
        #: the (daemon) thread is abandoned rather than deadlocking.
        self.join_timeout_s = 10.0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def _ingest(self, transport: "queue.Queue") -> None:
        sim = self.sim
        try:
            start = time.monotonic()
            for slice_index in range(self.trace.slices):
                for top in self.trace.slice_ops(slice_index):
                    if self._stop.is_set():
                        return
                    target = start + top.arrival_s / self.speedup
                    delay = target - time.monotonic()
                    # Stop-aware pacing: a failed executor releases the
                    # ingestion thread mid-sleep instead of letting it
                    # pace out the rest of the trace.
                    if delay > 0 and self._stop.wait(delay):
                        return
                    reason = (
                        self.admission.screen(top.tenant, top.arrival_s)
                        if self.admission is not None
                        else None
                    )
                    involved = sim._involved_channels(top.requests)
                    if reason is None and not self.backlog.try_acquire(
                        involved
                    ):
                        reason = "queue-full"
                    if reason is not None:
                        transport.put(("shed", top, reason))
                        continue
                    prepared = None
                    if sim._scaler is None and sim.fault is None:
                        # Address translation + batching off the
                        # executor; execution stays deferred.  Disabled
                        # under fault injection: serve_op must see raw
                        # requests to route them around a dead channel.
                        prepared = sim.system.handoff_stream(
                            top.requests, sim.sla.sink(top.tenant)
                        )
                    transport.put(("op", top, involved, prepared))
                transport.put(("slice", slice_index))
            transport.put(("eof",))
        except BaseException as error:  # surfaced by the executor
            transport.put(("error", error))

    def run(self) -> dict:
        """Serve the whole trace; returns the scenario payload with the
        ``"live"`` section attached."""
        sim = self.sim
        transport: "queue.Queue" = queue.Queue()
        # Daemon: a thread the bounded join below abandons must never
        # keep the interpreter alive at process exit.
        ingest = threading.Thread(
            target=self._ingest,
            args=(transport,),
            name="serving-ingest",
            daemon=True,
        )
        wall_start = time.monotonic()
        ingest.start()
        phase = "executor"
        try:
            while True:
                item = transport.get()
                kind = item[0]
                if kind == "op":
                    _, top, involved, prepared = item
                    self.offered += 1
                    if sim.serve_op(
                        top.tenant,
                        top.kind,
                        top.requests,
                        arrival_s=top.arrival_s,
                        prepared=prepared,
                    ):
                        self.served += 1
                    else:
                        # Shed onto a failed channel inside serve_op
                        # (reason "channel_fault", already booked).
                        self.shed += 1
                    self.backlog.release(involved)
                elif kind == "shed":
                    _, top, reason = item
                    self.offered += 1
                    self.shed += 1
                    sim.sla.observe_shed(top.tenant, reason)
                elif kind == "slice":
                    sim.end_slice()
                elif kind == "error":
                    phase = "ingestion"
                    raise item[1]
                else:  # eof
                    break
        except BaseException as error:
            # Bounded teardown: signal the ingestion thread, give it a
            # bounded join, and surface the failure with context -- a
            # wedged executor must not deadlock the process on join().
            self._stop.set()
            ingest.join(timeout=self.join_timeout_s)
            raise LiveServingError(
                "live serving run failed",
                {
                    "phase": phase,
                    "error": f"{type(error).__name__}: {error}",
                    "offered": self.offered,
                    "served": self.served,
                    "shed": self.shed,
                    "ingest_alive": ingest.is_alive(),
                },
            ) from error
        ingest.join(timeout=self.join_timeout_s)
        if ingest.is_alive():
            self._stop.set()
            raise LiveServingError(
                "ingestion thread still running after eof",
                {
                    "phase": "ingestion",
                    "offered": self.offered,
                    "served": self.served,
                    "shed": self.shed,
                    "ingest_alive": True,
                },
            )
        wall_s = time.monotonic() - wall_start
        live = dict(
            sim.sla.live_report(),
            pacing={
                "speedup": self.speedup,
                "wall_s": wall_s,
                "trace_duration_s": self.trace.duration_s,
                "offered": self.offered,
                "served": self.served,
                "shed": self.shed,
            },
        )
        return sim.payload(live=live)
