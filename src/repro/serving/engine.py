"""The serving engine: multi-tenant traffic on a sharded memory system.

One :class:`ServingSimulation` is one cell of the serving matrix:
``tenants`` Zipf-popular tenants generate open/closed-loop traffic over
their partitions of the system row space, an optional co-located
attacker runs hammer campaigns against per-channel protected victims,
and the tenant-aware arbiter multiplexes every stream onto the
channels through the bulk/summary engine -- per-request latencies
reach the SLA accountant through the controller sink protocol, so
nothing allocates per request.

The run is a pure function of :class:`ServingConfig` (every RNG stream
is name-derived from the seed), so the harness's worker-count
invariance holds for serving cells exactly as for the rest of the
matrix.

Victims come in two shapes:

* **bit victims** (default) -- one templated victim bit per channel,
  protected by that channel's locker: the cheap, training-free
  protected-surface probe the canned serving set uses;
* a **model victim** -- a quantized DNN resident on channel 0 via
  :class:`~repro.nn.storage.WeightStore`, its data rows locked, its
  accuracy measured before/after the co-located campaign (the
  acceptance probe ``benchmarks/bench_serving.py`` records).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from .. import obs
from ..controller.request import Kind, MemRequest, RequestRun
from ..defenses.stack import place_model_victim
from ..dram.config import DRAMConfig
from ..engines import resolve_engine
from ..locker.locker import LockerConfig
from ..locker.planner import LockMode
from ..locker.swap import per_copy_error_rate
from .health import VictimHealthMonitor
from .live import AdmissionConfig, ChannelScaler, ScalingConfig
from .sharded import ShardedMemorySystem
from .sla import SLAAccountant
from .workload import (
    GuardRowTraffic,
    WorkloadConfig,
    WorkloadGenerator,
    derive_seed,
    make_tenants,
)

__all__ = ["ServingConfig", "ServingSimulation"]

#: Channel-local victim row (subarray 0) for the bit-victim shape.
VICTIM_LOCAL_ROW = 20
#: The templated victim bit (matches the defended-hammer campaigns).
VICTIM_BIT = 5
#: Tenant partitions start at this channel-local row: clear of the
#: victim zone (subarray 0) -- and of a quick-scale model victim's
#: weight rows when one is attached (they spill at most into
#: subarray 1).
TENANT_FIRST_LOCAL = 256


@dataclass(frozen=True)
class ServingConfig:
    """One serving cell: tenants x defense x colocation x channels."""

    tenants: int = 4
    channels: int = 1
    slices: int = 24
    ops_per_slice: float = 6.0
    arrival: str = "poisson"
    closed_loop: bool = False
    zipf_popularity: float = 1.1
    zipf_rows: float = 0.8
    read_fraction: float = 0.6
    write_fraction: float = 0.3
    inference_rows: int = 8
    #: Interleaving policy of the sharded system.
    policy: str = "row"
    #: Co-located attacker on/off, and its per-slice budget: one
    #: ``hammer_burst``-activation run per aggressor per victim.
    colocated: bool = True
    hammer_burst: int = 400
    #: Privileged guard-row accesses per channel per slice -- the
    #: victim owner's own traffic, which opens unlock-SWAP windows.
    victim_traffic_per_slice: int = 2
    trh: int = 1000
    #: Whole-SWAP failure probability (paper: 9.6% at +/-20%); the
    #: per-RowClone rate is derived so three copies compose to it.
    swap_failure_rate: float = 0.096
    relock_interval: int = 200
    engine: str = "bulk"
    seed: int = 0
    #: Defense by name, as :func:`repro.defenses.stack.build_stack`
    #: installs it on every channel: ``"DRAM-Locker"`` per-channel
    #: lockers, ``"None"`` nothing, any other
    #: :data:`repro.defenses.builders.DEFENDED_HAMMER_DEFENSES` name one
    #: instance per channel.  ``ServingSimulation(defense=...)``
    #: overrides it without changing the payload's ``config`` section.
    defense: str = "DRAM-Locker"
    #: Admission control for trace replay / live runs (``None`` admits
    #: everything -- the closed-loop behaviour).
    admission: AdmissionConfig | None = None
    #: Dynamic channel scaling (``None`` keeps the channel set fixed).
    #: Requires ``policy="block"``.
    scaling: ScalingConfig | None = None
    #: Path of a recorded trace to replay instead of generating the
    #: workload closed-loop (the :func:`repro.serving.serve` facade
    #: reads this; the simulation itself never touches the filesystem).
    trace: str | None = None
    #: Replay pacing: ``0`` replays at infinite speed (the
    #: deterministic, bit-identical-to-closed-loop path); ``s > 0``
    #: paces arrivals at ``s`` times the recorded rate on the wall
    #: clock (the threaded live frontend).
    speedup: float = 0.0

    def __post_init__(self) -> None:
        resolve_engine(self.engine)
        if self.scaling is not None:
            if self.policy != "block":
                raise ValueError(
                    "dynamic channel scaling requires policy='block': row "
                    "interleaving would re-shard every tenant whenever a "
                    "channel is added"
                )
            if self.scaling.max_channels < self.channels:
                raise ValueError(
                    "scaling.max_channels must be >= the base channel count"
                )
        if self.speedup < 0:
            raise ValueError("speedup must be >= 0 (0 = infinite)")


class ServingSimulation:
    """One serving run over a sharded, optionally defended system."""

    def __init__(
        self,
        config: ServingConfig,
        *,
        defense: str | None = None,
        model_victim=None,
        fault=None,
        health=None,
    ):
        """``defense`` names the defense instead of ``config.defense``
        (the ``serving`` scenario runner's override; the payload's
        ``config`` section keeps ``config.defense``).
        ``model_victim`` is an optional ``(dataset, qmodel)`` pair
        placed on channel 0.  ``fault`` is an optional
        :class:`repro.eval.faults.ChannelFault` (kept out of
        :class:`ServingConfig` so fault-free payloads and trace headers
        keep their exact shape): at the boundary closing slice
        ``fault.at_slice`` the channel fails (every later op touching
        it is shed with reason ``"channel_fault"``, spilled first when
        a channel scaler is present) or stalls (a one-shot clock jump).
        ``health`` is an optional
        :class:`repro.serving.health.HealthConfig` (kept out of the
        config for the same payload-shape reason; requires a model
        victim): a :class:`~repro.serving.health.VictimHealthMonitor`
        probes the model at slice boundaries, quarantines the victim's
        channel on detected corruption (sheds booked with reason
        ``"integrity_fault"``), and recovers the weights.
        """
        self.config = config
        self.fault = fault
        self._fault_active = False
        self._slices_closed = 0
        # serve_op-level conservation counters (tenant traffic only;
        # owner/attacker streams book through the SLA shed reasons).
        self.op_offered = 0
        self.op_served = 0
        self.op_shed = 0
        # Dynamic scaling pre-builds the spare channels (a channel is a
        # whole memory system; hot-plugging one mid-run is not a thing),
        # but tenants start partitioned over the base ``channels`` only.
        built_channels = (
            config.scaling.max_channels
            if config.scaling is not None
            else config.channels
        )
        dram = DRAMConfig.small().with_channels(built_channels)
        self.system = ShardedMemorySystem(
            dram,
            policy=config.policy,
            trh=config.trh,
            defense=config.defense if defense is None else defense,
            locker_config=LockerConfig(
                copy_error_rate=per_copy_error_rate(config.swap_failure_rate),
                relock_interval=config.relock_interval,
                seed=config.seed,
            ),
            seed=config.seed,
            engine=config.engine,
        )
        self.protected = self.system.channels[0].locker is not None
        if fault is not None:
            if not 0 <= fault.channel < built_channels:
                raise ValueError(
                    f"fault channel {fault.channel} outside the built "
                    f"range [0, {built_channels})"
                )
            if fault.kind not in ("fail", "stall"):
                raise ValueError(f"unknown channel fault kind {fault.kind!r}")
        self.store = None
        self.dataset = None
        self.qmodel = None
        self.clean_accuracy = None
        if model_victim is not None:
            self._attach_model_victim(*model_victim)
        else:
            self._place_bit_victims()
        self._health = (
            VictimHealthMonitor(self, health) if health is not None else None
        )
        tenants = make_tenants(
            config.tenants,
            partitions=self._tenant_partitions(),
            zipf_popularity=config.zipf_popularity,
            read_fraction=config.read_fraction,
            write_fraction=config.write_fraction,
        )
        self.generator = WorkloadGenerator(
            tenants,
            WorkloadConfig(
                slices=config.slices,
                ops_per_slice=config.ops_per_slice,
                arrival=config.arrival,
                closed_loop=config.closed_loop,
                zipf_rows=config.zipf_rows,
                inference_rows=config.inference_rows,
                seed=config.seed,
            ),
        )
        self.sla = SLAAccountant()
        # Dynamic channel scaling: spill hot tenants into the spare
        # channels' tenant zones when their sojourn p99 breaches the
        # target (epoch-checked at slice boundaries).
        self._scaler = (
            ChannelScaler(
                self.system,
                {spec.name: spec.rows for spec in tenants},
                base_channels=config.channels,
                scaling=config.scaling,
                tenant_first_local=TENANT_FIRST_LOCAL,
            )
            if config.scaling is not None
            else None
        )
        # The shared cross-channel event queue (engine="events" only):
        # every stream of a slice is submitted, then the slice drains
        # in slowest-channel-first order.  ``None`` keeps the immediate
        # per-stream execution of the bulk/scalar drives.
        self._queue = (
            self.system.event_queue() if config.engine == "events" else None
        )
        # The victim owner's unlock-window stream: the same
        # guard-selection policy the attack experiments use, in system
        # row space, booked against the "victim-owner" tenant.
        self._owner_sink = self.sla.sink("victim-owner")
        self._victim_traffic = GuardRowTraffic(
            self.system.neighbors,
            self._owner_read,
            seed=derive_seed("victim-traffic", config.seed),
        )
        # Count every disturbance flip that lands in a victim row --
        # the protection-surface metric (a long campaign can toggle a
        # bit back to its initial value, so end-state diffs undercount).
        self.victim_flip_events = 0
        for state in self.system.channels:
            victim_locals = {
                self.system.locate(row)[1]
                for row in self.victim_rows
                if self.system.locate(row)[0] is state
            }
            if victim_locals:
                state.device.add_flip_listener(
                    lambda flip, rows=victim_locals: self._on_victim_flip(
                        flip, rows
                    )
                )

    def _on_victim_flip(self, flip, victim_locals) -> None:
        if flip.row in victim_locals:
            self.victim_flip_events += 1

    def _owner_read(self, row: int) -> None:
        """One privileged guard-row read, booked to the victim owner
        (submitted to the event queue when one is driving)."""
        stream = [MemRequest(Kind.READ, row, privileged=True)]
        self._dispatch(stream, self._owner_sink)

    def _dispatch(self, requests, sink, *, queue=True, prepared=None) -> None:
        """Route one stream: via the event queue when one is driving
        and ``queue`` allows it, else immediately.  ``prepared`` is a
        pre-translated thunk wrapping ``requests``; it always runs
        immediately."""
        tel = obs.ACTIVE
        if tel is not None:
            # Audit events emitted during execution carry the open
            # slice; the events engine re-stamps before its drain.
            tel.audit.set_field("slice", self._slices_closed)
        if prepared is not None:
            prepared()
        elif queue and self._queue is not None:
            self.system.submit_stream(self._queue, requests, sink)
        else:
            self.system.execute_stream(requests, sink)

    def _tenant_partitions(self) -> list[tuple[int, int]]:
        """Per-tenant system-row ranges that stay clear of every
        channel's victim zone (locals below ``TENANT_FIRST_LOCAL``)
        under the configured interleaving policy.

        Under ``"row"`` the zone-free locals form one contiguous system
        range, split equally.  Under ``"block"`` each channel's tenant
        zone is a separate contiguous block, so tenants are assigned
        round-robin to channels and split their channel's zone -- the
        isolation placement: one tenant, one channel.
        """
        config = self.config
        channels = config.channels
        per_channel = self.system.interleaver.rows_per_channel
        count = config.tenants
        if config.policy == "row":
            first = TENANT_FIRST_LOCAL * channels
            per_tenant = (self.system.system_rows - first) // count
            if per_tenant <= 0:
                raise ValueError("not enough rows for the tenant count")
            return [
                (first + index * per_tenant, per_tenant)
                for index in range(count)
            ]
        zone_rows = per_channel - TENANT_FIRST_LOCAL
        partitions = []
        for index in range(count):
            channel = index % channels
            in_channel = count // channels + (
                1 if channel < count % channels else 0
            )
            share = zone_rows // in_channel
            if share <= 0:
                raise ValueError("not enough rows for the tenant count")
            partitions.append(
                (
                    channel * per_channel
                    + TENANT_FIRST_LOCAL
                    + (index // channels) * share,
                    share,
                )
            )
        return partitions

    # ------------------------------------------------------------------
    # Victim placement
    # ------------------------------------------------------------------
    def _place_bit_victims(self) -> None:
        """One templated victim bit per channel, locker-protected."""
        system = self.system
        self.victim_rows = [
            system.system_row(channel, VICTIM_LOCAL_ROW)
            for channel in range(self.config.channels)
        ]
        for row in self.victim_rows:
            system.register_template(row, [VICTIM_BIT])
        self._initial_bits = [self._bit_value(row) for row in self.victim_rows]
        if self.protected:
            system.protect(self.victim_rows, mode=LockMode.ADJACENT)

    def _attach_model_victim(self, dataset, qmodel) -> None:
        """A DNN resident on channel 0, its data rows protected."""
        from ..nn import memo

        system = self.system
        self.dataset = dataset
        self.qmodel = qmodel
        self.store = place_model_victim(system.channels[0], qmodel)
        self.clean_accuracy = memo.accuracy(
            qmodel.model, dataset.test_x, dataset.test_y
        )
        locals_used = self.store.data_rows
        if max(locals_used) >= TENANT_FIRST_LOCAL:
            raise RuntimeError(
                "model victim spills into the tenant partition; use a "
                "smaller model or a larger DRAMConfig"
            )
        self.victim_rows = [
            system.system_row(0, local) for local in locals_used
        ]
        # Template the attacked bits so the campaign's flips are the
        # deterministic TRH-crossing kind the defended benches use.
        self._campaign_rows = self.victim_rows[:4]
        for row in self._campaign_rows:
            system.register_template(row, [VICTIM_BIT])
        self._initial_bits = [
            self._bit_value(row) for row in self._campaign_rows
        ]

    def _bit_value(self, system_row: int) -> int:
        value = self.system.peek_bytes(system_row, 0, 1)[0]
        return int(value >> VICTIM_BIT & 1)

    @property
    def campaign_rows(self) -> list[int]:
        """The rows the co-located attacker actually hammers."""
        if self.store is not None:
            return self._campaign_rows
        return self.victim_rows

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Run every time slice and return the scenario payload.

        A slice boundary is both serving-level events of the
        event-queue drive: the **arrival burst edge** (the per-tenant
        arrival RNGs draw at the top of the slice) and the
        **SLA-histogram epoch** (under ``engine="events"`` the shared
        queue drains at the bottom, after which every tenant's
        percentile books are current).
        """
        for slice_index in range(self.config.slices):
            tel = obs.ACTIVE
            started_ns = time.perf_counter_ns() if tel is not None else 0
            # Tenant traffic, multiplexed onto channels via the
            # configured engine; each tenant's latencies stream into
            # its books through the controller sink protocol.
            for op in self.generator.slice_ops(slice_index):
                self.serve_op(op.tenant, op.kind, op.requests)
            self.end_slice()
            if tel is not None:
                tel.trace.complete(
                    "slice",
                    started_ns,
                    time.perf_counter_ns() - started_ns,
                    slice=slice_index,
                    engine=self.config.engine,
                )
        return self._payload()

    def serve_op(
        self,
        tenant: str,
        kind: str,
        requests,
        *,
        arrival_s: float | None = None,
        prepared=None,
    ) -> bool:
        """Serve one workload op -- the unit both the closed loop and
        the trace-replay/live paths share.  Returns ``True`` when the
        op was served, ``False`` when it was shed onto a failed channel
        (booked with reason ``"channel_fault"``) or a quarantined one
        (reason ``"integrity_fault"``) -- callers counting conservation
        fold the return into their served/shed tallies.

        ``arrival_s`` (replay/live only) books the op's **sojourn** --
        completion minus arrival on the trace clock, floored at its
        service time -- the load-dependent latency the admission
        controller defends.  ``prepared`` is an optional pre-translated
        execution thunk from
        :meth:`~repro.serving.sharded.ShardedMemorySystem.handoff_stream`
        (the live frontend's ingestion thread does the address work);
        it must wrap the same ``requests``.
        """
        sla = self.sla
        sla.observe_op(tenant, kind)
        self.op_offered += 1
        if self._scaler is not None:
            requests = self._scaler.route(tenant, requests)
        if self._fault_active and self.fault.kind == "fail":
            # After scaler routing: a spilled tenant's replica ops land
            # on a healthy channel and are served; only traffic still
            # bound for the failed channel is shed.
            if any(
                self.system.channel_failed(index)
                for index in self._involved_channels(requests)
            ):
                sla.observe_shed(tenant, "channel_fault")
                self.op_shed += 1
                return False
        if self._health is not None and self._health.blocks(
            self._involved_channels(requests)
        ):
            # Integrity quarantine: the victim channel sits out while
            # corruption recovery settles; the op sheds instead of
            # touching possibly-tainted rows.
            sla.observe_shed(tenant, "integrity_fault")
            self.op_shed += 1
            return False
        sink = sla.sink(tenant)
        if arrival_s is None:
            self._dispatch(requests, sink, prepared=prepared)
            self.op_served += 1
            return True
        # Replay/live ops run immediately on every engine, so the
        # sojourn reads this op's own completion clock.  The event queue
        # then holds only end-of-slice streams, which keeps per-channel
        # and per-sink order identical to the queued drive.
        before_service = sink.summary.latency_ns
        self._dispatch(requests, sink, queue=False, prepared=prepared)
        involved = self._involved_channels(requests)
        completion_ns = max(
            self.system.channels[index].device.now_ns for index in involved
        )
        service_ns = sink.summary.latency_ns - before_service
        sojourn_ns = max(service_ns, completion_ns - arrival_s * 1e9)
        sla.observe_sojourn(tenant, sojourn_ns)
        self.op_served += 1
        return True

    def end_slice(self) -> None:
        """Close one time slice: fault activation, victim-owner
        traffic, the co-located attacker's burst, the event-queue drain
        (``engine="events"``), and the channel scaler's epoch check.

        An injected :class:`~repro.eval.faults.ChannelFault` activates
        at the top of the boundary closing slice ``at_slice``: tenant
        ops of that slice ran clean, everything from this boundary on
        (owner/attacker traffic included) sees the failed or stalled
        channel.  The slice counter, not the wall clock, indexes
        activation, so the closed-loop, replay, and live paths inject
        at the identical point.
        """
        tel = obs.ACTIVE
        if tel is not None:
            # The events engine's queued streams execute in the drain
            # below: stamp their audit events with the closing slice.
            tel.audit.set_field("slice", self._slices_closed)
        if (
            self.fault is not None
            and not self._fault_active
            and self._slices_closed >= self.fault.at_slice
        ):
            self._fault_active = True
            if self.fault.kind == "fail":
                self.system.fail_channel(self.fault.channel)
                if self._scaler is not None:
                    self._scaler.on_channel_failed(self.fault.channel)
            else:
                self.system.stall_channel(
                    self.fault.channel, self.fault.stall_ns
                )
        self._victim_owner_slice()
        if self.config.colocated:
            self._attacker_slice()
        if self._queue is not None:
            self._queue.drain()
        if self._scaler is not None:
            self._scaler.on_epoch(self.sla)
        if self._health is not None:
            # After the drain: the probe must see every byte the
            # slice's traffic wrote before it checks the model.
            self._health.on_slice_end(self._slices_closed)
        self._slices_closed += 1

    def _row_unavailable(self, system_row: int) -> bool:
        """Whether fault injection took this row's channel out."""
        return (
            self._fault_active
            and self.fault.kind == "fail"
            and self.system.channel_failed(
                self.system.locate(system_row)[0].index
            )
        )

    def _row_quarantined(self, system_row: int) -> bool:
        """Whether integrity quarantine holds this row's channel."""
        return self._health is not None and self._health.blocks(
            [self.system.locate(system_row)[0].index]
        )

    def _involved_channels(self, requests) -> list[int]:
        """Channel indices a request stream lands on (for the sojourn
        completion clock)."""
        if isinstance(requests, RequestRun):
            return [self.system.locate(requests.request.row)[0].index]
        indices = {
            self.system.locate(request.row)[0].index for request in requests
        }
        return sorted(indices) if indices else [0]

    def _victim_owner_slice(self) -> None:
        """The victim owner's privileged guard-row traffic -- the
        unlock-SWAP opener, shared with the attack experiments via
        :class:`GuardRowTraffic`."""
        for _ in range(self.config.victim_traffic_per_slice):
            for row in self.campaign_rows:
                self.sla.observe_op("victim-owner", "guard-read")
                if self._row_unavailable(row):
                    self.sla.observe_shed("victim-owner", "channel_fault")
                    continue
                if self._row_quarantined(row):
                    self.sla.observe_shed("victim-owner", "integrity_fault")
                    continue
                self._victim_traffic.touch(row)

    def _attacker_slice(self) -> None:
        """The co-located attacker: double-sided hammer runs against
        every protected victim, O(1) memory per run."""
        config = self.config
        sink = self.sla.sink("attacker")
        for row in self.campaign_rows:
            for aggressor in self.system.neighbors(row, radius=1):
                self.sla.observe_op("attacker", "hammer")
                if self._row_unavailable(aggressor):
                    self.sla.observe_shed("attacker", "channel_fault")
                    continue
                if self._row_quarantined(aggressor):
                    self.sla.observe_shed("attacker", "integrity_fault")
                    continue
                self._dispatch(
                    RequestRun(
                        MemRequest(Kind.ACT, aggressor, privileged=False),
                        config.hammer_burst,
                    ),
                    sink,
                )

    # ------------------------------------------------------------------
    # Payload
    # ------------------------------------------------------------------
    def payload(self, live: dict | None = None) -> dict:
        """The scenario payload of the (finished) run.

        ``live`` attaches the live-frontend section (sojourn books,
        shed tallies, pacing info) under the ``"live"`` key -- the one
        key the replay-equivalence contract excludes from the
        byte-identity comparison against closed-loop payloads.
        """
        result = self._payload()
        if live is not None:
            result["live"] = live
        return result

    def _payload(self) -> dict:
        system = self.system
        config = self.config
        sim_seconds = system.makespan_ns * 1e-9
        flipped = sum(
            1
            for row, initial in zip(self.campaign_rows, self._initial_bits)
            if self._bit_value(row) != initial
        )
        victim: dict = {
            "shape": "model" if self.store is not None else "bits",
            "victims": len(self.victim_rows),
            "campaign_rows": len(self.campaign_rows),
            "protected": self.protected,
            "victim_flip_events": self.victim_flip_events,
            "protected_bits_flipped": flipped,
        }
        if self.store is not None:
            self.store.sync_model()
            post = self.qmodel.model.accuracy(
                self.dataset.test_x, self.dataset.test_y
            )
            victim.update(
                clean_accuracy=self.clean_accuracy,
                post_attack_accuracy=post,
                accuracy_unchanged=post == self.clean_accuracy,
            )
        payload = {
            "config": asdict(config),
            "sla": self.sla.report(
                sim_seconds,
                self.system.locker_summaries() if self.protected else None,
            ),
            "victim": victim,
            "channels": system.channel_report(),
            "memory_stats": system.aggregate_stats(),
            "makespan_ns": system.makespan_ns,
        }
        if self._scaler is not None:
            payload["scaling"] = self._scaler.report()
        if self._health is not None:
            report = self._health.report()
            report["offered_ops"] = self.op_offered
            report["served_ops"] = self.op_served
            report["shed_ops"] = self.op_shed
            report["conserved"] = (
                self.op_offered == self.op_served + self.op_shed
            )
            payload["health"] = report
        if self.fault is not None:
            payload["fault"] = {
                "channel": self.fault.channel,
                "kind": self.fault.kind,
                "at_slice": self.fault.at_slice,
                "active": self._fault_active,
                "failed_channels": list(self.system.failed_channels),
                "offered_ops": self.op_offered,
                "served_ops": self.op_served,
                "shed_ops": self.op_shed,
                "conserved": (
                    self.op_offered == self.op_served + self.op_shed
                ),
            }
        return payload
