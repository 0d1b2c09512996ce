"""The public serving facade: one config in, one typed result out.

:func:`serve` is the single entry point the CLI, the harness runner,
and the benches share.  It dispatches on the config:

* no trace -> the classic closed-loop :class:`ServingSimulation` run;
* a trace and ``speedup == 0`` -> deterministic synchronous replay
  (:func:`replay_trace`), bit-identical to the closed loop outside the
  ``"live"`` payload section (the replay-equivalence contract,
  ``docs/SERVING.md``);
* a trace and ``speedup > 0`` -> the threaded, wall-clock-paced
  :class:`~repro.serving.live.LiveServer`.

:func:`record_serving_trace` closes the loop: it records the workload
a config *would* serve into a :class:`~repro.serving.trace.Trace`
whose header embeds the full config, making the trace file
self-contained for later replay.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields

from .engine import ServingConfig, ServingSimulation
from .live import (
    AdmissionConfig,
    AdmissionController,
    LiveServer,
    ScalingConfig,
)
from .trace import Trace, record_workload

__all__ = [
    "SOURCE_KNOBS",
    "ServingResult",
    "serve",
    "record_serving_trace",
    "replay_trace",
    "replay_neutral",
    "config_from_dict",
]

#: The ``ServingConfig`` fields that say where the request stream comes
#: from and what admission does to it -- not what the simulated system
#: is.  The replay-equivalence comparison ignores exactly these (plus
#: the ``"live"`` payload section).
SOURCE_KNOBS = ("trace", "speedup", "admission")


def config_from_dict(data: dict) -> ServingConfig:
    """Rebuild a :class:`ServingConfig` from its ``asdict`` form.

    Nested admission/scaling dicts are re-hydrated into their
    dataclasses; unknown keys are ignored so payload config dicts (and
    trace headers written by newer code) stay loadable.
    """
    known = {f.name for f in fields(ServingConfig)}
    kwargs = {key: value for key, value in data.items() if key in known}
    admission = kwargs.get("admission")
    if isinstance(admission, dict):
        admission = dict(admission)
        admission["exempt"] = tuple(admission.get("exempt", ()))
        kwargs["admission"] = AdmissionConfig(**admission)
    scaling = kwargs.get("scaling")
    if isinstance(scaling, dict):
        kwargs["scaling"] = ScalingConfig(**scaling)
    return ServingConfig(**kwargs)


def replay_neutral(payload: dict) -> dict:
    """A payload with the stream-source knobs removed -- the form the
    replay-equivalence contract compares byte-for-byte.

    Drops the ``"live"`` section and the :data:`SOURCE_KNOBS` config
    fields; everything else (SLA books, victim flips, locker exposure
    state, channel clocks, memory stats) must match exactly between a
    closed-loop run and an infinite-speedup replay of its recording.
    """
    neutral = copy.deepcopy(payload)
    neutral.pop("live", None)
    config = neutral.get("config")
    if isinstance(config, dict):
        for knob in SOURCE_KNOBS:
            config.pop(knob, None)
    return neutral


@dataclass(frozen=True)
class ServingResult:
    """Typed wrapper over one serving payload."""

    payload: dict

    @property
    def config(self) -> dict:
        """The run's ``ServingConfig`` as a dict."""
        return self.payload["config"]

    @property
    def sla(self) -> dict:
        """The SLA section: per-tenant books plus aggregate."""
        return self.payload["sla"]

    @property
    def live(self) -> dict | None:
        """The live section (sojourn/shed/pacing), replay runs only."""
        return self.payload.get("live")

    @property
    def victim(self) -> dict:
        """The protected-surface section."""
        return self.payload["victim"]

    @property
    def victim_flip_events(self) -> int:
        """Disturbance flips that landed in victim rows."""
        return self.payload["victim"]["victim_flip_events"]

    @property
    def makespan_ns(self) -> float:
        """Simulated completion time (slowest channel clock)."""
        return self.payload["makespan_ns"]

    def tenant(self, name: str = "tenant-0") -> dict:
        """One tenant's SLA report."""
        return self.sla["tenants"][name]

    def sojourn_p99_ns(self, tenant: str = "tenant-0") -> float | None:
        """A tenant's p99 *sojourn* (arrival-to-completion, replay
        runs only; ``None`` for closed-loop payloads)."""
        live = self.live
        if live is None:
            return None
        entry = live["tenants"].get(tenant)
        if entry is None or "sojourn_ns" not in entry:
            return None
        return entry["sojourn_ns"]["p99"]

    @property
    def shed_total(self) -> int:
        """Total admission-shed ops (0 for closed-loop payloads)."""
        live = self.live
        return 0 if live is None else live.get("shed_total", 0)

    def replay_neutral(self) -> dict:
        """The payload in replay-equivalence comparison form."""
        return replay_neutral(self.payload)


def record_serving_trace(
    config: ServingConfig,
    *,
    slice_duration_s: float | None = None,
    utilization: float = 0.7,
    model_victim=None,
) -> Trace:
    """Record the workload a serving config would generate.

    When ``slice_duration_s`` is ``None`` the trace clock is
    **calibrated**: a throwaway closed-loop run of the same config
    measures the simulated busy time per slice, and the slice duration
    is set so the recorded load lands at ``utilization`` of the
    system's capacity.  Overload experiments then scale
    ``ops_per_slice`` while passing the *base* config's calibrated
    duration explicitly, so "2x offered load" means twice the ops in
    the same trace time.

    The returned trace embeds ``asdict(config)`` in its header
    (``meta["serving_config"]``), making the file self-contained for
    :func:`replay_trace` / the CLI.
    """
    if slice_duration_s is None:
        if not 0 < utilization:
            raise ValueError("utilization must be positive")
        probe = ServingSimulation(config, model_victim=model_victim)
        probe.run()
        busy_per_slice_s = probe.system.makespan_ns * 1e-9 / config.slices
        slice_duration_s = busy_per_slice_s / utilization
    sim = ServingSimulation(config, model_victim=model_victim)
    return record_workload(
        sim.generator,
        slice_duration_s=slice_duration_s,
        meta={"serving_config": asdict(config)},
    )


def replay_trace(
    trace: Trace,
    *,
    config: ServingConfig | None = None,
    protected: bool | None = None,
    defense_builder=None,
    model_victim=None,
    sim: ServingSimulation | None = None,
    fault=None,
) -> dict:
    """Deterministic synchronous replay of a recorded trace.

    The infinite-speedup path: ops execute in recorded (= generation)
    order with no threads and no wall clock, so with admission
    disabled the payload is bit-identical to the closed-loop run of
    the same config outside the ``"live"`` section (compare via
    :func:`replay_neutral`).  Admission decisions, when enabled, are
    pure functions of the trace and the seed.

    ``config`` defaults to the one embedded in the trace header;
    ``sim`` lets tests hand in a pre-built simulation so they can
    inspect locker/RNG state afterwards.  ``fault`` forwards an
    optional :class:`repro.eval.faults.ChannelFault` (ignored when a
    pre-built ``sim`` is passed -- construct that with the fault).
    """
    if sim is None:
        if config is None:
            embedded = trace.meta.get("serving_config")
            if embedded is None:
                raise ValueError(
                    "trace has no embedded serving config; pass config="
                )
            config = config_from_dict(embedded)
        sim = ServingSimulation(
            config,
            protected=protected,
            defense_builder=defense_builder,
            model_victim=model_victim,
            fault=fault,
        )
    admission = (
        AdmissionController(
            sim.config.admission, sim.sla, seed=sim.config.seed
        )
        if sim.config.admission is not None
        else None
    )
    offered = served = shed = 0
    for slice_index in range(trace.slices):
        for top in trace.slice_ops(slice_index):
            offered += 1
            reason = (
                admission.screen(top.tenant, top.arrival_s)
                if admission is not None
                else None
            )
            if reason is not None:
                shed += 1
                sim.sla.observe_shed(top.tenant, reason)
                continue
            if sim.serve_op(
                top.tenant, top.kind, top.requests, arrival_s=top.arrival_s
            ):
                served += 1
            else:
                # Shed onto a failed channel inside serve_op (reason
                # "channel_fault", already booked).
                shed += 1
        sim.end_slice()
    live = dict(
        sim.sla.live_report(),
        pacing={
            "speedup": 0.0,
            "trace_duration_s": trace.duration_s,
            "offered": offered,
            "served": served,
            "shed": shed,
        },
    )
    return sim.payload(live=live)


def serve(
    config: ServingConfig,
    *,
    trace: Trace | None = None,
    model_victim=None,
    fault=None,
) -> ServingResult:
    """Run one serving cell under the redesigned public API.

    Dispatch: no trace -> closed loop; ``config.speedup == 0`` ->
    deterministic replay; ``> 0`` -> threaded live pacing.  ``trace``
    overrides ``config.trace`` (handy when the trace was just recorded
    in memory and never written out).  ``fault`` injects an optional
    :class:`repro.eval.faults.ChannelFault` on any of the three paths
    (kept out of the config so fault-free payloads and trace headers
    keep their exact shape).
    """
    if trace is None and config.trace:
        trace = Trace.load(config.trace)
    if trace is None:
        payload = ServingSimulation(
            config, model_victim=model_victim, fault=fault
        ).run()
        return ServingResult(payload)
    if config.speedup == 0:
        payload = replay_trace(
            trace, config=config, model_victim=model_victim, fault=fault
        )
        return ServingResult(payload)
    sim = ServingSimulation(config, model_victim=model_victim, fault=fault)
    admission = (
        AdmissionController(config.admission, sim.sla, seed=config.seed)
        if config.admission is not None
        else None
    )
    server = LiveServer(
        sim, trace, speedup=config.speedup, admission=admission
    )
    return ServingResult(server.run())
