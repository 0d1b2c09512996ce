"""Parallel scenario harness: the defense x attack x model x scale matrix.

Every figure/table runner used to be a hand-rolled serial script.  This
module turns them into declarative :class:`Scenario` specs -- a named
(runner, arch, scale, seed, params) point of the evaluation matrix --
and a :func:`run_matrix` executor that fans scenarios out over
``multiprocessing`` workers with deterministic per-scenario seeds and
writes one ``BENCH_<tag>.json`` artifact capturing accuracy curves,
memory stats, and wall-clock per scenario.

Properties the test suite pins down (``tests/test_harness.py``):

* **Determinism** -- the artifact's ``results`` section is a pure
  function of the scenario list and ``base_seed``; re-running, or
  changing the worker count, changes only the ``timing`` section.
* **Seed derivation** -- a scenario without an explicit seed gets
  ``derive_seed(name, base_seed)``, a stable CRC-based value, so adding
  or reordering scenarios never shifts another scenario's seed.

Command line::

    python -m repro.eval.harness --set smoke --out artifacts
    python -m repro.eval.harness --set quick --workers 4 --tag nightly
"""

from __future__ import annotations

import argparse
import atexit
import cProfile
import itertools
import logging
import multiprocessing
import os
import re
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..controller.controller import MemoryController
from ..defenses.builders import (
    DEFENSE_BUILDERS,
    DEFENDED_HAMMER_DEFENSES,
    resolve_serving_defense,
)
from ..engines import resolve_engine
from ..attacks import available_attacks
from ..attacks.hammer import HammerDriver
from ..dram.config import DRAMConfig
from ..dram.device import DRAMDevice
from ..dram.vulnerability import VulnerabilityMap
from ..locker.locker import DRAMLocker, LockerConfig
from ..nn import memo
from ..seeds import derive_seed
from .faults import FaultPlan
from .regression import HARNESS_SCHEMA, host_meta, save_artifact
from .experiments import (
    Scale,
    run_attack_scenario,
    run_fig1a,
    run_fig1b,
    run_fig5,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_layout_ablation,
    run_pta,
    run_radius_ablation,
    run_relock_ablation,
    run_rowclone_savings,
    run_sec4d_montecarlo,
    run_table1,
    run_table2,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "MatrixResult",
    "MatrixFailure",
    "derive_seed",
    "run_scenario",
    "run_matrix",
    "scenario_result_payload",
    "SupervisorConfig",
    "attack_prewarm",
    "shutdown_worker_pool",
    "attack_scenarios",
    "bakeoff_scenarios",
    "BAKEOFF_DEFENSES",
    "cheap_scenarios",
    "smoke_scenarios",
    "quick_scenarios",
    "serving_scenarios",
    "SCENARIO_RUNNERS",
    "DEFENSE_BUILDERS",
    "DEFENDED_HAMMER_DEFENSES",
]

logger = logging.getLogger("repro.eval.harness")


# ----------------------------------------------------------------------
# Scenario specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One point of the defense x attack x model x scale x seed matrix.

    Attributes:
        name: Unique label inside a matrix; also the artifact key and
            the seed-derivation input.
        runner: Key into :data:`SCENARIO_RUNNERS`.
        scale: Fidelity/runtime knobs forwarded to the runner.
        seed: Explicit seed; ``None`` derives one from the name.
        params: Extra runner keyword arguments as a sorted tuple of
            ``(key, value)`` pairs (tuples keep the spec hashable and
            cheap to pickle across workers).
    """

    name: str
    runner: str
    scale: Scale = field(default_factory=Scale.quick)
    seed: int | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def resolved_seed(self, base_seed: int = 0) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(self.name, base_seed)

    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)


# Stable per-scenario seed: independent of list order and of every
# other scenario, so matrices stay reproducible as they grow.  One
# definition for the whole stack lives in repro.seeds.


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution.

    ``attempts`` and ``quarantined`` are set only by the supervised
    parallel path: ``attempts`` lists the counted failure outcomes
    (``"worker-lost"``, ``"timeout"``, ``"error"``) that preceded this
    result, and ``quarantined=True`` marks a cell that exhausted its
    retry budget and was isolated as a structured error instead of
    poisoning the matrix.
    """

    name: str
    runner: str
    seed: int
    wall_clock_s: float
    payload: dict | None = None
    error: str | None = None
    attempts: tuple[str, ...] = ()
    quarantined: bool = False
    #: Per-cell telemetry snapshot (:meth:`repro.obs.Telemetry.
    #: snapshot`), recorded only when telemetry is active in the
    #: parent (or ``REPRO_TELEMETRY`` is set, which survives spawn
    #: workers).  Deliberately excluded from the artifact payload.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class MatrixFailure(RuntimeError):
    """Raised by ``run_matrix(strict=True)`` when any scenario failed."""

    def __init__(self, failures: "list[ScenarioResult]"):
        self.failures = failures
        names = ", ".join(result.name for result in failures)
        super().__init__(
            f"{len(failures)} scenario(s) failed: {names}\n\n"
            + "\n\n".join(
                f"--- {result.name} ---\n{result.error}" for result in failures
            )
        )


@dataclass
class MatrixResult:
    """All scenario results plus the matrix-level timing."""

    tag: str
    base_seed: int
    workers: int
    wall_clock_s: float
    results: list[ScenarioResult]
    scenarios: list[Scenario]
    artifact_path: str | None = None
    #: Time spent creating the worker pool; 0.0 when the persistent
    #: pool was reused (or the matrix ran serially).
    pool_startup_s: float = 0.0
    #: Time spent in the parent-side ``prewarm`` hook, if any.
    prewarm_s: float = 0.0
    #: Supervisor attempt log: name -> failure outcomes observed before
    #: the cell's final result ("worker-lost" / "timeout" / "error" /
    #: "aborted").  Timing-section material: which cells needed retries
    #: is infrastructure history, not part of the deterministic results.
    attempt_log: dict[str, list[str]] = field(default_factory=dict)

    def __getitem__(self, name: str) -> ScenarioResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [result for result in self.results if not result.ok]

    def telemetry_summary(self) -> dict | None:
        """Merged per-cell telemetry (worker-count invariant by the
        merge semantics: counters and histogram bins sum, gauges take
        the max, audit kinds tally).  ``None`` when no cell recorded
        telemetry (the disabled default)."""
        cells = [
            result.telemetry for result in self.results if result.telemetry
        ]
        if not cells:
            return None
        kinds: dict[str, int] = {}
        for cell in cells:
            for kind, count in cell["audit"]["kinds"].items():
                kinds[kind] = kinds.get(kind, 0) + count
        return {
            "metrics": obs.MetricsRegistry.merge(
                [cell["metrics"] for cell in cells]
            ),
            "audit": {
                "events": sum(cell["audit"]["events"] for cell in cells),
                "kinds": dict(sorted(kinds.items())),
            },
        }

    def as_artifact(self) -> dict:
        """The ``BENCH_*.json`` document.  Everything except ``timing``
        and ``meta`` is a deterministic function of (scenarios,
        base_seed)."""
        return {
            "schema": HARNESS_SCHEMA,
            "meta": host_meta(),
            "tag": self.tag,
            "base_seed": self.base_seed,
            "scenarios": [
                {
                    "name": scenario.name,
                    "runner": scenario.runner,
                    "seed": scenario.resolved_seed(self.base_seed),
                    "scale": asdict(scenario.scale),
                    "params": scenario.kwargs(),
                }
                for scenario in self.scenarios
            ],
            "results": {
                result.name: scenario_result_payload(result)
                for result in self.results
            },
            "timing": {
                "workers": self.workers,
                "total_s": self.wall_clock_s,
                "pool_startup_s": self.pool_startup_s,
                "prewarm_s": self.prewarm_s,
                "per_scenario_s": {
                    result.name: result.wall_clock_s
                    for result in self.results
                },
                **(
                    {"attempts": self.attempt_log} if self.attempt_log else {}
                ),
            },
        }

    def write_artifact(self, directory: str) -> str:
        path = os.path.join(directory, f"BENCH_{artifact_tag(self.tag)}.json")
        self.artifact_path = save_artifact(path, self.as_artifact())
        return path


def scenario_result_payload(result: ScenarioResult) -> dict | None:
    """One result's entry in the artifact's ``results`` section -- the
    deterministic form shared by :meth:`MatrixResult.as_artifact` and
    the run-table checkpoint journal, so a journaled cell merges back
    bit-identical to an uninterrupted artifact."""
    if result.ok:
        return result.payload
    return {
        "error": result.error,
        **({"attempts": list(result.attempts)} if result.attempts else {}),
        **({"quarantined": True} if result.quarantined else {}),
    }


#: Tags become BENCH_<tag>.json filenames; keep them path-safe.
_TAG_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def artifact_tag(tag: str) -> str:
    """``tag``, checked path-safe: it becomes part of artifact (and
    run-table journal) filenames, so ``../x`` would write outside the
    output directory.  Also the CLIs' ``--tag`` argument type."""
    if not _TAG_RE.fullmatch(tag):
        raise ValueError(
            f"artifact tag {tag!r} must match {_TAG_RE.pattern}"
            " (it becomes part of the artifact filename)"
        )
    return tag


# ----------------------------------------------------------------------
# Runner registry
# ----------------------------------------------------------------------
def _seeded(scale: Scale, seed: int) -> Scale:
    return replace(scale, seed=seed)


def _run_fig8(scale: Scale, seed: int, arch: str = "resnet20") -> dict:
    return run_fig8(arch=arch, scale=_seeded(scale, seed))


def _run_fig1a(scale: Scale, seed: int) -> dict:
    return run_fig1a(_seeded(scale, seed))


def _run_pta(scale: Scale, seed: int) -> dict:
    return run_pta(_seeded(scale, seed))


def _run_table2(scale: Scale, seed: int, **params) -> dict:
    return run_table2(_seeded(scale, seed), **params)


def _run_sec4d(scale: Scale, seed: int, trials: int = 10_000) -> dict:
    return {"rows": run_sec4d_montecarlo(trials=trials)}


def _run_relock_ablation(scale: Scale, seed: int, **params) -> dict:
    results = run_relock_ablation(seed=seed, **params)
    return {str(interval): stats for interval, stats in results.items()}


def _run_radius_ablation(scale: Scale, seed: int) -> dict:
    return {str(radius): out for radius, out in run_radius_ablation().items()}


def _run_layout_ablation(scale: Scale, seed: int) -> dict:
    return {
        ("guard-rows" if guard else "contiguous"): stats
        for guard, stats in run_layout_ablation().items()
    }


# DEFENSE_BUILDERS / DEFENDED_HAMMER_DEFENSES are re-exported above
# from repro.defenses.builders (the canonical definitions) so existing
# ``harness.DEFENSE_BUILDERS`` callers keep working unchanged.


def _run_defense_campaign(
    scale: Scale,
    seed: int,
    defense: str = "None",
    trh: int = 400,
    victim_local: int = 20,
    target_bit: int = 5,
) -> dict:
    """Double-sided hammering of one templated bit under one defense --
    the per-contender unit of ``examples/compare_defenses.py``."""
    config = DRAMConfig.small()
    vulnerability = VulnerabilityMap(config, weak_cell_fraction=0.0)
    device = DRAMDevice(config, vulnerability=vulnerability, trh=trh)
    victim = device.mapper.row_index((0, 0, victim_local))
    use_locker = defense == "DRAM-Locker"
    locker = None
    baseline = None
    if use_locker:
        locker = DRAMLocker(device, LockerConfig())
        locker.protect([victim])
    else:
        builder = DEFENSE_BUILDERS.get(defense)
        if builder is None:
            raise ValueError(f"unknown defense {defense!r}")
        baseline = builder()
    controller = MemoryController(device, defense=baseline, locker=locker)

    device.vulnerability.register_template(victim, [target_bit])
    flipped = False
    for _ in range(3 * trh):
        for aggressor in device.mapper.neighbors(victim):
            controller.hammer(aggressor)
            if device.peek_bytes(victim, 0, 1)[0] >> target_bit & 1:
                flipped = True
                break
        if flipped:
            break
    stats = device.stats
    mitigation_ms = (
        baseline.mitigation_ns_total / 1e6
        if baseline is not None
        else stats.defense_ns / 1e6
    )
    return {
        "defense": defense,
        "flipped": flipped,
        "mitigation_ms": mitigation_ms,
        "blocked": stats.blocked_requests,
        "extra_refreshes": stats.refreshes,
        "rowclones": stats.rowclones,
        "memory_stats": stats.as_dict(),
    }


def _run_defended_hammer(
    scale: Scale,
    seed: int,
    defense: str = "TRR",
    trh: int = 3000,
    patience: float = 2.0,
    victims: int = 2,
    engine: str = "bulk",
) -> dict:
    """The ``HammerDriver.hammer_bit`` hot loop under a DRAM-level
    defense: double-sided TRH-burst campaigns against templated victim
    bits -- the defended analogue of the attack matrix's hammer layer
    and the unit ``benchmarks/bench_defended_hammer.py`` times scalar
    vs bulk.  Deterministic for fixed parameters; the payload carries
    no wall-clock, so engines must agree bit-for-bit."""
    config = DRAMConfig.small()
    vulnerability = VulnerabilityMap(config, weak_cell_fraction=0.0)
    device = DRAMDevice(config, vulnerability=vulnerability, trh=trh)
    victim_rows = [
        device.mapper.row_index((0, 0, 15 + 6 * index))
        for index in range(victims)
    ]
    use_locker = defense == "DRAM-Locker"
    locker = None
    baseline = None
    if use_locker:
        locker = DRAMLocker(device, LockerConfig())
        locker.protect(victim_rows)
    else:
        builder = DEFENDED_HAMMER_DEFENSES.get(defense)
        if builder is None:
            raise ValueError(f"unknown defense {defense!r}")
        baseline = builder()
    controller = MemoryController(
        device, defense=baseline, locker=locker, engine=engine
    )
    driver = HammerDriver(controller, patience=patience)

    outcomes = []
    for row in victim_rows:
        outcome = driver.hammer_bit(row, victim_bit=5)
        outcomes.append(
            {
                "victim_row": outcome.victim_row,
                "flipped": outcome.flipped,
                "issued": outcome.activations_issued,
                "blocked": outcome.activations_blocked,
            }
        )
    stats = device.stats
    return {
        "defense": defense,
        "engine": engine,
        "trh": trh,
        "outcomes": outcomes,
        "protected_bits_flipped": sum(1 for o in outcomes if o["flipped"]),
        "mitigation_ns": (
            baseline.mitigation_ns_total
            if baseline is not None
            else stats.defense_ns
        ),
        "defense_actions": baseline.actions if baseline is not None else 0,
        "memory_stats": stats.as_dict(),
    }


def _run_attack(scale: Scale, seed: int, **params) -> dict:
    return run_attack_scenario(scale=_seeded(scale, seed), **params)


#: Defense cells of the serving matrix.  ``"DRAM-Locker"`` installs one
#: locker per channel; baseline names install one defense instance per
#: channel from :data:`DEFENDED_HAMMER_DEFENSES`; ``"None"`` is the
#: undefended system.
def _run_serving(
    scale: Scale,
    seed: int,
    tenants: int = 4,
    channels: int = 1,
    defense: str = "DRAM-Locker",
    colocated: bool = True,
    arrival: str = "poisson",
    slices: int = 24,
    ops_per_slice: float = 6.0,
    policy: str = "row",
    victim: str = "bits",
    arch: str = "resnet20",
    engine: str = "bulk",
    fault_channel: int = -1,
    fault_kind: str = "fail",
    fault_slice: int = 0,
    fault_stall_ns: float = 5e7,
    scaling_channels: int = 0,
    scaling_p99_target_ns: float = 1e6,
) -> dict:
    """One serving cell: multi-tenant traffic on a sharded system.

    The payload is a pure function of the parameters and ``seed`` (all
    arrival/popularity/swap-failure RNG streams are name-derived), so
    serving cells keep the matrix's worker-count invariance.  With
    ``victim="model"`` a trained quick-scale victim (shared through the
    victim cache) resides on channel 0 and its accuracy is measured
    before/after the co-located campaign.

    ``fault_channel >= 0`` injects a deterministic
    :class:`~repro.eval.faults.ChannelFault` (``fault_kind`` fail or
    stall, activating at the boundary closing ``fault_slice``); the
    payload then carries a ``"fault"`` section with the conservation
    tally.  ``scaling_channels > 0`` pre-builds that many total
    channels and lets the channel scaler spill hot (or failed-over)
    tenants onto the spares -- block policy only.
    """
    from ..serving import ScalingConfig, ServingConfig, run_serving

    protected, builder = resolve_serving_defense(defense)
    model_victim = None
    if victim == "model":
        from .experiments import build_victim

        model_victim = build_victim(arch, _seeded(scale, 0))
    elif victim != "bits":
        raise ValueError(f"unknown victim shape {victim!r}")
    config = ServingConfig(
        tenants=tenants,
        channels=channels,
        slices=slices,
        ops_per_slice=ops_per_slice,
        arrival=arrival,
        colocated=colocated,
        policy=policy,
        engine=engine,
        seed=seed,
        scaling=(
            ScalingConfig(
                max_channels=scaling_channels,
                p99_target_ns=scaling_p99_target_ns,
            )
            if scaling_channels
            else None
        ),
    )
    fault = None
    if fault_channel >= 0:
        from .faults import ChannelFault

        fault = ChannelFault(
            channel=fault_channel,
            kind=fault_kind,
            at_slice=fault_slice,
            stall_ns=fault_stall_ns,
        )
    payload = run_serving(
        config,
        protected=protected,
        defense_builder=builder,
        model_victim=model_victim,
        fault=fault,
    )
    payload["defense"] = defense
    return payload


def _run_serving_live(
    scale: Scale,
    seed: int,
    tenants: int = 4,
    channels: int = 1,
    defense: str = "DRAM-Locker",
    colocated: bool = True,
    arrival: str = "poisson",
    slices: int = 24,
    ops_per_slice: float = 6.0,
    policy: str = "row",
    engine: str = "bulk",
    verify: bool = False,
    overload: float = 1.0,
    admission: str = "none",
    p99_target_factor: float = 4.0,
    scaling_channels: int = 0,
    utilization: float = 0.7,
) -> dict:
    """One live-frontend cell: record a trace, replay it, stress it.

    The cell always records the base config's calibrated trace and
    replays it deterministically (no threads -- the matrix keeps its
    worker-count invariance).  ``verify=True`` additionally runs the
    closed loop and reports whether the replay is bit-identical
    (the replay-equivalence contract).  ``overload > 1`` re-records the
    same ops with the trace clock compressed by that factor -- the same
    work arriving N times faster -- and ``admission`` decides what
    screens it: ``"none"``, ``"pressure"`` (sojourn-p99 shedding at
    ``p99_target_factor`` x the uncompressed baseline), or ``"token"``
    (per-tenant token bucket at the base offered rate).
    ``scaling_channels`` turns on dynamic channel scaling (block policy
    only) with the same sojourn target.
    """
    from dataclasses import replace

    from ..serving import (
        AdmissionConfig,
        ScalingConfig,
        ServingConfig,
        ServingSimulation,
        record_serving_trace,
        replay_neutral,
        serve,
    )

    resolve_engine(engine)
    base_config = ServingConfig(
        tenants=tenants,
        channels=channels,
        slices=slices,
        ops_per_slice=ops_per_slice,
        arrival=arrival,
        colocated=colocated,
        policy=policy,
        engine=engine,
        seed=seed,
        defense=defense,
    )
    base_trace = record_serving_trace(base_config, utilization=utilization)
    base = serve(base_config, trace=base_trace)
    base_sojourn = base.sojourn_p99_ns()

    replay_identical = None
    if verify:
        closed = ServingSimulation(base_config).run()
        replay_identical = (
            replay_neutral(base.payload) == replay_neutral(closed)
        )

    target_ns = None
    result = base
    if overload > 1.0 or admission != "none" or scaling_channels:
        if admission == "pressure" or scaling_channels:
            if base_sojourn is None:
                raise ValueError(
                    "sojourn-based admission/scaling needs a sojourn "
                    "baseline (events-engine replays have none)"
                )
            target_ns = base_sojourn * p99_target_factor
        admission_config = None
        if admission == "pressure":
            admission_config = AdmissionConfig(p99_target_ns=target_ns)
        elif admission == "token":
            admission_config = AdmissionConfig(
                rate=ops_per_slice / base_trace.slice_duration_s
            )
        elif admission != "none":
            raise ValueError(f"unknown admission mode {admission!r}")
        scaling = (
            ScalingConfig(
                max_channels=scaling_channels, p99_target_ns=target_ns
            )
            if scaling_channels
            else None
        )
        cell_config = replace(
            base_config, admission=admission_config, scaling=scaling
        )
        trace = (
            record_serving_trace(
                base_config,
                slice_duration_s=base_trace.slice_duration_s / overload,
            )
            if overload > 1.0
            else base_trace
        )
        result = serve(cell_config, trace=trace)

    payload = result.payload
    payload["defense"] = defense
    payload["live_cell"] = {
        "overload": overload,
        "admission": admission,
        "base_sojourn_p99_ns": base_sojourn,
        "sojourn_p99_ns": result.sojourn_p99_ns(),
        "p99_target_ns": target_ns,
        "shed": result.shed_total,
        "offered": result.live["pacing"]["offered"],
        "replay_identical": replay_identical,
    }
    return payload


def _run_defense_bakeoff(
    scale: Scale,
    seed: int,
    attack: str = "bfa",
    defense: str = "None",
    channels: int = 1,
    arch: str = "resnet20",
    iterations: int = 6,
    slices: int = 12,
    ops_per_slice: float = 6.0,
    engine: str = "bulk",
    serving: bool = False,
    probe_interval: int = 4,
    quarantine_slices: int = 1,
    inject_slice: int = -1,
    inject_rows: int = 2,
    **attack_params,
) -> dict:
    """One bake-off cell: an attack-registry campaign and/or a serving
    run under one defense family (``None`` / ``DRAM-Locker`` /
    ``RADAR`` / ``DNN-Defender``).

    The **attack phase** (``attack != "none"``) runs the registered
    attack against the defended in-DRAM victim and reports the
    protection outcome plus the defense's mitigation accounting -- the
    bake-off's protection axis.  The **serving phase**
    (``serving=True``) runs a model-victim serving cell with the
    victim-health monitor riding it -- the SLA-overhead, detection
    latency, and post-recovery-accuracy axes.  ``inject_slice >= 0``
    makes it the chaos cell: deterministic weight-row corruption at
    that slice boundary, which the monitor must detect and recover.

    Both phases pin the trained victim to seed 0 (the attack matrix's
    shared-victim-cache convention); ``seed`` drives the serving
    workload RNG streams.
    """
    from ..serving import HealthConfig, ServingConfig, run_serving
    from .experiments import build_victim

    payload: dict = {
        "defense": defense,
        "attack": attack,
        "channels": channels,
        "arch": arch,
    }
    if attack != "none":
        payload["attack_phase"] = run_attack_scenario(
            scale=_seeded(scale, 0),
            attack=attack,
            arch=arch,
            defense=defense,
            iterations=iterations,
            **attack_params,
        )
    if serving:
        protected, builder = resolve_serving_defense(defense)
        health = HealthConfig(
            probe_interval=probe_interval,
            quarantine_slices=quarantine_slices,
            inject_at=(inject_slice,) if inject_slice >= 0 else (),
            inject_rows=inject_rows,
        )
        config = ServingConfig(
            channels=channels,
            slices=slices,
            ops_per_slice=ops_per_slice,
            engine=engine,
            seed=seed,
            defense=defense,
        )
        payload["serving_phase"] = run_serving(
            config,
            protected=protected,
            defense_builder=builder,
            model_victim=build_victim(arch, _seeded(scale, 0)),
            health=health,
        )
    return payload


SCENARIO_RUNNERS: dict[str, Callable[..., dict]] = {
    "attack": _run_attack,
    "fig1a": _run_fig1a,
    "fig1b": lambda scale, seed: {"rows": run_fig1b()},
    "fig5": lambda scale, seed: run_fig5(),
    "sec4d": _run_sec4d,
    "table1": lambda scale, seed: run_table1(),
    "fig7a": lambda scale, seed: run_fig7a(),
    "fig7b": lambda scale, seed: run_fig7b(),
    "fig8": _run_fig8,
    "pta": _run_pta,
    "table2": _run_table2,
    "rowclone": lambda scale, seed: run_rowclone_savings(),
    "ablation_radius": _run_radius_ablation,
    "ablation_layout": _run_layout_ablation,
    "ablation_relock": _run_relock_ablation,
    "defense_campaign": _run_defense_campaign,
    "defended_hammer": _run_defended_hammer,
    "serving": _run_serving,
    "serving_live": _run_serving_live,
    "defense_bakeoff": _run_defense_bakeoff,
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, base_seed: int = 0, profile_dir: str | None = None
) -> ScenarioResult:
    """Execute one scenario in-process.  With ``profile_dir`` set, the
    runner executes under cProfile and the stats are dumped to
    ``profile_dir/profile_<name>.pstats`` (load with ``pstats.Stats``)."""
    seed = scenario.resolved_seed(base_seed)
    runner = SCENARIO_RUNNERS.get(scenario.runner)
    started = time.perf_counter()
    if runner is None:
        return ScenarioResult(
            scenario.name,
            scenario.runner,
            seed,
            0.0,
            error=f"unknown runner {scenario.runner!r}",
        )
    profiler = None
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
        profiler = cProfile.Profile()
    # One fresh Telemetry per cell: the snapshot travels back on the
    # ScenarioResult, so merged matrix telemetry is invariant to the
    # worker count (REPRO_TELEMETRY reaches spawn workers, which do not
    # inherit the parent's obs.ACTIVE).
    telemetry = (
        obs.Telemetry()
        if obs.ACTIVE is not None or os.environ.get("REPRO_TELEMETRY")
        else None
    )

    def invoke():
        if profiler is not None:
            return profiler.runcall(
                runner, scenario.scale, seed, **scenario.kwargs()
            )
        return runner(scenario.scale, seed, **scenario.kwargs())

    try:
        if telemetry is not None:
            with obs.enabled_scope(telemetry):
                with telemetry.trace.span(
                    "cell", cell=scenario.name, runner=scenario.runner
                ):
                    payload = invoke()
        else:
            payload = invoke()
    except Exception:  # noqa: BLE001 - workers must report, not die
        return ScenarioResult(
            scenario.name,
            scenario.runner,
            seed,
            time.perf_counter() - started,
            error=traceback.format_exc(),
            telemetry=telemetry.snapshot() if telemetry is not None else None,
        )
    finally:
        if profiler is not None:
            # Run-table cell names carry "/" separators; flatten them
            # so the stats land in profile_dir itself.
            stem = scenario.name.replace("/", "_")
            profiler.dump_stats(
                os.path.join(profile_dir, f"profile_{stem}.pstats")
            )
    return ScenarioResult(
        scenario.name,
        scenario.runner,
        seed,
        time.perf_counter() - started,
        payload=payload,
        telemetry=telemetry.snapshot() if telemetry is not None else None,
    )


def _scenario_worker(
    job: tuple[int, int, Scenario, int, str | None, int, Any],
) -> ScenarioResult:
    global _WORKER_MEMO_EPOCH
    epoch, index, scenario, base_seed, profile_dir, attempt, faults = job
    if _WORKER_EVENTS is not None:
        try:
            # Announce (dispatch epoch, cell, attempt, pid) before any
            # real work: the supervisor uses this to attribute a worker
            # death to the cell it was running.
            _WORKER_EVENTS.put((epoch, index, attempt, os.getpid()))
        except Exception:  # noqa: BLE001 - announcements are best-effort
            pass
    if epoch != _WORKER_MEMO_EPOCH:
        # The cells of one matrix share clean-state work; a job from a
        # new matrix starts a fresh memo.
        memo.restart()
        _WORKER_MEMO_EPOCH = epoch
    if faults is not None:
        faults.inject(scenario.name, attempt)
    return run_scenario(scenario, base_seed, profile_dir=profile_dir)


# ----------------------------------------------------------------------
# The persistent worker pool
# ----------------------------------------------------------------------
# One pool per process, reused across run_matrix invocations (benchmark
# recorders and the CLI run several matrices back to back; forking a
# fresh pool for each re-pays interpreter startup and page-table setup
# every time).  Under fork, workers inherit the parent's module-level
# state -- in particular the in-process victim-cache layer
# (repro.nn.cache), which is how prewarmed dataset/victim arrays ship
# to workers without being pickled into any scenario payload.  Under
# spawn (no inheritance), the same arrays ship once per pool through
# multiprocessing.shared_memory segments attached in the worker
# initializer.
_POOL_STATE: dict[str, Any] = {
    "pool": None,
    "method": None,
    "processes": 0,
    "generation": -1,
    "segments": [],
    "events": None,
}

_ATTACHED_SEGMENTS: list = []  # worker-side references, kept alive

#: Worker-side start-event queue, set by the pool initializer.
_WORKER_EVENTS: Any = None

#: Worker side: the dispatch epoch whose memo is active.
_WORKER_MEMO_EPOCH: int | None = None

#: Monotonic dispatch-epoch counter: one epoch per supervised matrix,
#: so stale start events from an earlier matrix on the same persistent
#: pool can never be attributed to a new in-flight cell.
_DISPATCH_EPOCHS = itertools.count()


def _export_shared_victims() -> tuple[list, list]:
    """Copy every in-process victim-cache entry into shared-memory
    segments; returns (manifest for the worker initializer, segments
    the parent must keep alive and eventually unlink)."""
    from multiprocessing import shared_memory

    from ..nn.cache import memory_cache_entries

    manifest = []
    segments = []
    for (directory, key), state in memory_cache_entries().items():
        for name, array in state.items():
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes)
            )
            segment.buf[: array.nbytes] = array.tobytes()
            segments.append(segment)
            manifest.append(
                (directory, key, name, segment.name, array.shape, str(array.dtype))
            )
    return manifest, segments


def _attach_shared_victims(manifest: list, unregister: bool = True) -> None:
    """Worker initializer: rebuild the in-process victim-cache layer
    on top of the parent's shared-memory segments (zero copies).
    ``unregister=False`` is for in-process callers (tests), where the
    creating process's resource tracker still owns the segments."""
    from multiprocessing import shared_memory

    from ..nn.cache import memory_cache_put

    entries: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    for directory, key, name, segment_name, shape, dtype in manifest:
        segment = shared_memory.SharedMemory(name=segment_name)
        _ATTACHED_SEGMENTS.append(segment)
        if unregister:
            try:
                # Attaching registers with the resource tracker on
                # 3.10-3.12, which would double-unlink when the parent
                # cleans up; the parent owns these segments.
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # noqa: BLE001 - tracker varies by version
                pass
        array: np.ndarray = np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf
        )
        entries.setdefault((directory, key), {})[name] = array
    for (directory, key), arrays in entries.items():
        memory_cache_put(directory, key, arrays)


def _pool_initializer(events: Any, manifest: list | None) -> None:
    """Worker initializer: install the start-event queue and, under
    spawn, attach the parent's shared-memory victim cache."""
    global _WORKER_EVENTS
    _WORKER_EVENTS = events
    if manifest is not None:
        _attach_shared_victims(manifest)


def _pool_pids(pool: Any) -> set[int]:
    """Live worker pids; empty for pool doubles without ``_pool``
    (which simply disables death detection for them)."""
    workers = getattr(pool, "_pool", None) or []
    return {proc.pid for proc in workers if proc.pid is not None}


def shutdown_worker_pool(force: bool = False) -> None:
    """Retire the persistent pool and release its shared memory.

    The healthy path (``force=False``) closes the pool and joins its
    workers, letting them exit cleanly; ``force=True`` terminates them
    -- for poisoned/hung pools and for process exit, where joining a
    wedged worker would hang forever.  Shared-memory segments are
    unlinked on both paths, including segments registered by a pool
    creation that failed partway (``pool`` is ``None`` but ``segments``
    is not empty).
    """
    pool = _POOL_STATE["pool"]
    if pool is not None:
        # A supervised matrix that lost workers leaves the crashed
        # attempts' apply_async entries in the pool's result cache;
        # close()+join() would then block forever in _handle_results
        # waiting for results no worker will ever produce.
        if getattr(pool, "_cache", None):
            force = True
        if force:
            pool.terminate()
        else:
            pool.close()
        pool.join()
    events = _POOL_STATE.get("events")
    if events is not None:
        try:
            events.close()
        except Exception:  # noqa: BLE001 - queue teardown is best-effort
            pass
    for segment in _POOL_STATE["segments"]:
        try:
            segment.close()
            segment.unlink()
        except OSError:
            pass
    _POOL_STATE.update(
        pool=None,
        method=None,
        processes=0,
        generation=-1,
        segments=[],
        events=None,
    )


atexit.register(shutdown_worker_pool, True)


def _acquire_pool(processes: int) -> tuple[Any, float]:
    """The persistent pool, (re)created as needed; returns
    ``(pool, startup_seconds)`` with startup 0.0 on reuse."""
    from ..nn.cache import memory_cache_generation

    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else "spawn"
    # Changes whenever the victim layer does, so a live pool whose
    # workers hold an older layer is recreated.
    generation = memory_cache_generation()
    state = _POOL_STATE
    if (
        state["pool"] is not None
        and state["method"] == method
        and state["processes"] == processes
        and state["generation"] == generation
    ):
        return state["pool"], 0.0
    shutdown_worker_pool(force=True)
    context = multiprocessing.get_context(method)
    started = time.perf_counter()
    # SimpleQueue, not Queue: its put() writes the pipe synchronously,
    # so a worker's start announcement is durable even when the worker
    # dies (os._exit) immediately afterwards -- Queue's feeder thread
    # would race the crash and could drop the event.
    events = context.SimpleQueue()
    if method == "fork":
        manifest: list | None = None
        segments: list = []
    else:
        manifest, segments = _export_shared_victims()
    # Segments and the event queue are registered *before* Pool() so a
    # creation failure still has them released by shutdown_worker_pool
    # instead of leaking kernel-backed shared memory.
    state.update(
        pool=None,
        method=None,
        processes=0,
        generation=-1,
        segments=segments,
        events=events,
    )
    pool = context.Pool(
        processes=processes,
        initializer=_pool_initializer,
        initargs=(events, manifest),
    )
    startup = time.perf_counter() - started
    state.update(
        pool=pool,
        method=method,
        processes=processes,
        generation=generation,
    )
    return pool, startup


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for the supervised parallel dispatcher.

    Attributes:
        timeout_s: Per-attempt wall-clock deadline measured from
            dispatch.  A cell past its deadline is declared hung; the
            only way to reclaim a hung worker is to tear the pool down,
            so the pool is rebuilt and collateral in-flight cells are
            requeued without spending a retry.  ``None`` disables
            deadlines (a truly hung worker then blocks forever, as the
            old ``pool.map`` did).
        retries: How many *additional* attempts a cell gets after a
            counted failure (worker death, timeout, or -- with
            ``retry_errors`` -- an in-worker exception).  A cell that
            fails ``retries + 1`` times is quarantined.
        backoff_base_s: Base of the seeded exponential backoff between
            a cell's attempts; attempt ``k`` waits
            ``backoff_base_s * 2**(k-1) * (0.5 + u)`` with ``u`` drawn
            from ``derive_seed(f"retry:{name}", base_seed)``.
        poll_interval_s: Supervisor loop cadence.
        retry_errors: Also retry cells whose runner raised.  Off by
            default: a deterministic runner exception will raise again,
            and the structured error result is the useful artifact.
    """

    timeout_s: float | None = None
    retries: int = 2
    backoff_base_s: float = 0.05
    poll_interval_s: float = 0.02
    retry_errors: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")


@dataclass
class _Flight:
    """One in-flight cell attempt."""

    handle: Any
    attempt: int
    dispatched_at: float
    deadline: float | None
    pid: int | None = None


def _supervised_map(
    scenarios: list[Scenario],
    base_seed: int,
    profile_dir: str | None,
    processes: int,
    config: SupervisorConfig,
    faults: FaultPlan | None,
    on_result: Callable[[ScenarioResult], None] | None,
) -> tuple[list[ScenarioResult], float, dict[str, list[str]]]:
    """Async dispatch with timeouts, bounded retries, and quarantine.

    Replaces the blocking ``pool.map``: cells are dispatched with
    ``apply_async`` (at most ``processes`` in flight, so per-attempt
    deadlines measured from dispatch are meaningful), worker deaths are
    attributed to the cell the worker announced via the start-event
    queue, and a persistently failing or hung cell becomes a structured
    quarantined :class:`ScenarioResult` instead of poisoning the pool.
    Returns ``(results, pool_startup_s, attempt_log)``; results keep
    scenario order regardless of completion order.
    """
    pool, startup_s = _acquire_pool(processes)
    events = _POOL_STATE.get("events")
    epoch = next(_DISPATCH_EPOCHS)
    total = len(scenarios)
    results: list[ScenarioResult | None] = [None] * total
    attempt_log: dict[str, list[str]] = {}
    failures = [0] * total
    backoff_rngs: dict[int, np.random.Generator] = {}
    pending: list[tuple[int, float]] = [(index, 0.0) for index in range(total)]
    inflight: dict[int, _Flight] = {}
    known_pids = _pool_pids(pool)
    # Every worker pid ever seen dead this matrix.  The instantaneous
    # known-vs-current diff alone loses a death that becomes visible
    # before the victim's start announcement has been drained: the pid
    # leaves the diff on the tick it is consumed, and the cell it was
    # running would sit unattributed until the timeout backstop.
    lost_pids: set[int] = set()

    def finalize(index: int, result: ScenarioResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(result)

    def counted_outcomes(index: int) -> list[str]:
        return [
            outcome
            for outcome in attempt_log.get(scenarios[index].name, [])
            if outcome != "aborted"
        ]

    def backoff_delay(index: int) -> float:
        rng = backoff_rngs.get(index)
        if rng is None:
            rng = backoff_rngs[index] = np.random.default_rng(
                derive_seed(f"retry:{scenarios[index].name}", base_seed)
            )
        exponent = max(0, failures[index] - 1)
        return config.backoff_base_s * (2**exponent) * (0.5 + rng.random())

    def quarantine(index: int, elapsed_s: float) -> None:
        scenario = scenarios[index]
        outcomes = counted_outcomes(index)
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("fleet.quarantines")
            tel.audit.emit("fleet-quarantine", cell=scenario.name)
        finalize(
            index,
            ScenarioResult(
                scenario.name,
                scenario.runner,
                scenario.resolved_seed(base_seed),
                elapsed_s,
                error=(
                    f"quarantined after {len(outcomes)} attempt(s); "
                    f"outcomes: {', '.join(outcomes)}"
                ),
                attempts=tuple(outcomes),
                quarantined=True,
            ),
        )

    def fail_or_retry(
        index: int, flight: _Flight, outcome: str, counted: bool = True
    ) -> None:
        attempt_log.setdefault(scenarios[index].name, []).append(outcome)
        if counted:
            tel = obs.ACTIVE
            if tel is not None:
                tel.metrics.inc("fleet.retries")
            failures[index] += 1
            if failures[index] > config.retries:
                quarantine(index, time.monotonic() - flight.dispatched_at)
                return
            delay = backoff_delay(index)
        else:
            delay = 0.0
        pending.append((index, time.monotonic() + delay))

    while pending or inflight:
        now = time.monotonic()
        if pending and len(inflight) < processes:
            still_pending: list[tuple[int, float]] = []
            for index, not_before in sorted(pending, key=lambda p: p[1]):
                if not_before > now or len(inflight) >= processes:
                    still_pending.append((index, not_before))
                    continue
                job = (
                    epoch,
                    index,
                    scenarios[index],
                    base_seed,
                    profile_dir,
                    failures[index],
                    faults,
                )
                handle = pool.apply_async(_scenario_worker, (job,))
                dispatched = time.monotonic()
                inflight[index] = _Flight(
                    handle,
                    failures[index],
                    dispatched,
                    (
                        dispatched + config.timeout_s
                        if config.timeout_s is not None
                        else None
                    ),
                )
            pending = still_pending
        if events is not None:
            try:
                # Single reader: empty() going momentarily stale only
                # delays an event to the next poll tick.
                while not events.empty():
                    event_epoch, index, attempt, pid = events.get()
                    flight = inflight.get(index)
                    if (
                        event_epoch == epoch
                        and flight is not None
                        and flight.attempt == attempt
                    ):
                        flight.pid = pid
                        if pid in lost_pids and not flight.handle.ready():
                            # Late announcement from a worker whose
                            # death was already observed.
                            del inflight[index]
                            fail_or_retry(index, flight, "worker-lost")
            except OSError:
                pass
        for index in list(inflight):
            flight = inflight[index]
            if not flight.handle.ready():
                continue
            del inflight[index]
            try:
                result = flight.handle.get()
            except Exception as exc:  # noqa: BLE001 - dispatch-layer failure
                fail_or_retry(
                    index, flight, f"error: {type(exc).__name__}: {exc}"
                )
                continue
            if result.error is not None and config.retry_errors:
                attempt_log.setdefault(scenarios[index].name, []).append(
                    "error"
                )
                failures[index] += 1
                if failures[index] > config.retries:
                    finalize(
                        index,
                        replace(
                            result,
                            attempts=tuple(counted_outcomes(index)),
                            quarantined=True,
                        ),
                    )
                else:
                    pending.append(
                        (index, time.monotonic() + backoff_delay(index))
                    )
                continue
            finalize(index, result)
        current_pids = _pool_pids(pool)
        dead_pids = known_pids - current_pids
        known_pids = current_pids
        if dead_pids:
            lost_pids |= dead_pids
            for index in list(inflight):
                flight = inflight[index]
                if flight.pid in lost_pids and not flight.handle.ready():
                    del inflight[index]
                    fail_or_retry(index, flight, "worker-lost")
        if config.timeout_s is not None and inflight:
            now = time.monotonic()
            hung = [
                index
                for index, flight in inflight.items()
                if flight.deadline is not None and now > flight.deadline
            ]
            if hung:
                for index in hung:
                    fail_or_retry(index, inflight.pop(index), "timeout")
                # A hung worker cannot be reclaimed individually: tear
                # the whole pool down and requeue the collateral cells
                # without charging them an attempt.
                for index in list(inflight):
                    fail_or_retry(
                        index, inflight.pop(index), "aborted", counted=False
                    )
                shutdown_worker_pool(force=True)
                pool, rebuild_s = _acquire_pool(processes)
                tel = obs.ACTIVE
                if tel is not None:
                    tel.metrics.inc("fleet.pool_rebuilds")
                startup_s += rebuild_s
                events = _POOL_STATE.get("events")
                known_pids = _pool_pids(pool)
                # The fresh pool may reuse a retired pid.
                lost_pids -= known_pids
        if pending or inflight:
            time.sleep(config.poll_interval_s)
    final = [result for result in results if result is not None]
    assert len(final) == total  # every cell finalized exactly once
    return final, startup_s, attempt_log


def attack_prewarm(
    scale: Scale | None = None, arch: str = "resnet20"
) -> Callable[[], None]:
    """A ``run_matrix(prewarm=...)`` hook that builds the attack
    matrix's shared victim in the parent, so workers inherit the
    trained arrays through fork (or shared memory under spawn)."""
    from .experiments import build_victim

    resolved = replace(scale or Scale.quick(), seed=0)

    def warm() -> None:
        build_victim(arch, resolved)

    return warm


def run_matrix(
    scenarios: Sequence[Scenario] | Iterable[Scenario],
    workers: int | None = None,
    base_seed: int = 0,
    tag: str = "matrix",
    artifact_dir: str | None = None,
    strict: bool = False,
    profile_dir: str | None = None,
    prewarm: Callable[[], None] | None = None,
    supervise: SupervisorConfig | None = None,
    faults: FaultPlan | None = None,
    on_result: Callable[[ScenarioResult], None] | None = None,
) -> MatrixResult:
    """Run a scenario matrix, optionally in parallel, and collect one
    :class:`MatrixResult`.

    ``workers=None`` picks ``min(len(scenarios), cpu_count)``;
    ``workers<=1`` runs serially in-process (no subprocesses, handy for
    tests and for composing with an outer parallel harness).  Results
    are returned in scenario order regardless of completion order, and
    the ``results`` payloads are independent of the worker count.

    Parallel matrices share one persistent worker pool per process;
    the artifact's ``timing.pool_startup_s`` records what creating (or
    reusing, 0.0) it cost.  ``prewarm`` runs in the parent before the
    pool is acquired -- state it loads into module-level caches (the
    trained-victim memory layer) reaches workers by fork inheritance
    or, under spawn, via ``multiprocessing.shared_memory`` -- and its
    cost is recorded as ``timing.prewarm_s``.

    The cells of one matrix share their victim's clean-state work
    (dataset, clean accuracy, backdoor trigger) through a
    :mod:`repro.nn.memo` scope that ends with the matrix: the parent's
    around the serial loop, or each worker's, restarted by the first
    job of a new dispatch epoch.  :func:`run_scenario` alone shares
    nothing.

    ``profile_dir`` forwards to :func:`run_scenario`: every scenario
    dumps ``profile_<name>.pstats`` cProfile stats there.

    ``strict=True`` raises :class:`MatrixFailure` after the artifact is
    written when any scenario errored -- for callers (benchmark
    recorders, CI steps) where a half-failed matrix must not pass
    silently as a recorded artifact.

    The parallel path is supervised (see :class:`SupervisorConfig`):
    per-attempt timeouts, bounded seeded-backoff retries, and
    quarantine of persistently failing cells -- one dead or hung
    worker costs that cell its attempt, not the whole matrix.
    ``faults`` injects a deterministic :class:`~repro.eval.faults.FaultPlan`
    into workers (ignored on the serial path: a crash fault would take
    the parent down).  ``on_result`` is called in the parent with every
    finalized :class:`ScenarioResult` as it completes -- the checkpoint
    hook run-tables journal through.
    """
    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in matrix: {names}")
    if workers is None:
        workers = max(1, min(len(scenarios), os.cpu_count() or 1))
    logger.info(
        "matrix tag=%s scenarios=%d workers=%d", tag, len(scenarios), workers
    )
    started = time.perf_counter()
    prewarm_s = 0.0
    if prewarm is not None:
        prewarm_started = time.perf_counter()
        prewarm()
        prewarm_s = time.perf_counter() - prewarm_started
    pool_startup_s = 0.0
    attempt_log: dict[str, list[str]] = {}
    if workers <= 1 or len(scenarios) <= 1:
        workers = 1
        results = []
        with memo.scope():
            for scenario in scenarios:
                result = run_scenario(
                    scenario, base_seed, profile_dir=profile_dir
                )
                if on_result is not None:
                    on_result(result)
                results.append(result)
    else:
        try:
            results, pool_startup_s, attempt_log = _supervised_map(
                scenarios,
                base_seed,
                profile_dir,
                workers,
                supervise or SupervisorConfig(),
                faults,
                on_result,
            )
        except BaseException:
            # A poisoned dispatch layer (unpicklable job, broken pool
            # double) is unrecoverable here; drop the pool so the next
            # matrix starts fresh instead of reusing a broken one.
            shutdown_worker_pool(force=True)
            raise
    matrix = MatrixResult(
        tag=tag,
        base_seed=base_seed,
        workers=workers,
        wall_clock_s=time.perf_counter() - started,
        results=results,
        scenarios=scenarios,
        pool_startup_s=pool_startup_s,
        prewarm_s=prewarm_s,
        attempt_log=attempt_log,
    )
    logger.info(
        "matrix tag=%s done wall_clock_s=%.2f failures=%d",
        tag, matrix.wall_clock_s, len(matrix.failures),
    )
    if artifact_dir is not None:
        matrix.write_artifact(artifact_dir)
    if strict and matrix.failures:
        raise MatrixFailure(matrix.failures)
    return matrix


# ----------------------------------------------------------------------
# Canned scenario sets
# ----------------------------------------------------------------------
def cheap_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """Everything that runs without training a victim model."""
    scale = scale or Scale.quick()
    return [
        Scenario("fig1b-trh", "fig1b", scale),
        Scenario("fig5-isa", "fig5", scale),
        Scenario("sec4d-montecarlo", "sec4d", scale, seed=0,
                 params=(("trials", 4000),)),
        Scenario("table1-overhead", "table1", scale),
        Scenario("fig7a-latency", "fig7a", scale),
        Scenario("fig7b-defense-days", "fig7b", scale),
        Scenario("rowclone-savings", "rowclone", scale),
        Scenario("ablation-radius", "ablation_radius", scale),
        Scenario("ablation-layout", "ablation_layout", scale),
        Scenario("ablation-relock", "ablation_relock", scale, seed=0),
    ]


def smoke_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The CI smoke matrix: every cheap scenario plus one trained-victim
    end-to-end (Fig. 8, ResNet-20) and the defense-campaign sweep."""
    scale = scale or Scale.quick()
    defenses = ("None", "PARA", "Graphene", "DRAM-Locker")
    return (
        cheap_scenarios(scale)
        + [
            Scenario(
                f"campaign-{name}", "defense_campaign", scale, seed=0,
                params=(("defense", name),),
            )
            for name in defenses
        ]
        + [
            Scenario("fig8-resnet20", "fig8", scale, seed=0,
                     params=(("arch", "resnet20"),)),
        ]
    )


def quick_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The full quick-scale reproduction matrix (all trained victims)."""
    scale = scale or Scale.quick()
    return smoke_scenarios(scale) + [
        Scenario("fig8-vgg11", "fig8", scale, seed=0,
                 params=(("arch", "vgg11"),)),
        Scenario("fig1a-bfa-vs-random", "fig1a", scale, seed=0),
        Scenario("pta-page-table", "pta", scale, seed=0),
        Scenario("table2-software-defenses", "table2", scale, seed=0,
                 params=(("flip_budget", 30),)),
    ]


#: Attack-specific parameter overrides for the canned attack matrix.
#: ``iterations`` keeps one flip-budget across families so the matrix
#: compares like with like; targeted attacks aim class 1 -> 0.
_ATTACK_MATRIX_PARAMS: dict[str, tuple[tuple[str, Any], ...]] = {
    "bfa": (),
    "random": (),
    "pta": (("iterations", 6),),
    "tbfa-n-to-1": (("target_class", 0),),
    "tbfa-1-to-1": (("target_class", 0), ("source_class", 1)),
    "tbfa-stealthy": (("target_class", 0), ("source_class", 1)),
    "backdoor": (("target_class", 0),),
    "multi-round-bfa": (("rounds", 3),),
}


def attack_scenarios(
    scale: Scale | None = None,
    arch: str = "resnet20",
    iterations: int = 10,
    attacks: Sequence[str] | None = None,
) -> list[Scenario]:
    """Every registered attack, with and without DRAM-Locker.

    All scenarios pin ``seed=0`` so they share one trained victim --
    the matrix is the showcase (and the benchmark) for the
    trained-victim cache: N attack cells, one training run.
    """
    scale = scale or Scale.quick()
    names = list(attacks) if attacks is not None else available_attacks()
    scenarios = []
    for name in names:
        extra = _ATTACK_MATRIX_PARAMS.get(name, ())
        if not any(key == "iterations" for key, _ in extra):
            extra = (("iterations", iterations),) + extra
        for protected in (False, True):
            suffix = "locked" if protected else "open"
            scenarios.append(
                Scenario(
                    f"attack-{name}-{suffix}",
                    "attack",
                    scale,
                    seed=0,
                    params=(
                        ("attack", name),
                        ("arch", arch),
                        ("protected", protected),
                    )
                    + extra,
                )
            )
    return scenarios


def serving_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The serving matrix: tenants x defense x colocation x channels.

    Every cell is training-free (bit victims) and seconds-scale; the
    channel sweep under each defense is what ``bench_serving.py``
    times, and the colocation/tenant sweeps probe the SLA story
    (blocked share, exposure windows, tail latency under attack).
    """
    scale = scale or Scale.quick()

    def cell(name: str, **params) -> Scenario:
        return Scenario(
            name, "serving", scale,
            params=tuple(sorted(params.items())),
        )

    scenarios = [
        # Channel scaling under the two headline defenses, attacker on.
        cell(f"serving-{defense.lower().replace('/', '-')}-ch{channels}",
             defense=defense, channels=channels)
        for defense in ("None", "DRAM-Locker")
        for channels in (1, 2, 4)
    ]
    scenarios += [
        # Baseline-defense contenders at two channels.
        cell("serving-trr-ch2", defense="TRR", channels=2),
        cell("serving-graphene-ch2", defense="Graphene", channels=2),
        # Attacker-colocation off: the pure multi-tenant SLA baseline.
        cell("serving-locker-solo-ch1", defense="DRAM-Locker",
             channels=1, colocated=False),
        cell("serving-locker-solo-ch4", defense="DRAM-Locker",
             channels=4, colocated=False),
        # Tenant-count sweep (Zipf contention) and a bursty arrival cell.
        cell("serving-locker-tenants2-ch2", defense="DRAM-Locker",
             channels=2, tenants=2),
        cell("serving-locker-tenants8-ch2", defense="DRAM-Locker",
             channels=2, tenants=8),
        cell("serving-locker-bursty-ch2", defense="DRAM-Locker",
             channels=2, arrival="bursty"),
        # Event-queue serving drive: payloads must match the bulk
        # cells above bit-for-bit (tests/test_engine_equivalence.py
        # pins the contract; these cells keep it exercised nightly).
        cell("serving-locker-events-ch4", defense="DRAM-Locker",
             channels=4, engine="events"),
        cell("serving-none-events-ch4", defense="None",
             channels=4, engine="events"),
    ]
    return scenarios


def serving_live_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The live-frontend matrix: replay equivalence plus overload.

    Two equivalence cells pin replay == closed loop under both
    execution engines; the overload triplet compresses arrivals 2x on
    a solo cell and compares no admission vs pressure shedding vs a
    token bucket; the last two put the attacker back (admitted cell)
    and exercise dynamic channel scaling under block policy.
    ``benchmarks/bench_serving_live.py`` records the same story with
    wall-clock pacing on top.
    """
    scale = scale or Scale.quick()

    def cell(name: str, **params) -> Scenario:
        return Scenario(
            name, "serving_live", scale,
            params=tuple(sorted(params.items())),
        )

    return [
        cell("live-replay-equiv-ch2", channels=2, verify=True),
        cell("live-replay-equiv-events-ch2", channels=2,
             engine="events", verify=True),
        cell("live-overload2x-open", colocated=False, overload=2.0),
        cell("live-overload2x-pressure", colocated=False, overload=2.0,
             admission="pressure"),
        cell("live-overload2x-token", colocated=False, overload=2.0,
             admission="token"),
        cell("live-colocated-admitted-ch2", channels=2, overload=2.0,
             admission="pressure"),
        cell("live-scaling-block", colocated=False, overload=2.0,
             policy="block", scaling_channels=2),
    ]


#: The bake-off's defense contenders (prevention vs detect-and-recover).
BAKEOFF_DEFENSES = ("None", "DRAM-Locker", "RADAR", "DNN-Defender")


def bakeoff_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The defense bake-off: attack registry x defense family, plus
    serving-overhead cells and the chaos cell.

    Three blocks.  (1) Every registered attack against every contender
    -- the protection axis, one shared cached victim.  (2) Serving
    cells (model victim + health monitor, no injection) per defense
    across a channel sweep -- the SLA-overhead axis.  (3) The chaos
    cell: RADAR with deterministic weight corruption injected mid-run,
    which must be detected (100 %) and recovered to near-clean
    accuracy -- ``benchmarks/bench_bakeoff.py`` gates exactly that.
    """
    scale = scale or Scale.quick()

    def slug(defense: str) -> str:
        return defense.lower().replace("/", "-")

    def cell(name: str, **params) -> Scenario:
        return Scenario(
            name, "defense_bakeoff", scale, seed=0,
            params=tuple(sorted(params.items())),
        )

    scenarios = [
        cell(
            f"bakeoff-{attack}-{slug(defense)}",
            attack=attack, defense=defense,
            **dict(_ATTACK_MATRIX_PARAMS.get(attack, ())),
        )
        for attack in available_attacks()
        for defense in BAKEOFF_DEFENSES
    ]
    scenarios += [
        cell(
            f"bakeoff-serving-{slug(defense)}-ch{channels}",
            attack="none", defense=defense, channels=channels,
            serving=True,
        )
        for defense in BAKEOFF_DEFENSES
        for channels in (1, 2)
    ]
    scenarios.append(
        cell(
            "bakeoff-chaos-radar",
            attack="none", defense="RADAR", serving=True,
            inject_slice=6, inject_rows=2,
        )
    )
    return scenarios


_SCENARIO_SETS = {
    "cheap": cheap_scenarios,
    "smoke": smoke_scenarios,
    "quick": quick_scenarios,
    "attacks": attack_scenarios,
    "serving": serving_scenarios,
    "serving-live": serving_live_scenarios,
    "bakeoff": bakeoff_scenarios,
}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.eval.harness")
    parser.add_argument(
        "--set", dest="scenario_set", default="smoke",
        choices=sorted(_SCENARIO_SETS),
        help="which canned scenario matrix to run",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--tag", type=artifact_tag, default=None)
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument(
        "--full", action="store_true", help="near-paper scale"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="dump per-scenario cProfile stats (profile_<name>.pstats) "
             "into the artifact directory (requires --out)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)
    if args.profile and args.out is None:
        parser.error("--profile requires --out (the stats land there)")

    scale = Scale.full() if args.full else Scale.quick()
    scenarios = _SCENARIO_SETS[args.scenario_set](scale)
    if args.list:
        for scenario in scenarios:
            print(
                f"{scenario.name:32s} runner={scenario.runner:18s} "
                f"seed={scenario.resolved_seed(args.base_seed)}"
            )
        return 0

    tag = args.tag or args.scenario_set
    # The attack matrix shares one trained victim across every cell:
    # building it in the parent ships the arrays to workers instead of
    # having the first worker per process rebuild it.
    prewarm = (
        attack_prewarm(scale) if args.scenario_set == "attacks" else None
    )
    matrix = run_matrix(
        scenarios,
        workers=args.workers,
        base_seed=args.base_seed,
        tag=tag,
        artifact_dir=args.out,
        profile_dir=args.out if args.profile else None,
        prewarm=prewarm,
    )
    for result in matrix.results:
        status = "ok" if result.ok else "FAILED"
        print(f"{result.name:32s} {status:7s} {result.wall_clock_s:8.2f}s")
    print(
        f"total {matrix.wall_clock_s:.2f}s across {matrix.workers} worker(s)"
        f" (pool startup {matrix.pool_startup_s:.2f}s,"
        f" prewarm {matrix.prewarm_s:.2f}s)"
    )
    if matrix.artifact_path:
        print(f"artifact: {matrix.artifact_path}")
    if matrix.failures:
        for failure in matrix.failures:
            print(f"\n--- {failure.name} ---\n{failure.error}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
