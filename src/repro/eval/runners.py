"""Scenario runners: what each :class:`~repro.eval.harness.Scenario`
runner name executes.

A runner takes ``(scale, seed, **params)`` and returns the cell's
JSON-able payload, a pure function of its arguments.
:func:`repro.eval.harness.run_scenario` looks runners up by name in
:data:`SCENARIO_RUNNERS`; registering a new one is adding an entry.

Runners reach ``build_victim``, ``build_system`` and ``run_attack``
through :mod:`repro.eval.experiments` at call time, so a patch of those
names there reaches every cell.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from ..attacks.hammer import HammerDriver
from ..defenses.builders import DEFENSE_BUILDERS
from ..defenses.stack import build_stack
from ..engines import resolve_engine
from . import experiments
from .experiments import Scale
from .faults import ChannelFault

__all__ = ["SCENARIO_RUNNERS"]

#: The templated bit every DRAM-level campaign hammers at.
_VICTIM_BIT = 5

#: Sojourn-p99 target of a live cell's pressure admission and channel
#: scaling, as a multiple of the uncompressed baseline's p99.
_LIVE_P99_TARGET_FACTOR = 4.0


def _seeded(run: Callable[..., dict]) -> Callable[..., dict]:
    """The runner of ``run(scale=..., **params)``: the cell's seed
    becomes the scale's."""

    def runner(scale: Scale, seed: int, **params) -> dict:
        return run(scale=replace(scale, seed=seed), **params)

    return runner


def _run_sec4d(scale: Scale, seed: int, trials: int = 10_000) -> dict:
    return {"rows": experiments.run_sec4d_montecarlo(trials=trials)}


def _run_relock_ablation(scale: Scale, seed: int, **params) -> dict:
    results = experiments.run_relock_ablation(seed=seed, **params)
    return {str(interval): stats for interval, stats in results.items()}


def _run_radius_ablation(scale: Scale, seed: int) -> dict:
    return {
        str(radius): out
        for radius, out in experiments.run_radius_ablation().items()
    }


def _run_layout_ablation(scale: Scale, seed: int) -> dict:
    return {
        ("guard-rows" if guard else "contiguous"): stats
        for guard, stats in experiments.run_layout_ablation().items()
    }


def _run_defense_campaign(
    scale: Scale, seed: int, defense: str = "None", trh: int = 400
) -> dict:
    """Double-sided hammering of one templated bit under one defense,
    a :data:`~repro.defenses.builders.DEFENSE_BUILDERS` name -- the
    per-contender unit of ``examples/compare_defenses.py``."""
    device, locker, baseline, controller = build_stack(
        defense, DEFENSE_BUILDERS, trh=trh
    )
    victim = device.mapper.row_index((0, 0, 20))
    if locker is not None:
        locker.protect([victim])
    device.vulnerability.register_template(victim, [_VICTIM_BIT])
    flipped = False
    for _ in range(3 * trh):
        for aggressor in device.mapper.neighbors(victim):
            controller.hammer(aggressor)
            if device.peek_bytes(victim, 0, 1)[0] >> _VICTIM_BIT & 1:
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
    vs bulk.  ``defense`` is a
    :data:`~repro.defenses.builders.DEFENDED_HAMMER_DEFENSES` name.
    Deterministic for fixed parameters; the payload carries no
    wall-clock, so engines must agree bit-for-bit."""
    device, locker, baseline, controller = build_stack(
        defense, trh=trh, engine=engine
    )
    victim_rows = [
        device.mapper.row_index((0, 0, 15 + 6 * index))
        for index in range(victims)
    ]
    if locker is not None:
        locker.protect(victim_rows)
    driver = HammerDriver(controller, patience=patience)

    outcomes = []
    for row in victim_rows:
        outcome = driver.hammer_bit(row, victim_bit=_VICTIM_BIT)
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
    victim: str = "bits",
    engine: str = "bulk",
    fault_channel: int = -1,
    fault_slice: int = 0,
) -> dict:
    """One serving cell: multi-tenant traffic on a sharded system.

    The payload is a pure function of the parameters and ``seed`` (all
    arrival/popularity/swap-failure RNG streams are name-derived), so
    serving cells keep the matrix's worker-count invariance.  With
    ``victim="model"`` a trained quick-scale ResNet-20 victim (shared
    through the victim cache) resides on channel 0 and its accuracy is
    measured before/after the co-located campaign.

    ``defense`` is installed on every channel as
    :class:`~repro.serving.ServingSimulation` installs
    ``config.defense``; the payload's ``config`` section keeps the
    config's default name (``"DRAM-Locker"``) whatever ran, and its
    top-level ``"defense"`` names what did.

    ``fault_channel >= 0`` fails that channel (a deterministic
    :class:`~repro.eval.faults.ChannelFault`, activating at the
    boundary closing ``fault_slice``); the payload then carries a
    ``"fault"`` section with the conservation tally.
    """
    from ..serving import ServingConfig, ServingSimulation

    model_victim = None
    if victim == "model":
        model_victim = experiments.build_victim(
            "resnet20", replace(scale, seed=0)
        )
    elif victim != "bits":
        raise ValueError(f"unknown victim shape {victim!r}")
    config = ServingConfig(
        tenants=tenants,
        channels=channels,
        slices=slices,
        ops_per_slice=ops_per_slice,
        arrival=arrival,
        colocated=colocated,
        engine=engine,
        seed=seed,
    )
    fault = None
    if fault_channel >= 0:
        fault = ChannelFault(channel=fault_channel, at_slice=fault_slice)
    payload = ServingSimulation(
        config, defense=defense, model_victim=model_victim, fault=fault
    ).run()
    payload["defense"] = defense
    return payload


def _run_serving_live(
    scale: Scale,
    seed: int,
    channels: int = 1,
    colocated: bool = True,
    policy: str = "row",
    engine: str = "bulk",
    verify: bool = False,
    overload: float = 1.0,
    admission: str = "none",
    scaling_channels: int = 0,
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
    4x the uncompressed baseline), or ``"token"`` (per-tenant token
    bucket at the base offered rate).  ``scaling_channels`` turns on
    dynamic channel scaling (block policy only) with the same sojourn
    target.
    """
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
        channels=channels,
        colocated=colocated,
        policy=policy,
        engine=engine,
        seed=seed,
    )
    base_trace = record_serving_trace(base_config)
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
            target_ns = base_sojourn * _LIVE_P99_TARGET_FACTOR
        admission_config = None
        if admission == "pressure":
            admission_config = AdmissionConfig(p99_target_ns=target_ns)
        elif admission == "token":
            admission_config = AdmissionConfig(
                rate=base_config.ops_per_slice / base_trace.slice_duration_s
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
    payload["defense"] = base_config.defense
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
    from ..serving import HealthConfig, ServingConfig, ServingSimulation

    victim_scale = replace(scale, seed=0)
    payload: dict = {
        "defense": defense,
        "attack": attack,
        "channels": channels,
        "arch": arch,
    }
    if attack != "none":
        payload["attack_phase"] = experiments.run_attack_scenario(
            scale=victim_scale,
            attack=attack,
            arch=arch,
            defense=defense,
            iterations=iterations,
            **attack_params,
        )
    if serving:
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
        payload["serving_phase"] = ServingSimulation(
            config,
            model_victim=experiments.build_victim(arch, victim_scale),
            health=health,
        ).run()
    return payload


SCENARIO_RUNNERS: dict[str, Callable[..., dict]] = {
    "attack": _seeded(experiments.run_attack_scenario),
    "fig1a": _seeded(experiments.run_fig1a),
    "fig1b": lambda scale, seed: {"rows": experiments.run_fig1b()},
    "fig5": lambda scale, seed: experiments.run_fig5(),
    "sec4d": _run_sec4d,
    "table1": lambda scale, seed: experiments.run_table1(),
    "fig7a": lambda scale, seed: experiments.run_fig7a(),
    "fig7b": lambda scale, seed: experiments.run_fig7b(),
    "fig8": _seeded(experiments.run_fig8),
    "pta": _seeded(experiments.run_pta),
    "table2": _seeded(experiments.run_table2),
    "rowclone": lambda scale, seed: experiments.run_rowclone_savings(),
    "ablation_radius": _run_radius_ablation,
    "ablation_layout": _run_layout_ablation,
    "ablation_relock": _run_relock_ablation,
    "defense_campaign": _run_defense_campaign,
    "defended_hammer": _run_defended_hammer,
    "serving": _run_serving,
    "serving_live": _run_serving_live,
    "defense_bakeoff": _run_defense_bakeoff,
}
