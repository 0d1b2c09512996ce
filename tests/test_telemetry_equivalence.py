"""Telemetry is observationally inert, and its streams are deterministic.

The two halves of the :mod:`repro.obs` contract:

* **On/off bit-identity** -- payloads, device/locker state (including
  the swap-engine RNG stream), and SLA fingerprints are identical with
  telemetry enabled vs disabled, across all three engines.  Telemetry
  only *reads* values the simulation already computed.
* **Stream determinism** -- the canonical audit snapshot of a serving
  cell is a pure function of the cell (identical across repeats and
  across the bulk/events engines), and merged matrix metrics are
  invariant to the worker count.
"""

import pytest

from repro import obs
from repro.controller import Kind, MemRequest, MemoryController
from repro.controller.controller import ENGINES
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
from repro.eval.fleet import shutdown_worker_pool
from repro.eval.harness import (
    attack_scenarios,
    run_matrix,
    serving_scenarios,
)
from repro.locker import DRAMLocker, LockerConfig
from repro.serving import HealthConfig, ServingConfig, run_serving


@pytest.fixture(autouse=True)
def _telemetry_disabled_around_each_test():
    """Tests must never leak an enabled instance into each other."""
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# On/off bit-identity: controller grid
# ----------------------------------------------------------------------
def _controller_state(engine, defense_name):
    """Full observable state after an adversarial stream: results,
    device stats, locker bookkeeping, and the swap-RNG stream."""
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=3, weak_cell_fraction=1e-4)
    device = DRAMDevice(config, vulnerability=vulnerability, trh=100)
    locker = DRAMLocker(
        device,
        LockerConfig(copy_error_rate=0.05, relock_interval=150, seed=7),
    )
    locker.lock_rows([9, 11, 21])
    defense = (
        DEFENDED_HAMMER_DEFENSES[defense_name]() if defense_name else None
    )
    controller = MemoryController(
        device, defense=defense, locker=locker, engine=engine
    )
    device.vulnerability.register_template(10, [3])

    requests = []
    for _ in range(3):
        requests.append(MemRequest(Kind.READ, 21, privileged=True))
        requests += [MemRequest(Kind.ACT, 21) for _ in range(60)]
        for aggressor in (9, 11):
            requests += [MemRequest(Kind.ACT, aggressor) for _ in range(130)]
        requests += [MemRequest(Kind.ACT, 50) for _ in range(400)]
    if engine == "scalar":
        results = [controller.execute(request) for request in requests]
    else:
        results = controller.execute_batch(requests)
    return (
        [
            (r.status, r.latency_ns, r.defense_ns, r.row_hit, r.swapped,
             tuple(r.flips))
            for r in results
        ],
        device.stats.as_dict(),
        device.now_ns,
        device.rowhammer.counters,
        [device.peek_row(row).tobytes() for row in (9, 10, 11, 21, 50)],
        locker.table.lookups,
        locker.blocked_requests,
        locker.exposure_windows,
        locker.swap_engine.rng.bit_generator.state,
        defense.mitigation_ns_total if defense else None,
    )


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("defense_name", [None, "TRR", "Graphene"])
def test_controller_state_identical_with_telemetry_on_and_off(
    engine, defense_name
):
    reference = _controller_state(engine, defense_name)
    with obs.enabled_scope() as tel:
        instrumented = _controller_state(engine, defense_name)
    assert instrumented == reference
    # ...and the run was actually observed, not silently skipped.
    assert tel.metrics.snapshot()["updates"] > 0


# ----------------------------------------------------------------------
# On/off bit-identity: whole serving payloads
# ----------------------------------------------------------------------
def _serving_payload(engine, defense):
    return run_serving(
        ServingConfig(
            tenants=3,
            channels=2,
            slices=8,
            ops_per_slice=4.0,
            colocated=True,
            engine=engine,
            seed=1,
            defense=defense,
        ),
        protected=defense == "DRAM-Locker",
    )


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("defense", ["None", "DRAM-Locker"])
def test_serving_payload_identical_with_telemetry_on_and_off(engine, defense):
    reference = _serving_payload(engine, defense)
    with obs.enabled_scope() as tel:
        instrumented = _serving_payload(engine, defense)
    assert instrumented == reference
    assert tel.metrics.snapshot()["updates"] > 0
    if defense == "DRAM-Locker":
        assert len(tel.audit) > 0


# ----------------------------------------------------------------------
# Audit-stream determinism: chaos cell, bulk vs events
# ----------------------------------------------------------------------
def _chaos_audit_snapshot(engine, victim):
    """Canonical audit snapshot of a RADAR serving cell with a
    co-located attacker and a deterministic weight-row corruption
    injected at slice boundary 3."""
    from repro.defenses.builders import resolve_serving_defense

    protected, builder = resolve_serving_defense("RADAR")
    with obs.enabled_scope() as tel:
        payload = run_serving(
            ServingConfig(
                channels=1,
                slices=12,
                ops_per_slice=6.0,
                colocated=True,
                engine=engine,
                seed=0,
                defense="RADAR",
            ),
            protected=protected,
            defense_builder=builder,
            model_victim=victim,
            health=HealthConfig(
                probe_interval=4, quarantine_slices=1, inject_at=(3,)
            ),
        )
    assert payload["health"]["all_injections_detected"]
    return tel.audit.snapshot(), tel.audit.kind_counts()


@pytest.fixture(scope="module")
def chaos_victim():
    from repro.eval.experiments import Scale, build_victim

    return build_victim("resnet20", Scale.quick())


def test_chaos_audit_stream_deterministic_across_repeats(chaos_victim):
    first = _chaos_audit_snapshot("bulk", chaos_victim)
    second = _chaos_audit_snapshot("bulk", chaos_victim)
    assert first == second
    events, kinds = first
    assert events, "chaos cell produced no audit events"
    assert "quarantine" in kinds
    assert [event["seq"] for event in events] == list(range(len(events)))


def test_chaos_audit_stream_identical_bulk_vs_events(chaos_victim):
    bulk_events, bulk_kinds = _chaos_audit_snapshot("bulk", chaos_victim)
    events_events, events_kinds = _chaos_audit_snapshot(
        "events", chaos_victim
    )
    assert events_kinds == bulk_kinds
    assert events_events == bulk_events


# ----------------------------------------------------------------------
# Metrics: worker-count invariance through run_matrix
# ----------------------------------------------------------------------
def _assert_metrics_invariant_to_worker_count(monkeypatch, scenarios):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    # Fresh pool: the workers must fork after REPRO_TELEMETRY is set.
    shutdown_worker_pool(force=True)
    try:
        serial = run_matrix(scenarios, workers=1, tag="obs-serial")
        parallel = run_matrix(scenarios, workers=2, tag="obs-parallel")
    finally:
        shutdown_worker_pool(force=True)
    for result in serial.results + parallel.results:
        assert result.ok, result.error
        assert result.telemetry is not None
    summary_serial = serial.telemetry_summary()
    summary_parallel = parallel.telemetry_summary()
    assert summary_serial["metrics"]["updates"] > 0
    assert summary_parallel == summary_serial


def test_matrix_metrics_invariant_to_worker_count(monkeypatch):
    scenarios = [
        scenario
        for scenario in serving_scenarios()
        if scenario.name in ("serving-none-ch1", "serving-dram-locker-ch1")
    ]
    assert len(scenarios) == 2
    _assert_metrics_invariant_to_worker_count(monkeypatch, scenarios)


def test_attack_matrix_metrics_invariant_to_worker_count(monkeypatch):
    """Serially the locked backdoor cell hits the memo for its clean
    accuracy and trigger; on two workers each cell computes its own.
    The merged metrics must not tell the difference."""
    from repro.eval.experiments import Scale

    scenarios = attack_scenarios(
        Scale(input_hw=8, resnet_width=4, epochs=1, attack_batch=16),
        iterations=1,
        attacks=("backdoor",),
    )
    assert len(scenarios) == 2
    _assert_metrics_invariant_to_worker_count(monkeypatch, scenarios)


def test_telemetry_excluded_from_artifact_payloads(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    scenarios = [
        scenario
        for scenario in serving_scenarios()
        if scenario.name == "serving-none-ch1"
    ]
    matrix = run_matrix(
        scenarios, workers=1, tag="obs-artifact", artifact_dir=str(tmp_path)
    )
    assert matrix.results[0].telemetry is not None
    import json

    with open(matrix.artifact_path, encoding="utf-8") as handle:
        artifact = json.load(handle)
    assert "telemetry" not in json.dumps(artifact)
    assert artifact["meta"]["python"]
    assert "cpu_count" in artifact["meta"]


# ----------------------------------------------------------------------
# Scoping discipline
# ----------------------------------------------------------------------
def test_enabled_scope_restores_disabled_state():
    assert obs.ACTIVE is None
    with obs.enabled_scope() as tel:
        assert obs.ACTIVE is tel
        with obs.enabled_scope() as inner:
            assert obs.ACTIVE is inner
        assert obs.ACTIVE is tel
    assert obs.ACTIVE is None


def test_run_scenario_without_telemetry_records_none(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    from repro.eval.harness import Scenario, run_scenario
    from repro.eval.experiments import Scale

    result = run_scenario(
        Scenario("obs-off-probe", "fig1b", Scale.quick(), seed=0)
    )
    assert result.ok
    assert result.telemetry is None
