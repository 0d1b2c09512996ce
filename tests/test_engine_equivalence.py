"""The engine-equivalence contract, end to end.

``docs/ARCHITECTURE.md`` documents the contract; this suite enforces
it across the grid the fast ACT-run path must survive: every
registered defense, locker unlock-SWAP windows (including swap-failure
RNG draws), refresh-tick edge alignment, multi-channel serving cells,
and generated request streams.  "Identical" means bit-identical --
``RequestResult`` fields, the float accumulators in ``MemoryStats``,
hammer counters, locker and defense bookkeeping, and whole serving
payloads.  ``engine="events"`` runs the same controller code as
``bulk``; its parametrizations pin that alias.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller import Kind, MemRequest, MemoryController, RequestRun
from repro.controller.controller import ENGINES
from repro.defenses import NoDefense
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
from repro.locker import DRAMLocker, LockerConfig
from repro.serving import ServingConfig, ServingSimulation

#: Every table name that installs a ``Defense``, and ``"None"`` as
#: ``NoDefense`` (the table installs nothing for it), so its bulk hooks
#: stay in the grid.
DEFENSE_FACTORIES = {
    name: builder or NoDefense
    for name, builder in DEFENDED_HAMMER_DEFENSES.items()
    if name != "DRAM-Locker"
}
DEFENSE_NAMES = list(DEFENSE_FACTORIES)

FAST_ENGINES = [engine for engine in ENGINES if engine != "scalar"]


# ----------------------------------------------------------------------
# Controller-level grid: defense x locker x engines
# ----------------------------------------------------------------------
def _build(engine, *, defense_name=None, protected=False, trh=100,
           relock_interval=150):
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=3, weak_cell_fraction=1e-4)
    device = DRAMDevice(config, vulnerability=vulnerability, trh=trh)
    locker = None
    if protected:
        locker = DRAMLocker(
            device,
            LockerConfig(
                copy_error_rate=0.05,
                relock_interval=relock_interval,
                seed=7,
            ),
        )
        locker.lock_rows([9, 11, 21])
    defense = (
        DEFENSE_FACTORIES[defense_name]() if defense_name else None
    )
    controller = MemoryController(
        device, defense=defense, locker=locker, engine=engine
    )
    device.vulnerability.register_template(10, [3])
    return device, controller, locker, defense


def _adversarial_stream():
    """Unlock-SWAP openers (privileged reads of locked rows), hammering
    inside and outside the exposure windows, relock deadlines crossed
    mid-run, and long undefended bursts that fuse across ticks."""
    requests = []
    for _ in range(3):
        requests.append(MemRequest(Kind.READ, 21, privileged=True))
        requests += [MemRequest(Kind.ACT, 21) for _ in range(60)]
        for aggressor in (9, 11):
            requests += [MemRequest(Kind.ACT, aggressor) for _ in range(130)]
        requests.append(MemRequest(Kind.WRITE, 33, size=256, privileged=True))
        requests += [MemRequest(Kind.ACT, 50) for _ in range(400)]
    return requests


def _device_state(device):
    return (
        device.stats.as_dict(),
        device.now_ns,
        device.rowhammer.counters,
        device.refresh.cursor,
        device.refresh.next_ref_ns,
        [device.peek_row(row).tobytes() for row in (9, 10, 11, 21, 50)],
    )


def _locker_state(locker):
    if locker is None:
        return None
    return (
        locker.table.lookups,
        locker.table.hits,
        locker.rw_instructions,
        locker.blocked_requests,
        locker.exposed,
        locker.swap_engine.rng.bit_generator.state,
    )


def _result_fields(results):
    return [
        (r.status, r.latency_ns, r.defense_ns, r.row_hit, r.swapped,
         tuple(r.flips))
        for r in results
    ]


def _run(engine, requests=None, **kwargs):
    if requests is None:
        requests = _adversarial_stream()
    device, controller, locker, defense = _build(engine, **kwargs)
    if engine == "scalar":
        results = [controller.execute(request) for request in requests]
    else:
        results = controller.execute_batch(requests)
    defense_ns = defense.mitigation_ns_total if defense else None
    return (
        _result_fields(results),
        _device_state(device),
        _locker_state(locker),
        defense_ns,
    )


@pytest.mark.parametrize("name", DEFENSE_NAMES)
def test_all_engines_agree_per_defense(name):
    reference = _run("scalar", defense_name=name)
    for engine in FAST_ENGINES:
        assert _run(engine, defense_name=name) == reference, engine


@pytest.mark.parametrize("relock_interval", [90, 150, 1000])
def test_all_engines_agree_across_unlock_swap_windows(relock_interval):
    """Exposure windows opened by privileged reads, restore deadlines
    crossed mid-hammer-run, and the swap-failure RNG stream (drawn at
    execution) must line up across all three engines."""
    reference = _run(
        "scalar", protected=True, relock_interval=relock_interval
    )
    assert reference[2] is not None and reference[2][0] > 0
    for engine in FAST_ENGINES:
        state = _run(engine, protected=True, relock_interval=relock_interval)
        assert state == reference, engine


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_refresh_tick_edge_alignment(engine):
    """ACT-run lengths that end one step before, exactly on, and one
    step after a refresh tick (and spanning several ticks) -- the
    boundary cases the fused epoch's searchsorted discipline must get
    exactly right."""
    probe_device, probe_controller, _, _ = _build("scalar", trh=10**6)
    step_ns = probe_device.timing.trc
    quiet = probe_device.refresh.quiet_steps(probe_device.now_ns, step_ns)
    for count in (quiet - 1, quiet, quiet + 1, quiet + 2, 4 * quiet + 3):
        device_a, controller_a, _, _ = _build("scalar", trh=10**6)
        run = RequestRun(MemRequest(Kind.ACT, 50, privileged=False), count)
        for request in run:
            controller_a.execute(request)
        device_b, controller_b, _, _ = _build(engine, trh=10**6)
        controller_b.execute_run(run.request, count)
        assert _device_state(device_a) == _device_state(device_b), count


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_trh_crossing_alignment(engine):
    """Run lengths straddling the RowHammer threshold: the crossing ACT
    must run scalar in every engine, with identical flip outcomes."""
    for count in (63, 64, 65, 200):
        device_a, controller_a, _, _ = _build("scalar", trh=64)
        for _ in range(count):
            controller_a.execute(MemRequest(Kind.ACT, 9, privileged=False))
        device_b, controller_b, _, _ = _build(engine, trh=64)
        controller_b.execute_run(
            MemRequest(Kind.ACT, 9, privileged=False), count
        )
        assert _device_state(device_a) == _device_state(device_b), count


# ----------------------------------------------------------------------
# Generated streams: scalar vs bulk on random boundary-straddling runs
# ----------------------------------------------------------------------
#: ACTs between refresh ticks on a fresh tiny device at one tRC per ACT.
_PROBE = _build("scalar")[0]
_QUIET = _PROBE.refresh.quiet_steps(_PROBE.now_ns, _PROBE.timing.trc)
_TRHS = (64, 100)
_RELOCKS = (90, 150)
#: Run lengths one step either side of each boundary kind.
_EDGES = sorted(
    {
        edge + delta
        for edge in (_QUIET, 2 * _QUIET, *_TRHS, *_RELOCKS)
        for delta in (-1, 0, 1)
    }
)


@st.composite
def _streams(draw):
    """Segments of same-row ACT runs (aggressors of the templated
    victim, locked rows, a free row) and privileged reads that open
    unlock-SWAP windows."""
    requests = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 3)) == 0:
            row = draw(st.sampled_from((9, 11, 21, 33)))
            requests.append(MemRequest(Kind.READ, row, privileged=True))
            continue
        row = draw(st.sampled_from((9, 10, 11, 21, 50)))
        privileged = draw(st.integers(0, 7)) == 0
        length = draw(
            st.one_of(st.sampled_from(_EDGES), st.integers(2, 2 * _QUIET))
        )
        requests += [
            MemRequest(Kind.ACT, row, privileged=privileged)
            for _ in range(length)
        ]
    return requests


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    requests=_streams(),
    defense_name=st.sampled_from([None, *DEFENSE_NAMES]),
    protected=st.booleans(),
    trh=st.sampled_from(_TRHS),
    relock_interval=st.sampled_from(_RELOCKS),
)
def test_generated_streams_scalar_matches_bulk(
    requests, defense_name, protected, trh, relock_interval
):
    setup = dict(
        defense_name=defense_name,
        protected=protected,
        trh=trh,
        relock_interval=relock_interval,
    )
    reference = _run("scalar", requests, **setup)
    assert _run("bulk", requests, **setup) == reference


# ----------------------------------------------------------------------
# Serving grid: defense x channels x engines, whole payloads
# ----------------------------------------------------------------------
def _serving_payload(engine, defense, channels):
    payload = ServingSimulation(
        ServingConfig(
            tenants=3,
            channels=channels,
            slices=8,
            ops_per_slice=4.0,
            colocated=True,
            engine=engine,
            seed=1,
            defense=defense,
        ),
    ).run()
    payload["config"].pop("engine")
    return payload


@pytest.mark.parametrize("channels", [1, 2, 4])
@pytest.mark.parametrize("defense", ["None", "DRAM-Locker"])
def test_serving_payloads_identical_across_engines(defense, channels):
    reference = _serving_payload("scalar", defense, channels)
    for engine in FAST_ENGINES:
        assert _serving_payload(engine, defense, channels) == reference, engine


def test_serving_baseline_defense_events_matches_bulk():
    # One baseline-defense cell (chunked fallback inside the events
    # engine) at the full three-engine depth.
    reference = _serving_payload("scalar", "TRR", 2)
    for engine in FAST_ENGINES:
        assert _serving_payload(engine, "TRR", 2) == reference, engine
