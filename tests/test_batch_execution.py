"""Batch-vs-scalar equivalence: the batched engine's contract.

``MemoryController.execute_batch`` must be observationally identical to
calling ``execute`` in a loop on the same request stream: same
``RequestResult`` fields, same ``MemoryStats`` (bit-for-bit, including
the float energy accumulators), same RowHammer counters, same locker
bookkeeping, same stored bytes.  With a baseline defense installed the
contract extends to the defense itself: same tracker tables, same
mitigation accounting, same RNG stream position.  Summary mode
(``execute_run`` / ``execute_summary``) must leave identical device
state while reducing the stream to one ``RunSummary``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.controller import Kind, MemRequest, MemoryController, RequestRun
from repro.defenses import PARA, NoDefense
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.dram.stats import walk_add, walk_add_many
from repro.defenses.builders import DEFENSE_BUILDERS
from repro.locker import DRAMLocker, LockerConfig


def build_system(
    protected: bool,
    trh: int = 100,
    half_double: float | None = None,
    relock_interval: int = 150,
):
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=3, weak_cell_fraction=1e-4)
    device = DRAMDevice(
        config,
        vulnerability=vulnerability,
        trh=trh,
        half_double_factor=half_double,
    )
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
    controller = MemoryController(device, locker=locker)
    device.vulnerability.register_template(10, [3])
    return device, controller, locker


def adversarial_stream() -> list[MemRequest]:
    """Inference reads, hammering of locked and free rows, unlock-SWAPs,
    writes -- every path the batch engine special-cases, interleaved."""
    requests = []
    for row in range(30, 40):
        requests.append(
            MemRequest(Kind.READ, row, size=512, privileged=True, tag="w")
        )
    for _ in range(3):
        for aggressor in (9, 11):
            requests += [
                MemRequest(Kind.ACT, aggressor) for _ in range(130)
            ]
        requests.append(MemRequest(Kind.READ, 21, privileged=True))
        requests += [MemRequest(Kind.ACT, 21) for _ in range(60)]
        requests.append(MemRequest(Kind.WRITE, 33, size=256, privileged=True))
        requests += [MemRequest(Kind.ACT, 50) for _ in range(250)]
    return requests


def assert_results_equal(scalar_results, batch_results):
    assert len(scalar_results) == len(batch_results)
    for scalar, batch in zip(scalar_results, batch_results):
        assert scalar.status is batch.status
        assert scalar.latency_ns == batch.latency_ns
        assert scalar.defense_ns == batch.defense_ns
        assert scalar.physical_row == batch.physical_row
        assert scalar.row_hit == batch.row_hit
        assert scalar.swapped == batch.swapped
        assert [(f.row, f.bit, f.time_ns) for f in scalar.flips] == [
            (f.row, f.bit, f.time_ns) for f in batch.flips
        ]


@pytest.mark.parametrize("protected", [False, True])
@pytest.mark.parametrize("half_double", [None, 2.5])
def test_batch_equals_scalar(protected, half_double):
    requests = adversarial_stream()

    device_a, controller_a, locker_a = build_system(protected, half_double=half_double)
    scalar_results = [controller_a.execute(r) for r in requests]

    device_b, controller_b, locker_b = build_system(protected, half_double=half_double)
    batch_results = controller_b.execute_batch(requests)

    assert_results_equal(scalar_results, batch_results)
    # Stats identical bit-for-bit, floats included.
    assert device_a.stats.as_dict() == device_b.stats.as_dict()
    assert device_a.now_ns == device_b.now_ns
    assert device_a.rowhammer.counters == device_b.rowhammer.counters
    assert device_a.refresh.cursor == device_b.refresh.cursor
    assert device_a.refresh.next_ref_ns == device_b.refresh.next_ref_ns
    for row in (9, 10, 11, 21, 33, 50):
        assert np.array_equal(device_a.peek_row(row), device_b.peek_row(row))
    if protected:
        assert locker_a.table.snapshot() == locker_b.table.snapshot()
        assert locker_a.table.lookups == locker_b.table.lookups
        assert locker_a.table.hits == locker_b.table.hits
        assert locker_a.rw_instructions == locker_b.rw_instructions
        assert locker_a.blocked_requests == locker_b.blocked_requests
        assert locker_a.unlock_swaps == locker_b.unlock_swaps
        assert locker_a.failed_unlock_swaps == locker_b.failed_unlock_swaps
        assert locker_a.restores == locker_b.restores
        assert locker_a.failed_restores == locker_b.failed_restores
        assert locker_a.exposed == locker_b.exposed


def test_hammer_uses_batch_engine_and_matches_scalar():
    device_a, controller_a, _ = build_system(protected=True)
    scalar = [
        controller_a.execute(MemRequest(Kind.ACT, 9, privileged=False))
        for _ in range(500)
    ]
    device_b, controller_b, _ = build_system(protected=True)
    batched = controller_b.hammer(9, count=500)
    assert_results_equal(scalar, batched)
    assert device_a.stats.as_dict() == device_b.stats.as_dict()


def test_batch_crosses_thresholds_like_scalar():
    """Flips triggered mid-batch land on the same request index."""
    device_a, controller_a, _ = build_system(protected=False, trh=50)
    scalar = [
        controller_a.execute(MemRequest(Kind.ACT, 9, privileged=False))
        for _ in range(120)
    ]
    device_b, controller_b, _ = build_system(protected=False, trh=50)
    batched = controller_b.hammer(9, count=120)
    scalar_flips = [i for i, r in enumerate(scalar) if r.flips]
    batched_flips = [i for i, r in enumerate(batched) if r.flips]
    # The template on row 10 flips exactly at the threshold crossing...
    assert 49 in batched_flips
    # ...and every crossing lands on the same request index as scalar.
    assert scalar_flips == batched_flips
    assert device_b.rowhammer.activation_count(9) == 120
    assert device_a.stats.as_dict() == device_b.stats.as_dict()


def test_blocked_run_skips_array_and_charges_lookup_only():
    device, controller, locker = build_system(protected=True)
    results = controller.hammer(9, count=200)
    assert all(r.blocked for r in results)
    assert device.stats.activates == 0
    assert locker.blocked_requests == 200
    assert device.stats.blocked_requests == 200


def test_results_log_preserved_by_batch():
    _, controller, _ = build_system(protected=True)
    controller.results_log_enabled = True
    stream = [MemRequest(Kind.ACT, 9) for _ in range(10)]
    stream += [MemRequest(Kind.READ, 30, privileged=True)]
    results = controller.execute_batch(stream)
    assert controller.results == results


def test_read_write_burst_runs_match_scalar_loops():
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, weak_cell_fraction=0.0)

    device_a = DRAMDevice(config, vulnerability=vulnerability, trh=500)
    controller_a = MemoryController(device_a)
    device_b = DRAMDevice(config, vulnerability=vulnerability, trh=500)
    controller_b = MemoryController(device_b)

    stream = [
        MemRequest(Kind.WRITE, 5, column=64, size=300, privileged=True),
        MemRequest(Kind.READ, 5, size=config.row_bytes, privileged=True),
        MemRequest(Kind.READ, 5, column=128, size=64),
    ]
    scalar = [controller_a.execute(r) for r in stream]
    batched = controller_b.execute_batch(stream)
    assert_results_equal(scalar, batched)
    assert device_a.stats.as_dict() == device_b.stats.as_dict()
    assert np.array_equal(device_a.peek_row(5), device_b.peek_row(5))


# ----------------------------------------------------------------------
# Sequential-accumulator helpers (the vectorized float walks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "acc,step",
    [
        (0.0, 18.0),
        (1.2, 46.25),
        (1e16, 0.1),  # step partially absorbed by the accumulator
        (3.7e-3, 1e-18),  # step fully absorbed
        (123456.789, 0.0),
        (-5.5, 1.0 / 3.0),
    ],
)
@pytest.mark.parametrize("count", [0, 1, 7, 15, 16, 17, 1000])
def test_walk_add_bitwise_matches_python_fold(acc, step, count):
    expected = acc
    for _ in range(count):
        expected += step
    assert walk_add(acc, step, count) == expected


def test_walk_add_many_bitwise_matches_python_folds():
    rng = np.random.default_rng(11)
    accs = tuple(float(v) for v in rng.normal(scale=1e9, size=6))
    steps = tuple(float(v) for v in rng.random(6) * 50.0)
    for count in (0, 3, 16, 257):
        expected = []
        for acc, step in zip(accs, steps):
            for _ in range(count):
                acc += step
            expected.append(acc)
        assert walk_add_many(accs, steps, count) == tuple(expected)


def test_para_vectorized_draws_match_scalar_stream():
    """numpy's Generator.random(n) must be the same draw sequence as n
    scalar .random() calls -- the PARA bulk planner's equivalence
    argument."""
    scalar_rng = np.random.default_rng(42)
    vector_rng = np.random.default_rng(42)
    scalar = [scalar_rng.random() for _ in range(257)]
    vector = vector_rng.random(257)
    assert scalar == list(vector)
    assert scalar_rng.bit_generator.state == vector_rng.bit_generator.state


# ----------------------------------------------------------------------
# RequestRun: run-length request representation
# ----------------------------------------------------------------------
def test_request_run_is_an_o1_sequence():
    request = MemRequest(Kind.ACT, 9)
    run = RequestRun(request, 5)
    assert len(run) == 5
    assert run[0] is request and run[4] is request and run[-1] is request
    assert len(run[1:3]) == 2
    with pytest.raises(IndexError):
        run[5]
    assert list(run) == [request] * 5


def test_hammer_issues_run_length_requests():
    device_a, controller_a, _ = build_system(protected=False)
    scalar = [
        controller_a.execute(MemRequest(Kind.ACT, 9, privileged=False))
        for _ in range(50)
    ]
    device_b, controller_b, _ = build_system(protected=False)
    batched = controller_b.hammer(9, count=50)
    assert_results_equal(scalar, batched)
    assert device_a.stats.as_dict() == device_b.stats.as_dict()


# ----------------------------------------------------------------------
# Defense-matrix equivalence: every registered defense, three engines
# ----------------------------------------------------------------------
#: Every table name that installs a ``Defense``, and ``"None"`` as
#: ``NoDefense`` (the table installs nothing for it), so its bulk hooks
#: stay under test.
DEFENSE_FACTORIES = {
    name: builder or NoDefense
    for name, builder in DEFENSE_BUILDERS.items()
    if name != "DRAM-Locker"
}
DEFENSE_NAMES = sorted(DEFENSE_FACTORIES)


def build_defended_system(name: str, engine: str, trh: int = 64):
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=5, weak_cell_fraction=1e-4)
    device = DRAMDevice(config, vulnerability=vulnerability, trh=trh)
    defense = DEFENSE_FACTORIES[name]()
    controller = MemoryController(device, defense=defense, engine=engine)
    device.vulnerability.register_template(10, [3])
    device.vulnerability.register_template(49, [2])
    return device, controller, defense


def defended_stream(trh: int = 64) -> list[MemRequest]:
    """Interleaved double-sided bursts, privileged reads, and a long
    single-row run: crosses TRH, defense thresholds, Hydra escalation,
    TWiCE prunes, swap/shuffle periods, and refresh ticks."""
    requests: list[MemRequest] = []
    for _ in range(4):
        for aggressor in (9, 11):
            requests += [MemRequest(Kind.ACT, aggressor)] * (trh // 2 + 7)
        requests.append(MemRequest(Kind.READ, 21, privileged=True))
        requests += [MemRequest(Kind.ACT, 50)] * (2 * trh + 3)
    return requests


def defense_state(defense) -> dict:
    """Every observable a defense carries, in comparable form."""
    state = {
        "mitigation_ns_total": defense.mitigation_ns_total,
        "actions": defense.actions,
        "windows_seen": defense._windows_seen,
    }
    if hasattr(defense, "rng"):
        state["rng"] = defense.rng.bit_generator.state
    if isinstance(defense, PARA):
        state["pending_draws"] = defense.pending_draws()
    for attr in (
        "_counts",
        "_group_counts",
        "_row_counts",
        "_escalated",
        "row_counter_accesses",
        "_since_prune",
        "pruned_entries",
        "_subarray_acts",
        "shuffles_performed",
        "swaps_performed",
        "splits",
    ):
        if hasattr(defense, attr):
            value = getattr(defense, attr)
            state[attr] = value.copy() if hasattr(value, "copy") else value
    if hasattr(defense, "_tables"):
        state["_tables"] = {
            bank: (dict(t.counters), t.decrements, t.observations)
            for bank, t in defense._tables.items()
        }
    if hasattr(defense, "_nodes"):
        state["_nodes"] = {
            key: (node.count, node.split)
            for key, node in defense._nodes.items()
        }
    if hasattr(defense, "permutation"):
        state["permutation"] = dict(defense.permutation._where)
    return state


def assert_devices_equal(device_a, device_b):
    assert device_a.stats.as_dict() == device_b.stats.as_dict()
    assert device_a.now_ns == device_b.now_ns
    assert device_a.rowhammer.counters == device_b.rowhammer.counters
    assert device_a.refresh.cursor == device_b.refresh.cursor
    assert device_a.refresh.next_ref_ns == device_b.refresh.next_ref_ns
    for row in (9, 10, 11, 21, 49, 50, 51):
        assert np.array_equal(device_a.peek_row(row), device_b.peek_row(row))


@pytest.mark.parametrize("name", DEFENSE_NAMES)
def test_defended_batch_matches_scalar(name):
    requests = defended_stream()

    device_a, controller_a, defense_a = build_defended_system(name, "scalar")
    scalar_results = [controller_a.execute(r) for r in requests]

    device_b, controller_b, defense_b = build_defended_system(name, "bulk")
    batch_results = controller_b.execute_batch(requests)

    assert_results_equal(scalar_results, batch_results)
    assert_devices_equal(device_a, device_b)
    assert defense_state(defense_a) == defense_state(defense_b)


@pytest.mark.parametrize("name", DEFENSE_NAMES)
def test_defended_summary_matches_scalar(name):
    requests = defended_stream()

    device_a, controller_a, defense_a = build_defended_system(name, "scalar")
    scalar_results = [controller_a.execute(r) for r in requests]

    device_b, controller_b, defense_b = build_defended_system(name, "bulk")
    summary = controller_b.execute_summary(requests)

    assert_devices_equal(device_a, device_b)
    assert defense_state(defense_a) == defense_state(defense_b)

    # The summary is the in-order reduction of the scalar results.
    assert summary.requested == len(requests)
    assert summary.issued == sum(1 for r in scalar_results if not r.blocked)
    assert summary.blocked == sum(1 for r in scalar_results if r.blocked)
    latency = 0.0
    defense_ns = 0.0
    flips = []
    for result in scalar_results:
        latency += result.latency_ns
        defense_ns += result.defense_ns
        flips.extend(result.flips)
    assert summary.latency_ns == latency
    assert summary.defense_ns == defense_ns
    assert [(f.row, f.bit, f.time_ns) for f in summary.flips] == [
        (f.row, f.bit, f.time_ns) for f in flips
    ]


@pytest.mark.parametrize("name", ["TRR", "Hydra", "Graphene"])
def test_defense_plus_locker_batch_matches_scalar(name):
    """Locker and baseline defense installed together: the bulk engine
    must respect both protection layers' chunk boundaries."""
    requests = defended_stream()

    def build(engine):
        config = DRAMConfig.tiny()
        vulnerability = VulnerabilityMap(
            config, seed=5, weak_cell_fraction=1e-4
        )
        device = DRAMDevice(config, vulnerability=vulnerability, trh=64)
        locker = DRAMLocker(
            device,
            LockerConfig(copy_error_rate=0.05, relock_interval=90, seed=7),
        )
        locker.lock_rows([9, 21])
        defense = DEFENSE_FACTORIES[name]()
        controller = MemoryController(
            device, defense=defense, locker=locker, engine=engine
        )
        device.vulnerability.register_template(10, [3])
        return device, controller, locker, defense

    device_a, controller_a, locker_a, defense_a = build("scalar")
    scalar_results = [controller_a.execute(r) for r in requests]
    device_b, controller_b, locker_b, defense_b = build("bulk")
    batch_results = controller_b.execute_batch(requests)

    assert_results_equal(scalar_results, batch_results)
    assert_devices_equal(device_a, device_b)
    assert defense_state(defense_a) == defense_state(defense_b)
    assert locker_a.table.lookups == locker_b.table.lookups
    assert locker_a.table.hits == locker_b.table.hits
    assert locker_a.rw_instructions == locker_b.rw_instructions
    assert locker_a.blocked_requests == locker_b.blocked_requests
    assert locker_a.exposed == locker_b.exposed


# ----------------------------------------------------------------------
# Generated: scalar == bulk == events across refresh-window boundaries
# ----------------------------------------------------------------------
#: ``None`` is an undefended controller; ``"DRAM-Locker"`` installs the
#: locker in the controller's locker slot, every other name a Defense
#: (``"None"`` the ``NoDefense`` one).
WINDOW_SYSTEMS = [None, *sorted(DEFENSE_BUILDERS)]
#: Rows the first run of a burst hammers: never locked, so every ACT
#: costs at least one tRC and the run reaches the window's last REF.
FREE_ROWS = (10, 11, 49, 50, 51)
HAMMER_ROWS = (9, 10, 11, 21, 49, 50, 51)
#: The row the long gap READs stream from.
GAP_ROW = 100
#: Slack between a gap READ's planned end and the burst's lead, for the
#: defense latency the READ's own ACT may add.
GAP_SLACK_NS = 1000.0


def build_window_system(name, engine, trh):
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=5, weak_cell_fraction=1e-4)
    device = DRAMDevice(config, vulnerability=vulnerability, trh=trh)
    builder = DEFENSE_FACTORIES.get(name)
    defense = builder() if builder is not None else None
    locker = None
    if name == "DRAM-Locker":
        locker = DRAMLocker(
            device,
            LockerConfig(copy_error_rate=0.05, relock_interval=150, seed=7),
        )
        locker.lock_rows([9, 21])
    controller = MemoryController(
        device, defense=defense, locker=locker, engine=engine
    )
    device.vulnerability.register_template(10, [3])
    device.vulnerability.register_template(49, [2])
    return device, controller, defense, locker


def window_gap(device, window: int, lead_ns: float) -> list[MemRequest]:
    """One READ long enough to bring the clock to ``lead_ns`` (plus
    slack) before the REF that completes refresh window ``window``
    (1-based); none if the clock is already past that point."""
    refresh = device.refresh
    timing = device.timing
    refs = -(-device.config.total_rows // refresh.rows_per_ref)
    target = window * refs * timing.trefi - lead_ns - GAP_SLACK_NS
    fixed = timing.trp + timing.trcd + timing.tcl + timing.tbl
    gap = target - device.now_ns - fixed
    if gap < timing.tccd:
        return []
    bursts = 1 + int(gap / timing.tccd)
    return [MemRequest(Kind.READ, GAP_ROW, size=64 * bursts, privileged=True)]


@st.composite
def window_bursts(draw):
    """Bursts that straddle refresh-window ends: each starts ``lead``
    ACTs before the window's last REF with a run of a free row longer
    than the lead, then interleaves runs of other rows (locked ones
    included, some privileged) and privileged reads."""
    bursts = []
    for _ in range(draw(st.integers(2, 3))):
        lead = draw(st.integers(0, 300))
        runs = [
            (
                draw(st.sampled_from(FREE_ROWS)),
                lead + 30 + draw(st.integers(0, 400)),
                False,
            )
        ]
        for _ in range(draw(st.integers(0, 3))):
            row = draw(st.sampled_from(HAMMER_ROWS))
            if draw(st.integers(0, 4)) == 0:
                runs.append((row, 0, True))  # a privileged READ
            else:
                runs.append(
                    (
                        row,
                        draw(st.integers(1, 400)),
                        draw(st.integers(0, 7)) == 0,
                    )
                )
        bursts.append((lead, runs))
    return bursts


def burst_requests(runs) -> list[MemRequest]:
    requests = []
    for row, length, privileged in runs:
        if length == 0:
            requests.append(MemRequest(Kind.READ, row, privileged=True))
        else:
            requests += [MemRequest(Kind.ACT, row, privileged=privileged)] * length
    return requests


def window_state(device, defense, locker) -> dict:
    """Device, refresh walker, defense and locker state, comparable."""
    refresh = device.refresh
    return {
        "stats": device.stats.as_dict(),
        "now_ns": device.now_ns,
        "counters": dict(device.rowhammer.counters),
        "walker": (
            refresh.cursor, refresh.next_ref_ns, refresh.windows_completed
        ),
        "rows": [device.peek_row(row).tobytes() for row in (9, 10, 11, 49, 50)],
        "defense": None if defense is None else defense_state(defense),
        "locker": None if locker is None else (
            locker.table.snapshot(),
            locker.table.lookups,
            locker.table.hits,
            locker.rw_instructions,
            locker.blocked_requests,
            locker.unlock_swaps,
            locker.exposed,
            locker.swap_engine.rng.bit_generator.state,
        ),
    }


def summary_of(results) -> tuple:
    """The in-order reduction a RunSummary holds, from scalar results."""
    latency = defense_ns = 0.0
    flips = []
    for result in results:
        latency += result.latency_ns
        defense_ns += result.defense_ns
        flips.extend(result.flips)
    return (
        sum(1 for r in results if not r.blocked),
        sum(1 for r in results if r.blocked),
        latency,
        defense_ns,
        [(f.row, f.bit, f.time_ns) for f in flips],
    )


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(WINDOW_SYSTEMS),
    trh=st.sampled_from((64, 400, 4096, 10**6)),
    bursts=window_bursts(),
)
# Shrunk counterexamples with the window stop removed from the fused
# epoch: a Counter/Row run of row 10 crosses the REF that completes the
# window, and the ACTs fused past it count into the old window's table.
@example(
    name="Counter/Row", trh=64,
    bursts=[(0, [(10, 30, False)]), (0, [(10, 30, False)])],
)
@example(
    name="Counter/Row", trh=64,
    bursts=[(0, [(10, 55, False)]), (0, [(10, 30, False)])],
)
def test_generated_window_boundaries_all_engines_agree(name, trh, bursts):
    """Runs that cross the REF completing a refresh window: the fused
    epoch must stop before that ACT, so window-scoped defense state
    (count tables, swap budgets, prune lists) resets exactly where the
    scalar loop resets it.  State is compared after every burst: a
    later window reset would otherwise wipe a divergence."""
    scalar = build_window_system(name, "scalar", trh)
    bulk = build_window_system(name, "bulk", trh)
    events = build_window_system(name, "events", trh)
    trc = scalar[0].timing.trc
    for window, (lead, runs) in enumerate(bursts, start=1):
        requests = window_gap(scalar[0], window, lead * trc)
        requests += burst_requests(runs)

        scalar_results = [scalar[1].execute(r) for r in requests]
        bulk_results = bulk[1].execute_batch(requests)
        summary = events[1].execute_summary(requests)

        assert_results_equal(scalar_results, bulk_results)
        assert (
            summary.issued,
            summary.blocked,
            summary.latency_ns,
            summary.defense_ns,
            [(f.row, f.bit, f.time_ns) for f in summary.flips],
        ) == summary_of(scalar_results)
        reference = window_state(scalar[0], *scalar[2:])
        assert window_state(bulk[0], *bulk[2:]) == reference
        assert window_state(events[0], *events[2:]) == reference
    assert scalar[0].refresh.windows_completed >= 2


# ----------------------------------------------------------------------
# Work counts: the committed spans do not grow with the REFs crossed
# ----------------------------------------------------------------------
def defended_run_work(name: str, refs: int) -> tuple[int, int]:
    """(committed spans, scalar steps) of one single-row run of a
    defended bulk controller across ``refs`` refresh ticks, with every
    threshold above the run length and no window completed."""
    config = DRAMConfig.tiny()
    device = DRAMDevice(config, trh=10**6)
    controller = MemoryController(
        device, defense=DEFENSE_FACTORIES[name](), engine="bulk"
    )
    count = int(refs * device.timing.trefi / device.timing.trc)
    controller.results_log_enabled = True  # logs only the scalar steps
    with obs.enabled_scope() as tel:
        controller.execute_run(MemRequest(Kind.ACT, 50), count)
        metrics = tel.metrics.snapshot()["counters"]
    assert device.refresh.windows_completed == 0
    assert device.stats.refreshes >= refs - 1
    spans = sum(
        metrics.get(f"{metric}{{engine=bulk}}", 0)
        for metric in ("controller.fused_epochs", "controller.epoch_leaps")
    )
    return spans, len(controller.results)


@pytest.mark.parametrize("name", ["TRR", "Graphene", "Hydra"])
def test_defended_run_work_does_not_grow_with_refresh_ticks(name):
    """A planned span commits as one fused epoch however many REFs it
    crosses; a per-tick chunk and scalar ACT would show here as work
    that grows with the run, though every equivalence test passes."""
    short = defended_run_work(name, 10)
    long = defended_run_work(name, 40)
    assert long == short
    assert short[0] <= 2 and short[1] <= 2


def test_fused_defended_run_records_defense_time():
    """A run that commits only fused epochs (no epoch leap) still sets
    the ``controller.defense_ns`` gauge: every commit records it."""
    device = DRAMDevice(DRAMConfig.tiny(), trh=2000)
    controller = MemoryController(
        device, defense=DEFENSE_FACTORIES["Hydra"](), engine="bulk"
    )
    with obs.enabled_scope() as tel:
        controller.execute_run(MemRequest(Kind.ACT, 50), 3000)
        snapshot = tel.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["controller.fused_epochs{engine=bulk}"] > 0
    assert "controller.epoch_leaps{engine=bulk}" not in counters
    gauge = snapshot["gauges"].get("controller.defense_ns{engine=bulk}")
    assert gauge is not None and 0.0 < gauge <= device.stats.defense_ns


def test_hammer_run_blocked_path_is_summary_only():
    device, controller, locker = build_system(protected=True)
    summary = controller.hammer_run(9, count=200)
    assert summary.requested == 200
    assert summary.blocked == 200
    assert summary.issued == 0
    assert summary.flips == []
    assert device.stats.activates == 0
    assert device.stats.blocked_requests == 200
    assert locker.blocked_requests == 200


def test_hammer_run_matches_hammer_reduction():
    device_a, controller_a, _ = build_system(protected=True)
    results = controller_a.hammer(9, count=300)
    device_b, controller_b, _ = build_system(protected=True)
    summary = controller_b.hammer_run(9, count=300)
    assert device_a.stats.as_dict() == device_b.stats.as_dict()
    assert summary.issued == sum(1 for r in results if not r.blocked)
    assert summary.blocked == sum(1 for r in results if r.blocked)
    latency = 0.0
    for result in results:
        latency += result.latency_ns
    assert summary.latency_ns == latency


def test_scalar_engine_is_the_reference_loop():
    requests = defended_stream()
    device_a, controller_a, defense_a = build_defended_system("TRR", "scalar")
    via_batch = controller_a.execute_batch(requests)

    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=5, weak_cell_fraction=1e-4)
    device_b = DRAMDevice(config, vulnerability=vulnerability, trh=64)
    defense_b = DEFENSE_FACTORIES["TRR"]()
    controller_b = MemoryController(device_b, defense=defense_b)
    device_b.vulnerability.register_template(10, [3])
    device_b.vulnerability.register_template(49, [2])
    loop = [controller_b.execute(r) for r in requests]

    assert_results_equal(via_batch, loop)
    assert device_a.stats.as_dict() == device_b.stats.as_dict()


def test_engine_validated():
    config = DRAMConfig.tiny()
    device = DRAMDevice(config, trh=64)
    with pytest.raises(ValueError):
        MemoryController(device, engine="turbo")
