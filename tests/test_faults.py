"""Deterministic fault injection: worker faults, channel faults, and
the degraded-but-conserving serving paths they exercise.

The acceptance properties from the fleet-orchestration issue:

* a crash-once cell recovers via supervised retry and its payload is
  identical to the fault-free run (faults perturb *scheduling*, never
  results);
* an always-crashing cell quarantines with its attempt history instead
  of poisoning the matrix;
* a hung cell times out, the pool is rebuilt, and sibling cells still
  complete;
* a serving run with an injected channel fault degrades gracefully:
  ``offered == served + shed`` with the ``channel_fault`` shed reason,
  zero victim flips under DRAM-Locker, and the replay-equivalence
  contract still holds under the fault;
* the channel scaler fails over: tenants homed on the failed channel
  are force-spilled onto spares.
"""

import threading

import pytest

from repro.eval.faults import (
    CRASH_EXIT_CODE,
    ChannelFault,
    FaultPlan,
    FaultSpec,
)
from repro.eval.fleet import (
    SupervisorConfig,
    _POOL_STATE,
    shutdown_worker_pool,
)
from repro.eval.harness import Scale, Scenario, run_matrix
from repro.serving import (
    LiveServingError,
    LiveServer,
    ScalingConfig,
    ServingConfig,
    ServingSimulation,
    record_serving_trace,
    replay_neutral,
    replay_trace,
)

QUICK = Scale.quick()

#: Cheap cells for the chaos matrices (sub-second each).
CHAOS_MATRIX = [
    Scenario("chaos-a", "rowclone", QUICK),
    Scenario("chaos-b", "fig7b", QUICK),
    Scenario("chaos-c", "sec4d", QUICK, params=(("trials", 200),)),
]

FAST_SUPERVISE = SupervisorConfig(
    retries=2, backoff_base_s=0.01, poll_interval_s=0.005
)


# ----------------------------------------------------------------------
# FaultPlan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_pinned_cell_first_match_wins(self):
        plan = FaultPlan(
            cells=(
                ("chaos-a", FaultSpec("crash")),
                ("chaos-*", FaultSpec("slow")),
            )
        )
        assert plan.worker_fault("chaos-a", attempt=0).kind == "crash"
        assert plan.worker_fault("chaos-b", attempt=0).kind == "slow"
        assert plan.worker_fault("other", attempt=0) is None

    def test_until_attempt_window(self):
        plan = FaultPlan(
            cells=(("x", FaultSpec("crash", until_attempt=2)),)
        )
        assert plan.worker_fault("x", attempt=0) is not None
        assert plan.worker_fault("x", attempt=1) is not None
        assert plan.worker_fault("x", attempt=2) is None

    def test_rates_are_seeded_and_deterministic(self):
        plan = FaultPlan(seed=7, crash_rate=0.5, slow_rate=0.3)
        names = [f"cell-{i}" for i in range(40)]
        first = [plan.worker_fault(n, 0) and plan.worker_fault(n, 0).kind
                 for n in names]
        second = [plan.worker_fault(n, 0) and plan.worker_fault(n, 0).kind
                  for n in names]
        assert first == second
        assert "crash" in first and None in first  # both bands hit

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meltdown")
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            ChannelFault(channel=0, kind="vanish")
        with pytest.raises(ValueError):
            ChannelFault(channel=-1)


# ----------------------------------------------------------------------
# Worker faults through the supervised matrix
# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_crash_once_recovers_and_results_unchanged(self):
        clean = run_matrix(CHAOS_MATRIX, workers=2, tag="clean")
        plan = FaultPlan(
            cells=(("chaos-b", FaultSpec("crash", until_attempt=1)),)
        )
        chaotic = run_matrix(
            CHAOS_MATRIX,
            workers=2,
            tag="crash-once",
            supervise=FAST_SUPERVISE,
            faults=plan,
        )
        assert chaotic.attempt_log["chaos-b"] == ["worker-lost"]
        assert [r.payload for r in chaotic.results] == [
            r.payload for r in clean.results
        ]
        assert chaotic.as_artifact()["results"] == (
            clean.as_artifact()["results"]
        )

    def test_crash_always_quarantines_without_poisoning_siblings(self):
        plan = FaultPlan(
            cells=(("chaos-a", FaultSpec("crash", until_attempt=99)),)
        )
        matrix = run_matrix(
            CHAOS_MATRIX,
            workers=2,
            tag="crash-always",
            supervise=FAST_SUPERVISE,
            faults=plan,
        )
        by_name = {r.name: r for r in matrix.results}
        victim = by_name["chaos-a"]
        assert victim.quarantined and not victim.ok
        assert victim.attempts == ("worker-lost",) * 3  # retries=2 -> 3
        assert "quarantined after 3 attempt(s)" in victim.error
        assert by_name["chaos-b"].ok and by_name["chaos-c"].ok
        # The pool survives for the next matrix.
        again = run_matrix(CHAOS_MATRIX, workers=2, tag="after-chaos")
        assert all(r.ok for r in again.results)

    def test_hang_times_out_and_siblings_complete(self):
        plan = FaultPlan(
            cells=(
                ("chaos-c", FaultSpec("hang", until_attempt=99,
                                      delay_s=60.0)),
            )
        )
        matrix = run_matrix(
            CHAOS_MATRIX,
            workers=2,
            tag="hang",
            supervise=SupervisorConfig(
                timeout_s=0.6,
                retries=1,
                backoff_base_s=0.01,
                poll_interval_s=0.005,
            ),
            faults=plan,
        )
        by_name = {r.name: r for r in matrix.results}
        hung = by_name["chaos-c"]
        assert hung.quarantined
        assert hung.attempts == ("timeout", "timeout")
        assert by_name["chaos-a"].ok and by_name["chaos-b"].ok

    def test_serial_path_ignores_faults(self):
        # A crash fault on the in-process path would exit the test
        # runner itself; the serial matrix documents that faults are a
        # worker-pool feature and ignores the plan.
        plan = FaultPlan(cells=(("chaos-a", FaultSpec("crash", 99)),))
        matrix = run_matrix(
            CHAOS_MATRIX[:1], workers=1, tag="serial", faults=plan
        )
        assert matrix.results[0].ok

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE != 0


# ----------------------------------------------------------------------
# Pool lifecycle hardening
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_healthy_shutdown_closes_and_resets(self):
        run_matrix(CHAOS_MATRIX[:1], workers=2, tag="pre-shutdown")
        assert _POOL_STATE["pool"] is not None
        shutdown_worker_pool()  # close/join, not terminate
        assert _POOL_STATE["pool"] is None
        assert _POOL_STATE["events"] is None
        assert _POOL_STATE["segments"] == []
        # The next matrix transparently rebuilds.
        matrix = run_matrix(CHAOS_MATRIX[:1], workers=2, tag="rebuilt")
        assert matrix.results[0].ok

    def test_graceful_shutdown_after_worker_loss_does_not_hang(self):
        # A crashed worker leaves its apply_async entry in the pool's
        # result cache forever; a close()+join() shutdown would block
        # in _handle_results waiting for it.  shutdown_worker_pool must
        # detect the abandoned entries and fall back to terminate.
        faults = FaultPlan(
            cells=(("chaos-a", FaultSpec("crash", until_attempt=99)),)
        )
        matrix = run_matrix(
            CHAOS_MATRIX[:2],
            workers=2,
            tag="abandoned",
            supervise=FAST_SUPERVISE,
            faults=faults,
        )
        assert matrix.results[0].quarantined
        done = threading.Event()

        def graceful():
            shutdown_worker_pool()
            done.set()

        worker = threading.Thread(target=graceful, daemon=True)
        worker.start()
        worker.join(timeout=30.0)
        if not done.is_set():
            shutdown_worker_pool(force=True)
            pytest.fail("graceful shutdown hung on abandoned handles")
        assert _POOL_STATE["pool"] is None

    def test_shutdown_releases_segments_without_a_pool(self):
        # The partial-creation contract: segments registered before a
        # Pool() that then failed (pool is None, segments populated)
        # must still be released.
        class FakeSegment:
            closed = unlinked = False

            def close(self):
                self.closed = True

            def unlink(self):
                self.unlinked = True

        shutdown_worker_pool(force=True)
        segment = FakeSegment()
        _POOL_STATE["segments"] = [segment]
        try:
            shutdown_worker_pool()
        finally:
            _POOL_STATE["segments"] = [
                s for s in _POOL_STATE["segments"]
                if not isinstance(s, FakeSegment)
            ]
        assert segment.closed and segment.unlinked
        assert _POOL_STATE["segments"] == []


# ----------------------------------------------------------------------
# Channel faults in the serving stack
# ----------------------------------------------------------------------
def _fault_config(**overrides) -> ServingConfig:
    defaults = dict(
        tenants=3, channels=2, slices=8, ops_per_slice=4.0, seed=0
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestChannelFaults:
    def test_fail_fault_conserves_and_protects(self):
        fault = ChannelFault(channel=1, kind="fail", at_slice=3)
        payload = ServingSimulation(_fault_config(), fault=fault).run()
        section = payload["fault"]
        assert section["active"] and section["failed_channels"] == [1]
        assert section["conserved"]
        assert section["shed_ops"] > 0
        assert (
            section["offered_ops"]
            == section["served_ops"] + section["shed_ops"]
        )
        assert payload["victim"]["victim_flip_events"] == 0
        # Tenant books carry the op sheds; the victim-owner/attacker
        # books record their own skipped slice work under the same
        # reason and are excluded from the op tally.
        booked = sum(
            book.get("shed", {}).get("channel_fault", 0)
            for name, book in payload["sla"]["tenants"].items()
            if name.startswith("tenant-")
        )
        assert booked == section["shed_ops"]

    def test_fault_free_payload_shape_unchanged(self):
        config = _fault_config()
        assert (
            ServingSimulation(config).run()
            == ServingSimulation(config, fault=None).run()
        )
        assert "fault" not in ServingSimulation(config).run()

    def test_replay_equivalence_holds_under_fault(self):
        config = _fault_config(channels=2)
        trace = record_serving_trace(config)
        fault = ChannelFault(channel=1, kind="fail", at_slice=2)
        closed = ServingSimulation(config, fault=fault).run()
        replayed = replay_trace(trace, config=config, fault=fault)
        assert replay_neutral(replayed) == replay_neutral(closed)

    def test_stall_fault_inflates_makespan(self):
        config = _fault_config(channels=2)
        clean = ServingSimulation(config).run()
        stalled = ServingSimulation(
            config,
            fault=ChannelFault(
                channel=0, kind="stall", at_slice=0, stall_ns=5e7
            ),
        ).run()
        assert stalled["makespan_ns"] > clean["makespan_ns"]
        assert stalled["fault"]["kind"] == "stall"
        assert stalled["fault"]["conserved"]

    def test_fault_channel_must_exist(self):
        with pytest.raises(ValueError):
            ServingSimulation(
                _fault_config(channels=2),
                fault=ChannelFault(channel=5),
            )

    def test_scaler_fails_over_homed_tenants(self):
        config = _fault_config(
            channels=2,
            tenants=4,
            policy="block",
            scaling=ScalingConfig(max_channels=4, p99_target_ns=1e6),
        )
        fault = ChannelFault(channel=1, kind="fail", at_slice=2)
        payload = ServingSimulation(config, fault=fault).run()
        scaling = payload["scaling"]
        assert scaling.get("forced"), "no tenant was force-spilled"
        # Spilled replicas are served on spares, not shed wholesale:
        # conservation holds and some ops were still served post-fault.
        assert payload["fault"]["conserved"]
        assert payload["fault"]["served_ops"] > 0


# ----------------------------------------------------------------------
# Live serving under faults and failures
# ----------------------------------------------------------------------
class TestLiveFaults:
    def test_live_run_conserves_under_channel_fault(self):
        config = _fault_config(channels=2)
        trace = record_serving_trace(config)
        fault = ChannelFault(channel=1, kind="fail", at_slice=2)
        sim = ServingSimulation(config, fault=fault)
        speedup = max(trace.duration_s / 0.2, 1e-6)
        server = LiveServer(sim, trace, speedup=speedup)
        payload = server.run()
        pacing = payload["live"]["pacing"]
        assert pacing["offered"] == pacing["served"] + pacing["shed"]
        assert payload["fault"]["conserved"]

    def test_executor_failure_joins_ingestion_and_reports_context(self):
        config = _fault_config(channels=1)
        trace = record_serving_trace(config)
        sim = ServingSimulation(config)

        def explode(*args, **kwargs):
            raise RuntimeError("backend on fire")

        sim.serve_op = explode
        server = LiveServer(sim, trace, speedup=1e6)
        before = threading.active_count()
        with pytest.raises(LiveServingError) as info:
            server.run()
        assert info.value.context["phase"] == "executor"
        assert "backend on fire" in info.value.context["error"]
        assert not info.value.context["ingest_alive"]
        assert threading.active_count() == before  # no leaked thread
