"""The live serving frontend: traces, replay equivalence, admission.

Pins the PR's contracts:

* trace round-trips through both on-disk formats bit-exactly;
* an infinite-speedup replay of a recorded trace is bit-identical to
  the closed-loop run -- payloads *and* locker/swap-RNG internals
  (the replay-equivalence contract, docs/SERVING.md);
* admission decisions in replay are deterministic, and every shed op
  is booked (offered == served + shed, mirrored in the SLA books);
* the bounded backlog admits all-or-nothing and the threaded live
  server conserves ops under wall-clock pacing;
* the ``python -m repro.serve`` CLI exit codes;
* the unified ``repro.engines`` validator and its uniform error at
  every adoption site;
* the ``SERVING_LIVE_SCHEMA`` rows of the nightly regression gate.
"""

import dataclasses

import pytest

from repro.attacks.registry import AttackContext
from repro.attacks.session import SearchSession
from repro.controller.controller import MemoryController
from repro.dram.config import DRAMConfig
from repro.dram.device import DRAMDevice
from repro.dram.vulnerability import VulnerabilityMap
from repro.engines import (
    ENGINES,
    EXECUTION_ENGINES,
    SEARCH_ENGINES,
    resolve_engine,
)
from repro.eval.harness import serving_live_scenarios
from repro.eval.regression import compare
from repro.serve import main as serve_main
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    ChannelBacklog,
    ServingConfig,
    ServingSimulation,
    ShardedMemorySystem,
    TenantSink,
    Trace,
    record_serving_trace,
    replay_neutral,
    replay_trace,
    serve,
)
from repro.controller.request import Kind, MemRequest, RequestRun


def _small_config(**overrides) -> ServingConfig:
    defaults = dict(tenants=3, channels=2, slices=6, ops_per_slice=4.0,
                    seed=3)
    defaults.update(overrides)
    return ServingConfig(**defaults)


# ----------------------------------------------------------------------
# Trace format
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    @pytest.mark.parametrize("suffix", ["npz", "jsonl"])
    def test_round_trip(self, tmp_path, suffix):
        config = _small_config()
        trace = record_serving_trace(config)
        path = trace.save(tmp_path / f"trace.{suffix}")
        loaded = Trace.load(path)
        assert loaded == trace
        assert loaded.meta["serving_config"]["seed"] == config.seed
        assert loaded.slice_duration_s == trace.slice_duration_s
        assert len(loaded) == len(trace) > 0
        # Arrivals are sorted within each slice and live inside it.
        for index in range(loaded.slices):
            arrivals = [op.arrival_s for op in loaded.slice_ops(index)]
            assert arrivals == sorted(arrivals)
            for arrival in arrivals:
                assert (
                    index * loaded.slice_duration_s
                    <= arrival
                    < (index + 1) * loaded.slice_duration_s
                )

    def test_unknown_suffix_rejected(self, tmp_path):
        trace = record_serving_trace(_small_config(slices=2))
        with pytest.raises(ValueError, match="suffix"):
            trace.save(tmp_path / "trace.csv")


# ----------------------------------------------------------------------
# Replay equivalence
# ----------------------------------------------------------------------
class TestReplayEquivalence:
    @pytest.mark.parametrize("engine", ["bulk", "events"])
    def test_payload_bit_identical(self, engine):
        config = _small_config(engine=engine)
        trace = record_serving_trace(config)
        closed = ServingSimulation(config).run()
        replayed = serve(config, trace=trace).payload
        assert replay_neutral(replayed) == replay_neutral(closed)
        # The replay payload carries the live section on top.
        assert replayed["live"]["pacing"]["speedup"] == 0.0
        assert replayed["live"]["pacing"]["offered"] == len(trace)

    def test_locker_and_rng_state_identical(self):
        """Bit-identity goes deeper than the payload: per-channel lock
        tables, exposure state, and the swap-failure RNG stream end in
        exactly the state the closed loop leaves them in."""
        config = _small_config()
        trace = record_serving_trace(config)
        closed_sim = ServingSimulation(config)
        closed_sim.run()
        replay_sim = ServingSimulation(config)
        replay_trace(trace, sim=replay_sim)
        for closed_state, replay_state in zip(
            closed_sim.system.channels, replay_sim.system.channels
        ):
            assert (
                closed_state.device.stats.as_dict()
                == replay_state.device.stats.as_dict()
            )
            assert closed_state.device.now_ns == replay_state.device.now_ns
            closed_locker = closed_state.locker
            replay_locker = replay_state.locker
            assert closed_locker is not None
            assert (
                closed_locker.exposure_summary()
                == replay_locker.exposure_summary()
            )
            assert closed_locker._where == replay_locker._where
            assert closed_locker.exposed == replay_locker.exposed
            assert (
                closed_locker.rw_instructions
                == replay_locker.rw_instructions
            )
            assert (
                closed_locker.swap_engine.rng.bit_generator.state
                == replay_locker.swap_engine.rng.bit_generator.state
            )

    def test_events_replay_books_sojourn_like_bulk(self):
        """Replay ops run immediately on every engine, so pressure
        admission reads the same sojourn books under ``events`` as
        under ``bulk``: the whole payload, ``live`` included, matches."""
        config = ServingConfig(channels=2, slices=8, seed=0)
        trace = record_serving_trace(config)
        admission = AdmissionConfig(p99_target_ns=300, min_samples=8)
        payloads = {}
        for engine in ("bulk", "events"):
            result = serve(
                dataclasses.replace(
                    config, engine=engine, admission=admission
                ),
                trace=trace,
            )
            assert result.shed_total > 0
            assert result.sojourn_p99_ns() is not None
            payloads[engine] = result.payload
            payloads[engine]["config"].pop("engine")
        assert payloads["events"] == payloads["bulk"]

    def test_replay_from_file_uses_embedded_config(self, tmp_path):
        config = _small_config()
        trace = record_serving_trace(config)
        path = trace.save(tmp_path / "trace.npz")
        closed = ServingSimulation(config).run()
        replayed = replay_trace(Trace.load(path))
        assert replay_neutral(replayed) == replay_neutral(closed)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def _compressed(self, config, factor=4.0):
        base = record_serving_trace(config)
        return record_serving_trace(
            config, slice_duration_s=base.slice_duration_s / factor
        )

    def test_shedding_deterministic_and_conserved(self):
        config = _small_config(colocated=False, channels=1)
        hot = self._compressed(config)
        admitted = dataclasses.replace(
            config,
            admission=AdmissionConfig(
                rate=12.0 / hot.slice_duration_s, burst=2.0
            ),
        )
        first = serve(admitted, trace=hot).payload
        second = serve(admitted, trace=hot).payload
        assert first == second
        pacing = first["live"]["pacing"]
        assert pacing["shed"] > 0
        assert pacing["offered"] == pacing["served"] + pacing["shed"]
        assert first["live"]["shed_total"] == pacing["shed"]
        booked = sum(
            sum(entry.get("shed", {}).values())
            for entry in first["live"]["tenants"].values()
        )
        assert booked == pacing["shed"]

    def test_pressure_shedding_reduces_sojourn_tail(self):
        config = _small_config(
            colocated=False, channels=1, slices=12, ops_per_slice=6.0
        )
        base = serve(config, trace=record_serving_trace(config))
        target = base.sojourn_p99_ns() * 4.0
        hot = self._compressed(config)
        open_result = serve(config, trace=hot)
        shed_result = serve(
            dataclasses.replace(
                config, admission=AdmissionConfig(p99_target_ns=target)
            ),
            trace=hot,
        )
        assert open_result.sojourn_p99_ns() > target
        assert shed_result.shed_total > 0
        assert shed_result.sojourn_p99_ns() < open_result.sojourn_p99_ns()

    def test_exempt_tenants_never_shed(self):
        sla_books = ServingSimulation(_small_config()).sla
        controller = AdmissionController(
            AdmissionConfig(rate=0.001, burst=1.0, exempt=("tenant-0",)),
            sla_books,
        )
        for step in range(20):
            assert controller.screen("tenant-0", step * 1e-6) is None
        reasons = {
            controller.screen("tenant-1", step * 1e-6) for step in range(20)
        }
        assert "throttled" in reasons

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            AdmissionConfig(rate=0.0)
        with pytest.raises(ValueError, match="shed_fraction"):
            AdmissionConfig(shed_fraction=1.5)
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionConfig(queue_depth=0)


# ----------------------------------------------------------------------
# Bounded backlog + threaded live server
# ----------------------------------------------------------------------
class TestLiveServing:
    def test_backlog_all_or_nothing(self):
        backlog = ChannelBacklog(channels=2, depth=2)
        assert backlog.try_acquire([0, 1])
        assert backlog.try_acquire([0, 1])
        # Channel 0 is full: an op spanning both channels acquires
        # neither, leaving channel 1's count untouched.
        assert not backlog.try_acquire([0, 1])
        assert backlog.outstanding(1) == 2
        backlog.release([0, 1])
        assert backlog.try_acquire([0])
        with pytest.raises(RuntimeError, match="release without acquire"):
            ChannelBacklog(1, 1).release([0])

    def test_live_server_conserves_and_protects(self):
        config = _small_config()
        trace = record_serving_trace(config)
        result = serve(
            dataclasses.replace(config, speedup=1000.0), trace=trace
        )
        pacing = result.live["pacing"]
        assert pacing["offered"] == len(trace)
        assert pacing["offered"] == pacing["served"] + pacing["shed"]
        assert pacing["wall_s"] > 0
        assert result.victim_flip_events == 0


# ----------------------------------------------------------------------
# Non-blocking hand-off
# ----------------------------------------------------------------------
class TestHandoffStream:
    def test_deferred_execution_matches_execute_stream(self):
        config = DRAMConfig.tiny().with_channels(2)
        direct = ShardedMemorySystem(config, seed=0)
        deferred = ShardedMemorySystem(config, seed=0)
        streams = [
            [MemRequest(Kind.READ, row) for row in (1, 5, 9)],
            RequestRun(MemRequest(Kind.ACT, 6), 40),
            [MemRequest(Kind.WRITE, 2, privileged=True)],
        ]
        direct_sink, deferred_sink = TenantSink(), TenantSink()
        thunks = [
            deferred.handoff_stream(stream, deferred_sink)
            for stream in streams
        ]
        for stream in streams:
            direct.execute_stream(stream, direct_sink)
        for thunk in thunks:
            thunk()
        assert direct_sink.summary == deferred_sink.summary
        for direct_state, deferred_state in zip(
            direct.channels, deferred.channels
        ):
            assert (
                direct_state.device.stats.as_dict()
                == deferred_state.device.stats.as_dict()
            )


# ----------------------------------------------------------------------
# Unified engine registry
# ----------------------------------------------------------------------
class TestEngines:
    def test_constants(self):
        assert ENGINES == EXECUTION_ENGINES == ("scalar", "bulk", "events")
        assert SEARCH_ENGINES == ("suffix", "full")
        assert resolve_engine("bulk") == "bulk"
        assert (
            resolve_engine("full", allowed=SEARCH_ENGINES, kind="search")
            == "full"
        )

    def test_uniform_error_at_every_adoption_site(self):
        device = DRAMDevice(
            DRAMConfig.tiny(),
            vulnerability=VulnerabilityMap(
                DRAMConfig.tiny(), weak_cell_fraction=0.0
            ),
        )
        with pytest.raises(ValueError, match="unknown execution engine"):
            resolve_engine("warp")
        with pytest.raises(ValueError, match="unknown execution engine"):
            MemoryController(device, engine="warp")
        with pytest.raises(ValueError, match="unknown execution engine"):
            ServingConfig(engine="warp")
        with pytest.raises(ValueError, match="unknown search engine"):
            SearchSession(MemoryController(device), engine="warp")
        with pytest.raises(ValueError, match="unknown search engine"):
            AttackContext(qmodel=None, dataset=None, engine="warp")


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
class TestServeCLI:
    ARGS = ["--tenants", "3", "--channels", "2", "--slices", "6",
            "--ops-per-slice", "4", "--seed", "3"]

    def test_record_replay_verify(self, tmp_path, capsys):
        out = str(tmp_path / "cli.npz")
        assert serve_main(["record", *self.ARGS, "--out", out]) == 0
        assert serve_main(["replay", out, "--verify"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_verify_with_admission_is_an_error(self, tmp_path):
        out = str(tmp_path / "cli.jsonl")
        assert serve_main(["record", *self.ARGS, "--out", out]) == 0
        assert (
            serve_main(
                ["replay", out, "--verify", "--admission-rate", "5"]
            )
            == 1
        )

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            serve_main([])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["live", "trace.npz"])  # --speedup required
        assert excinfo.value.code == 2

    def test_live_serving_error_exits_3(self, tmp_path, capsys, monkeypatch):
        import repro.serve as serve_module
        from repro.serving import LiveServingError

        out = str(tmp_path / "cli.npz")
        assert serve_main(["record", *self.ARGS, "--out", out]) == 0

        def wedged(config, trace=None):
            raise LiveServingError(
                "channel worker died mid-run",
                {"phase": "executor", "offered": 7, "served": 3},
            )

        monkeypatch.setattr(serve_module, "serve", wedged)
        assert serve_main(["live", out, "--speedup", "1000"]) == 3
        assert "serving error" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Canned set + nightly gate
# ----------------------------------------------------------------------
def _live_artifact() -> dict:
    return {
        "schema": "dram-locker-serving-live-bench/1",
        "replay": {"cells": {
            "bulk-ch2": {"identical": True},
            "events-ch2": {"identical": True},
        }},
        "overload": {"cells": {
            "open": {"sojourn_p99_ns": 12000.0, "shed": 0,
                     "sla_fingerprint": {"requests": 100}},
            "pressure": {"sojourn_p99_ns": 2000.0, "shed": 40,
                         "p99_target_ns": 1500.0, "holds_p99": True,
                         "sla_fingerprint": {"requests": 60}},
        }},
        "colocated": {"victim_flip_events": 0, "shed": 30},
        "live": {"offered": 100, "served": 90, "shed": 10,
                 "conserved": True},
    }


class TestServingLiveGate:
    def test_identical_artifacts_pass(self):
        report = compare(_live_artifact(), _live_artifact())
        assert report.ok and report.checks

    def test_replay_divergence_fails(self):
        current = _live_artifact()
        current["replay"]["cells"]["bulk-ch2"]["identical"] = False
        assert not compare(current, _live_artifact()).ok

    def test_shed_drift_fails(self):
        current = _live_artifact()
        current["overload"]["cells"]["pressure"]["shed"] = 41
        assert not compare(current, _live_artifact()).ok

    def test_fingerprint_drift_fails(self):
        current = _live_artifact()
        current["overload"]["cells"]["open"]["sla_fingerprint"] = {
            "requests": 99
        }
        assert not compare(current, _live_artifact()).ok

    def test_broken_target_fails(self):
        current = _live_artifact()
        current["overload"]["cells"]["pressure"]["holds_p99"] = False
        assert not compare(current, _live_artifact()).ok

    def test_admitted_worse_than_open_fails(self):
        current = _live_artifact()
        current["overload"]["cells"]["pressure"]["sojourn_p99_ns"] = 13000.0
        assert not compare(current, _live_artifact()).ok

    def test_victim_flip_fails(self):
        current = _live_artifact()
        current["colocated"]["victim_flip_events"] = 2
        assert not compare(current, _live_artifact()).ok

    def test_conservation_violation_fails(self):
        current = _live_artifact()
        current["live"]["conserved"] = False
        assert not compare(current, _live_artifact()).ok

    def test_missing_cell_fails(self):
        current = _live_artifact()
        del current["overload"]["cells"]["pressure"]
        assert not compare(current, _live_artifact()).ok

    def test_canned_set_shape(self):
        scenarios = serving_live_scenarios()
        names = [scenario.name for scenario in scenarios]
        assert len(names) == len(set(names)) >= 7
        assert all(
            scenario.runner == "serving_live" for scenario in scenarios
        )
        verified = [
            scenario
            for scenario in scenarios
            if dict(scenario.params).get("verify")
        ]
        engines = {
            dict(scenario.params).get("engine", "bulk")
            for scenario in verified
        }
        assert engines == {"bulk", "events"}
