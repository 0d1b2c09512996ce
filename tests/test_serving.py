"""Tier-1 coverage for the multi-tenant serving subsystem.

The three properties the issue pins down, plus the surrounding
plumbing:

* workload-generator determinism (same seed -> same stream; per-tenant
  streams independent of the tenant set, via name-derived seeds);
* streaming-percentile correctness: bit-equality with
  ``numpy.percentile`` on the materialized sample stream;
* single-channel ``ShardedMemorySystem`` equivalence to a bare
  ``MemoryController`` (identical stats, flips, stored bytes, and
  locker state);
* serving-cell determinism across harness worker counts, and the
  channel-scaling / protection acceptance criteria.
"""

import numpy as np
import pytest

from repro.controller.controller import MemoryController
from repro.controller.request import Kind, MemRequest, RequestRun
from repro.dram.config import DRAMConfig
from repro.dram.device import DRAMDevice
from repro.dram.vulnerability import VulnerabilityMap
from repro.eval.harness import Scenario, run_matrix, serving_scenarios
from repro.eval.regression import compare
from repro.locker.locker import DRAMLocker, LockerConfig
from repro.serving import (
    ServingConfig,
    ShardedMemorySystem,
    StreamingPercentiles,
    TenantSink,
    TenantSpec,
    WorkloadConfig,
    WorkloadGenerator,
    make_tenants,
    run_serving,
    zipf_weights,
)


# ----------------------------------------------------------------------
# Workload generator determinism
# ----------------------------------------------------------------------
def _materialize(generator: WorkloadGenerator) -> list[tuple]:
    ops = []
    for _, slice_ops in generator.run():
        for op in slice_ops:
            rows = tuple(request.row for request in op.requests)
            kinds = tuple(request.kind.name for request in op.requests)
            ops.append((op.tenant, op.kind, rows, kinds))
    return ops


def _tenants(count: int = 3) -> list[TenantSpec]:
    return make_tenants(count, rows_first=64, rows_total=900)


class TestWorkloadGenerator:
    def test_same_seed_same_stream(self):
        config = WorkloadConfig(slices=6, seed=7)
        first = _materialize(WorkloadGenerator(_tenants(), config))
        second = _materialize(WorkloadGenerator(_tenants(), config))
        assert first == second
        assert first  # the stream is non-empty

    def test_different_seed_different_stream(self):
        first = _materialize(
            WorkloadGenerator(_tenants(), WorkloadConfig(slices=6, seed=1))
        )
        second = _materialize(
            WorkloadGenerator(_tenants(), WorkloadConfig(slices=6, seed=2))
        )
        assert first != second

    def test_tenant_streams_independent_of_tenant_set(self):
        """Per-tenant RNG derives from the tenant *name*: dropping one
        tenant must not perturb another's draws."""
        config = WorkloadConfig(slices=6, seed=3)
        all_three = _materialize(WorkloadGenerator(_tenants(3), config))
        # Rebuild with only tenant-1 (same spec as in the trio).
        spec = _tenants(3)[1]
        only_one = _materialize(WorkloadGenerator([spec], config))
        trio_tenant1 = [op for op in all_three if op[0] == spec.name]
        assert trio_tenant1 == only_one

    def test_bursty_and_closed_loop_modes(self):
        bursty = WorkloadGenerator(
            _tenants(), WorkloadConfig(slices=8, arrival="bursty", seed=0)
        )
        assert _materialize(bursty)
        closed = WorkloadGenerator(
            _tenants(2),
            WorkloadConfig(slices=3, ops_per_slice=2.0, closed_loop=True, seed=0),
        )
        ops = _materialize(closed)
        # Closed loop: every tenant issues exactly round(rate) ops/slice.
        per_tenant = {spec.name: 0 for spec in closed.tenants}
        for op in ops:
            per_tenant[op[0]] += 1
        assert all(count % 3 == 0 for count in per_tenant.values())

    def test_rows_stay_in_partition(self):
        spec = TenantSpec("t", rows=(100, 50))
        generator = WorkloadGenerator(
            [spec], WorkloadConfig(slices=10, ops_per_slice=8.0, seed=0)
        )
        for op in _materialize(generator):
            assert all(100 <= row < 150 for row in op[2])

    def test_mix_fractions_validated(self):
        with pytest.raises(ValueError):
            TenantSpec("t", rows=(0, 10), read_fraction=0.9, write_fraction=0.3)
        with pytest.raises(ValueError):
            WorkloadConfig(arrival="fractal")
        with pytest.raises(ValueError):
            WorkloadGenerator([], WorkloadConfig())

    def test_zipf_weights(self):
        weights = zipf_weights(5, 1.0)
        assert weights[0] == pytest.approx(weights[4] * 5.0)
        assert weights.sum() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Streaming percentiles vs numpy
# ----------------------------------------------------------------------
class TestStreamingPercentiles:
    QS = (0.0, 5.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0)

    def _check_against_numpy(self, samples):
        tracker = StreamingPercentiles()
        for value in samples:
            tracker.add(value)
        materialized = np.asarray(samples, dtype=np.float64)
        for q in self.QS:
            assert tracker.percentile(q) == np.percentile(materialized, q), q

    def test_quantized_latency_stream(self):
        rng = np.random.default_rng(0)
        values = [47.01, 31.25, 58.59, 2.0, 47.01 + 1e-9]
        samples = [values[i] for i in rng.integers(len(values), size=4000)]
        self._check_against_numpy(samples)

    def test_continuous_stream(self):
        rng = np.random.default_rng(1)
        self._check_against_numpy(rng.normal(50.0, 10.0, size=777).tolist())

    def test_tiny_streams(self):
        self._check_against_numpy([3.5])
        self._check_against_numpy([2.0, 1.0])
        self._check_against_numpy([1.0, 1.0, 1.0])

    def test_bulk_counts_equal_scalar_adds(self):
        bulk = StreamingPercentiles()
        scalar = StreamingPercentiles()
        bulk.add(10.0, 500)
        bulk.add(20.0, 250)
        for _ in range(500):
            scalar.add(10.0)
        for _ in range(250):
            scalar.add(20.0)
        for q in self.QS:
            assert bulk.percentile(q) == scalar.percentile(q)

    def test_merge(self):
        rng = np.random.default_rng(2)
        samples = rng.choice([1.0, 2.5, 9.0], size=300).tolist()
        merged = StreamingPercentiles()
        half = StreamingPercentiles()
        for value in samples[:150]:
            merged.add(value)
        for value in samples[150:]:
            half.add(value)
        merged.merge(half)
        materialized = np.asarray(samples)
        assert merged.count == 300
        for q in self.QS:
            assert merged.percentile(q) == np.percentile(materialized, q)

    def test_errors(self):
        tracker = StreamingPercentiles()
        with pytest.raises(ValueError):
            tracker.percentile(50.0)
        tracker.add(1.0)
        with pytest.raises(ValueError):
            tracker.percentile(101.0)
        with pytest.raises(ValueError):
            tracker.add(1.0, count=-1)


# ----------------------------------------------------------------------
# Single-channel equivalence to a bare MemoryController
# ----------------------------------------------------------------------
def _traffic(rows_base: int) -> list[MemRequest]:
    requests = []
    for offset in range(6):
        requests.append(MemRequest(Kind.READ, rows_base + offset, size=128))
        requests.append(
            MemRequest(Kind.WRITE, rows_base + offset, privileged=True)
        )
    return requests


class TestSingleChannelEquivalence:
    def _bare(self, config, trh, seed, locker_config):
        device = DRAMDevice(
            config,
            vulnerability=VulnerabilityMap(
                config, seed=seed, weak_cell_fraction=0.0
            ),
            trh=trh,
        )
        locker = DRAMLocker(device, locker_config)
        controller = MemoryController(device, locker=locker)
        return device, controller, locker

    def test_identical_stats_flips_and_locker_state(self):
        config = DRAMConfig.small()
        trh, seed = 600, 5
        locker_config = LockerConfig(
            copy_error_rate=0.05, relock_interval=150, seed=seed
        )
        system = ShardedMemorySystem(
            config.with_channels(1),
            trh=trh,
            protected=True,
            locker_config=locker_config,
            seed=seed,
        )
        device, controller, locker = self._bare(
            config, trh, seed, locker_config
        )

        victim = 40
        system.register_template(victim, [5])
        device.vulnerability.register_template(victim, [5])
        system.protect([victim])
        locker.protect([victim])

        aggressors = system.neighbors(victim)
        assert aggressors == device.mapper.neighbors(victim)

        def drive(execute, hammer, read):
            for request in _traffic(200):
                execute(request)
            for aggressor in aggressors:
                hammer(aggressor, 2 * trh)
            read(aggressors[0], privileged=True)  # unlock-SWAP path
            for aggressor in aggressors:
                hammer(aggressor, trh // 2)

        drive(
            system.execute,
            lambda row, count: system.hammer_run(row, count),
            lambda row, privileged: system.read(row, privileged=privileged),
        )
        drive(
            controller.execute,
            lambda row, count: controller.hammer_run(row, count),
            lambda row, privileged: controller.read(row, privileged=privileged),
        )

        channel = system.channels[0]
        assert channel.device.stats.as_dict() == device.stats.as_dict()
        assert channel.device.now_ns == device.now_ns
        assert channel.device.rowhammer.counters == device.rowhammer.counters
        shard_locker = channel.locker
        assert shard_locker.exposure_summary() == locker.exposure_summary()
        assert shard_locker._where == locker._where
        assert shard_locker.exposed == locker.exposed
        assert shard_locker.rw_instructions == locker.rw_instructions
        for row in (victim, *aggressors, 200, 201):
            assert np.array_equal(
                system.peek_bytes(row, 0, 64), device.peek_bytes(row, 0, 64)
            )

    def test_multi_channel_routes_by_policy(self):
        config = DRAMConfig.tiny().with_channels(2)
        system = ShardedMemorySystem(config, policy="row", seed=0)
        assert system.system_rows == 2 * config.total_rows
        state, local = system.locate(5)
        assert (state.index, local) == (1, 2)
        assert system.system_row(1, 2) == 5
        # Adjacency stays channel-local.
        neighbors = system.neighbors(6)
        assert all(system.locate(row)[0].index == 0 for row in neighbors)
        system.execute(MemRequest(Kind.READ, 5))
        assert system.channels[1].device.stats.reads > 0
        assert system.channels[0].device.stats.reads == 0

    def test_tenant_sink_matches_batch_results(self):
        config = DRAMConfig.tiny()
        system = ShardedMemorySystem(config.with_channels(1), seed=0)
        reference = MemoryController(
            DRAMDevice(
                config,
                vulnerability=VulnerabilityMap(
                    config, seed=0, weak_cell_fraction=0.0
                ),
            )
        )
        requests = _traffic(8) + list(
            RequestRun(MemRequest(Kind.ACT, 30), 50)
        )
        sink = TenantSink()
        system.execute_stream(requests, sink)
        results = reference.execute_batch(requests)
        assert sink.summary.issued == len(results)
        assert sink.summary.blocked == 0
        assert sink.latency.count == len(results)
        latencies = np.asarray([r.latency_ns for r in results])
        for q in (50.0, 99.0, 99.9):
            assert sink.latency.percentile(q) == np.percentile(latencies, q)
        assert sink.summary.latency_ns == pytest.approx(latencies.sum())


# ----------------------------------------------------------------------
# The serving runner: determinism, scaling, protection
# ----------------------------------------------------------------------
class TestServingRuns:
    def test_payload_deterministic(self):
        config = ServingConfig(channels=2, slices=8, seed=11)
        assert run_serving(config) == run_serving(config)

    def test_worker_count_invariance(self):
        """The harness property, on serving cells: the results section
        is identical across worker counts (seed derivation included)."""
        cells = [
            Scenario(
                "serving-wc-locker", "serving", params=(
                    ("channels", 2), ("defense", "DRAM-Locker"),
                    ("slices", 8),
                ),
            ),
            Scenario(
                "serving-wc-open", "serving", params=(
                    ("channels", 1), ("defense", "None"), ("slices", 8),
                ),
            ),
        ]
        serial = run_matrix(cells, workers=1, tag="serving-wc")
        parallel = run_matrix(cells, workers=2, tag="serving-wc")
        assert (
            serial.as_artifact()["results"]
            == parallel.as_artifact()["results"]
        )

    def test_channel_scaling_and_protection(self):
        """The acceptance criteria: aggregate requests/sec scales >= 2x
        from 1 to 4 channels with per-channel protection intact."""
        rps = {}
        for channels in (1, 4):
            payload = run_serving(
                ServingConfig(channels=channels, slices=12, seed=0)
            )
            rps[channels] = payload["sla"]["aggregate"]["requests_per_sim_sec"]
            assert payload["victim"]["victim_flip_events"] == 0
            assert payload["sla"]["aggregate"]["blocked"] > 0
            locker = payload["sla"]["locker"]
            assert len(locker) == channels
            assert all(
                entry["blocked_requests"] > 0 for entry in locker.values()
            )
        assert rps[4] >= 2.0 * rps[1]

    def test_block_policy_partitions_avoid_victim_zones(self):
        """Under block interleaving every tenant partition must stay
        inside one channel's tenant zone -- never touching the victim
        locals below TENANT_FIRST_LOCAL of *any* channel."""
        from repro.serving.engine import TENANT_FIRST_LOCAL, ServingSimulation

        for channels, tenants in ((4, 6), (2, 3), (4, 2)):
            sim = ServingSimulation(
                ServingConfig(
                    channels=channels, tenants=tenants, slices=4,
                    policy="block", seed=0,
                )
            )
            for spec in sim.generator.tenants:
                first, count = spec.rows
                start = sim.system.locate(first)
                end = sim.system.locate(first + count - 1)
                assert start[0] is end[0]  # one channel per tenant
                assert start[1] >= TENANT_FIRST_LOCAL
        payload = ServingSimulation(
            ServingConfig(channels=4, tenants=6, slices=6, policy="block",
                          seed=0)
        ).run()
        assert payload["victim"]["victim_flip_events"] == 0

    def test_undefended_victims_take_flips(self):
        payload = run_serving(
            ServingConfig(channels=2, slices=12, seed=0), protected=False
        )
        assert payload["victim"]["victim_flip_events"] > 0
        assert payload["sla"]["aggregate"]["blocked"] == 0
        assert "locker" not in payload["sla"]

    def test_sla_report_shape(self):
        payload = run_serving(ServingConfig(channels=1, slices=8, seed=0))
        tenants = payload["sla"]["tenants"]
        assert "attacker" in tenants and "victim-owner" in tenants
        tenant0 = tenants["tenant-0"]
        latency = tenant0["latency_ns"]
        assert set(latency) == {"p50", "p99", "p99.9", "mean"}
        assert latency["p50"] <= latency["p99"] <= latency["p99.9"]
        assert tenant0["throughput_rps"] > 0
        assert payload["memory_stats"]["activates"] > 0
        assert len(payload["channels"]) == 1

    def test_serving_scenarios_canned_set(self):
        scenarios = serving_scenarios()
        names = [scenario.name for scenario in scenarios]
        assert len(names) == len(set(names))
        assert len(scenarios) >= 12
        params = [dict(scenario.params) for scenario in scenarios]
        assert {p.get("channels") for p in params} >= {1, 2, 4}
        assert {p.get("defense") for p in params} >= {
            "None", "DRAM-Locker", "TRR", "Graphene",
        }
        assert any(p.get("colocated") is False for p in params)
        assert any(p.get("tenants") == 8 for p in params)


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
def _serving_artifact() -> dict:
    return {
        "schema": "dram-locker-serving-bench/1",
        "cells": {
            "dram-locker-ch1": {
                "protected": True,
                "victim_flip_events": 0,
                "sla_fingerprint": {"requests": 100, "blocked": 40},
            },
            "none-ch1": {
                "protected": False,
                "victim_flip_events": 9,
                "sla_fingerprint": {"requests": 100, "blocked": 0},
            },
        },
        "scaling": {"DRAM-Locker": {"ratio": 3.5}},
        "victim": {
            "clean_accuracy": 99.0,
            "post_attack_accuracy": 99.0,
            "accuracy_unchanged": True,
        },
    }


class TestCompareServing:
    def test_identical_artifacts_pass(self):
        report = compare(_serving_artifact(), _serving_artifact())
        assert report.ok
        assert report.checks

    def test_sla_drift_fails(self):
        current = _serving_artifact()
        current["cells"]["none-ch1"]["sla_fingerprint"]["blocked"] = 1
        report = compare(current, _serving_artifact())
        assert not report.ok
        assert any("fingerprint" in v for v in report.violations)

    def test_scaling_shrink_fails_within_tolerance_passes(self):
        current = _serving_artifact()
        current["scaling"]["DRAM-Locker"]["ratio"] = 3.0
        assert compare(current, _serving_artifact()).ok
        current["scaling"]["DRAM-Locker"]["ratio"] = 2.0
        report = compare(current, _serving_artifact())
        assert not report.ok

    def test_protected_victim_flip_fails(self):
        current = _serving_artifact()
        current["cells"]["dram-locker-ch1"]["victim_flip_events"] = 1
        report = compare(current, _serving_artifact())
        assert not report.ok
        # Unprotected cells may flip freely.
        current = _serving_artifact()
        current["cells"]["none-ch1"]["victim_flip_events"] = 99
        assert compare(current, _serving_artifact()).ok

    def test_pinned_flip_count_matches_baseline(self):
        # A known exposure event (nonzero flips in the committed
        # baseline) is pinned exactly, not treated as a regression.
        baseline = _serving_artifact()
        baseline["cells"]["dram-locker-ch1"]["victim_flip_events"] = 1
        current = _serving_artifact()
        current["cells"]["dram-locker-ch1"]["victim_flip_events"] = 1
        assert compare(current, baseline).ok
        # ...but drifting away from the pinned count (even to zero) fails.
        assert not compare(_serving_artifact(), baseline).ok

    def test_engine_check_divergence_fails(self):
        current = _serving_artifact()
        current["cells"]["dram-locker-ch1"]["engine_check"] = {
            "identical": False, "bulk_wall_s": 0.1, "events_wall_s": 0.1,
        }
        report = compare(current, _serving_artifact())
        assert not report.ok
        assert any("events engine" in v for v in report.violations)
        current["cells"]["dram-locker-ch1"]["engine_check"]["identical"] = True
        report = compare(current, _serving_artifact())
        assert report.ok
        assert any("bit-identical" in c for c in report.checks)

    def test_accuracy_change_fails(self):
        current = _serving_artifact()
        current["victim"].update(
            post_attack_accuracy=90.0, accuracy_unchanged=False
        )
        assert not compare(current, _serving_artifact()).ok

    def test_silently_dropped_victim_probe_fails(self):
        current = _serving_artifact()
        del current["victim"]
        report = compare(current, _serving_artifact())
        assert any("missing" in v for v in report.violations)

    def test_explicitly_skipped_victim_probe_passes(self):
        current = _serving_artifact()
        current["victim"] = {"skipped": True}
        report = compare(current, _serving_artifact())
        assert report.ok
        assert any("skipped" in c for c in report.checks)

    def test_missing_cell_fails(self):
        current = _serving_artifact()
        del current["cells"]["none-ch1"]
        report = compare(current, _serving_artifact())
        assert any("missing" in v for v in report.violations)


class TestRequestPathShortcuts:
    """The request path's hand-rolled copies and draws equal the library
    calls they replace."""

    @pytest.mark.parametrize(
        "request_",
        [
            MemRequest(Kind.READ, 3),
            MemRequest(Kind.WRITE, 9, column=128, size=256, privileged=True,
                       tag="tenant-a"),
            MemRequest(Kind.ACT, 0, tag="attacker"),
        ],
    )
    def test_replace_row_keeps_every_other_field(self, request_):
        import dataclasses

        from repro.serving.sharded import replace_row

        moved = replace_row(request_, 41)
        assert moved is not request_ and moved.row == 41
        assert moved == dataclasses.replace(request_, row=41)
        for field in dataclasses.fields(MemRequest):
            if field.name != "row":
                assert getattr(moved, field.name) == getattr(
                    request_, field.name
                ), field.name

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
    @pytest.mark.parametrize("guard_count", [1, 2, 3, 4])
    def test_guard_draw_equals_generator_choice(self, seed, guard_count):
        from repro.serving import GuardRowTraffic

        guards = [100 + 3 * k for k in range(guard_count)]
        touched = []
        traffic = GuardRowTraffic(lambda row: list(guards), touched.append,
                                  seed=seed)
        twin = np.random.default_rng(seed)
        expected = []
        for row in range(200):
            traffic.touch(row)
            expected.append(int(twin.choice(guards)))
        assert touched == expected
        assert traffic._rng.bit_generator.state == twin.bit_generator.state

    def test_guard_draw_without_guards_raises(self):
        from repro.serving import GuardRowTraffic

        traffic = GuardRowTraffic(lambda row: [], lambda row: None)
        with pytest.raises(ValueError):
            traffic.touch(5)
