"""The detect-and-recover integrity layer: RADAR, DNN-Defender, the
serving victim-health monitor, the defended attack path, and the
bake-off's nightly gate.

Pins the PR's contracts:

* RADAR detects corruption on inference reads and scheduled scrubs,
  restores locatable groups bit-exactly, zeroes digest-only groups,
  and re-snapshots its checksums after out-of-band rewrites;
* DNN-Defender swaps the highest-priority threatened victim away from
  a hot aggressor, spends its per-window budget only on ranked
  victims, and never relocates ranked data into the hammer zone;
* the victim-health monitor detects injected corruption, recovers the
  model to the clean baseline, quarantines the victim's channel
  (sheds booked as ``integrity_fault``), and keeps the payload
  bit-identical across the bulk and events engines;
* ``run_attack_scenario(defense=...)`` reports the defense section
  only when a defense is named (payload-shape preservation);
* the ``BAKEOFF_SCHEMA`` rows of the regression gate.
"""

import copy

import numpy as np
import pytest

from repro.controller import MemoryController
from repro.defenses import DNNDefender, Radar
from repro.defenses.builders import resolve_serving_defense
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.eval.harness import bakeoff_scenarios
from repro.eval.runners import _run_defense_bakeoff
from repro.eval.experiments import Scale, run_attack_scenario
from repro.eval.regression import BAKEOFF_SCHEMA, compare
from repro.serving import HealthConfig


def make_system(defense, trh=40):
    cfg = DRAMConfig.tiny()
    vuln = VulnerabilityMap(cfg, weak_cell_fraction=0.0)
    device = DRAMDevice(cfg, vulnerability=vuln, trh=trh)
    controller = MemoryController(device, defense=defense)
    return device, controller


class FakeStore:
    """The slice of the WeightStore surface RADAR binds against."""

    def __init__(self, data_rows):
        self.data_rows = list(data_rows)
        self.syncs = 0

    def sync_model(self, force=False, row_source=None):
        self.syncs += 1


# ----------------------------------------------------------------------
# RADAR
# ----------------------------------------------------------------------
class TestRadar:
    def _bound(self, scrub_interval=10, group_rows=2, **bind_kwargs):
        defense = Radar(scrub_interval=scrub_interval, group_rows=group_rows)
        device, controller = make_system(defense)
        store = FakeStore([2, 3, 4, 5])
        for row in store.data_rows:
            device.poke_bytes(row, 0, [0xA0 + row])
        groups = defense.bind_store(store, **bind_kwargs)
        return device, controller, defense, store, groups

    def test_bind_store_partitions_rows_into_groups(self):
        device, _, defense, _, groups = self._bound()
        assert groups == 2
        assert [group.rows for group in defense.groups] == [(2, 3), (4, 5)]
        assert all(group.locatable for group in defense.groups)
        assert all(group.digest for group in defense.groups)

    def test_golden_limit_caps_locatable_groups(self):
        _, _, defense, _, _ = self._bound(golden_limit=2)
        locatable = [group.locatable for group in defense.groups]
        assert locatable == [True, False]
        assert defense.groups[1].golden == {}

    def test_read_path_detects_and_restores_bit_exactly(self):
        device, controller, defense, store, _ = self._bound()
        golden = device.peek_row(3).copy()
        device.flip_bit(3, 5)  # silent corruption: no flip listeners
        controller.read(3)
        assert defense.corruptions_detected == 1
        assert defense.rows_restored == 1
        assert np.array_equal(device.peek_row(3), golden)
        assert defense.detection_log[-1]["via"] == "read"
        assert defense.detection_log[-1]["mode"] == "restore"
        assert store.syncs == 1  # repaired bytes pushed to the model

    def test_scheduled_scrub_detects_untouched_rows(self):
        device, controller, defense, _, _ = self._bound(scrub_interval=5)
        device.flip_bit(4, 1)
        controller.hammer(20, count=5)  # unprotected traffic only
        assert defense.scrubs == 1
        assert defense.corruptions_detected == 1
        assert defense.detection_log[-1]["via"] == "scrub"

    def test_zero_out_fallback_beyond_golden_budget(self):
        device, controller, defense, _, _ = self._bound(golden_limit=0)
        device.flip_bit(2, 1)
        found = defense.scrub_now()
        assert found == 1
        assert defense.rows_zeroed == 2  # the whole group, not the row
        assert not device.peek_row(2).any()
        assert not device.peek_row(3).any()
        assert defense.detection_log[-1]["mode"] == "zero"
        # Row 5's group was clean and is untouched.
        assert device.peek_row(5)[0] == 0xA5

    def test_scrub_now_charges_defense_ns(self):
        device, _, defense, _, _ = self._bound()
        before = defense.mitigation_ns_total
        assert defense.scrub_now() == 0
        assert defense.mitigation_ns_total > before

    def test_refresh_checksums_adopts_out_of_band_rewrites(self):
        device, _, defense, _, _ = self._bound()
        device.poke_bytes(2, 0, [0x11])  # legitimate rewrite
        defense.refresh_checksums()
        assert defense.scrub_now() == 0  # not re-"detected"
        assert defense.groups[0].golden[2][0] == 0x11

    def test_plan_is_quiet_until_scrub_and_breaks_on_corruption(self):
        device, _, defense, _, _ = self._bound(scrub_interval=10)
        plan = defense.plan_activate_run(20, 100)
        assert plan.count == 9 and plan.extra_ns == 0.0
        plan = defense.plan_activate_run(3, 100)
        assert plan.count == 9 and plan.extra_ns == defense.check_ns
        device.flip_bit(3, 0)
        assert defense.plan_activate_run(3, 100).count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Radar(scrub_interval=0)
        with pytest.raises(ValueError):
            Radar(group_rows=0)


# ----------------------------------------------------------------------
# DNN-Defender
# ----------------------------------------------------------------------
class TestDNNDefender:
    def test_swaps_ranked_victim_away_from_hot_aggressor(self):
        defense = DNNDefender(hot_threshold=4, seed=1)
        device, controller = make_system(defense)
        defense.prioritize([11])
        device.poke_bytes(11, 0, [0x5A])
        controller.hammer(10, count=4)
        assert defense.swaps_performed == 1
        location = defense.translate(11)
        assert location != 11
        # The data followed the swap; the controller follows translate.
        assert device.peek_row(location)[0] == 0x5A
        assert controller.read(11).physical_row == location
        # Whatever now sits in the hammer zone is sacrificial.
        assert defense._priority.get(defense.permutation.resident(11), 0) == 0

    def test_budget_reserved_for_ranked_victims(self):
        defense = DNNDefender(hot_threshold=4, seed=1)
        device, controller = make_system(defense)
        defense.prioritize([20])  # ranked data lives elsewhere
        controller.hammer(10, count=16)
        assert defense.swaps_performed == 0

    def test_bare_instance_swaps_unconditionally(self):
        defense = DNNDefender(hot_threshold=4, seed=1)
        device, controller = make_system(defense)
        controller.hammer(10, count=4)
        assert defense.swaps_performed == 1

    def test_window_budget_and_reset(self):
        defense = DNNDefender(swaps_per_window=1, hot_threshold=2, seed=1)
        device, controller = make_system(defense)
        defense.prioritize([11, 13])
        controller.hammer(10, count=2)
        controller.hammer(12, count=2)
        assert defense.swaps_performed == 1  # budget spent
        defense.on_refresh_window()
        assert defense._window_swaps == 0 and defense._counts == {}
        controller.hammer(12, count=2)
        assert defense.swaps_performed == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DNNDefender(swaps_per_window=0)
        with pytest.raises(ValueError):
            DNNDefender(hot_threshold=0)


# ----------------------------------------------------------------------
# Serving victim-health monitor
# ----------------------------------------------------------------------
def _chaos_payload(defense="RADAR", engine="bulk", **overrides):
    kwargs = dict(
        attack="none",
        defense=defense,
        serving=True,
        slices=8,
        ops_per_slice=4.0,
        engine=engine,
        inject_slice=3,
        inject_rows=2,
    )
    kwargs.update(overrides)
    return _run_defense_bakeoff(Scale.quick(), 0, **kwargs)


class TestVictimHealthMonitor:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(probe_interval=0)
        with pytest.raises(ValueError):
            HealthConfig(quarantine_slices=-1)
        with pytest.raises(ValueError):
            HealthConfig(inject_rows=0)

    def test_monitor_requires_model_victim(self):
        from repro.serving import ServingConfig, ServingSimulation

        with pytest.raises(ValueError, match="model victim"):
            ServingSimulation(
                ServingConfig(slices=2), health=HealthConfig()
            )

    def test_radar_detects_and_recovers_injection(self):
        health = _chaos_payload()["serving_phase"]["health"]
        assert health["injected_corruptions"] == 1
        assert health["all_injections_detected"]
        entry = health["injections"][0]
        assert entry["detection_latency_ns"] is not None
        assert entry["detected_slice"] >= entry["slice"]
        assert health["post_recovery_accuracy"] == health["clean_accuracy"]
        assert health["quarantines"] >= 1
        assert health["conserved"]

    def test_quarantine_sheds_book_as_integrity_fault(self):
        serving = _chaos_payload()["serving_phase"]
        health = serving["health"]
        assert health["shed_ops"] > 0
        reasons = set()
        for tenant in serving["sla"]["tenants"].values():
            reasons.update(tenant.get("shed", {}))
        assert "integrity_fault" in reasons
        assert (
            health["offered_ops"]
            == health["served_ops"] + health["shed_ops"]
        )

    def test_payload_bit_identical_across_engines(self):
        def neutral(payload):
            clean = copy.deepcopy(payload)
            clean["serving_phase"]["config"].pop("engine")
            return clean

        bulk = _chaos_payload(engine="bulk")
        events = _chaos_payload(engine="events")
        assert neutral(bulk) == neutral(events)

    def test_undefended_probe_misses_low_magnitude_corruption(self):
        """The bake-off's comparison story: without checksums, a
        low-magnitude flip slips past the accuracy probe."""
        health = _chaos_payload(defense="None")["serving_phase"]["health"]
        assert health["injected_corruptions"] == 1
        assert not health["all_injections_detected"]
        assert "radar" not in health


# ----------------------------------------------------------------------
# Defended attack path + canned set
# ----------------------------------------------------------------------
class TestDefendedAttackPath:
    def test_defense_section_only_when_named(self):
        undefended = run_attack_scenario(
            scale=Scale.quick(), attack="bfa", iterations=2
        )
        assert "defense" not in undefended  # payload shape preserved
        defended = run_attack_scenario(
            scale=Scale.quick(), attack="bfa", iterations=2,
            defense="RADAR",
        )
        section = defended["defense"]
        assert section["name"] == "RADAR"
        assert section["corruptions_detected"] > 0
        assert defended["final_accuracy"] == defended["clean_accuracy"]

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError):
            resolve_serving_defense("Tinfoil")

    def test_bakeoff_set_shape(self):
        scenarios = bakeoff_scenarios()
        names = [scenario.name for scenario in scenarios]
        assert len(names) == len(set(names))
        assert "bakeoff-bfa-radar" in names
        assert "bakeoff-serving-dnn-defender-ch2" in names
        assert names[-1] == "bakeoff-chaos-radar"
        chaos = dict(scenarios[-1].params)
        assert chaos["defense"] == "RADAR" and chaos["inject_slice"] >= 0


# ----------------------------------------------------------------------
# Nightly gate
# ----------------------------------------------------------------------
def _bakeoff_artifact() -> dict:
    return {
        "schema": BAKEOFF_SCHEMA,
        "chaos": {
            "injected_corruptions": 1,
            "injections_detected": 1,
            "all_injections_detected": True,
            "detection_latency_ns": [120.0],
            "accuracy_delta_pct": 0.0,
            "accuracy_budget_pct": 0.5,
        },
        "serving_cells": {
            "bakeoff-serving-radar-ch1": {
                "defense": "RADAR",
                "victim_flip_events": 50,
                "sla_fingerprint": {"requests": 100},
                "engine_check": {"identical": True},
            },
            "bakeoff-serving-dram-locker-ch1": {
                "defense": "DRAM-Locker",
                "victim_flip_events": 0,
                "sla_fingerprint": {"requests": 120},
                "engine_check": {"identical": True},
            },
        },
        "frontier": {
            "RADAR": {"worst_defended_accuracy": 95.0},
            "DRAM-Locker": {"worst_defended_accuracy": 99.0},
        },
    }


class TestBakeoffGate:
    def test_identical_artifacts_pass(self):
        report = compare(_bakeoff_artifact(), _bakeoff_artifact())
        assert report.ok, report.summary()

    def test_missed_injection_fails(self):
        current = _bakeoff_artifact()
        current["chaos"]["injections_detected"] = 0
        current["chaos"]["all_injections_detected"] = False
        assert not compare(current, _bakeoff_artifact()).ok

    def test_accuracy_over_budget_fails(self):
        current = _bakeoff_artifact()
        current["chaos"]["accuracy_delta_pct"] = 0.8
        assert not compare(current, _bakeoff_artifact()).ok

    def test_self_declared_budget_does_not_loosen_the_gate(self):
        """The budget is a gate constant; the artifact's own
        ``accuracy_budget_pct`` is only a record."""
        current = _bakeoff_artifact()
        current["chaos"]["accuracy_delta_pct"] = 0.8
        current["chaos"]["accuracy_budget_pct"] = 10.0
        assert not compare(current, _bakeoff_artifact()).ok

    def test_missing_detection_latency_fails(self):
        current = _bakeoff_artifact()
        current["chaos"]["detection_latency_ns"] = [None]
        assert not compare(current, _bakeoff_artifact()).ok

    def test_latency_growth_fails(self):
        current = _bakeoff_artifact()
        current["chaos"]["detection_latency_ns"] = [200.0]
        assert not compare(current, _bakeoff_artifact()).ok

    def test_engine_divergence_fails(self):
        current = _bakeoff_artifact()
        cell = current["serving_cells"]["bakeoff-serving-radar-ch1"]
        cell["engine_check"]["identical"] = False
        assert not compare(current, _bakeoff_artifact()).ok

    def test_locker_flip_drift_fails(self):
        current = _bakeoff_artifact()
        current["serving_cells"]["bakeoff-serving-dram-locker-ch1"][
            "victim_flip_events"
        ] = 1
        assert not compare(current, _bakeoff_artifact()).ok

    def test_sla_drift_fails(self):
        current = _bakeoff_artifact()
        current["serving_cells"]["bakeoff-serving-radar-ch1"][
            "sla_fingerprint"
        ] = {"requests": 99}
        assert not compare(current, _bakeoff_artifact()).ok

    def test_frontier_shrink_fails(self):
        current = _bakeoff_artifact()
        current["frontier"]["RADAR"]["worst_defended_accuracy"] = 80.0
        assert not compare(current, _bakeoff_artifact()).ok

    def test_missing_cell_fails(self):
        current = _bakeoff_artifact()
        del current["serving_cells"]["bakeoff-serving-dram-locker-ch1"]
        assert not compare(current, _bakeoff_artifact()).ok

    def test_missing_chaos_fails(self):
        current = _bakeoff_artifact()
        current["chaos"] = None
        assert not compare(current, _bakeoff_artifact()).ok
