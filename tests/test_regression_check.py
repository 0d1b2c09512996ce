"""The benchmark-regression comparison behind the nightly CI gate."""

import json

from repro.eval.regression import (
    compare_artifacts,
    load_artifact,
    protected_accuracies,
)


def artifact(total_s=10.0, results=None):
    return {
        "schema": "dram-locker-bench/1",
        "results": results or {},
        "timing": {"total_s": total_s},
    }


LOCKED_ATTACK = {"protected": True, "final_accuracy": 90.0}
OPEN_ATTACK = {"protected": False, "final_accuracy": 12.0}
FIG8 = {"stats": {"with DRAM-Locker": {"final_accuracy": 88.0},
                  "without DRAM-Locker": {"final_accuracy": 11.0}}}


class TestProtectedAccuracies:
    def test_extracts_attack_and_curve_payloads(self):
        doc = artifact(results={
            "a-locked": LOCKED_ATTACK,
            "a-open": OPEN_ATTACK,
            "fig8": FIG8,
            "cheap": {"rows": [1, 2]},
        })
        assert protected_accuracies(doc) == {"a-locked": 90.0, "fig8": 88.0}

    def test_skips_errored_scenarios(self):
        doc = artifact(results={"bad": {"error": "Traceback ..."}})
        assert protected_accuracies(doc) == {}


class TestCompare:
    def test_clean_comparison_passes(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        cur = artifact(10.5, {"a-locked": dict(LOCKED_ATTACK)})
        report = compare_artifacts(cur, base)
        assert report.ok
        assert len(report.checks) == 2  # runtime + one accuracy

    def test_runtime_regression_fails(self):
        report = compare_artifacts(artifact(12.0), artifact(10.0))
        assert not report.ok
        assert "runtime" in report.violations[0]

    def test_runtime_within_tolerance_passes(self):
        assert compare_artifacts(artifact(10.9), artifact(10.0)).ok
        assert not compare_artifacts(
            artifact(10.9), artifact(10.0), runtime_tolerance=0.05
        ).ok

    def test_protected_accuracy_drop_fails(self):
        base = artifact(10.0, {"a-locked": {"protected": True,
                                            "final_accuracy": 90.0}})
        cur = artifact(10.0, {"a-locked": {"protected": True,
                                           "final_accuracy": 70.0}})
        report = compare_artifacts(cur, base)
        assert not report.ok
        assert "a-locked" in report.violations[0]

    def test_unprotected_accuracy_is_not_gated(self):
        """The attack is SUPPOSED to wreck the open victim; only the
        protected accuracy is a regression signal."""
        base = artifact(10.0, {"a-open": {"protected": False,
                                          "final_accuracy": 50.0}})
        cur = artifact(10.0, {"a-open": {"protected": False,
                                         "final_accuracy": 5.0}})
        assert compare_artifacts(cur, base).ok

    def test_missing_scenario_fails(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        report = compare_artifacts(artifact(10.0), base)
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_errored_current_scenario_fails(self):
        cur = artifact(10.0, {"x": {"error": "ValueError: nope"}})
        report = compare_artifacts(cur, artifact(10.0))
        assert not report.ok
        assert "failed" in report.violations[0]

    def test_summary_mentions_everything(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        cur = artifact(20.0, {"a-locked": {"protected": True,
                                           "final_accuracy": 10.0}})
        summary = compare_artifacts(cur, base).summary()
        assert "REGRESSION" in summary and "runtime" in summary


class TestLoadArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(artifact(3.0)))
        assert load_artifact(str(path))["timing"]["total_s"] == 3.0


# ----------------------------------------------------------------------
# The attack-search microbenchmark gate
# ----------------------------------------------------------------------
def search_artifact(families=None, pool_identical=True):
    from repro.eval.regression import ATTACK_SEARCH_SCHEMA

    return {
        "schema": ATTACK_SEARCH_SCHEMA,
        "families": families or {},
        "pool": {"results_identical": pool_identical},
        "timing": {"total_s": 60.0},
    }


CELL = {"full_s": 6.0, "suffix_s": 1.5, "speedup": 4.0,
        "results_identical": True}


class TestCompareAttackSearch:
    def test_matching_artifacts_pass(self):
        from repro.eval.regression import compare_attack_search

        doc = search_artifact({"tbfa-locked": dict(CELL)})
        report = compare_attack_search(doc, doc)
        assert report.ok
        assert "tbfa-locked" in report.summary()

    def test_divergent_engine_fails(self):
        from repro.eval.regression import compare_attack_search

        bad = dict(CELL, results_identical=False)
        report = compare_attack_search(
            search_artifact({"bfa-locked": bad}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "diverged" in report.violations[0]

    def test_speedup_ratio_regression_fails(self):
        from repro.eval.regression import compare_attack_search

        slow = dict(CELL, speedup=2.0)
        report = compare_attack_search(
            search_artifact({"bfa-locked": slow}),
            search_artifact({"bfa-locked": dict(CELL)}),
            speedup_tolerance=0.25,
        )
        assert not report.ok
        assert "floor 3.00x" in report.violations[0]

    def test_speedup_within_tolerance_passes(self):
        from repro.eval.regression import compare_attack_search

        slightly_slow = dict(CELL, speedup=3.2)
        report = compare_attack_search(
            search_artifact({"bfa-locked": slightly_slow}),
            search_artifact({"bfa-locked": dict(CELL)}),
            speedup_tolerance=0.25,
        )
        assert report.ok

    def test_missing_family_fails(self):
        from repro.eval.regression import compare_attack_search

        report = compare_attack_search(
            search_artifact({}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_pool_divergence_fails(self):
        from repro.eval.regression import compare_attack_search

        report = compare_attack_search(
            search_artifact({}, pool_identical=False), search_artifact({})
        )
        assert not report.ok

    def test_cli_dispatches_on_schema(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from check_regression import main as check_main
        finally:
            sys.path.pop(0)
        current = tmp_path / "BENCH_attack_search.json"
        baseline = tmp_path / "BENCH_attack_search_baseline.json"
        doc = search_artifact({"tbfa-locked": dict(CELL)})
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "speedup" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The defended-hammer microbenchmark gate
# ----------------------------------------------------------------------
def hammer_artifact(defenses=None):
    from repro.eval.regression import DEFENDED_HAMMER_SCHEMA

    return {
        "schema": DEFENDED_HAMMER_SCHEMA,
        "trh": 3000,
        "defenses": defenses or {},
        "timing": {"total_s": 10.0},
    }


HAMMER_CELL = {"scalar_s": 0.18, "bulk_s": 0.01, "speedup": 18.0,
               "results_identical": True}


class TestCompareDefendedHammer:
    def test_matching_artifacts_pass(self):
        from repro.eval.regression import compare_defended_hammer

        doc = hammer_artifact({"trr": dict(HAMMER_CELL)})
        report = compare_defended_hammer(doc, doc)
        assert report.ok
        assert "trr" in report.summary()

    def test_divergent_engine_fails(self):
        from repro.eval.regression import compare_defended_hammer

        bad = dict(HAMMER_CELL, results_identical=False)
        report = compare_defended_hammer(
            hammer_artifact({"para": bad}),
            hammer_artifact({"para": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "diverged" in report.violations[0]

    def test_speedup_ratio_regression_fails(self):
        from repro.eval.regression import compare_defended_hammer

        slow = dict(HAMMER_CELL, speedup=4.0)
        report = compare_defended_hammer(
            hammer_artifact({"trr": slow}),
            hammer_artifact({"trr": dict(HAMMER_CELL)}),
            speedup_tolerance=0.25,
        )
        assert not report.ok
        assert "floor 13.50x" in report.violations[0]

    def test_missing_defense_fails(self):
        from repro.eval.regression import compare_defended_hammer

        report = compare_defended_hammer(
            hammer_artifact({}),
            hammer_artifact({"hydra": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_cli_dispatches_on_schema(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from check_regression import main as check_main
        finally:
            sys.path.pop(0)
        current = tmp_path / "BENCH_defended_hammer.json"
        baseline = tmp_path / "BENCH_defended_hammer_baseline.json"
        doc = hammer_artifact({"graphene": dict(HAMMER_CELL)})
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "graphene" in capsys.readouterr().out


def runtable_artifact(**overrides):
    from repro.eval.regression import RUNTABLE_BENCH_SCHEMA

    document = {
        "schema": RUNTABLE_BENCH_SCHEMA,
        "checkpoint": {
            "cells": 8,
            "results_identical": True,
            "overhead_ratio": 1.2,
        },
        "recovery": {
            "journal_lines_at_kill": 2,
            "resumed_cells": 2,
            "resume_identical": True,
        },
        "chaos": {
            "cells": 4,
            "quarantined": 1,
            "errors": 1,
            "recovered": 1,
            "channel_fault": {
                "conserved": True,
                "offered_ops": 53,
                "served_ops": 45,
                "shed_ops": 8,
                "victim_flip_events": 0,
            },
        },
    }
    for key, value in overrides.items():
        document[key] = {**document[key], **value}
    return document


class TestCompareRuntable:
    def test_identical_passes(self):
        from repro.eval.regression import compare_runtable

        report = compare_runtable(runtable_artifact(), runtable_artifact())
        assert report.ok and len(report.checks) >= 6

    def test_checkpoint_divergence_fails(self):
        from repro.eval.regression import compare_runtable

        report = compare_runtable(
            runtable_artifact(checkpoint={"results_identical": False}),
            runtable_artifact(),
        )
        assert not report.ok
        assert "diverged from plain run_matrix" in report.violations[0]

    def test_resume_divergence_fails(self):
        from repro.eval.regression import compare_runtable

        report = compare_runtable(
            runtable_artifact(recovery={"resume_identical": False}),
            runtable_artifact(),
        )
        assert not report.ok

    def test_unexercised_recovery_fails(self):
        from repro.eval.regression import compare_runtable

        report = compare_runtable(
            runtable_artifact(recovery={"journal_lines_at_kill": 0}),
            runtable_artifact(),
        )
        assert not report.ok
        assert "resume path not exercised" in report.violations[0]

    def test_quarantine_count_is_pinned(self):
        from repro.eval.regression import compare_runtable

        report = compare_runtable(
            runtable_artifact(chaos={"quarantined": 2}),
            runtable_artifact(),
        )
        assert not report.ok

    def test_conservation_break_fails(self):
        from repro.eval.regression import compare_runtable

        broken = runtable_artifact()
        broken["chaos"]["channel_fault"] = dict(
            broken["chaos"]["channel_fault"], conserved=False
        )
        report = compare_runtable(broken, runtable_artifact())
        assert not report.ok

    def test_victim_flips_fail(self):
        from repro.eval.regression import compare_runtable

        flipped = runtable_artifact()
        flipped["chaos"]["channel_fault"] = dict(
            flipped["chaos"]["channel_fault"], victim_flip_events=3
        )
        assert not compare_runtable(flipped, runtable_artifact()).ok

    def test_overhead_ratio_tolerance(self):
        from repro.eval.regression import compare_runtable

        bloated = runtable_artifact(checkpoint={"overhead_ratio": 2.0})
        assert not compare_runtable(
            bloated, runtable_artifact(), overhead_tolerance=0.25
        ).ok
        assert compare_runtable(
            bloated, runtable_artifact(), overhead_tolerance=1.0
        ).ok

    def test_cli_dispatches_on_runtable_schema(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from check_regression import main as check_main
        finally:
            sys.path.pop(0)
        current = tmp_path / "BENCH_runtable.json"
        baseline = tmp_path / "BENCH_runtable_baseline.json"
        doc = runtable_artifact()
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "SIGKILL" in capsys.readouterr().out
