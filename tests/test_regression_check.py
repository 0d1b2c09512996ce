"""The benchmark-regression comparison behind the nightly CI gate."""

import copy
import json
import os
import sys

import pytest

from repro.eval.regression import (
    HARNESS_SCHEMA,
    compare,
    load_artifact,
    protected_accuracies,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = os.path.join(REPO, "benchmarks", "artifacts")


def _check_main():
    sys.path.insert(0, os.path.join(REPO, "benchmarks"))
    try:
        from check_regression import main
    finally:
        sys.path.pop(0)
    return main


def artifact(total_s=10.0, results=None):
    return {
        "schema": HARNESS_SCHEMA,
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
        report = compare(cur, base)
        assert report.ok
        assert len(report.checks) == 2  # runtime + one accuracy

    def test_runtime_regression_fails(self):
        report = compare(artifact(12.0), artifact(10.0))
        assert not report.ok
        assert "runtime" in report.violations[0]

    def test_runtime_within_tolerance_passes(self):
        assert compare(artifact(10.9), artifact(10.0)).ok
        assert not compare(artifact(11.1), artifact(10.0)).ok

    def test_protected_accuracy_drop_fails(self):
        base = artifact(10.0, {"a-locked": {"protected": True,
                                            "final_accuracy": 90.0}})
        cur = artifact(10.0, {"a-locked": {"protected": True,
                                           "final_accuracy": 70.0}})
        report = compare(cur, base)
        assert not report.ok
        assert "a-locked" in report.violations[0]

    def test_unprotected_accuracy_is_not_gated(self):
        """The attack is SUPPOSED to wreck the open victim; only the
        protected accuracy is a regression signal."""
        base = artifact(10.0, {"a-open": {"protected": False,
                                          "final_accuracy": 50.0}})
        cur = artifact(10.0, {"a-open": {"protected": False,
                                         "final_accuracy": 5.0}})
        assert compare(cur, base).ok

    def test_missing_scenario_fails(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        report = compare(artifact(10.0), base)
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_errored_current_scenario_fails(self):
        cur = artifact(10.0, {"x": {"error": "ValueError: nope"}})
        report = compare(cur, artifact(10.0))
        assert not report.ok
        assert "failed" in report.violations[0]

    def test_summary_mentions_everything(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        cur = artifact(20.0, {"a-locked": {"protected": True,
                                           "final_accuracy": 10.0}})
        summary = compare(cur, base).summary()
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
        from repro.eval.regression import compare

        doc = search_artifact({"tbfa-locked": dict(CELL)})
        report = compare(doc, doc)
        assert report.ok
        assert "tbfa-locked" in report.summary()

    def test_divergent_engine_fails(self):
        from repro.eval.regression import compare

        bad = dict(CELL, results_identical=False)
        report = compare(
            search_artifact({"bfa-locked": bad}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "diverged" in report.violations[0]

    def test_speedup_ratio_regression_fails(self):
        from repro.eval.regression import compare

        slow = dict(CELL, speedup=2.5)
        report = compare(
            search_artifact({"bfa-locked": slow}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "floor 2.60x" in report.violations[0]

    def test_speedup_within_tolerance_passes(self):
        from repro.eval.regression import compare

        slightly_slow = dict(CELL, speedup=2.7)
        report = compare(
            search_artifact({"bfa-locked": slightly_slow}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert report.ok

    def test_missing_family_fails(self):
        from repro.eval.regression import compare

        report = compare(
            search_artifact({}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_pool_divergence_fails(self):
        from repro.eval.regression import compare

        report = compare(
            search_artifact({}, pool_identical=False), search_artifact({})
        )
        assert not report.ok

    def test_cli_dispatches_on_schema(self, tmp_path, capsys):
        check_main = _check_main()
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
        from repro.eval.regression import compare

        doc = hammer_artifact({"trr": dict(HAMMER_CELL)})
        report = compare(doc, doc)
        assert report.ok
        assert "trr" in report.summary()

    def test_divergent_engine_fails(self):
        from repro.eval.regression import compare

        bad = dict(HAMMER_CELL, results_identical=False)
        report = compare(
            hammer_artifact({"para": bad}),
            hammer_artifact({"para": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "diverged" in report.violations[0]

    def test_speedup_ratio_regression_fails(self):
        from repro.eval.regression import compare

        slow = dict(HAMMER_CELL, speedup=11.5)
        report = compare(
            hammer_artifact({"trr": slow}),
            hammer_artifact({"trr": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "floor 11.70x" in report.violations[0]
        assert compare(
            hammer_artifact({"trr": dict(HAMMER_CELL, speedup=11.9)}),
            hammer_artifact({"trr": dict(HAMMER_CELL)}),
        ).ok

    def test_missing_defense_fails(self):
        from repro.eval.regression import compare

        report = compare(
            hammer_artifact({}),
            hammer_artifact({"hydra": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_cli_dispatches_on_schema(self, tmp_path, capsys):
        check_main = _check_main()
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
        from repro.eval.regression import compare

        report = compare(runtable_artifact(), runtable_artifact())
        assert report.ok and len(report.checks) >= 6

    def test_checkpoint_divergence_fails(self):
        from repro.eval.regression import compare

        report = compare(
            runtable_artifact(checkpoint={"results_identical": False}),
            runtable_artifact(),
        )
        assert not report.ok
        assert "diverged from plain run_matrix" in report.violations[0]

    def test_resume_divergence_fails(self):
        from repro.eval.regression import compare

        report = compare(
            runtable_artifact(recovery={"resume_identical": False}),
            runtable_artifact(),
        )
        assert not report.ok

    def test_unexercised_recovery_fails(self):
        from repro.eval.regression import compare

        report = compare(
            runtable_artifact(recovery={"journal_lines_at_kill": 0}),
            runtable_artifact(),
        )
        assert not report.ok
        assert "resume path not exercised" in report.violations[0]

    def test_quarantine_count_is_pinned(self):
        from repro.eval.regression import compare

        report = compare(
            runtable_artifact(chaos={"quarantined": 2}),
            runtable_artifact(),
        )
        assert not report.ok

    def test_conservation_break_fails(self):
        from repro.eval.regression import compare

        broken = runtable_artifact()
        broken["chaos"]["channel_fault"] = dict(
            broken["chaos"]["channel_fault"], conserved=False
        )
        report = compare(broken, runtable_artifact())
        assert not report.ok

    def test_victim_flips_fail(self):
        from repro.eval.regression import compare

        flipped = runtable_artifact()
        flipped["chaos"]["channel_fault"] = dict(
            flipped["chaos"]["channel_fault"], victim_flip_events=3
        )
        assert not compare(flipped, runtable_artifact()).ok

    def test_overhead_ratio_tolerance(self):
        from repro.eval.regression import compare

        bloated = runtable_artifact(checkpoint={"overhead_ratio": 2.2})
        assert not compare(bloated, runtable_artifact()).ok
        within = runtable_artifact(checkpoint={"overhead_ratio": 2.0})
        assert compare(within, runtable_artifact()).ok

    def test_cli_dispatches_on_runtable_schema(self, tmp_path, capsys):
        check_main = _check_main()
        current = tmp_path / "BENCH_runtable.json"
        baseline = tmp_path / "BENCH_runtable_baseline.json"
        doc = runtable_artifact()
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "SIGKILL" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The CLI on the committed artifacts and on bad input
# ----------------------------------------------------------------------
#: Every (current, baseline) pair the workflows gate, as committed: seven
#: bench artifacts against their baselines, and the two nightly harness
#: baselines against themselves.
COMMITTED_PAIRS = [
    *(
        (f"BENCH_{name}.json", f"BENCH_{name}_baseline.json")
        for name in (
            "attack_search", "defended_hammer", "serving", "serving_live",
            "runtable", "bakeoff", "obs",
        )
    ),
    *((f"BENCH_{name}_baseline.json",) * 2 for name in ("nightly", "nightly-attacks")),
]


def _artifact_path(name):
    return os.path.join(ARTIFACTS, name)


@pytest.mark.parametrize(
    "current,baseline", COMMITTED_PAIRS, ids=[pair[0] for pair in COMMITTED_PAIRS]
)
def test_committed_pair_passes_the_cli(current, baseline, capsys):
    main = _check_main()
    assert main([_artifact_path(current), _artifact_path(baseline)]) == 0
    checks = int(capsys.readouterr().out.split(" check(s)")[0])
    assert checks > 0


class TestCheckRegressionInputErrors:
    """Bad input exits 2 with one ``error:`` line; 1 keeps meaning a
    regression was found."""

    def _run(self, capsys, current, baseline):
        code = _check_main()([current, baseline])
        out, err = capsys.readouterr()
        return code, out, err

    def _assert_input_error(self, code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_path(self, tmp_path, capsys):
        result = self._run(
            capsys, str(tmp_path / "absent.json"),
            _artifact_path("BENCH_serving_baseline.json"),
        )
        self._assert_input_error(*result)

    def test_malformed_json(self, tmp_path, capsys):
        with open(_artifact_path("BENCH_serving.json"), encoding="utf-8") as handle:
            truncated = handle.read()[:200]
        current = tmp_path / "BENCH_serving.json"
        current.write_text(truncated)
        result = self._run(
            capsys, str(current), _artifact_path("BENCH_serving_baseline.json")
        )
        self._assert_input_error(*result)

    def test_unknown_schema(self, capsys):
        # A committed artifact whose schema no gate knows.
        victim_cache = _artifact_path("BENCH_victim_cache.json")
        self._assert_input_error(*self._run(capsys, victim_cache, victim_cache))

    @pytest.mark.parametrize("current,baseline", [
        ("BENCH_runtable.json", "BENCH_nightly_baseline.json"),
        ("BENCH_defended_hammer.json", "BENCH_attack_search_baseline.json"),
    ])
    def test_mismatched_schemas(self, current, baseline, capsys):
        result = self._run(
            capsys, _artifact_path(current), _artifact_path(baseline)
        )
        self._assert_input_error(*result)

    def test_regression_still_exits_1(self, tmp_path, capsys):
        baseline = _artifact_path("BENCH_runtable_baseline.json")
        document = load_artifact(baseline)
        document["checkpoint"]["results_identical"] = False
        current = tmp_path / "BENCH_runtable.json"
        current.write_text(json.dumps(document))
        code, out, err = self._run(capsys, str(current), baseline)
        assert code == 1 and err == "" and "REGRESSION" in out


class TestMissingGatedValues:
    """A missing or non-numeric gated value is a violation naming the
    cell and the key, never a traceback."""

    def test_missing_speedup(self):
        baseline = load_artifact(_artifact_path("BENCH_attack_search_baseline.json"))
        current = copy.deepcopy(baseline)
        del current["families"]["bfa-locked"]["speedup"]
        report = compare(current, baseline)
        assert [v for v in report.violations if v.startswith("families.bfa-locked: speedup")]

    def test_missing_scaling_ratio(self):
        baseline = load_artifact(_artifact_path("BENCH_serving_baseline.json"))
        current = copy.deepcopy(baseline)
        del current["scaling"]["DRAM-Locker"]["ratio"]
        report = compare(current, baseline)
        assert [v for v in report.violations if v.startswith("scaling.DRAM-Locker: ")]
        assert "missing or non-numeric" in report.violations[0]

    def test_non_numeric_value(self):
        baseline = load_artifact(_artifact_path("BENCH_obs_baseline.json"))
        current = copy.deepcopy(baseline)
        current["cells"]["none/bulk"]["disabled_pct"] = "0.01"
        report = compare(current, baseline)
        assert len(report.violations) == 1
        assert report.violations[0].startswith("cells.none/bulk: disabled-path overhead")
