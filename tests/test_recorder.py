"""The bench recorders' shared skeleton (``repro.eval.recorder``) and the
atomic artifact write every ``BENCH_``/``RUNTABLE_`` file goes through.

A recorder that sees a broken contract must leave no artifact for the
nightly gate to judge, and a write that fails half-way must leave the
previous artifact intact.
"""

import os

import numpy as np
import pytest

from repro.eval import Scale, Scenario
from repro.eval.runners import SCENARIO_RUNNERS
from repro.eval.recorder import (
    best_of,
    engine_check,
    recording,
    refuse,
    sla_fingerprint,
)
from repro.eval.regression import load_artifact, save_artifact

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVING_BASELINE = os.path.join(
    REPO, "benchmarks", "artifacts", "BENCH_serving_baseline.json"
)


@pytest.fixture()
def runner():
    """Register a throwaway scenario runner for one test."""
    added = []

    def register(name, function):
        SCENARIO_RUNNERS[name] = function
        added.append(name)

    try:
        yield register
    finally:
        for name in added:
            del SCENARIO_RUNNERS[name]


class TestBestOf:
    def test_failing_scenario_refuses(self):
        with pytest.raises(SystemExit, match="unknown runner .*; refusing"):
            best_of(Scenario("ghost", "no-such-runner", seed=0))

    def test_payload_changing_between_repeats_refuses(self, runner):
        calls = []

        def drifting(scale, seed):
            calls.append(seed)
            return {"call": len(calls)}

        runner("test-drifting", drifting)
        with pytest.raises(SystemExit, match="nondeterministic payload"):
            best_of(Scenario("drift", "test-drifting", seed=0), repeats=3)
        assert len(calls) == 2

    def test_returns_the_fastest_run(self, runner):
        runner("test-steady", lambda scale, seed: {"seed": seed})
        wall_s, result = best_of(
            Scenario("steady", "test-steady", seed=7), repeats=3
        )
        assert result.payload == {"seed": 7}
        assert wall_s == result.wall_clock_s


class TestRecording:
    def test_stamps_schema_meta_and_total_time(self, tmp_path):
        path = tmp_path / "out" / "BENCH_demo.json"
        with recording("demo-bench/1", str(path)) as document:
            document["cells"] = {"a": {"identical": True}}
        written = load_artifact(str(path))
        assert written["schema"] == "demo-bench/1"
        assert {"python", "numpy", "git_sha"} <= set(written["meta"])
        assert written["timing"]["total_s"] >= 0
        assert written["cells"] == {"a": {"identical": True}}
        assert os.listdir(path.parent) == ["BENCH_demo.json"]

    def test_refusal_writes_nothing(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        for earlier in (None, '{"schema": "earlier"}\n'):
            if earlier is not None:
                path.write_text(earlier)
            with pytest.raises(SystemExit, match="diverged; refusing"):
                with recording("demo-bench/1", str(path)) as document:
                    document["cells"] = {}
                    refuse("diverged")
            assert os.listdir(tmp_path) == ([] if earlier is None else [path.name])
        assert path.read_text() == '{"schema": "earlier"}\n'


class TestSaveArtifact:
    def test_format(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        assert save_artifact(path, {"b": np.int64(3), "a": [1.5]}) == path
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == '{\n  "a": [\n    1.5\n  ],\n  "b": 3\n}\n'

    def test_failed_dump_keeps_the_earlier_file(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        save_artifact(path, {"schema": "x", "n": 1})
        looped = {"schema": "x"}
        looped["self"] = looped
        with pytest.raises(ValueError):
            save_artifact(path, looped)
        assert load_artifact(path) == {"schema": "x", "n": 1}
        assert os.listdir(tmp_path) == ["BENCH_x.json"]


class TestServingChecks:
    @pytest.mark.parametrize(
        "cell, channels, defense",
        [("none-ch1", 1, "None"), ("dram-locker-ch4", 4, "DRAM-Locker")],
    )
    def test_sla_fingerprint_matches_the_committed_baseline(
        self, cell, channels, defense
    ):
        scenario = Scenario(
            cell, "serving", Scale.quick(), seed=0,
            params=(("channels", channels), ("colocated", True),
                    ("defense", defense), ("engine", "events")),
        )
        _, result = best_of(scenario)
        baseline = load_artifact(SERVING_BASELINE)["cells"][cell]
        assert sla_fingerprint(result.payload) == baseline["sla_fingerprint"]
        assert engine_check(scenario, result)["identical"] is True

    def test_engine_check_ignores_only_the_engine_knob(self, runner):
        runner("test-engines", lambda scale, seed, engine="bulk", leak=False: {
            "config": {"engine": engine},
            "served": engine if leak else 10,
        })
        same = Scenario("same", "test-engines", seed=0)
        _, result = best_of(same)
        check = engine_check(same, result)
        assert check["identical"] is True
        assert set(check) == {"identical", "bulk_wall_s", "events_wall_s"}
        leaky = Scenario("leaky", "test-engines", seed=0,
                         params=(("engine", "events"), ("leak", True)))
        _, result = best_of(leaky)
        with pytest.raises(SystemExit, match="leaky: bulk-engine payload diverged"):
            engine_check(leaky, result)
