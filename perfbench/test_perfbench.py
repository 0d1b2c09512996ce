"""Tests of the benchmark itself: the tracer, the layer table and the
output check.  Run from the repository root::

    python3 -m pytest perfbench -q

The workload tests run each workload at a reduced size (fewer attacks,
iterations, epochs and slices) -- the layers they touch are the same.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
def _toy_module():
    module = types.SimpleNamespace()

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def outer(depth):
        time.sleep(0.01)
        module.leaf(0.02)
        if depth:
            module.outer(depth - 1)  # recursion into the same metric
        return depth

    module.leaf = leaf
    module.outer = outer
    return module


def test_self_time_folds_and_sums_to_wall():
    module = _toy_module()
    tracer = Tracer()
    tracer.patch(module, "leaf", "leaf")
    tracer.patch(module, "outer", "outer", count=lambda a, k, r: 1)
    started = time.perf_counter()
    assert module.outer(2) == 2
    wall = time.perf_counter() - started

    assert tracer.calls("outer") == 1  # outermost call only
    assert tracer.count("outer") == 1
    assert tracer.calls("leaf") == 3
    assert tracer.self_s("leaf") == pytest.approx(0.06, abs=0.02)
    assert tracer.self_s("outer") == pytest.approx(0.03, abs=0.02)
    assert tracer.total_s("outer") == pytest.approx(wall, abs=0.005)
    assert tracer.attributed_s() == pytest.approx(wall, abs=0.005)
    assert tracer.spans == 6

    tracer.restore()
    assert module.leaf.__name__ == "leaf" and not hasattr(module.leaf, "__wrapped__")


def test_folding_keeps_every_span():
    """A ring buffer of events would drop all but its capacity."""
    module = types.SimpleNamespace(tick=lambda: None)
    tracer = Tracer()
    tracer.patch(module, "tick", "tick")
    for _ in range(200_000):
        module.tick()
    assert tracer.calls("tick") == 200_000
    assert tracer.spans == 200_000
    assert list(tracer.stats) == ["tick"]


def test_patching_where_defined_misses_bound_names():
    import repro.nn.functional as functional
    from repro.nn.layers import Conv2d
    import numpy as np

    conv = Conv2d(3, 4, 3)
    x = np.zeros((2, 3, 8, 8), dtype=np.float32)
    tracer = Tracer()
    tracer.patch(functional, "im2col", "nn.im2col")
    try:
        conv.forward(x)
    finally:
        tracer.restore()
    assert tracer.calls("nn.im2col") == 0

    trace = layers.LayerTrace()
    trace.install()
    try:
        conv.forward(x)
    finally:
        trace.restore()
    assert trace.tracer.calls("nn.im2col") == 1
    assert trace.tracer.calls("nn.gemm") == 1


def test_every_defense_hook_is_patched_and_restored():
    from repro.defenses.base import Defense

    classes = layers._all_subclasses(Defense)
    hooks = [
        (cls, hook) for cls in classes for hook in layers._DEFENSE_HOOKS
        if hook in cls.__dict__
    ]
    originals = {key: key[0].__dict__[key[1]] for key in hooks}
    assert len({cls for cls, _ in hooks}) >= 12
    trace = layers.LayerTrace()
    trace.install()
    try:
        for cls, hook in hooks:
            assert cls.__dict__[hook].__wrapped__ is originals[(cls, hook)]
    finally:
        trace.restore()
    for cls, hook in hooks:
        assert cls.__dict__[hook] is originals[(cls, hook)]


# ----------------------------------------------------------------------
# Workloads: traced == untraced, and the layers light up as predicted
# ----------------------------------------------------------------------
@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_VICTIM_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.setattr(workloads, "ATTACK_ITERATIONS", 2)
    monkeypatch.setattr(workloads, "ATTACKS", ("bfa", "tbfa-n-to-1"))
    monkeypatch.setattr(workloads, "SERVING_SLICES", 4)
    from repro.nn.cache import memory_cache_clear

    memory_cache_clear()
    yield
    memory_cache_clear()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_pass_matches_untraced_and_expectations(small, name):
    workload = workloads.WORKLOADS[name](seed=3)
    workload.scale = replace(workload.scale, epochs=2)
    if name == "victim-train":
        workload.archs = ("resnet20",)
    workload.prepare()
    untraced = workload.run_pass()
    trace = layers.LayerTrace()
    trace.install()
    try:
        traced = workload.run_pass()
    finally:
        trace.restore()

    assert not untraced.failures and not traced.failures
    assert untraced.cells and traced.cells == untraced.cells
    assert traced.simulated == untraced.simulated
    assert run._check([untraced, traced], ["untraced", "traced"], None) == []

    values = trace.metrics(traced.wall_s, untraced.wall_s, traced.flip_yield)
    assert list(values) == [metric for metric, _ in layers.PER_LAYER]
    active, idle = layers.EXPECTED[name]
    assert [m for m in active if not values[m] > 0] == []
    assert [m for m in idle if values[m] != 0] == []
    assert values["bench.unattributed_s"] < 0.05 * traced.wall_s


# ----------------------------------------------------------------------
# The output check and the command line
# ----------------------------------------------------------------------
def test_check_names_the_cell_that_drifts():
    def one(digest):
        return workloads.PassResult(
            wall_s=1.0, work={}, simulated={"x": 1.0},
            cells={"a": {"digest": "same"}, "b": {"digest": digest}},
        )

    reference = {"cells": {"a": {"digest": "same"}, "b": {"digest": "old"}},
                 "simulated": {"x": 1.0}}
    failures = run._check([one("new"), one("new")], ["p0", "p1"], reference)
    assert [(label, cell) for label, cell, _ in failures] == [
        ("p0", "b"), ("p1", "b")
    ]
    assert "recorded reference" in failures[0][2]

    failures = run._check([one("new"), one("newer")], ["p0", "p1"], None)
    assert [(label, cell) for label, cell, _ in failures] == [("p1", "b")]


def test_rates_take_each_cells_best_pass():
    def one(seconds_a, seconds_b):
        return workloads.PassResult(
            wall_s=1.0, simulated={}, cells={},
            work={"a": (0, 10.0, seconds_a), "b": (1, 4.0, seconds_b)},
        )

    assert run._best_rates([one(2.0, 1.0), one(5.0, 0.5)]) == (5.0, 8.0, 14 / 2.5)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dram-serving",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
