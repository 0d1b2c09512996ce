"""Which functions of ``repro`` the traced pass wraps, and the per-layer
metrics it derives from them.

Functions are patched where callers look them up: ``Conv2d`` calls the
``im2col``/``contract``/``col2im`` names bound in ``repro.nn.layers``,
``cached_train`` calls the ``train`` bound in ``repro.nn.cache``, the
attack runner calls the ``run_attack`` bound in
``repro.eval.experiments``.  Patching ``repro.nn.functional.im2col``
instead would record nothing.  Every ``Defense`` subclass's own hook
methods are patched, and a call is filed under the class of the
instance, so an inherited hook counts for the subclass that ran it.

Metric suffixes: ``.s`` is inclusive seconds of the outermost calls
(for leaf operations that is also their self time), ``.self_s`` is self
time (wrapped callees excluded), ``.calls`` counts outermost calls, and
the rest are counts or ratios as named.
"""

from __future__ import annotations

import importlib
from collections import Counter

from tracing import Tracer

__all__ = ["PER_LAYER", "EXPECTED", "LayerTrace"]

#: Per-layer metrics as (name, unit).  ``run.py`` prints exactly these
#: in a traced run; ``BENCHMARK.json`` lists the same names.
PER_LAYER: list[tuple[str, str]] = [
    ("nn.im2col.s", "s"),
    ("nn.im2col.calls", "count"),
    ("nn.gemm.s", "s"),
    ("nn.gemm.calls", "count"),
    ("nn.col2im.s", "s"),
    ("nn.bn.fwd.s", "s"),
    ("nn.bn.bwd.s", "s"),
    ("nn.conv.self_s", "s"),
    ("nn.linear.s", "s"),
    ("nn.pointwise.s", "s"),
    ("nn.train.step.s", "s"),
    ("nn.train.step.calls", "count"),
    ("nn.train.sgd.self_s", "s"),
    ("nn.probe.s", "s"),
    ("nn.probe.rows", "count"),
    ("nn.forward.rows", "count"),
    ("nn.quant.sync.s", "s"),
    ("nn.storage.s", "s"),
    ("nn.cache.s", "s"),
    ("nn.cache.hit_ratio", "ratio"),
    ("attacks.grad.s", "s"),
    ("attacks.grad.hit_ratio", "ratio"),
    ("attacks.evaluate.s", "s"),
    ("attacks.candidates", "count"),
    ("attacks.suffix_batches", "count"),
    ("attacks.probe.s", "s"),
    ("attacks.probe.hit_ratio", "ratio"),
    ("attacks.refresh.s", "s"),
    ("attacks.hammer.s", "s"),
    ("attacks.run.self_s", "s"),
    ("attacks.flip_yield", "ratio"),
    ("controller.exec.bulk.s", "s"),
    ("controller.exec.bulk.calls", "count"),
    ("controller.exec.events.s", "s"),
    ("controller.exec.events.calls", "count"),
    ("controller.blocked_ratio", "ratio"),
    ("controller.queue.self_s", "s"),
    ("dram.device.s", "s"),
    ("locker.s", "s"),
    ("locker.swaps", "count"),
    ("defenses.s", "s"),
    ("defenses.trr.s", "s"),
    ("defenses.graphene.s", "s"),
    ("defenses.hydra.s", "s"),
    ("serving.workload.s", "s"),
    ("serving.op.self_s", "s"),
    ("serving.sla.s", "s"),
    ("serving.sharded.self_s", "s"),
    ("serving.end_slice.s", "s"),
    ("eval.cell.s", "s"),
    ("eval.dispatch.self_s", "s"),
    ("eval.build.self_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_s", "s"),
    ("bench.spans", "count"),
]

_NN_FORWARD = (
    "nn.im2col.s", "nn.im2col.calls", "nn.gemm.s", "nn.gemm.calls",
    "nn.bn.fwd.s", "nn.conv.self_s", "nn.linear.s", "nn.pointwise.s",
    "nn.probe.s", "nn.probe.rows", "nn.forward.rows",
)
_NN_BACKWARD = ("nn.col2im.s", "nn.bn.bwd.s")
_NN_TRAIN = ("nn.train.step.s", "nn.train.step.calls", "nn.train.sgd.self_s")
_NN = [name for name, _ in PER_LAYER if name.startswith("nn.")]
_ATTACKS = (
    "attacks.grad.s", "attacks.evaluate.s", "attacks.candidates",
    "attacks.suffix_batches", "attacks.probe.s", "attacks.refresh.s",
    "attacks.hammer.s", "attacks.run.self_s", "attacks.flip_yield",
)
_DRAM_ATTACK = (
    "controller.exec.bulk.s", "controller.exec.bulk.calls",
    "controller.blocked_ratio", "dram.device.s", "locker.s", "locker.swaps",
)
_DRAM = _DRAM_ATTACK + (
    "controller.exec.events.s", "controller.exec.events.calls",
    "controller.queue.self_s", "defenses.s", "defenses.trr.s",
    "defenses.graphene.s", "defenses.hydra.s",
)
_SERVING = tuple(
    name for name, _ in PER_LAYER if name.startswith("serving.")
)
_EVAL = ("eval.cell.s", "eval.dispatch.self_s", "eval.build.self_s")

#: Per workload: metrics that must read > 0 in a traced pass (the layers
#: the workload exists to exercise) and metrics that must read exactly
#: 0 (the layers predicted idle there).
EXPECTED: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "attack-matrix": (
        _NN_FORWARD + _NN_BACKWARD + ("nn.quant.sync.s", "nn.storage.s",
                                      "nn.cache.s", "nn.cache.hit_ratio")
        + _ATTACKS + _DRAM_ATTACK + _EVAL,
        ("controller.exec.events.s", "controller.exec.events.calls",
         "controller.queue.self_s", "defenses.s") + _SERVING,
    ),
    "victim-train": (
        _NN_FORWARD + _NN_BACKWARD + _NN_TRAIN + _EVAL,
        _ATTACKS + _DRAM + _SERVING,
    ),
    "dram-serving": (
        _DRAM + _SERVING + ("eval.cell.s", "eval.dispatch.self_s"),
        tuple(_NN) + _ATTACKS,
    ),
}


def _rows(args, kwargs, result) -> int:
    return int(args[1].shape[0])


def _one(args, kwargs, result) -> int:
    return 1


def _repeat(args, kwargs, result) -> int:
    """``(row_or_request, count=1)`` entry points."""
    return args[2] if len(args) > 2 else kwargs.get("count", 1)


def _stream(args, kwargs, result) -> int:
    try:
        return len(args[1])
    except TypeError:  # a one-shot iterable, already consumed
        return 0


#: Requests each controller entry point executes.
_CONTROLLER_ENTRIES = {
    "execute": _one,
    "read": _one,
    "write": _one,
    "hammer": _repeat,
    "hammer_run": _repeat,
    "execute_run": _repeat,
    "execute_batch": _stream,
    "execute_summary": _stream,
    "execute_stream": _stream,
    "run": _stream,
}


def _all_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _all_subclasses(sub)
    return found


_DEFENSE_HOOKS = (
    "on_activate",
    "plan_activate_run",
    "on_activate_run",
    "next_act_event",
    "on_refresh_window",
)


class LayerTrace:
    """Installs the layer wrappers on ``repro`` and turns what they
    recorded into :data:`PER_LAYER` values."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters: Counter = Counter()
        # Objects seen during the current cell; their own counters are
        # folded into ``counters`` when the cell ends, then dropped.
        self._sessions: dict[int, object] = {}
        self._controllers: dict[int, object] = {}
        self._lockers: dict[int, object] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.attacks.hammer import HammerDriver
        from repro.attacks.session import SearchSession
        from repro.controller.controller import MemoryController
        from repro.controller.events import SystemEventQueue
        from repro.defenses.base import Defense
        from repro.dram.device import DRAMDevice
        from repro.locker.locker import DRAMLocker
        from repro.serving.engine import ServingSimulation
        from repro.serving.sharded import ShardedMemorySystem
        from repro.serving.sla import SLAAccountant, TenantSink
        from repro.serving.workload import WorkloadGenerator

        # Modules by path: the attribute ``repro.nn.train`` is the
        # function, which shadows the module of the same name.
        (cache, layers, model, models, quant, storage, train, experiments,
         harness) = (
            importlib.import_module(f"repro.{path}")
            for path in ("nn.cache", "nn.layers", "nn.model", "nn.models",
                         "nn.quant", "nn.storage", "nn.train",
                         "eval.experiments", "eval.harness")
        )
        patch = self.tracer.patch

        def methods(cls, names, metric, **hooks):
            for name in names:
                patch(cls, name, metric, **hooks)

        # repro.nn
        patch(layers, "im2col", "nn.im2col")
        patch(layers, "contract", "nn.gemm")
        patch(layers, "col2im", "nn.col2im")
        patch(layers.BatchNorm2d, "forward", "nn.bn.fwd")
        patch(layers.BatchNorm2d, "backward", "nn.bn.bwd")
        methods(layers.Conv2d, ("forward", "backward"), "nn.conv")
        methods(layers.Linear, ("forward", "backward"), "nn.linear")
        for cls in (layers.ReLU, layers.MaxPool2d, layers.GlobalAvgPool,
                    layers.Flatten, models.BasicBlock):
            methods(cls, ("forward", "backward"), "nn.pointwise")
        methods(layers.Sequential, ("forward", "forward_from"), "nn.forward",
                count=_rows)
        patch(model.Model, "loss_and_grad", "nn.train.step")
        methods(model.Model, ("accuracy", "predict"), "nn.probe", count=_rows)
        patch(train, "train", "nn.train.sgd")
        patch(cache, "train", "nn.train.sgd")
        methods(quant.QuantizedModel,
                ("__init__", "load_into_model", "sync_layer", "flip_bit",
                 "snapshot", "restore"), "nn.quant.sync")
        methods(quant.QuantizedTensor,
                ("dequantize", "flip_bit", "to_bytes", "from_bytes"),
                "nn.quant.sync")
        methods(storage.WeightStore,
                ("__init__", "sync_model", "write_back", "bit_location",
                 "locate_bit", "inference_requests", "stream_inference"),
                "nn.storage")
        patch(cache.VictimCache, "load", "nn.cache", after=self._cache_lookup)
        patch(cache.VictimCache, "store", "nn.cache")
        patch(cache, "victim_spec", "nn.cache")
        patch(cache, "load_model_state", "nn.cache")

        # repro.attacks
        seen_session = self._remember(self._sessions)
        patch(SearchSession, "objective_grads", "attacks.grad",
              after=seen_session)
        patch(SearchSession, "evaluate_flips", "attacks.evaluate",
              after=seen_session)
        methods(SearchSession, ("probe", "accuracy", "success_rate",
                                "objective"), "attacks.probe",
                after=seen_session)
        patch(SearchSession, "refresh", "attacks.refresh")
        patch(HammerDriver, "hammer_bit", "attacks.hammer")
        patch(experiments, "run_attack", "attacks.run")

        # DRAM stack
        seen_controller = self._remember(self._controllers)
        for name, requests in _CONTROLLER_ENTRIES.items():
            patch(MemoryController, name,
                  lambda self: f"controller.exec.{self.engine}",
                  count=requests, after=seen_controller)
        methods(SystemEventQueue, ("submit", "drain"), "controller.queue")
        methods(DRAMDevice,
                ("activate", "precharge", "read_burst", "write_burst",
                 "read_burst_run", "write_burst_run", "rowclone", "advance",
                 "peek_row", "poke_row", "peek_bytes", "poke_bytes",
                 "flip_bit"), "dram.device")
        methods(DRAMLocker,
                ("protect", "lock_rows", "unlock_rows", "translate",
                 "on_request", "quiet_span", "next_deadline", "classify",
                 "charge_bulk", "charge_bulk_blocked"), "locker",
                after=self._remember(self._lockers))
        for cls in _all_subclasses(Defense):
            for hook in _DEFENSE_HOOKS:
                if hook in cls.__dict__:
                    patch(cls, hook, lambda self: f"defenses.{type(self).__name__.lower()}")

        # repro.serving
        patch(WorkloadGenerator, "slice_ops", "serving.workload")
        patch(ServingSimulation, "serve_op", "serving.op")
        patch(ServingSimulation, "end_slice", "serving.end_slice")
        methods(SLAAccountant,
                ("sink", "observe_op", "observe_shed", "observe_sojourn",
                 "report", "live_report"), "serving.sla")
        methods(TenantSink, ("add", "add_run"), "serving.sla")
        methods(ShardedMemorySystem,
                ("__init__", "execute", "read", "write", "execute_run",
                 "hammer_run", "execute_stream", "handoff_stream",
                 "execute_summary", "submit_stream", "event_queue", "locate",
                 "system_row", "neighbors", "protect", "peek_bytes",
                 "register_template", "aggregate_stats", "channel_report",
                 "locker_summaries"), "serving.sharded")

        # repro.eval
        patch(harness, "run_scenario", "eval.cell",
              after=lambda args, kwargs, result: self.end_cell())
        methods(experiments, ("build_victim", "build_system"), "eval.build")

    def restore(self) -> None:
        self.tracer.restore()

    # ------------------------------------------------------------------
    @staticmethod
    def _remember(seen: dict):
        def after(args, kwargs, result) -> None:
            seen[id(args[0])] = args[0]

        return after

    def _cache_lookup(self, args, kwargs, result) -> None:
        self.counters["cache.lookups"] += 1
        self.counters["cache.hits"] += result is not None

    def end_cell(self) -> None:
        """Fold the counters of objects the finished cell used."""
        counters = self.counters
        for session in self._sessions.values():
            stats = session.stats
            counters["session.candidates"] += stats.candidate_evals
            counters["session.suffix_batches"] += stats.suffix_batches
            counters["session.probe_hits"] += stats.probe_hits
            counters["session.probe_misses"] += stats.probe_misses
            counters["session.grad_hits"] += stats.grad_hits
            counters["session.grad_misses"] += stats.grad_misses
        for controller in self._controllers.values():
            counters["controller.blocked"] += (
                controller.device.stats.blocked_requests
            )
        for locker in self._lockers.values():
            counters["locker.swaps"] += locker.unlock_swaps + locker.restores
        self._sessions.clear()
        self._controllers.clear()
        self._lockers.clear()

    # ------------------------------------------------------------------
    def metrics(
        self, traced_wall_s: float, untraced_wall_s: float, flip_yield: float
    ) -> dict[str, float]:
        """Every :data:`PER_LAYER` value of the traced pass."""
        t = self.tracer
        c = self.counters

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        requests = t.count("controller.exec.bulk", "controller.exec.events",
                           "controller.exec.scalar")
        defenses = sorted(
            name for name in t.stats if name.startswith("defenses.")
        )
        values = {
            "nn.im2col.s": t.total_s("nn.im2col"),
            "nn.im2col.calls": t.calls("nn.im2col"),
            "nn.gemm.s": t.total_s("nn.gemm"),
            "nn.gemm.calls": t.calls("nn.gemm"),
            "nn.col2im.s": t.total_s("nn.col2im"),
            "nn.bn.fwd.s": t.total_s("nn.bn.fwd"),
            "nn.bn.bwd.s": t.total_s("nn.bn.bwd"),
            "nn.conv.self_s": t.self_s("nn.conv"),
            "nn.linear.s": t.total_s("nn.linear"),
            # BasicBlock shares this metric; its self time is the
            # residual add, so self time is the right reading.
            "nn.pointwise.s": t.self_s("nn.pointwise"),
            "nn.train.step.s": t.total_s("nn.train.step"),
            "nn.train.step.calls": t.calls("nn.train.step"),
            "nn.train.sgd.self_s": t.self_s("nn.train.sgd"),
            "nn.probe.s": t.total_s("nn.probe"),
            "nn.probe.rows": t.count("nn.probe"),
            "nn.forward.rows": t.count("nn.forward"),
            "nn.quant.sync.s": t.total_s("nn.quant.sync"),
            "nn.storage.s": t.total_s("nn.storage"),
            "nn.cache.s": t.total_s("nn.cache"),
            "nn.cache.hit_ratio": ratio(c["cache.hits"], c["cache.lookups"]),
            "attacks.grad.s": t.total_s("attacks.grad"),
            "attacks.grad.hit_ratio": ratio(
                c["session.grad_hits"],
                c["session.grad_hits"] + c["session.grad_misses"],
            ),
            "attacks.evaluate.s": t.total_s("attacks.evaluate"),
            "attacks.candidates": c["session.candidates"],
            "attacks.suffix_batches": c["session.suffix_batches"],
            "attacks.probe.s": t.total_s("attacks.probe"),
            "attacks.probe.hit_ratio": ratio(
                c["session.probe_hits"],
                c["session.probe_hits"] + c["session.probe_misses"],
            ),
            "attacks.refresh.s": t.total_s("attacks.refresh"),
            "attacks.hammer.s": t.total_s("attacks.hammer"),
            "attacks.run.self_s": t.self_s("attacks.run"),
            "attacks.flip_yield": flip_yield,
            "controller.exec.bulk.s": t.total_s("controller.exec.bulk"),
            "controller.exec.bulk.calls": t.calls("controller.exec.bulk"),
            "controller.exec.events.s": t.total_s("controller.exec.events"),
            "controller.exec.events.calls": t.calls("controller.exec.events"),
            "controller.blocked_ratio": ratio(c["controller.blocked"], requests),
            "controller.queue.self_s": t.self_s("controller.queue"),
            "dram.device.s": t.total_s("dram.device"),
            "locker.s": t.total_s("locker"),
            "locker.swaps": c["locker.swaps"],
            "defenses.s": t.total_s(*defenses),
            "defenses.trr.s": t.total_s("defenses.trr"),
            "defenses.graphene.s": t.total_s("defenses.graphene"),
            "defenses.hydra.s": t.total_s("defenses.hydra"),
            "serving.workload.s": t.total_s("serving.workload"),
            "serving.op.self_s": t.self_s("serving.op"),
            "serving.sla.s": t.total_s("serving.sla"),
            "serving.sharded.self_s": t.self_s("serving.sharded"),
            "serving.end_slice.s": t.total_s("serving.end_slice"),
            "eval.cell.s": t.total_s("eval.cell"),
            "eval.dispatch.self_s": t.self_s("eval.cell"),
            "eval.build.self_s": t.self_s("eval.build"),
            "bench.trace_overhead_pct": 100.0 * (
                traced_wall_s / untraced_wall_s - 1.0
            ),
            "bench.unattributed_s": traced_wall_s - t.attributed_s(),
            "bench.spans": t.spans,
        }
        assert list(values) == [name for name, _ in PER_LAYER]
        return values
