"""The benchmark's three workloads.

Each workload is a list of harness scenarios run through
``run_matrix(..., workers=1)`` in this process, built from the workload
seed alone (dataset, victim initialisation and training order, attack
sampling, serving arrival streams).  A pass runs every cell once and
reduces the results to timed work, simulated outcomes and one record
of checkable facts per cell.

* ``attack-matrix`` -- every registered attack, open and behind
  DRAM-Locker, on the quick ResNet-20 victim.  Almost all time goes to
  eval-mode ``repro.nn`` forwards and ``SearchSession``; open cells land
  flips (prefix caches and probes recompute), locked cells run on memo
  hits and the blocked path.
* ``victim-train`` -- cold training of both quick victims with the
  victim cache disabled: BatchNorm in training mode, backward, col2im,
  weight-gradient GEMMs and the SGD update.  No attack or DRAM code.
* ``dram-serving`` -- 16-channel serving cells under co-located attack
  for {None, DRAM-Locker, TRR, Graphene, Hydra} x {bulk, events}, plus
  one attacker-free DRAM-Locker cell.  No ``repro.nn`` work at all.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro.attacks import available_attacks
from repro.eval import Scale, Scenario, experiments, harness
from repro.nn.cache import VictimCache, hash_arrays, memory_cache_clear, model_state

__all__ = ["PassResult", "WORKLOADS", "digest"]

#: Search iterations per attack cell.  The canned set's 10 would make
#: one pass take about a minute.
ATTACK_ITERATIONS = 2
#: Every registered attack family but ``pta``, whose open cell raises
#: ``ValueError: row index ... out of range`` on some seeds (5 among
#: them) once a PTE hammer corrupts a frame number.
ATTACKS = tuple(name for name in available_attacks() if name != "pta")
#: Serving slices per cell: about half a second of host time each.
SERVING_SLICES = 64
SERVING_CHANNELS = 16
SERVING_DEFENSES = ("None", "DRAM-Locker", "TRR", "Graphene", "Hydra")
SERVING_ENGINES = ("bulk", "events")


def _plain(value: Any) -> Any:
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"{type(value).__name__} in a payload")


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of a payload."""
    text = json.dumps(
        payload, sort_keys=True, default=_plain, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """One pass over a workload's cells."""

    wall_s: float
    #: Per cell: (rate, work units, host seconds) -- ``rate`` 0 or 1
    #: picks ``rate_a_per_s`` or ``rate_b_per_s`` (``Workload.rate_names``).
    work: dict[str, tuple[int, float, float]]
    #: Simulated outcomes: deterministic for a seed.
    simulated: dict[str, float]
    #: Per cell: the facts the output check compares.
    cells: dict[str, dict]
    #: Per cell: why it failed (raised, or broke an invariant).
    failures: dict[str, str] = field(default_factory=dict)
    flip_yield: float = 0.0


class Workload:
    name = ""
    #: Nominal host seconds of one pass on a 2-core x86 host.
    pass_s = 1.0
    rate_names: tuple[str, str] = ("", "")
    total_rate_name = ""
    simulated_units: dict[str, str] = {}
    warmup = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.scale = replace(Scale.quick(), seed=seed)

    def prepare(self) -> None:
        """One repetition of the workload's set-up."""

    def scenarios(self) -> list[Scenario]:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        started = time.perf_counter()
        matrix = harness.run_matrix(self.scenarios(), workers=1)
        wall_s = time.perf_counter() - started
        ok = [result for result in matrix.results if result.ok]
        result = self.summarize(ok, wall_s)
        result.failures.update(
            (cell.name, cell.error.strip().splitlines()[-1])
            for cell in matrix.results
            if not cell.ok
        )
        return result

    def summarize(self, results, wall_s: float) -> PassResult:
        raise NotImplementedError


class AttackMatrix(Workload):
    name = "attack-matrix"
    pass_s = 15.0
    rate_names = ("open_iters_per_s", "locked_iters_per_s")
    total_rate_name = "iters_per_s"
    simulated_units = {"locked_acc_drop_pp": "pp"}
    warmup = "victim trained into the benchmark's cache (first set-up)"

    def prepare(self) -> None:
        # The victim cache directory is the benchmark's own; the first
        # repetition trains into it, later ones load from disk.  Every
        # cell then hits the in-process layer.
        memory_cache_clear()
        experiments.build_victim("resnet20", self.scale)

    def scenarios(self) -> list[Scenario]:
        return [
            replace(scenario, seed=self.seed)
            for scenario in harness.attack_scenarios(
                self.scale,
                iterations=ATTACK_ITERATIONS,
                attacks=ATTACKS,
            )
        ]

    def summarize(self, results, wall_s: float) -> PassResult:
        cells: dict[str, dict] = {}
        work = {}
        failures: dict[str, str] = {}
        flips = iterations = 0
        drop = 0.0
        clean = {result.payload["clean_accuracy"] for result in results}
        planned = {
            scenario.name: scenario.kwargs()["iterations"]
            for scenario in self.scenarios()
        }
        for result in results:
            payload = result.payload
            locked = payload["protected"]
            work[result.name] = (
                int(locked), payload["iterations"], result.wall_clock_s
            )
            iterations += payload["iterations"]
            flips += payload["executed_flips"]
            if locked:
                drop = max(
                    drop, payload["clean_accuracy"] - payload["final_accuracy"]
                )
            cells[result.name] = {
                "digest": digest(payload),
                "iterations": payload["iterations"],
                "executed_flips": payload["executed_flips"],
                "final_accuracy": payload["final_accuracy"],
            }
            if payload["iterations"] != planned[result.name]:
                failures[result.name] = (
                    f"ran {payload['iterations']} iterations, "
                    f"expected {planned[result.name]}"
                )
        if len(clean) > 1:
            for result in results:
                failures[result.name] = f"cells disagree on the victim: {clean}"
        return PassResult(
            wall_s=wall_s,
            work=work,
            simulated={"locked_acc_drop_pp": drop},
            cells=cells,
            failures=failures,
            flip_yield=flips / iterations if iterations else 0.0,
        )


class VictimTrain(Workload):
    name = "victim-train"
    pass_s = 17.0
    rate_names = ("resnet20_samples_per_s", "vgg11_samples_per_s")
    total_rate_name = "samples_per_s"
    simulated_units = {"victim_acc_pct": "%"}
    warmup = "one training step and one test-set probe per architecture"
    runner = "perfbench-train"
    archs = ("resnet20", "vgg11")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.train_s: dict[str, float] = {}
        # A harness runner of the benchmark's own (the documented
        # extension point), so training runs as matrix cells too.
        harness.SCENARIO_RUNNERS[self.runner] = self._train_cell

    def prepare(self) -> None:
        # Synthesise the inputs and warm the per-shape GEMM check on
        # the training batch and probe shapes.
        from repro.nn.data import synthetic_cifar10, synthetic_cifar100
        from repro.nn.models import resnet20, vgg11

        scale = self.scale
        for dataset, model in (
            (synthetic_cifar10(hw=scale.input_hw, seed=scale.seed),
             resnet20(num_classes=10, width=scale.resnet_width,
                      input_hw=scale.input_hw, seed=scale.seed)),
            (synthetic_cifar100(hw=scale.input_hw, seed=scale.seed + 1),
             vgg11(num_classes=100, width=scale.vgg_width,
                   input_hw=scale.input_hw, seed=scale.seed)),
        ):
            batch = slice(0, 64)
            model.loss_and_grad(
                dataset.train_x[batch], dataset.train_y[batch], training=True
            )
            model.accuracy(dataset.test_x, dataset.test_y)

    def _train_cell(self, scale: Scale, seed: int, arch: str) -> dict:
        started = time.perf_counter()
        dataset, qmodel = experiments.build_victim(
            arch, replace(scale, seed=seed), cache=VictimCache.disabled()
        )
        self.train_s[arch] = time.perf_counter() - started
        model = qmodel.model
        return {
            "arch": arch,
            "samples": scale.epochs * int(dataset.train_x.shape[0]),
            "clean_accuracy": model.accuracy(dataset.test_x, dataset.test_y),
            "weights": hash_arrays(model_state(model)),
        }

    def scenarios(self) -> list[Scenario]:
        return [
            Scenario(f"train-{arch}", self.runner, self.scale, seed=self.seed,
                     params=(("arch", arch),))
            for arch in self.archs
        ]

    def summarize(self, results, wall_s: float) -> PassResult:
        cells = {}
        work = {}
        for result in results:
            payload = result.payload
            arch = payload["arch"]
            work[result.name] = (
                self.archs.index(arch), payload["samples"], self.train_s[arch]
            )
            cells[result.name] = {
                "digest": digest(payload),
                "weights": payload["weights"],
                "clean_accuracy": payload["clean_accuracy"],
            }
        accuracies = [cell["clean_accuracy"] for cell in cells.values()]
        return PassResult(
            wall_s=wall_s,
            work=work,
            simulated={"victim_acc_pct": min(accuracies, default=0.0)},
            cells=cells,
        )


class DramServing(Workload):
    name = "dram-serving"
    pass_s = 6.0
    rate_names = ("bulk_sim_requests_per_s", "events_sim_requests_per_s")
    total_rate_name = "sim_requests_per_s"
    simulated_units = {
        "sim_requests": "count",
        "victim_flips": "count",
        "sim_p99_ns": "ns",
    }
    warmup = "every cell run once with one slice"

    def _cells(self, slices: int) -> list[Scenario]:
        def cell(name: str, **params) -> Scenario:
            params.update(channels=SERVING_CHANNELS, slices=slices)
            return Scenario(name, "serving", self.scale, seed=self.seed,
                            params=tuple(sorted(params.items())))

        scenarios = [
            cell(f"serving-{_slug(defense)}-{engine}", defense=defense,
                 engine=engine)
            for defense in SERVING_DEFENSES
            for engine in SERVING_ENGINES
        ]
        scenarios.append(
            cell("serving-dram-locker-solo", defense="DRAM-Locker",
                 colocated=False)
        )
        return scenarios

    def prepare(self) -> None:
        harness.run_matrix(self._cells(1), workers=1, strict=True)

    def scenarios(self) -> list[Scenario]:
        return self._cells(SERVING_SLICES)

    def summarize(self, results, wall_s: float) -> PassResult:
        cells = {}
        work = {}
        failures = {}
        flips = requests = 0
        p99 = 0.0
        neutral = {}
        for result in results:
            payload = result.payload
            sla = payload["sla"]
            served = sla["aggregate"]["requests"]
            engine = payload["config"]["engine"]
            work[result.name] = (
                SERVING_ENGINES.index(engine), served, result.wall_clock_s
            )
            requests += served
            if payload["defense"] == "DRAM-Locker":
                flips += payload["victim"]["victim_flip_events"]
            for tenant, report in sla["tenants"].items():
                if tenant != "attacker" and "latency_ns" in report:
                    p99 = max(p99, report["latency_ns"]["p99"])
            # The engines must agree on everything but their own name.
            config = dict(payload["config"], engine=None)
            neutral[result.name] = digest(dict(payload, config=config))
            cells[result.name] = {
                "digest": digest(payload),
                "sla_fingerprint": sla_fingerprint(payload),
                "victim_flip_events": payload["victim"]["victim_flip_events"],
            }
        for defense in SERVING_DEFENSES:
            bulk, events = (f"serving-{_slug(defense)}-{engine}"
                            for engine in SERVING_ENGINES)
            if bulk in neutral and events in neutral and (
                neutral[bulk] != neutral[events]
            ):
                failures[events] = f"events payload differs from {bulk}"
        return PassResult(
            wall_s=wall_s,
            work=work,
            simulated={
                "sim_requests": requests,
                "victim_flips": flips,
                "sim_p99_ns": p99,
            },
            cells=cells,
            failures=failures,
        )


def _slug(defense: str) -> str:
    return defense.lower().replace("/", "-")


def sla_fingerprint(payload: dict) -> dict:
    """The deterministic SLA figures the serving gates pin exactly."""
    aggregate = payload["sla"]["aggregate"]
    fingerprint = {
        key: aggregate[key] for key in ("requests", "issued", "blocked")
    }
    latency = payload["sla"]["tenants"].get("tenant-0", {}).get("latency_ns")
    if latency:
        fingerprint["tenant0_latency_ns"] = latency
    return fingerprint


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (AttackMatrix, VictimTrain, DramServing)
}
