"""Parallel scenario harness: the defense x attack x model x scale matrix.

Every figure/table runner used to be a hand-rolled serial script.  This
module turns them into declarative :class:`Scenario` specs -- a named
(runner, arch, scale, seed, params) point of the evaluation matrix --
and a :func:`run_matrix` executor that fans scenarios out over
``multiprocessing`` workers with deterministic per-scenario seeds and
writes one ``BENCH_<tag>.json`` artifact capturing accuracy curves,
memory stats, and wall-clock per scenario.  The runners behind the
scenario names live in :mod:`repro.eval.runners`, the worker pool and
its supervisor in :mod:`repro.eval.fleet`.

Properties the test suite pins down (``tests/test_harness.py``):

* **Determinism** -- the artifact's ``results`` section is a pure
  function of the scenario list and ``base_seed``; re-running, or
  changing the worker count, changes only the ``timing`` section.
* **Seed derivation** -- a scenario without an explicit seed gets
  ``derive_seed(name, base_seed)``, a stable CRC-based value, so adding
  or reordering scenarios never shifts another scenario's seed.

Command line::

    python -m repro.eval.harness --set smoke --out artifacts
    python -m repro.eval.harness --set quick --workers 4 --tag nightly
"""

from __future__ import annotations

import argparse
import cProfile
import logging
import os
import re
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .. import obs
from ..attacks import available_attacks
from ..nn import memo
from ..seeds import derive_seed
from . import fleet
from .experiments import Scale
from .faults import FaultPlan
from .regression import HARNESS_SCHEMA, host_meta, save_artifact
from .runners import SCENARIO_RUNNERS

__all__ = [
    "Scenario",
    "ScenarioResult",
    "MatrixResult",
    "MatrixFailure",
    "run_scenario",
    "run_matrix",
    "scenario_result_payload",
    "attack_prewarm",
    "attack_scenarios",
    "bakeoff_scenarios",
    "BAKEOFF_DEFENSES",
    "cheap_scenarios",
    "smoke_scenarios",
    "quick_scenarios",
    "serving_scenarios",
]

logger = logging.getLogger("repro.eval.harness")


# ----------------------------------------------------------------------
# Scenario specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One point of the defense x attack x model x scale x seed matrix.

    Attributes:
        name: Unique label inside a matrix; also the artifact key and
            the seed-derivation input.
        runner: Key into :data:`repro.eval.runners.SCENARIO_RUNNERS`.
        scale: Fidelity/runtime knobs forwarded to the runner.
        seed: Explicit seed; ``None`` derives one from the name.
        params: Extra runner keyword arguments as a sorted tuple of
            ``(key, value)`` pairs (tuples keep the spec hashable and
            cheap to pickle across workers).
    """

    name: str
    runner: str
    scale: Scale = field(default_factory=Scale.quick)
    seed: int | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def resolved_seed(self, base_seed: int = 0) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(self.name, base_seed)

    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)


# Stable per-scenario seed: independent of list order and of every
# other scenario, so matrices stay reproducible as they grow.  One
# definition for the whole stack lives in repro.seeds.


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution.

    ``attempts`` and ``quarantined`` are set only by the supervised
    parallel path: ``attempts`` lists the counted failure outcomes
    (``"worker-lost"``, ``"timeout"``, ``"error"``) that preceded this
    result, and ``quarantined=True`` marks a cell that exhausted its
    retry budget and was isolated as a structured error instead of
    poisoning the matrix.
    """

    name: str
    runner: str
    seed: int
    wall_clock_s: float
    payload: dict | None = None
    error: str | None = None
    attempts: tuple[str, ...] = ()
    quarantined: bool = False
    #: Per-cell telemetry snapshot (:meth:`repro.obs.Telemetry.
    #: snapshot`), recorded only when telemetry is active in the
    #: parent (or ``REPRO_TELEMETRY`` is set, which survives spawn
    #: workers).  Deliberately excluded from the artifact payload.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class MatrixFailure(RuntimeError):
    """Raised by ``run_matrix(strict=True)`` when any scenario failed."""

    def __init__(self, failures: "list[ScenarioResult]"):
        self.failures = failures
        names = ", ".join(result.name for result in failures)
        super().__init__(
            f"{len(failures)} scenario(s) failed: {names}\n\n"
            + "\n\n".join(
                f"--- {result.name} ---\n{result.error}" for result in failures
            )
        )


@dataclass
class MatrixResult:
    """All scenario results plus the matrix-level timing."""

    tag: str
    base_seed: int
    workers: int
    wall_clock_s: float
    results: list[ScenarioResult]
    scenarios: list[Scenario]
    artifact_path: str | None = None
    #: Time spent creating the worker pool; 0.0 when the persistent
    #: pool was reused (or the matrix ran serially).
    pool_startup_s: float = 0.0
    #: Time spent in the parent-side ``prewarm`` hook, if any.
    prewarm_s: float = 0.0
    #: Supervisor attempt log: name -> failure outcomes observed before
    #: the cell's final result ("worker-lost" / "timeout" / "error" /
    #: "aborted").  Timing-section material: which cells needed retries
    #: is infrastructure history, not part of the deterministic results.
    attempt_log: dict[str, list[str]] = field(default_factory=dict)

    def __getitem__(self, name: str) -> ScenarioResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [result for result in self.results if not result.ok]

    def telemetry_summary(self) -> dict | None:
        """Merged per-cell telemetry (worker-count invariant by the
        merge semantics: counters and histogram bins sum, gauges take
        the max, audit kinds tally).  ``None`` when no cell recorded
        telemetry (the disabled default)."""
        cells = [
            result.telemetry for result in self.results if result.telemetry
        ]
        if not cells:
            return None
        kinds: dict[str, int] = {}
        for cell in cells:
            for kind, count in cell["audit"]["kinds"].items():
                kinds[kind] = kinds.get(kind, 0) + count
        return {
            "metrics": obs.MetricsRegistry.merge(
                [cell["metrics"] for cell in cells]
            ),
            "audit": {
                "events": sum(cell["audit"]["events"] for cell in cells),
                "kinds": dict(sorted(kinds.items())),
            },
        }

    def as_artifact(self) -> dict:
        """The ``BENCH_*.json`` document.  Everything except ``timing``
        and ``meta`` is a deterministic function of (scenarios,
        base_seed)."""
        return {
            "schema": HARNESS_SCHEMA,
            "meta": host_meta(),
            "tag": self.tag,
            "base_seed": self.base_seed,
            "scenarios": [
                {
                    "name": scenario.name,
                    "runner": scenario.runner,
                    "seed": scenario.resolved_seed(self.base_seed),
                    "scale": asdict(scenario.scale),
                    "params": scenario.kwargs(),
                }
                for scenario in self.scenarios
            ],
            "results": {
                result.name: scenario_result_payload(result)
                for result in self.results
            },
            "timing": {
                "workers": self.workers,
                "total_s": self.wall_clock_s,
                "pool_startup_s": self.pool_startup_s,
                "prewarm_s": self.prewarm_s,
                "per_scenario_s": {
                    result.name: result.wall_clock_s
                    for result in self.results
                },
                **(
                    {"attempts": self.attempt_log} if self.attempt_log else {}
                ),
            },
        }

    def write_artifact(self, directory: str) -> str:
        path = os.path.join(directory, f"BENCH_{artifact_tag(self.tag)}.json")
        self.artifact_path = save_artifact(path, self.as_artifact())
        return path


def scenario_result_payload(result: ScenarioResult) -> dict | None:
    """One result's entry in the artifact's ``results`` section -- the
    deterministic form shared by :meth:`MatrixResult.as_artifact` and
    the run-table checkpoint journal, so a journaled cell merges back
    bit-identical to an uninterrupted artifact."""
    if result.ok:
        return result.payload
    return {
        "error": result.error,
        **({"attempts": list(result.attempts)} if result.attempts else {}),
        **({"quarantined": True} if result.quarantined else {}),
    }


#: Tags become BENCH_<tag>.json filenames; keep them path-safe.
_TAG_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def artifact_tag(tag: str) -> str:
    """``tag``, checked path-safe: it becomes part of artifact (and
    run-table journal) filenames, so ``../x`` would write outside the
    output directory.  Also the CLIs' ``--tag`` argument type."""
    if not _TAG_RE.fullmatch(tag):
        raise ValueError(
            f"artifact tag {tag!r} must match {_TAG_RE.pattern}"
            " (it becomes part of the artifact filename)"
        )
    return tag


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, base_seed: int = 0, profile_dir: str | None = None
) -> ScenarioResult:
    """Execute one scenario in-process.  With ``profile_dir`` set, the
    runner executes under cProfile and the stats are dumped to
    ``profile_dir/profile_<name>.pstats`` (load with ``pstats.Stats``)."""
    seed = scenario.resolved_seed(base_seed)
    runner = SCENARIO_RUNNERS.get(scenario.runner)
    started = time.perf_counter()
    if runner is None:
        return ScenarioResult(
            scenario.name,
            scenario.runner,
            seed,
            0.0,
            error=f"unknown runner {scenario.runner!r}",
        )
    profiler = None
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
        profiler = cProfile.Profile()
    # One fresh Telemetry per cell: the snapshot travels back on the
    # ScenarioResult, so merged matrix telemetry is invariant to the
    # worker count (REPRO_TELEMETRY reaches spawn workers, which do not
    # inherit the parent's obs.ACTIVE).
    telemetry = (
        obs.Telemetry()
        if obs.ACTIVE is not None or os.environ.get("REPRO_TELEMETRY")
        else None
    )

    def invoke():
        if profiler is not None:
            return profiler.runcall(
                runner, scenario.scale, seed, **scenario.kwargs()
            )
        return runner(scenario.scale, seed, **scenario.kwargs())

    try:
        if telemetry is not None:
            with obs.enabled_scope(telemetry):
                with telemetry.trace.span(
                    "cell", cell=scenario.name, runner=scenario.runner
                ):
                    payload = invoke()
        else:
            payload = invoke()
    except Exception:  # noqa: BLE001 - workers must report, not die
        return ScenarioResult(
            scenario.name,
            scenario.runner,
            seed,
            time.perf_counter() - started,
            error=traceback.format_exc(),
            telemetry=telemetry.snapshot() if telemetry is not None else None,
        )
    finally:
        if profiler is not None:
            # Run-table cell names carry "/" separators; flatten them
            # so the stats land in profile_dir itself.
            stem = scenario.name.replace("/", "_")
            profiler.dump_stats(
                os.path.join(profile_dir, f"profile_{stem}.pstats")
            )
    return ScenarioResult(
        scenario.name,
        scenario.runner,
        seed,
        time.perf_counter() - started,
        payload=payload,
        telemetry=telemetry.snapshot() if telemetry is not None else None,
    )


def attack_prewarm(
    scale: Scale | None = None, arch: str = "resnet20"
) -> Callable[[], None]:
    """A ``run_matrix(prewarm=...)`` hook that builds the attack
    matrix's shared victim in the parent, so workers inherit the
    trained arrays through fork (or shared memory under spawn)."""
    from .experiments import build_victim

    resolved = replace(scale or Scale.quick(), seed=0)

    def warm() -> None:
        build_victim(arch, resolved)

    return warm


def run_matrix(
    scenarios: Sequence[Scenario] | Iterable[Scenario],
    workers: int | None = None,
    base_seed: int = 0,
    tag: str = "matrix",
    artifact_dir: str | None = None,
    strict: bool = False,
    profile_dir: str | None = None,
    prewarm: Callable[[], None] | None = None,
    supervise: fleet.SupervisorConfig | None = None,
    faults: FaultPlan | None = None,
    on_result: Callable[[ScenarioResult], None] | None = None,
) -> MatrixResult:
    """Run a scenario matrix, optionally in parallel, and collect one
    :class:`MatrixResult`.

    ``workers=None`` picks ``min(len(scenarios), cpu_count)``;
    ``workers<=1`` runs serially in-process (no subprocesses, handy for
    tests and for composing with an outer parallel harness).  Results
    are returned in scenario order regardless of completion order, and
    the ``results`` payloads are independent of the worker count.

    Parallel matrices share one persistent worker pool per process;
    the artifact's ``timing.pool_startup_s`` records what creating (or
    reusing, 0.0) it cost.  ``prewarm`` runs in the parent before the
    pool is acquired -- state it loads into module-level caches (the
    trained-victim memory layer) reaches workers by fork inheritance
    or, under spawn, via ``multiprocessing.shared_memory`` -- and its
    cost is recorded as ``timing.prewarm_s``.

    The cells of one matrix share their victim's clean-state work
    (dataset, clean accuracy, backdoor trigger) through a
    :mod:`repro.nn.memo` scope that ends with the matrix: the parent's
    around the serial loop, or each worker's, restarted by the first
    job of a new dispatch epoch.  :func:`run_scenario` alone shares
    nothing.

    ``profile_dir`` forwards to :func:`run_scenario`: every scenario
    dumps ``profile_<name>.pstats`` cProfile stats there.

    ``strict=True`` raises :class:`MatrixFailure` after the artifact is
    written when any scenario errored -- for callers (benchmark
    recorders, CI steps) where a half-failed matrix must not pass
    silently as a recorded artifact.

    The parallel path is supervised (see
    :class:`~repro.eval.fleet.SupervisorConfig`):
    per-attempt timeouts, bounded seeded-backoff retries, and
    quarantine of persistently failing cells -- one dead or hung
    worker costs that cell its attempt, not the whole matrix.
    ``faults`` injects a deterministic :class:`~repro.eval.faults.FaultPlan`
    into workers (ignored on the serial path: a crash fault would take
    the parent down).  ``on_result`` is called in the parent with every
    finalized :class:`ScenarioResult` as it completes -- the checkpoint
    hook run-tables journal through.
    """
    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in matrix: {names}")
    if workers is None:
        workers = max(1, min(len(scenarios), os.cpu_count() or 1))
    logger.info(
        "matrix tag=%s scenarios=%d workers=%d", tag, len(scenarios), workers
    )
    started = time.perf_counter()
    prewarm_s = 0.0
    if prewarm is not None:
        prewarm_started = time.perf_counter()
        prewarm()
        prewarm_s = time.perf_counter() - prewarm_started
    pool_startup_s = 0.0
    attempt_log: dict[str, list[str]] = {}
    if workers <= 1 or len(scenarios) <= 1:
        workers = 1
        results = []
        with memo.scope():
            for scenario in scenarios:
                result = run_scenario(
                    scenario, base_seed, profile_dir=profile_dir
                )
                if on_result is not None:
                    on_result(result)
                results.append(result)
    else:
        try:
            results, pool_startup_s, attempt_log = fleet.supervised_map(
                scenarios,
                base_seed,
                profile_dir,
                workers,
                supervise or fleet.SupervisorConfig(),
                faults,
                on_result,
            )
        except BaseException:
            # A poisoned dispatch layer (unpicklable job, broken pool
            # double) is unrecoverable here; drop the pool so the next
            # matrix starts fresh instead of reusing a broken one.
            fleet.shutdown_worker_pool(force=True)
            raise
    matrix = MatrixResult(
        tag=tag,
        base_seed=base_seed,
        workers=workers,
        wall_clock_s=time.perf_counter() - started,
        results=results,
        scenarios=scenarios,
        pool_startup_s=pool_startup_s,
        prewarm_s=prewarm_s,
        attempt_log=attempt_log,
    )
    logger.info(
        "matrix tag=%s done wall_clock_s=%.2f failures=%d",
        tag, matrix.wall_clock_s, len(matrix.failures),
    )
    if artifact_dir is not None:
        matrix.write_artifact(artifact_dir)
    if strict and matrix.failures:
        raise MatrixFailure(matrix.failures)
    return matrix


# ----------------------------------------------------------------------
# Canned scenario sets
# ----------------------------------------------------------------------
def _cell(
    runner: str, scale: Scale, name: str, seed: int | None = None, **params
) -> Scenario:
    """A canned cell whose ``params`` are keyword arguments."""
    return Scenario(
        name, runner, scale, seed=seed, params=tuple(sorted(params.items()))
    )


def cheap_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """Everything that runs without training a victim model."""
    scale = scale or Scale.quick()
    return [
        Scenario("fig1b-trh", "fig1b", scale),
        Scenario("fig5-isa", "fig5", scale),
        Scenario("sec4d-montecarlo", "sec4d", scale, seed=0,
                 params=(("trials", 4000),)),
        Scenario("table1-overhead", "table1", scale),
        Scenario("fig7a-latency", "fig7a", scale),
        Scenario("fig7b-defense-days", "fig7b", scale),
        Scenario("rowclone-savings", "rowclone", scale),
        Scenario("ablation-radius", "ablation_radius", scale),
        Scenario("ablation-layout", "ablation_layout", scale),
        Scenario("ablation-relock", "ablation_relock", scale, seed=0),
    ]


def smoke_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The CI smoke matrix: every cheap scenario plus one trained-victim
    end-to-end (Fig. 8, ResNet-20) and the defense-campaign sweep."""
    scale = scale or Scale.quick()
    defenses = ("None", "PARA", "Graphene", "DRAM-Locker")
    return (
        cheap_scenarios(scale)
        + [
            Scenario(
                f"campaign-{name}", "defense_campaign", scale, seed=0,
                params=(("defense", name),),
            )
            for name in defenses
        ]
        + [
            Scenario("fig8-resnet20", "fig8", scale, seed=0,
                     params=(("arch", "resnet20"),)),
        ]
    )


def quick_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The full quick-scale reproduction matrix (all trained victims)."""
    scale = scale or Scale.quick()
    return smoke_scenarios(scale) + [
        Scenario("fig8-vgg11", "fig8", scale, seed=0,
                 params=(("arch", "vgg11"),)),
        Scenario("fig1a-bfa-vs-random", "fig1a", scale, seed=0),
        Scenario("pta-page-table", "pta", scale, seed=0),
        Scenario("table2-software-defenses", "table2", scale, seed=0,
                 params=(("flip_budget", 30),)),
    ]


#: Attack-specific parameter overrides for the canned attack matrix.
#: ``iterations`` keeps one flip-budget across families so the matrix
#: compares like with like; targeted attacks aim class 1 -> 0.
_ATTACK_MATRIX_PARAMS: dict[str, tuple[tuple[str, Any], ...]] = {
    "bfa": (),
    "random": (),
    "pta": (("iterations", 6),),
    "tbfa-n-to-1": (("target_class", 0),),
    "tbfa-1-to-1": (("target_class", 0), ("source_class", 1)),
    "tbfa-stealthy": (("target_class", 0), ("source_class", 1)),
    "backdoor": (("target_class", 0),),
    "multi-round-bfa": (("rounds", 3),),
}


def attack_scenarios(
    scale: Scale | None = None,
    arch: str = "resnet20",
    iterations: int = 10,
    attacks: Sequence[str] | None = None,
) -> list[Scenario]:
    """Every registered attack, with and without DRAM-Locker.

    All scenarios pin ``seed=0`` so they share one trained victim --
    the matrix is the showcase (and the benchmark) for the
    trained-victim cache: N attack cells, one training run.
    """
    scale = scale or Scale.quick()
    names = list(attacks) if attacks is not None else available_attacks()
    scenarios = []
    for name in names:
        extra = _ATTACK_MATRIX_PARAMS.get(name, ())
        if not any(key == "iterations" for key, _ in extra):
            extra = (("iterations", iterations),) + extra
        for protected in (False, True):
            suffix = "locked" if protected else "open"
            scenarios.append(
                Scenario(
                    f"attack-{name}-{suffix}",
                    "attack",
                    scale,
                    seed=0,
                    params=(
                        ("attack", name),
                        ("arch", arch),
                        ("protected", protected),
                    )
                    + extra,
                )
            )
    return scenarios


def serving_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The serving matrix: tenants x defense x colocation x channels.

    Every cell is training-free (bit victims) and seconds-scale; the
    channel sweep under each defense is what ``bench_serving.py``
    times, and the colocation/tenant sweeps probe the SLA story
    (blocked share, exposure windows, tail latency under attack).
    """
    cell = partial(_cell, "serving", scale or Scale.quick())

    scenarios = [
        # Channel scaling under the two headline defenses, attacker on.
        cell(f"serving-{defense.lower().replace('/', '-')}-ch{channels}",
             defense=defense, channels=channels)
        for defense in ("None", "DRAM-Locker")
        for channels in (1, 2, 4)
    ]
    scenarios += [
        # Baseline-defense contenders at two channels.
        cell("serving-trr-ch2", defense="TRR", channels=2),
        cell("serving-graphene-ch2", defense="Graphene", channels=2),
        # Attacker-colocation off: the pure multi-tenant SLA baseline.
        cell("serving-locker-solo-ch1", defense="DRAM-Locker",
             channels=1, colocated=False),
        cell("serving-locker-solo-ch4", defense="DRAM-Locker",
             channels=4, colocated=False),
        # Tenant-count sweep (Zipf contention) and a bursty arrival cell.
        cell("serving-locker-tenants2-ch2", defense="DRAM-Locker",
             channels=2, tenants=2),
        cell("serving-locker-tenants8-ch2", defense="DRAM-Locker",
             channels=2, tenants=8),
        cell("serving-locker-bursty-ch2", defense="DRAM-Locker",
             channels=2, arrival="bursty"),
        # Event-queue serving drive: payloads must match the bulk
        # cells above bit-for-bit (tests/test_engine_equivalence.py
        # pins the contract; these cells keep it exercised nightly).
        cell("serving-locker-events-ch4", defense="DRAM-Locker",
             channels=4, engine="events"),
        cell("serving-none-events-ch4", defense="None",
             channels=4, engine="events"),
    ]
    return scenarios


def serving_live_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The live-frontend matrix: replay equivalence plus overload.

    Two equivalence cells pin replay == closed loop under both
    execution engines; the overload triplet compresses arrivals 2x on
    a solo cell and compares no admission vs pressure shedding vs a
    token bucket; the last two put the attacker back (admitted cell)
    and exercise dynamic channel scaling under block policy.
    ``benchmarks/bench_serving_live.py`` records the same story with
    wall-clock pacing on top.
    """
    cell = partial(_cell, "serving_live", scale or Scale.quick())

    return [
        cell("live-replay-equiv-ch2", channels=2, verify=True),
        cell("live-replay-equiv-events-ch2", channels=2,
             engine="events", verify=True),
        cell("live-overload2x-open", colocated=False, overload=2.0),
        cell("live-overload2x-pressure", colocated=False, overload=2.0,
             admission="pressure"),
        cell("live-overload2x-token", colocated=False, overload=2.0,
             admission="token"),
        cell("live-colocated-admitted-ch2", channels=2, overload=2.0,
             admission="pressure"),
        cell("live-scaling-block", colocated=False, overload=2.0,
             policy="block", scaling_channels=2),
    ]


#: The bake-off's defense contenders (prevention vs detect-and-recover).
BAKEOFF_DEFENSES = ("None", "DRAM-Locker", "RADAR", "DNN-Defender")


def bakeoff_scenarios(scale: Scale | None = None) -> list[Scenario]:
    """The defense bake-off: attack registry x defense family, plus
    serving-overhead cells and the chaos cell.

    Three blocks.  (1) Every registered attack against every contender
    -- the protection axis, one shared cached victim.  (2) Serving
    cells (model victim + health monitor, no injection) per defense
    across a channel sweep -- the SLA-overhead axis.  (3) The chaos
    cell: RADAR with deterministic weight corruption injected mid-run,
    which must be detected (100 %) and recovered to near-clean
    accuracy -- ``benchmarks/bench_bakeoff.py`` gates exactly that.
    """
    cell = partial(_cell, "defense_bakeoff", scale or Scale.quick(), seed=0)

    def slug(defense: str) -> str:
        return defense.lower().replace("/", "-")

    scenarios = [
        cell(
            f"bakeoff-{attack}-{slug(defense)}",
            attack=attack, defense=defense,
            **dict(_ATTACK_MATRIX_PARAMS.get(attack, ())),
        )
        for attack in available_attacks()
        for defense in BAKEOFF_DEFENSES
    ]
    scenarios += [
        cell(
            f"bakeoff-serving-{slug(defense)}-ch{channels}",
            attack="none", defense=defense, channels=channels,
            serving=True,
        )
        for defense in BAKEOFF_DEFENSES
        for channels in (1, 2)
    ]
    scenarios.append(
        cell(
            "bakeoff-chaos-radar",
            attack="none", defense="RADAR", serving=True,
            inject_slice=6, inject_rows=2,
        )
    )
    return scenarios


_SCENARIO_SETS = {
    "cheap": cheap_scenarios,
    "smoke": smoke_scenarios,
    "quick": quick_scenarios,
    "attacks": attack_scenarios,
    "serving": serving_scenarios,
    "serving-live": serving_live_scenarios,
    "bakeoff": bakeoff_scenarios,
}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.eval.harness")
    parser.add_argument(
        "--set", dest="scenario_set", default="smoke",
        choices=sorted(_SCENARIO_SETS),
        help="which canned scenario matrix to run",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--tag", type=artifact_tag, default=None)
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument(
        "--full", action="store_true", help="near-paper scale"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="dump per-scenario cProfile stats (profile_<name>.pstats) "
             "into the artifact directory (requires --out)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)
    if args.profile and args.out is None:
        parser.error("--profile requires --out (the stats land there)")

    scale = Scale.full() if args.full else Scale.quick()
    scenarios = _SCENARIO_SETS[args.scenario_set](scale)
    if args.list:
        for scenario in scenarios:
            print(
                f"{scenario.name:32s} runner={scenario.runner:18s} "
                f"seed={scenario.resolved_seed(args.base_seed)}"
            )
        return 0

    tag = args.tag or args.scenario_set
    # The attack matrix shares one trained victim across every cell:
    # building it in the parent ships the arrays to workers instead of
    # having the first worker per process rebuild it.
    prewarm = (
        attack_prewarm(scale) if args.scenario_set == "attacks" else None
    )
    matrix = run_matrix(
        scenarios,
        workers=args.workers,
        base_seed=args.base_seed,
        tag=tag,
        artifact_dir=args.out,
        profile_dir=args.out if args.profile else None,
        prewarm=prewarm,
    )
    for result in matrix.results:
        status = "ok" if result.ok else "FAILED"
        print(f"{result.name:32s} {status:7s} {result.wall_clock_s:8.2f}s")
    print(
        f"total {matrix.wall_clock_s:.2f}s across {matrix.workers} worker(s)"
        f" (pool startup {matrix.pool_startup_s:.2f}s,"
        f" prewarm {matrix.prewarm_s:.2f}s)"
    )
    if matrix.artifact_path:
        print(f"artifact: {matrix.artifact_path}")
    if matrix.failures:
        for failure in matrix.failures:
            print(f"\n--- {failure.name} ---\n{failure.error}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
