"""Benchmark-regression checks over BENCH_*.json artifacts.

The nightly CI job replays a harness matrix and compares the fresh
artifact against a committed baseline: the build fails when wall-clock
runtime or any *protected* accuracy (the quantity DRAM-Locker exists to
preserve) regresses beyond tolerance.  The comparison logic lives here
so it is unit-testable; ``benchmarks/check_regression.py`` is the thin
CLI the workflow invokes.

What counts as a protected accuracy:

* ``attack`` scenarios with ``"protected": true`` -> ``final_accuracy``;
* figure runners with per-defense curves -> the final accuracy recorded
  under ``stats["with DRAM-Locker"]``;
* everything else contributes no accuracy check (runtime still counts).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field

__all__ = [
    "ATTACK_SEARCH_SCHEMA",
    "BAKEOFF_SCHEMA",
    "DEFENDED_HAMMER_SCHEMA",
    "OBS_SCHEMA",
    "RUNTABLE_BENCH_SCHEMA",
    "SERVING_LIVE_SCHEMA",
    "SERVING_SCHEMA",
    "RegressionReport",
    "protected_accuracies",
    "compare_artifacts",
    "compare_attack_search",
    "compare_bakeoff",
    "compare_defended_hammer",
    "compare_obs",
    "compare_runtable",
    "compare_serving",
    "compare_serving_live",
    "host_meta",
    "load_artifact",
]

LOCKED_LABEL = "with DRAM-Locker"

#: Schema tag of the attack-search microbenchmark artifact
#: (``benchmarks/bench_attack_search.py``).
ATTACK_SEARCH_SCHEMA = "dram-locker-attack-search-bench/1"

#: Schema tag of the defended-hammer microbenchmark artifact
#: (``benchmarks/bench_defended_hammer.py``).
DEFENDED_HAMMER_SCHEMA = "dram-locker-defended-hammer-bench/1"

#: Schema tag of the serving benchmark artifact
#: (``benchmarks/bench_serving.py``).
SERVING_SCHEMA = "dram-locker-serving-bench/1"

#: Schema tag of the live-frontend serving benchmark artifact
#: (``benchmarks/bench_serving_live.py``).
SERVING_LIVE_SCHEMA = "dram-locker-serving-live-bench/1"

#: Schema tag of the run-table orchestration benchmark artifact
#: (``benchmarks/bench_runtable.py``).
RUNTABLE_BENCH_SCHEMA = "dram-locker-runtable-bench/1"

#: Schema tag of the defense bake-off artifact
#: (``benchmarks/bench_bakeoff.py``).
BAKEOFF_SCHEMA = "dram-locker-bakeoff-bench/1"

#: Schema tag of the telemetry-overhead benchmark artifact
#: (``benchmarks/bench_obs.py``).
OBS_SCHEMA = "dram-locker-obs-bench/1"


def load_artifact(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def host_meta() -> dict:
    """Provenance block stamped into every benchmark/harness artifact.

    Deliberately contains **no wall-clock timestamp**: two artifacts
    produced on the same host from the same tree must stay
    byte-identical (the run-table resume-identity gate depends on it).
    """
    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep in CI
        numpy_version = "unknown"
    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def protected_accuracies(artifact: dict) -> dict[str, float]:
    """Every protected-accuracy metric an artifact carries, by name."""
    metrics: dict[str, float] = {}
    for name, payload in artifact.get("results", {}).items():
        if not isinstance(payload, dict) or "error" in payload:
            continue
        if payload.get("protected") and payload.get("final_accuracy") is not None:
            metrics[name] = float(payload["final_accuracy"])
            continue
        stats = payload.get("stats")
        if isinstance(stats, dict) and LOCKED_LABEL in stats:
            locked = stats[LOCKED_LABEL]
            if isinstance(locked, dict) and "final_accuracy" in locked:
                metrics[name] = float(locked["final_accuracy"])
    return metrics


@dataclass
class RegressionReport:
    """Outcome of one artifact-vs-baseline comparison."""

    violations: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"{len(self.checks)} check(s), {len(self.violations)} violation(s)"]
        lines += [f"  ok: {check}" for check in self.checks]
        lines += [f"  REGRESSION: {violation}" for violation in self.violations]
        return "\n".join(lines)


def compare_artifacts(
    current: dict,
    baseline: dict,
    runtime_tolerance: float = 0.10,
    accuracy_tolerance: float = 0.10,
) -> RegressionReport:
    """Fail when runtime grew or protected accuracy shrank by more than
    the given fractional tolerances relative to the baseline."""
    report = RegressionReport()

    for payload_name, payload in current.get("results", {}).items():
        if isinstance(payload, dict) and "error" in payload:
            report.violations.append(
                f"scenario {payload_name!r} failed: "
                f"{str(payload['error']).splitlines()[-1]}"
            )

    base_total = baseline.get("timing", {}).get("total_s")
    cur_total = current.get("timing", {}).get("total_s")
    if base_total and cur_total is not None:
        limit = base_total * (1.0 + runtime_tolerance)
        check = (
            f"runtime {cur_total:.2f}s vs baseline {base_total:.2f}s "
            f"(limit {limit:.2f}s)"
        )
        if cur_total > limit:
            report.violations.append(check)
        else:
            report.checks.append(check)

    base_acc = protected_accuracies(baseline)
    cur_acc = protected_accuracies(current)
    for name, base_value in sorted(base_acc.items()):
        if name not in cur_acc:
            report.violations.append(
                f"protected accuracy for {name!r} missing from current artifact"
            )
            continue
        floor = base_value * (1.0 - accuracy_tolerance)
        check = (
            f"{name}: protected accuracy {cur_acc[name]:.2f}% vs baseline "
            f"{base_value:.2f}% (floor {floor:.2f}%)"
        )
        if cur_acc[name] < floor:
            report.violations.append(check)
        else:
            report.checks.append(check)
    return report


def compare_attack_search(
    current: dict,
    baseline: dict,
    speedup_tolerance: float = 0.25,
) -> RegressionReport:
    """Regression gate for the attack-search microbenchmark artifact.

    Two things must hold: the suffix engine still matches the
    full-forward reference bit-for-bit in every recorded cell (a
    correctness property, no tolerance), and each cell's *speedup
    ratio* has not shrunk more than ``speedup_tolerance`` versus the
    committed baseline.  Ratios -- unlike wall-clock seconds --
    transfer across runner classes, so this check is meaningful even
    when the absolute timings are not.
    """
    report = RegressionReport()
    current_families = current.get("families", {})
    for name, cell in sorted(current_families.items()):
        if not cell.get("results_identical", False):
            report.violations.append(
                f"{name}: suffix engine diverged from the full-forward "
                "reference"
            )
    for name, base_cell in sorted(baseline.get("families", {}).items()):
        cell = current_families.get(name)
        if cell is None:
            report.violations.append(
                f"family {name!r} missing from current artifact"
            )
            continue
        floor = base_cell["speedup"] * (1.0 - speedup_tolerance)
        check = (
            f"{name}: speedup {cell['speedup']:.2f}x vs baseline "
            f"{base_cell['speedup']:.2f}x (floor {floor:.2f}x)"
        )
        if cell["speedup"] < floor:
            report.violations.append(check)
        else:
            report.checks.append(check)
    pool = current.get("pool", {})
    if pool and not pool.get("results_identical", True):
        report.violations.append(
            "persistent worker pool changed matrix results"
        )
    return report


def compare_serving(
    current: dict,
    baseline: dict,
    throughput_tolerance: float = 0.25,
) -> RegressionReport:
    """Regression gate for the serving benchmark artifact.

    Four properties:

    * **SLA-stat equivalence** (no tolerance): every cell's
      deterministic SLA fingerprint -- request/issued/blocked tallies
      and latency percentiles, all *simulated* quantities that transfer
      across runner classes -- must equal the committed baseline
      exactly; a drift means the serving path's behaviour changed.
    * **Engine equivalence** (no tolerance): every current cell that
      recorded an ``engine_check`` must report the events-engine
      payload bit-identical to the bulk reference (the scalar <= bulk
      <= events contract in ``docs/ARCHITECTURE.md``).
    * **Channel scaling**: each defense's 1-to-max-channel aggregate
      requests/sec ratio must not shrink more than
      ``throughput_tolerance`` versus the baseline (ratios of simulated
      throughput, so they transfer too).
    * **Protection intact** (no tolerance): every locker cell's victim
      flip-event count equals the committed baseline's -- zero for any
      cell the baseline does not know.  (The count is deterministic;
      at high channel counts a pinned nonzero count records a known
      unlock-SWAP-failure exposure event, not a regression.)  The
      model-victim probe's accuracy must be unchanged under the
      co-located attack.
    """
    report = RegressionReport()
    current_cells = current.get("cells", {})
    for name, cell in sorted(current_cells.items()):
        engine_check = cell.get("engine_check")
        if engine_check is None:
            continue
        check = f"{name}: events engine bit-identical to bulk reference"
        if engine_check.get("identical"):
            report.checks.append(check)
        else:
            report.violations.append(
                f"{name}: events engine diverged from the bulk reference"
            )
    for name, base_cell in sorted(baseline.get("cells", {}).items()):
        cell = current_cells.get(name)
        if cell is None:
            report.violations.append(f"cell {name!r} missing from current artifact")
            continue
        base_sla = base_cell.get("sla_fingerprint")
        if base_sla is not None:
            check = f"{name}: SLA fingerprint matches baseline"
            if cell.get("sla_fingerprint") != base_sla:
                report.violations.append(
                    f"{name}: SLA fingerprint diverged from baseline "
                    f"({cell.get('sla_fingerprint')} != {base_sla})"
                )
            else:
                report.checks.append(check)
    for defense, base_scale in sorted(baseline.get("scaling", {}).items()):
        scale = current.get("scaling", {}).get(defense)
        if scale is None:
            report.violations.append(
                f"scaling entry {defense!r} missing from current artifact"
            )
            continue
        floor = base_scale["ratio"] * (1.0 - throughput_tolerance)
        check = (
            f"{defense}: channel-scaling ratio {scale['ratio']:.2f}x vs "
            f"baseline {base_scale['ratio']:.2f}x (floor {floor:.2f}x)"
        )
        if scale["ratio"] < floor:
            report.violations.append(check)
        else:
            report.checks.append(check)
    for name, cell in sorted(current_cells.items()):
        if not cell.get("protected"):
            continue
        flips = cell.get("victim_flip_events", 0)
        base_flips = (
            baseline.get("cells", {}).get(name, {}).get("victim_flip_events", 0)
        )
        check = (
            f"{name}: protected victim flip events {flips} "
            f"(baseline {base_flips})"
        )
        if flips != base_flips:
            report.violations.append(check)
        else:
            report.checks.append(check)
    victim = current.get("victim")
    if victim is None:
        # The probe may only be absent when the baseline never had it;
        # a silent drop of a gated section is itself a regression.
        if baseline.get("victim") is not None:
            report.violations.append(
                "model-victim probe missing from current artifact"
            )
    elif victim.get("skipped"):
        # Recorded with --skip-model-victim: explicit, so not a drop.
        report.checks.append("model-victim probe explicitly skipped")
    else:
        check = (
            f"model victim accuracy {victim.get('post_attack_accuracy'):.2f}% "
            f"vs clean {victim.get('clean_accuracy'):.2f}% under attack"
        )
        if not victim.get("accuracy_unchanged"):
            report.violations.append(check)
        else:
            report.checks.append(check)
    return report


def compare_serving_live(
    current: dict,
    baseline: dict,
) -> RegressionReport:
    """Regression gate for the live-frontend serving artifact.

    Everything compared is a *simulated* quantity (deterministic
    replays of recorded traces), so the gate is exact -- no tolerances:

    * **Replay equivalence**: every recorded replay cell must report
      the infinite-speedup replay bit-identical to the closed-loop run
      of the same config (the replay-equivalence contract,
      ``docs/SERVING.md``).
    * **Overload determinism**: each overload cell's SLA fingerprint
      and shed count must equal the committed baseline's exactly.
    * **Admission effectiveness**: every admitted overload cell that
      records ``holds_p99`` must hold its sojourn target, and no
      admitted cell's sojourn p99 may exceed the unadmitted (open)
      cell's -- shedding must never make the tail *worse*.
    * **Protection intact**: the co-located cell's victim flip events
      must equal the baseline's (zero) while admission sheds load.
    * **Conservation**: the wall-clock-paced live run must report
      ``offered == served + shed`` (wall seconds themselves are not
      compared; they do not transfer across runner classes).
    """
    report = RegressionReport()

    current_replay = current.get("replay", {}).get("cells", {})
    for name, cell in sorted(current_replay.items()):
        check = f"replay {name}: bit-identical to the closed loop"
        if cell.get("identical"):
            report.checks.append(check)
        else:
            report.violations.append(
                f"replay {name}: diverged from the closed loop"
            )
    for name in sorted(baseline.get("replay", {}).get("cells", {})):
        if name not in current_replay:
            report.violations.append(
                f"replay cell {name!r} missing from current artifact"
            )

    current_overload = current.get("overload", {}).get("cells", {})
    for name, base_cell in sorted(
        baseline.get("overload", {}).get("cells", {}).items()
    ):
        cell = current_overload.get(name)
        if cell is None:
            report.violations.append(
                f"overload cell {name!r} missing from current artifact"
            )
            continue
        for key in ("sla_fingerprint", "shed"):
            if key not in base_cell:
                continue
            check = f"overload {name}: {key} matches baseline"
            if cell.get(key) != base_cell[key]:
                report.violations.append(
                    f"overload {name}: {key} diverged from baseline "
                    f"({cell.get(key)} != {base_cell[key]})"
                )
            else:
                report.checks.append(check)
    open_cell = current_overload.get("open", {})
    open_p99 = open_cell.get("sojourn_p99_ns")
    for name, cell in sorted(current_overload.items()):
        if "holds_p99" in cell:
            check = (
                f"overload {name}: sojourn p99 "
                f"{cell.get('sojourn_p99_ns', float('nan')):.0f}ns holds "
                f"target {cell.get('p99_target_ns', float('nan')):.0f}ns"
            )
            if cell["holds_p99"]:
                report.checks.append(check)
            else:
                report.violations.append(check)
        if name == "open" or open_p99 is None:
            continue
        p99 = cell.get("sojourn_p99_ns")
        if p99 is not None:
            check = (
                f"overload {name}: admitted sojourn p99 {p99:.0f}ns <= "
                f"open {open_p99:.0f}ns"
            )
            if p99 <= open_p99:
                report.checks.append(check)
            else:
                report.violations.append(check)

    colocated = current.get("colocated")
    base_colocated = baseline.get("colocated")
    if colocated is None:
        if base_colocated is not None:
            report.violations.append(
                "co-located cell missing from current artifact"
            )
    else:
        base_flips = (base_colocated or {}).get("victim_flip_events", 0)
        flips = colocated.get("victim_flip_events", 0)
        check = (
            f"co-located: victim flip events {flips} "
            f"(baseline {base_flips}) with {colocated.get('shed', 0)} "
            "ops shed"
        )
        if flips != base_flips:
            report.violations.append(check)
        else:
            report.checks.append(check)

    live = current.get("live")
    if live is None:
        if baseline.get("live") is not None:
            report.violations.append(
                "live pacing section missing from current artifact"
            )
    else:
        check = (
            f"live: conservation offered={live.get('offered')} == "
            f"served={live.get('served')} + shed={live.get('shed')}"
        )
        if live.get("conserved"):
            report.checks.append(check)
        else:
            report.violations.append(check)
    return report


def compare_defended_hammer(
    current: dict,
    baseline: dict,
    speedup_tolerance: float = 0.25,
) -> RegressionReport:
    """Regression gate for the defended-hammer microbenchmark artifact.

    Mirrors :func:`compare_attack_search`: the bulk engine must still
    match the scalar reference bit-for-bit in every defense cell (a
    correctness property, no tolerance), and each cell's *speedup
    ratio* -- which transfers across runner classes, unlike wall-clock
    -- must not have shrunk more than ``speedup_tolerance`` versus the
    committed baseline.
    """
    report = RegressionReport()
    current_defenses = current.get("defenses", {})
    for name, cell in sorted(current_defenses.items()):
        if not cell.get("results_identical", False):
            report.violations.append(
                f"{name}: bulk engine diverged from the scalar reference"
            )
    for name, base_cell in sorted(baseline.get("defenses", {}).items()):
        cell = current_defenses.get(name)
        if cell is None:
            report.violations.append(
                f"defense {name!r} missing from current artifact"
            )
            continue
        floor = base_cell["speedup"] * (1.0 - speedup_tolerance)
        check = (
            f"{name}: speedup {cell['speedup']:.2f}x vs baseline "
            f"{base_cell['speedup']:.2f}x (floor {floor:.2f}x)"
        )
        if cell["speedup"] < floor:
            report.violations.append(check)
        else:
            report.checks.append(check)
    return report


def compare_runtable(
    current: dict,
    baseline: dict,
    overhead_tolerance: float = 0.25,
) -> RegressionReport:
    """Regression gate for the run-table orchestration artifact.

    The fleet properties the orchestration layer exists to provide are
    all deterministic, so most of the gate is exact:

    * **Checkpoint transparency**: the checkpointed table's results
      must be bit-identical to a plain ``run_matrix`` sweep of the
      same cells (``results_identical``) -- journalling must never
      change what is computed.
    * **Crash recovery**: the subprocess SIGKILLed mid-sweep and
      resumed with ``--resume`` must emit a results section
      bit-identical to the uninterrupted run (``resume_identical``),
      and must actually have resumed from a non-empty journal.
    * **Fault containment**: the chaos table must quarantine exactly
      its always-crashing cells (count pinned to the baseline's),
      recover its crash-once cells, and its channel-fault cell must
      conserve ``offered == served + shed`` with zero victim flips
      under DRAM-Locker.
    * **Checkpoint overhead**: the journalled run's wall-clock
      overhead *ratio* over the plain sweep -- which transfers across
      runner classes, unlike wall seconds -- must not exceed the
      baseline's by more than ``overhead_tolerance``.
    """
    report = RegressionReport()

    checkpoint = current.get("checkpoint", {})
    if checkpoint.get("results_identical"):
        report.checks.append(
            "checkpoint: journalled results identical to plain run_matrix"
        )
    else:
        report.violations.append(
            "checkpoint: journalled results diverged from plain run_matrix"
        )

    recovery = current.get("recovery", {})
    if recovery.get("resume_identical"):
        report.checks.append(
            f"recovery: SIGKILL at {recovery.get('journal_lines_at_kill')} "
            "journal line(s) + --resume is bit-identical"
        )
    else:
        report.violations.append(
            "recovery: resumed artifact diverged from uninterrupted run"
        )
    if not recovery.get("journal_lines_at_kill", 0):
        report.violations.append(
            "recovery: victim run was killed before journalling any cell "
            "(resume path not exercised)"
        )

    chaos = current.get("chaos", {})
    base_chaos = baseline.get("chaos", {})
    for key in ("quarantined", "errors", "recovered"):
        if key not in base_chaos:
            continue
        check = (
            f"chaos: {key} {chaos.get(key)} == baseline {base_chaos[key]}"
        )
        if chaos.get(key) != base_chaos[key]:
            report.violations.append(check)
        else:
            report.checks.append(check)
    fault = chaos.get("channel_fault")
    if fault is None:
        if base_chaos.get("channel_fault") is not None:
            report.violations.append(
                "chaos: channel-fault cell missing from current artifact"
            )
    else:
        check = (
            f"chaos: channel fault conserved offered="
            f"{fault.get('offered_ops')} == served={fault.get('served_ops')}"
            f" + shed={fault.get('shed_ops')} with "
            f"{fault.get('victim_flip_events')} victim flip(s)"
        )
        if fault.get("conserved") and not fault.get("victim_flip_events"):
            report.checks.append(check)
        else:
            report.violations.append(check)

    overhead = checkpoint.get("overhead_ratio")
    base_overhead = baseline.get("checkpoint", {}).get("overhead_ratio")
    if overhead is not None and base_overhead is not None:
        ceiling = base_overhead * (1.0 + overhead_tolerance)
        check = (
            f"checkpoint: overhead {overhead:.2f}x vs baseline "
            f"{base_overhead:.2f}x (ceiling {ceiling:.2f}x)"
        )
        if overhead > ceiling:
            report.violations.append(check)
        else:
            report.checks.append(check)
    return report


def compare_bakeoff(
    current: dict,
    baseline: dict,
    accuracy_tolerance: float = 0.10,
    latency_tolerance: float = 0.25,
) -> RegressionReport:
    """Regression gate for the defense bake-off artifact.

    Everything behavioural in the bake-off is deterministic simulation,
    so most of the gate is exact:

    * **Chaos-cell contract** (no tolerance, self-contained): every
      injected corruption detected (``all_injections_detected``), every
      injection's detection latency recorded, and post-recovery
      accuracy within the cell's committed ``accuracy_budget_pct`` of
      the clean baseline.
    * **Engine equivalence** (no tolerance): every serving cell that
      recorded an ``engine_check`` must report the bulk and events
      payloads bit-identical.
    * **Prevention intact** (no tolerance): each DRAM-Locker serving
      cell's victim flip-event count equals the baseline's -- zero for
      cells the baseline does not know.
    * **SLA-stat equivalence** (no tolerance): serving-cell SLA
      fingerprints equal the committed baseline's exactly.
    * **Protection frontier**: per defense, the *worst* defended
      accuracy across the attack matrix must not shrink more than
      ``accuracy_tolerance`` (fractional) versus the baseline, and the
      chaos cell's detection latency must not grow more than
      ``latency_tolerance``.
    """
    report = RegressionReport()

    chaos = current.get("chaos")
    base_chaos = baseline.get("chaos")
    if chaos is None:
        if base_chaos is not None:
            report.violations.append(
                "chaos cell missing from current artifact"
            )
    else:
        check = (
            f"chaos: {chaos.get('injections_detected')}/"
            f"{chaos.get('injected_corruptions')} injected corruption(s) "
            "detected"
        )
        if chaos.get("all_injections_detected"):
            report.checks.append(check)
        else:
            report.violations.append(check)
        budget = chaos.get("accuracy_budget_pct", 0.5)
        delta = chaos.get("accuracy_delta_pct")
        check = (
            f"chaos: post-recovery accuracy within {budget}pp of clean "
            f"(delta {delta}pp)"
        )
        if delta is None or delta > budget:
            report.violations.append(check)
        else:
            report.checks.append(check)
        latencies = chaos.get("detection_latency_ns", [])
        check = (
            f"chaos: detection latency recorded for "
            f"{len(latencies)} injection(s)"
        )
        if not latencies or any(value is None for value in latencies):
            report.violations.append(
                "chaos: detection latency missing for at least one "
                "injection"
            )
        else:
            report.checks.append(check)
        base_latencies = (base_chaos or {}).get("detection_latency_ns")
        measurable = (
            latencies
            and base_latencies
            and all(value is not None for value in latencies)
            and all(value is not None for value in base_latencies)
        )
        if measurable:
            ceiling = max(base_latencies) * (1.0 + latency_tolerance)
            worst = max(latencies)
            check = (
                f"chaos: worst detection latency {worst:.0f}ns vs "
                f"baseline {max(base_latencies):.0f}ns "
                f"(ceiling {ceiling:.0f}ns)"
            )
            # An all-zero baseline (detected at the injection-slice
            # probe) pins the current run to zero as well.
            if worst > ceiling and worst > max(base_latencies):
                report.violations.append(check)
            else:
                report.checks.append(check)

    current_serving = current.get("serving_cells", {})
    for name, cell in sorted(current_serving.items()):
        engine_check = cell.get("engine_check")
        if engine_check is None:
            continue
        check = f"{name}: events engine bit-identical to bulk reference"
        if engine_check.get("identical"):
            report.checks.append(check)
        else:
            report.violations.append(
                f"{name}: events engine diverged from the bulk reference"
            )
    for name, base_cell in sorted(baseline.get("serving_cells", {}).items()):
        cell = current_serving.get(name)
        if cell is None:
            report.violations.append(
                f"serving cell {name!r} missing from current artifact"
            )
            continue
        base_sla = base_cell.get("sla_fingerprint")
        if base_sla is not None:
            check = f"{name}: SLA fingerprint matches baseline"
            if cell.get("sla_fingerprint") != base_sla:
                report.violations.append(
                    f"{name}: SLA fingerprint diverged from baseline "
                    f"({cell.get('sla_fingerprint')} != {base_sla})"
                )
            else:
                report.checks.append(check)
    for name, cell in sorted(current_serving.items()):
        if cell.get("defense") != "DRAM-Locker":
            continue
        flips = cell.get("victim_flip_events", 0)
        base_flips = (
            baseline.get("serving_cells", {})
            .get(name, {})
            .get("victim_flip_events", 0)
        )
        check = (
            f"{name}: locker victim flip events {flips} "
            f"(baseline {base_flips})"
        )
        if flips != base_flips:
            report.violations.append(check)
        else:
            report.checks.append(check)

    current_frontier = current.get("frontier", {})
    for defense, base_point in sorted(baseline.get("frontier", {}).items()):
        point = current_frontier.get(defense)
        if point is None:
            report.violations.append(
                f"frontier point {defense!r} missing from current artifact"
            )
            continue
        base_worst = base_point.get("worst_defended_accuracy")
        worst = point.get("worst_defended_accuracy")
        if base_worst is None or worst is None:
            continue
        floor = base_worst * (1.0 - accuracy_tolerance)
        check = (
            f"{defense}: worst defended accuracy {worst:.2f}% vs "
            f"baseline {base_worst:.2f}% (floor {floor:.2f}%)"
        )
        if worst < floor:
            report.violations.append(check)
        else:
            report.checks.append(check)
    return report


def compare_obs(
    current: dict,
    baseline: dict,
    disabled_budget_pct: float = 1.0,
    enabled_tolerance: float = 0.50,
) -> RegressionReport:
    """Regression gate for the telemetry-overhead artifact.

    The telemetry core's contract has two halves, and the gate checks
    both:

    * **Observational inertness** (no tolerance, self-contained):
      every cell run with telemetry enabled must produce a payload
      bit-identical to the disabled run (``payload_identical``), and
      the deterministic event counts -- metric ``updates`` and
      ``audit_events`` -- must equal the committed baseline's exactly.
      A drift means instrumentation leaked into simulation state.
    * **Zero overhead when disabled** (absolute budget, self-contained):
      each cell's ``disabled_pct`` -- the measured per-guard check cost
      times the number of guard sites hit, as a percentage of the
      cell's telemetry-off runtime -- must stay under
      ``disabled_budget_pct``.  The estimate is built from a guard
      microbenchmark rather than differencing two noisy wall-clock
      runs, so it is stable enough to gate on in CI.

    The *enabled* path is allowed to cost real time; its ``enabled_ratio``
    (on/off wall-clock) only has to stay within ``enabled_tolerance``
    of the committed baseline's ratio -- ratios transfer across runner
    classes, wall seconds do not.
    """
    report = RegressionReport()
    current_cells = current.get("cells", {})
    for name, cell in sorted(current_cells.items()):
        check = f"{name}: enabled payload bit-identical to disabled run"
        if cell.get("payload_identical"):
            report.checks.append(check)
        else:
            report.violations.append(
                f"{name}: telemetry changed the simulation payload"
            )
        pct = cell.get("disabled_pct")
        check = (
            f"{name}: disabled-path overhead {pct if pct is None else round(pct, 4)}% "
            f"(budget {disabled_budget_pct}%)"
        )
        if pct is None or pct >= disabled_budget_pct:
            report.violations.append(check)
        else:
            report.checks.append(check)
    for name, base_cell in sorted(baseline.get("cells", {}).items()):
        cell = current_cells.get(name)
        if cell is None:
            report.violations.append(f"cell {name!r} missing from current artifact")
            continue
        for key in ("updates", "audit_events"):
            if key not in base_cell:
                continue
            check = (
                f"{name}: {key} {cell.get(key)} == baseline {base_cell[key]}"
            )
            if cell.get(key) != base_cell[key]:
                report.violations.append(
                    f"{name}: {key} diverged from baseline "
                    f"({cell.get(key)} != {base_cell[key]})"
                )
            else:
                report.checks.append(check)
        base_ratio = base_cell.get("enabled_ratio")
        ratio = cell.get("enabled_ratio")
        if base_ratio is None or ratio is None:
            continue
        ceiling = base_ratio * (1.0 + enabled_tolerance)
        check = (
            f"{name}: enabled-path ratio {ratio:.3f}x vs baseline "
            f"{base_ratio:.3f}x (ceiling {ceiling:.3f}x)"
        )
        if ratio > ceiling:
            report.violations.append(check)
        else:
            report.checks.append(check)
    return report
