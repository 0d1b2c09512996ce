"""Records BENCH_bakeoff.json: the defense bake-off.

Runs the ``bakeoff`` harness set -- every registered attack against
every defense contender (``None`` / ``DRAM-Locker`` / ``RADAR`` /
``DNN-Defender``), serving-overhead cells with the victim-health
monitor riding them, and the RADAR chaos cell -- and records:

* **the protection-vs-SLA-overhead frontier** -- per defense, the mean
  and worst defended accuracy across the attack matrix (the protection
  axis) against the serving cell's simulated-throughput ratio versus
  the undefended baseline and its defense-time share (the overhead
  axis).  All ratios of simulated quantities, so they transfer across
  runner classes;
* **engine equivalence** -- every serving cell runs on the bulk
  reference engine and is re-run on the event-driven fast-forward
  engine; the payloads must match bit-for-bit (``engine_check``), else
  the artifact is refused;
* **the chaos-cell contract** -- RADAR with deterministic weight-row
  corruption injected mid-run must detect every injection (latency
  recorded from its detection log) and recover the victim to within
  0.5 percentage points of the clean baseline
  (``BAKEOFF_ACCURACY_BUDGET_PCT``, the constant the gate bounds it
  by), else the artifact is refused;
* **prevention intact** -- DRAM-Locker serving cells must keep zero
  victim flip events, else the artifact is refused;
* per-cell **SLA fingerprints** the nightly gate's ``BAKEOFF_SCHEMA``
  rows hold to exact equality.

Run with:  python benchmarks/bench_bakeoff.py
"""

import argparse
import os

from repro.eval import Scale, Scenario, ScenarioResult
from repro.eval.harness import BAKEOFF_DEFENSES, bakeoff_scenarios
from repro.eval.recorder import (
    best_of,
    engine_check,
    recording,
    refuse,
    sla_fingerprint,
)
from repro.eval.regression import BAKEOFF_ACCURACY_BUDGET_PCT, BAKEOFF_SCHEMA

ARTIFACT = "BENCH_bakeoff.json"


def _attack_cell(payload: dict) -> dict:
    attack_phase = payload["attack_phase"]
    defense_section = attack_phase.get("defense") or {}
    cell = {
        "defense": payload["defense"],
        "attack": payload["attack"],
        "clean_accuracy": attack_phase["clean_accuracy"],
        "final_accuracy": attack_phase["final_accuracy"],
        "executed_flips": attack_phase["executed_flips"],
    }
    for key in (
        "mitigation_ns",
        "corruptions_detected",
        "rows_restored",
        "rows_zeroed",
        "swaps_performed",
    ):
        if key in defense_section:
            cell[key] = defense_section[key]
    locker = defense_section.get("locker")
    if locker is not None:
        cell["blocked_requests"] = locker["blocked_requests"]
    return cell


def _serving_cell(scenario: Scenario, result: ScenarioResult) -> dict:
    payload = result.payload
    serving = payload["serving_phase"]
    health = serving["health"]
    return {
        "defense": payload["defense"],
        "channels": payload["channels"],
        "wall_s": round(result.wall_clock_s, 4),
        "requests_per_sim_sec": serving["sla"]["aggregate"][
            "requests_per_sim_sec"
        ],
        "victim_flip_events": serving["victim"]["victim_flip_events"],
        "offered_ops": health["offered_ops"],
        "served_ops": health["served_ops"],
        "shed_ops": health["shed_ops"],
        "conserved": health["conserved"],
        "probes": health["probes"],
        "detections": health["detections"],
        "quarantines": health["quarantines"],
        "last_probe_accuracy": health["last_probe_accuracy"],
        "sla_fingerprint": sla_fingerprint(serving),
        "engine_check": engine_check(scenario, result),
    }


def _chaos_section(scenario: Scenario, result: ScenarioResult) -> dict:
    payload = result.payload
    health = payload["serving_phase"]["health"]
    delta = None
    if health["post_recovery_accuracy"] is not None:
        delta = abs(
            health["clean_accuracy"] - health["post_recovery_accuracy"]
        )
    section = {
        "defense": payload["defense"],
        "injected_corruptions": health["injected_corruptions"],
        "injections_detected": health["injections_detected"],
        "all_injections_detected": health["all_injections_detected"],
        "detection_latency_ns": [
            entry["detection_latency_ns"] for entry in health["injections"]
        ],
        "detection_via": [
            entry["via"] for entry in health["injections"]
        ],
        "clean_accuracy": health["clean_accuracy"],
        "post_recovery_accuracy": health["post_recovery_accuracy"],
        "accuracy_delta_pct": delta,
        "accuracy_budget_pct": BAKEOFF_ACCURACY_BUDGET_PCT,
        "recoveries": health["recoveries"],
        "golden_restores": health["golden_restores"],
        "quarantines": health["quarantines"],
        "radar": health.get("radar"),
        "conserved": health["conserved"],
        "engine_check": engine_check(scenario, result),
    }
    failures = []
    if not section["all_injections_detected"]:
        failures.append(
            f"only {section['injections_detected']}/"
            f"{section['injected_corruptions']} injected corruptions "
            "detected"
        )
    if any(value is None for value in section["detection_latency_ns"]):
        failures.append("detection latency missing for an injection")
    if delta is None or delta > BAKEOFF_ACCURACY_BUDGET_PCT:
        failures.append(
            f"post-recovery accuracy {health['post_recovery_accuracy']} "
            f"not within {BAKEOFF_ACCURACY_BUDGET_PCT}pp of clean "
            f"{health['clean_accuracy']}"
        )
    if not section["conserved"]:
        failures.append("offered != served + shed")
    if failures:
        refuse(
            "chaos cell violated the detect-and-recover contract "
            f"({'; '.join(failures)})"
        )
    return section


def _frontier(attack_cells: dict, serving_cells: dict) -> dict:
    """Per defense: protection across the attack matrix vs serving
    overhead relative to the undefended baseline."""
    none_rps = {
        cell["channels"]: cell["requests_per_sim_sec"]
        for cell in serving_cells.values()
        if cell["defense"] == "None"
    }
    frontier = {}
    for defense in BAKEOFF_DEFENSES:
        accuracies = [
            cell["final_accuracy"]
            for cell in attack_cells.values()
            if cell["defense"] == defense
        ]
        point = {}
        if accuracies:
            point["mean_defended_accuracy"] = round(
                sum(accuracies) / len(accuracies), 4
            )
            point["worst_defended_accuracy"] = min(accuracies)
        mitigation = [
            cell["mitigation_ns"]
            for cell in attack_cells.values()
            if cell["defense"] == defense and "mitigation_ns" in cell
        ]
        if mitigation:
            point["mean_mitigation_ns"] = round(
                sum(mitigation) / len(mitigation), 2
            )
        throughput = {
            cell["channels"]: cell["requests_per_sim_sec"]
            for cell in serving_cells.values()
            if cell["defense"] == defense
        }
        point["serving_throughput_ratio"] = {
            f"ch{channels}": round(rps / none_rps[channels], 4)
            for channels, rps in sorted(throughput.items())
            if channels in none_rps and none_rps[channels]
        }
        point["serving_shed_ops"] = sum(
            cell["shed_ops"]
            for cell in serving_cells.values()
            if cell["defense"] == defense
        )
        frontier[defense] = point
    return frontier


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    path = os.path.join(args.out, ARTIFACT)
    with recording(BAKEOFF_SCHEMA, path) as document:
        attack_cells = {}
        serving_cells = {}
        chaos = None
        for scenario in bakeoff_scenarios(Scale.quick()):
            _, result = best_of(scenario)
            if scenario.name.startswith("bakeoff-chaos"):
                chaos = _chaos_section(scenario, result)
                latencies = chaos["detection_latency_ns"]
                print(
                    f"{scenario.name:42s} detected "
                    f"{chaos['injections_detected']}/"
                    f"{chaos['injected_corruptions']}  "
                    f"latency {latencies}  "
                    f"accuracy {chaos['post_recovery_accuracy']:.2f}% "
                    f"(clean {chaos['clean_accuracy']:.2f}%)"
                )
            elif dict(scenario.params).get("serving"):
                cell = _serving_cell(scenario, result)
                serving_cells[scenario.name] = cell
                print(
                    f"{scenario.name:42s} "
                    f"{cell['requests_per_sim_sec']:.3e} req/s (sim)  "
                    f"shed {cell['shed_ops']:4d}  "
                    f"victim flips {cell['victim_flip_events']}"
                )
                if (
                    cell["defense"] == "DRAM-Locker"
                    and cell["victim_flip_events"]
                ):
                    refuse(
                        f"{scenario.name}: DRAM-Locker cell recorded "
                        f"{cell['victim_flip_events']} victim flip event(s)"
                    )
            else:
                cell = _attack_cell(result.payload)
                attack_cells[scenario.name] = cell
                print(
                    f"{scenario.name:42s} "
                    f"{cell['clean_accuracy']:6.2f}% -> "
                    f"{cell['final_accuracy']:6.2f}%  "
                    f"flips {cell['executed_flips']}"
                )

        frontier = _frontier(attack_cells, serving_cells)
        for defense, point in frontier.items():
            worst = point.get("worst_defended_accuracy")
            ratio = point.get("serving_throughput_ratio", {})
            print(
                f"frontier {defense:14s} worst accuracy "
                f"{worst if worst is not None else '-':>6}  "
                f"throughput ratio {ratio}"
            )

        document.update(
            defenses=list(BAKEOFF_DEFENSES),
            attacks=sorted({cell["attack"] for cell in attack_cells.values()}),
            attack_cells=attack_cells,
            serving_cells=serving_cells,
            chaos=chaos,
            frontier=frontier,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
