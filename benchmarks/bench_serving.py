"""Records BENCH_serving.json: multi-tenant serving on sharded channels.

Runs the ``serving`` harness scenario -- Zipf-popular tenant traffic
plus a co-located attacker on a :class:`ShardedMemorySystem` -- across
a channel sweep per defense, and records:

* **aggregate requests/sec vs channel count** -- *simulated*
  throughput (total requests over the slowest channel's clock), which
  transfers across runner classes; the recorder enforces the >= 5x
  scaling target from 1 to >= 8 channels under DRAM-Locker (>= 2x for
  narrower sweeps);
* **engine equivalence** -- every cell runs on the event-driven
  fast-forward engine and is re-run on the bulk reference engine; the
  two payloads must match bit-for-bit (``engine_check`` records the
  comparison and both wall clocks), else the artifact is refused;
* **locker overhead under load** -- locked vs undefended simulated
  throughput at each channel count;
* **the protected-victim probe** -- a trained quick-scale model
  resident on channel 0 behind per-channel lock tables while the
  co-located attacker hammers its weight rows: zero victim flip events
  and bit-identical accuracy required, else the artifact is refused;
* per-cell **SLA fingerprints** (request tallies + latency
  percentiles, all deterministic simulated quantities) that the
  nightly gate's ``SERVING_SCHEMA`` rows hold to exact equality.

Run with:  python benchmarks/bench_serving.py [--channels 1 4 8 16]
"""

import argparse
import copy
import json
import os
import time

from repro.eval import Scale
from repro.eval.harness import Scenario, run_scenario
from repro.eval.regression import SERVING_SCHEMA, host_meta

ARTIFACT = "BENCH_serving.json"

#: Defenses swept across the channel counts.
DEFENSES = ("None", "DRAM-Locker")

#: Required aggregate requests/sec scaling from 1 to max channels:
#: >= 5x when the sweep reaches 8+ channels, >= 2x for narrower sweeps.
TARGET_SCALING = 5.0
TARGET_SCALING_NARROW = 2.0
WIDE_SWEEP_CHANNELS = 8


def _cell_name(defense: str, channels: int) -> str:
    return f"{defense.lower().replace('/', '-')}-ch{channels}"


def _sla_fingerprint(payload: dict) -> dict:
    """The deterministic SLA stats the nightly gate pins exactly."""
    aggregate = payload["sla"]["aggregate"]
    fingerprint = {
        "requests": aggregate["requests"],
        "issued": aggregate["issued"],
        "blocked": aggregate["blocked"],
    }
    tenant0 = payload["sla"]["tenants"].get("tenant-0", {})
    latency = tenant0.get("latency_ns")
    if latency:
        fingerprint["tenant0_latency_ns"] = latency
    return fingerprint


def _run_cell(params: tuple, repeats: int) -> tuple[float, dict]:
    """Best-of-``repeats`` wall-clock; the payload must be identical
    across repeats (serving cells are deterministic)."""
    best = float("inf")
    payload = None
    name = "serving-bench-" + "-".join(
        str(value).lower().replace("/", "-") for _, value in params
    )
    for _ in range(repeats):
        result = run_scenario(
            Scenario(name, "serving", Scale.quick(), seed=0, params=params)
        )
        if not result.ok:
            raise SystemExit(f"{name} failed:\n{result.error}")
        if payload is not None and result.payload != payload:
            raise SystemExit(
                f"{name}: nondeterministic payload across repeats; "
                "refusing to record"
            )
        payload = result.payload
        best = min(best, result.wall_clock_s)
    return best, payload


def _engine_neutral(payload: dict) -> dict:
    """The payload with the engine knob removed -- what the engine
    equivalence contract (docs/ARCHITECTURE.md) requires to be
    bit-identical across ``scalar``/``bulk``/``events``."""
    neutral = copy.deepcopy(payload)
    neutral.get("config", {}).pop("engine", None)
    return neutral


def _engine_check(
    params: tuple, events_wall_s: float, events_payload: dict
) -> dict:
    """Re-run one cell on the bulk reference engine and require a
    bit-identical payload (modulo the engine knob itself)."""
    bulk_wall_s, bulk_payload = _run_cell(
        params + (("engine", "bulk"),), repeats=1
    )
    identical = _engine_neutral(bulk_payload) == _engine_neutral(events_payload)
    if not identical:
        raise SystemExit(
            "events-engine payload diverged from the bulk reference for "
            f"params {params!r}; refusing to record"
        )
    return {
        "identical": identical,
        "bulk_wall_s": round(bulk_wall_s, 4),
        "events_wall_s": round(events_wall_s, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--channels", type=int, nargs="+",
                        default=[1, 4, 8, 16])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best is recorded)")
    parser.add_argument("--skip-model-victim", action="store_true",
                        help="skip the trained-victim accuracy probe")
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)
    channel_counts = sorted(set(args.channels))

    started = time.perf_counter()
    cells = {}
    scaling = {}
    for defense in DEFENSES:
        rps = {}
        for channels in channel_counts:
            for colocated in (True, False):
                base_params = (
                    ("channels", channels),
                    ("colocated", colocated),
                    ("defense", defense),
                )
                wall_s, payload = _run_cell(
                    base_params + (("engine", "events"),), args.repeats
                )
                aggregate = payload["sla"]["aggregate"]
                victim = payload["victim"]
                cell = {
                    "wall_s": round(wall_s, 4),
                    "requests": aggregate["requests"],
                    "blocked": aggregate["blocked"],
                    "requests_per_sim_sec": aggregate["requests_per_sim_sec"],
                    "protected": victim["protected"],
                    "colocated": colocated,
                    "victim_flip_events": victim["victim_flip_events"],
                    "sla_fingerprint": _sla_fingerprint(payload),
                    "engine_check": _engine_check(base_params, wall_s, payload),
                }
                name = _cell_name(defense, channels)
                if not colocated:
                    name += "-solo"
                cells[name] = cell
                if colocated:
                    rps[channels] = aggregate["requests_per_sim_sec"]
                print(
                    f"{defense:12s} ch{channels} "
                    f"{'attacked' if colocated else 'solo    '}  "
                    f"{cell['requests_per_sim_sec']:.3e} req/s (sim)  "
                    f"wall {wall_s * 1e3:7.1f}ms  "
                    f"blocked {cell['blocked']:6d}  "
                    f"victim flips {cell['victim_flip_events']}"
                )
        low, high = min(channel_counts), max(channel_counts)
        scaling[defense] = {
            f"rps_ch{low}": rps[low],
            f"rps_ch{high}": rps[high],
            "ratio": round(rps[high] / rps[low], 3),
        }
        print(f"{defense:12s} scaling ch{low}->ch{high}: "
              f"{scaling[defense]['ratio']:.2f}x")

    # True locker cost on attacker-free traffic (lock lookups + unlock
    # swaps); the co-located comparison is reported separately as the
    # *absorption* ratio -- blocked hammer requests cost only the
    # lookup, so the locked system sustains more aggregate throughput
    # under attack than the undefended one serves.
    overhead = {
        f"ch{channels}": round(
            100.0
            * (
                1.0
                - cells[_cell_name("DRAM-Locker", channels) + "-solo"][
                    "requests_per_sim_sec"
                ]
                / cells[_cell_name("None", channels) + "-solo"][
                    "requests_per_sim_sec"
                ]
            ),
            3,
        )
        for channels in channel_counts
    }
    absorption = {
        f"ch{channels}": round(
            cells[_cell_name("DRAM-Locker", channels)]["requests_per_sim_sec"]
            / cells[_cell_name("None", channels)]["requests_per_sim_sec"],
            3,
        )
        for channels in channel_counts
    }
    print(f"locker overhead on attacker-free traffic (pct): {overhead}")
    print(f"locker attack-absorption throughput ratio: {absorption}")

    # --skip-model-victim records an explicit marker rather than
    # omitting the section: the gate treats a silently *missing* probe
    # as a regression, an explicitly skipped one as a check.
    victim_probe = {"skipped": True}
    if not args.skip_model_victim:
        probe_channels = max(channel_counts)
        _, payload = _run_cell(
            (
                ("channels", probe_channels),
                ("defense", "DRAM-Locker"),
                ("victim", "model"),
            ),
            repeats=1,
        )
        victim = payload["victim"]
        victim_probe = {
            "channels": probe_channels,
            "clean_accuracy": victim["clean_accuracy"],
            "post_attack_accuracy": victim["post_attack_accuracy"],
            "accuracy_unchanged": victim["accuracy_unchanged"],
            "victim_flip_events": victim["victim_flip_events"],
        }
        print(
            f"model victim (ch{probe_channels}, locker, co-located): "
            f"clean {victim['clean_accuracy']:.2f}% -> "
            f"{victim['post_attack_accuracy']:.2f}% "
            f"(unchanged={victim['accuracy_unchanged']})"
        )
        if not victim["accuracy_unchanged"] or victim["victim_flip_events"]:
            raise SystemExit(
                "protected model victim was not intact under the "
                "co-located attack; refusing to record"
            )

    document = {
        "schema": SERVING_SCHEMA,
        "meta": host_meta(),
        "channel_counts": channel_counts,
        "repeats": args.repeats,
        "cells": cells,
        "scaling": scaling,
        "locker_overhead_pct": overhead,
        "locker_attack_absorption": absorption,
        "timing": {"total_s": round(time.perf_counter() - started, 3)},
        "victim": victim_probe,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, ARTIFACT)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"artifact: {path}")

    locker_ratio = scaling["DRAM-Locker"]["ratio"]
    target = (
        TARGET_SCALING
        if max(channel_counts) >= WIDE_SWEEP_CHANNELS
        else TARGET_SCALING_NARROW
    )
    if len(channel_counts) > 1 and locker_ratio < target:
        raise SystemExit(
            f"aggregate requests/sec scaled only {locker_ratio:.2f}x from "
            f"{min(channel_counts)} to {max(channel_counts)} channels "
            f"under DRAM-Locker (target {target}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
