"""Records BENCH_defended_hammer.json: the bulk defense engine speedup.

Runs the ``defended_hammer`` harness scenario -- ``HammerDriver``
double-sided TRH-burst campaigns against templated victim bits -- once
per defense on the scalar reference engine (``engine="scalar"``: one
Python ``execute()``, one ``on_activate`` dispatch, one
``RequestResult`` per activation) and once on the bulk engine
(``engine="bulk"``: run-length requests, defense-planned chunks or
fused multi-tick epochs, summary-mode accounting), and records the
per-defense wall-clocks.  ``engine="events"`` runs the same controller
code as ``bulk``, so it gets no column of its own.

Both engines must produce **identical scenario payloads** (same flip
outcomes, issued/blocked tallies, memory stats bit-for-bit, same
mitigation accounting); the recorder refuses to write an artifact
otherwise.  The ``DRAM-Locker`` cell exercises the blocked-run summary
path; ``None`` is the undefended baseline (and a cell where cross-tick
fusion applies in full).

Run with:  python benchmarks/bench_defended_hammer.py [--trh N]
"""

import argparse
import json
import os
import time

from repro.eval import Scale
from repro.eval.harness import DEFENDED_HAMMER_DEFENSES, run_scenario, Scenario
from repro.eval.regression import DEFENDED_HAMMER_SCHEMA, host_meta

ARTIFACT = "BENCH_defended_hammer.json"

#: Defense cells measured per engine, in recorded order.
DEFENSES = (
    "None",
    "TRR",
    "PARA",
    "Graphene",
    "Hydra",
    "Counter/Row",
    "CounterTree",
    "TWiCE",
    "SHADOW",
    "RRS",
    "DRAM-Locker",
)

#: The acceptance families: each must clear this bulk-engine speedup.
TARGET_FAMILIES = ("TRR", "PARA", "Graphene", "Hydra", "Counter/Row")
TARGET_SPEEDUP = 3.0


def _cell_name(defense: str) -> str:
    return defense.lower().replace("/", "-")


def _run_cell(defense: str, engine: str, trh: int, repeats: int):
    """Best-of-``repeats`` wall-clock for one defended campaign; the
    payload must be identical across repeats (campaigns are
    deterministic), which doubles as a reproducibility check."""
    best = float("inf")
    payload = None
    for _ in range(repeats):
        scenario = Scenario(
            f"defended-{_cell_name(defense)}-{engine}",
            "defended_hammer",
            Scale.quick(),
            seed=0,
            params=(("defense", defense), ("trh", trh), ("engine", engine)),
        )
        result = run_scenario(scenario)
        if not result.ok:
            raise SystemExit(f"{scenario.name} failed:\n{result.error}")
        if payload is not None and result.payload != payload:
            raise SystemExit(
                f"{scenario.name}: nondeterministic payload across repeats; "
                "refusing to record"
            )
        payload = result.payload
        best = min(best, result.wall_clock_s)
    return best, payload


def _strip_engine(payload: dict) -> dict:
    """Engine-independent view of a payload for the equivalence check."""
    return {key: value for key, value in payload.items() if key != "engine"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trh", type=int, default=3000,
                        help="RowHammer threshold of the benched device")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best is recorded)")
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    unknown = [d for d in DEFENSES if d not in DEFENDED_HAMMER_DEFENSES]
    if unknown:
        raise SystemExit(f"unknown defense cells: {unknown}")

    started = time.perf_counter()
    defenses = {}
    for defense in DEFENSES:
        scalar_s, scalar_payload = _run_cell(
            defense, "scalar", args.trh, args.repeats
        )
        bulk_s, bulk_payload = _run_cell(
            defense, "bulk", args.trh, args.repeats
        )
        identical = _strip_engine(scalar_payload) == _strip_engine(
            bulk_payload
        )
        cell = {
            "scalar_s": round(scalar_s, 4),
            "bulk_s": round(bulk_s, 4),
            "speedup": round(scalar_s / bulk_s, 2),
            "results_identical": identical,
            "flipped": bulk_payload["protected_bits_flipped"],
            "blocked": sum(o["blocked"] for o in bulk_payload["outcomes"]),
        }
        defenses[_cell_name(defense)] = cell
        print(
            f"{defense:12s} scalar {scalar_s * 1e3:8.1f}ms  "
            f"bulk {bulk_s * 1e3:8.1f}ms  ({cell['speedup']:5.2f}x)  "
            f"identical={identical}"
        )
        if not identical:
            raise SystemExit(
                f"{defense}: bulk engine diverged from the scalar "
                "reference; refusing to record"
            )

    document = {
        "schema": DEFENDED_HAMMER_SCHEMA,
        "meta": host_meta(),
        "trh": args.trh,
        "repeats": args.repeats,
        "defenses": defenses,
        "timing": {"total_s": round(time.perf_counter() - started, 3)},
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, ARTIFACT)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"artifact: {path}")

    slow = {
        family: defenses[_cell_name(family)]["speedup"]
        for family in TARGET_FAMILIES
        if defenses[_cell_name(family)]["speedup"] < TARGET_SPEEDUP
    }
    if slow:
        raise SystemExit(
            f"defended-hammer speedups below the {TARGET_SPEEDUP}x "
            f"target: {slow}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
