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

Run with:  python benchmarks/bench_defended_hammer.py
"""

import argparse
import os

from repro.eval import Scale
from repro.eval.harness import Scenario
from repro.eval.recorder import best_of, recording, refuse
from repro.eval.regression import DEFENDED_HAMMER_SCHEMA

ARTIFACT = "BENCH_defended_hammer.json"

#: RowHammer threshold of the benched device.
TRH = 3000

#: Timing repeats per cell (the best is recorded).
REPEATS = 3

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


def _strip_engine(payload: dict) -> dict:
    """Engine-independent view of a payload for the equivalence check."""
    return {key: value for key, value in payload.items() if key != "engine"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    path = os.path.join(args.out, ARTIFACT)
    with recording(DEFENDED_HAMMER_SCHEMA, path) as document:
        defenses = {}
        for defense in DEFENSES:
            walls, payloads = {}, {}
            for engine in ("scalar", "bulk"):
                walls[engine], result = best_of(Scenario(
                    f"defended-{_cell_name(defense)}-{engine}",
                    "defended_hammer",
                    Scale.quick(),
                    seed=0,
                    params=(
                        ("defense", defense), ("trh", TRH), ("engine", engine)
                    ),
                ), REPEATS)
                payloads[engine] = _strip_engine(result.payload)
            scalar_s, bulk_s = walls["scalar"], walls["bulk"]
            identical = payloads["scalar"] == payloads["bulk"]
            cell = {
                "scalar_s": round(scalar_s, 4),
                "bulk_s": round(bulk_s, 4),
                "speedup": round(scalar_s / bulk_s, 2),
                "results_identical": identical,
                "flipped": payloads["bulk"]["protected_bits_flipped"],
                "blocked": sum(
                    o["blocked"] for o in payloads["bulk"]["outcomes"]
                ),
            }
            defenses[_cell_name(defense)] = cell
            print(
                f"{defense:12s} scalar {scalar_s * 1e3:8.1f}ms  "
                f"bulk {bulk_s * 1e3:8.1f}ms  ({cell['speedup']:5.2f}x)  "
                f"identical={identical}"
            )
            if not identical:
                refuse(
                    f"{defense}: bulk engine diverged from the scalar "
                    "reference"
                )
        document.update(trh=TRH, repeats=REPEATS, defenses=defenses)

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
