"""Records BENCH_attack_search.json: the suffix-forward search speedup.

Runs every bit-search attack family through ``run_attack_scenario``
twice per cell -- once on the legacy per-candidate full-forward engine
(``engine="full"``), once on the shared suffix-forward
:class:`~repro.attacks.session.SearchSession` (``engine="suffix"``) --
and records the before/after wall-clock per family.  The two engines
must produce **identical scenario payloads** (same flip sequences,
losses, ASR/accuracy trajectories); the recorder refuses to write an
artifact otherwise.

Locked cells (behind DRAM-Locker) are where the engine bites hardest:
blocked campaigns leave the weight state untouched, so the digest-
memoized accuracy/ASR probes and gradient passes collapse to lookups.
Open cells improve less -- every committed flip invalidates downstream
state -- and are recorded for honesty.

The script also measures the ``run_matrix`` worker-pool satellite:
pool startup with a cold pool vs the persistent pool, and the
parent-side victim prewarm that ships arrays to workers by fork
inheritance (or shared memory under spawn).

Run with:  python benchmarks/bench_attack_search.py
"""

import argparse
import os

from repro.eval import Scale, Scenario, run_matrix
from repro.eval.fleet import shutdown_worker_pool
from repro.eval.harness import attack_prewarm, attack_scenarios
from repro.eval.recorder import best_of, recording, refuse
from repro.eval.regression import ATTACK_SEARCH_SCHEMA

ARTIFACT = "BENCH_attack_search.json"

#: Flip budget per attack cell.
ITERATIONS = 10

#: (family, protected, extra params) cells measured per engine.
CELLS = (
    ("bfa", True, {}),
    ("bfa", False, {}),
    ("tbfa-n-to-1", True, {"target_class": 0}),
    ("tbfa-n-to-1", False, {"target_class": 0}),
    ("tbfa-1-to-1", True, {"target_class": 0, "source_class": 1}),
    ("tbfa-stealthy", True, {"target_class": 0, "source_class": 1}),
    ("backdoor", True, {"target_class": 0}),
    ("multi-round-bfa", True, {"rounds": 3}),
)

#: The headline scenario of the recorded target (>=2x gate).
TARGET_CELL = "tbfa-n-to-1-locked"
TARGET_SPEEDUP = 2.0


def _pool_overhead(scale):
    """Worker startup with a cold vs persistent (warm) pool, plus the
    parent-side victim prewarm cost, over a two-scenario matrix."""
    scenarios = attack_scenarios(
        scale, iterations=ITERATIONS, attacks=["bfa"]
    )
    shutdown_worker_pool()
    cold = run_matrix(
        scenarios, workers=2, tag="pool-cold", strict=True,
        prewarm=attack_prewarm(scale),
    )
    warm = run_matrix(scenarios, workers=2, tag="pool-warm", strict=True)
    identical = (
        cold.as_artifact()["results"] == warm.as_artifact()["results"]
    )
    return {
        "cold_pool_startup_s": round(cold.pool_startup_s, 4),
        "warm_pool_startup_s": round(warm.pool_startup_s, 4),
        "prewarm_s": round(cold.prewarm_s, 4),
        "results_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    scale = Scale.quick()
    path = os.path.join(args.out, ARTIFACT)
    with recording(ATTACK_SEARCH_SCHEMA, path) as document:
        families = {}
        for family, protected, extra in CELLS:
            cell_name = f"{family}-{'locked' if protected else 'open'}"
            walls, payloads = {}, {}
            for engine in ("full", "suffix"):
                params = dict(
                    extra, attack=family, arch="resnet20", protected=protected,
                    iterations=ITERATIONS, engine=engine,
                )
                walls[engine], result = best_of(Scenario(
                    f"{cell_name}-{engine}", "attack", scale, seed=0,
                    params=tuple(sorted(params.items())),
                ))
                payloads[engine] = result.payload
            full_s, suffix_s = walls["full"], walls["suffix"]
            identical = payloads["full"] == payloads["suffix"]
            families[cell_name] = {
                "full_s": round(full_s, 3),
                "suffix_s": round(suffix_s, 3),
                "speedup": round(full_s / suffix_s, 2),
                "results_identical": identical,
            }
            print(
                f"{cell_name:28s} full {full_s:6.2f}s  suffix {suffix_s:6.2f}s "
                f"({full_s / suffix_s:4.2f}x)  identical={identical}"
            )
            if not identical:
                refuse(
                    f"{cell_name}: suffix engine diverged from the "
                    "full-forward reference"
                )

        pool = _pool_overhead(scale)
        print(
            f"pool startup: cold {pool['cold_pool_startup_s']:.3f}s, "
            f"warm {pool['warm_pool_startup_s']:.3f}s; "
            f"prewarm {pool['prewarm_s']:.2f}s"
        )
        if not pool["results_identical"]:
            refuse("pool reuse changed matrix results")
        document.update(
            arch="resnet20", iterations=ITERATIONS, families=families, pool=pool
        )

    target = families.get(TARGET_CELL)
    if target is not None and target["speedup"] < TARGET_SPEEDUP:
        raise SystemExit(
            f"{TARGET_CELL} speedup {target['speedup']}x is below the "
            f"{TARGET_SPEEDUP}x target"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
