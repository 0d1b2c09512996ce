"""Records BENCH_victim_cache.json: the trained-victim cache speedup.

Runs the registry-driven attack matrix (every registered attack, with
and without DRAM-Locker, all sharing one ResNet-20 victim) three ways:

* **cache off** -- every scenario trains its own victim (the pre-cache
  behaviour);
* **cache cold** -- a fresh cache directory: the first scenario trains
  and stores, the rest hit;
* **cache warm** -- the same directory again: every scenario hits.

The ``results`` sections of the three artifacts must be identical --
the cache returns bit-identical weights, so caching is purely a
wall-clock lever.  The recorded artifact asserts that and the >=2x
speedup the ROADMAP asks for.

Run with:  python benchmarks/bench_victim_cache.py
"""

import argparse
import os
import tempfile
import time

from repro.eval import Scale, run_matrix
from repro.eval.harness import attack_scenarios
from repro.eval.recorder import recording, refuse
from repro.nn.cache import CACHE_ENV_VAR, MEMORY_ENV_VAR

ARTIFACT = "BENCH_victim_cache.json"

#: Flip budget per attack scenario.
ITERATIONS = 4


def _timed_matrix(scenarios, tag: str) -> tuple[float, dict]:
    started = time.perf_counter()
    matrix = run_matrix(scenarios, workers=1, tag=tag, strict=True)
    elapsed = time.perf_counter() - started
    return elapsed, matrix.as_artifact()["results"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    scenarios = attack_scenarios(Scale.quick(), iterations=ITERATIONS)
    print(f"{len(scenarios)} attack scenarios, one shared victim")

    path = os.path.join(args.out, ARTIFACT)
    previous = os.environ.get(CACHE_ENV_VAR)
    previous_memory = os.environ.get(MEMORY_ENV_VAR)
    with recording("dram-locker-victim-cache-bench/1", path) as document, \
            tempfile.TemporaryDirectory(prefix="victim-cache-bench-") as cache_dir:
        try:
            # This benchmark times the *disk* cache; the in-process
            # memory layer would serve every repeat lookup from RAM
            # and make the cold/warm legs measure the wrong thing.
            os.environ[MEMORY_ENV_VAR] = "off"
            os.environ[CACHE_ENV_VAR] = "off"
            off_s, off_results = _timed_matrix(scenarios, "cache-off")
            print(f"cache off : {off_s:7.2f}s")

            os.environ[CACHE_ENV_VAR] = cache_dir
            cold_s, cold_results = _timed_matrix(scenarios, "cache-cold")
            print(f"cache cold: {cold_s:7.2f}s ({off_s / cold_s:.2f}x)")

            warm_s, warm_results = _timed_matrix(scenarios, "cache-warm")
            print(f"cache warm: {warm_s:7.2f}s ({off_s / warm_s:.2f}x)")
        finally:
            for variable, old in (
                (CACHE_ENV_VAR, previous),
                (MEMORY_ENV_VAR, previous_memory),
            ):
                if old is None:
                    os.environ.pop(variable, None)
                else:
                    os.environ[variable] = old

        identical = off_results == cold_results == warm_results
        print(f"results bit-identical across cache modes: {identical}")
        if not identical:
            refuse("cache changed scenario results")
        document.update(
            scenarios=[scenario.name for scenario in scenarios],
            attack_iterations=ITERATIONS,
            workers=1,
            cache_off_s=round(off_s, 3),
            cache_cold_s=round(cold_s, 3),
            cache_warm_s=round(warm_s, 3),
            speedup_cold=round(off_s / cold_s, 2),
            speedup_warm=round(off_s / warm_s, 2),
            results_identical=identical,
        )

    if document["speedup_cold"] < 2.0:
        raise SystemExit(
            f"cache speedup {document['speedup_cold']}x is below the 2x target"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
