"""Records BENCH_obs.json: the telemetry core's overhead contract.

Runs the ``defended_hammer`` harness scenario per (defense, engine)
cell twice -- telemetry disabled (the default) and telemetry enabled
through :func:`repro.obs.enabled_scope` -- and records both halves of
the :mod:`repro.obs` contract:

* **Observational inertness** (exact): the enabled run's payload must
  be bit-identical to the disabled run's, and the deterministic event
  counts (metric ``updates``, ``audit_events``) are recorded for the
  baseline gate.  The recorder refuses to write an artifact when any
  payload diverges.
* **Zero overhead when disabled**: differencing two wall-clock runs
  cannot resolve a sub-1% effect on a CI runner, so the disabled-path
  cost is *constructed* instead: a microbenchmark times the exact
  guard hot paths execute (``tel = obs.ACTIVE`` plus a ``None`` test),
  and each cell's ``disabled_pct`` is that per-check cost times the
  number of guard sites hit (bounded below by the enabled run's
  update count) as a percentage of the cell's telemetry-off runtime.
  the ``OBS_SCHEMA`` rows of ``repro.eval.regression.RULES`` gate it
  under 1% absolute.

The ``enabled_ratio`` (on/off wall-clock) is also recorded; the gate
only bounds its growth versus the committed baseline -- the enabled
path is allowed to cost real time.

Run with:  python benchmarks/bench_obs.py [--repeats N]
"""

import argparse
import os
import time

from repro import obs
from repro.eval import Scale
from repro.eval.harness import Scenario
from repro.eval.recorder import best_of, recording, refuse
from repro.eval.regression import OBS_SCHEMA

ARTIFACT = "BENCH_obs.json"

#: RowHammer threshold of the benched device.
TRH = 3000

#: (defense, engine) cells measured, in recorded order.  DRAM-Locker
#: exercises the densest instrumentation (locker + controller + audit);
#: None is the undefended fast path where a fixed guard cost is the
#: largest *fraction* of runtime.  ``engine="events"`` runs the same
#: controller code as ``bulk``, so it gets no cells of its own.
CELLS = (
    ("None", "scalar"),
    ("None", "bulk"),
    ("DRAM-Locker", "scalar"),
    ("DRAM-Locker", "bulk"),
)


def _cell_name(defense: str, engine: str) -> str:
    return f"{defense.lower().replace('/', '-')}/{engine}"


def _guard_cost_ns(checks: int = 2_000_000) -> float:
    """Per-check cost of the disabled-path guard, loop overhead removed.

    Times exactly what instrumented hot paths run when telemetry is
    off: a module-attribute load of ``obs.ACTIVE`` and a ``None`` test.
    """
    assert obs.ACTIVE is None
    indices = range(checks)
    started = time.perf_counter_ns()
    for _ in indices:
        tel = obs.ACTIVE
        if tel is not None:  # pragma: no cover - disabled by construction
            raise AssertionError
    guarded = time.perf_counter_ns() - started
    started = time.perf_counter_ns()
    for _ in indices:
        pass
    empty = time.perf_counter_ns() - started
    # Clamp at a floor so a noisy empty-loop measurement can never
    # yield a zero (or negative) cost and trivially pass the gate.
    return max((guarded - empty) / checks, 0.05)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best is recorded)")
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    path = os.path.join(args.out, ARTIFACT)
    with recording(OBS_SCHEMA, path) as document:
        guard_ns = _guard_cost_ns()
        print(f"guard cost: {guard_ns:.1f}ns per disabled-path check")

        cells = {}
        for defense, engine in CELLS:
            scenario = Scenario(
                f"obs-{defense.lower().replace('/', '-')}-{engine}",
                "defended_hammer",
                Scale.quick(),
                seed=0,
                params=(("defense", defense), ("trh", TRH), ("engine", engine)),
            )
            off_s, off = best_of(scenario, args.repeats)
            with obs.enabled_scope():
                on_s, on = best_of(scenario, args.repeats)
            identical = off.payload == on.payload
            updates = on.telemetry["metrics"]["updates"]
            audit_events = on.telemetry["audit"]["events"]
            disabled_pct = guard_ns * updates / (off_s * 1e9) * 100.0
            name = _cell_name(defense, engine)
            cells[name] = {
                "off_s": round(off_s, 4),
                "on_s": round(on_s, 4),
                "enabled_ratio": round(on_s / off_s, 3),
                "payload_identical": identical,
                "updates": updates,
                "audit_events": audit_events,
                "disabled_pct": round(disabled_pct, 4),
            }
            print(
                f"{name:22s} off {off_s * 1e3:8.1f}ms  on {on_s * 1e3:8.1f}ms  "
                f"(x{on_s / off_s:5.2f})  updates={updates:6d}  "
                f"audit={audit_events:4d}  disabled~{disabled_pct:.4f}%  "
                f"identical={identical}"
            )
            if not identical:
                refuse(f"{name}: telemetry changed the simulation payload")
        document.update(
            trh=TRH,
            repeats=args.repeats,
            guard={"ns_per_check": round(guard_ns, 2)},
            cells=cells,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
