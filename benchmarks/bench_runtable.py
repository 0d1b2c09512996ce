"""Records BENCH_runtable.json: fault-tolerant run-table orchestration.

Exercises the fleet layer (``repro.eval.runtable``) end to end and
records the three properties the nightly gate's
``RUNTABLE_BENCH_SCHEMA`` rows hold:

* **checkpoint transparency** -- the demo table executed with a
  checkpoint journal must produce a results section bit-identical to
  a plain ``run_matrix`` sweep of the same cells
  (``results_identical``), and the journalling overhead is recorded
  as a wall-clock *ratio* (which transfers across runner classes,
  unlike wall seconds);
* **crash recovery** -- a subprocess running the demo table is
  SIGKILLed once its journal holds at least two cells, then resumed
  with ``--resume``; the merged artifact's results section must be
  bit-identical to an uninterrupted reference run
  (``resume_identical``), with the journal line count at kill time
  recorded so the gate can verify the resume path was actually
  exercised;
* **fault containment** -- the chaos table runs under its canned
  :class:`~repro.eval.faults.FaultPlan`: the crash-once cell must
  recover via retry, the always-crashing cell must quarantine with
  its attempt history, and the channel-fault cell must conserve
  ``offered == served + shed`` with zero victim flips under
  DRAM-Locker.  Counts and the conservation tally are recorded for
  exact comparison against the baseline.

Run with:  python benchmarks/bench_runtable.py
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.eval.harness import SupervisorConfig, run_matrix
from repro.eval.recorder import recording, refuse
from repro.eval.regression import RUNTABLE_BENCH_SCHEMA, load_artifact
from repro.eval.runtable import RUNTABLE_SETS, run_table

ARTIFACT = "BENCH_runtable.json"

#: Workers for every sweep in this bench (>= 2 so worker crash faults
#: never take the bench itself down).
WORKERS = 2

#: The recovery victim is killed once its journal holds this many cells.
KILL_AFTER_CELLS = 2


def _checkpoint_cell(work_dir: str) -> dict:
    """Demo table with journalling vs a plain run_matrix sweep."""
    spec, _faults = RUNTABLE_SETS["demo"]()
    # Warm the persistent worker pool first so its one-time spawn cost
    # lands on neither timed sweep (it would otherwise be charged to
    # whichever run goes first and skew the overhead ratio).
    run_matrix(spec.cells()[:WORKERS], workers=WORKERS, tag="warmup")
    started = time.perf_counter()
    table = run_table(spec, work_dir, workers=WORKERS, tag="ckpt")
    table_s = time.perf_counter() - started

    started = time.perf_counter()
    plain = run_matrix(
        spec.cells(),
        workers=WORKERS,
        tag="plain",
        supervise=SupervisorConfig(retries=spec.retries),
    )
    plain_s = time.perf_counter() - started
    plain_results = plain.as_artifact()["results"]

    cell = {
        "cells": table.cells,
        "results_identical": table.artifact["results"] == plain_results,
        "table_s": round(table_s, 4),
        "plain_s": round(plain_s, 4),
        "overhead_ratio": round(table_s / plain_s, 3),
    }
    if not cell["results_identical"]:
        refuse("checkpointed run-table diverged from plain run_matrix")
    print(
        f"checkpoint: {cell['cells']} cells identical to plain sweep, "
        f"overhead {cell['overhead_ratio']:.2f}x "
        f"({table_s:.2f}s vs {plain_s:.2f}s)"
    )
    return cell


def _recovery_cell(work_dir: str) -> dict:
    """SIGKILL a demo-table subprocess mid-sweep, resume, compare."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH"),
        )
        if part
    )
    base_cmd = [
        sys.executable, "-m", "repro.eval", "runtable",
        "--set", "demo", "--out", work_dir,
        "--workers", str(WORKERS),
    ]
    subprocess.run(
        base_cmd + ["--tag", "ref"],
        env=env, check=True, capture_output=True,
    )
    reference = load_artifact(os.path.join(work_dir, "RUNTABLE_ref.json"))

    victim = subprocess.Popen(
        base_cmd + ["--tag", "victim"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    journal = os.path.join(work_dir, "victim.journal.jsonl")
    deadline = time.time() + 120
    lines = 0
    while time.time() < deadline and victim.poll() is None:
        if os.path.exists(journal):
            with open(journal) as handle:
                lines = len(handle.read().splitlines())
            if lines >= KILL_AFTER_CELLS:
                break
        time.sleep(0.005)
    victim.send_signal(signal.SIGKILL)
    victim.wait()

    subprocess.run(
        base_cmd + ["--tag", "victim", "--resume"],
        env=env, check=True, capture_output=True,
    )
    resumed = load_artifact(os.path.join(work_dir, "RUNTABLE_victim.json"))

    cell = {
        "journal_lines_at_kill": lines,
        "resumed_cells": resumed["timing"]["resumed"],
        "resume_identical": resumed["results"] == reference["results"],
    }
    if not cell["resume_identical"]:
        refuse(
            "SIGKILLed + resumed run-table diverged from the "
            "uninterrupted run"
        )
    print(
        f"recovery: killed at {lines} journalled cell(s), resumed "
        f"{cell['resumed_cells']} -- results bit-identical"
    )
    return cell


def _chaos_cell(work_dir: str) -> dict:
    """The chaos table under its canned fault plan."""
    spec, faults = RUNTABLE_SETS["chaos"]()
    table = run_table(spec, work_dir, workers=WORKERS, faults=faults)
    results = table.artifact["results"]
    attempts = table.artifact["timing"].get("attempts", {})
    recovered = sum(
        1
        for name, history in attempts.items()
        if history
        and not (
            isinstance(results[name], dict) and "error" in results[name]
        )
    )
    fault_payload = next(
        payload
        for payload in results.values()
        if isinstance(payload, dict) and "fault" in payload
    )
    fault = dict(
        fault_payload["fault"],
        victim_flip_events=fault_payload["victim"]["victim_flip_events"],
    )
    cell = {
        "cells": table.cells,
        "quarantined": table.quarantined,
        "errors": table.errors,
        "recovered": recovered,
        "attempts": attempts,
        "channel_fault": fault,
    }
    if not fault["conserved"] or fault["victim_flip_events"]:
        refuse(
            "channel-fault cell broke conservation or flipped victim "
            "bits under DRAM-Locker"
        )
    print(
        f"chaos: {cell['quarantined']} quarantined, {recovered} "
        f"recovered via retry, channel fault shed "
        f"{fault['shed_ops']}/{fault['offered_ops']} "
        f"(victim flips {fault['victim_flip_events']})"
    )
    return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--out", default=os.path.join("benchmarks", "artifacts")
    )
    args = parser.parse_args(argv)

    path = os.path.join(args.out, ARTIFACT)
    with recording(RUNTABLE_BENCH_SCHEMA, path) as document, \
            tempfile.TemporaryDirectory(prefix="bench-runtable-") as work:
        document.update(
            workers=WORKERS,
            checkpoint=_checkpoint_cell(os.path.join(work, "ckpt")),
            recovery=_recovery_cell(os.path.join(work, "recovery")),
            chaos=_chaos_cell(os.path.join(work, "chaos")),
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
