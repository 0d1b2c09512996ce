"""Checkpoint-resumable factorial run-tables over :func:`run_matrix`.

The fleet layer the bake-off sweeps need: a :class:`RunTableSpec` names
a factorial experiment (runner x axes x replicates), expands it into a
deterministic cell list, and executes it through the supervised matrix
with three fleet properties layered on top:

* **Checkpointing** -- every finished cell is appended to a crash-safe
  jsonl journal (one fsync'd line per cell) the moment its result
  exists.  ``resume=True`` skips journaled cells, and because the
  merged artifact is rebuilt from journal records in deterministic
  cell order, a table killed with SIGKILL mid-sweep and resumed emits
  a ``results`` section bit-identical to an uninterrupted run.
* **Replicate seeds** -- every cell's name encodes its factor levels
  and replicate index, and its seed is ``derive_seed(name, base_seed)``
  (cells pass ``seed=None`` to the harness), so replicates are
  independent and no cell's seed depends on the table around it.
* **Sharding** -- ``shard=(i, n)`` deterministically assigns cells
  ``i, i+n, i+2n, ...`` of the full ordering to this process; shards
  journal into shard-suffixed files, so machines can sweep disjoint
  slices of one table concurrently and artifacts merge trivially.

CLI::

    python -m repro.eval runtable --set demo --out artifacts
    python -m repro.eval runtable --set chaos --out artifacts --resume
    python -m repro.eval runtable --set demo --out artifacts --shard 1/4
    python -m repro.eval runtable summarize artifacts/RUNTABLE_demo.json
"""

from __future__ import annotations

import argparse
import fnmatch
import itertools
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field, replace

from .. import obs
from .faults import FaultPlan, FaultSpec
from .fleet import SupervisorConfig
from .harness import (
    Scale,
    Scenario,
    ScenarioResult,
    artifact_tag,
    run_matrix,
    scenario_result_payload,
)
from .regression import (
    ArtifactError,
    _json_fallback,
    host_meta,
    load_artifact,
    save_artifact,
)

__all__ = [
    "RUNTABLE_SCHEMA",
    "RunTableSpec",
    "CheckpointJournal",
    "JournalFormatError",
    "RunTableResult",
    "run_table",
    "summarize_groups",
    "RUNTABLE_SETS",
    "main",
]

RUNTABLE_SCHEMA = "dram-locker-runtable/1"


@dataclass(frozen=True)
class RunTableSpec:
    """One factorial sweep: runner x axes x replicates.

    Attributes:
        name: Table name; prefixes every cell name and the artifact.
        runner: Key into :data:`repro.eval.runners.SCENARIO_RUNNERS`.
        axes: ``(factor, (level, ...))`` pairs.  Cells are the full
            Cartesian product; factor order inside a cell name is
            sorted, so the cell list is independent of declaration
            order.
        replicates: Seeds per factor combination; each replicate is a
            distinct cell named ``.../r<k>`` with its own derived seed.
        scale: Fidelity knobs forwarded to every cell.
        base_params: Runner params shared by every cell (overridden by
            axis levels of the same name).
        overrides: ``(fnmatch pattern, ((param, value), ...))`` pairs:
            extra params merged into cells whose *name* matches --
            how a chaos table gives one cell a channel fault.
        timeout_s / retries: Per-cell supervision policy (see
            :class:`~repro.eval.fleet.SupervisorConfig`).
    """

    name: str
    runner: str
    axes: tuple[tuple[str, tuple], ...] = ()
    replicates: int = 1
    scale: Scale = field(default_factory=Scale.quick)
    base_params: tuple[tuple[str, object], ...] = ()
    overrides: tuple[tuple[str, tuple[tuple[str, object], ...]], ...] = ()
    timeout_s: float | None = None
    retries: int = 2

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        factors = [factor for factor, _levels in self.axes]
        if len(set(factors)) != len(factors):
            raise ValueError(f"duplicate factors in axes: {factors}")
        for factor, levels in self.axes:
            if not levels:
                raise ValueError(f"axis {factor!r} has no levels")

    def cells(self) -> list[Scenario]:
        """The deterministic full cell list (every shard sees the same
        ordering; assignment slices it)."""
        axes = sorted(self.axes)
        level_sets = [levels for _factor, levels in axes]
        cells = []
        for combo in itertools.product(*level_sets):
            factor_params = tuple(
                (factor, level)
                for (factor, _levels), level in zip(axes, combo)
            )
            stem = "/".join(
                f"{factor}={level}" for factor, level in factor_params
            )
            for replicate in range(self.replicates):
                name = (
                    f"{self.name}/{stem}/r{replicate}"
                    if stem
                    else f"{self.name}/r{replicate}"
                )
                params = dict(self.base_params)
                params.update(factor_params)
                for pattern, extra in self.overrides:
                    if fnmatch.fnmatchcase(name, pattern):
                        params.update(extra)
                cells.append(
                    Scenario(
                        name,
                        self.runner,
                        self.scale,
                        seed=None,  # derive_seed(name, base_seed)
                        params=tuple(sorted(params.items())),
                    )
                )
        return cells


class JournalFormatError(ValueError):
    """A checkpoint journal line before the final one that is not a
    record: undecodable bytes, bad JSON, not a JSON object with a
    string ``cell`` and a ``result``, or a missing or mismatched CRC."""


#: The key each journal line carries its record's CRC-32 under.
CRC_KEY = "crc32"


def _crc32(record: dict) -> int:
    """CRC-32 of a record's canonical JSON (sorted keys)."""
    return zlib.crc32(json.dumps(record, sort_keys=True).encode("utf-8"))


class CheckpointJournal:
    """Append-only jsonl checkpoint: one fsync'd record per cell.

    Records are ``{"cell", "runner", "seed", "wall_clock_s",
    "result"}`` with ``result`` in the artifact's results-section form
    (:func:`~repro.eval.harness.scenario_result_payload`), so merging
    journal records reproduces an uninterrupted artifact bit-for-bit.
    Each line also carries the CRC-32 of its record's canonical JSON
    (under :data:`CRC_KEY`), so a flipped byte inside a value cannot
    load as a different record.  A torn final line (the process died
    mid-write) is tolerated on load; a bad line anywhere else is
    corruption and raises :class:`JournalFormatError`.
    """

    def __init__(self, path: str):
        self.path = path

    def load(self, repair: bool = False) -> dict[str, dict]:
        """Completed-cell records by cell name (empty if no journal).

        :meth:`append` writes a record and its newline in one write, so
        an unterminated final line is a record torn by a mid-write
        crash: it is dropped, and ``repair=True`` truncates it off the
        file -- required before appending to a journal left by a killed
        run, or the torn fragment would end up mid-file.
        """
        if not os.path.exists(self.path):
            return {}
        records: dict[str, dict] = {}
        with open(self.path, "rb") as handle:
            data = handle.read()
        *lines, torn = data.split(b"\n")
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                record = self._verified(line, lineno)
                records[record["cell"]] = record
        if torn and repair:
            with open(self.path, "r+b") as out:
                out.truncate(len(data) - len(torn))
        return records

    def _verified(self, line: bytes, lineno: int) -> dict:
        """The record one whole line holds, its CRC checked and removed."""
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # undecodable bytes or bad JSON
            record = None
        problem = "bad record"
        if (
            isinstance(record, dict)
            and isinstance(record.get("cell"), str)
            and "result" in record
        ):
            crc = record.pop(CRC_KEY, None)
            if crc is not None and crc == _crc32(record):
                return record
            problem = "missing CRC" if crc is None else "CRC mismatch"
        raise JournalFormatError(
            f"corrupt journal {self.path}: {problem} at line {lineno} "
            f"(only the final line may be torn)"
        )

    def append(self, record: dict) -> None:
        """Durably append one record and its CRC: single write, flush,
        fsync.  The CRC covers the record's plain JSON form (numpy
        scalars as numbers, tuples as lists), which is what
        :meth:`load` reads back and checks."""
        plain = json.loads(json.dumps(record, default=_json_fallback))
        line = (
            json.dumps({**plain, CRC_KEY: _crc32(plain)}, sort_keys=True)
            + "\n"
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("fleet.journal_fsyncs")


@dataclass
class RunTableResult:
    """One (shard of a) run-table execution."""

    spec: RunTableSpec
    artifact_path: str
    journal_path: str
    cells: int
    executed: int
    resumed: int
    quarantined: int
    errors: int
    wall_clock_s: float
    artifact: dict


def _shard_of(cells: list[Scenario], index: int, count: int) -> list[Scenario]:
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"bad shard {index}/{count}")
    return cells[index::count]


def shard_arg(text: str) -> tuple[int, int]:
    """``--shard i/n`` as ``(i, n)``, with ``n >= 1`` and ``0 <= i < n``:
    the CLI's argument type, so a bad value is a usage error."""
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must look like i/n, got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"needs n >= 1 and 0 <= i < n, got {text!r}"
        )
    return index, count


def run_table(
    spec: RunTableSpec,
    out_dir: str,
    *,
    base_seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    shard: tuple[int, int] = (0, 1),
    tag: str | None = None,
    faults: FaultPlan | None = None,
    profile_dir: str | None = None,
) -> RunTableResult:
    """Execute (one shard of) a run-table with checkpointing.

    Fresh runs truncate any stale journal; ``resume=True`` loads it
    and executes only the missing cells.  Either way the merged
    artifact is rebuilt from the journal in deterministic cell order,
    which is what makes a killed-and-resumed table bit-identical
    (``results`` section) to an uninterrupted one.  Quarantined and
    errored cells are checkpointed like any other -- a resume does not
    retry them (rerun without ``--resume`` for that).

    ``profile_dir`` forwards to :func:`run_matrix`: every executed
    cell runs under cProfile and dumps ``profile_<name>.pstats`` there
    (resumed cells are skipped, so a resume profiles only what ran).
    """
    started = time.perf_counter()
    shard_index, shard_count = shard
    cells = spec.cells()
    my_cells = _shard_of(cells, shard_index, shard_count)
    tag = artifact_tag(tag or spec.name)
    suffix = f".shard{shard_index}of{shard_count}" if shard_count > 1 else ""
    os.makedirs(out_dir, exist_ok=True)
    journal = CheckpointJournal(
        os.path.join(out_dir, f"{tag}{suffix}.journal.jsonl")
    )
    if resume:
        completed = journal.load(repair=True)
    else:
        completed = {}
        if os.path.exists(journal.path):
            os.unlink(journal.path)
    todo = [cell for cell in my_cells if cell.name not in completed]

    def checkpoint(result: ScenarioResult) -> None:
        journal.append(
            {
                "cell": result.name,
                "runner": result.runner,
                "seed": result.seed,
                "wall_clock_s": result.wall_clock_s,
                "result": scenario_result_payload(result),
            }
        )

    matrix = None
    if todo:
        if faults is not None and workers == 1:
            raise ValueError(
                "worker fault injection needs workers >= 2 (a crash fault "
                "on the serial path would kill the table itself)"
            )
        matrix = run_matrix(
            todo,
            workers=workers,
            base_seed=base_seed,
            tag="runtable-shard",
            supervise=SupervisorConfig(
                timeout_s=spec.timeout_s, retries=spec.retries
            ),
            faults=faults,
            on_result=checkpoint,
            profile_dir=profile_dir,
        )
    records = journal.load()
    missing = [cell.name for cell in my_cells if cell.name not in records]
    if missing:
        raise RuntimeError(
            f"run-table finished with unjournaled cells: {missing}"
        )
    results = {cell.name: records[cell.name]["result"] for cell in my_cells}
    groups: dict[str, dict[str, int]] = {}
    for cell in my_cells:
        group_name = cell.name.rsplit("/r", 1)[0]
        group = groups.setdefault(group_name, {"replicates": 0, "errors": 0})
        group["replicates"] += 1
        payload = results[cell.name]
        if isinstance(payload, dict) and "error" in payload:
            group["errors"] += 1
    quarantined = sum(
        1
        for payload in results.values()
        if isinstance(payload, dict) and payload.get("quarantined")
    )
    errors = sum(
        1
        for payload in results.values()
        if isinstance(payload, dict) and "error" in payload
    )
    artifact = {
        "schema": RUNTABLE_SCHEMA,
        "meta": host_meta(),
        "table": spec.name,
        "tag": tag,
        "base_seed": base_seed,
        "axes": {factor: list(levels) for factor, levels in spec.axes},
        "replicates": spec.replicates,
        "shard": {
            "index": shard_index,
            "count": shard_count,
            "cells": len(my_cells),
            "total_cells": len(cells),
        },
        "cells": [
            {
                "name": cell.name,
                "runner": cell.runner,
                "seed": cell.resolved_seed(base_seed),
                "params": cell.kwargs(),
            }
            for cell in my_cells
        ],
        "results": results,
        "summary": {"groups": groups, "quarantined": quarantined,
                    "errors": errors},
        "timing": {
            "total_s": time.perf_counter() - started,
            "executed": len(todo),
            "resumed": len(my_cells) - len(todo),
            "workers": matrix.workers if matrix is not None else 0,
            **(
                {"attempts": matrix.attempt_log}
                if matrix is not None and matrix.attempt_log
                else {}
            ),
        },
    }
    artifact_path = save_artifact(
        os.path.join(out_dir, f"RUNTABLE_{tag}{suffix}.json"), artifact
    )
    return RunTableResult(
        spec=spec,
        artifact_path=artifact_path,
        journal_path=journal.path,
        cells=len(my_cells),
        executed=len(todo),
        resumed=len(my_cells) - len(todo),
        quarantined=quarantined,
        errors=errors,
        wall_clock_s=time.perf_counter() - started,
        artifact=artifact,
    )


# ----------------------------------------------------------------------
# Replicate aggregation
# ----------------------------------------------------------------------
#: Two-sided 95 % Student-t critical values by degrees of freedom;
#: beyond the table the normal approximation is within half a percent.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    12: 2.179, 15: 2.131, 20: 2.086, 30: 2.042,
}


def _t95(df: int) -> float:
    if df in _T95:
        return _T95[df]
    for bound in sorted(_T95):
        if df < bound:
            return _T95[bound]
    return 1.960


def _flatten_metrics(payload: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a result payload by dotted path.  Booleans and
    non-dict containers are not metrics and are skipped."""
    metrics: dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            metrics[path] = float(value)
        elif isinstance(value, dict):
            metrics.update(_flatten_metrics(value, path))
    return metrics


def summarize_groups(
    artifact: dict, metrics: list[str] | None = None
) -> dict[str, dict[str, dict]]:
    """Per-group mean +/- 95 % confidence interval over replicates.

    Cells sharing a factor combination (the name minus its ``/r<k>``
    replicate suffix) form a group; every numeric leaf of their result
    payloads (dotted path) is aggregated over the replicate seeds to
    ``{"n", "mean", "ci95"}``, with the half-width from the Student-t
    distribution (``ci95`` is ``None`` for a single replicate, where no
    spread estimate exists).  ``metrics`` optionally restricts the
    paths by :func:`fnmatch.fnmatchcase` patterns.  Errored cells are
    excluded (their group keeps its surviving replicates).
    """
    groups: dict[str, list[dict[str, float]]] = {}
    for name, payload in artifact.get("results", {}).items():
        if not isinstance(payload, dict) or "error" in payload:
            continue
        group = name.rsplit("/r", 1)[0]
        groups.setdefault(group, []).append(_flatten_metrics(payload))
    summary: dict[str, dict[str, dict]] = {}
    for group, replicates in sorted(groups.items()):
        paths: set[str] = set()
        for flattened in replicates:
            paths.update(flattened)
        entry: dict[str, dict] = {}
        for path in sorted(paths):
            if metrics is not None and not any(
                fnmatch.fnmatchcase(path, pattern) for pattern in metrics
            ):
                continue
            values = [
                flattened[path]
                for flattened in replicates
                if path in flattened
            ]
            n = len(values)
            mean = sum(values) / n
            ci95 = None
            if n > 1:
                variance = sum((v - mean) ** 2 for v in values) / (n - 1)
                ci95 = _t95(n - 1) * math.sqrt(variance / n)
            entry[path] = {"n": n, "mean": mean, "ci95": ci95}
        summary[group] = entry
    return summary


def _merge_artifacts(paths: list[str]) -> dict:
    """Concatenate the results sections of (shard) artifacts.  A cell
    journaled by two files must agree, or the merge is refused."""
    merged: dict = {"results": {}}
    for path in paths:
        artifact = load_artifact(path)
        for name, payload in artifact.get("results", {}).items():
            known = merged["results"].get(name)
            if known is not None and known != payload:
                raise ArtifactError(
                    f"cell {name!r} differs between artifacts; refusing "
                    "to merge"
                )
            merged["results"][name] = payload
    return merged


def summarize_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval runtable summarize",
        description="Per-cell mean +/- 95%-CI over replicate seeds.",
    )
    parser.add_argument(
        "artifacts", nargs="+", help="RUNTABLE_*.json artifact(s) / shards"
    )
    parser.add_argument(
        "--metrics", nargs="+", default=None,
        help="fnmatch patterns over dotted metric paths "
             "(e.g. 'sla.aggregate.*')",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the replicate groups and exit (missing artifacts "
             "are reported, not errors)",
    )
    args = parser.parse_args(argv)
    try:
        if args.list:
            for path in args.artifacts:
                if not os.path.exists(path):
                    print(f"{path}: not generated yet")
                    continue
                summary = summarize_groups(_merge_artifacts([path]))
                for group in summary:
                    print(f"{path}: {group}")
            return 0
        merged = _merge_artifacts(args.artifacts)
    except (ArtifactError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = summarize_groups(merged, metrics=args.metrics)
    for group, entry in summary.items():
        for path, stats in entry.items():
            spread = (
                "(single replicate)"
                if stats["ci95"] is None
                else f"+/- {stats['ci95']:.6g}"
            )
            print(
                f"{group}  {path}  n={stats['n']}  "
                f"{stats['mean']:.6g} {spread}"
            )
    return 0


# ----------------------------------------------------------------------
# Canned tables
# ----------------------------------------------------------------------
def _demo_table() -> tuple[RunTableSpec, FaultPlan | None]:
    """A small defense x channels serving sweep with replicates --
    the shape of the bake-off tables, sized for CI."""
    spec = RunTableSpec(
        name="demo",
        runner="serving",
        axes=(
            ("defense", ("None", "DRAM-Locker")),
            ("channels", (1, 2)),
        ),
        replicates=2,
        base_params=(
            ("tenants", 3),
            ("slices", 6),
            ("ops_per_slice", 4.0),
        ),
    )
    return spec, None


def _chaos_table() -> tuple[RunTableSpec, FaultPlan | None]:
    """The fault-injection acceptance table: a crash-once cell (must
    recover via retry), a crash-always cell (must quarantine), a clean
    cell, and a channel-fault serving cell (must conserve offered ==
    served + shed with zero victim flips under DRAM-Locker)."""
    spec = RunTableSpec(
        name="chaos",
        runner="serving",
        axes=(
            ("defense", ("None", "DRAM-Locker")),
            ("channels", (1, 2)),
        ),
        replicates=1,
        base_params=(
            ("tenants", 3),
            ("slices", 6),
            ("ops_per_slice", 4.0),
        ),
        overrides=(
            (
                "chaos/channels=2/defense=DRAM-Locker/r0",
                (("fault_channel", 1), ("fault_slice", 3)),
            ),
        ),
        timeout_s=120.0,
        retries=2,
    )
    faults = FaultPlan(
        cells=(
            (
                "chaos/channels=1/defense=None/r0",
                FaultSpec("crash", until_attempt=1),
            ),
            (
                "chaos/channels=2/defense=None/r0",
                FaultSpec("crash", until_attempt=99),
            ),
        )
    )
    return spec, faults


#: Canned tables by name: factory -> (spec, fault plan or None).
RUNTABLE_SETS = {
    "demo": _demo_table,
    "chaos": _chaos_table,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "summarize":
        return summarize_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval runtable",
        description="Checkpoint-resumable factorial run-tables.",
    )
    parser.add_argument(
        "--set",
        dest="table",
        default="demo",
        choices=sorted(RUNTABLE_SETS),
        help="canned run-table to execute",
    )
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already in the checkpoint journal",
    )
    parser.add_argument(
        "--shard",
        type=shard_arg,
        default=(0, 1),
        help="deterministic cell slice to run, as i/n (default 0/1)",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--tag", type=artifact_tag, default=None, help="artifact/journal tag"
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="override the table's per-cell timeout (seconds)",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="override the table's per-cell retry budget",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="dump per-cell cProfile stats (profile_<name>.pstats) "
             "into the output directory",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the cell list and exit"
    )
    args = parser.parse_args(argv)
    shard_index, shard_count = args.shard
    spec, faults = RUNTABLE_SETS[args.table]()
    if args.timeout is not None:
        spec = replace(spec, timeout_s=args.timeout)
    if args.retries is not None:
        spec = replace(spec, retries=args.retries)
    if args.list:
        for cell in _shard_of(spec.cells(), shard_index, shard_count):
            print(f"{cell.name}  seed={cell.resolved_seed(args.base_seed)}")
        return 0
    try:
        result = run_table(
            spec,
            args.out,
            base_seed=args.base_seed,
            workers=args.workers,
            resume=args.resume,
            shard=(shard_index, shard_count),
            tag=args.tag,
            faults=faults,
            profile_dir=args.out if args.profile else None,
        )
    except (JournalFormatError, OSError) as error:
        # A journal or output path that cannot be read or parsed is a
        # usage error, like a bad --shard: one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"run-table {spec.name}: {result.cells} cell(s) "
        f"({result.executed} executed, {result.resumed} resumed, "
        f"{result.quarantined} quarantined, {result.errors} error(s)) "
        f"in {result.wall_clock_s:.1f}s -> {result.artifact_path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
