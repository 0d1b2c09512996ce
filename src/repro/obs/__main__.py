"""``python -m repro.obs``: record, export, and inspect telemetry.

Subcommands:

* ``record`` -- run the demo serving cell (multi-tenant DRAM-Locker
  serving under a co-located attacker: training-free, seconds-scale,
  deterministic) with telemetry enabled and write all three streams to
  ``--out``: ``metrics.json``, ``audit.jsonl``, ``trace.jsonl``.
* ``export`` -- emit the trace in Chrome ``trace_event`` form (load the
  file in https://ui.perfetto.dev or ``chrome://tracing``) or as
  jsonl.  Reads a previously recorded ``trace.jsonl`` via ``--input``,
  or records the demo cell in-process when omitted.
* ``audit`` -- print the canonical audit stream as jsonl (optionally
  filtered by ``--kind``), or tally events per kind with ``--summary``.
  Reads ``--input audit.jsonl``, or records the demo cell.

Examples::

    python -m repro.obs record --out artifacts/obs
    python -m repro.obs export --format chrome --out trace.json
    python -m repro.obs audit --summary
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..cli import positive_int
from ..engines import EXECUTION_ENGINES
from . import Telemetry, enabled_scope
from .trace import JsonlFormatError, chrome_trace, read_jsonl, write_jsonl

__all__ = ["main"]


def _add_demo_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channels", type=positive_int, default=2)
    parser.add_argument("--slices", type=positive_int, default=8)
    parser.add_argument("--engine", choices=EXECUTION_ENGINES, default="bulk")
    parser.add_argument("--seed", type=int, default=0)


def _record_demo(args: argparse.Namespace) -> Telemetry:
    """One deterministic serving cell under telemetry."""
    from ..serving import ServingConfig, ServingSimulation

    config = ServingConfig(
        tenants=3,
        channels=args.channels,
        slices=args.slices,
        ops_per_slice=4.0,
        colocated=True,
        engine=args.engine,
        seed=args.seed,
        defense="DRAM-Locker",
    )
    with enabled_scope() as telemetry:
        ServingSimulation(config).run()
    return telemetry


def _read_input(path: str, key: str) -> list[dict]:
    """The events of ``--input``, each holding the string ``key`` the
    subcommand reads (a trace span's ``name``, an audit event's
    ``kind``)."""
    events = read_jsonl(path)
    for number, event in enumerate(events, 1):
        if not isinstance(event.get(key), str):
            raise JsonlFormatError(f"{path}: event {number} has no string {key!r}")
    return events


def _audit_events(args: argparse.Namespace) -> list[dict]:
    if getattr(args, "input", None):
        return _read_input(args.input, "kind")
    return _record_demo(args).audit.snapshot()


def _cmd_record(args: argparse.Namespace) -> int:
    telemetry = _record_demo(args)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump(
            telemetry.metrics.snapshot(), handle, indent=2, sort_keys=True
        )
        handle.write("\n")
    audit_path = os.path.join(args.out, "audit.jsonl")
    write_jsonl(telemetry.audit.snapshot(), audit_path)
    trace_path = os.path.join(args.out, "trace.jsonl")
    write_jsonl(telemetry.trace.snapshot(), trace_path)
    print(
        f"recorded {telemetry.metrics.updates} metric update(s), "
        f"{len(telemetry.audit)} audit event(s), "
        f"{len(telemetry.trace.events)} trace event(s) -> {args.out}"
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.input:
        events = _read_input(args.input, "name")
    else:
        events = _record_demo(args).trace.snapshot()
    if args.format == "chrome":
        text = json.dumps(chrome_trace(events), sort_keys=True)
    else:
        text = "\n".join(
            json.dumps(event, sort_keys=True) for event in events
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"{len(events)} trace event(s) -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    events = _audit_events(args)
    if args.kind:
        events = [event for event in events if event["kind"] == args.kind]
    if args.summary:
        counts: dict[str, int] = {}
        for event in events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        for kind, count in sorted(counts.items()):
            print(f"{kind:24s} {count}")
        print(f"{'total':24s} {len(events)}")
        return 0
    for event in events:
        print(json.dumps(event, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record", help="record the demo cell's telemetry to --out"
    )
    _add_demo_args(record)
    record.add_argument("--out", required=True, help="output directory")
    record.set_defaults(func=_cmd_record)

    export = commands.add_parser(
        "export", help="export a trace (Chrome trace_event or jsonl)"
    )
    _add_demo_args(export)
    export.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome"
    )
    export.add_argument(
        "--input", default=None, help="trace.jsonl from a prior record"
    )
    export.add_argument("--out", default=None, help="file (default stdout)")
    export.set_defaults(func=_cmd_export)

    audit = commands.add_parser(
        "audit", help="print the canonical security audit stream"
    )
    _add_demo_args(audit)
    audit.add_argument(
        "--input", default=None, help="audit.jsonl from a prior record"
    )
    audit.add_argument("--kind", default=None, help="filter by event kind")
    audit.add_argument(
        "--summary", action="store_true", help="tally events per kind"
    )
    audit.set_defaults(func=_cmd_audit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, JsonlFormatError) as error:
        # An --input that cannot be read or parsed is a usage error:
        # one line, no traceback, as in repro.serve and runtable.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
