"""``python -m repro.serve``: record, replay, and live-serve traces.

The serving counterpart of ``python -m repro.eval``: a thin CLI over
the public facade (:func:`repro.serving.serve` /
:func:`repro.serving.record_serving_trace`), so every flag maps onto a
:class:`~repro.serving.engine.ServingConfig` field and nothing here
owns simulation logic.

Subcommands:

* ``record`` -- run a workload generator and write its trace
  (``.npz`` or ``.jsonl``, picked by the ``--out`` suffix); the trace
  header embeds the full serving config, so the file is
  self-contained.
* ``replay`` -- deterministic synchronous replay of a trace, with
  optional admission control; ``--verify`` additionally runs the
  closed-loop simulation of the embedded config and exits 1 unless
  the two payloads are bit-identical outside the ``"live"`` section
  (the replay-equivalence contract).
* ``live`` -- wall-clock-paced open-loop serving through the threaded
  :class:`~repro.serving.live.LiveServer` at ``--speedup`` x the
  recorded arrival rate.

Exit codes (pinned by ``tests/test_serving_live.py`` and
``tests/test_cli_and_examples.py``): 0 success, 1 verification
mismatch, 2 usage error (argparse; or, as one stderr line, a path that
cannot be opened, a trace whose bytes do not parse or that embeds no
serving config, or an ``--out`` suffix no encoding has --
:class:`~repro.serving.trace.TraceFormatError`), 3 runtime serving
failure (:class:`~repro.serving.live.LiveServingError` -- worker death,
queue wedge).  ``--log-level`` turns on structured jsonl
logging to stderr (:mod:`repro.obs.logging`); it never changes the
stdout payload or the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .cli import positive_int
from .defenses.builders import DEFENDED_HAMMER_DEFENSES
from .engines import EXECUTION_ENGINES
from .obs.logging import LOG_LEVELS, configure_logging
from .serving import (
    AdmissionConfig,
    LiveServingError,
    ServingConfig,
    ServingResult,
    ServingSimulation,
    Trace,
    TraceFormatError,
    embedded_config,
    record_serving_trace,
    replay_neutral,
    serve,
    trace_suffix,
)

__all__ = ["main"]

logger = logging.getLogger("repro.serve")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """The ``ServingConfig`` surface shared by the subcommands."""
    parser.add_argument("--tenants", type=positive_int, default=4)
    parser.add_argument("--channels", type=positive_int, default=1)
    parser.add_argument("--slices", type=positive_int, default=24)
    parser.add_argument("--ops-per-slice", type=float, default=6.0)
    parser.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson"
    )
    parser.add_argument("--policy", choices=("row", "block"), default="row")
    parser.add_argument(
        "--defense", choices=DEFENDED_HAMMER_DEFENSES, default="DRAM-Locker"
    )
    parser.add_argument("--engine", choices=EXECUTION_ENGINES, default="bulk")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--solo", action="store_true",
        help="disable the co-located attacker",
    )


def _add_admission_args(parser: argparse.ArgumentParser) -> None:
    """Admission-control flags (all optional; none = admit everything)."""
    parser.add_argument(
        "--admission-rate", type=float, default=None,
        help="token-bucket refill, ops per trace-second per tenant",
    )
    parser.add_argument("--admission-burst", type=float, default=8.0)
    parser.add_argument(
        "--p99-target-ns", type=float, default=None,
        help="sojourn-p99 target for pressure shedding",
    )
    parser.add_argument("--min-samples", type=int, default=32)
    parser.add_argument("--shed-fraction", type=float, default=0.5)
    parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded outstanding ops per channel (live mode)",
    )


def _config(args: argparse.Namespace) -> ServingConfig:
    """A ``ServingConfig`` from the shared CLI flags."""
    return ServingConfig(
        tenants=args.tenants,
        channels=args.channels,
        slices=args.slices,
        ops_per_slice=args.ops_per_slice,
        arrival=args.arrival,
        policy=args.policy,
        colocated=not args.solo,
        engine=args.engine,
        seed=args.seed,
        defense=args.defense,
    )


def _admission(args: argparse.Namespace) -> AdmissionConfig | None:
    """An ``AdmissionConfig`` from the CLI flags, or ``None`` when no
    mechanism was requested."""
    if args.admission_rate is None and args.p99_target_ns is None:
        return None
    return AdmissionConfig(
        rate=args.admission_rate,
        burst=args.admission_burst,
        p99_target_ns=args.p99_target_ns,
        min_samples=args.min_samples,
        shed_fraction=args.shed_fraction,
        queue_depth=args.queue_depth,
    )


def _summarize(result: ServingResult, as_json: bool) -> None:
    """Print one run's outcome (compact lines, or the full payload)."""
    if as_json:
        print(json.dumps(result.payload, indent=2, sort_keys=True))
        return
    aggregate = result.sla["aggregate"]
    print(
        f"requests={aggregate['requests']} issued={aggregate['issued']} "
        f"blocked={aggregate['blocked']} "
        f"makespan_ns={result.makespan_ns:.0f}"
    )
    tenant = result.tenant()
    if "latency_ns" in tenant:
        print(f"tenant-0 service p99_ns={tenant['latency_ns']['p99']:.2f}")
    sojourn = result.sojourn_p99_ns()
    if sojourn is not None:
        print(f"tenant-0 sojourn p99_ns={sojourn:.2f}")
    live = result.live
    if live is not None:
        pacing = live["pacing"]
        print(
            f"offered={pacing['offered']} served={pacing['served']} "
            f"shed={pacing['shed']}"
        )
    print(f"victim_flip_events={result.victim_flip_events}")


def _cmd_record(args: argparse.Namespace) -> int:
    """The ``record`` subcommand."""
    # The suffix picks the encoding; a bad one fails before the workload
    # is generated and calibrated.
    trace_suffix(args.out)
    config = _config(args)
    trace = record_serving_trace(
        config,
        slice_duration_s=args.slice_duration_s,
        utilization=args.utilization,
    )
    path = trace.save(args.out)
    logger.info(
        "recorded ops=%d slices=%d out=%s", len(trace), trace.slices, path
    )
    print(
        f"recorded {len(trace)} ops over {trace.slices} slices "
        f"({trace.slice_duration_s:.3e}s each) -> {path}"
    )
    return 0


def _load(path: str) -> tuple[Trace, ServingConfig]:
    """A trace file and the serving config its header embeds."""
    trace = Trace.load(path)
    return trace, embedded_config(trace, source=path)


def _cmd_replay(args: argparse.Namespace) -> int:
    """The ``replay`` subcommand (optionally verifying equivalence)."""
    trace, config = _load(args.trace)
    admission = _admission(args)
    if args.verify and admission is not None:
        print("error: --verify compares the pure replay; drop the "
              "admission flags")
        return 1
    config = dataclasses.replace(
        config, admission=admission, trace=None, speedup=0.0
    )
    result = serve(config, trace=trace)
    logger.debug(
        "replayed trace=%s engine=%s makespan_ns=%.0f",
        args.trace, config.engine, result.makespan_ns,
    )
    _summarize(result, args.json)
    if args.verify:
        closed = ServingSimulation(config).run()
        if replay_neutral(result.payload) != replay_neutral(closed):
            logger.error("replay diverged from the closed loop")
            print("VERIFY FAILED: replay diverges from the closed loop")
            return 1
        print("verify: replay bit-identical to the closed loop")
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    """The ``live`` subcommand (threaded wall-clock pacing)."""
    trace, config = _load(args.trace)
    config = dataclasses.replace(
        config,
        admission=_admission(args),
        trace=None,
        speedup=args.speedup,
    )
    result = serve(config, trace=trace)
    _summarize(result, args.json)
    pacing = result.live["pacing"]
    logger.info(
        "live offered=%d served=%d shed=%d",
        pacing["offered"], pacing["served"], pacing["shed"],
    )
    if pacing["offered"] != pacing["served"] + pacing["shed"]:
        print("error: conservation violated (offered != served + shed)")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="emit structured jsonl logs at this level on stderr "
             "(default: logging stays off)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record", help="record a workload trace to .npz/.jsonl"
    )
    _add_config_args(record)
    record.add_argument("--out", required=True, help="trace path")
    record.add_argument(
        "--slice-duration-s", type=float, default=None,
        help="trace-clock seconds per slice (default: calibrated)",
    )
    record.add_argument(
        "--utilization", type=float, default=0.7,
        help="calibration target when --slice-duration-s is omitted",
    )
    record.set_defaults(func=_cmd_record)

    replay = commands.add_parser(
        "replay", help="deterministic synchronous replay of a trace"
    )
    replay.add_argument("trace", help="trace path (.npz or .jsonl)")
    replay.add_argument(
        "--verify", action="store_true",
        help="also run the closed loop and require bit-identity",
    )
    replay.add_argument("--json", action="store_true")
    _add_admission_args(replay)
    replay.set_defaults(func=_cmd_replay)

    live = commands.add_parser(
        "live", help="wall-clock-paced open-loop serving"
    )
    live.add_argument("trace", help="trace path (.npz or .jsonl)")
    live.add_argument(
        "--speedup", type=float, required=True,
        help="x the recorded arrival rate (must be > 0)",
    )
    live.add_argument("--json", action="store_true")
    _add_admission_args(live)
    live.set_defaults(func=_cmd_live)

    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    logger.info("command=%s", args.command)
    try:
        code = args.func(args)
    except (OSError, TraceFormatError) as error:
        # A path that cannot be opened or a trace that does not parse
        # is a usage error, distinct from exit 1 (the replay diverged).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except LiveServingError as error:
        # Distinct from exit 1 (verification mismatch): the serving
        # machinery itself failed -- worker death, wedged queue.
        logger.error("serving failure: %s", error)
        print(f"serving error: {error}")
        return 3
    logger.info("command=%s exit=%d", args.command, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
