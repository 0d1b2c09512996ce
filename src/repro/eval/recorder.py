"""One skeleton for the ``benchmarks/bench_*.py`` artifact recorders.

Each recorder runs its cells, checks the contract the artifact stands
for (engines agree, telemetry is inert, DRAM-Locker keeps zero victim
flips, ...) and writes one ``BENCH_<x>.json`` that the nightly gate
(:data:`repro.eval.regression.RULES`) holds against a committed
baseline.  A broken contract must never reach that gate as a recorded
number, so every recorder builds its document inside :func:`recording`
and aborts with :func:`refuse`: a refusal (or any other exception)
leaves no artifact behind.
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

from .harness import Scenario, ScenarioResult, run_scenario
from .regression import host_meta, save_artifact

__all__ = ["best_of", "engine_check", "recording", "refuse", "sla_fingerprint"]


def refuse(why: str):
    """Abort the recorder without writing its artifact."""
    raise SystemExit(f"{why}; refusing to record")


@contextmanager
def recording(schema: str, path: str) -> Iterator[dict]:
    """Yield the artifact document, stamped with ``schema`` and
    :func:`~repro.eval.regression.host_meta`.

    A clean exit adds ``timing.total_s`` and publishes the document at
    ``path``; an exception -- a :func:`refuse` included -- propagates
    and writes nothing.
    """
    started = time.perf_counter()
    document = {"schema": schema, "meta": host_meta()}
    yield document
    document.setdefault("timing", {})["total_s"] = round(
        time.perf_counter() - started, 3
    )
    save_artifact(path, document)
    print(f"artifact: {path}")


def best_of(
    scenario: Scenario, repeats: int = 1
) -> tuple[float, ScenarioResult]:
    """The fastest wall time of ``repeats`` runs of ``scenario`` and
    that run's result.  Refuses when a run fails or the payload changes
    between repeats (cells are deterministic, so repeats double as a
    reproducibility check)."""
    fastest = None
    for _ in range(repeats):
        result = run_scenario(scenario)
        if not result.ok:
            refuse(f"{scenario.name} failed:\n{result.error.rstrip()}")
        if fastest is not None and result.payload != fastest.payload:
            refuse(f"{scenario.name}: nondeterministic payload across repeats")
        if fastest is None or result.wall_clock_s < fastest.wall_clock_s:
            fastest = result
    return fastest.wall_clock_s, fastest


def sla_fingerprint(payload: dict) -> dict:
    """The deterministic SLA stats of a serving payload that the nightly
    gate pins exactly."""
    aggregate = payload["sla"]["aggregate"]
    fingerprint = {
        "requests": aggregate["requests"],
        "issued": aggregate["issued"],
        "blocked": aggregate["blocked"],
    }
    tenant0 = payload["sla"].get("tenants", {}).get("tenant-0", {})
    latency = tenant0.get("latency_ns")
    if latency:
        fingerprint["tenant0_latency_ns"] = latency
    return fingerprint


def _engine_neutral(payload: dict) -> dict:
    """The payload with the engine knob removed -- what the engine
    equivalence contract (docs/ARCHITECTURE.md) requires to be
    bit-identical across engines.  Serving cells carry the knob in
    ``config``, bake-off cells in ``serving_phase.config``."""
    neutral = copy.deepcopy(payload)
    for section in (neutral, neutral.get("serving_phase", {})):
        section.get("config", {}).pop("engine", None)
    return neutral


def engine_check(scenario: Scenario, result: ScenarioResult) -> dict:
    """Re-run a serving cell on the other engine (``bulk`` <->
    ``events``) and refuse unless its payload is bit-identical to
    ``result``'s, modulo the engine knob itself; records both walls."""
    params = dict(scenario.params)
    engine = params.get("engine", "bulk")
    other = "events" if engine == "bulk" else "bulk"
    params["engine"] = other
    other_s, other_result = best_of(
        replace(scenario, params=tuple(sorted(params.items())))
    )
    if _engine_neutral(other_result.payload) != _engine_neutral(result.payload):
        refuse(
            f"{scenario.name}: {other}-engine payload diverged from the "
            f"{engine} run"
        )
    walls = {engine: result.wall_clock_s, other: other_s}
    return {
        "identical": True,
        "bulk_wall_s": round(walls["bulk"], 4),
        "events_wall_s": round(walls["events"], 4),
    }
