"""``repro.obs``: the unified telemetry core.

One :class:`Telemetry` object bundles the three streams --

* :attr:`Telemetry.metrics` -- the typed counter/gauge/histogram
  registry (:mod:`repro.obs.metrics`),
* :attr:`Telemetry.trace` -- the ring-buffered span recorder with
  Chrome ``trace_event`` export (:mod:`repro.obs.trace`),
* :attr:`Telemetry.audit` -- the ordered security-event log
  (:mod:`repro.obs.audit`)

-- and the module-level :data:`ACTIVE` slot is the **only** thing hot
paths touch.  The zero-overhead-when-disabled contract:

    tel = obs.ACTIVE
    if tel is not None:
        tel.metrics.inc("controller.acts", engine=self.engine)

One module-attribute load and a ``None`` test on the disabled path,
nothing else -- no function call, no dict lookup, no import.
``benchmarks/bench_obs.py`` measures exactly this guard and bounds its
share of the defended-hammer runtime under 1%.

Telemetry is **observationally inert**: instruments only read values
the simulation already computed; they never advance clocks, draw RNG,
or touch float accumulators.  ``tests/test_telemetry_equivalence.py``
pins payloads, RNG states, and SLA fingerprints bit-identical with
telemetry on vs off across all three engines.

``python -m repro.obs`` (see :mod:`repro.obs.__main__`) records a demo
serving cell and exports/prints any of the three streams.
"""

from __future__ import annotations

from contextlib import contextmanager

from .audit import AuditStream
from .metrics import MetricsRegistry
from .trace import TraceRecorder

__all__ = [
    "ACTIVE",
    "AuditStream",
    "MetricsRegistry",
    "Telemetry",
    "TraceRecorder",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "get",
]


class Telemetry:
    """One run's telemetry: metrics + trace + audit."""

    def __init__(self, trace_capacity: int = 65536) -> None:
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder(capacity=trace_capacity)
        self.audit = AuditStream()

    def snapshot(self) -> dict:
        """The deterministic view: metrics plus audit tallies.  Trace
        spans carry wall-clock timestamps and are excluded -- export
        them via :mod:`repro.obs.trace` instead."""
        return {
            "metrics": self.metrics.snapshot(),
            "audit": {
                "events": len(self.audit),
                "kinds": self.audit.kind_counts(),
            },
        }


#: The active telemetry instance, or ``None`` when disabled.  Hot paths
#: read this attribute directly; everything else goes through the
#: helpers below.
ACTIVE: Telemetry | None = None


def get() -> Telemetry | None:
    """The active telemetry instance, or ``None``."""
    return ACTIVE


def enabled() -> bool:
    return ACTIVE is not None


def enable(telemetry: Telemetry | None = None) -> Telemetry:
    """Install (and return) the active telemetry instance."""
    global ACTIVE
    ACTIVE = telemetry if telemetry is not None else Telemetry()
    return ACTIVE


def disable() -> Telemetry | None:
    """Clear the active instance; returns what was installed."""
    global ACTIVE
    telemetry, ACTIVE = ACTIVE, None
    return telemetry


@contextmanager
def enabled_scope(telemetry: Telemetry | None = None):
    """Scoped enable/restore -- the per-cell harness discipline."""
    global ACTIVE
    saved = ACTIVE
    ACTIVE = telemetry if telemetry is not None else Telemetry()
    try:
        yield ACTIVE
    finally:
        ACTIVE = saved
