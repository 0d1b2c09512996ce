"""SLA accounting for the multi-tenant serving subsystem.

Three pieces:

* :class:`StreamingPercentiles` -- exact streaming latency percentiles
  (p50/p99/p99.9/...).  Service latencies in this simulator are heavily
  quantized (a handful of distinct DDR timing sums), so a counting
  histogram over exact values is both O(distinct values) memory *and*
  exact: :meth:`percentile` reproduces ``numpy.percentile`` on the
  materialized sample stream bit-for-bit, including numpy's linear
  interpolation.  Bulk chunks feed it as ``(value, count)`` pairs, so a
  million-activation hammer run costs one histogram update.
* :class:`TenantSink` -- a controller result sink (the
  ``MemoryController.execute_stream`` protocol) that folds a tenant's
  request stream into :class:`RunSummary`-style totals plus the
  percentile tracker, with no per-request allocation on bulk chunks.
* :class:`SLAAccountant` -- per-tenant books (requests, blocked,
  latency percentiles, throughput against the simulated clock,
  exposure windows from the per-channel lockers) reduced to one
  serializable report.

The live serving frontend (:mod:`repro.serving.live`) adds two more
streams to the books, both absent from closed-loop runs so the
replay-equivalence contract's payload comparison stays byte-identical:

* **shed counts** -- per-tenant, per-reason tallies of admission-control
  drops (:meth:`SLAAccountant.observe_shed`); they appear in the tenant
  report only when nonzero.
* **sojourn times** -- arrival-to-completion latency against the trace
  clock (:meth:`SLAAccountant.observe_sojourn`): unlike the service
  latencies above (which are load-independent DDR timing sums), sojourn
  includes the backlog wait when a channel's clock runs ahead of the
  arrivals, so it is the load-*dependent* tail the admission
  controller defends.  Sojourn books are reported through
  :meth:`SLAAccountant.live_report`, never the closed-loop report.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from .. import obs
from ..controller.controller import SummarySink
from ..controller.request import RunSummary, Status

__all__ = [
    "StreamingPercentiles",
    "TenantSink",
    "SLAAccountant",
    "DEFAULT_PERCENTILES",
]

#: The report's latency quantiles: median, tail, extreme tail.
DEFAULT_PERCENTILES = (50.0, 99.0, 99.9)


class StreamingPercentiles:
    """Exact streaming percentiles over a quantized value stream.

    Values are counted, not stored: ``add(value, count)`` is O(1), and
    :meth:`percentile` resolves ranks against the sorted distinct
    values.  The result equals
    ``numpy.percentile(materialized_samples, q)`` exactly -- the rank
    arithmetic and the linear interpolation (including numpy's
    ``t >= 0.5`` lerp symmetrization) are replicated, which
    ``tests/test_serving.py`` pins against random streams.
    """

    __slots__ = ("_counts", "_total", "_sorted")

    def __init__(self) -> None:
        self._counts: dict[float, int] = {}
        self._total = 0
        self._sorted: list[float] | None = None

    def add(self, value: float, count: int = 1) -> None:
        """Observe ``count`` occurrences of ``value``."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return
        value = float(value)
        counts = self._counts
        if value in counts:
            counts[value] += count
        else:
            counts[value] = count
            self._sorted = None
        self._total += count

    def merge(self, other: "StreamingPercentiles") -> None:
        """Fold another tracker's counts into this one."""
        for value, count in other._counts.items():
            self.add(value, count)

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return self._total

    def percentile(self, q: float) -> float:
        """``numpy.percentile`` of the materialized stream, exactly."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self._total == 0:
            raise ValueError("no samples observed")
        values = self._sorted
        if values is None:
            values = self._sorted = sorted(self._counts)
        # numpy: virtual index = (q/100) * (n - 1), then linear lerp
        # between the neighbouring order statistics.
        virtual = (q / 100.0) * (self._total - 1)
        lo_rank = math.floor(virtual)
        t = virtual - lo_rank
        a = self._order_statistic(values, lo_rank)
        if t == 0.0:
            return a
        b = self._order_statistic(values, lo_rank + 1)
        if a == b:
            return a
        # numpy's _lerp flips the fold for t >= 0.5 so the result is
        # symmetric; replicate for bit-equality.
        if t < 0.5:
            return a + (b - a) * t
        return b - (b - a) * (1.0 - t)

    def percentiles(
        self, qs: tuple[float, ...] = DEFAULT_PERCENTILES
    ) -> dict[str, float]:
        """The report row: ``{"p50": ..., "p99": ..., "p99.9": ...}``."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def mean(self) -> float:
        """Mean of the observed stream (deterministic: counts fold in
        first-seen value order)."""
        if self._total == 0:
            raise ValueError("no samples observed")
        return (
            sum(value * count for value, count in self._counts.items())
            / self._total
        )

    def _order_statistic(self, values: list[float], rank: int) -> float:
        """The ``rank``-th sample (0-based) of the sorted stream."""
        remaining = rank
        for value in values:
            count = self._counts[value]
            if remaining < count:
                return value
            remaining -= count
        return values[-1]


class TenantSink(SummarySink):
    """The controller's summary sink, extended with latency tracking.

    All ``RunSummary`` accounting (the blocked/issued branch, the
    scalar in-order float fold) is inherited from the controller's own
    :class:`~repro.controller.controller.SummarySink` -- one definition
    of that discipline -- and this subclass only adds the percentile
    observations: scalar steps via :meth:`add`, bulk chunks via
    :meth:`add_run` as ``(latency, count)``, so the tracker sees every
    request while the engine allocates nothing per request.  Only
    *served* requests enter the latency distribution; blocked requests
    are tallied separately (a skipped instruction is not a served one).
    """

    __slots__ = ("latency",)

    def __init__(self) -> None:
        super().__init__()
        self.latency = StreamingPercentiles()

    def add(self, result) -> None:
        """Fold one result; served requests also feed the latency stream."""
        super().add(result)
        if result.status is not Status.BLOCKED:
            self.latency.add(result.latency_ns)

    def add_run(
        self, requests, start, count, status, latency_ns, defense_ns, physical
    ) -> None:
        """Fold one bulk run; served runs feed ``count`` latency samples."""
        super().add_run(
            requests, start, count, status, latency_ns, defense_ns, physical
        )
        if status is not Status.BLOCKED:
            self.latency.add(latency_ns, count)


@dataclass
class _TenantBooks:
    """One tenant's running totals."""

    sink: TenantSink = field(default_factory=TenantSink)
    ops: dict[str, int] = field(default_factory=dict)
    shed: dict[str, int] = field(default_factory=dict)
    sojourn: StreamingPercentiles = field(
        default_factory=StreamingPercentiles
    )

    def observe_op(self, kind: str) -> None:
        """Count one workload op of ``kind`` against this tenant."""
        self.ops[kind] = self.ops.get(kind, 0) + 1

    def observe_shed(self, reason: str) -> None:
        """Count one admission-control drop of this tenant's traffic."""
        self.shed[reason] = self.shed.get(reason, 0) + 1


class SLAAccountant:
    """Per-tenant SLA books over one serving run."""

    def __init__(self, percentiles: tuple[float, ...] = DEFAULT_PERCENTILES):
        self.percentiles = percentiles
        self._tenants: dict[str, _TenantBooks] = {}
        # The live frontend's ingestion thread creates sinks while the
        # executor thread folds results; only books *creation* mutates
        # the tenant dict, so that is the one guarded section.
        self._books_lock = threading.Lock()

    def sink(self, tenant: str) -> TenantSink:
        """The result sink accumulating ``tenant``'s stream."""
        return self._books(tenant).sink

    def observe_op(self, tenant: str, kind: str) -> None:
        """Count one workload operation (read / write / inference /
        hammer) against a tenant."""
        self._books(tenant).observe_op(kind)

    def observe_shed(self, tenant: str, reason: str) -> None:
        """Count one shed (dropped) op against a tenant.

        ``reason`` is the admission controller's verdict --
        ``"throttled"`` (token bucket), ``"pressure"`` (SLA-pressure
        shedding), or ``"queue-full"`` (bounded outstanding queue) --
        or a fault-path verdict: ``"channel_fault"`` (the op's channel
        failed) or ``"integrity_fault"`` (the op's channel is under
        corruption-recovery quarantine).
        """
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("serving.sheds", tenant=tenant, reason=reason)
            if reason in ("channel_fault", "integrity_fault"):
                # Fault-path sheds are defense-relevant (the simulated
                # path emits them at deterministic slice-loop points);
                # load-dependent sheds stay out of the audit stream.
                tel.audit.emit("shed", tenant=tenant, reason=reason)
        self._books(tenant).observe_shed(reason)

    def observe_sojourn(self, tenant: str, sojourn_ns: float) -> None:
        """Observe one op's arrival-to-completion time (trace clock)."""
        self._books(tenant).sojourn.add(sojourn_ns)

    def sojourn_p99_ns(self, tenant: str, min_samples: int = 1) -> float | None:
        """The tenant's p99 sojourn, or ``None`` below ``min_samples``
        observations (the admission controller's pressure signal)."""
        books = self._tenants.get(tenant)
        if books is None or books.sojourn.count < max(1, min_samples):
            return None
        return books.sojourn.percentile(99.0)

    def _books(self, tenant: str) -> _TenantBooks:
        books = self._tenants.get(tenant)
        if books is None:
            with self._books_lock:
                books = self._tenants.get(tenant)
                if books is None:
                    books = self._tenants[tenant] = _TenantBooks()
        return books

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def tenant_report(self, tenant: str, sim_seconds: float) -> dict:
        """One tenant's SLA report: counts, rates, latency percentiles."""
        books = self._tenants[tenant]
        summary = books.sink.summary
        latency = books.sink.latency
        report = {
            "requests": summary.requested,
            "issued": summary.issued,
            "blocked": summary.blocked,
            "latency_ns_total": summary.latency_ns,
            "defense_ns_total": summary.defense_ns,
            "ops": dict(sorted(books.ops.items())),
            "throughput_rps": (
                summary.requested / sim_seconds if sim_seconds > 0 else 0.0
            ),
        }
        if latency.count:
            # Mean of the same distribution the percentiles describe:
            # served requests only (blocked lookups live in the totals
            # above, not in the latency distribution).
            report["latency_ns"] = {
                **latency.percentiles(self.percentiles),
                "mean": latency.mean(),
            }
        if books.shed:
            # Only present when admission control actually dropped
            # something, so closed-loop payloads are byte-identical to
            # pre-admission ones.
            report["shed"] = dict(sorted(books.shed.items()))
        return report

    def live_report(self) -> dict:
        """The live-frontend section: sojourn percentiles and shed
        tallies, kept out of :meth:`report` so replayed payloads stay
        byte-identical to closed-loop ones outside the ``"live"`` key.
        """
        tenants: dict[str, dict] = {}
        for name in sorted(self._tenants):
            books = self._tenants[name]
            entry: dict = {}
            if books.sojourn.count:
                entry["sojourn_ns"] = {
                    **books.sojourn.percentiles(self.percentiles),
                    "mean": books.sojourn.mean(),
                }
            if books.shed:
                entry["shed"] = dict(sorted(books.shed.items()))
            if entry:
                tenants[name] = entry
        shed_total = sum(
            count
            for books in self._tenants.values()
            for count in books.shed.values()
        )
        return {"tenants": tenants, "shed_total": shed_total}

    def report(
        self,
        sim_seconds: float,
        locker_summaries: dict[str, dict] | None = None,
    ) -> dict:
        """The run's SLA section: per-tenant books, aggregate
        throughput, and (when lockers are installed) the per-channel
        exposure-window stats."""
        tenants = {
            name: self.tenant_report(name, sim_seconds)
            for name in sorted(self._tenants)
        }
        totals = RunSummary()
        for books in self._tenants.values():
            totals.issued += books.sink.summary.issued
            totals.blocked += books.sink.summary.blocked
        aggregate = {
            "requests": totals.requested,
            "issued": totals.issued,
            "blocked": totals.blocked,
            "sim_seconds": sim_seconds,
            "requests_per_sim_sec": (
                totals.requested / sim_seconds if sim_seconds > 0 else 0.0
            ),
        }
        report = {"tenants": tenants, "aggregate": aggregate}
        if locker_summaries is not None:
            report["locker"] = locker_summaries
        return report
