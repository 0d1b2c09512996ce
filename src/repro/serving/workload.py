"""The workload engine: deterministic multi-tenant request generators.

Every generator here is a pure function of its seed: per-tenant RNG
streams are derived with the stack-wide :func:`repro.seeds.derive_seed`
name hashing (re-exported here), so adding, removing, or reordering
tenants never perturbs another tenant's stream, and a matrix built on
these generators is worker-count invariant.

Two layers:

* :class:`WorkloadGenerator` -- open/closed-loop arrival processes
  (Poisson or bursty on/off), Zipf tenant popularity, Zipf row
  popularity inside each tenant's partition, and configurable
  read/write/inference operation mixes.  Each time slice yields
  ``(tenant, op, requests)`` triples whose request objects are
  :class:`~repro.controller.request.MemRequest` streams --
  ``RequestRun``-compatible, so they drop straight into the bulk
  engine.
* The **victim-traffic classes** (:class:`GuardRowTenant`,
  :class:`VictimTenant`) -- the tenant streams the attack experiments
  used to hand-roll: one privileged guard-row access per attack
  campaign (the unlock-SWAP window opener of
  ``attacks/progressive.py``) and the weight-streaming inference mix of
  ``eval/framework.py``.  Both are draw-for-draw identical to the
  ad-hoc versions they replace; the existing tier-1 suites pin the flip
  sequences and stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..controller.request import Kind, MemRequest, RequestRun
from ..seeds import derive_seed

__all__ = [
    "derive_seed",
    "TenantSpec",
    "WorkloadConfig",
    "WorkloadOp",
    "WorkloadGenerator",
    "make_tenants",
    "zipf_weights",
    "GuardRowTraffic",
    "GuardRowTenant",
    "VictimTenant",
]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf(s) popularity over ``n`` ranks (rank 0 hottest)."""
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the serving system.

    Attributes:
        name: Tenant identifier (also its RNG-derivation salt).
        rows: The tenant's partition as a ``(first, count)`` range of
            *system* rows (the sharded system's flat address space).
        privileged: Whether the tenant's accesses may trigger
            DRAM-Locker unlock-SWAPs (the victim program's own traffic
            is privileged; ordinary co-located tenants are not).
        weight: Relative traffic share (the Zipf popularity assigns
            these when tenants are auto-built).
        read_fraction / write_fraction: Operation mix; the remainder is
            inference ops (a contiguous privileged weight-streaming
            sweep of ``inference_rows`` rows).
    """

    name: str
    rows: tuple[int, int]
    privileged: bool = False
    weight: float = 1.0
    read_fraction: float = 0.6
    write_fraction: float = 0.3

    def __post_init__(self) -> None:
        first, count = self.rows
        if first < 0 or count <= 0:
            raise ValueError("rows must be a (first >= 0, count > 0) range")
        if not 0.0 <= self.read_fraction + self.write_fraction <= 1.0:
            raise ValueError("read + write fractions must be within [0, 1]")


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival-process and mix knobs shared by all tenants.

    ``arrival="poisson"`` draws each tenant's per-slice op count from
    Poisson(rate); ``"bursty"`` modulates that rate with a two-state
    on/off Markov chain (rate x ``burst_factor`` while bursting) -- the
    open-loop analogue of flash crowds.  ``closed_loop=True`` instead
    issues exactly ``round(rate)`` ops per slice per tenant (a fixed
    number of outstanding requestors).
    """

    slices: int = 32
    ops_per_slice: float = 6.0
    arrival: str = "poisson"
    burst_factor: float = 4.0
    burst_on_prob: float = 0.15
    burst_off_prob: float = 0.5
    closed_loop: bool = False
    zipf_rows: float = 0.8
    inference_rows: int = 8
    request_bytes: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError("arrival must be 'poisson' or 'bursty'")
        if self.slices <= 0 or self.ops_per_slice < 0:
            raise ValueError("slices must be > 0 and ops_per_slice >= 0")
        if self.inference_rows <= 0:
            raise ValueError("inference_rows must be positive")


@dataclass(frozen=True)
class WorkloadOp:
    """One generated operation: the unit the arbiter schedules."""

    tenant: str
    kind: str  # "read" | "write" | "inference"
    requests: list[MemRequest] | RequestRun


class _TenantStream:
    """The deterministic per-tenant generator state."""

    __slots__ = ("spec", "rng", "rate", "bursting", "row_cum")

    def __init__(self, spec: TenantSpec, config: WorkloadConfig, rate: float):
        self.spec = spec
        # Per-tenant RNG derived from the tenant's *name*: other
        # tenants' existence cannot perturb this stream.
        self.rng = np.random.default_rng(
            derive_seed(f"tenant-{spec.name}", config.seed)
        )
        self.rate = rate
        self.bursting = False
        # Cumulative Zipf row popularity; rows are drawn by inverting
        # one uniform against this (cheaper than per-draw weighting).
        self.row_cum = np.cumsum(zipf_weights(spec.rows[1], config.zipf_rows))

    def draw_row(self) -> int:
        """One Zipf-popular row from this tenant's private range."""
        offset = int(
            np.searchsorted(self.row_cum, self.rng.random(), side="right")
        )
        return self.spec.rows[0] + min(offset, self.spec.rows[1] - 1)


class WorkloadGenerator:
    """Seed-deterministic open/closed-loop multi-tenant op streams."""

    def __init__(
        self,
        tenants: list[TenantSpec],
        config: WorkloadConfig | None = None,
    ):
        if not tenants:
            raise ValueError("at least one tenant required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.config = config or WorkloadConfig()
        # Rates are absolute per tenant (ops_per_slice x weight), never
        # normalized over the tenant set: together with the
        # name-derived RNGs this keeps each tenant's stream a pure
        # function of its own spec -- adding or removing tenants cannot
        # perturb anyone else's draws.
        self._streams = [
            _TenantStream(
                spec, self.config, self.config.ops_per_slice * spec.weight
            )
            for spec in tenants
        ]
        self._next_slice = 0

    @property
    def tenants(self) -> list[TenantSpec]:
        """The tenant specs, in registration order."""
        return [stream.spec for stream in self._streams]

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def slice_ops(self, slice_index: int) -> list[WorkloadOp]:
        """All tenants' operations for one time slice, tenant-ordered.

        The per-tenant streams are sequential, so slices must be drawn
        in order, each exactly once -- replaying or skipping a slice
        would silently advance the RNGs off the seed-deterministic
        stream, hence the strict check.
        """
        if slice_index != self._next_slice:
            raise ValueError(
                f"slices must be drawn in order: expected slice "
                f"{self._next_slice}, got {slice_index}"
            )
        self._next_slice += 1
        ops: list[WorkloadOp] = []
        for stream in self._streams:
            ops.extend(self._tenant_slice(stream))
        return ops

    def run(self):
        """Iterate every slice of the configured horizon."""
        for index in range(self.config.slices):
            yield index, self.slice_ops(index)

    def _tenant_slice(self, stream: _TenantStream) -> list[WorkloadOp]:
        config = self.config
        rng = stream.rng
        rate = stream.rate
        if config.arrival == "bursty":
            # Two-state modulation: the state draw happens every slice
            # so the chain is part of the deterministic stream.
            if stream.bursting:
                stream.bursting = rng.random() >= config.burst_off_prob
            else:
                stream.bursting = rng.random() < config.burst_on_prob
            if stream.bursting:
                rate = rate * config.burst_factor
        if config.closed_loop:
            count = int(round(rate))
        else:
            count = int(rng.poisson(rate))
        return [self._draw_op(stream) for _ in range(count)]

    def _draw_op(self, stream: _TenantStream) -> WorkloadOp:
        spec = stream.spec
        config = self.config
        rng = stream.rng
        first, row_count = spec.rows
        draw = rng.random()
        if draw < spec.read_fraction:
            kind, req_kind = "read", Kind.READ
        elif draw < spec.read_fraction + spec.write_fraction:
            kind, req_kind = "write", Kind.WRITE
        else:
            kind = "inference"
        if kind == "inference":
            # A contiguous privileged weight-streaming sweep, starting
            # at a Zipf-popular row of the partition.
            start = stream.draw_row()
            rows = [
                first + (start - first + offset) % row_count
                for offset in range(config.inference_rows)
            ]
            requests = [
                MemRequest(
                    Kind.READ,
                    row,
                    size=config.request_bytes,
                    privileged=True,
                    tag=spec.name,
                )
                for row in rows
            ]
            return WorkloadOp(spec.name, kind, requests)
        row = stream.draw_row()
        request = MemRequest(
            req_kind,
            row,
            size=config.request_bytes,
            privileged=spec.privileged,
            tag=spec.name,
        )
        return WorkloadOp(spec.name, kind, [request])


def make_tenants(
    count: int,
    rows_first: int = 0,
    rows_total: int = 0,
    zipf_popularity: float = 1.1,
    privileged_first: bool = True,
    read_fraction: float = 0.6,
    write_fraction: float = 0.3,
    partitions: list[tuple[int, int]] | None = None,
) -> list[TenantSpec]:
    """Build a ``count``-tenant fleet with Zipf(s) traffic popularity.

    Partitions are ``count`` equal contiguous slices of the
    ``[rows_first, rows_first + rows_total)`` system-row range, or the
    explicit ``(first, count)`` ranges in ``partitions`` (one per
    tenant -- how the serving engine keeps block-interleaved tenants
    inside their channel's tenant zone).  Tenant 0 is the hot (and, by
    default, privileged) tenant.  Weights are scaled to mean 1.0, so
    the fleet's aggregate rate is ``ops_per_slice x count``; note the
    Zipf weights (and the partition bounds) are functions of the fleet
    shape, so a given tenant's stream is only reproducible for the same
    fleet -- the spec-level invariance (same :class:`TenantSpec`, same
    stream, regardless of who else is in the generator) is what the
    determinism tests pin.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if partitions is None:
        per_tenant = rows_total // count
        if per_tenant <= 0:
            raise ValueError("not enough rows for the tenant count")
        partitions = [
            (rows_first + index * per_tenant, per_tenant)
            for index in range(count)
        ]
    elif len(partitions) != count:
        raise ValueError("one partition per tenant required")
    weights = zipf_weights(count, zipf_popularity) * count
    return [
        TenantSpec(
            name=f"tenant-{index}",
            rows=partitions[index],
            privileged=privileged_first and index == 0,
            weight=float(weights[index]),
            read_fraction=read_fraction,
            write_fraction=write_fraction,
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Victim traffic (the streams the attack experiments used to hand-roll)
# ----------------------------------------------------------------------
class GuardRowTraffic:
    """One privileged access to a random guard row adjacent to a target
    row -- DRAM-Locker's only failure surface: the access forces an
    unlock-SWAP whose (process-variation) failure opens the exposure
    window a co-located attacker needs.

    This is the single definition of the unlock-window stream; the
    address space is abstracted behind two callables so the attack
    experiments (per-device row indices) and the serving engine
    (sharded system rows) share one guard-selection policy and draw
    discipline.
    """

    def __init__(self, neighbors, read_privileged, seed: int = 1):
        """``neighbors(row)`` lists the adjacent guard rows;
        ``read_privileged(row)`` issues the privileged access."""
        self._neighbors = neighbors
        self._read_privileged = read_privileged
        self._rng = np.random.default_rng(seed)

    def touch(self, row: int) -> None:
        """One privileged access next to ``row``."""
        guards = self._neighbors(row)
        # The draw ``Generator.choice(guards)`` makes, without its
        # array conversion: same guard, same bit-generator state.
        guard = guards[int(self._rng.integers(0, len(guards)))]
        self._read_privileged(guard)


class GuardRowTenant(GuardRowTraffic):
    """The unlock-window tenant stream of the progressive attack.

    :class:`GuardRowTraffic` bound to a victim :class:`WeightStore`:
    one privileged guard access per attack campaign, addressed by the
    attacked weight bit.
    """

    def __init__(self, store, controller, seed: int = 1):
        super().__init__(
            lambda row: store.device.mapper.neighbors(row, radius=1),
            lambda row: controller.read(row, privileged=True),
            seed=seed,
        )
        self.store = store
        self.controller = controller

    def __call__(self, name: str, index: int, bit: int) -> None:
        row, _ = self.store.bit_location(name, index, bit)
        self.touch(row)


class VictimTenant:
    """The protected tenant's own request mix: weight-streaming
    inference plus the guard-row traffic that opens unlock windows.

    This is the mixing ``eval/framework.py`` used to assemble inline;
    the pieces now compose from the shared workload classes.
    """

    def __init__(self, store, controller, seed: int = 1):
        self.store = store
        self.controller = controller
        self.traffic = GuardRowTenant(store, controller, seed)

    def stream_inference(self, privileged: bool = True):
        """One forward pass of weight streaming (summary mode)."""
        return self.store.stream_inference(
            self.controller, privileged=privileged, summary=True
        )

    def __call__(self, name: str, index: int, bit: int) -> None:
        """Tenant-hook protocol: guard-row traffic before a campaign."""
        self.traffic(name, index, bit)
