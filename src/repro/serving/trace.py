"""Recorded serving traces: capture a workload stream, replay it later.

A :class:`Trace` is the serialized form of one
:class:`~repro.serving.workload.WorkloadGenerator` run: every generated
op (tenant, op kind, and its full request stream) plus an **arrival
timestamp** assigned at record time.  Arrivals give the stream a wall
clock the closed-loop simulation never had, which is what makes
open-loop replay -- and therefore overload, admission control, and
live pacing -- meaningful.

Two interchangeable encodings, selected by file suffix:

* ``.npz`` -- compact columnar arrays (one row per op, one row per
  request record, string tables in a JSON header); the format the
  benches and CI use.
* ``.jsonl`` -- one JSON object per op after a header line;
  greppable, diffable, and convenient for hand-built traces.

Determinism contract: arrival offsets are drawn from the dedicated
``derive_seed("trace-arrivals", seed)`` stream (never the workload
RNGs) and are *sorted within each slice*, so arrival order equals
generation order and replaying a trace at infinite speedup visits ops
in exactly the closed-loop order -- the precondition for the
replay-equivalence contract pinned in ``tests/test_serving_live.py``.
Both encodings round-trip every field exactly (float64 timestamps
included), so ``Trace.load(path) == trace`` holds bit-for-bit.  Bytes
that do not parse as a trace raise :class:`TraceFormatError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..controller.request import Kind, MemRequest, RequestRun
from .workload import WorkloadGenerator, derive_seed

__all__ = [
    "TRACE_SCHEMA",
    "DEFAULT_SLICE_DURATION_S",
    "TraceOp",
    "Trace",
    "TraceFormatError",
    "record_workload",
    "requests_equal",
    "trace_suffix",
]

#: Format tag stored in every trace file; bumped on layout changes.
TRACE_SCHEMA = "dram-locker-serving-trace/1"

#: Fallback slice duration when the recorder is given no calibration:
#: 1 ms of trace time per slice.
DEFAULT_SLICE_DURATION_S = 1e-3


class TraceFormatError(ValueError):
    """A trace file's bytes are not a trace of :data:`TRACE_SCHEMA`:
    an unknown suffix, an unreadable encoding, a foreign schema, or a
    missing or mistyped field."""


def trace_suffix(path: str | Path) -> str:
    """The suffix of a trace path, which picks its encoding: ``.npz``
    (columnar) or ``.jsonl`` (line-oriented).  Any other raises
    :class:`TraceFormatError`."""
    suffix = Path(path).suffix
    if suffix not in (".npz", ".jsonl"):
        raise TraceFormatError(
            f"unknown trace suffix {suffix!r}; use .npz or .jsonl"
        )
    return suffix


@dataclass(frozen=True, eq=False)
class TraceOp:
    """One recorded operation: what arrived, when, and its requests.

    Attributes:
        slice_index: The generator time slice the op belongs to.
        arrival_s: Absolute arrival time on the trace clock (seconds).
        tenant: Tenant name the op is booked against.
        kind: Workload op kind (``"read"`` / ``"write"`` /
            ``"inference"`` / free-form).
        requests: The op's request stream -- a list of
            :class:`~repro.controller.request.MemRequest` or an O(1)
            :class:`~repro.controller.request.RequestRun`.
    """

    slice_index: int
    arrival_s: float
    tenant: str
    kind: str
    requests: list[MemRequest] | RequestRun

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceOp):
            return NotImplemented
        return (
            self.slice_index == other.slice_index
            and self.arrival_s == other.arrival_s
            and self.tenant == other.tenant
            and self.kind == other.kind
            and requests_equal(self.requests, other.requests)
        )


def requests_equal(
    a: list[MemRequest] | RequestRun, b: list[MemRequest] | RequestRun
) -> bool:
    """Structural equality over request streams.

    ``RequestRun`` deliberately has no ``__eq__`` (it is an O(1)
    sequence), so trace round-trip comparisons go through here: runs
    compare by (request, count), lists element-wise.
    """
    if isinstance(a, RequestRun) or isinstance(b, RequestRun):
        return (
            isinstance(a, RequestRun)
            and isinstance(b, RequestRun)
            and a.count == b.count
            and a.request == b.request
        )
    return list(a) == list(b)


class Trace:
    """One recorded serving workload: ops with arrival timestamps.

    The trace clock runs ``slices * slice_duration_s`` seconds; ops of
    slice ``i`` arrive inside ``[i * slice_duration_s, (i + 1) *
    slice_duration_s)``, in nondecreasing order.  ``meta`` carries
    whatever the recorder wants replay to know -- the serving facade
    stores the full ``ServingConfig`` dict there, making a trace file
    self-contained.
    """

    def __init__(
        self,
        ops: Iterable[TraceOp],
        *,
        slices: int,
        slice_duration_s: float,
        seed: int = 0,
        meta: dict | None = None,
    ):
        """Bind recorded ``ops`` to their clock geometry.

        Args:
            ops: The recorded operations, in arrival order.
            slices: Generator time slices the trace spans.
            slice_duration_s: Trace-clock seconds per slice.
            seed: The seed the workload (and arrival stream) derived
                from; replay re-derives every simulation RNG from it.
            meta: Free-form JSON-serializable recorder context.
        """
        if slices <= 0 or slice_duration_s <= 0:
            raise ValueError("slices and slice_duration_s must be positive")
        self.ops = list(ops)
        self.slices = int(slices)
        self.slice_duration_s = float(slice_duration_s)
        self.seed = int(seed)
        self.meta = meta or {}
        self._by_slice: list[list[TraceOp]] | None = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.slices == other.slices
            and self.slice_duration_s == other.slice_duration_s
            and self.seed == other.seed
            and self.meta == other.meta
            and self.ops == other.ops
        )

    @property
    def duration_s(self) -> float:
        """Total trace-clock span: ``slices * slice_duration_s``."""
        return self.slices * self.slice_duration_s

    def slice_ops(self, index: int) -> list[TraceOp]:
        """The ops of slice ``index``, in arrival (= generation) order."""
        if self._by_slice is None:
            by_slice: list[list[TraceOp]] = [[] for _ in range(self.slices)]
            for op in self.ops:
                by_slice[op.slice_index].append(op)
            self._by_slice = by_slice
        return self._by_slice[index]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> str:
        """Write the trace, encoded as its suffix picks
        (:func:`trace_suffix`)."""
        path = Path(path)
        if trace_suffix(path) == ".npz":
            self._save_npz(path)
        else:
            self._save_jsonl(path)
        return str(path)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save` (suffix-dispatched).

        Raises :class:`TraceFormatError` when the bytes do not parse as
        a trace; a file that cannot be opened raises its ``OSError``.
        """
        path = Path(path)
        readers = {".npz": cls._load_npz, ".jsonl": cls._load_jsonl}
        reader = readers[trace_suffix(path)]
        try:
            return reader(path)
        except (OSError, TraceFormatError):
            raise
        except Exception as error:
            # Foreign bytes raise many types -- BadZipFile, zlib.error,
            # EOFError, NotImplementedError, JSONDecodeError, KeyError
            # among them on truncated or bit-flipped traces; callers see
            # one, with the cause chained.
            raise TraceFormatError(
                f"{path}: not a {path.suffix} trace "
                f"({type(error).__name__}: {error})"
            ) from error

    def _header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "slices": self.slices,
            "slice_duration_s": self.slice_duration_s,
            "seed": self.seed,
            "meta": self.meta,
        }

    @staticmethod
    def _check_header(header: dict, path: Path) -> dict:
        schema = header.get("schema")
        if schema != TRACE_SCHEMA:
            raise TraceFormatError(
                f"{path}: unknown trace schema {schema!r} "
                f"(expected {TRACE_SCHEMA!r})"
            )
        return header

    # -- npz ------------------------------------------------------------
    def _save_npz(self, path: Path) -> None:
        tenants: dict[str, int] = {}
        kinds: dict[str, int] = {}
        tags: dict[str, int] = {}

        def intern(table: dict[str, int], value: str) -> int:
            index = table.get(value)
            if index is None:
                index = table[value] = len(table)
            return index

        n = len(self.ops)
        op_slice = np.zeros(n, dtype=np.int64)
        op_arrival = np.zeros(n, dtype=np.float64)
        op_tenant = np.zeros(n, dtype=np.int64)
        op_kind = np.zeros(n, dtype=np.int64)
        op_first = np.zeros(n, dtype=np.int64)
        op_records = np.zeros(n, dtype=np.int64)
        op_run = np.zeros(n, dtype=np.int64)

        records: list[MemRequest] = []
        for i, op in enumerate(self.ops):
            op_slice[i] = op.slice_index
            op_arrival[i] = op.arrival_s
            op_tenant[i] = intern(tenants, op.tenant)
            op_kind[i] = intern(kinds, op.kind)
            op_first[i] = len(records)
            if isinstance(op.requests, RequestRun):
                op_run[i] = op.requests.count
                op_records[i] = 1
                records.append(op.requests.request)
            else:
                op_records[i] = len(op.requests)
                records.extend(op.requests)

        m = len(records)
        req_kind = np.zeros(m, dtype=np.int64)
        req_row = np.zeros(m, dtype=np.int64)
        req_column = np.zeros(m, dtype=np.int64)
        req_size = np.zeros(m, dtype=np.int64)
        req_priv = np.zeros(m, dtype=np.bool_)
        req_tag = np.zeros(m, dtype=np.int64)
        kind_names = [kind.name for kind in Kind]
        kind_index = {name: i for i, name in enumerate(kind_names)}
        for i, request in enumerate(records):
            req_kind[i] = kind_index[request.kind.name]
            req_row[i] = request.row
            req_column[i] = request.column
            req_size[i] = request.size
            req_priv[i] = request.privileged
            req_tag[i] = intern(tags, request.tag)

        header = dict(
            self._header(),
            tenants=list(tenants),
            kinds=list(kinds),
            tags=list(tags),
            request_kinds=kind_names,
        )
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                op_slice=op_slice,
                op_arrival=op_arrival,
                op_tenant=op_tenant,
                op_kind=op_kind,
                op_first=op_first,
                op_records=op_records,
                op_run=op_run,
                req_kind=req_kind,
                req_row=req_row,
                req_column=req_column,
                req_size=req_size,
                req_priv=req_priv,
                req_tag=req_tag,
            )

    @classmethod
    def _load_npz(cls, path: Path) -> "Trace":
        with np.load(path) as data:
            header = cls._check_header(
                json.loads(bytes(data["header"]).decode("utf-8")), path
            )
            tenants = header["tenants"]
            kinds = header["kinds"]
            tags = header["tags"]
            kind_names = header["request_kinds"]
            req_kind = data["req_kind"]
            req_row = data["req_row"]
            req_column = data["req_column"]
            req_size = data["req_size"]
            req_priv = data["req_priv"]
            req_tag = data["req_tag"]

            def request(index: int) -> MemRequest:
                return MemRequest(
                    Kind[kind_names[int(req_kind[index])]],
                    int(req_row[index]),
                    int(req_column[index]),
                    int(req_size[index]),
                    bool(req_priv[index]),
                    tags[int(req_tag[index])],
                )

            ops: list[TraceOp] = []
            for i in range(len(data["op_slice"])):
                first = int(data["op_first"][i])
                count = int(data["op_records"][i])
                run = int(data["op_run"][i])
                requests: list[MemRequest] | RequestRun
                if run:
                    requests = RequestRun(request(first), run)
                else:
                    requests = [request(first + j) for j in range(count)]
                ops.append(
                    TraceOp(
                        int(data["op_slice"][i]),
                        float(data["op_arrival"][i]),
                        tenants[int(data["op_tenant"][i])],
                        kinds[int(data["op_kind"][i])],
                        requests,
                    )
                )
        return cls(
            ops,
            slices=header["slices"],
            slice_duration_s=header["slice_duration_s"],
            seed=header["seed"],
            meta=header["meta"],
        )

    # -- jsonl ----------------------------------------------------------
    def _save_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self._header()) + "\n")
            for op in self.ops:
                if isinstance(op.requests, RequestRun):
                    run = op.requests.count
                    records = [op.requests.request]
                else:
                    run = 0
                    records = list(op.requests)
                handle.write(
                    json.dumps(
                        {
                            "slice": op.slice_index,
                            "arrival_s": op.arrival_s,
                            "tenant": op.tenant,
                            "kind": op.kind,
                            "run": run,
                            "requests": [
                                [
                                    request.kind.name,
                                    request.row,
                                    request.column,
                                    request.size,
                                    request.privileged,
                                    request.tag,
                                ]
                                for request in records
                            ],
                        }
                    )
                    + "\n"
                )

    @classmethod
    def _load_jsonl(cls, path: Path) -> "Trace":
        with open(path, encoding="utf-8") as handle:
            header = cls._check_header(json.loads(handle.readline()), path)
            ops: list[TraceOp] = []
            for line in handle:
                if not line.strip():
                    continue
                entry = json.loads(line)
                records = [
                    MemRequest(
                        Kind[kind], row, column, size, privileged, tag
                    )
                    for kind, row, column, size, privileged, tag in entry[
                        "requests"
                    ]
                ]
                requests: list[MemRequest] | RequestRun
                if entry["run"]:
                    requests = RequestRun(records[0], entry["run"])
                else:
                    requests = records
                ops.append(
                    TraceOp(
                        entry["slice"],
                        entry["arrival_s"],
                        entry["tenant"],
                        entry["kind"],
                        requests,
                    )
                )
        return cls(
            ops,
            slices=header["slices"],
            slice_duration_s=header["slice_duration_s"],
            seed=header["seed"],
            meta=header["meta"],
        )


def record_workload(
    generator: WorkloadGenerator,
    *,
    slice_duration_s: float = DEFAULT_SLICE_DURATION_S,
    meta: dict | None = None,
) -> Trace:
    """Run a workload generator to completion, recording every op.

    Arrival timestamps are synthesized per slice: uniform offsets from
    the dedicated ``derive_seed("trace-arrivals", seed)`` stream,
    **sorted** so that arrival order equals generation order (the
    replay-equivalence precondition).  The generator is consumed -- its
    per-tenant RNG streams advance exactly as a closed-loop run would
    advance them, so a fresh generator built from the same config
    regenerates the same ops.

    Args:
        generator: The (unconsumed) workload generator to record.
        slice_duration_s: Trace-clock seconds per slice; overload is
            expressed by recording more ops into the same duration.
        meta: Recorder context stored verbatim in the trace header.

    Returns:
        The recorded :class:`Trace`.
    """
    config = generator.config
    rng = np.random.default_rng(derive_seed("trace-arrivals", config.seed))
    ops: list[TraceOp] = []
    for index, slice_ops in generator.run():
        offsets = np.sort(rng.random(len(slice_ops))) * slice_duration_s
        base = index * slice_duration_s
        for op, offset in zip(slice_ops, offsets):
            ops.append(
                TraceOp(
                    index, base + float(offset), op.tenant, op.kind,
                    op.requests,
                )
            )
    return Trace(
        ops,
        slices=config.slices,
        slice_duration_s=slice_duration_s,
        seed=config.seed,
        meta=meta,
    )
