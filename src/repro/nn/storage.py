"""WeightStore: quantized DNN weights living in simulated DRAM.

The store owns the layout decision the paper's protection policy needs:
with ``guard_rows=True`` (default) weight data occupies every *other*
row, leaving interleaved guard rows whose only purpose is to be the
potential aggressors -- so DRAM-Locker can lock them without ever
blocking the inference path (Section IV-A: lock the *adjacent* rows,
not the hot data).  ``guard_rows=False`` packs weights contiguously,
which is the layout whose protection holes the planner reports.

The DRAM is the single source of truth: RowHammer flips land in row
bytes, a flip listener marks the store dirty, and ``sync_model()``
pulls the bytes back through the quantized tensors into the float
model.  Attacks never touch the model directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..controller.request import Kind, MemRequest
from ..dram.device import DRAMDevice
from ..dram.rowhammer import BitFlip
from .quant import QuantizedModel

__all__ = ["Segment", "WeightStore"]


@dataclass(frozen=True)
class Segment:
    """A contiguous run of one tensor's bytes inside one DRAM row."""

    tensor: str
    tensor_offset: int
    row: int
    row_offset: int
    length: int


class WeightStore:
    """Maps a :class:`QuantizedModel`'s payload onto DRAM rows."""

    def __init__(
        self,
        device: DRAMDevice,
        qmodel: QuantizedModel,
        guard_rows: bool = True,
        start_bank: int = 0,
    ):
        self.device = device
        self.qmodel = qmodel
        self.guard_rows = guard_rows
        self.segments: list[Segment] = []
        self._by_tensor: dict[str, list[Segment]] = {}
        self._by_row: dict[int, list[Segment]] = {}
        self._guard_rows: list[int] = []
        self._dirty = True  # first sync loads DRAM contents
        #: Optional default row translation (a permuting defense's
        #: ``translate``): when set, every sync/write-back follows it,
        #: so the store tracks where the defense keeps the data
        #: resident.  Set by the victim-load binding, not here.
        self.row_source: Callable[[int], int] | None = None
        self.flips_observed: list[BitFlip] = []
        self._layout(start_bank)
        self._write_initial()
        device.add_flip_listener(self._on_flip)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _candidate_rows(self, start_bank: int):
        cfg = self.device.config
        mapper = self.device.mapper
        step = 2 if self.guard_rows else 1
        for bank in range(start_bank, cfg.banks):
            for subarray in range(cfg.subarrays_per_bank):
                for local in range(0, cfg.usable_rows_per_subarray, step):
                    yield mapper.row_index((bank, subarray, local))

    def _layout(self, start_bank: int) -> None:
        cfg = self.device.config
        mapper = self.device.mapper
        rows = self._candidate_rows(start_bank)
        row = next(rows, None)
        row_used = 0
        for name, tensor in self.qmodel.tensors.items():
            remaining = tensor.q.size
            tensor_offset = 0
            while remaining > 0:
                if row is None:
                    raise RuntimeError(
                        "DRAM too small for the model; use a larger DRAMConfig"
                    )
                space = cfg.row_bytes - row_used
                if space == 0:
                    row = next(rows, None)
                    row_used = 0
                    continue
                take = min(space, remaining)
                segment = Segment(
                    tensor=name,
                    tensor_offset=tensor_offset,
                    row=row,
                    row_offset=row_used,
                    length=take,
                )
                self.segments.append(segment)
                self._by_tensor.setdefault(name, []).append(segment)
                self._by_row.setdefault(row, []).append(segment)
                tensor_offset += take
                remaining -= take
                row_used += take
        if self.guard_rows:
            data_rows = set(self._by_row)
            guards = set()
            for data_row in data_rows:
                guards.update(mapper.neighbors(data_row, radius=1))
            self._guard_rows = sorted(guards - data_rows)

    def _write_initial(
        self, row_source: "Callable[[int], int] | None" = None
    ) -> None:
        for name, tensor in self.qmodel.tensors.items():
            payload = tensor.to_bytes()
            for segment in self._by_tensor[name]:
                target_row = (
                    segment.row if row_source is None else row_source(segment.row)
                )
                self.device.poke_bytes(
                    target_row,
                    segment.row_offset,
                    payload[
                        segment.tensor_offset : segment.tensor_offset + segment.length
                    ],
                )
        self._dirty = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def data_rows(self) -> list[int]:
        """Rows holding weight bytes (the protection targets)."""
        return sorted(self._by_row)

    @property
    def guard_row_indices(self) -> list[int]:
        """The interleaved guard rows (empty when ``guard_rows=False``)."""
        return list(self._guard_rows)

    def bit_location(self, tensor: str, flat_index: int, bit: int) -> tuple[int, int]:
        """Where one weight bit lives: ``(global row, bit-in-row)``."""
        for segment in self._by_tensor[tensor]:
            if segment.tensor_offset <= flat_index < segment.tensor_offset + segment.length:
                row_byte = segment.row_offset + (flat_index - segment.tensor_offset)
                return segment.row, row_byte * 8 + bit
        raise KeyError(f"weight {tensor}[{flat_index}] not in the store")

    def locate_bit(self, row: int, row_bit: int) -> tuple[str, int, int] | None:
        """Inverse of :meth:`bit_location`; ``None`` for non-weight bits."""
        segments = self._by_row.get(row)
        if not segments:
            return None
        row_byte, bit = divmod(row_bit, 8)
        for segment in segments:
            if segment.row_offset <= row_byte < segment.row_offset + segment.length:
                flat_index = segment.tensor_offset + (row_byte - segment.row_offset)
                return segment.tensor, flat_index, bit
        return None

    # ------------------------------------------------------------------
    # DRAM <-> model synchronisation
    # ------------------------------------------------------------------
    def _on_flip(self, flip: BitFlip) -> None:
        if flip.row in self._by_row:
            self._dirty = True
            self.flips_observed.append(flip)

    def sync_model(
        self,
        force: bool = False,
        row_source: "Callable[[int], int] | None" = None,
    ) -> bool:
        """Pull DRAM bytes back into the model; True if anything changed.

        ``row_source`` maps a stored row to the row actually read --
        the hook the page-table attack experiments use to read weights
        *through* the (possibly corrupted) MMU translation.  When left
        ``None`` it falls back to the store's persistent
        :attr:`row_source` (a permuting defense's translation), which
        always forces a full read: flips landing in relocated rows
        never mark the store dirty.
        """
        if row_source is None:
            row_source = self.row_source
        if not (self._dirty or force or row_source is not None):
            return False
        # Read every tensor before applying any: a ``row_source`` that
        # raises partway (the MMU's PageFault) leaves the model as it was.
        payloads = {}
        for name, tensor in self.qmodel.tensors.items():
            payload = payloads[name] = tensor.to_bytes()
            for segment in self._by_tensor[name]:
                source_row = segment.row if row_source is None else row_source(segment.row)
                payload[
                    segment.tensor_offset : segment.tensor_offset + segment.length
                ] = self.device.peek_bytes(
                    source_row, segment.row_offset, segment.length
                )
        for name, payload in payloads.items():
            self.qmodel.tensors[name].from_bytes(payload)
        self.qmodel.load_into_model()
        self._dirty = False
        return True

    def write_back(
        self, row_source: "Callable[[int], int] | None" = None
    ) -> None:
        """Push the current quantized payloads into DRAM (model -> DRAM).

        ``row_source`` maps a stored row to the row actually written --
        the mirror of :meth:`sync_model`'s hook, so restores land where
        a permuting defense currently keeps the data resident (falls
        back to the persistent :attr:`row_source`).
        """
        self._write_initial(
            self.row_source if row_source is None else row_source
        )

    # ------------------------------------------------------------------
    # Traffic generation (for the performance experiments)
    # ------------------------------------------------------------------
    def inference_requests(self, privileged: bool = True) -> list[MemRequest]:
        """The weight-streaming reads of one forward pass."""
        cfg = self.device.config
        return [
            MemRequest(
                Kind.READ,
                row,
                size=cfg.row_bytes,
                privileged=privileged,
                tag="weights",
            )
            for row in self.data_rows
        ]

    def stream_inference(
        self, controller, privileged: bool = True, summary: bool = False
    ):
        """Execute one forward pass worth of weight streaming through the
        controller's batched engine; returns the per-request results, or
        -- with ``summary=True`` -- one allocation-free
        :class:`~repro.controller.request.RunSummary` (same device
        state, no per-request result objects)."""
        requests = self.inference_requests(privileged)
        if summary:
            return controller.execute_summary(requests)
        return controller.execute_batch(requests)
