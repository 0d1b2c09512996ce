"""Subarray and bank data planes.

Row contents are NumPy ``uint8`` arrays, allocated lazily so that large
geometries (the 32 GB Table I configuration) cost nothing until a row is
actually touched.
"""

from __future__ import annotations

import numpy as np

from .config import DRAMConfig

__all__ = ["Subarray", "Bank"]


class Subarray:
    """One 2D mat of DRAM rows; the unit of RowClone FPM copies."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self._rows: dict[int, np.ndarray] = {}

    def _materialize(self, local_row: int) -> np.ndarray:
        self._check(local_row)
        row = self._rows.get(local_row)
        if row is None:
            row = np.zeros(self.config.row_bytes, dtype=np.uint8)
            self._rows[local_row] = row
        return row

    def read_row(self, local_row: int, copy: bool = True) -> np.ndarray:
        """Row contents; pass ``copy=False`` for a read-only fast path."""
        row = self._materialize(local_row)
        return row.copy() if copy else row

    def write_row(self, local_row: int, data: np.ndarray) -> None:
        row = self._materialize(local_row)
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != row.shape:
            raise ValueError(
                f"row data must be {row.shape[0]} bytes, got {data.shape}"
            )
        row[:] = data

    def copy_row(self, src_local: int, dst_local: int) -> None:
        """RowClone FPM: overwrite ``dst`` with ``src`` inside the mat."""
        src = self._materialize(src_local)
        dst = self._materialize(dst_local)
        dst[:] = src

    def flip_bits(self, local_row: int, bit_positions) -> None:
        """XOR-toggle the given bit positions of one row."""
        row = self._materialize(local_row)
        for bit in np.atleast_1d(np.asarray(bit_positions, dtype=np.int64)):
            byte_index, bit_index = divmod(int(bit), 8)
            row[byte_index] ^= np.uint8(1 << bit_index)

    def _check(self, local_row: int) -> None:
        if not 0 <= local_row < self.config.rows_per_subarray:
            raise ValueError(f"local row {local_row} out of range")


class Bank:
    """A group of subarrays sharing one row buffer (open-row state)."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self.subarrays = [Subarray(config) for _ in range(config.subarrays_per_bank)]
        #: Global row index currently latched in the row buffer, if any.
        self.open_row: int | None = None
