"""DRAM geometry configuration.

A :class:`DRAMConfig` pins down the bank/subarray/row organisation that
the device model, the address mapper, the defenses, and the Table I
overhead calculators all share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

__all__ = ["DRAMConfig"]

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry of one simulated DRAM memory system.

    The hierarchy is ``channel -> device -> bank -> subarray -> row``.
    Ranks are folded into the bank count: the paper's evaluation uses a
    16-bank DDR4 view, and nothing in the mechanism depends on
    rank-level parallelism.  ``channels`` defaults to 1 (the paper's
    single-channel view); every per-device quantity below
    (``total_rows``, ``capacity_bytes``, ...) stays **per channel**, so
    single-channel configs and their committed baselines are unchanged.
    Multi-channel systems are composed by
    :class:`repro.serving.ShardedMemorySystem`, which builds one device
    per channel from :meth:`channel_config` and interleaves system rows
    via :class:`repro.dram.address.ChannelInterleaver`.

    Attributes:
        name: Identifier for reports.
        channels: Independent memory channels, each with its own device,
            controller, clock, and (optionally) DRAM-Locker lock table.
        banks: Number of banks per channel.
        subarrays_per_bank: Subarrays per bank; RowClone FPM copies are
            only possible *within* one subarray.
        rows_per_subarray: DRAM rows per subarray (typically 512).
        row_bytes: Bytes per row (the unit of ACT, RowClone and
            RowHammer disturbance).
        reserved_rows_per_subarray: Rows at the top of each subarray set
            aside as the DRAM-Locker buffer row plus the free-row pool
            used by SWAP (also used by SHADOW as shuffle space).
    """

    name: str
    banks: int = 16
    subarrays_per_bank: int = 16
    rows_per_subarray: int = 512
    row_bytes: int = 8 * KIB
    reserved_rows_per_subarray: int = 8
    channels: int = 1

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.banks <= 0 or self.subarrays_per_bank <= 0:
            raise ValueError("banks and subarrays_per_bank must be positive")
        if self.rows_per_subarray <= 0 or self.row_bytes <= 0:
            raise ValueError("rows_per_subarray and row_bytes must be positive")
        if not 0 <= self.reserved_rows_per_subarray < self.rows_per_subarray:
            raise ValueError(
                "reserved_rows_per_subarray must fit inside the subarray"
            )
        if self.row_bytes % 64 != 0:
            raise ValueError("row_bytes must be a whole number of 64B bursts")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    # The request path reads these on nearly every request, so each is
    # computed once per instance (``cached_property`` stores it in the
    # instance dict, outside ``__eq__``, ``__hash__`` and ``repr``;
    # ``replace()`` builds a fresh instance).
    @cached_property
    def rows_per_bank(self) -> int:
        return self.subarrays_per_bank * self.rows_per_subarray

    @cached_property
    def total_rows(self) -> int:
        return self.banks * self.rows_per_bank

    @cached_property
    def capacity_bytes(self) -> int:
        return self.total_rows * self.row_bytes

    @cached_property
    def usable_rows_per_subarray(self) -> int:
        """Rows available to data (excludes the reserved swap pool)."""
        return self.rows_per_subarray - self.reserved_rows_per_subarray

    @property
    def row_bits(self) -> int:
        """Bits stored in one row."""
        return self.row_bytes * 8

    # ------------------------------------------------------------------
    # Multi-channel (system-level) geometry
    # ------------------------------------------------------------------
    @cached_property
    def system_rows(self) -> int:
        """Rows across all channels (the serving address space)."""
        return self.channels * self.total_rows

    @property
    def system_capacity_bytes(self) -> int:
        """Capacity across all channels."""
        return self.channels * self.capacity_bytes

    def channel_config(self) -> "DRAMConfig":
        """The geometry of one channel of this system (``channels=1``).

        This is what :class:`~repro.serving.ShardedMemorySystem` hands
        each per-channel :class:`~repro.dram.device.DRAMDevice`; for a
        single-channel config it is the config itself, so nothing about
        the paper's experiments changes.
        """
        if self.channels == 1:
            return self
        return replace(self, channels=1)

    def with_channels(self, channels: int) -> "DRAMConfig":
        """This geometry widened (or narrowed) to ``channels`` channels."""
        if channels == self.channels:
            return self
        return replace(self, channels=channels)

    def describe(self) -> str:
        """One-line human-readable geometry summary."""
        cap = self.system_capacity_bytes
        if cap >= GIB:
            cap_text = f"{cap / GIB:g}GB"
        elif cap >= MIB:
            cap_text = f"{cap / MIB:g}MB"
        else:
            cap_text = f"{cap / KIB:g}KB"
        prefix = f"{self.channels} channels x " if self.channels > 1 else ""
        return (
            f"{self.name}: {cap_text}, {prefix}{self.banks} banks x "
            f"{self.subarrays_per_bank} subarrays x "
            f"{self.rows_per_subarray} rows x {self.row_bytes}B"
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def tiny() -> "DRAMConfig":
        """Small geometry for unit tests (256 rows, 256B rows)."""
        return DRAMConfig(
            name="tiny",
            banks=2,
            subarrays_per_bank=2,
            rows_per_subarray=64,
            row_bytes=256,
            reserved_rows_per_subarray=4,
        )

    @staticmethod
    def small() -> "DRAMConfig":
        """Experiment geometry: big enough to hold a quantized DNN."""
        return DRAMConfig(
            name="small",
            banks=4,
            subarrays_per_bank=8,
            rows_per_subarray=128,
            row_bytes=1 * KIB,
            reserved_rows_per_subarray=8,
        )

    @staticmethod
    def ddr4_32gb() -> "DRAMConfig":
        """The paper's Table I configuration: 32GB, 16-bank DDR4."""
        return DRAMConfig(
            name="DDR4-32GB",
            banks=16,
            subarrays_per_bank=512,
            rows_per_subarray=512,
            row_bytes=8 * KIB,
            reserved_rows_per_subarray=8,
        )
