"""The one place a defense name becomes hardware.

:func:`build_stack` wires a device, its controller and whatever the
name installs: a :class:`~repro.locker.DRAMLocker` for
``"DRAM-Locker"``, no defense for ``"None"``, and otherwise the
instance the name table (:mod:`repro.defenses.builders`) makes.  Every
attack cell, serving channel, defense campaign and ablation builds its
DRAM through it.  :func:`place_model_victim` then puts a quantized
model's weights on such a stack, behind whatever it installed.

:mod:`repro.defenses` does not import this module: the controller
imports :mod:`repro.defenses.base`, so the controller import here
would close a cycle through that package's ``__init__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from ..controller.controller import MemoryController
from ..dram.config import DRAMConfig
from ..dram.device import DRAMDevice
from ..dram.vulnerability import VulnerabilityMap
from ..locker.locker import DRAMLocker, LockerConfig
from ..locker.planner import LockMode
from .base import Defense
from .builders import DEFENDED_HAMMER_DEFENSES

if TYPE_CHECKING:
    from ..nn.quant import QuantizedModel
    from ..nn.storage import WeightStore

__all__ = ["DefendedStack", "build_stack", "place_model_victim"]


class DefendedStack(NamedTuple):
    """One device and what a defense name installed on it."""

    device: DRAMDevice
    locker: DRAMLocker | None
    defense: Defense | None
    controller: MemoryController


def build_stack(
    defense: str,
    builders: Mapping[str, Callable[[], Defense] | None] = DEFENDED_HAMMER_DEFENSES,
    *,
    config: DRAMConfig | None = None,
    trh: int | None = None,
    seed: int = 0,
    weak_cell_fraction: float = 0.0,
    half_double_factor: float | None = None,
    locker_config: LockerConfig | None = None,
    engine: str = "bulk",
) -> DefendedStack:
    """A device (``config``, default :meth:`DRAMConfig.small`) and a
    controller running ``engine``, defended as ``builders`` names it.

    ``"DRAM-Locker"`` installs a locker built from ``locker_config``.
    A name whose table entry is ``None`` (``"None"``, and
    ``"DRAM-Locker"`` itself) installs no ``Defense`` instance; any
    other entry is called once for the instance.  A name the table
    lacks raises ``ValueError``.  ``seed`` and ``weak_cell_fraction``
    shape the device's intrinsic weak cells.
    """
    if defense not in builders:
        raise ValueError(
            f"unknown defense {defense!r}; known: {', '.join(builders)}"
        )
    config = config or DRAMConfig.small()
    device = DRAMDevice(
        config,
        vulnerability=VulnerabilityMap(
            config, seed=seed, weak_cell_fraction=weak_cell_fraction
        ),
        trh=trh,
        half_double_factor=half_double_factor,
    )
    locker = None
    if defense == "DRAM-Locker":
        locker = DRAMLocker(device, locker_config or LockerConfig())
    factory = builders[defense]
    instance = factory() if factory is not None else None
    controller = MemoryController(
        device, defense=instance, locker=locker, engine=engine
    )
    return DefendedStack(device, locker, instance, controller)


def place_model_victim(stack: Any, qmodel: QuantizedModel) -> WeightStore:
    """Place ``qmodel``'s weights on ``stack``'s device, one guard row
    between data rows, and protect them with what the stack installed.

    ``stack`` is a :class:`DefendedStack` or any record with its
    ``device``, ``locker`` and ``defense``.  A locker locks every data
    row's neighbours.  A defense binds to the weight rows: checksum
    defenses snapshot them (RADAR), priority defenses rank them
    most-critical-first (DNN-Defender), and the store's syncs and
    write-backs follow the defense's row translation (a permuting
    defense relocates threatened weight rows).
    """
    # Imported here, not above: the serving stack imports this module,
    # and a run without a model victim never loads ``repro.nn``.
    from ..nn.storage import WeightStore

    store = WeightStore(stack.device, qmodel, guard_rows=True)
    if stack.locker is not None:
        plan = stack.locker.protect(store.data_rows, mode=LockMode.ADJACENT)
        assert plan.is_complete, "guard-row layout should have no holes"
    defense = stack.defense
    if defense is not None:
        if hasattr(defense, "bind_store"):
            defense.bind_store(store)
        if hasattr(defense, "prioritize"):
            defense.prioritize(store.data_rows)
        store.row_source = defense.translate
    return store
