"""The stable public API of the DRAM-Locker reproduction.

Everything a downstream user needs to protect a workload:

>>> from repro.core import build_stack
>>> device, locker, _, controller = build_stack("DRAM-Locker", trh=1000)
>>> plan = locker.protect([100, 101])     # lock the aggressor rows
>>> controller.hammer(plan.data_rows and 99).pop().blocked  # doctest: +SKIP

Subpackages expose the deeper layers (``repro.dram``, ``repro.locker``,
``repro.attacks``, ``repro.eval``, ...).
"""

from ..attacks import (
    BFAConfig,
    HammerDriver,
    PageTableAttack,
    PagedWeights,
    ProgressiveBitSearch,
    RandomAttack,
)
from ..circuits import MonteCarlo, copy_error_rate
from ..controller import Kind, MemRequest, MemoryController, Sequence
from ..defenses import (
    Defense,
    Graphene,
    Hydra,
    NoDefense,
    PARA,
    RRS,
    SRS,
    Shadow,
    TRR,
    TWiCE,
    format_table1,
)
from ..defenses.stack import build_stack
from ..dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from ..eval import Scale, build_system, build_victim
from ..locker import DRAMLocker, LockMode, LockTable, LockerConfig, plan_protection
from ..nn import (
    Model,
    QuantizedModel,
    WeightStore,
    resnet20,
    synthetic_cifar10,
    synthetic_cifar100,
    train,
    vgg11,
)
from ..vm import MMU, PageTable

__all__ = [
    "BFAConfig",
    "DRAMConfig",
    "DRAMDevice",
    "DRAMLocker",
    "Defense",
    "Graphene",
    "HammerDriver",
    "Hydra",
    "Kind",
    "LockMode",
    "LockTable",
    "LockerConfig",
    "MMU",
    "MemRequest",
    "MemoryController",
    "Model",
    "MonteCarlo",
    "NoDefense",
    "PARA",
    "PageTable",
    "PageTableAttack",
    "PagedWeights",
    "ProgressiveBitSearch",
    "QuantizedModel",
    "RRS",
    "RandomAttack",
    "SRS",
    "Scale",
    "Sequence",
    "Shadow",
    "TRR",
    "TWiCE",
    "VulnerabilityMap",
    "WeightStore",
    "build_stack",
    "build_system",
    "build_victim",
    "copy_error_rate",
    "format_table1",
    "plan_protection",
    "resnet20",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "train",
    "vgg11",
]
