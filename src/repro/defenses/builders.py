"""Canonical defense-factory tables, shared across the stack: the
scenario runners (:mod:`repro.eval.runners`), the serving facade
(`repro.serving.serve`) and the attack matrix read them here.

Two tables, two operating points:

* ``DEFENSE_BUILDERS`` -- tuned for the TRH=400 per-ACT campaign of
  the ``defense_campaign`` runner / ``examples/compare_defenses.py``.
* ``DEFENDED_HAMMER_DEFENSES`` -- thresholds left unset so each
  defense derives its operating point from the device's TRH at attach
  time (the defended-hammer workload and the serving matrix).

``"DRAM-Locker"`` maps to ``None`` in both: the locker is not a
``Defense`` instance, it is installed through the controller's locker
slot, which :func:`resolve_serving_defense` encodes.
"""

from __future__ import annotations

from typing import Any, Callable

from .base import NoDefense
from .counters import CounterPerRow, CounterTree
from .dnn_defender import DNNDefender
from .graphene import Graphene
from .hydra import Hydra
from .para import PARA
from .radar import Radar
from .rrs import RRS, SRS
from .shadow import Shadow
from .trr import TRR
from .twice import TWiCE

__all__ = [
    "DEFENSE_BUILDERS",
    "DEFENDED_HAMMER_DEFENSES",
    "resolve_serving_defense",
]

#: Baseline-defense factories for the TRH=400 per-ACT campaign.
DEFENSE_BUILDERS: dict[str, Callable[[], Any] | None] = {
    "None": lambda: NoDefense(),
    "PARA": lambda: PARA(probability=0.05),
    "TRR": lambda: TRR(table_entries=16),
    "Graphene": lambda: Graphene(table_entries=64),
    "Hydra": lambda: Hydra(group_size=16),
    "TWiCE": lambda: TWiCE(),
    "Counter/Row": lambda: CounterPerRow(),
    "CounterTree": lambda: CounterTree(split_threshold=8),
    "RRS": lambda: RRS(seed=1),
    "SRS": lambda: SRS(seed=1),
    "SHADOW": lambda: Shadow(shuffle_period=100, seed=1),
    "RADAR": lambda: Radar(scrub_interval=200),
    "DNN-Defender": lambda: DNNDefender(hot_threshold=100, seed=1),
    "DRAM-Locker": None,  # handled via the locker, not a Defense
}

#: Defense factories for the defended-hammer workload and the serving
#: matrix: thresholds unset, derived from the device TRH at attach
#: time; PARA at its published ~1/TRH probability.
DEFENDED_HAMMER_DEFENSES: dict[str, Callable[[], Any] | None] = {
    "None": lambda: NoDefense(),
    "PARA": lambda: PARA(probability=0.001),
    "TRR": lambda: TRR(table_entries=16),
    "Graphene": lambda: Graphene(table_entries=64),
    "Hydra": lambda: Hydra(group_size=16),
    "TWiCE": lambda: TWiCE(),
    "Counter/Row": lambda: CounterPerRow(),
    "CounterTree": lambda: CounterTree(),
    "RRS": lambda: RRS(seed=1),
    "SRS": lambda: SRS(seed=1),
    "SHADOW": lambda: Shadow(shuffle_period=1000, seed=1),
    "RADAR": lambda: Radar(),
    "DNN-Defender": lambda: DNNDefender(seed=1),
    "DRAM-Locker": None,  # handled via the locker, not a Defense
}


def resolve_serving_defense(
    name: str,
) -> tuple[bool, Callable[[], Any] | None]:
    """Resolve a serving defense name to ``(protected, builder)``.

    ``protected`` says whether per-channel DRAM-Lockers are installed;
    ``builder`` is the per-channel baseline-defense factory (or
    ``None``).  ``"DRAM-Locker"`` -> lockers, no baseline;
    ``"None"`` -> neither; any other name looks up
    :data:`DEFENDED_HAMMER_DEFENSES` (the serving operating point).
    """
    if name == "DRAM-Locker":
        return True, None
    if name == "None":
        return False, None
    builder = DEFENDED_HAMMER_DEFENSES.get(name)
    if builder is None:
        raise ValueError(f"unknown serving defense {name!r}")
    return False, builder
