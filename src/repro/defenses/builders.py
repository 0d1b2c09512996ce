"""The defense name tables: what each name installs, per operating
point.  :func:`repro.defenses.stack.build_stack` is their one reader.

Two tables, two operating points:

* ``DEFENSE_BUILDERS`` -- tuned for the TRH=400 per-ACT campaign of
  the ``defense_campaign`` runner / ``examples/compare_defenses.py``.
* ``DEFENDED_HAMMER_DEFENSES`` -- thresholds left unset so each
  defense derives its operating point from the device's TRH at attach
  time (the defended-hammer workload, the serving matrix and the
  attack cells).

An entry is the factory of the name's ``Defense`` instance, or ``None``
when the name installs none: ``"None"`` runs undefended, and
``"DRAM-Locker"`` is installed through the controller's locker slot.
"""

from __future__ import annotations

from typing import Any, Callable

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

__all__ = ["DEFENSE_BUILDERS", "DEFENDED_HAMMER_DEFENSES"]

#: Baseline-defense factories for the TRH=400 per-ACT campaign.
DEFENSE_BUILDERS: dict[str, Callable[[], Any] | None] = {
    "None": None,
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
    "DRAM-Locker": None,
}

#: Defense factories for the defended-hammer workload, the serving
#: matrix and the attack cells: thresholds unset, derived from the
#: device TRH at attach time; PARA at its published ~1/TRH probability.
DEFENDED_HAMMER_DEFENSES: dict[str, Callable[[], Any] | None] = {
    "None": None,
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
    "DRAM-Locker": None,
}
