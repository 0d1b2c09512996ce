"""RowHammer mitigation baselines and the Table I overhead model."""

from .base import Defense, DefenseAction, NoDefense, OverheadReport, RunAction
from .counters import CounterPerRow, CounterTree
from .dnn_defender import DNNDefender
from .graphene import Graphene
from .hydra import Hydra
from .para import PARA
from .permutation import RowPermutation
from .ppim import PPIM
from .radar import Radar, RadarGroup
from .rrs import RRS, SRS
from .shadow import Shadow
from .trackers import MisraGries
from .trr import TRR
from .twice import TWiCE
from .overhead import dram_locker_overhead, format_table1, table1_reports
from .builders import DEFENSE_BUILDERS, DEFENDED_HAMMER_DEFENSES

__all__ = [
    "CounterPerRow",
    "DEFENSE_BUILDERS",
    "DEFENDED_HAMMER_DEFENSES",
    "CounterTree",
    "DNNDefender",
    "Defense",
    "DefenseAction",
    "Graphene",
    "Hydra",
    "MisraGries",
    "NoDefense",
    "OverheadReport",
    "PARA",
    "PPIM",
    "RRS",
    "Radar",
    "RadarGroup",
    "RowPermutation",
    "RunAction",
    "SRS",
    "Shadow",
    "TRR",
    "TWiCE",
    "dram_locker_overhead",
    "format_table1",
    "table1_reports",
]
