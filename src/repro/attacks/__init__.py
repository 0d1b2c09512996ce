"""Adversarial DNN weight attacks executed through the DRAM simulator.

Every attack family registers itself with :mod:`repro.attacks.registry`
at import time, so this package import is what populates ``ATTACKS``.
"""

from .backdoor import BackdoorConfig, HammerableProfile, RowhammerBackdoor
from .bfa import BFAConfig, ProgressiveBitSearch
from .hammer import HammerDriver, HammerOutcome
from .progressive import MultiRoundBFA, MultiRoundConfig, MultiRoundResult
from .pta import PagedWeights, PageTableAttack, PTARecord, PTAResult
from .random_attack import RandomAttack
from .registry import (
    ATTACKS,
    Attack,
    AttackContext,
    AttackSpec,
    available_attacks,
    build_attack,
    register_attack,
    run_attack,
)
from .search import BitSearch, FlipRecord, SearchConfig, SearchResult
from .session import SEARCH_ENGINES, SearchSession, SearchTerm, SessionStats
from .tbfa import TBFAConfig, TBFAttack, TBFA_VARIANTS

__all__ = [
    "ATTACKS",
    "Attack",
    "AttackContext",
    "AttackSpec",
    "BFAConfig",
    "BackdoorConfig",
    "BitSearch",
    "FlipRecord",
    "HammerDriver",
    "HammerOutcome",
    "HammerableProfile",
    "MultiRoundBFA",
    "MultiRoundConfig",
    "MultiRoundResult",
    "PTARecord",
    "PTAResult",
    "PagedWeights",
    "PageTableAttack",
    "ProgressiveBitSearch",
    "RandomAttack",
    "RowhammerBackdoor",
    "SEARCH_ENGINES",
    "SearchConfig",
    "SearchResult",
    "SearchSession",
    "SearchTerm",
    "SessionStats",
    "TBFAConfig",
    "TBFAttack",
    "TBFA_VARIANTS",
    "available_attacks",
    "build_attack",
    "register_attack",
    "run_attack",
]
