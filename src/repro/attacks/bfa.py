"""BFA: the progressive bit search of Rakin et al. (ICCV 2019).

The untargeted family of :class:`~repro.attacks.search.BitSearch`: the
objective is the victim's cross-entropy loss on the attack batch (the
paper samples 128 test images), and the search *maximises* it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .hammer import HammerDriver
from .registry import AttackContext, register_attack
from .search import BitSearch, SearchConfig
from .session import SearchTerm

__all__ = ["BFAConfig", "ProgressiveBitSearch"]


@dataclass(frozen=True)
class BFAConfig(SearchConfig):
    """Attack hyper-parameters."""

    attack_batch: int = 128


class ProgressiveBitSearch(BitSearch):
    """The BFA attacker."""

    maximize = True

    def __init__(
        self,
        qmodel: QuantizedModel,
        dataset: Dataset,
        config: SearchConfig | None = None,
        store: WeightStore | None = None,
        driver: HammerDriver | None = None,
        repair=None,
        before_execute=None,
    ):
        super().__init__(
            qmodel,
            dataset,
            config or BFAConfig(),
            store=store,
            driver=driver,
            repair=repair,
            before_execute=before_execute,
        )
        self.terms = (SearchTerm(self.attack_x, self.attack_y),)


@register_attack(
    "bfa",
    description="Untargeted progressive bit search (Rakin et al. 2019)",
)
def _bfa(ctx: AttackContext, **params) -> ProgressiveBitSearch:
    params.setdefault("engine", ctx.engine)
    config = BFAConfig(attack_batch=ctx.attack_batch, seed=ctx.seed, **params)
    return ProgressiveBitSearch(
        ctx.qmodel,
        ctx.dataset,
        config,
        store=ctx.store,
        driver=ctx.driver,
        before_execute=ctx.before_execute,
    )
