"""T-BFA: the targeted bit-flip attack of Rakin et al. (arXiv:2007.12336).

Where BFA maximises the victim's loss indiscriminately, T-BFA *steers*
it.  The paper defines three regimes, all reproduced here as
objectives of the shared :class:`~repro.attacks.search.BitSearch`
driver, which *minimises* them:

* **N-to-1** -- every input, whatever its true class, should classify
  as the attacker's target class;
* **1-to-1** -- inputs of one source class should classify as the
  target class, with no constraint on the rest;
* **1-to-1 stealthy** -- the source class is redirected *while the
  accuracy on every other class is explicitly preserved*, so the
  hijack stays invisible to aggregate accuracy monitoring.

Each regime is a weighted sum of cross-entropy terms
(:class:`~repro.attacks.session.SearchTerm`) plus the inputs its
attack success rate (ASR) is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .hammer import HammerDriver
from .registry import AttackContext, register_attack
from .search import BitSearch, SearchConfig
from .session import SearchTerm

__all__ = ["TBFAConfig", "TBFAttack", "TBFA_VARIANTS"]

TBFA_VARIANTS = ("n-to-1", "1-to-1", "1-to-1-stealthy")


@dataclass(frozen=True)
class TBFAConfig(SearchConfig):
    """Hyper-parameters of one targeted attack run."""

    variant: str = "n-to-1"
    target_class: int = 0
    source_class: int = 1
    #: Weight of the keep-everything-else-correct term (stealthy mode).
    stealth_weight: float = 1.0
    #: Stop once the attack success rate reaches this level (percent).
    stop_at_asr: float | None = None


class TBFAttack(BitSearch):
    """The three T-BFA regimes as objectives of the shared driver."""

    maximize = False

    def __init__(
        self,
        qmodel: QuantizedModel,
        dataset: Dataset,
        config: TBFAConfig | None = None,
        store: WeightStore | None = None,
        driver: HammerDriver | None = None,
        before_execute=None,
    ):
        config = config or TBFAConfig()
        if config.variant not in TBFA_VARIANTS:
            raise ValueError(
                f"unknown T-BFA variant {config.variant!r}; "
                f"choose from {TBFA_VARIANTS}"
            )
        target = config.target_class
        if not 0 <= target < dataset.num_classes:
            raise ValueError(f"target class {target} out of range")
        super().__init__(
            qmodel,
            dataset,
            config,
            store=store,
            driver=driver,
            before_execute=before_execute,
        )
        x, y = self.attack_x, self.attack_y

        if config.variant == "n-to-1":
            terms = [SearchTerm(x, np.full(y.shape, target, dtype=y.dtype))]
            # Success = non-target inputs dragged into the target class.
            asr_mask = dataset.test_y != target
        else:
            source = config.source_class
            if source == target:
                raise ValueError("source and target class must differ")
            src = y == source
            if not src.any():
                raise ValueError(
                    f"attack batch has no samples of source class {source}"
                )
            terms = [
                SearchTerm(
                    x[src], np.full(int(src.sum()), target, dtype=y.dtype)
                )
            ]
            if config.variant == "1-to-1-stealthy" and (~src).any():
                terms.append(
                    SearchTerm(x[~src], y[~src], weight=config.stealth_weight)
                )
            asr_mask = dataset.test_y == source

        self.terms = tuple(terms)
        self.asr_inputs = dataset.test_x[asr_mask][: config.eval_limit]
        self.asr_target = target
        self.stop_at_asr = config.stop_at_asr


def _build_tbfa(variant: str, ctx: AttackContext, **params) -> TBFAttack:
    params.setdefault("engine", ctx.engine)
    config = TBFAConfig(
        variant=variant,
        attack_batch=ctx.attack_batch,
        seed=ctx.seed,
        **params,
    )
    return TBFAttack(
        ctx.qmodel,
        ctx.dataset,
        config,
        store=ctx.store,
        driver=ctx.driver,
        before_execute=ctx.before_execute,
    )


@register_attack(
    "tbfa-n-to-1",
    description="T-BFA: classify every input as the target class",
    targeted=True,
)
def _tbfa_n_to_1(ctx: AttackContext, **params) -> TBFAttack:
    return _build_tbfa("n-to-1", ctx, **params)


@register_attack(
    "tbfa-1-to-1",
    description="T-BFA: redirect one source class to the target class",
    targeted=True,
)
def _tbfa_1_to_1(ctx: AttackContext, **params) -> TBFAttack:
    return _build_tbfa("1-to-1", ctx, **params)


@register_attack(
    "tbfa-stealthy",
    description=(
        "T-BFA: redirect one source class while preserving the rest"
    ),
    targeted=True,
)
def _tbfa_stealthy(ctx: AttackContext, **params) -> TBFAttack:
    return _build_tbfa("1-to-1-stealthy", ctx, **params)
