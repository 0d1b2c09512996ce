"""Random bit-flip baseline (Fig. 1(a)'s comparison curve).

Flips uniformly random bits of uniformly random weights -- the level of
damage an attacker achieves with no gradient information, and the level
the paper says DRAM-Locker downgrades a *targeted* attacker to.
"""

from __future__ import annotations

import numpy as np

from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .hammer import HammerDriver, execute_weight_flip
from .registry import AttackContext, register_attack
from .search import FlipRecord, SearchResult
from .session import SearchSession, SearchTerm

__all__ = ["RandomAttack"]


class RandomAttack:
    """Uniformly random weight-bit flipper."""

    def __init__(
        self,
        qmodel: QuantizedModel,
        dataset: Dataset,
        seed: int = 0,
        store: WeightStore | None = None,
        driver: HammerDriver | None = None,
        eval_limit: int = 512,
    ):
        if (store is None) != (driver is None):
            raise ValueError("provide both store and driver, or neither")
        self.qmodel = qmodel
        self.dataset = dataset
        self.rng = np.random.default_rng(seed)
        self.store = store
        self.driver = driver
        self.eval_limit = eval_limit
        # Measured through a session: a blocked flip leaves the weights
        # as they were, so a locked run's probes are store hits, and a
        # landed one recomputes only the layers downstream of the flip.
        # The probe sets are sliced once, as the session keys them.
        self.session = SearchSession(qmodel)
        self._loss_terms = (
            SearchTerm(dataset.test_x[:128], dataset.test_y[:128]),
        )
        self._eval_x = dataset.test_x[:eval_limit]
        self._eval_y = dataset.test_y[:eval_limit]
        sizes = {name: t.q.size for name, t in qmodel.tensors.items()}
        self._names = list(sizes)
        total = sum(sizes.values())
        self._weights = np.array([sizes[n] / total for n in self._names])

    def run(self, iterations: int) -> SearchResult:
        result = SearchResult()
        for iteration in range(1, iterations + 1):
            name = self.rng.choice(self._names, p=self._weights)
            tensor = self.qmodel.tensors[name]
            index = int(self.rng.integers(tensor.q.size))
            bit = int(self.rng.integers(8))
            executed, blocked = execute_weight_flip(
                self.qmodel, self.store, self.driver, name, index, bit
            )
            if self.store is not None:
                self.store.sync_model()
            loss = self.session.objective(self._loss_terms)
            accuracy = self.session.accuracy(self._eval_x, self._eval_y)
            result.record(
                FlipRecord(
                    iteration=iteration,
                    tensor=name,
                    flat_index=index,
                    bit=bit,
                    executed=executed,
                    objective_after=loss,
                    accuracy_after=accuracy,
                    activations_blocked=blocked,
                )
            )
        return result


@register_attack(
    "random",
    description="Uniformly random weight-bit flips (Fig. 1(a) baseline)",
)
def _random(ctx: AttackContext, **params) -> RandomAttack:
    return RandomAttack(
        ctx.qmodel,
        ctx.dataset,
        seed=ctx.seed,
        store=ctx.store,
        driver=ctx.driver,
        **params,
    )
