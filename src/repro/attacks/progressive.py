"""Multi-round BFA: a persistent attacker vs DRAM-Locker's swap windows.

:class:`~repro.attacks.bfa.ProgressiveBitSearch` gives up on a bit the
moment a campaign is blocked -- its ``visited`` set exists so the
search never oscillates.  A real co-located attacker is more patient:
blocked targets stay valuable, and DRAM-Locker's only failure surface
is the *unlock-SWAP window* that privileged tenant traffic opens (and
that the process-variation failure rate occasionally leaves ajar).
This attack models that patience on the driver's public
:meth:`~repro.attacks.search.BitSearch.step` (a fresh target) and
:meth:`~repro.attacks.search.BitSearch.attempt` (a retry):

* the campaign is split into **rounds**; each round first retries the
  highest-value flips that previous rounds failed to land, then spends
  the rest of its budget on fresh gradient-ranked targets;
* before every retry the attacker *interleaves with the swap machinery*:
  it waits for (i.e. triggers, via the ``tenant_hook``) privileged
  accesses next to the target, so the retry coincides with an unlock
  window rather than hammering a locked row again;
* a target is abandoned only after ``retry_limit`` failed rounds.

The tenant traffic itself is not the attacker's to shape: it is the
co-located victim workload, modelled by the serving subsystem's
:class:`~repro.serving.GuardRowTenant` (one privileged guard-row access
per campaign) -- the same stream the cross-layer pipeline and the
serving matrix's victim owner issue.  ``tenant_hook`` accepts any
callable with that ``(tensor, index, bit)`` signature.

Against an unprotected system this degenerates to plain BFA; against
DRAM-Locker with a non-zero SWAP failure rate it converts the paper's
9.6 % exposure probability into eventual flips, which is exactly the
"attacker needs ever more time" trade-off of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .bfa import ProgressiveBitSearch
from .hammer import HammerDriver
from .registry import AttackContext, register_attack
from .search import SearchConfig, SearchResult

__all__ = ["MultiRoundConfig", "MultiRoundResult", "MultiRoundBFA"]


@dataclass(frozen=True)
class MultiRoundConfig(SearchConfig):
    """Hyper-parameters of the multi-round campaign."""

    rounds: int = 3
    #: How many failed rounds before a target is abandoned.
    retry_limit: int = 2
    #: Tenant accesses issued immediately before each retry -- the
    #: privileged traffic whose unlock-SWAPs open the attack window.
    tenant_accesses_per_retry: int = 2


@dataclass
class MultiRoundResult(SearchResult):
    """Accuracy trajectory plus the per-round retry bookkeeping."""

    #: One summary dict per round: attempts, landed, retries, pending.
    rounds: list[dict] = field(default_factory=list)

    @property
    def retried_flips(self) -> int:
        return sum(r["retries"] for r in self.rounds)


class MultiRoundBFA(ProgressiveBitSearch):
    """Rounds of progressive bit search with swap-window retries."""

    def __init__(
        self,
        qmodel: QuantizedModel,
        dataset: Dataset,
        config: MultiRoundConfig | None = None,
        store: WeightStore | None = None,
        driver: HammerDriver | None = None,
        tenant_hook=None,
    ):
        """``tenant_hook``: the co-located tenant stream invoked before
        each retry -- typically a
        :class:`~repro.serving.GuardRowTenant` bound to the victim's
        store and controller."""
        super().__init__(
            qmodel,
            dataset,
            config or MultiRoundConfig(),
            store=store,
            driver=driver,
        )
        self.tenant_hook = tenant_hook
        #: (tensor, index, bit) -> failed attempts so far.
        self._pending: dict[tuple[str, int, int], int] = {}

    # ------------------------------------------------------------------
    # Attack loop
    # ------------------------------------------------------------------
    def run(self, iterations: int) -> MultiRoundResult:
        """``iterations`` = total flip attempts across all rounds."""
        config = self.config
        result = MultiRoundResult()
        # Spread the attempt budget over the rounds exactly: equal
        # shares with the remainder in the last round; when the budget
        # is smaller than the round count, early rounds get 0 attempts.
        per_round = iterations // config.rounds
        budgets = [per_round] * (config.rounds - 1) + [
            iterations - per_round * (config.rounds - 1)
        ]
        iteration = 0
        for round_index, budget in enumerate(budgets):
            landed = retries = attempts = 0
            # Retries first: blocked targets from previous rounds, most
            # recently blocked last (they ranked highest most recently).
            retry_queue = list(self._pending)
            while budget > 0 and retry_queue:
                target = retry_queue.pop(0)
                iteration += 1
                attempts += 1
                retries += 1
                budget -= 1
                if self.tenant_hook is not None:
                    # Interleave with the locker: privileged accesses
                    # right before the campaign force unlock-SWAPs on
                    # the guard rows, so the retry rides the swap
                    # window (or its failure).
                    for _ in range(config.tenant_accesses_per_retry):
                        self.tenant_hook(*target)
                record = self.attempt(iteration, target)
                result.record(record)
                if record.executed:
                    landed += 1
                    del self._pending[target]
                else:
                    self._pending[target] += 1
                    if self._pending[target] >= config.retry_limit:
                        del self._pending[target]
            # Fresh gradient-ranked targets for the rest of the budget,
            # until no feasible bit is left (pending retries go on in
            # the next round).
            while budget > 0:
                record = self.step(iteration + 1)
                if record is None:
                    break
                iteration += 1
                attempts += 1
                budget -= 1
                result.record(record)
                if record.executed:
                    landed += 1
                else:
                    target = (record.tensor, record.flat_index, record.bit)
                    self._pending[target] = 1
            result.rounds.append(
                {
                    "round": round_index + 1,
                    "attempts": attempts,
                    "landed": landed,
                    "retries": retries,
                    "pending_after": len(self._pending),
                }
            )
        return result


@register_attack(
    "multi-round-bfa",
    description=(
        "Progressive BFA in rounds that retries blocked flips inside "
        "DRAM-Locker's unlock-SWAP windows"
    ),
)
def _multi_round(ctx: AttackContext, **params) -> MultiRoundBFA:
    params.setdefault("engine", ctx.engine)
    config = MultiRoundConfig(
        attack_batch=ctx.attack_batch, seed=ctx.seed, **params
    )
    return MultiRoundBFA(
        ctx.qmodel,
        ctx.dataset,
        config,
        store=ctx.store,
        driver=ctx.driver,
        tenant_hook=ctx.before_execute,
    )
