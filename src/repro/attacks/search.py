"""BitSearch: the one progressive bit-search driver of every family.

BFA (Rakin et al., ICCV 2019), the three T-BFA regimes
(arXiv:2007.12336), the hammerable-bit backdoor (arXiv:2110.07683) and
multi-round BFA all run the same loop.  Per iteration:

1. **rank** -- gradients of the objective w.r.t. the (dequantized)
   weights; inside each layer, the ``candidates_per_layer`` weights
   with the largest ``|grad|`` (the session's gradient leaders, read
   from its store when the weight state was searched before), and for
   each of their stored bits the
   *analytic* objective change ``grad * delta_w`` a flip would cause
   (``delta_w`` follows from two's-complement int8 arithmetic -- MSB
   flips move a weight by half the dynamic range).  The best
   ``evals_per_layer`` feasible bits of each layer are kept;
2. **choose** -- the ``layers_to_evaluate`` best of those get a real
   forward pass (flip, measure, revert -- through the shared
   :class:`~repro.attacks.session.SearchSession`), and the one that
   moves the objective furthest in the search's direction is committed;
3. **execute** -- directly on the quantized payload (pure software
   ablation) or *through the DRAM simulator* as a RowHammer campaign
   against the weight store;
4. **measure** -- the objective, the attack success rate (ASR,
   targeted families only) and the accuracy on the probe set.

Step 3 is where DRAM-Locker bites: a blocked campaign wastes the whole
iteration, which is exactly the "attacker needs ever more iterations"
effect of the paper's Fig. 8.

A family supplies only its objective (weighted cross-entropy
:class:`~repro.attacks.session.SearchTerm` s), its direction
(``maximize``) and, optionally, a feasibility constraint, a repair hook
and ASR inputs.  A bit is never chosen twice: flipping one back would
just undo progress (and oscillate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .hammer import HammerDriver, execute_weight_flip
from .session import Candidate, SearchSession, SearchTerm

__all__ = [
    "BitSearch",
    "FlipConstraint",
    "FlipRecord",
    "SearchConfig",
    "SearchResult",
    "flip_loss_estimates",
]

#: Feasibility predicate over ``(tensor, flat_index, bit, current_bit)``.
FlipConstraint = Callable[[str, int, int, int], bool]


def flip_loss_estimates(
    q: np.ndarray, scale: float, grad: np.ndarray
) -> np.ndarray:
    """Analytic objective change ``grad * delta_w`` of flipping each
    stored bit of each weight: a ``(len(q), 8)`` array under
    two's-complement int8 arithmetic (an MSB flip moves a weight by
    half the dynamic range)."""
    q16 = np.asarray(q, dtype=np.int16)
    flipped = q16[:, None] ^ (1 << np.arange(8))[None, :]
    flipped = np.where(flipped >= 128, flipped - 256, flipped)
    delta_w = (flipped - q16[:, None]) * scale
    return grad[:, None] * delta_w


@dataclass(frozen=True)
class SearchConfig:
    """Hyper-parameters every bit-search family shares."""

    attack_batch: int = 64
    candidates_per_layer: int = 10
    #: Per layer, how many top-estimate candidates get a real forward pass.
    evals_per_layer: int = 3
    layers_to_evaluate: int = 6
    #: Cap on test images used for the per-iteration accuracy probe.
    eval_limit: int = 512
    #: Candidate-evaluation engine: "suffix" (activation-cached, the
    #: default) or "full" (the per-candidate full-forward reference).
    #: Outcomes are bit-identical; only wall-clock differs.
    engine: str = "suffix"
    seed: int = 0


@dataclass
class FlipRecord:
    """One committed (or attempted) bit flip."""

    iteration: int
    tensor: str
    flat_index: int
    bit: int
    executed: bool
    objective_after: float
    accuracy_after: float
    activations_blocked: int = 0
    #: Attack success rate after the flip (targeted searches only).
    asr_after: float | None = None


@dataclass
class SearchResult:
    """Objective / accuracy (and, targeted, ASR) trajectories of a run."""

    accuracies: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    flips: list[FlipRecord] = field(default_factory=list)
    #: ASR trajectory of a targeted run; ``None`` for an untargeted one.
    asr: list[float] | None = None

    def record(self, flip: FlipRecord) -> None:
        self.flips.append(flip)
        self.objectives.append(flip.objective_after)
        self.accuracies.append(flip.accuracy_after)
        if self.asr is not None:
            self.asr.append(flip.asr_after)

    @property
    def executed_flips(self) -> int:
        return sum(1 for flip in self.flips if flip.executed)

    @property
    def final_asr(self) -> float:
        return self.asr[-1] if self.asr else 0.0

    def iterations_to_reach(self, accuracy_pct: float) -> int | None:
        """First iteration at which accuracy fell to/under the target."""
        for index, accuracy in enumerate(self.accuracies):
            if accuracy <= accuracy_pct:
                return index + 1
        return None


class BitSearch:
    """Rank / choose / execute / measure over a family's objective.

    Subclasses set ``terms`` (and, targeted, ``asr_inputs`` /
    ``asr_target`` / ``stop_at_asr``; constrained, ``constraint``)
    after ``BitSearch.__init__``, which has drawn the attack batch
    ``attack_x`` / ``attack_y`` from ``rng``.
    """

    #: The search direction, fixed by each family: ``True`` climbs the
    #: objective (BFA's loss), ``False`` descends it (the targeted
    #: families).
    maximize: bool

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
        """``store``/``driver`` route flips through the DRAM simulator;
        both ``None`` means a pure software attack (Fig. 1(a) mode).
        ``repair`` is an optional post-flip model repair hook (the
        weight-reconstruction defense of Table II).  ``before_execute``
        is called with the chosen ``(tensor, index, bit)`` right before
        the RowHammer campaign -- the protected-system experiments use
        it to interleave the background tenant traffic whose unlock
        SWAPs are DRAM-Locker's failure surface."""
        if (store is None) != (driver is None):
            raise ValueError("provide both store and driver, or neither")
        self.qmodel = qmodel
        self.dataset = dataset
        self.config = config or SearchConfig()
        self.store = store
        self.driver = driver
        self.repair = repair
        self.before_execute = before_execute
        self.rng = np.random.default_rng(self.config.seed)
        batch = min(self.config.attack_batch, dataset.test_x.shape[0])
        self.attack_x, self.attack_y = dataset.sample_attack_batch(
            batch, self.rng
        )
        self.session = SearchSession(qmodel, engine=self.config.engine)
        # Slice the accuracy-probe subset once (it never changes).
        limit = self.config.eval_limit
        self.eval_x = dataset.test_x[:limit]
        self.eval_y = dataset.test_y[:limit]
        #: The objective: ``sum(term.weight * CE(term.x, term.labels))``.
        self.terms: tuple[SearchTerm, ...] = ()
        self.constraint: FlipConstraint | None = None
        #: Targeted searches: success = ``asr_inputs`` classified as
        #: ``asr_target``; ``run`` stops once the ASR reaches
        #: ``stop_at_asr``.
        self.asr_inputs: np.ndarray | None = None
        self.asr_target = 0
        self.stop_at_asr: float | None = None
        #: Every bit already chosen (never chosen again).
        self.visited: set[Candidate] = set()

    @property
    def targeted(self) -> bool:
        return self.asr_inputs is not None

    # ------------------------------------------------------------------
    # Candidate search
    # ------------------------------------------------------------------
    def _feasible(self, name: str, index: int, bit: int) -> bool:
        if (name, index, bit) in self.visited:
            return False
        if self.constraint is None:
            return True
        current = int(
            self.qmodel.tensors[name].q.reshape(-1).view(np.uint8)[index]
            >> bit
        ) & 1
        return self.constraint(name, index, bit, current)

    def rank(self) -> list[tuple[float, str, int, int]]:
        """The best feasible (estimate, tensor, index, bit) of each
        layer, best first.  Ties keep the order of the reversed (or,
        minimising, plain) ascending argsort."""
        leaders = self.session.leaders(
            self.terms, self.config.candidates_per_layer
        )
        ranked: list[tuple[float, str, int, int]] = []
        for name, tensor in self.qmodel.tensors.items():
            top, grad = leaders[name]
            if top.size == 0:
                continue
            estimate = flip_loss_estimates(
                tensor.q.reshape(-1)[top], tensor.scale, grad
            ).reshape(-1)
            order = np.argsort(estimate)
            if self.maximize:
                order = order[::-1]
            taken = 0
            for flat in order:
                weight_pos, bit = divmod(int(flat), 8)
                index = int(top[weight_pos])
                if self._feasible(name, index, bit):
                    ranked.append((float(estimate[flat]), name, index, bit))
                    taken += 1
                    if taken >= self.config.evals_per_layer:
                        break
        ranked.sort(reverse=self.maximize)
        return ranked

    def choose(self) -> Candidate | None:
        """Real-forward-pass evaluation of the top ranked candidates
        (suffix-cached and same-layer-batched through the session);
        ``None`` when no feasible bit is left."""
        ranked = self.rank()[: self.config.layers_to_evaluate]
        candidates = [(name, index, bit) for _, name, index, bit in ranked]
        values = self.session.evaluate_flips(self.terms, candidates)
        best, best_value = None, 0.0
        for candidate, value in zip(candidates, values):
            if best is None or (
                value > best_value if self.maximize else value < best_value
            ):
                best, best_value = candidate, value
        return best

    # ------------------------------------------------------------------
    # Execution and measurement
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        if self.store is not None:
            self.store.sync_model()

    def attack_success_rate(self) -> float:
        """Percent of the ASR inputs classified as the target class."""
        if self.asr_inputs.shape[0] == 0:
            return 0.0
        return self.session.success_rate(self.asr_inputs, self.asr_target)

    def attempt(self, iteration: int, target: Candidate) -> FlipRecord:
        """Execute ``target``'s flip, then measure the objective, the
        ASR (targeted) and the accuracy."""
        name, index, bit = target
        executed, blocked = execute_weight_flip(
            self.qmodel, self.store, self.driver, name, index, bit
        )
        self._sync()
        if self.repair is not None:
            self.repair(self.qmodel.model)
        objective = self.session.objective(self.terms)
        asr = self.attack_success_rate() if self.targeted else None
        accuracy = self.session.accuracy(self.eval_x, self.eval_y)
        return FlipRecord(
            iteration=iteration,
            tensor=name,
            flat_index=index,
            bit=bit,
            executed=executed,
            objective_after=objective,
            accuracy_after=accuracy,
            activations_blocked=blocked,
            asr_after=asr,
        )

    def step(self, iteration: int) -> FlipRecord | None:
        """Choose a fresh bit and attempt it; ``None`` when no feasible
        bit is left."""
        self._sync()
        target = self.choose()
        if target is None:
            return None
        self.visited.add(target)
        if self.before_execute is not None:
            self.before_execute(*target)
        return self.attempt(iteration, target)

    def run(
        self, iterations: int, stop_at_accuracy: float | None = None
    ) -> SearchResult:
        """Up to ``iterations`` steps; stops early when no feasible bit
        is left, at ``stop_at_accuracy`` or at ``stop_at_asr``."""
        result = SearchResult(asr=[] if self.targeted else None)
        for iteration in range(1, iterations + 1):
            record = self.step(iteration)
            if record is None:
                break
            result.record(record)
            accuracy, asr = record.accuracy_after, record.asr_after
            if stop_at_accuracy is not None and accuracy <= stop_at_accuracy:
                break
            if self.stop_at_asr is not None and asr >= self.stop_at_asr:
                break
        return result
