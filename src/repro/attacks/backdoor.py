"""Rowhammer backdoor injection (Tol et al., arXiv:2110.07683).

An end-to-end weight attack that plants a *trigger* instead of wrecking
accuracy: after the attack, clean inputs still classify correctly, but
any input carrying the attacker's small pixel patch classifies as the
target class.  The reproduction follows the paper's pipeline:

1. **Trigger-patch training** -- the patch pixels are optimised by
   gradient descent on the input (the network is frozen) to maximise
   the target-class response, giving the flips a strong feature to
   latch onto;
2. **Constrained flip search** -- candidate weight bits are restricted
   to *hammerable* offsets: real Rowhammer profiling finds only a
   fraction of cells flippable, each in a single direction (true- vs
   anti-cell), which :class:`HammerableProfile` models as a
   deterministic per-bit predicate;
3. **Joint objective** -- the search minimises
   ``CE(triggered -> target) + clean_weight * CE(clean -> true)``, so
   the backdoor lands while clean accuracy is explicitly preserved;
4. **Execution through DRAM** -- each committed flip is a RowHammer
   campaign against the weight store, which is where DRAM-Locker's
   guard rows shut the whole pipeline down.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..nn import memo
from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .hammer import HammerDriver
from .registry import AttackContext, register_attack
from .search import BitSearch, SearchConfig
from .session import SearchTerm

__all__ = [
    "BackdoorConfig",
    "HammerableProfile",
    "RowhammerBackdoor",
]


@dataclass(frozen=True)
class BackdoorConfig(SearchConfig):
    """Hyper-parameters of one backdoor-injection run."""

    target_class: int = 0
    #: Side length of the square trigger patch (bottom-right corner).
    patch_size: int = 4
    trigger_steps: int = 25
    trigger_lr: float = 0.6
    #: Pixel clip range of the optimised patch (data is ~unit normal).
    patch_clip: float = 2.5
    #: Weight of the keep-clean-accuracy objective term.
    clean_weight: float = 1.0
    #: Fraction of weight bits that profiling found hammerable.
    hammerable_fraction: float = 0.5
    stop_at_asr: float | None = None


class HammerableProfile:
    """Deterministic model of a Rowhammer profiling pass.

    Each weight bit is hammerable with probability ``fraction`` (drawn
    from a stable per-bit hash, so the profile is a property of the
    *cell*, not of the visit order), and flips in one direction only:
    a true-cell discharges 1 -> 0, an anti-cell 0 -> 1.  ``feasible``
    therefore also requires the bit's current value to match the
    direction the cell can move from.
    """

    def __init__(self, fraction: float = 0.5, seed: int = 0):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction
        self.seed = seed

    def _hash(self, name: str, index: int, bit: int) -> int:
        key = f"{name}:{index}:{bit}:{self.seed}".encode()
        return zlib.crc32(key)

    def is_hammerable(self, name: str, index: int, bit: int) -> bool:
        return (self._hash(name, index, bit) & 0xFFFF) / 65536.0 < self.fraction

    def flip_direction(self, name: str, index: int, bit: int) -> int:
        """The value the cell flips *to* (0 for true-cells, 1 for anti)."""
        return (self._hash(name, index, bit) >> 16) & 1

    def feasible(self, name: str, index: int, bit: int, current: int) -> bool:
        return (
            self.is_hammerable(name, index, bit)
            and current != self.flip_direction(name, index, bit)
        )


class RowhammerBackdoor(BitSearch):
    """Trigger training + a targeted search constrained to hammerable
    bits."""

    maximize = False

    def __init__(
        self,
        qmodel: QuantizedModel,
        dataset: Dataset,
        config: BackdoorConfig | None = None,
        store: WeightStore | None = None,
        driver: HammerDriver | None = None,
        before_execute=None,
    ):
        config = config or BackdoorConfig()
        if config.patch_size > dataset.test_x.shape[-1]:
            raise ValueError("trigger patch larger than the input image")
        super().__init__(
            qmodel,
            dataset,
            config,
            store=store,
            driver=driver,
            before_execute=before_execute,
        )
        self.trigger = self._train_trigger(self.rng)
        self.profile = HammerableProfile(
            fraction=config.hammerable_fraction, seed=config.seed
        )
        self.constraint = self.profile.feasible

        target = config.target_class
        target_labels = np.full(
            self.attack_y.shape, target, dtype=self.attack_y.dtype
        )
        self.terms = (
            SearchTerm(self.apply_trigger(self.attack_x), target_labels),
            SearchTerm(self.attack_x, self.attack_y, weight=config.clean_weight),
        )
        # ASR: non-target-class test inputs that the trigger hijacks.
        mask = dataset.test_y != target
        self.asr_inputs = self.apply_trigger(
            dataset.test_x[mask][: config.eval_limit]
        )
        self.asr_target = target
        self.stop_at_asr = config.stop_at_asr

    # ------------------------------------------------------------------
    # Trigger
    # ------------------------------------------------------------------
    def apply_trigger(self, x: np.ndarray) -> np.ndarray:
        """Stamp the trigger patch onto the bottom-right corner."""
        p = self.config.patch_size
        out = x.copy()
        out[:, :, -p:, -p:] = self.trigger
        return out

    def _train_trigger(self, rng: np.random.Generator) -> np.ndarray:
        """Optimise the patch pixels against the frozen network.

        The initial patch is drawn from ``rng`` on every call; inside a
        memo scope the descent runs once per (model, attack batch,
        initial patch, trigger config), and the patch is read-only."""
        config = self.config
        p = config.patch_size
        channels = self.attack_x.shape[1]
        initial = rng.normal(0.0, 0.5, size=(channels, p, p)).astype(np.float32)
        model = self.qmodel.model

        def descend() -> np.ndarray:
            patch = initial.copy()
            target = np.full(
                self.attack_y.shape, config.target_class, dtype=self.attack_y.dtype
            )
            for _ in range(config.trigger_steps):
                x = self.attack_x.copy()
                x[:, :, -p:, -p:] = patch
                dx = model.input_grad(x, target)
                patch -= config.trigger_lr * dx[:, :, -p:, -p:].mean(axis=0)
                np.clip(patch, -config.patch_clip, config.patch_clip, out=patch)
            patch.setflags(write=False)
            return patch

        trigger = memo.memoized(
            "trigger",
            lambda: memo.content_key(
                model, self.attack_x, self.attack_y, initial,
                config.target_class, p, config.trigger_steps,
                config.trigger_lr, config.patch_clip,
            ),
            descend,
        )
        model.zero_grad()  # trigger training leaves the weight grads zeroed
        return trigger


@register_attack(
    "backdoor",
    description=(
        "Rowhammer backdoor injection: trigger-patch training plus a "
        "flip search constrained to hammerable bit offsets"
    ),
    targeted=True,
)
def _backdoor(ctx: AttackContext, **params) -> RowhammerBackdoor:
    params.setdefault("engine", ctx.engine)
    config = BackdoorConfig(
        attack_batch=ctx.attack_batch, seed=ctx.seed, **params
    )
    return RowhammerBackdoor(
        ctx.qmodel,
        ctx.dataset,
        config,
        store=ctx.store,
        driver=ctx.driver,
        before_execute=ctx.before_execute,
    )
