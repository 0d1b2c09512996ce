"""Synthetic CIFAR-like datasets.

The offline environment has no CIFAR-10/100, so the experiments run on
deterministic synthetic stand-ins: each class gets a smooth random
prototype image; samples are the prototype plus structured noise and a
small random translation.  The datasets are hard enough that an
untrained network scores chance, and easy enough that the scaled
ResNet-20/VGG-11 reach high accuracy in a few NumPy epochs -- which is
all the bit-flip experiments require (see DESIGN.md, Substitutions).

A dataset's arrays are read-only: inside a matrix's memo scope
(:mod:`repro.nn.memo`) every cell shares one synthesis, so a write
through one cell's dataset would leak into the others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import memo

__all__ = ["Dataset", "synthetic_cifar10", "synthetic_cifar100", "make_dataset"]


@dataclass
class Dataset:
    """Train/test split of one synthetic classification task."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    def batches(
        self, batch_size: int, rng: np.random.Generator
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One shuffled epoch of training batches."""
        order = rng.permutation(self.train_x.shape[0])
        for start in range(0, len(order), batch_size):
            index = order[start : start + batch_size]
            yield self.train_x[index], self.train_y[index]

    def sample_attack_batch(
        self, size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Random test images, as the paper's attack inputs (default 128)."""
        index = rng.choice(self.test_x.shape[0], size=size, replace=False)
        return self.test_x[index], self.test_y[index]


def _smooth_field(
    rng: np.random.Generator, channels: int, hw: int, coarse: int
) -> np.ndarray:
    """A low-frequency random image: coarse noise, bilinearly upsampled."""
    grid = rng.normal(0.0, 1.0, size=(channels, coarse, coarse))
    zoom = hw / coarse
    coords = (np.arange(hw) + 0.5) / zoom - 0.5
    low = np.clip(np.floor(coords).astype(int), 0, coarse - 1)
    high = np.clip(low + 1, 0, coarse - 1)
    frac = np.clip(coords - low, 0.0, 1.0)
    rows = grid[:, low, :] * (1 - frac)[None, :, None] + grid[:, high, :] * frac[None, :, None]
    out = (
        rows[:, :, low] * (1 - frac)[None, None, :]
        + rows[:, :, high] * frac[None, None, :]
    )
    return out.astype(np.float32)


def make_dataset(
    name: str,
    num_classes: int,
    hw: int = 32,
    train_per_class: int = 64,
    test_per_class: int = 32,
    noise: float = 0.55,
    max_shift: int = 2,
    seed: int = 0,
) -> Dataset:
    """Build one synthetic dataset (deterministic in ``seed``).

    The arrays are read-only.  Inside a memo scope one argument set is
    synthesised once; every call still returns its own
    :class:`Dataset`, so reassigning a field of one leaks nowhere.
    """
    args = (
        name, num_classes, hw, train_per_class, test_per_class, noise,
        max_shift, seed,
    )
    return replace(
        memo.memoized(
            "dataset", lambda: memo.content_key(*args), lambda: _synthesize(*args)
        )
    )


def _synthesize(
    name: str,
    num_classes: int,
    hw: int,
    train_per_class: int,
    test_per_class: int,
    noise: float,
    max_shift: int,
    seed: int,
) -> Dataset:
    rng = np.random.default_rng(seed)
    prototypes = np.stack(
        [_smooth_field(rng, 3, hw, coarse=max(2, hw // 4)) for _ in range(num_classes)]
    )

    def sample_split(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        images = np.empty((num_classes * per_class, 3, hw, hw), dtype=np.float32)
        labels = np.empty(num_classes * per_class, dtype=np.int64)
        cursor = 0
        for cls in range(num_classes):
            for _ in range(per_class):
                image = prototypes[cls].copy()
                if max_shift:
                    dx, dy = rng.integers(-max_shift, max_shift + 1, size=2)
                    image = np.roll(image, (int(dx), int(dy)), axis=(1, 2))
                image += rng.normal(0.0, noise, size=image.shape).astype(np.float32)
                images[cursor] = image
                labels[cursor] = cls
                cursor += 1
        return images, labels

    train_x, train_y = sample_split(train_per_class)
    test_x, test_y = sample_split(test_per_class)
    for array in (train_x, train_y, test_x, test_y):
        array.setflags(write=False)
    return Dataset(
        name=name,
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        num_classes=num_classes,
    )


def synthetic_cifar10(hw: int = 32, seed: int = 0, **kwargs) -> Dataset:
    """The CIFAR-10 stand-in (10 classes)."""
    return make_dataset("synthetic-cifar10", 10, hw=hw, seed=seed, **kwargs)


def synthetic_cifar100(hw: int = 32, seed: int = 1, **kwargs) -> Dataset:
    """The CIFAR-100 stand-in (100 classes, fewer samples per class).

    The default noise is higher than the 10-class task's so trained
    accuracy lands in the paper's VGG-11/CIFAR-100 range (~65-90%
    rather than saturated) -- BFA's damage profile depends on the
    classification margins being realistic.
    """
    kwargs.setdefault("train_per_class", 24)
    kwargs.setdefault("test_per_class", 8)
    kwargs.setdefault("noise", 1.1)
    return make_dataset("synthetic-cifar100", 100, hw=hw, seed=seed, **kwargs)
