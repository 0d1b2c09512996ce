"""The matrix memo's contract: a hit is a fresh computation.

:mod:`repro.nn.memo` shares a victim's clean-state work -- dataset
synthesis, clean accuracy, backdoor trigger training -- across the
cells of one matrix.  A hit must equal what a fresh computation
returns bit for bit, so the key must change whenever any input the
work reads changes: weights, BatchNorm buffers, layer structure, the
probe, the labels, the attack batch, the initial patch and every
trigger config field.  Outside a scope nothing is stored.  Run-level
reuse counts live in ``tests/test_harness.py``.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.backdoor import BackdoorConfig, RowhammerBackdoor
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    QuantizedModel,
    iter_layers,
    make_dataset,
    memo,
    resnet20,
)

DATASET_ARGS = dict(hw=4, train_per_class=2, test_per_class=6, seed=0)
GENERATED = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class Counts:
    """``memo.STATS`` by differences from construction."""

    def __init__(self):
        self.computed = Counter(memo.STATS.computed)
        self.hits = Counter(memo.STATS.hits)

    def since(self, kind: str) -> tuple[int, int]:
        """``(computed, hits)`` of ``kind`` since construction."""
        return (
            memo.STATS.computed[kind] - self.computed[kind],
            memo.STATS.hits[kind] - self.hits[kind],
        )


def _dataset():
    return make_dataset("memo", 3, **DATASET_ARGS)


def _qmodel():
    return QuantizedModel(resnet20(num_classes=3, width=2, input_hw=4, seed=0))


def _probe():
    dataset = _dataset()
    return dataset.test_x.copy(), dataset.test_y.copy()


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# A hit equals a fresh computation
# ----------------------------------------------------------------------
@settings(GENERATED, max_examples=25)
@given(
    num_classes=st.integers(1, 4),
    hw=st.integers(2, 6),
    train_per_class=st.integers(1, 3),
    test_per_class=st.integers(1, 3),
    noise=st.floats(0.0, 2.0),
    max_shift=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_dataset_hit_equals_fresh(
    num_classes, hw, train_per_class, test_per_class, noise, max_shift, seed
):
    args = dict(
        hw=hw, train_per_class=train_per_class, test_per_class=test_per_class,
        noise=noise, max_shift=max_shift, seed=seed,
    )
    fresh = make_dataset("gen", num_classes, **args)
    counts = Counts()
    with memo.scope():
        first = make_dataset("gen", num_classes, **args)
        hit = make_dataset("gen", num_classes, **args)
    assert counts.since("dataset") == (1, 1)
    assert hit is not first
    for field in ("train_x", "train_y", "test_x", "test_y"):
        assert _same(getattr(hit, field), getattr(fresh, field))
    assert (hit.name, hit.num_classes) == (fresh.name, fresh.num_classes)


def test_accuracy_hit_equals_fresh():
    model = _qmodel().model
    x, y = _probe()
    fresh = model.accuracy(x, y)
    counts = Counts()
    with memo.scope():
        first = memo.accuracy(model, x, y)
        hit = memo.accuracy(model, x.copy(), y.copy())
    assert counts.since("accuracy") == (1, 1)
    assert first == hit == fresh


def _backdoor(qmodel, dataset, **overrides):
    config = BackdoorConfig(
        patch_size=2, trigger_steps=2, attack_batch=8, candidates_per_layer=1,
        layers_to_evaluate=1, **overrides,
    )
    return RowhammerBackdoor(qmodel, dataset, config)


def test_trigger_hit_equals_fresh_and_is_read_only():
    qmodel, dataset = _qmodel(), _dataset()
    fresh = _backdoor(qmodel, dataset).trigger
    counts = Counts()
    with memo.scope():
        first = _backdoor(qmodel, dataset).trigger
        hit = _backdoor(qmodel, dataset).trigger
    assert counts.since("trigger") == (1, 1)
    assert _same(hit, fresh) and _same(first, fresh)
    with pytest.raises(ValueError):
        hit[0, 0, 0] = 0.0


# ----------------------------------------------------------------------
# Any one perturbed key part misses
# ----------------------------------------------------------------------
def _flip_weight_bit(qmodel, pick):
    name = sorted(qmodel.tensors)[pick % len(qmodel.tensors)]
    qmodel.flip_bit(name, (pick // 8) % qmodel.tensors[name].q.size, pick % 8)


def _weight_bit(qmodel, x, y, pick):
    _flip_weight_bit(qmodel, pick)
    return x, y


def _bn_stat(qmodel, x, y, pick):
    bns = [
        node for _, node in iter_layers(qmodel.model.net)
        if isinstance(node, BatchNorm2d)
    ]
    layer = bns[pick % len(bns)]
    buffer = layer.running_mean if pick % 2 else layer.running_var
    index = (pick // 2) % buffer.size
    buffer[index] = np.nextafter(buffer[index], np.float32(np.inf))
    return x, y


def _conv_stride(qmodel, x, y, pick):
    # The stem conv: any stride keeps the net's shapes consistent, and
    # its weights stay as they were.
    stem = qmodel.model.net.layers[0]
    assert isinstance(stem, Conv2d)
    stem.stride = 2 + pick % 2
    return x, y


def _probe_pixel(qmodel, x, y, pick):
    x = x.copy()
    x.reshape(-1)[pick % x.size] += (1e-3, -0.5, 4.0)[pick % 3]
    return x, y


def _label(qmodel, x, y, pick):
    y = y.copy()
    y[pick % y.size] = (y[pick % y.size] + 1) % 3
    return x, y


@pytest.mark.parametrize(
    "perturb", [_weight_bit, _bn_stat, _conv_stride, _probe_pixel, _label]
)
@GENERATED
@given(pick=st.integers(0, 2**20))
def test_perturbed_accuracy_key_misses(perturb, pick):
    qmodel = _qmodel()
    x, y = _probe()
    counts = Counts()
    with memo.scope():
        memo.accuracy(qmodel.model, x, y)
        x, y = perturb(qmodel, x, y, pick)
        value = memo.accuracy(qmodel.model, x, y)
    assert counts.since("accuracy") == (2, 0)
    assert value == qmodel.model.accuracy(x, y)


class _Draw:
    """A stand-in rng for ``_train_trigger``: a fixed initial patch for
    each size, with one value optionally nudged."""

    def __init__(self, nudge: int | None = None):
        self.nudge = nudge

    def normal(self, loc, scale, size):
        patch = np.random.default_rng(5).normal(loc, scale, size=size)
        if self.nudge is not None:
            patch.reshape(-1)[self.nudge % patch.size] += 0.25
        return patch


TRIGGER_FIELDS = {
    "target_class": 1,
    "patch_size": 3,
    "trigger_steps": 3,
    "trigger_lr": 0.5,
    "patch_clip": 0.75,
}


@pytest.mark.parametrize(
    "part", ["initial-patch", "weight-bit", "attack-batch", *TRIGGER_FIELDS]
)
@GENERATED
@given(pick=st.integers(0, 2**20))
def test_perturbed_trigger_key_misses(part, pick):
    qmodel, dataset = _qmodel(), _dataset()
    attack = _backdoor(qmodel, dataset)
    counts = Counts()
    with memo.scope():
        attack._train_trigger(_Draw())
        draw = _Draw()
        if part == "initial-patch":
            draw = _Draw(nudge=pick)
        elif part == "weight-bit":
            _flip_weight_bit(qmodel, pick)
        elif part == "attack-batch":
            attack.attack_x = attack.attack_x.copy()
            attack.attack_x.reshape(-1)[pick % attack.attack_x.size] += 0.5
        else:
            attack.config = replace(attack.config, **{part: TRIGGER_FIELDS[part]})
        trigger = attack._train_trigger(draw)
    assert counts.since("trigger") == (2, 0)
    assert _same(trigger, attack._train_trigger(draw))


def test_unkeyable_model_is_computed_every_time():
    """A weight transform is a function: no content key, no sharing."""
    qmodel = _qmodel()
    qmodel.model.net.layers[0].weight_transform = np.sign
    assert memo.content_key(qmodel.model) is None
    assert memo.content_key(np.array([None])) is None  # pointers, not content
    x, y = _probe()
    counts = Counts()
    with memo.scope():
        memo.accuracy(qmodel.model, x, y)
        memo.accuracy(qmodel.model, x, y)
    assert counts.since("accuracy") == (2, 0)


# ----------------------------------------------------------------------
# Lifetime, immutability, side effects
# ----------------------------------------------------------------------
def test_outside_a_scope_every_call_computes():
    qmodel, dataset = _qmodel(), _dataset()
    x, y = _probe()
    counts = Counts()
    for _ in range(2):
        _dataset()
        memo.accuracy(qmodel.model, x, y)
        _backdoor(qmodel, dataset)
    assert counts.since("dataset") == (2, 0)
    assert counts.since("accuracy") == (2, 0)
    assert counts.since("trigger") == (2, 0)


def test_scope_ends_with_its_block():
    counts = Counts()
    with memo.scope():
        _dataset()
        with memo.scope():
            _dataset()  # an inner scope starts empty
        _dataset()  # ...and the outer one comes back
    _dataset()
    assert counts.since("dataset") == (3, 1)


def test_dataset_arrays_are_read_only_and_records_independent():
    outside = _dataset()
    with pytest.raises(ValueError):
        outside.train_x[0, 0, 0, 0] = 1.0
    with memo.scope():
        first = _dataset()
        for field in ("train_x", "train_y", "test_x", "test_y"):
            with pytest.raises(ValueError):
                getattr(first, field).reshape(-1)[:1] *= 2
        original = first.test_x
        first.test_x = np.zeros_like(original)
        second = _dataset()
    assert second is not first
    assert second.test_x is original


def test_trigger_hit_leaves_weight_grads_zeroed():
    qmodel, dataset = _qmodel(), _dataset()
    params = qmodel.model.parameters().values()
    counts = Counts()
    with memo.scope():
        for _ in range(2):  # a miss, then a hit
            for param in params:
                param.grad[...] = 1.0
            _backdoor(qmodel, dataset)
            assert all(not param.grad.any() for param in params)
    assert counts.since("trigger") == (1, 1)
