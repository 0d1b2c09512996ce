"""The training kernels of ``repro.nn`` against the formulations they
replace, byte for byte: max pooling (a fold of strided maxima against
the block reduction), col2im (a tap-ordered gather against the
slice-add loop) and training-mode BatchNorm (one shared
``x - mean`` against ``x.var`` and a second subtraction).
The replaced formulations live on here as the oracles, written as the
methods they were.  A tiny ResNet-20 and VGG-11 trained for one epoch
pin the whole path, against those oracles in the same process and
against recorded constants."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import (
    BatchNorm2d,
    MaxPool2d,
    backward_state,
    make_dataset,
    resnet20,
    vgg11,
)
from repro.nn import layers
from repro.nn.cache import hash_arrays, model_state
from repro.nn.functional import col2im, conv_output_hw
from repro.nn.layers import BACKWARD_STATES
from repro.nn.train import TrainConfig, train

_SETTINGS = dict(
    deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)

#: Values whose order under max or + is visible in the bits: both
#: zeros (ReLU emits -0.0, as ``x * (x > 0)``), repeated nonzeros,
#: infinities and NaN.
_SPECIALS = np.array(
    [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan], dtype=np.float32
)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _salted(rng: np.random.Generator, shape, specials: np.ndarray, share: float):
    """Normal float32 draws with about ``share`` of them replaced by
    ``specials``."""
    x = rng.normal(size=shape).astype(np.float32)
    hit = rng.random(shape) < share
    x[hit] = rng.choice(specials, size=int(hit.sum()))
    return x


# ----------------------------------------------------------------------
# Max pooling
# ----------------------------------------------------------------------


def _pool_forward_oracle(pool: MaxPool2d, x: np.ndarray, training: bool = False):
    """``MaxPool2d.forward`` as it was: the block reduction."""
    n, c, h, w = x.shape
    k = pool.k
    blocks = x.reshape(n, c, h // k, k, w // k, k)
    out = blocks.max(axis=(3, 5))
    pool._cache = None if layers._state == "none" else (
        blocks == out[:, :, :, None, :, None], x.shape
    )
    return out


def _pool_backward_oracle(pool: MaxPool2d, dy: np.ndarray) -> np.ndarray:
    mask, shape = layers._kept(pool._cache)
    n, c, h, w = shape
    spread = mask * dy[:, :, :, None, :, None]
    return spread.reshape(n, c, h, w).astype(np.float32)


@settings(max_examples=300, **_SETTINGS)
@given(
    k=st.sampled_from((2, 3)),
    batch=st.integers(1, 40),
    channels=st.integers(1, 3),
    oh=st.integers(1, 4),
    ow=st.integers(1, 4),
    share=st.sampled_from((0.0, 0.3, 0.9)),
    seed=st.integers(0, 2**16),
)
def test_pool_fold_matches_block_reduction(k, batch, channels, oh, ow, share, seed):
    rng = np.random.default_rng(seed)
    x = _salted(rng, (batch, channels, oh * k, ow * k), _SPECIALS, share)
    pool, old = MaxPool2d(k), MaxPool2d(k)
    out = pool.forward(x)
    # Byte equality also pins the NaN positions.
    assert _same_bits(out, _pool_forward_oracle(old, x))
    assert not np.shares_memory(out, x)
    dy = rng.normal(size=out.shape).astype(np.float32)
    assert _same_bits(pool.backward(dy), _pool_backward_oracle(old, dy))


@pytest.mark.parametrize("k", [2, 3])
def test_pool_fold_matches_reduction_on_every_zero_tie(k):
    """Every pattern of +0.0/-0.0 over one k x k window, one per sample."""
    signs = np.array(list(itertools.product((0.0, -0.0), repeat=k * k)))
    x = signs.astype(np.float32).reshape(-1, 1, k, k)
    out = MaxPool2d(k).forward(x)
    assert _same_bits(out, _pool_forward_oracle(MaxPool2d(k), x))


@pytest.mark.parametrize("k", [1, 2])
def test_pool_output_never_aliases_input(k):
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = MaxPool2d(k).forward(x)
    assert not np.shares_memory(out, x)
    out[...] = -1.0
    assert x.min() == 0.0


# ----------------------------------------------------------------------
# col2im
# ----------------------------------------------------------------------


def _col2im_slice_adds(cols, x_shape, k, stride, pad):
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    taps = cols.reshape(n, c, k, k, oh, ow)
    for ki in range(k):
        for kj in range(k):
            padded[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ] += taps[:, :, ki, kj]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


@settings(max_examples=400, **_SETTINGS)
@given(
    batch=st.integers(1, 5),
    channels=st.integers(1, 3),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    k=st.sampled_from((1, 3)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1)),
    share=st.sampled_from((0.0, 0.4)),
    seed=st.integers(0, 2**16),
)
def test_col2im_matches_slice_adds(batch, channels, h, w, k, stride, pad, share, seed):
    """Maps 1-12 wide, with -0.0 and infinities among the columns (an
    inf meeting a -inf makes a NaN)."""
    if min(h, w) + 2 * pad < k:
        return
    rng = np.random.default_rng(seed)
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf], dtype=np.float32)
    cols = _salted(rng, (batch, channels * k * k, oh * ow), specials, share)
    x_shape = (batch, channels, h, w)
    with np.errstate(invalid="ignore"):
        got = col2im(cols, x_shape, k, stride, pad)
        expected = _col2im_slice_adds(cols, x_shape, k, stride, pad)
    assert _same_bits(got, expected)


# ----------------------------------------------------------------------
# BatchNorm
# ----------------------------------------------------------------------


def _bn_forward_oracle(bn: BatchNorm2d, x: np.ndarray, training: bool = False):
    """``BatchNorm2d.forward`` as it was: ``x.var``, and a fresh
    ``x - mean`` for ``x_hat``."""
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        bn.running_mean = (
            bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
        ).astype(np.float32)
        bn.running_var = (
            bn.momentum * bn.running_var + (1 - bn.momentum) * var
        ).astype(np.float32)
    else:
        mean, var = bn.running_mean, bn.running_var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    state = layers._state
    gamma = bn.gamma.value[None, :, None, None]
    beta = bn.beta.value[None, :, None, None]
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma * x_hat + beta
    if not (state == "all" or (state == "input" and training)):
        x_hat = None
    bn._cache = None if state == "none" else (
        x_hat, inv_std, x.shape, training, state == "all"
    )
    return out


def _bn_backward_oracle(bn: BatchNorm2d, dy: np.ndarray) -> np.ndarray:
    """``BatchNorm2d.backward`` as it was, ``.astype`` copies included."""
    x_hat, inv_std, shape, was_training, param_grads = layers._kept(bn._cache)
    n, _, h, w = shape
    m = n * h * w
    if param_grads:
        bn.gamma.grad += (dy * x_hat).sum(axis=(0, 2, 3))
        bn.beta.grad += dy.sum(axis=(0, 2, 3))
    dxhat = dy * bn.gamma.value[None, :, None, None]
    if not was_training:
        return (dxhat * inv_std[None, :, None, None]).astype(np.float32)
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    dx = (
        dxhat - sum_dxhat / m - x_hat * sum_dxhat_xhat / m
    ) * inv_std[None, :, None, None]
    return dx.astype(np.float32)


@settings(max_examples=200, **_SETTINGS)
@given(
    batch=st.integers(1, 24),
    channels=st.integers(1, 4),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    scale=st.sampled_from((1e-3, 1.0, 300.0)),
    training=st.booleans(),
    strided_dy=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_batchnorm_matches_reference(
    batch, channels, h, w, scale, training, strided_dy, seed
):
    """Output, running statistics, dX, dgamma and dbeta in every
    backward-state mode; ``strided_dy`` hands the backward a view into
    a padded array."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(batch, channels, h, w)) * scale + scale).astype(np.float32)
    # Mixed signs of zero, as a ReLU before the BatchNorm leaves them.
    x[rng.random(x.shape) < 0.1] = -0.0
    dy = rng.normal(size=x.shape).astype(np.float32)
    if strided_dy:
        dy = np.pad(dy, ((0, 0), (0, 0), (1, 1), (1, 1)))[:, :, 1:-1, 1:-1]
    gamma, beta = rng.normal(1.0, 0.3, channels), rng.normal(0.0, 0.3, channels)
    running_mean = rng.normal(0.0, 0.5, channels).astype(np.float32)
    running_var = rng.uniform(0.25, 2.0, channels).astype(np.float32)
    grads = [rng.normal(size=channels).astype(np.float32) for _ in range(2)]
    for state in BACKWARD_STATES:
        bn, old = BatchNorm2d(channels), BatchNorm2d(channels)
        for b in (bn, old):
            b.gamma.value[...], b.beta.value[...] = gamma, beta
            b.running_mean, b.running_var = running_mean, running_var
            b.gamma.grad[...], b.beta.grad[...] = grads
        with backward_state(state):
            out = bn.forward(x, training=training)
            assert _same_bits(out, _bn_forward_oracle(old, x, training))
        assert _same_bits(bn.running_mean, old.running_mean)
        assert _same_bits(bn.running_var, old.running_var)
        if state == "none":
            assert bn._cache is None
            continue
        assert _same_bits(bn.backward(dy), _bn_backward_oracle(old, dy))
        assert _same_bits(bn.gamma.grad, old.gamma.grad)
        assert _same_bits(bn.beta.grad, old.beta.grad)


@settings(max_examples=100, **_SETTINGS)
@given(
    batch=st.integers(1, 24),
    channels=st.integers(1, 4),
    hw=st.integers(1, 8),
    scale=st.sampled_from((1e-3, 1.0, 300.0)),
    seed=st.integers(0, 2**16),
)
def test_variance_of_centered_squares_is_x_var(batch, channels, hw, scale, seed):
    """The training forward's variance, as BatchNorm2d computes it."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(batch, channels, hw, hw)) * scale + scale).astype(np.float32)
    centered = x - x.mean(axis=(0, 2, 3))[None, :, None, None]
    assert _same_bits(
        np.square(centered).mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    )


# ----------------------------------------------------------------------
# The whole training path
# ----------------------------------------------------------------------

def _train_one_epoch(arch: str):
    """(hash_arrays(model_state(model)), train_loss, test_accuracy)
    after one epoch.  ResNet-20 on 16x16 inputs runs col2im on 16-, 8-
    and 4-wide maps; VGG-11 on 16x16 inputs pools four times."""
    data = make_dataset("pin", 4, hw=16, train_per_class=12, test_per_class=6, seed=7)
    if arch == "resnet20":
        model = resnet20(num_classes=4, width=4, input_hw=16, seed=1)
    else:
        model = vgg11(num_classes=4, width=8, input_hw=16, seed=2)
    result = train(
        model, data, TrainConfig(epochs=1, batch_size=20, lr_decay_epochs=(), seed=3)
    )
    return hash_arrays(model_state(model)), result.train_loss, result.test_accuracy


#: Trained with the kernels as they are; the tests below never patch it.
_trained = functools.lru_cache(maxsize=None)(_train_one_epoch)

_ARCHS = ("resnet20", "vgg11")


@pytest.mark.parametrize("arch", _ARCHS)
def test_one_epoch_matches_the_replaced_kernels(arch, monkeypatch):
    """The same epoch with the oracles above patched in, in the same
    process, so on any numpy and BLAS build."""
    trained = _trained(arch)
    monkeypatch.setattr(MaxPool2d, "forward", _pool_forward_oracle)
    monkeypatch.setattr(MaxPool2d, "backward", _pool_backward_oracle)
    monkeypatch.setattr(layers, "col2im", _col2im_slice_adds)
    monkeypatch.setattr(BatchNorm2d, "forward", _bn_forward_oracle)
    monkeypatch.setattr(BatchNorm2d, "backward", _bn_backward_oracle)
    assert _train_one_epoch(arch) == trained


#: ``_train_one_epoch`` at the commit before these kernels were
#: rewritten, with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on
#: CPython 3.11, x86-64.  OpenBLAS picks its sgemm kernel by CPU, and
#: the kernel shows in the trained bytes, so there is one entry per
#: kernel: "SkylakeX" is what AVX-512 hosts get, and "Haswell" what
#: AVX2-only hosts (AMD Zen 1-3 among them) get, recorded by setting
#: OPENBLAS_CORETYPE=Haswell.  numpy's own SIMD dispatch did not change
#: them.  Other numpy or OpenBLAS versions (CPython 3.10 installs numpy
#: 2.2) were not checked; the test above does not depend on them.
_TRAINED = {
    "resnet20": {
        "SkylakeX": (
            "06fe453d0f21b52fc43cac47ce0852cc8bd506536d0ddd631251abff165bbb30",
            [1.5878852208455403],
            [20.833333333333336],
        ),
        "Haswell": (
            "fd5b3acc7182459db14bfb5d556e0df69318223a96aa3627ac47a0882a895917",
            [1.587885061899821],
            [20.833333333333336],
        ),
    },
    "vgg11": {
        "SkylakeX": (
            "90da3d99f393cfc5ea452356a16a566afe2b4e4d4519ffadd012b29db5becd99",
            [1.0205301344394684],
            [25.0],
        ),
        "Haswell": (
            "58ee5decf77bbea900e00671fdfa575cd1866f558f2560bcffb0ef1818ad9717",
            [1.0205302735169728],
            [25.0],
        ),
    },
}


@pytest.mark.parametrize("arch", _ARCHS)
def test_one_epoch_keeps_its_trained_bytes(arch):
    assert _trained(arch) in _TRAINED[arch].values()
