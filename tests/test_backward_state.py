"""Backward-state modes of ``repro.nn.layers``: a forward under
``no_backward()`` is bitwise the default forward and keeps nothing,
``Model.input_grad`` is bitwise the default dX and leaves every weight
gradient alone, and a certified conv builds its columns a chunk at a
time.  Pinned on generated layer stacks."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.nn import (
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    Model,
    ReLU,
    Sequential,
    backward_state,
    iter_layers,
    no_backward,
)
from repro.nn import layers as nn_layers
from repro.nn.functional import (
    contract,
    conv_output_hw,
    cross_entropy_grad,
    im2col,
    stack_certified,
)
from repro.nn.layers import CONV_CHUNK

#: Every attribute a layer keeps for its backward.
_STATE_ATTRS = ("_cache", "_mask", "_shape")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _kept_state(net) -> list[str]:
    return [
        f"{path}.{attr}"
        for path, layer in iter_layers(net)
        for attr in _STATE_ATTRS
        if getattr(layer, attr, None) is not None
    ]


def _randomize_batchnorms(net, rng: np.random.Generator) -> None:
    """Eval BatchNorm with non-trivial running statistics and affine."""
    for _, layer in iter_layers(net):
        if isinstance(layer, BatchNorm2d):
            c = layer.channels
            layer.running_mean = rng.normal(0.0, 0.5, c).astype(np.float32)
            layer.running_var = rng.uniform(0.25, 2.0, c).astype(np.float32)
            layer.gamma.value[...] = rng.normal(1.0, 0.3, c)
            layer.beta.value[...] = rng.normal(0.0, 0.3, c)


def _warm(model: Model, x: np.ndarray, labels: np.ndarray) -> None:
    """One forward and backward, so ``contract`` has seen every GEMM
    shape class.  A class's first call returns einsum's result, which
    can differ from the certified fast path's in the sign of a zero
    (certification compares with ``np.array_equal``); every later call
    returns the certified bits."""
    model.net.backward(cross_entropy_grad(model.forward(x), labels))


def _check_modes(net, x: np.ndarray, labels: np.ndarray) -> None:
    model = Model(net)
    _warm(model, x, labels)
    reference = model.forward(x)
    # Twice: a forward that keeps nothing must also leave nothing for
    # the next one to trip over.
    for _ in range(2):
        with no_backward():
            assert _same_bits(model.forward(x), reference)
        assert _kept_state(net) == []

    params = model.parameters()
    rng = np.random.default_rng(x.shape[0])
    for param in params.values():
        param.grad[...] = rng.normal(size=param.grad.shape)
    grads = {name: param.grad.copy() for name, param in params.items()}
    dxs = [model.input_grad(x, labels) for _ in range(2)]
    assert all(_same_bits(params[name].grad, grads[name]) for name in params)
    logits = model.forward(x)
    expected = net.backward(cross_entropy_grad(logits, labels))
    assert all(_same_bits(dx, expected) for dx in dxs)


@st.composite
def _cases(draw):
    """A random stack over a random batch: Conv2d (k 1/3, stride 1/2,
    pad 0/1, bias or not), eval BatchNorm, ReLU, MaxPool2d and
    BasicBlock, then GlobalAvgPool or Flatten and a Linear head."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    in_channels = channels = draw(st.integers(1, 3))
    # Up to 8 wide, im2col gathers; wider, it copies a window view.
    in_hw = hw = draw(st.sampled_from((4, 6, 8, 12)))
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("conv", "bn", "relu", "pool", "block")))
        if kind == "conv":
            k = draw(st.sampled_from((1, 3)))
            stride = draw(st.sampled_from((1, 2)))
            pad = draw(st.sampled_from((0, 1)))
            if hw + 2 * pad < k:
                continue
            out = draw(st.integers(1, 4))
            layers.append(
                Conv2d(channels, out, k, stride=stride, pad=pad,
                       bias=draw(st.booleans()), rng=rng)
            )
            channels = out
            hw, _ = conv_output_hw(hw, hw, k, stride, pad)
        elif kind == "bn":
            layers.append(BatchNorm2d(channels))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "pool":
            if hw % 2 == 0:
                layers.append(MaxPool2d(2))
                hw //= 2
        else:
            stride = draw(st.sampled_from((1, 2)))
            out = draw(st.integers(1, 4))
            layers.append(BasicBlock(channels, out, stride, rng))
            channels = out
            hw, _ = conv_output_hw(hw, hw, 3, stride, 1)
    if draw(st.booleans()):
        layers.append(GlobalAvgPool())
        features = channels
    else:
        layers.append(Flatten())
        features = channels * hw * hw
    classes = draw(st.integers(2, 5))
    layers.append(Linear(features, classes, rng=rng))
    net = Sequential(*layers)
    _randomize_batchnorms(net, rng)
    batch = draw(st.integers(1, 3 * CONV_CHUNK + 5))
    x = rng.normal(size=(batch, in_channels, in_hw, in_hw)).astype(np.float32)
    labels = rng.integers(0, classes, size=batch)
    return net, x, labels


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_cases())
def test_generated_stacks_agree_across_modes(case):
    _check_modes(*case)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    channels=st.integers(1, 4),
    hw=st.sampled_from((3, 4, 6, 9, 12)),
    k=st.sampled_from((1, 3)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1)),
    bias=st.booleans(),
    batch=st.integers(1, 3 * CONV_CHUNK + 5),
    seed=st.integers(0, 2**16),
)
# Shrunk counterexample: a 1x1 conv over a pad ring sees patches of pure
# padding, where einsum and the GEMM disagree in the sign of zero.
@example(channels=1, hw=9, k=1, stride=1, pad=1, bias=False, batch=1, seed=51349)
def test_generated_convs_match_whole_batch_columns(
    channels, hw, k, stride, pad, bias, batch, seed
):
    """Both modes' chunked column fills against one whole-batch im2col
    and contract -- the conv without workspaces or chunks."""
    assume(hw + 2 * pad >= k)
    rng = np.random.default_rng(seed)
    conv = Conv2d(channels, 3, k, stride=stride, pad=pad, bias=bias, rng=rng)
    if bias:
        conv.bias.value[...] = rng.normal(size=3)
    x = rng.normal(size=(batch, channels, hw, hw)).astype(np.float32)
    oh, ow = conv_output_hw(hw, hw, k, stride, pad)
    cols = im2col(x, k, stride, pad)
    contract("of,nfp->nop", conv.weight.value, cols)  # certifies; see _warm
    expected = contract("of,nfp->nop", conv.weight.value, cols)
    if bias:
        expected += conv.bias.value[None, :, None]
    expected = expected.reshape(batch, 3, oh, ow)
    assert _same_bits(conv.forward(x), expected)
    with no_backward():
        assert _same_bits(conv.forward(x), expected)


def test_resnet_shaped_stack_agrees_across_modes():
    """A named case at a shape class the chunked conv path certifies
    (quick-scale ResNet-20 stage 1), over three and a half chunks."""
    rng = np.random.default_rng(5)
    net = Sequential(
        Conv2d(3, 8, 3, rng=rng), BatchNorm2d(8), ReLU(),
        BasicBlock(8, 8, 1, rng), BasicBlock(8, 16, 2, rng),
        GlobalAvgPool(), Linear(16, 10, rng=rng),
    )
    _randomize_batchnorms(net, rng)
    x = rng.normal(size=(3 * CONV_CHUNK + 8, 3, 16, 16)).astype(np.float32)
    _check_modes(net, x, rng.integers(0, 10, size=x.shape[0]))


def test_certified_conv_fills_columns_in_chunks(monkeypatch):
    rng = np.random.default_rng(11)
    conv = Conv2d(8, 8, 3, bias=True, rng=rng)
    conv.bias.value[...] = rng.normal(size=8)
    x = rng.normal(size=(2 * CONV_CHUNK + 3, 8, 16, 16)).astype(np.float32)
    conv.forward(x)  # certifies the full-batch shape class; see _warm
    reference = conv.forward(x)
    if not stack_certified(conv.weight.value, (x.shape[0], 72, 256), x.dtype):
        pytest.skip("this BLAS does not certify the conv GEMM for the shape")
    rows, gemms = [], []
    real_im2col = nn_layers.im2col

    def counting_im2col(x, *args, **kwargs):
        rows.append(x.shape[0])
        return real_im2col(x, *args, **kwargs)

    monkeypatch.setattr(nn_layers, "im2col", counting_im2col)
    monkeypatch.setattr(nn_layers, "contract", lambda *a: gemms.append(a))
    with no_backward():
        out = conv.forward(x)
    assert _same_bits(out, reference)
    assert rows == [CONV_CHUNK, CONV_CHUNK, 3]
    assert gemms == []
    assert conv._cache is None


def test_backward_after_no_backward_forward_raises():
    rng = np.random.default_rng(3)
    net = Sequential(
        Conv2d(2, 4, 3, rng=rng), BatchNorm2d(4), ReLU(), MaxPool2d(2),
        Flatten(), Linear(16, 3, rng=rng),
    )
    x = rng.normal(size=(5, 2, 4, 4)).astype(np.float32)
    net.forward(x)  # keeps state a stale backward could read
    with no_backward():
        net.forward(x)
    for _, layer in iter_layers(net):
        with pytest.raises(RuntimeError, match="no_backward"):
            layer.backward(np.ones((5, 3), dtype=np.float32))


def test_mode_restored_and_validated():
    with backward_state("input"):
        with no_backward():
            assert nn_layers._state == "none"
        assert nn_layers._state == "input"
    assert nn_layers._state == "all"
    with pytest.raises(ValueError):
        with backward_state("some"):
            pass
