"""Neural-network layers with explicit manual backprop.

Small by design: exactly the layer set ResNet-20 and VGG-11 need, in
NumPy, with the forward pass caching what the backward pass consumes.
Conv2d and Linear support an optional ``weight_transform`` -- a
quantizer applied to the weight in the forward pass whose gradient is
passed straight through (STE), which is how the binary-weight hardening
baselines of Table II train.

How much a forward caches is one module-level *backward-state mode*:

* ``"all"`` (the default) -- everything any backward reads: training,
  weight-gradient passes, direct layer use;
* ``"input"`` -- only what dX needs (ReLU and MaxPool masks, BatchNorm
  ``inv_std``, shapes).  The backward returns the same dX and leaves
  every ``Parameter.grad`` untouched;
* ``"none"`` -- nothing, and any older cache is dropped, so a stray
  backward raises instead of reading stale state.

Outputs are bitwise the same in every mode.  Only entry points set the
mode (:func:`backward_state`, :func:`no_backward`); layers just read
it.  nn code runs on one thread, so a module-level mode is enough.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .functional import col2im, contract, conv_output_hw, im2col, stack_certified

__all__ = [
    "BACKWARD_STATES",
    "CONV_CHUNK",
    "backward_state",
    "no_backward",
    "Parameter",
    "Layer",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Sequential",
]

WeightTransform = Callable[[np.ndarray], np.ndarray]

BACKWARD_STATES = ("all", "input", "none")
#: Samples per im2col fill of a conv forward: the rows of its reused
#: workspace.
CONV_CHUNK = 16

_state = "all"


@contextmanager
def backward_state(state: str) -> Iterator[None]:
    """Run the enclosed forwards keeping ``state`` for their backward
    (one of :data:`BACKWARD_STATES`); the previous mode comes back on
    exit."""
    global _state
    if state not in BACKWARD_STATES:
        raise ValueError(
            f"unknown backward state {state!r}; expected one of {BACKWARD_STATES}"
        )
    previous = _state
    _state = state
    try:
        yield
    finally:
        _state = previous


def no_backward():
    """``backward_state("none")``: for forwards no backward follows."""
    return backward_state("none")


def _kept(cache):
    if cache is None:
        raise RuntimeError(
            "backward needs the state of a forward that kept it "
            "(none ran, or it ran under no_backward())"
        )
    return cache


#: (padded input, columns) buffers of CONV_CHUNK samples per conv shape
#: class.  Only the interior of a padded buffer is ever written, so its
#: zero border stands in for np.pad.
_WORKSPACES: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _workspace(x: np.ndarray, k: int, stride: int, pad: int):
    _, c, h, w = x.shape
    key = (c, h, w, k, stride, pad, x.dtype.char)
    buffers = _WORKSPACES.get(key)
    if buffers is None:
        oh, ow = conv_output_hw(h, w, k, stride, pad)
        buffers = _WORKSPACES[key] = (
            np.zeros((CONV_CHUNK, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype),
            np.empty((CONV_CHUNK, c * k * k, oh * ow), dtype=x.dtype),
        )
    return buffers


class Parameter:
    """A trainable array with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """Base layer: ``forward`` caches what the backward-state mode asks
    for, ``backward`` returns dX."""

    def params(self) -> dict[str, Parameter]:
        """Trainable parameters, keyed by local name."""
        return {}

    def children(self) -> list[tuple[str, "Layer"]]:
        """Named sub-layers, for hierarchical traversal."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


def _kaiming(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


class Conv2d(Layer):
    """3x3/1x1-style convolution via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(_kaiming((out_channels, fan_in), fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.weight_transform: WeightTransform | None = None
        self._cache: tuple | None = None

    def params(self) -> dict[str, Parameter]:
        named = {"weight": self.weight}
        if self.bias is not None:
            named["bias"] = self.bias
        return named

    def effective_weight(self) -> np.ndarray:
        if self.weight_transform is not None:
            return self.weight_transform(self.weight.value)
        return self.weight.value

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k, stride, pad = self.kernel, self.stride, self.pad
        oh, ow = conv_output_hw(h, w, k, stride, pad)
        weight = self.effective_weight()
        state = _state
        cols_shape = (n, c * k * k, oh * ow)
        if state != "all" and stack_certified(weight, cols_shape, x.dtype):
            # No backward reads the columns: never hold all of them,
            # one GEMM per chunk.
            cols = None
            out = np.empty(
                (n, self.out_channels, oh * ow), np.result_type(weight, x)
            )
            for rows, chunk in self._fill_columns(x):
                np.matmul(weight, chunk, out=out[rows])
        else:
            cols = np.empty(cols_shape, x.dtype)
            for _ in self._fill_columns(x, out=cols):
                pass  # each chunk lands in its rows of cols
            out = contract("of,nfp->nop", weight, cols)
        if self.bias is not None:
            out += self.bias.value[None, :, None]
        # dW reads the columns; dX needs only the input shape.
        self._cache = None if state == "none" else (
            x.shape, cols if state == "all" else None
        )
        return np.ascontiguousarray(
            out.reshape(n, self.out_channels, oh, ow)
        )

    def _fill_columns(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(rows, columns of those rows)`` chunk by chunk, each
        filled through the shape class's reused workspace -- whose zero
        border replaces np.pad -- into ``out[rows]`` when ``out`` is
        given, else into the workspace's own column buffer."""
        n, _, h, w = x.shape
        k, stride, pad = self.kernel, self.stride, self.pad
        padded, work = _workspace(x, k, stride, pad)
        interior = padded[:, :, pad : pad + h, pad : pad + w]
        for start in range(0, n, CONV_CHUNK):
            stop = min(start + CONV_CHUNK, n)
            m = stop - start
            if pad:
                interior[:m] = x[start:stop]
                src = padded[:m]
            else:
                src = x[start:stop]
            cols = work[:m] if out is None else out[start:stop]
            yield slice(start, stop), im2col(src, k, stride, 0, out=cols)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_shape, cols = _kept(self._cache)
        n = dy.shape[0]
        dy_flat = np.ascontiguousarray(dy.reshape(n, self.out_channels, -1))
        if cols is not None:
            # STE: the gradient w.r.t. the raw weight equals the gradient
            # w.r.t. the transformed weight.
            self.weight.grad += contract("nop,nfp->of", dy_flat, cols)
            if self.bias is not None:
                self.bias.grad += dy_flat.sum(axis=(0, 2))
        weight = self.effective_weight()
        dcols = contract("of,nop->nfp", weight, dy_flat)
        return col2im(dcols, x_shape, self.kernel, self.stride, self.pad)


class Linear(Layer):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.weight_transform: WeightTransform | None = None
        self._cache: tuple | None = None

    def params(self) -> dict[str, Parameter]:
        named = {"weight": self.weight}
        if self.bias is not None:
            named["bias"] = self.bias
        return named

    def effective_weight(self) -> np.ndarray:
        if self.weight_transform is not None:
            return self.weight_transform(self.weight.value)
        return self.weight.value

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # dW reads the input; dX needs only the weight.
        self._cache = None if _state == "none" else (
            x if _state == "all" else None,
        )
        out = x @ self.effective_weight().T
        if self.bias is not None:
            out += self.bias.value
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x,) = _kept(self._cache)
        if x is not None:
            self.weight.grad += dy.T @ x
            if self.bias is not None:
                self.bias.grad += dy.sum(axis=0)
        return dy @ self.effective_weight()


class BatchNorm2d(Layer):
    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def params(self) -> dict[str, Parameter]:
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mean = x.mean(axis=(0, 2, 3)) if training else self.running_mean
        centered = x - mean[None, :, None, None]
        if training:
            # x.var's own subtract, square, sum and divide, so the same
            # bytes -- with the subtraction shared with x_hat.
            var = np.square(centered).mean(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32)
        else:
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        state = _state
        gamma = self.gamma.value[None, :, None, None]
        beta = self.beta.value[None, :, None, None]
        centered *= inv_std[None, :, None, None]  # x_hat, in place
        # dgamma reads x_hat, and so does a training-mode dX.
        if state == "all" or (state == "input" and training):
            x_hat = centered
            out = gamma * x_hat
        else:
            # Nothing keeps x_hat: scale it in place (g * x == x * g).
            x_hat = None
            out = centered
            out *= gamma
        out += beta
        self._cache = None if state == "none" else (
            x_hat, inv_std, x.shape, training, state == "all"
        )
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_hat, inv_std, shape, was_training, param_grads = _kept(self._cache)
        n, _, h, w = shape
        m = n * h * w
        if param_grads:
            self.gamma.grad += (dy * x_hat).sum(axis=(0, 2, 3))
            self.beta.grad += dy.sum(axis=(0, 2, 3))
        gamma = self.gamma.value[None, :, None, None]
        dxhat = dy * gamma
        if not was_training:
            # Eval mode: running stats don't depend on x.
            return (dxhat * inv_std[None, :, None, None]).astype(np.float32, copy=False)
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (
            dxhat - sum_dxhat / m - x_hat * sum_dxhat_xhat / m
        ) * inv_std[None, :, None, None]
        return dx.astype(np.float32, copy=False)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = None if _state == "none" else mask
        return x * mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * _kept(self._mask)


class MaxPool2d(Layer):
    """Non-overlapping k x k max pooling."""

    def __init__(self, k: int = 2):
        self.k = k
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial size {h}x{w} not divisible by {k}")
        # A fold of np.maximum over the k*k strided taps, in row-major
        # order, from a copy of the first (so out never aliases x).  Max
        # is exact, so the order can only show in a +0.0/-0.0 tie or a
        # NaN; tests pin both against the block reduction.
        out = x[:, :, ::k, ::k].copy()
        for di in range(k):
            for dj in range(k):
                if di or dj:
                    np.maximum(out, x[:, :, di::k, dj::k], out=out)
        if _state == "none":
            self._cache = None
        else:
            blocks = x.reshape(n, c, h // k, k, w // k, k)
            self._cache = (blocks == out[:, :, :, None, :, None], x.shape)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask, shape = _kept(self._cache)
        spread = mask * dy[:, :, :, None, :, None]
        return spread.reshape(shape).astype(np.float32, copy=False)


class GlobalAvgPool(Layer):
    """Mean over the spatial dimensions -> (N, C)."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = None if _state == "none" else x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        shape = _kept(self._shape)
        n, c, h, w = shape
        return np.broadcast_to(dy[:, :, None, None] / (h * w), shape).astype(
            np.float32
        )


class Flatten(Layer):
    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = None if _state == "none" else x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(_kept(self._shape))


class Sequential(Layer):
    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def children(self) -> list[tuple[str, Layer]]:
        return [(str(index), layer) for index, layer in enumerate(self.layers)]

    def params(self) -> dict[str, Parameter]:
        named = {}
        for index, layer in enumerate(self.layers):
            for name, param in layer.params().items():
                named[f"{index}.{name}"] = param
        return named

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def forward_from(
        self, x: np.ndarray, start: int, training: bool = False
    ) -> np.ndarray:
        """Suffix forward: run ``layers[start:]`` on ``x``, the input
        activation of layer ``start``.  With ``x`` taken from a cached
        full forward, the result is bit-identical to running the whole
        network -- the prefix would recompute exactly those values.
        ``start >= len(self.layers)`` returns ``x`` unchanged (the
        "suffix" past the last layer is the identity on the logits)."""
        if not 0 <= start <= len(self.layers):
            raise IndexError(
                f"suffix start {start} out of range 0..{len(self.layers)}"
            )
        for layer in self.layers[start:]:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy
