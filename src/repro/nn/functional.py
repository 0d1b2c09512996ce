"""Low-level NumPy ops: im2col convolution plumbing and losses."""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_hw",
    "im2col",
    "col2im",
    "contract",
    "stack_certified",
    "softmax",
    "cross_entropy",
    "cross_entropy_grad",
]


# ----------------------------------------------------------------------
# Verified fast contractions
# ----------------------------------------------------------------------
# einsum(optimize=True) picks shape-dependent contraction paths; for most
# conv shapes a single broadcast matmul / tensordot computes the exact
# same BLAS reduction order several times faster, but for some (small
# feature-map) shapes einsum dispatches differently and the results
# drift by ulps -- enough to perturb a training trajectory.  `contract`
# therefore verifies the fast path ONCE per (spec, shapes, dtypes): the
# first call computes both and compares bitwise; only shapes where the
# fast path is bit-identical ever use it again.  einsum's dispatch is a
# pure function of shapes/dtypes, so one agreeing sample certifies the
# shape class.

_CONTRACT_FAST = {
    # conv forward: (O, F) x (N, F, P) -> (N, O, P)
    "of,nfp->nop": lambda w, cols: np.matmul(w, cols),
    # conv dX: (O, F) x (N, O, P) -> (N, F, P)
    "of,nop->nfp": lambda w, dy: np.matmul(w.swapaxes(0, 1), dy),
    # conv dW: (N, O, P) x (N, F, P) -> (O, F)
    "nop,nfp->of": lambda dy, cols: np.tensordot(
        dy, cols, axes=((0, 2), (0, 2))
    ),
}
_CONTRACT_OK: dict[tuple, bool] = {}


def _contract_key(spec: str, a: np.ndarray, b_shape: tuple, b_dtype) -> tuple:
    return (spec, a.shape, tuple(b_shape), a.dtype.char, np.dtype(b_dtype).char)


def contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, a, b, optimize=True)``, bit-for-bit, through the
    fast single-GEMM path whenever that path has been verified identical
    for this shape class."""
    key = _contract_key(spec, a, b.shape, b.dtype)
    ok = _CONTRACT_OK.get(key)
    if ok:
        return _CONTRACT_FAST[spec](a, b)
    ein = np.einsum(spec, a, b, optimize=True)
    if ok is None:
        _CONTRACT_OK[key] = bool(
            np.array_equal(ein, _CONTRACT_FAST[spec](a, b))
        )
    return ein


def stack_certified(a: np.ndarray, b_shape: tuple, b_dtype) -> bool:
    """Whether ``contract("of,nfp->nop", a, b)`` is already certified for
    a ``b`` of this shape and dtype.

    The conv-forward fast path is a stacked ``np.matmul``: one GEMM per
    sample, each independent of the others.  So once the full stack is
    certified, ``np.matmul(a, rows)`` of any row chunk of ``b`` gives
    exactly those rows of ``contract``'s result -- which lets a caller
    build ``b`` a few rows at a time without ever holding all of it.
    An uncertified class must go through :func:`contract` (which is
    also what certifies it)."""
    return bool(_CONTRACT_OK.get(_contract_key("of,nfp->nop", a, b_shape, b_dtype)))


def conv_output_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output size of a convolution."""
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("convolution output would be empty")
    return oh, ow


def _col_indices(c: int, h: int, w: int, k: int, stride: int, pad: int):
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    i0 = np.repeat(np.arange(k), k)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(oh), ow)
    j0 = np.tile(np.arange(k), k * c)
    j1 = stride * np.tile(np.arange(ow), oh)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    ch = np.repeat(np.arange(c), k * k).reshape(-1, 1)
    return ch, i, j, oh, ow


#: Output widths up to this fill columns with one gather through a
#: cached index; wider maps copy a strided window view.  The copy's
#: inner loop runs along the output width, so it only pays off once
#: rows are long.
_GATHER_MAX_OW = 8
_GATHER_INDEX: dict[tuple, np.ndarray] = {}


def im2col(
    x: np.ndarray, k: int, stride: int, pad: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(N, C, H, W) -> (N, C*k*k, OH*OW) patch matrix, written into
    ``out`` (a C-contiguous array of that shape) when one is given."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
        h, w = h + 2 * pad, w + 2 * pad
    if out is None:
        out = np.empty((n, c * k * k, oh * ow), dtype=x.dtype)
    if ow <= _GATHER_MAX_OW and x.flags.c_contiguous:
        key = (c, h, w, k, stride)
        index = _GATHER_INDEX.get(key)
        if index is None:
            ch, i, j, _, _ = _col_indices(c, h, w, k, stride, 0)
            index = _GATHER_INDEX[key] = ((ch * h + i) * w + j).reshape(-1)
        # "wrap" (every index is in range) lets take write into out
        # directly instead of through a buffer.
        np.take(
            x.reshape(n, c * h * w),
            index,
            axis=1,
            out=out.reshape(n, index.size),
            mode="wrap",
        )
        return out
    # One strided view + one copy beats fancy indexing on wide maps;
    # the (C, k, k) leading order matches the _col_indices layout.
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        (n, c, k, k, oh, ow),
        (sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    out.reshape(n, c, k, k, oh, ow)[...] = windows
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    k: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add back to image space)."""
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # k*k strided slice-adds instead of one giant np.add.at scatter:
    # each kernel tap touches disjoint addresses, so the adds vectorize.
    taps = cols.reshape(n, c, k, k, oh, ow)
    for ki in range(k):
        for kj in range(k):
            padded[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ] += taps[:, :, ki, kj]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under ``logits``."""
    probs = softmax(logits)
    n = logits.shape[0]
    eps = 1e-12
    return float(-np.log(probs[np.arange(n), labels] + eps).mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d logits."""
    probs = softmax(logits)
    n = logits.shape[0]
    probs[np.arange(n), labels] -= 1.0
    return probs / n
