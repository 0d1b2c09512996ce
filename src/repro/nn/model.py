"""Model wrapper: traversal, loss/grad plumbing, evaluation."""

from __future__ import annotations

from typing import Hashable, Iterator

import numpy as np

from . import memo
from .functional import cross_entropy, cross_entropy_grad
from .layers import (
    Conv2d,
    Layer,
    Linear,
    Parameter,
    Sequential,
    backward_state,
    no_backward,
)

__all__ = [
    "PREDICT_BATCH",
    "Model",
    "PrefixActivationCache",
    "iter_layers",
    "named_parameters",
    "weight_layers",
]


#: Rows per forward in :meth:`Model.predict`.  A probe that must match
#: its predictions bit for bit splits its input the same way.
PREDICT_BATCH = 256


def iter_layers(layer: Layer, prefix: str = "") -> Iterator[tuple[str, Layer]]:
    """Depth-first traversal yielding ``(path, layer)`` for every layer."""
    yield prefix or "net", layer
    for name, child in layer.children():
        child_prefix = f"{prefix}.{name}" if prefix else name
        yield from iter_layers(child, child_prefix)


def named_parameters(layer: Layer) -> dict[str, Parameter]:
    """Hierarchically-named parameters of a layer tree."""
    named: dict[str, Parameter] = {}
    for path, node in iter_layers(layer):
        for local, param in node.params().items():
            if node.children():
                continue  # composite layers re-expose their children's params
            named[f"{path}.{local}"] = param
    return named


def weight_layers(layer: Layer) -> dict[str, Layer]:
    """Paths of the Conv2d/Linear layers -- the quantization targets."""
    return {
        path: node
        for path, node in iter_layers(layer)
        if isinstance(node, (Conv2d, Linear))
    }


class PrefixActivationCache:
    """Per-layer input activations of one input batch through a
    :class:`Sequential` net, in eval mode.

    Entry ``i`` is the *input* of top-level layer ``i`` (entry ``0`` is
    the input batch itself); entry ``len(layers)`` is the network
    output (the logits).  Entries are filled lazily: :meth:`input_of`
    runs the shortest missing prefix from the deepest cached entry, so
    repeated suffix evaluations share one prefix computation.

    The invalidation contract (pinned by ``tests/test_search_session``):
    a weight mutation inside top-level layer ``k`` leaves the *inputs*
    of layers ``0..k`` valid -- they are produced by layers ``< k`` --
    and must drop every entry ``> k``.  :meth:`invalidate_from` does
    exactly that.

    A cache built with a ``store`` (a dict shared with other caches,
    the matrix memo's) and a ``key`` reads through it: an entry filed
    under ``("activation", key, i)`` is not recomputed, and every entry
    the cache computes or is handed is filed there, read-only.  The key
    names the input and the weight state the stored entries were
    computed in, so only entries ``i <= shared_depth`` -- those whose
    producing layers ``< i`` are still in that state -- are read or
    filed; the owner moves ``shared_depth`` as the weights change.
    Filed arrays are never copied.  Computations and store hits count
    as the ``"activation"`` kind in :data:`repro.nn.memo.STATS`.

    Because eval-mode forwards are deterministic, every cached entry is
    bitwise what a fresh full forward would produce, so losses computed
    from :meth:`logits` are bit-identical to ``model.loss``.  No
    backward follows a prefix fill, so it runs under
    :func:`~repro.nn.layers.no_backward`.
    """

    def __init__(
        self,
        net: Sequential,
        x: np.ndarray,
        store: dict | None = None,
        key: Hashable | None = None,
        shared_depth: int = -1,
    ):
        if not isinstance(net, Sequential):
            raise TypeError("activation caching requires a Sequential net")
        self.net = net
        self.x = x
        self.depth = len(net.layers)
        self._acts: dict[int, np.ndarray] = {0: x}
        self._store = store if key is not None else None
        self._key = key
        #: Entries up to this index are read from and filed in the store.
        self.shared_depth = shared_depth

    def cached_indices(self) -> list[int]:
        """Currently valid entry indices (0 = the input batch)."""
        return sorted(self._acts)

    def input_of(self, k: int) -> np.ndarray:
        """Input activation of top-level layer ``k`` (``k == depth``
        yields the logits), reading the deepest missing entry it can
        from the store and computing (and caching) the rest."""
        if not 0 <= k <= self.depth:
            raise IndexError(f"layer index {k} out of range 0..{self.depth}")
        j = max(i for i in self._acts if i <= k)
        a = self._acts[j]
        if self._store is not None:
            for i in range(min(k, self.shared_depth), j, -1):
                stored = self._store.get(("activation", self._key, i))
                if stored is not None:
                    memo.STATS.hits["activation"] += 1
                    j = i
                    a = self._acts[i] = stored
                    break
        with no_backward():
            while j < k:
                a = self.net.layers[j].forward(a)
                j += 1
                self.store(j, a)
        return a

    def logits(self) -> np.ndarray:
        return self.input_of(self.depth)

    def store(self, i: int, a: np.ndarray) -> None:
        """Record the input of layer ``i``: one :meth:`input_of`
        computed, or one observed during an external full forward (the
        gradient pass doubles as a cache refill)."""
        if not 0 <= i <= self.depth:
            raise IndexError(f"layer index {i} out of range 0..{self.depth}")
        if i and self._store is not None and i <= self.shared_depth:
            a.flags.writeable = False
            a = self._store.setdefault(("activation", self._key, i), a)
        self._acts[i] = a
        if i:
            memo.STATS.computed["activation"] += 1

    def invalidate_from(self, k: int) -> None:
        """A weight inside top-level layer ``k`` changed: drop every
        activation downstream of it (entries ``> k``), keep the rest."""
        self._acts = {i: a for i, a in self._acts.items() if i <= k}

    def invalidate_all(self) -> None:
        self._acts = {0: self.x}


class Model:
    """A network plus the training/attack plumbing around it."""

    def __init__(self, net: Layer, name: str = "model"):
        self.net = net
        self.name = name

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def parameters(self) -> dict[str, Parameter]:
        return named_parameters(self.net)

    def weight_layers(self) -> dict[str, Layer]:
        return weight_layers(self.net)

    def zero_grad(self) -> None:
        for param in self.parameters().values():
            param.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    # ------------------------------------------------------------------
    # Forward / loss
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.net.forward(x, training=training)

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        with no_backward():
            return cross_entropy(self.forward(x), labels)

    def loss_and_grad(
        self, x: np.ndarray, labels: np.ndarray, training: bool = False
    ) -> float:
        """Forward + backward; gradients accumulate into parameters."""
        logits = self.forward(x, training=training)
        loss = cross_entropy(logits, labels)
        self.net.backward(cross_entropy_grad(logits, labels))
        return loss

    def input_grad(self, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """d(mean CE)/dx through an eval forward with the weights
        frozen: the same dX as ``forward`` + ``net.backward``, without
        computing a weight gradient -- every ``Parameter.grad`` is left
        untouched."""
        with backward_state("input"):
            logits = self.forward(x)
            return self.net.backward(cross_entropy_grad(logits, labels))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, batch: int = PREDICT_BATCH) -> np.ndarray:
        outputs = []
        with no_backward():
            for start in range(0, x.shape[0], batch):
                logits = self.forward(x[start : start + batch])
                outputs.append(np.argmax(logits, axis=1))
        return np.concatenate(outputs)

    def accuracy(
        self, x: np.ndarray, labels: np.ndarray, batch: int = PREDICT_BATCH
    ) -> float:
        """Top-1 accuracy in percent."""
        return float(100.0 * (self.predict(x, batch) == labels).mean())
