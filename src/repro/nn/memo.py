"""Matrix-scoped memo of a victim's clean-state and search work.

Every cell of an attack matrix attacks the same victim, and each one
used to redo that victim's clean-state work: synthesise its dataset,
measure its clean accuracy, train the backdoor trigger.  Inside a
:func:`scope` that work runs once per content key and later calls
return the stored value.  A hit returns exactly what a fresh
computation returns, so every payload is unchanged.  A
:class:`~repro.attacks.session.SearchSession` built inside a scope keeps
that scope's store (:func:`active`) and files its gradient leaders,
candidate values and probes there through :func:`memoized_many`, so a
locked cell reads what its open twin already searched.  Its prefix
caches (:class:`~repro.nn.model.PrefixActivationCache`) read through
the same store and file the layer inputs they compute while the
producing layers are still in the state the session started from, so
no cell forwards a clean-state prefix another cell already forwarded.

The rules (``tests/test_memo.py`` pins them):

* **Keys hash content, never object ids**, and cover every input the
  work reads.  :func:`content_key` walks arrays, scalars, sequences and
  the public attributes of models and layers -- class, hyperparameters,
  every :class:`~repro.nn.layers.Parameter` and BatchNorm buffer with
  its name, shape and dtype.  Underscore attributes are forward caches
  and are skipped.  An input with no content encoding (a layer's
  ``weight_transform`` function) makes the key ``None``, and the work
  is computed.
* **Values are immutable and small**: floats, read-only arrays, or
  records whose caller hands out a fresh object per call
  (``make_dataset``, a session's gradient leaders).  Activations are
  the one large kind: read-only arrays, never copied, of one starting
  weight state at a time (a matrix's victim as built).
* **Lifetime**: one memo per ``run_matrix`` call, in each process that
  runs its cells.  Outside a scope nothing is shared: the clean-state
  kinds are computed every time, and a search session keeps a store of
  its own that lives and dies with it.  A process-wide
  memo would let a second pass over the same matrix skip work the
  first pass did, so two passes would no longer run the same program.
* **Counts** live in :data:`STATS`, a plain object, not in
  :mod:`repro.obs`: which cell hits depends on which worker ran which
  cell, and merged matrix telemetry must not depend on the worker
  count.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator, Sequence, TypeVar

import numpy as np

# repro.nn.model imports this module: binding the module, not its
# names, lets either be imported first.
from . import model as nn_model
from .layers import Layer, Parameter

__all__ = [
    "MemoStats",
    "STATS",
    "accuracy",
    "active",
    "content_key",
    "memoized",
    "memoized_many",
    "restart",
    "scope",
]

T = TypeVar("T")


@dataclass
class MemoStats:
    """Work counters by kind (``"dataset"``, ``"accuracy"``,
    ``"trigger"``, a search session's ``"leaders"``, ``"candidate"``
    and ``"probe"``, and ``"activation"``, one per layer input a
    prefix cache computes or records): ``computed`` counts every
    computation, inside a scope or not; ``hits`` counts values served
    from a memo."""

    computed: Counter = field(default_factory=Counter)
    hits: Counter = field(default_factory=Counter)


#: Cumulative for the process; read it by differences.
STATS = MemoStats()

_active: dict[tuple[str, Any, Any], Any] | None = None


@contextmanager
def scope() -> Iterator[None]:
    """A fresh memo for the enclosed work; the previous one (or none)
    comes back on exit."""
    global _active
    previous = _active
    _active = {}
    try:
        yield
    finally:
        _active = previous


def restart() -> None:
    """Replace the active memo with a fresh one.  A pool worker calls
    this when a job from a new matrix arrives, since it cannot see
    where the previous matrix ended."""
    global _active
    _active = {}


def active() -> dict | None:
    """The active scope's store, ``None`` outside a scope.  An object
    that does memoized work over its own lifetime keeps the store it
    was built in and passes it to :func:`memoized_many`."""
    return _active


class _Unkeyable(Exception):
    """An input with no content encoding."""


def _put(digest, tag: str, payload: bytes = b"") -> None:
    digest.update(f"{tag}:{len(payload)}:".encode("utf-8"))
    digest.update(payload)


def _feed(digest, value: Any) -> None:
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:  # its bytes are pointers, not content
            raise _Unkeyable(str(value.dtype))
        array = np.ascontiguousarray(value)
        _put(digest, f"array {array.dtype.str} {array.shape}", array.tobytes())
    elif isinstance(value, Parameter):
        _put(digest, "parameter")
        _feed(digest, value.value)
    elif isinstance(value, (nn_model.Model, Layer)):
        cls = type(value)
        attrs = vars(value)
        public = sorted(name for name in attrs if not name.startswith("_"))
        _put(digest, f"object {cls.__module__}.{cls.__qualname__} {len(public)}")
        for name in public:
            _put(digest, "attr", name.encode("utf-8"))
            _feed(digest, attrs[name])
    elif isinstance(value, (list, tuple)):
        _put(digest, f"{type(value).__name__} {len(value)}")
        for item in value:
            _feed(digest, item)
    elif isinstance(value, str):
        _put(digest, "str", value.encode("utf-8"))
    elif value is None or isinstance(value, (bool, int, float, np.generic)):
        _put(digest, type(value).__name__, repr(value).encode("utf-8"))
    else:
        raise _Unkeyable(type(value).__name__)


def content_key(*parts: Any) -> str | None:
    """SHA-256 over the content of ``parts``, or ``None`` when one of
    them (or anything inside a model or layer) has no content
    encoding."""
    digest = hashlib.sha256()
    try:
        for part in parts:
            _feed(digest, part)
    except _Unkeyable:
        return None
    return digest.hexdigest()


def memoized(
    kind: str, key: Callable[[], str | None], compute: Callable[[], T]
) -> T:
    """``compute()``, run once per ``(kind, key())`` inside a scope.

    ``key`` is only called inside a scope, so work outside a matrix
    pays no hashing."""
    store = _active
    digest = key() if store is not None else None
    (value,), _ = memoized_many(
        kind, digest, [None], lambda _: [compute()], store
    )
    return value


def memoized_many(
    kind: str,
    prefix: Hashable | None,
    items: Sequence[Hashable],
    compute_missing: Callable[[list], Sequence[T]],
    store: dict | None,
) -> tuple[list[T], int]:
    """One value per item, in order, and how many were computed.

    Each value is filed under ``(kind, prefix, item)``.  Items found in
    ``store`` are read back; the others are computed by a single
    ``compute_missing(missing items)`` call -- each distinct item once,
    in first-seen order -- and stored.  A ``None`` store, or a ``None``
    prefix (an input with no content encoding), stores nothing."""
    if prefix is None:
        store = None
    values = {}
    missing = []
    for item in dict.fromkeys(items):  # the distinct items, first seen first
        entry = (kind, prefix, item)
        if store is not None and entry in store:
            values[item] = store[entry]
        else:
            missing.append(item)
    if missing:
        for item, value in zip(missing, compute_missing(missing), strict=True):
            values[item] = value
            if store is not None:
                store[(kind, prefix, item)] = value
        STATS.computed[kind] += len(missing)
    STATS.hits[kind] += len(items) - len(missing)
    return [values[item] for item in items], len(missing)


def accuracy(model: nn_model.Model, x: np.ndarray, labels: np.ndarray) -> float:
    """``model.accuracy(x, labels)`` through the memo: the key covers
    the model's state and structure, the probe and the labels."""
    return memoized(
        "accuracy",
        lambda: content_key(model, x, labels),
        lambda: model.accuracy(x, labels),
    )
