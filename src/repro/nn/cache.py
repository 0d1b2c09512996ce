"""Content-addressed cache of trained victim models.

Training the victim dominates the wall-clock of every trained-victim
scenario, and the defense x attack matrix re-trains the *same* victim
once per cell.  This cache trains each victim exactly once: the key is
a SHA-256 over everything that determines the trained weights --

* the **initial model state** (all parameters + BatchNorm buffers, so
  architecture, width, and init seed are captured by content, not by
  name),
* the **dataset content** (the actual train/test arrays),
* the **training configuration** (every :class:`TrainConfig` field),
* an optional **hardening** descriptor (regularizer label + knobs for
  the Table II builders), and
* a schema version, bumped whenever the training code changes
  semantics.

Training is deterministic, so a cache hit is *bit-identical* to a
fresh train (``tests/test_victim_cache.py`` pins this).  Entries are
``.npz`` files written atomically (tmp file + ``os.replace``), so
parallel harness workers can share one cache directory without
torn reads.

The cache location comes from ``REPRO_VICTIM_CACHE``:

* unset  -> ``~/.cache/dram-locker/victims``
* a path -> that directory
* ``0`` / ``off`` / ``disabled`` -> caching disabled (every call trains)
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from .data import Dataset
from .model import Model, iter_layers
from .train import TrainConfig, TrainResult, train

__all__ = [
    "CACHE_SCHEMA",
    "CACHE_ENV_VAR",
    "MEMORY_ENV_VAR",
    "VictimCache",
    "model_state",
    "load_model_state",
    "hash_arrays",
    "dataset_fingerprint",
    "victim_spec",
    "cached_train",
    "memory_cache_entries",
    "memory_cache_generation",
    "memory_cache_put",
    "memory_cache_clear",
]

#: Bump when the trainer/layers change in a result-affecting way.
CACHE_SCHEMA = 1

CACHE_ENV_VAR = "REPRO_VICTIM_CACHE"

#: Set to ``off`` to bypass the in-process memory layer (the
#: victim-cache benchmark does, so it keeps timing the disk path).
MEMORY_ENV_VAR = "REPRO_VICTIM_CACHE_MEMORY"

_DISABLED_VALUES = {"0", "off", "disabled", "no", "false"}


# ----------------------------------------------------------------------
# Model state capture (parameters + non-parameter buffers)
# ----------------------------------------------------------------------
def model_state(model: Model) -> dict[str, np.ndarray]:
    """Every array that defines the model's inference behaviour.

    ``parameters()`` misses the BatchNorm running statistics (they are
    buffers, not trainable), so they are captured per-layer here --
    without them a restored victim would not be bit-identical.
    """
    state: dict[str, np.ndarray] = {
        f"param:{name}": param.value
        for name, param in model.parameters().items()
    }
    for path, layer in iter_layers(model.net):
        for buffer in ("running_mean", "running_var"):
            value = getattr(layer, buffer, None)
            if isinstance(value, np.ndarray):
                state[f"buffer:{path}.{buffer}"] = value
    return state


def load_model_state(model: Model, state: dict[str, np.ndarray]) -> None:
    """Inverse of :func:`model_state`; strict about coverage."""
    params = model.parameters()
    buffers: dict[str, tuple[Any, str]] = {}
    for path, layer in iter_layers(model.net):
        for buffer in ("running_mean", "running_var"):
            if isinstance(getattr(layer, buffer, None), np.ndarray):
                buffers[f"{path}.{buffer}"] = (layer, buffer)
    expected = {f"param:{name}" for name in params} | {
        f"buffer:{name}" for name in buffers
    }
    if expected != set(state):
        missing = sorted(expected - set(state))[:3]
        extra = sorted(set(state) - expected)[:3]
        raise ValueError(
            f"cached state does not match the model "
            f"(missing {missing}, unexpected {extra})"
        )
    for key, value in state.items():
        kind, name = key.split(":", 1)
        if kind == "param":
            params[name].value[...] = value
        else:
            layer, buffer = buffers[name]
            setattr(layer, buffer, value.copy())


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def hash_arrays(arrays: dict[str, np.ndarray]) -> str:
    """Order-independent content hash of named arrays."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash of the full train/test split."""
    return hash_arrays(
        {
            "name": np.frombuffer(dataset.name.encode("utf-8"), dtype=np.uint8),
            "train_x": dataset.train_x,
            "train_y": dataset.train_y,
            "test_x": dataset.test_x,
            "test_y": dataset.test_y,
        }
    )


def victim_spec(
    model: Model,
    dataset: Dataset,
    config: TrainConfig,
    arch: str = "",
    hardening: dict | None = None,
) -> dict:
    """The cache-key document for one (model, dataset, train) triple."""
    return {
        "schema": CACHE_SCHEMA,
        "arch": arch,
        "init_state": hash_arrays(model_state(model)),
        "dataset": dataset_fingerprint(dataset),
        "train": asdict(config),
        "hardening": hardening,
    }


# ----------------------------------------------------------------------
# The in-process memory layer
# ----------------------------------------------------------------------
# Module-level so that fork-started harness workers inherit every entry
# the parent loaded or trained before the pool was created: the victim
# arrays ship to workers through the fork copy-on-write page table
# instead of being re-read (or re-trained) per worker.  Keyed by
# ``(directory, content key)`` so the off/cold/warm semantics of a
# cache *directory* (which the victim-cache benchmark measures) are
# preserved exactly.
_MEMORY: dict[tuple[str, str], dict[str, np.ndarray]] = {}

#: Bumped by every insertion into the layer and every clear: a clear
#: followed by a put leaves the entry count as it was, but not this.
_GENERATION = 0


def memory_cache_entries() -> dict[tuple[str, str], dict[str, np.ndarray]]:
    """A snapshot of the in-process layer (for shipping to workers)."""
    return dict(_MEMORY)


def memory_cache_generation() -> int:
    """Changes whenever the layer does (a live worker pool holding an
    older layer must be recreated)."""
    return _GENERATION


def memory_cache_put(
    directory: str, key: str, state: dict[str, np.ndarray]
) -> None:
    """Register one entry (workers attaching shared memory use this)."""
    global _GENERATION
    _MEMORY[(directory, key)] = state
    _GENERATION += 1


def memory_cache_clear() -> None:
    global _GENERATION
    _MEMORY.clear()
    _GENERATION += 1


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_hits: int = 0


@dataclass
class VictimCache:
    """A directory of content-addressed ``.npz`` model states.

    With ``memory=True`` every load/store also populates the
    process-wide memory layer, so repeat lookups (and fork-inherited
    harness workers) skip the ``.npz`` round-trip entirely.  Default
    off so directory-level tests observe pure disk behaviour.
    """

    directory: str | None = None
    enabled: bool = True
    memory: bool = False
    stats: CacheStats = field(default_factory=CacheStats)

    @classmethod
    def from_env(cls) -> "VictimCache":
        value = os.environ.get(CACHE_ENV_VAR, "").strip()
        memory = (
            os.environ.get(MEMORY_ENV_VAR, "").strip().lower()
            not in _DISABLED_VALUES
        )
        if value.lower() in _DISABLED_VALUES and value != "":
            return cls(directory=None, enabled=False)
        if value:
            return cls(directory=value, memory=memory)
        return cls(
            directory=os.path.join(
                os.path.expanduser("~"), ".cache", "dram-locker", "victims"
            ),
            memory=memory,
        )

    @classmethod
    def disabled(cls) -> "VictimCache":
        return cls(directory=None, enabled=False)

    # ------------------------------------------------------------------
    def key_for(self, spec: dict) -> str:
        canonical = json.dumps(spec, sort_keys=True, default=list)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"victim-{key}.npz")

    def load(self, key: str) -> dict[str, np.ndarray] | None:
        if not self.enabled or self.directory is None:
            return None
        if self.memory:
            state = _MEMORY.get((self.directory, key))
            if state is not None:
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return state
        path = self.path_for(key)
        try:
            with np.load(path) as archive:
                state = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # Missing, torn, or corrupted entry: treat as a miss; a
            # fresh train will overwrite it atomically.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.memory:
            memory_cache_put(self.directory, key, state)
        return state

    def store(self, key: str, state: dict[str, np.ndarray]) -> str | None:
        if not self.enabled or self.directory is None:
            return None
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(key)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=f"victim-{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **state)
            os.replace(tmp_path, path)  # atomic on POSIX
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        if self.memory:
            memory_cache_put(
                self.directory,
                key,
                {name: np.array(value, copy=True) for name, value in state.items()},
            )
        return path


# ----------------------------------------------------------------------
# Train-through-the-cache
# ----------------------------------------------------------------------
def cached_train(
    model: Model,
    dataset: Dataset,
    config: TrainConfig,
    cache: VictimCache | None = None,
    arch: str = "",
    hardening: dict | None = None,
    grad_hook: Callable[[Model], None] | None = None,
) -> tuple[bool, TrainResult | None]:
    """:func:`repro.nn.train.train`, memoised by content.

    Returns ``(hit, history)``; ``history`` is ``None`` on a hit (the
    cache stores the trained state, not the per-epoch curves).  The
    ``hardening`` descriptor must name any ``grad_hook`` behaviour --
    the hook itself cannot be hashed.
    """
    if cache is None:
        cache = VictimCache.from_env()
    if grad_hook is not None and hardening is None:
        raise ValueError(
            "a grad_hook changes the trained weights; describe it via "
            "`hardening=` so it participates in the cache key"
        )
    spec = victim_spec(
        model, dataset, config, arch=arch, hardening=hardening
    )
    key = cache.key_for(spec)
    state = cache.load(key)
    if state is not None:
        load_model_state(model, state)
        return True, None
    history = train(model, dataset, config, grad_hook=grad_hook)
    cache.store(key, model_state(model))
    return False, history
