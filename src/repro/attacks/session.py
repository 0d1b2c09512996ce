"""SearchSession: the shared suffix-forward engine of every bit search.

Each iteration of the progressive bit search
(:class:`~repro.attacks.search.BitSearch`, the driver of BFA, the three
T-BFA regimes, the backdoor injection and multi-round BFA) evaluates a
handful of candidate flips with a real forward pass, then measures
objective / accuracy / ASR probes over fixed evaluation sets.  A candidate flip
perturbs exactly one weight in one top-level layer ``k``, so a full
forward pass recomputes layers ``0..k-1`` for nothing; and a blocked
campaign leaves the weight state byte-identical, so the probes
recompute a value that cannot have changed.

The session exploits both, while staying **bit-identical in outcome**
to the per-candidate full forwards it replaces:

* **Prefix-activation caching** -- every evaluation input (the attack
  batch, each objective term) gets a
  :class:`~repro.nn.model.PrefixActivationCache`; scoring a flip in
  layer ``k`` reuses the cached input of ``k`` and runs only
  ``Sequential.forward_from(k)``.  Eval-mode forwards are
  deterministic, so the suffix result is bitwise the full-forward
  result.
* **Same-layer candidate batching** -- candidates in one layer share
  the suffix ``k+1..end``; their layer-``k`` outputs are stacked along
  the batch axis, ``SUFFIX_STACK`` at a time, and the suffix runs once
  per stack (one GEMM per conv via
  :func:`repro.nn.functional.contract`).  Per-sample GEMM results can
  drift by ulps across batch sizes for some shapes, so the batched
  path is *verified bitwise once per shape class* against the
  per-candidate suffixes (the same discipline as ``contract``); shape
  classes that disagree fall back to per-candidate suffixes forever.
* **Weight-state digests** -- :meth:`refresh` re-hashes every
  top-level layer's parameters (and BatchNorm buffers) and drops
  cached activations *downstream of the first changed layer only*,
  which is how committed flips, DRAM sync collateral, and repair
  hooks invalidate precisely.
* **A content-keyed store** -- the per-iteration gradient leaders
  (:func:`gradient_leaders` of the gradient pass), each candidate
  flip's objective value and the objective / accuracy / ASR probes are
  pure functions of the weight state and their inputs, so each is
  stored under four key parts: its kind, a content key of the model
  structure and quantization scales (taken once, at construction), the
  weight-state digest, and the content of its inputs (each input array
  hashed once per array object).  Built inside a
  :func:`repro.nn.memo.scope`, the session files them in that scope's
  store, so the cells of one matrix share them: a locked cell -- every
  campaign blocked by DRAM-Locker, its weights never leaving the
  digest its open twin started from -- reads back what the twin
  already searched.  Outside a scope, or for a model with no content
  key (a ``weight_transform``), the store is the session's own.  Only
  small values are stored: floats, and per tensor a read-only copy of
  the leading indices and their gradients.
* **Shared clean-state activations** -- inside a scope each prefix
  cache also reads through the scope's store, under the structure key,
  the weight-state digest the session started from (taken at
  construction) and the content of its input.  Every cell of a matrix
  starts from the victim as built, so a layer input one cell computed
  is not forwarded again by another.  Only entries produced by layers
  still in the starting state are shared: :meth:`refresh` finds the
  first top-level layer whose digest left it, and entries past that
  layer stay private to the session.  Filed arrays are read-only and
  never copied.  The store keeps one starting state's activations: a
  session that starts from another state (another victim) drops the
  ones before.
* **Prefix-cached probes** -- accuracy and ASR probes read their
  argmax logits from one prefix cache per ``PREDICT_BATCH``-row chunk
  of the probe set, split exactly as ``Model.predict`` splits it, so
  after a committed flip in layer ``k`` a probe recomputes only
  layers ``>= k`` and still equals ``model.accuracy`` bit for bit.

Nothing but the gradient pass runs a backward, so prefix fills,
candidate scoring and probes all run under
:func:`~repro.nn.layers.no_backward`.

``engine="full"`` routes every operation through the legacy
flip -> full forward -> revert path with no caching or memoization; it
is the reference the equivalence tests (and the before/after
microbenchmark ``benchmarks/bench_attack_search.py``) compare the
suffix engine against.  Non-``Sequential`` nets fall back to it
automatically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..engines import SEARCH_ENGINES as _SEARCH_ENGINES, resolve_engine
from ..nn import memo
from ..nn.functional import cross_entropy, cross_entropy_grad
from ..nn.layers import Sequential, no_backward
from ..nn.model import PREDICT_BATCH, PrefixActivationCache, iter_layers
from ..nn.quant import QuantizedModel

__all__ = [
    "SEARCH_ENGINES",
    "SearchTerm",
    "SessionStats",
    "SearchSession",
    "gradient_leaders",
]

SEARCH_ENGINES = _SEARCH_ENGINES

#: A candidate flip: ``(tensor path, flat weight index, bit)``.
Candidate = tuple[str, int, int]

#: Candidates per stacked suffix pass.  A pair is one shape class per
#: layer, so it is certified once per session and reused whenever that
#: layer scores two or more candidates again.  On the quick ResNet-20
#: every pair certified, while stacks of three and five failed at
#: layers 7 and 10 and fell back to per-candidate suffixes.
SUFFIX_STACK = 2


class SearchTerm(NamedTuple):
    """One weighted cross-entropy term of a search objective."""

    x: np.ndarray
    labels: np.ndarray
    weight: float = 1.0


#: Per tensor: the leading flat indices by ``|grad|`` and their gradients.
Leaders = dict[str, tuple[np.ndarray, np.ndarray]]


def gradient_leaders(grads: dict[str, np.ndarray], k: int) -> Leaders:
    """Per tensor, the ``k`` flat indices of largest ``|grad|`` in the
    order of ``np.argsort(np.abs(grad))[-k:]`` (ties follow it), with
    their gradients.  Both are read-only copies, so a stored value
    keeps neither the argsort nor the full gradient alive."""
    leaders = {}
    for name, grad in grads.items():
        top = np.argsort(np.abs(grad))[-k:].copy()
        values = grad[top]
        top.flags.writeable = values.flags.writeable = False
        leaders[name] = (top, values)
    return leaders


@dataclass
class SessionStats:
    """Work counters -- what the engine actually saved."""

    #: Candidates asked for; ``candidate_hits`` of them came from the store.
    candidate_evals: int = 0
    candidate_hits: int = 0
    suffix_batches: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    #: Gradient-leader lookups.
    grad_hits: int = 0
    grad_misses: int = 0


class SearchSession:
    """Shared candidate-evaluation engine for one attack instance.
    Built inside a :func:`repro.nn.memo.scope`, it shares its search
    values and its clean-state activations with the scope's other
    sessions."""

    def __init__(self, qmodel: QuantizedModel, engine: str = "suffix"):
        resolve_engine(engine, allowed=SEARCH_ENGINES, kind="search")
        self.qmodel = qmodel
        self.model = qmodel.model
        self.stats = SessionStats()
        # Suffix execution needs a Sequential top level whose weight
        # layers are addressable by top index (both evaluation archs
        # are); anything else runs the reference engine.
        self._top_index: dict[str, int] = {}
        supported = isinstance(self.model.net, Sequential)
        if supported:
            for name in qmodel.tensors:
                head = name.split(".", 1)[0]
                if not head.isdigit():
                    supported = False
                    break
                self._top_index[name] = int(head)
        self.engine = engine if supported else "full"
        self._caches: dict[int, PrefixActivationCache] = {}
        # Probe-set chunk views, made once: caches are keyed by id, so
        # fresh views on every probe would never hit one.
        self._chunks: dict[int, list[np.ndarray]] = {}
        # Content keys of input arrays, by id; each entry holds its
        # array, so the id cannot be reused while the key is kept.
        self._array_keys: dict[int, tuple[np.ndarray, str | None]] = {}
        self._batch_ok: dict[tuple, bool] = {}
        # Per top-level layer, the (owner, attribute) pairs its digest
        # reads, found once; the arrays are read at every refresh.
        self._layer_arrays: list[list[tuple[object, str]]] = []
        self._layer_digests: list[bytes] = []
        self._digest: bytes | None = None
        self._structure: str | None = None
        self._store: dict = {}
        # The matrix store that clean-state activations are shared
        # through (None: nothing is shared), the per-layer digests the
        # session started from and their digest, and the lineage: the
        # first top-level layer whose digest left them (the layer count
        # if none has).
        self._activations: dict | None = None
        self._initial: list[bytes] = []
        self._origin: bytes | None = None
        self._lineage = -1
        if self.engine == "suffix":
            # Model structure and scales; the weights it also sees are
            # a harmless extra key part.  No key (a weight_transform):
            # the session keeps its own store and shares nothing.
            self._structure = memo.content_key(
                self.model,
                [(name, tensor.scale) for name, tensor in qmodel.tensors.items()],
            )
            shared = memo.active()
            if self._structure is not None and shared is not None:
                self._store = self._activations = shared
            self._layer_arrays = [
                self._arrays_of(layer) for layer in self.model.net.layers
            ]
            # The starting state is the one at construction, not at
            # first use: a random attack lands a flip before it probes.
            self.refresh()
            self._initial = self._layer_digests
            self._origin = self._digest
            if self._activations is not None:
                # One starting state at a time: a session starting from
                # another (another victim's) drops the activations of
                # the state before, so they cannot pile up per victim.
                origin = (self._structure, self._origin)
                for key in [
                    key for key in shared
                    if key[0] == "activation" and key[1][:2] != origin
                ]:
                    del shared[key]

    # ------------------------------------------------------------------
    # Weight-state digests and cache invalidation
    # ------------------------------------------------------------------
    @staticmethod
    def _arrays_of(layer) -> list[tuple[object, str]]:
        """Where a top-level layer's digest reads its arrays, in digest
        order: every parameter's ``value``, then every sub-layer's
        BatchNorm buffers.  Pairs, not arrays: ``load_model_state``
        replaces the buffer arrays."""
        pairs: list[tuple[object, str]] = [
            (param, "value") for param in layer.params().values()
        ]
        for _, node in iter_layers(layer):
            for buffer_name in ("running_mean", "running_var"):
                if isinstance(getattr(node, buffer_name, None), np.ndarray):
                    pairs.append((node, buffer_name))
        return pairs

    @staticmethod
    def _layer_digest(pairs: list[tuple[object, str]]) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for owner, attribute in pairs:
            h.update(np.ascontiguousarray(getattr(owner, attribute)))
        return h.digest()

    def refresh(self) -> None:
        """Re-scan the weight state.  The first top-level layer whose
        digest changed invalidates every cached activation downstream
        of it (its own *input* stays valid); unchanged states keep all
        caches and the probe/gradient memo keys.  The first layer whose
        digest differs from the starting state bounds the activations
        the caches share."""
        if self.engine != "suffix":
            return
        digests = [self._layer_digest(pairs) for pairs in self._layer_arrays]
        if digests == self._layer_digests:
            return
        changed = self._first_difference(self._layer_digests, digests)
        self._lineage = self._first_difference(self._initial, digests)
        self._layer_digests = digests
        self._digest = hashlib.blake2b(b"".join(digests), digest_size=16).digest()
        for cache in self._caches.values():
            cache.invalidate_from(changed)
            cache.shared_depth = self._lineage

    @staticmethod
    def _first_difference(before: list[bytes], after: list[bytes]) -> int:
        """The first index where two digest lists differ, ``len(after)``
        where they agree.  An empty ``before`` (the scan at
        construction, before any cache exists) agrees with anything."""
        return next(
            (i for i, (old, new) in enumerate(zip(before, after)) if old != new),
            len(after),
        )

    def state_digest(self) -> bytes | None:
        """Digest of the current weight state (``None`` on the
        reference engine, which never memoizes)."""
        self.refresh()
        return self._digest

    def _cache_for(self, x: np.ndarray) -> PrefixActivationCache:
        """The prefix cache of ``x``.  In a matrix scope it reads
        through the scope's store, keyed by the structure, the starting
        weight state and the content of ``x``."""
        cache = self._caches.get(id(x))
        if cache is None:
            key = None
            if self._activations is not None:
                content = self._array_key(x)
                if content is not None:
                    key = (self._structure, self._origin, content)
            cache = PrefixActivationCache(
                self.model.net, x, self._activations, key, self._lineage
            )
            self._caches[id(x)] = cache
        return cache

    # ------------------------------------------------------------------
    # The content-keyed store
    # ------------------------------------------------------------------
    def _prefix(self, *parts) -> tuple | None:
        """What every stored value is keyed by besides its kind and its
        own item: the structure key, the current weight-state digest and
        the content key of ``parts`` -- every input the value reads
        besides the weights, each array hashed once per array object.
        ``None`` (nothing is stored) when an input has no content
        encoding."""
        encoded = []
        for part in parts:
            if isinstance(part, np.ndarray):
                content = self._array_key(part)
                if content is None:
                    return None
                part = ("array", content)
            encoded.append(part)
        inputs = memo.content_key(encoded)
        if inputs is None:
            return None
        return (self._structure, self._digest, inputs)

    def _array_key(self, array: np.ndarray) -> str | None:
        """The content key of ``array``, hashed once per array object."""
        held = self._array_keys.get(id(array))
        if held is None:
            held = self._array_keys[id(array)] = (array, memo.content_key(array))
        return held[1]

    @staticmethod
    def _terms_parts(terms: Sequence) -> list:
        """Every input an objective reads besides the weights."""
        return [
            part for term in terms for part in (term.x, term.labels, term.weight)
        ]

    # ------------------------------------------------------------------
    # Objective and gradients
    # ------------------------------------------------------------------
    def _full_objective(self, terms: Sequence) -> float:
        return sum(
            term.weight * self.model.loss(term.x, term.labels)
            for term in terms
        )

    def objective(self, terms: Sequence) -> float:
        """``sum(term.weight * CE(term.x))`` under the current weights,
        served from cached logits through the store."""
        if self.engine != "suffix":
            return self._full_objective(terms)
        return self.probe(
            "objective",
            self._terms_parts(terms),
            lambda: sum(
                term.weight
                * cross_entropy(self._cache_for(term.x).logits(), term.labels)
                for term in terms
            ),
        )

    def _tracked_loss_and_grad(self, x: np.ndarray, labels: np.ndarray) -> float:
        """``Model.loss_and_grad``, recording every layer input into
        the activation cache along the way (the gradient pass doubles
        as the cache refill, so candidate evaluation starts warm)."""
        if self.engine != "suffix":
            return self.model.loss_and_grad(x, labels)
        cache = self._cache_for(x)
        net = self.model.net
        a = x
        cache.store(0, a)
        for index, layer in enumerate(net.layers):
            a = layer.forward(a)
            cache.store(index + 1, a)
        loss = cross_entropy(a, labels)
        net.backward(cross_entropy_grad(a, labels))
        return loss

    def objective_grads(self, terms: Sequence) -> dict[str, np.ndarray]:
        """d(objective)/d(weight) per quantized tensor, flattened: the
        gradient pass, which also refills the prefix caches.  Not
        memoized -- :meth:`leaders` stores its small reduction."""
        model = self.model
        layers = model.weight_layers()
        grads: dict[str, np.ndarray] | None = None
        for term in terms:
            model.zero_grad()
            self._tracked_loss_and_grad(term.x, term.labels)
            if grads is None:
                grads = {
                    name: term.weight * layers[name].weight.grad.reshape(-1).copy()
                    for name in self.qmodel.tensors
                }
            else:
                for name in grads:
                    grads[name] += (
                        term.weight * layers[name].weight.grad.reshape(-1)
                    )
        assert grads is not None
        return grads

    def leaders(self, terms: Sequence, k: int) -> Leaders:
        """:func:`gradient_leaders` of the objective's gradients, through
        the store: a blocked campaign leaves the weights untouched, so
        the next iteration -- or a locked twin cell -- would recompute
        identical values."""
        if self.engine != "suffix":
            return gradient_leaders(self.objective_grads(terms), k)
        self.refresh()
        (value,), computed = memo.memoized_many(
            "leaders",
            self._prefix(*self._terms_parts(terms)),
            [k],
            lambda _: [gradient_leaders(self.objective_grads(terms), k)],
            self._store,
        )
        if computed:
            self.stats.grad_misses += 1
        else:
            self.stats.grad_hits += 1
        return dict(value)

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _apply_flip(self, name: str, index: int, bit: int) -> None:
        self.qmodel.tensors[name].flip_bit(index, bit)
        self.qmodel.sync_layer(name)

    def _suffix_logits(
        self, start: int, outs: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Logits for each perturbed layer output, ``SUFFIX_STACK`` at a
        time: through one stacked suffix pass when that is verified
        bit-identical for the stack's shape class, else through
        per-candidate suffixes."""
        net = self.model.net
        logits: list[np.ndarray] = []
        for first in range(0, len(outs), SUFFIX_STACK):
            stack = outs[first : first + SUFFIX_STACK]
            if len(stack) == 1:
                logits.append(net.forward_from(stack[0], start))
                continue
            key = (start, stack[0].shape, len(stack))
            ok = self._batch_ok.get(key)
            if ok:
                self.stats.suffix_batches += 1
                logits.extend(self._stacked_suffix(start, stack))
                continue
            reference = [net.forward_from(a, start) for a in stack]
            if ok is None:
                self._batch_ok[key] = all(
                    np.array_equal(b, r)
                    for b, r in zip(self._stacked_suffix(start, stack), reference)
                )
            logits.extend(reference)
        return logits

    def _stacked_suffix(
        self, start: int, stack: list[np.ndarray]
    ) -> list[np.ndarray]:
        """One suffix pass over ``stack`` concatenated along the batch
        axis, split back per candidate."""
        batched = self.model.net.forward_from(np.concatenate(stack), start)
        return np.split(batched, len(stack))

    def evaluate_flips(
        self, terms: Sequence, candidates: Sequence[Candidate]
    ) -> list[float]:
        """Objective value each candidate flip would produce, in input
        order -- bit-identical to flip -> full forward -> revert.  Only
        the candidates the store lacks are scored."""
        self.stats.candidate_evals += len(candidates)
        if self.engine != "suffix":
            losses = []
            for name, index, bit in candidates:
                self.qmodel.flip_bit(name, index, bit)
                losses.append(self._full_objective(terms))
                self.qmodel.flip_bit(name, index, bit)  # revert
            self.qmodel.load_into_model()
            return losses

        # The legacy evaluator's first flip_bit() ran load_into_model(),
        # resetting any float-weight divergence (a repair hook's clamp,
        # say) back to the dequantized payloads before measuring -- and
        # left the model in that state afterwards.  Replicate it once up
        # front; refresh() then rebuilds exactly the prefixes it moved.
        self.qmodel.load_into_model()
        self.refresh()
        values, computed = memo.memoized_many(
            "candidate",
            self._prefix(*self._terms_parts(terms)),
            [tuple(candidate) for candidate in candidates],
            lambda missing: self._score_flips(terms, missing),
            self._store,
        )
        self.stats.candidate_hits += len(candidates) - computed
        return values

    def _score_flips(
        self, terms: Sequence, candidates: Sequence[Candidate]
    ) -> list[float]:
        """The suffix path of :meth:`evaluate_flips`: same-layer
        candidates share (verified) stacked suffixes per term."""
        per_term = [[0.0] * len(candidates) for _ in terms]
        groups: dict[int, list[int]] = {}
        for position, (name, _, _) in enumerate(candidates):
            groups.setdefault(self._top_index[name], []).append(position)
        net = self.model.net
        with no_backward():
            for term_pos, term in enumerate(terms):
                cache = self._cache_for(term.x)
                for k, positions in sorted(groups.items()):
                    layer_input = cache.input_of(k)
                    outs = []
                    for position in positions:
                        name, index, bit = candidates[position]
                        self._apply_flip(name, index, bit)
                        try:
                            outs.append(net.layers[k].forward(layer_input))
                        finally:
                            self._apply_flip(name, index, bit)  # revert
                    for position, logits in zip(
                        positions, self._suffix_logits(k + 1, outs)
                    ):
                        per_term[term_pos][position] = cross_entropy(
                            logits, term.labels
                        )
        return [
            sum(
                term.weight * per_term[term_pos][position]
                for term_pos, term in enumerate(terms)
            )
            for position in range(len(candidates))
        ]

    # ------------------------------------------------------------------
    # Memoized probes
    # ------------------------------------------------------------------
    def probe(
        self, name: str, inputs: Sequence, compute: Callable[[], float]
    ) -> float:
        """``compute()`` through the store, keyed by the probe's
        ``name``, the weight state and the content of ``inputs`` --
        every array and scalar it reads besides the weights."""
        if self.engine != "suffix":
            return compute()
        self.refresh()
        (value,), computed = memo.memoized_many(
            "probe", self._prefix(name, *inputs), [None],
            lambda _: [compute()], self._store,
        )
        if computed:
            self.stats.probe_misses += 1
        else:
            self.stats.probe_hits += 1
        return value

    def _predict(self, x: np.ndarray) -> np.ndarray:
        """``model.predict(x)``, bit for bit; the suffix engine reads
        each chunk's logits from its prefix cache."""
        if self.engine != "suffix":
            return self.model.predict(x)
        chunks = self._chunks.get(id(x))
        if chunks is None:
            chunks = self._chunks[id(x)] = [
                x[start : start + PREDICT_BATCH]
                for start in range(0, x.shape[0], PREDICT_BATCH)
            ]
        return np.concatenate(
            [np.argmax(self._cache_for(chunk).logits(), axis=1) for chunk in chunks]
        )

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Memoized ``model.accuracy`` over a fixed probe set."""
        return self.probe(
            "accuracy",
            (x, labels),
            lambda: float(100.0 * (self._predict(x) == labels).mean()),
        )

    def success_rate(self, x: np.ndarray, target: int) -> float:
        """Memoized attack success rate: percent of ``x`` classified as
        ``target``."""
        return self.probe(
            "asr",
            (x, target),
            lambda: float(100.0 * (self._predict(x) == target).mean()),
        )
