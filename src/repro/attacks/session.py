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
  the batch axis and the suffix runs once (one GEMM per conv via
  :func:`repro.nn.functional.contract`).  Per-sample GEMM results can
  drift by ulps across batch sizes for some shapes, so the batched
  path is *verified bitwise once per shape class* against the
  per-candidate suffixes (the same discipline as ``contract``); shape
  classes that disagree fall back to per-candidate suffixes forever.
* **Weight-state digests** -- :meth:`refresh` re-hashes every
  top-level layer's parameters (and BatchNorm buffers) and drops
  cached activations *downstream of the first changed layer only*,
  which is how committed flips, DRAM sync collateral, and repair
  hooks invalidate precisely.  Probes (accuracy / ASR / objective)
  and the per-iteration objective gradients are memoized on the
  combined digest, so unchanged weight states -- every blocked
  campaign under DRAM-Locker -- never re-run a probe or the
  gradient pass.
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
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..engines import SEARCH_ENGINES as _SEARCH_ENGINES, resolve_engine
from ..nn.functional import cross_entropy, cross_entropy_grad
from ..nn.layers import Sequential, no_backward
from ..nn.model import PREDICT_BATCH, PrefixActivationCache, iter_layers
from ..nn.quant import QuantizedModel

__all__ = ["SEARCH_ENGINES", "SearchTerm", "SessionStats", "SearchSession"]

SEARCH_ENGINES = _SEARCH_ENGINES

#: A candidate flip: ``(tensor path, flat weight index, bit)``.
Candidate = tuple[str, int, int]


class SearchTerm(NamedTuple):
    """One weighted cross-entropy term of a search objective."""

    x: np.ndarray
    labels: np.ndarray
    weight: float = 1.0


@dataclass
class SessionStats:
    """Work counters -- what the engine actually saved."""

    candidate_evals: int = 0
    suffix_batches: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    grad_hits: int = 0
    grad_misses: int = 0


class SearchSession:
    """Shared candidate-evaluation engine for one attack instance."""

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
        self._probes: dict[tuple, Any] = {}
        self._grads_memo: tuple | None = None
        self._batch_ok: dict[tuple, bool] = {}
        self._layer_digests: dict[int, bytes] = {}
        self._digest: bytes | None = None

    # ------------------------------------------------------------------
    # Weight-state digests and cache invalidation
    # ------------------------------------------------------------------
    @staticmethod
    def _layer_digest(layer) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for param in layer.params().values():
            h.update(np.ascontiguousarray(param.value))
        for _, node in iter_layers(layer):
            for buffer_name in ("running_mean", "running_var"):
                value = getattr(node, buffer_name, None)
                if isinstance(value, np.ndarray):
                    h.update(np.ascontiguousarray(value))
        return h.digest()

    def refresh(self) -> None:
        """Re-scan the weight state.  The first top-level layer whose
        digest changed invalidates every cached activation downstream
        of it (its own *input* stays valid); unchanged states keep all
        caches and the probe/gradient memo keys."""
        if self.engine != "suffix":
            return
        changed: int | None = None
        parts: list[bytes] = []
        for index, layer in enumerate(self.model.net.layers):
            digest = self._layer_digest(layer)
            parts.append(digest)
            if self._layer_digests.get(index) != digest:
                self._layer_digests[index] = digest
                if changed is None:
                    changed = index
        if changed is not None or self._digest is None:
            for cache in self._caches.values():
                cache.invalidate_from(changed if changed is not None else 0)
            self._digest = hashlib.blake2b(
                b"".join(parts), digest_size=16
            ).digest()

    def state_digest(self) -> bytes | None:
        """Digest of the current weight state (``None`` on the
        reference engine, which never memoizes)."""
        self.refresh()
        return self._digest

    def _cache_for(self, x: np.ndarray) -> PrefixActivationCache:
        cache = self._caches.get(id(x))
        if cache is None:
            cache = PrefixActivationCache(self.model.net, x)
            self._caches[id(x)] = cache
        return cache

    # ------------------------------------------------------------------
    # Objective and gradients
    # ------------------------------------------------------------------
    def _full_objective(self, terms: Sequence) -> float:
        return sum(
            term.weight * self.model.loss(term.x, term.labels)
            for term in terms
        )

    def objective(self, terms: Sequence, key: str = "objective") -> float:
        """``sum(term.weight * CE(term.x))`` under the current weights,
        served from cached logits and memoized on the state digest."""
        if self.engine != "suffix":
            return self._full_objective(terms)
        return self.probe(
            key,
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
        """d(objective)/d(weight) per quantized tensor, flattened.

        Memoized on the weight-state digest: a blocked campaign leaves
        the weights untouched, so the next iteration's gradient pass
        would recompute identical values.
        """
        if self.engine == "suffix":
            self.refresh()
            terms_key = tuple(id(term) for term in terms)
            memo = self._grads_memo
            if memo is not None and memo[0] == (self._digest, terms_key):
                self.stats.grad_hits += 1
                return {name: grad.copy() for name, grad in memo[1].items()}
            self.stats.grad_misses += 1
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
        if self.engine == "suffix":
            self._grads_memo = (
                (self._digest, terms_key),
                {name: grad.copy() for name, grad in grads.items()},
            )
        return grads

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _apply_flip(self, name: str, index: int, bit: int) -> None:
        self.qmodel.tensors[name].flip_bit(index, bit)
        self.qmodel.sync_layer(name)

    def _suffix_logits(
        self, start: int, outs: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Logits for each perturbed layer output, through one stacked
        suffix pass when that is verified bit-identical for this shape
        class, else through per-candidate suffixes."""
        net = self.model.net
        if len(outs) == 1:
            return [net.forward_from(outs[0], start)]
        key = (start, outs[0].shape, len(outs))
        ok = self._batch_ok.get(key)
        if ok:
            self.stats.suffix_batches += 1
            per_candidate = outs[0].shape[0]
            logits = net.forward_from(np.concatenate(outs, axis=0), start)
            return [
                logits[i * per_candidate : (i + 1) * per_candidate]
                for i in range(len(outs))
            ]
        reference = [net.forward_from(a, start) for a in outs]
        if ok is None:
            per_candidate = outs[0].shape[0]
            logits = net.forward_from(np.concatenate(outs, axis=0), start)
            batched = [
                logits[i * per_candidate : (i + 1) * per_candidate]
                for i in range(len(outs))
            ]
            self._batch_ok[key] = all(
                np.array_equal(b, r) for b, r in zip(batched, reference)
            )
        return reference

    def evaluate_flips(
        self, terms: Sequence, candidates: Sequence[Candidate]
    ) -> list[float]:
        """Objective value each candidate flip would produce, in input
        order -- bit-identical to flip -> full forward -> revert."""
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
    def probe(self, key: str, compute: Callable[[], Any]) -> Any:
        """Memoize ``compute()`` on the current weight-state digest.
        Callers guarantee one ``key`` always names the same computation
        over the same inputs."""
        if self.engine != "suffix":
            return compute()
        self.refresh()
        memo_key = (key, self._digest)
        if memo_key not in self._probes:
            self.stats.probe_misses += 1
            self._probes[memo_key] = compute()
        else:
            self.stats.probe_hits += 1
        return self._probes[memo_key]

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

    def accuracy(
        self, x: np.ndarray, labels: np.ndarray, key: str = "accuracy"
    ) -> float:
        """Digest-memoized ``model.accuracy`` over a fixed probe set."""
        return self.probe(
            key, lambda: float(100.0 * (self._predict(x) == labels).mean())
        )

    def success_rate(
        self, x: np.ndarray, target: int, key: str = "asr"
    ) -> float:
        """Digest-memoized attack success rate: percent of ``x``
        classified as ``target``."""
        return self.probe(
            key, lambda: float(100.0 * (self._predict(x) == target).mean())
        )
