"""The suffix-forward search engine: bit-identical outcome equivalence
against the full-forward reference for every bit-search family (hand
picked, then generated over the shared driver), the driver's ranking
against the two loops it replaced, plus the prefix-activation-cache
invalidation contract and the content-keyed memoization of probes,
gradient leaders and candidate values."""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.attacks import (
    BackdoorConfig,
    BFAConfig,
    BitSearch,
    HammerableProfile,
    HammerDriver,
    MultiRoundBFA,
    MultiRoundConfig,
    ProgressiveBitSearch,
    RowhammerBackdoor,
    SearchConfig,
    SearchSession,
    SearchTerm,
    TBFAConfig,
    TBFAttack,
)
from repro.attacks.search import flip_loss_estimates
from repro.attacks.session import SUFFIX_STACK, gradient_leaders
from repro.controller import MemoryController
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.locker import DRAMLocker, LockMode, LockerConfig
from repro.nn import (
    Model,
    PrefixActivationCache,
    QuantizedModel,
    WeightStore,
    make_dataset,
    resnet20,
    train,
)
from repro.nn.train import TrainConfig

TRH = 60


@pytest.fixture(scope="module")
def dataset():
    return make_dataset("t", 4, hw=8, train_per_class=24, test_per_class=12, seed=3)


@pytest.fixture(scope="module")
def trained_model(dataset):
    model = resnet20(num_classes=4, width=4, input_hw=8, seed=1)
    train(model, dataset, TrainConfig(epochs=8, batch_size=16, lr=0.1, seed=1))
    return model


@pytest.fixture()
def qmodel(trained_model):
    q = QuantizedModel(trained_model)
    snapshot = q.snapshot()
    yield q
    q.restore(snapshot)


def run_both_engines(qmodel, build, iterations):
    """Run one attack under each engine from the same snapshot."""
    snapshot = qmodel.snapshot()
    results = {}
    for engine in ("full", "suffix"):
        qmodel.restore(snapshot)
        results[engine] = build(engine).run(iterations)
    qmodel.restore(snapshot)
    return results["full"], results["suffix"]


# ----------------------------------------------------------------------
# Engine equivalence: same flip sequences, same recorded trajectories
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def test_bfa(self, qmodel, dataset):
        full, suffix = run_both_engines(
            qmodel,
            lambda e: ProgressiveBitSearch(
                qmodel, dataset, BFAConfig(attack_batch=32, seed=0, engine=e)
            ),
            6,
        )
        assert [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.accuracy_after)
            for f in full.flips
        ] == [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.accuracy_after)
            for f in suffix.flips
        ]
        assert full.objectives == suffix.objectives
        assert full.accuracies == suffix.accuracies

    @pytest.mark.parametrize(
        "variant", ["n-to-1", "1-to-1", "1-to-1-stealthy"]
    )
    def test_tbfa_variants(self, qmodel, dataset, variant):
        full, suffix = run_both_engines(
            qmodel,
            lambda e: TBFAttack(
                qmodel,
                dataset,
                TBFAConfig(
                    variant=variant,
                    target_class=0,
                    source_class=1,
                    attack_batch=32,
                    seed=0,
                    engine=e,
                ),
            ),
            4,
        )
        assert [
            (f.tensor, f.flat_index, f.bit, f.objective_after)
            for f in full.flips
        ] == [
            (f.tensor, f.flat_index, f.bit, f.objective_after)
            for f in suffix.flips
        ]
        assert full.objectives == suffix.objectives
        assert full.asr == suffix.asr
        assert full.accuracies == suffix.accuracies

    def test_backdoor(self, qmodel, dataset):
        full, suffix = run_both_engines(
            qmodel,
            lambda e: RowhammerBackdoor(
                qmodel,
                dataset,
                BackdoorConfig(
                    target_class=0, attack_batch=32, seed=0, engine=e
                ),
            ),
            4,
        )
        assert [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.asr_after)
            for f in full.flips
        ] == [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.asr_after)
            for f in suffix.flips
        ]

    def test_multi_round(self, qmodel, dataset):
        full, suffix = run_both_engines(
            qmodel,
            lambda e: MultiRoundBFA(
                qmodel,
                dataset,
                MultiRoundConfig(rounds=2, attack_batch=32, seed=0, engine=e),
            ),
            6,
        )
        assert [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.accuracy_after)
            for f in full.flips
        ] == [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.accuracy_after)
            for f in suffix.flips
        ]
        assert full.rounds == suffix.rounds

    def test_bfa_with_repair_hook(self, qmodel, dataset):
        """The weight-reconstruction path: repair clamps the float
        weights between iterations, which the session must detect
        (digest change) and reconcile the way the legacy evaluator's
        load_into_model side effect did."""
        bounds = {
            path: 2.0 * float(np.std(layer.weight.value))
            for path, layer in qmodel.model.weight_layers().items()
        }

        def repair(model: Model) -> None:
            for path, layer in model.weight_layers().items():
                np.clip(
                    layer.weight.value,
                    -bounds[path],
                    bounds[path],
                    out=layer.weight.value,
                )

        full, suffix = run_both_engines(
            qmodel,
            lambda e: ProgressiveBitSearch(
                qmodel,
                dataset,
                BFAConfig(attack_batch=32, seed=0, engine=e),
                repair=repair,
            ),
            5,
        )
        assert [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.accuracy_after)
            for f in full.flips
        ] == [
            (f.tensor, f.flat_index, f.bit, f.objective_after, f.accuracy_after)
            for f in suffix.flips
        ]

    def test_dram_mode_with_exposure_window(self, qmodel, dataset):
        """Through the simulator, behind a locker whose swap failures
        let some flips through: a mix of blocked and landed campaigns
        must leave both engines on identical trajectories."""

        def build(engine):
            cfg = DRAMConfig.small()
            device = DRAMDevice(
                cfg,
                vulnerability=VulnerabilityMap(cfg, weak_cell_fraction=0.0),
                trh=TRH,
            )
            locker = DRAMLocker(
                device,
                LockerConfig(copy_error_rate=0.4, relock_interval=2 * TRH + 10,
                             seed=5),
            )
            controller = MemoryController(device, locker=locker)
            store = WeightStore(device, qmodel, guard_rows=True)
            locker.protect(store.data_rows, mode=LockMode.ADJACENT)
            driver = HammerDriver(controller, patience=2.0)
            rng = np.random.default_rng(0)

            def tenant(name, index, bit):
                row, _ = store.bit_location(name, index, bit)
                guard = int(rng.choice(device.mapper.neighbors(row)))
                controller.read(guard, privileged=True)

            return ProgressiveBitSearch(
                qmodel,
                dataset,
                BFAConfig(attack_batch=32, seed=0, engine=engine),
                store=store,
                driver=driver,
                before_execute=tenant,
            )

        full, suffix = run_both_engines(qmodel, build, 5)
        assert [
            (f.tensor, f.flat_index, f.bit, f.executed, f.objective_after,
             f.accuracy_after)
            for f in full.flips
        ] == [
            (f.tensor, f.flat_index, f.bit, f.executed, f.objective_after,
             f.accuracy_after)
            for f in suffix.flips
        ]

    def test_non_sequential_net_falls_back_to_full(self, dataset):
        """A model whose net is not a top-level Sequential cannot run
        suffix forwards; the session must degrade, not crash."""
        inner = resnet20(num_classes=4, width=4, input_hw=8, seed=2)

        class Wrapper(inner.net.__class__.__bases__[0]):  # Layer
            def __init__(self, net):
                self.net = net

            def children(self):
                return [("net", self.net)]

            def forward(self, x, training=False):
                return self.net.forward(x, training=training)

            def backward(self, dy):
                return self.net.backward(dy)

        wrapped = QuantizedModel(Model(Wrapper(inner.net), name="wrapped"))
        session = SearchSession(wrapped, engine="suffix")
        assert session.engine == "full"


# ----------------------------------------------------------------------
# Prefix-activation cache: laziness, bitwise suffixes, invalidation
# ----------------------------------------------------------------------
class TestPrefixActivationCache:
    def test_suffix_forward_matches_full_forward(self, trained_model, dataset):
        x = dataset.test_x[:8]
        reference = trained_model.forward(x)
        cache = PrefixActivationCache(trained_model.net, x)
        for k in range(cache.depth + 1):
            suffix = trained_model.net.forward_from(cache.input_of(k), k)
            assert np.array_equal(suffix, reference)

    def test_lazy_fill_and_exact_invalidation(self, trained_model, dataset):
        cache = PrefixActivationCache(trained_model.net, dataset.test_x[:4])
        assert cache.cached_indices() == [0]
        cache.input_of(3)
        assert cache.cached_indices() == [0, 1, 2, 3]
        cache.logits()
        assert cache.cached_indices() == list(range(cache.depth + 1))
        # A mutation in layer 5 keeps the *inputs* of layers <= 5.
        cache.invalidate_from(5)
        assert cache.cached_indices() == [0, 1, 2, 3, 4, 5]
        cache.invalidate_all()
        assert cache.cached_indices() == [0]

    def test_out_of_range_rejected(self, trained_model, dataset):
        cache = PrefixActivationCache(trained_model.net, dataset.test_x[:4])
        with pytest.raises(IndexError):
            cache.input_of(cache.depth + 1)
        with pytest.raises(IndexError):
            trained_model.net.forward_from(dataset.test_x[:4], -1)

    def test_requires_sequential(self, dataset):
        with pytest.raises(TypeError):
            PrefixActivationCache(object(), dataset.test_x[:4])


class TestSessionInvalidation:
    def test_committed_flip_invalidates_exactly_downstream(self, qmodel, dataset):
        session = SearchSession(qmodel, engine="suffix")
        terms = (SearchTerm(dataset.test_x[:8], dataset.test_y[:8]),)
        session.objective(terms)  # populates the cache fully
        cache = session._cache_for(terms[0].x)
        assert cache.cached_indices() == list(range(cache.depth + 1))
        # Commit a flip in some mid-network tensor.
        name = [n for n in qmodel.tensors if n.startswith("5.")][0]
        top = int(name.split(".", 1)[0])
        qmodel.flip_bit(name, 0, 7)
        session.refresh()
        assert cache.cached_indices() == list(range(top + 1))
        # The invalidated suffix recomputes to the full-forward truth.
        assert np.array_equal(
            cache.logits(), qmodel.model.forward(terms[0].x)
        )

    def test_unchanged_state_keeps_cache(self, qmodel, dataset):
        session = SearchSession(qmodel, engine="suffix")
        terms = (SearchTerm(dataset.test_x[:8], dataset.test_y[:8]),)
        session.objective(terms)
        cache = session._cache_for(terms[0].x)
        before = cache.cached_indices()
        session.refresh()
        assert cache.cached_indices() == before


# ----------------------------------------------------------------------
# Digest memoization: blocked iterations never re-run a probe
# ----------------------------------------------------------------------
class TestProbeMemoization:
    def test_probes_memoize_until_weights_change(self, qmodel, dataset):
        session = SearchSession(qmodel, engine="suffix")
        first = session.accuracy(dataset.test_x, dataset.test_y)
        again = session.accuracy(dataset.test_x, dataset.test_y)
        assert first == again
        assert session.stats.probe_misses == 1
        assert session.stats.probe_hits == 1
        # A committed flip changes the digest: the probe recomputes.
        name = next(iter(qmodel.tensors))
        qmodel.flip_bit(name, 0, 7)
        after = session.accuracy(dataset.test_x, dataset.test_y)
        assert session.stats.probe_misses == 2
        assert after == qmodel.model.accuracy(dataset.test_x, dataset.test_y)

    def test_probe_after_flip_forwards_only_downstream_layers(
        self, qmodel, dataset
    ):
        # Six copies of the test set: two predict-sized chunks.
        x = np.concatenate([dataset.test_x] * 6)
        labels = np.concatenate([dataset.test_y] * 6)
        session = SearchSession(qmodel, engine="suffix")
        session.accuracy(x, labels)
        session.success_rate(x, 0)
        name = [n for n in qmodel.tensors if n.startswith("5.")][0]
        qmodel.flip_bit(name, 0, 7)
        layers = qmodel.model.net.layers
        ran = []
        for index, layer in enumerate(layers):
            def counting(a, training=False, index=index, forward=layer.forward):
                ran.append(index)
                return forward(a, training)

            layer.forward = counting
        try:
            accuracy = session.accuracy(x, labels)
            asr = session.success_rate(x, 0)
        finally:
            for layer in layers:
                del layer.forward
        # Layers 5.. once per chunk, for the accuracy probe only: the
        # ASR probe reads the same chunks' cached logits.
        assert sorted(ran) == sorted(list(range(5, len(layers))) * 2)
        assert accuracy == qmodel.model.accuracy(x, labels)
        assert asr == float(100.0 * (qmodel.model.predict(x) == 0).mean())

    def test_gradients_memoize_on_digest(self, qmodel, dataset):
        session = SearchSession(qmodel, engine="suffix")
        terms = (SearchTerm(dataset.test_x[:8], dataset.test_y[:8]),)
        first = session.leaders(terms, 10)
        second = session.leaders(terms, 10)
        assert session.stats.grad_hits == 1
        assert all(
            np.array_equal(first[n][0], second[n][0])
            and np.array_equal(first[n][1], second[n][1])
            for n in first
        )
        name = next(iter(qmodel.tensors))
        qmodel.flip_bit(name, 0, 7)
        session.leaders(terms, 10)
        assert session.stats.grad_misses == 2

    def test_another_objective_at_the_same_weights_recomputes(
        self, qmodel, dataset
    ):
        """Values are keyed by the content of their inputs, so a second
        objective at unchanged weights is not served the first's."""
        x = dataset.test_x[:8]
        y = dataset.test_y[:8]
        y2 = (y + 1) % dataset.num_classes
        suffix = SearchSession(qmodel, engine="suffix")
        full = SearchSession(qmodel, engine="full")
        suffix.objective((SearchTerm(x, y),))
        second = (SearchTerm(x, y2),)
        assert suffix.objective(second) == full.objective(second)
        assert suffix.stats.probe_misses == 2

    def test_fresh_terms_get_their_own_gradients(self, qmodel, dataset):
        x = dataset.test_x[:8]
        y = dataset.test_y[:8]
        suffix = SearchSession(qmodel, engine="suffix")
        full = SearchSession(qmodel, engine="full")
        suffix.leaders((SearchTerm(x, y),), 10)
        for shift in (1, 2):
            labels = (y + shift) % dataset.num_classes
            terms = (SearchTerm(x, labels),)
            grads = full.objective_grads(terms)
            assert all(
                np.array_equal(got, grads[name])
                for name, got in suffix.objective_grads(terms).items()
            )
            expected = gradient_leaders(grads, 10)
            leaders = suffix.leaders(terms, 10)
            for name, (top, values) in expected.items():
                assert np.array_equal(leaders[name][0], top)
                assert np.array_equal(leaders[name][1], values)
        assert (suffix.stats.grad_hits, suffix.stats.grad_misses) == (0, 3)

    def test_full_engine_never_memoizes(self, qmodel, dataset):
        session = SearchSession(qmodel, engine="full")
        session.accuracy(dataset.test_x, dataset.test_y)
        session.accuracy(dataset.test_x, dataset.test_y)
        assert session.stats.probe_hits == 0
        assert session.stats.probe_misses == 0

    def test_unknown_engine_rejected(self, qmodel):
        with pytest.raises(ValueError):
            SearchSession(qmodel, engine="warp")


# ----------------------------------------------------------------------
# Same-layer candidate batching
# ----------------------------------------------------------------------
class TestCandidateBatching:
    def test_batched_suffix_verified_per_shape_class(self, qmodel, dataset):
        session = SearchSession(qmodel, engine="suffix")
        terms = (SearchTerm(dataset.test_x[:8], dataset.test_y[:8]),)
        name = next(iter(qmodel.tensors))
        candidates = [(name, i, 7) for i in range(3)]
        first = session.evaluate_flips(terms, candidates)
        assert session._batch_ok  # the shape class was adjudicated
        second = session.evaluate_flips(terms, candidates)
        assert first == second
        # Reference check: flip -> full forward -> revert, by hand.
        by_hand = []
        for cname, index, bit in candidates:
            qmodel.flip_bit(cname, index, bit)
            by_hand.append(qmodel.model.loss(terms[0].x, terms[0].labels))
            qmodel.flip_bit(cname, index, bit)
        qmodel.load_into_model()
        assert first == by_hand

    def test_a_layer_stacks_in_pairs(self, qmodel, dataset):
        """Groups of any size stack two at a time, so a layer has one
        shape class: adjudicated by its first pair, reused after."""
        session = SearchSession(qmodel, engine="suffix")
        terms = (SearchTerm(dataset.test_x, dataset.test_y),)
        name = next(iter(qmodel.tensors))
        candidates = [(name, i, 7) for i in range(8)]
        values = session.evaluate_flips(terms, candidates[:5])
        values += session.evaluate_flips(terms, candidates[5:])
        ((key, ok),) = session._batch_ok.items()
        assert key[2] == SUFFIX_STACK == 2
        # 5 = certifying pair + pair + single; 3 = pair + single.
        assert session.stats.suffix_batches == (2 if ok else 0)
        by_hand = []
        for cname, index, bit in candidates:
            qmodel.flip_bit(cname, index, bit)
            by_hand.append(qmodel.model.loss(terms[0].x, terms[0].labels))
            qmodel.flip_bit(cname, index, bit)
        qmodel.load_into_model()
        assert values == by_hand


# ----------------------------------------------------------------------
# The driver: one search loop, pinned to the two loops it replaced
# ----------------------------------------------------------------------
class DrawnSearch(BitSearch):
    """A family built from drawn parts: direction, terms, constraint."""

    def __init__(self, qmodel, dataset, config, maximize, weights=(1.0,),
                 target=None, constraint=None):
        super().__init__(qmodel, dataset, config)
        self.maximize = maximize
        x, y = self.attack_x, self.attack_y
        terms = []
        for position, weight in enumerate(weights):
            labels = y[position :: len(weights)]
            if target is not None and position == 0:
                labels = np.full(labels.shape, target, dtype=y.dtype)
            terms.append(SearchTerm(x[position :: len(weights)], labels, weight))
        self.terms = tuple(terms)
        self.constraint = constraint
        if target is not None:
            self.asr_inputs = dataset.test_x[dataset.test_y != target]
            self.asr_target = target


def _bfa_choose(qmodel, session, terms, config, visited):
    """BFA's rank and choose as they stood before the shared driver."""
    grads = session.objective_grads(terms)
    per_layer: list[tuple[float, str, int, int]] = []
    k = config.candidates_per_layer
    for name, tensor in qmodel.tensors.items():
        grad = grads[name]
        if grad.size == 0:
            continue
        top = np.argsort(np.abs(grad))[-k:]
        estimate = flip_loss_estimates(
            tensor.q.reshape(-1)[top], tensor.scale, grad[top]
        )  # positive = loss up
        order = np.argsort(estimate.reshape(-1))[::-1]
        taken = 0
        for flat in order:
            weight_pos, bit = divmod(int(flat), 8)
            candidate = (name, int(top[weight_pos]), bit)
            if candidate not in visited:
                per_layer.append(
                    (float(estimate.reshape(-1)[flat]), *candidate)
                )
                taken += 1
                if taken >= config.evals_per_layer:
                    break
    per_layer.sort(reverse=True)
    candidates = per_layer[: config.layers_to_evaluate]
    losses = session.evaluate_flips(
        terms, [(name, index, bit) for _, name, index, bit in candidates]
    )
    best = None
    for (_, name, index, bit), loss in zip(candidates, losses):
        if best is None or loss > best[3]:
            best = (name, index, bit, loss)
    if best is None:
        raise RuntimeError("no flip candidates found")
    return best


def _tbfa_choose(qmodel, session, terms, config, visited, constraint):
    """T-BFA's constrained rank and choose as they stood before the
    shared driver."""

    def feasible(name, index, bit):
        if (name, index, bit) in visited:
            return False
        if constraint is None:
            return True
        current = int(
            qmodel.tensors[name].q.reshape(-1).view(np.uint8)[index]
            >> bit
        ) & 1
        return constraint(name, index, bit, current)

    grads = session.objective_grads(terms)
    per_layer: list[tuple[float, str, int, int]] = []
    k = config.candidates_per_layer
    for name, tensor in qmodel.tensors.items():
        grad = grads[name]
        if grad.size == 0:
            continue
        top = np.argsort(np.abs(grad))[-k:]
        estimate = flip_loss_estimates(
            tensor.q.reshape(-1)[top], tensor.scale, grad[top]
        )  # negative = objective down
        order = np.argsort(estimate.reshape(-1))
        taken = 0
        for flat in order:
            weight_pos, bit = divmod(int(flat), 8)
            index = int(top[weight_pos])
            if feasible(name, index, bit):
                per_layer.append(
                    (float(estimate.reshape(-1)[flat]), name, index, bit)
                )
                taken += 1
                if taken >= config.evals_per_layer:
                    break
    per_layer.sort()
    candidates = per_layer[: config.layers_to_evaluate]
    objectives = session.evaluate_flips(
        terms, [(name, index, bit) for _, name, index, bit in candidates]
    )
    best = None
    for (_, name, index, bit), objective in zip(candidates, objectives):
        if best is None or objective < best[3]:
            best = (name, index, bit, objective)
    return best


@pytest.fixture(scope="module")
def tiny_parts():
    data = make_dataset("tiny", 3, hw=4, train_per_class=1, test_per_class=4,
                        seed=0)
    return data, resnet20(num_classes=3, width=2, input_hw=4, seed=0)


class _StubSession:
    """Gradients and candidate values from a small set of values (ties
    everywhere); records every candidate list it is asked to score."""

    def __init__(self, qmodel, seed):
        rng = np.random.default_rng(seed)
        levels = np.array([-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        self.grads = {
            name: rng.choice(levels, size=tensor.q.size)
            for name, tensor in qmodel.tensors.items()
        }
        self.seed = seed
        self.asked: list[list] = []

    def objective_grads(self, terms):
        return {name: grad.copy() for name, grad in self.grads.items()}

    def leaders(self, terms, k):
        return gradient_leaders(self.objective_grads(terms), k)

    def evaluate_flips(self, terms, candidates):
        self.asked.append(list(candidates))
        return [
            float(zlib.crc32(f"{c}:{self.seed}".encode()) % 3)
            for c in candidates
        ]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    maximize=st.booleans(),
    candidates_per_layer=st.integers(1, 12),
    evals_per_layer=st.integers(1, 6),
    layers_to_evaluate=st.integers(0, 12),
    visited_per_tensor=st.integers(0, 40),
    profile=st.none() | st.tuples(st.floats(0.05, 1.0), st.integers(0, 99)),
)
def test_choice_equals_the_replaced_loops(
    tiny_parts, seed, maximize, candidates_per_layer, evals_per_layer,
    layers_to_evaluate, visited_per_tensor, profile,
):
    """No forward runs: the session's gradients and candidate scores
    are stubbed, so only ranking order, feasibility and the strict
    best-candidate rule are under test."""
    data, model = tiny_parts
    qmodel = QuantizedModel(model)
    rng = np.random.default_rng(seed)
    visited = set()
    for name, tensor in qmodel.tensors.items():
        tensor.q[...] = rng.integers(-128, 128, tensor.q.shape)
        for _ in range(visited_per_tensor):
            visited.add(
                (name, int(rng.integers(tensor.q.size)), int(rng.integers(8)))
            )
    constraint = None
    if profile is not None and not maximize:
        constraint = HammerableProfile(*profile).feasible
    config = SearchConfig(
        attack_batch=4,
        candidates_per_layer=candidates_per_layer,
        evals_per_layer=evals_per_layer,
        layers_to_evaluate=layers_to_evaluate,
    )
    search = DrawnSearch(qmodel, data, config, maximize, constraint=constraint)
    search.visited = set(visited)
    stub = search.session = _StubSession(qmodel, seed)

    if maximize:
        try:
            expected = _bfa_choose(qmodel, stub, search.terms, config, visited)
        except RuntimeError:
            expected = None
    else:
        expected = _tbfa_choose(
            qmodel, stub, search.terms, config, visited, constraint
        )
    chosen = search.choose()
    oracle_asked, driver_asked = stub.asked
    assert driver_asked == oracle_asked
    assert chosen == (None if expected is None else expected[:3])


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    maximize=st.booleans(),
    weights=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=2),
    target=st.none() | st.integers(0, 3),
    candidates_per_layer=st.integers(1, 4),
    evals_per_layer=st.integers(1, 3),
    layers_to_evaluate=st.integers(1, 4),
    profile=st.none() | st.tuples(st.floats(0.2, 1.0), st.integers(0, 99)),
    iterations=st.integers(2, 3),
)
# The backdoor's shape, which the derandomized draws miss: a
# constrained, targeted minimiser over two weighted terms.
@example(maximize=False, weights=[1.0, 0.5], target=0, candidates_per_layer=3,
         evals_per_layer=2, layers_to_evaluate=3, profile=(0.5, 7),
         iterations=3)
def test_generated_suffix_equals_full(
    trained_model, dataset, maximize, weights, target, candidates_per_layer,
    evals_per_layer, layers_to_evaluate, profile, iterations,
):
    qmodel = QuantizedModel(trained_model)
    snapshot = qmodel.snapshot()
    outcomes = []
    for engine in ("full", "suffix"):
        qmodel.restore(snapshot)
        config = SearchConfig(
            attack_batch=16,
            candidates_per_layer=candidates_per_layer,
            evals_per_layer=evals_per_layer,
            layers_to_evaluate=layers_to_evaluate,
            engine=engine,
        )
        constraint = None
        if profile is not None:
            constraint = HammerableProfile(*profile).feasible
        result = DrawnSearch(
            qmodel, dataset, config, maximize, weights=weights, target=target,
            constraint=constraint,
        ).run(iterations)
        outcomes.append((
            [(f.tensor, f.flat_index, f.bit, f.executed, f.objective_after,
              f.accuracy_after, f.asr_after) for f in result.flips],
            result.objectives,
            result.accuracies,
            result.asr,
        ))
    qmodel.restore(snapshot)
    assert outcomes[0] == outcomes[1]


class TestNothingFeasible:
    def test_every_family_stops_when_every_bit_is_visited(
        self, qmodel, dataset
    ):
        every = {
            (name, index, bit)
            for name, tensor in qmodel.tensors.items()
            for index in range(tensor.q.size)
            for bit in range(8)
        }
        bfa = ProgressiveBitSearch(
            qmodel, dataset, BFAConfig(attack_batch=32, seed=0)
        )
        multi = MultiRoundBFA(
            qmodel, dataset, MultiRoundConfig(attack_batch=32, seed=0)
        )
        for attack in (bfa, multi):
            attack.visited.update(every)
            result = attack.run(3)
            assert result.flips == [] and result.accuracies == []
        assert [r["attempts"] for r in result.rounds] == [0, 0, 0]
