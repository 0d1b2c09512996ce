"""The matrix memo's contract: a hit is a fresh computation.

:mod:`repro.nn.memo` shares a victim's clean-state work -- dataset
synthesis, clean accuracy, backdoor trigger training -- across the
cells of one matrix, and a search session's gradient leaders,
candidate values and probes.  A hit must equal what a fresh
computation returns bit for bit, so the key must change whenever any
input the work reads changes: weights, BatchNorm buffers, layer
structure, quantization scales, the probe, the labels, the term
weights, the attack batch, the initial patch, every trigger config
field, ``k`` and the candidate.  Outside a scope nothing is shared.
Run-level reuse counts live in ``tests/test_harness.py``.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import SearchSession, SearchTerm
from repro.attacks.backdoor import BackdoorConfig, RowhammerBackdoor
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    QuantizedModel,
    iter_layers,
    make_dataset,
    memo,
    resnet20,
)

DATASET_ARGS = dict(hw=4, train_per_class=2, test_per_class=6, seed=0)
GENERATED = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class Counts:
    """``memo.STATS`` by differences from construction."""

    def __init__(self):
        self.computed = Counter(memo.STATS.computed)
        self.hits = Counter(memo.STATS.hits)

    def since(self, kind: str) -> tuple[int, int]:
        """``(computed, hits)`` of ``kind`` since construction."""
        return (
            memo.STATS.computed[kind] - self.computed[kind],
            memo.STATS.hits[kind] - self.hits[kind],
        )


def _dataset():
    return make_dataset("memo", 3, **DATASET_ARGS)


def _qmodel():
    return QuantizedModel(resnet20(num_classes=3, width=2, input_hw=4, seed=0))


def _probe():
    dataset = _dataset()
    return dataset.test_x.copy(), dataset.test_y.copy()


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# A hit equals a fresh computation
# ----------------------------------------------------------------------
@settings(GENERATED, max_examples=25)
@given(
    num_classes=st.integers(1, 4),
    hw=st.integers(2, 6),
    train_per_class=st.integers(1, 3),
    test_per_class=st.integers(1, 3),
    noise=st.floats(0.0, 2.0),
    max_shift=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_dataset_hit_equals_fresh(
    num_classes, hw, train_per_class, test_per_class, noise, max_shift, seed
):
    args = dict(
        hw=hw, train_per_class=train_per_class, test_per_class=test_per_class,
        noise=noise, max_shift=max_shift, seed=seed,
    )
    fresh = make_dataset("gen", num_classes, **args)
    counts = Counts()
    with memo.scope():
        first = make_dataset("gen", num_classes, **args)
        hit = make_dataset("gen", num_classes, **args)
    assert counts.since("dataset") == (1, 1)
    assert hit is not first
    for field in ("train_x", "train_y", "test_x", "test_y"):
        assert _same(getattr(hit, field), getattr(fresh, field))
    assert (hit.name, hit.num_classes) == (fresh.name, fresh.num_classes)


def test_accuracy_hit_equals_fresh():
    model = _qmodel().model
    x, y = _probe()
    fresh = model.accuracy(x, y)
    counts = Counts()
    with memo.scope():
        first = memo.accuracy(model, x, y)
        hit = memo.accuracy(model, x.copy(), y.copy())
    assert counts.since("accuracy") == (1, 1)
    assert first == hit == fresh


def _backdoor(qmodel, dataset, **overrides):
    config = BackdoorConfig(
        patch_size=2, trigger_steps=2, attack_batch=8, candidates_per_layer=1,
        layers_to_evaluate=1, **overrides,
    )
    return RowhammerBackdoor(qmodel, dataset, config)


def test_trigger_hit_equals_fresh_and_is_read_only():
    qmodel, dataset = _qmodel(), _dataset()
    fresh = _backdoor(qmodel, dataset).trigger
    counts = Counts()
    with memo.scope():
        first = _backdoor(qmodel, dataset).trigger
        hit = _backdoor(qmodel, dataset).trigger
    assert counts.since("trigger") == (1, 1)
    assert _same(hit, fresh) and _same(first, fresh)
    with pytest.raises(ValueError):
        hit[0, 0, 0] = 0.0


# ----------------------------------------------------------------------
# Any one perturbed key part misses
# ----------------------------------------------------------------------
def _flip_weight_bit(qmodel, pick):
    name = sorted(qmodel.tensors)[pick % len(qmodel.tensors)]
    qmodel.flip_bit(name, (pick // 8) % qmodel.tensors[name].q.size, pick % 8)


def _weight_bit(qmodel, x, y, pick):
    _flip_weight_bit(qmodel, pick)
    return x, y


def _bn_stat(qmodel, x, y, pick):
    bns = [
        node for _, node in iter_layers(qmodel.model.net)
        if isinstance(node, BatchNorm2d)
    ]
    layer = bns[pick % len(bns)]
    buffer = layer.running_mean if pick % 2 else layer.running_var
    index = (pick // 2) % buffer.size
    buffer[index] = np.nextafter(buffer[index], np.float32(np.inf))
    return x, y


def _conv_stride(qmodel, x, y, pick):
    # The stem conv: any stride keeps the net's shapes consistent, and
    # its weights stay as they were.
    stem = qmodel.model.net.layers[0]
    assert isinstance(stem, Conv2d)
    stem.stride = 2 + pick % 2
    return x, y


def _probe_pixel(qmodel, x, y, pick):
    x = x.copy()
    x.reshape(-1)[pick % x.size] += (1e-3, -0.5, 4.0)[pick % 3]
    return x, y


def _label(qmodel, x, y, pick):
    y = y.copy()
    y[pick % y.size] = (y[pick % y.size] + 1) % 3
    return x, y


@pytest.mark.parametrize(
    "perturb", [_weight_bit, _bn_stat, _conv_stride, _probe_pixel, _label]
)
@GENERATED
@given(pick=st.integers(0, 2**20))
def test_perturbed_accuracy_key_misses(perturb, pick):
    qmodel = _qmodel()
    x, y = _probe()
    counts = Counts()
    with memo.scope():
        memo.accuracy(qmodel.model, x, y)
        x, y = perturb(qmodel, x, y, pick)
        value = memo.accuracy(qmodel.model, x, y)
    assert counts.since("accuracy") == (2, 0)
    assert value == qmodel.model.accuracy(x, y)


class _Draw:
    """A stand-in rng for ``_train_trigger``: a fixed initial patch for
    each size, with one value optionally nudged."""

    def __init__(self, nudge: int | None = None):
        self.nudge = nudge

    def normal(self, loc, scale, size):
        patch = np.random.default_rng(5).normal(loc, scale, size=size)
        if self.nudge is not None:
            patch.reshape(-1)[self.nudge % patch.size] += 0.25
        return patch


TRIGGER_FIELDS = {
    "target_class": 1,
    "patch_size": 3,
    "trigger_steps": 3,
    "trigger_lr": 0.5,
    "patch_clip": 0.75,
}


@pytest.mark.parametrize(
    "part", ["initial-patch", "weight-bit", "attack-batch", *TRIGGER_FIELDS]
)
@GENERATED
@given(pick=st.integers(0, 2**20))
def test_perturbed_trigger_key_misses(part, pick):
    qmodel, dataset = _qmodel(), _dataset()
    attack = _backdoor(qmodel, dataset)
    counts = Counts()
    with memo.scope():
        attack._train_trigger(_Draw())
        draw = _Draw()
        if part == "initial-patch":
            draw = _Draw(nudge=pick)
        elif part == "weight-bit":
            _flip_weight_bit(qmodel, pick)
        elif part == "attack-batch":
            attack.attack_x = attack.attack_x.copy()
            attack.attack_x.reshape(-1)[pick % attack.attack_x.size] += 0.5
        else:
            attack.config = replace(attack.config, **{part: TRIGGER_FIELDS[part]})
        trigger = attack._train_trigger(draw)
    assert counts.since("trigger") == (2, 0)
    assert _same(trigger, attack._train_trigger(draw))


def test_unkeyable_model_is_computed_every_time():
    """A weight transform is a function: no content key, no sharing."""
    qmodel = _qmodel()
    qmodel.model.net.layers[0].weight_transform = np.sign
    assert memo.content_key(qmodel.model) is None
    assert memo.content_key(np.array([None])) is None  # pointers, not content
    x, y = _probe()
    counts = Counts()
    with memo.scope():
        memo.accuracy(qmodel.model, x, y)
        memo.accuracy(qmodel.model, x, y)
    assert counts.since("accuracy") == (2, 0)


# ----------------------------------------------------------------------
# Search sessions: leaders, candidate values and probes
# ----------------------------------------------------------------------
SEARCH_KINDS = ("leaders", "candidate", "probe")


def _search_inputs(dataset, weights=(1.0, 0.5)):
    x, y = dataset.test_x, dataset.test_y
    terms = tuple(
        SearchTerm(x[i::2], y[i::2], weight) for i, weight in enumerate(weights)
    )
    return {"terms": terms, "k": 2, "target": 0, "x": x, "labels": y}


def _pool(qmodel):
    """Candidates in three tensors, two weights each, two bits each."""
    names = sorted(qmodel.tensors)
    return [
        (name, index, bit)
        for name in (names[0], names[len(names) // 2], names[-1])
        for index in (0, 1)
        for bit in (0, 7)
    ]


def _measure(session, inputs, candidates):
    """Every search value in a comparable form: leader bytes, candidate
    value bytes and probe reprs."""
    terms = inputs["terms"]
    leaders = session.leaders(terms, inputs["k"])
    return (
        sorted(
            (name, top.tobytes(), values.tobytes())
            for name, (top, values) in leaders.items()
        ),
        np.array(session.evaluate_flips(terms, candidates)).tobytes(),
        repr(session.objective(terms)),
        repr(session.accuracy(inputs["x"], inputs["labels"])),
        repr(session.success_rate(inputs["x"], inputs["target"])),
    )


def _fresh(qmodel, inputs, candidates):
    """The values a brand-new session computes outside any scope."""
    assert memo.active() is None
    return _measure(SearchSession(qmodel), inputs, candidates)


_STEP = st.tuples(
    st.lists(st.integers(0, 11), max_size=4),  # candidates, repeats allowed
    st.integers(1, 3),  # k
    st.none() | st.integers(0, 11),  # blocked, or the flip that lands
)


@settings(GENERATED, max_examples=15)
@given(
    runs=st.lists(st.lists(_STEP, min_size=1, max_size=3), min_size=2,
                  max_size=2),
    weight=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_search_hits_equal_fresh(runs, weight):
    """Two sessions of one scope -- two cells of a matrix -- run drawn
    candidate lists over blocked or landed flip sequences from the same
    clean state; every value equals a fresh session's outside a scope."""
    qmodel, dataset = _qmodel(), _dataset()
    pool = _pool(qmodel)
    inputs = _search_inputs(dataset, (1.0, weight))
    clean = qmodel.snapshot()
    seen = []
    counts = Counts()
    with memo.scope():
        for run in runs:
            qmodel.restore(clean)
            session = SearchSession(qmodel)
            for positions, k, landed in run:
                candidates = [pool[p] for p in positions]
                step_inputs = dict(inputs, k=k)
                seen.append((
                    qmodel.snapshot(), step_inputs, candidates,
                    _measure(session, step_inputs, candidates),
                ))
                if landed is not None:
                    qmodel.flip_bit(*pool[landed])
    assert counts.since("probe")[1] > 0  # the second cell hit the first's
    for snapshot, step_inputs, candidates, values in seen:
        qmodel.restore(snapshot)
        assert values == _fresh(qmodel, step_inputs, candidates)


def _perturb_weight(qmodel, inputs, pick):
    _flip_weight_bit(qmodel, pick)


def _perturb_bn(qmodel, inputs, pick):
    _bn_stat(qmodel, None, None, pick)


def _perturb_label(qmodel, inputs, pick):
    first, *rest = inputs["terms"]
    labels = first.labels.copy()
    labels[pick % labels.size] = (labels[pick % labels.size] + 1) % 3
    inputs["terms"] = (first._replace(labels=labels), *rest)


def _perturb_term_weight(qmodel, inputs, pick):
    first, *rest = inputs["terms"]
    inputs["terms"] = (first._replace(weight=first.weight + 0.25), *rest)


def _perturb_target(qmodel, inputs, pick):
    inputs["target"] = 1 + pick % 2


def _perturb_k(qmodel, inputs, pick):
    inputs["k"] += 1 + pick % 3


def _perturb_bit(qmodel, inputs, pick):
    name, index, bit = inputs["candidates"][0]
    taken = set(inputs["candidates"])
    bit = next(b for b in range(8) if (name, index, b) not in taken)
    inputs["candidates"] = [(name, index, bit), *inputs["candidates"][1:]]


def _perturb_scale(qmodel, inputs, pick):
    # Only the scale: the float weights are not reloaded.
    name = sorted(qmodel.tensors)[pick % len(qmodel.tensors)]
    tensor = qmodel.tensors[name]
    tensor.scale = float(np.nextafter(tensor.scale, np.inf))


#: Perturbation -> computations a second session must redo, by kind
#: (leaders, candidates, probes).  Three candidates; three probes:
#: objective, accuracy, ASR.
SEARCH_PERTURBATIONS = {
    _perturb_weight: (1, 3, 3),
    _perturb_bn: (1, 3, 3),
    _perturb_label: (1, 3, 1),
    _perturb_term_weight: (1, 3, 1),
    _perturb_target: (0, 0, 1),
    _perturb_k: (1, 0, 0),
    _perturb_bit: (0, 1, 0),
    _perturb_scale: (1, 3, 3),
}


@pytest.mark.parametrize("perturb", list(SEARCH_PERTURBATIONS))
@settings(GENERATED, max_examples=2)
@given(pick=st.integers(0, 2**20))
def test_perturbed_search_key_misses(perturb, pick):
    """The first session is the open cell; the second is built in the
    same scope -- before the perturbation, except for the scale, which
    the session reads once, at construction."""
    qmodel, dataset = _qmodel(), _dataset()
    inputs = _search_inputs(dataset)
    inputs["candidates"] = _pool(qmodel)[pick % 4 :: 4]
    with memo.scope():
        _measure(SearchSession(qmodel), inputs, inputs["candidates"])
        second = None if perturb is _perturb_scale else SearchSession(qmodel)
        perturb(qmodel, inputs, pick)
        second = second or SearchSession(qmodel)
        counts = Counts()
        values = _measure(second, inputs, inputs["candidates"])
        computed = tuple(counts.since(kind)[0] for kind in SEARCH_KINDS)
    assert computed == SEARCH_PERTURBATIONS[perturb]
    assert values == _fresh(qmodel, inputs, inputs["candidates"])


def test_stored_leaders_are_read_only():
    qmodel, dataset = _qmodel(), _dataset()
    inputs = _search_inputs(dataset)
    with memo.scope():
        for _ in range(2):  # a miss, then a hit
            leaders = SearchSession(qmodel).leaders(inputs["terms"], 2)
            top, values = leaders[sorted(leaders)[0]]
            with pytest.raises(ValueError):
                top[0] = 0
            with pytest.raises(ValueError):
                values[0] = 0.0
            # Clearing the handed-out dict leaves the stored value whole.
            leaders.clear()


def test_unkeyable_model_memoizes_within_its_session_only():
    qmodel, dataset = _qmodel(), _dataset()
    qmodel.model.net.layers[0].weight_transform = np.sign
    inputs = _search_inputs(dataset)
    candidates = _pool(qmodel)[:3]
    counts = Counts()
    with memo.scope():
        for _ in range(2):  # two cells: nothing shared between them
            session = SearchSession(qmodel)
            for _ in range(2):  # ...but the second look in one is a hit
                _measure(session, inputs, candidates)
        assert not any(
            kind in (*SEARCH_KINDS, "activation") for kind, *_ in memo.active()
        )
    assert [counts.since(kind) for kind in SEARCH_KINDS] == [
        (2, 2), (6, 6), (6, 6)
    ]


# ----------------------------------------------------------------------
# Search sessions: clean-state activations
# ----------------------------------------------------------------------
def _activation_values(session, x, y, k):
    """The input of layer ``k`` and the three probes over ``(x, y)``,
    in a comparable form."""
    session.refresh()
    return (
        session._cache_for(x).input_of(k).tobytes(),
        repr(session.objective((SearchTerm(x, y),))),
        repr(session.accuracy(x, y)),
        repr(session.success_rate(x, 0)),
    )


def _filed_activations() -> dict:
    return {key: value for key, value in memo.active().items()
            if key[0] == "activation"}


def _lineage(flipped: Counter, depth: int) -> int:
    """The first top-level layer holding a landed flip that has not
    been flipped back, ``depth`` if none."""
    return min(
        (int(name.split(".")[0]) for (name, _, _), n in flipped.items() if n % 2),
        default=depth,
    )


_ACTIVATION_STEP = st.tuples(
    st.none() | st.integers(0, 2**12),  # blocked, or the flip that lands
    st.integers(0, 2),  # the probe set
    st.integers(0, 14),  # k: the layer whose input is read
)


@settings(GENERATED, max_examples=25)
@given(
    runs=st.lists(st.lists(_ACTIVATION_STEP, min_size=1, max_size=4),
                  min_size=2, max_size=3),
)
def test_activation_hits_equal_fresh(runs):
    """Two or three sessions of one scope -- cells of a matrix -- read
    layer inputs and probes over drawn probe sets while drawn flips
    land (the first one possibly before the first read, as a random
    attack's does) or are blocked; each value equals a fresh session's
    outside a scope.  A session files only entries produced by layers
    still in the starting state, and a filed array cannot be written.
    (Whether a drawn run hits depends on its draws; the hit counts are
    pinned below and in ``tests/test_harness.py``.)"""
    qmodel, dataset = _qmodel(), _dataset()
    x, y = dataset.test_x, dataset.test_y
    probe_sets = [(x[::2], y[::2]), (x[1::2], y[1::2]), (x, y)]
    names = sorted(qmodel.tensors)
    depth = len(qmodel.model.net.layers)
    clean = qmodel.snapshot()
    seen = []
    with memo.scope():
        for run in runs:
            qmodel.restore(clean)
            session = SearchSession(qmodel)
            flipped = Counter()
            for landed, probe, k in run:
                if landed is not None:  # may land before the first read
                    name = names[landed % len(names)]
                    flip = (name, (landed // 8) % qmodel.tensors[name].q.size,
                            landed % 8)
                    qmodel.flip_bit(*flip)
                    flipped[flip] += 1
                k = min(k, depth)
                before = _filed_activations()
                values = _activation_values(session, *probe_sets[probe], k)
                lineage = _lineage(flipped, depth)
                filed = set(_filed_activations()) - set(before)
                assert all(j <= lineage for _, _, j in filed)
                seen.append((qmodel.snapshot(), probe, k, values))
        stored = list(_filed_activations().values())
    for array in stored:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.0
    for snapshot, probe, k, values in seen:
        qmodel.restore(snapshot)
        assert memo.active() is None
        assert values == _activation_values(
            SearchSession(qmodel), *probe_sets[probe], k
        )


def _act_weight(qmodel, x, pick):
    name = sorted(qmodel.tensors)[pick % len(qmodel.tensors)]
    qmodel.flip_bit(name, (pick // 8) % qmodel.tensors[name].q.size, pick % 8)
    return int(name.split(".")[0]), x


def _act_bn(qmodel, x, pick):
    # The top-level layer of the BatchNorm that _bn_stat nudges.
    tops = [
        int(path.split(".")[0])
        for path, node in iter_layers(qmodel.model.net)
        if isinstance(node, BatchNorm2d)
    ]
    _bn_stat(qmodel, None, None, pick)
    return tops[pick % len(tops)], x


def _act_input(qmodel, x, pick):
    return 0, _probe_pixel(qmodel, x, None, pick)[0]


def _act_scale(qmodel, x, pick):
    _perturb_scale(qmodel, None, pick)
    return 0, x


@pytest.mark.parametrize(
    "perturb, built",
    [
        (_act_weight, "before"),
        (_act_weight, "after"),
        (_act_bn, "before"),
        (_act_bn, "after"),
        (_act_input, "before"),
        (_act_scale, "after"),
    ],
)
@settings(GENERATED, max_examples=3)
@given(pick=st.integers(0, 2**20))
def test_perturbed_activation_key_misses(perturb, built, pick):
    """A second cell reads the logits after one key part changed.  Built
    before the change (the session's own flip, say), it misses every
    entry produced by the changed layer ``m`` (entries ``> m``) and
    still hits the deepest entry before them.  Built after it (a
    session reads the scales and its starting state at construction),
    it misses every entry, and the first state's entries are dropped."""
    qmodel, (x, _) = _qmodel(), _probe()
    depth = len(qmodel.model.net.layers)
    with memo.scope():
        SearchSession(qmodel)._cache_for(x).logits()  # files every entry
        assert not any(a.flags.writeable for a in _filed_activations().values())
        second = SearchSession(qmodel) if built == "before" else None
        changed, x = perturb(qmodel, x, pick)
        if second is None:
            second, changed = SearchSession(qmodel), 0
        counts = Counts()
        second.refresh()
        logits = second._cache_for(x).logits()
        # The store holds the activations of one starting state: a
        # session built after the change dropped the first one's.
        assert len({key[1][:2] for key in _filed_activations()}) == 1
    assert counts.since("activation") == (depth - changed, int(changed > 0))
    fresh = SearchSession(qmodel)
    fresh.refresh()
    assert _same(logits, fresh._cache_for(x).logits())


# ----------------------------------------------------------------------
# Lifetime, immutability, side effects
# ----------------------------------------------------------------------
def test_outside_a_scope_every_call_computes():
    qmodel, dataset = _qmodel(), _dataset()
    x, y = _probe()
    counts = Counts()
    for _ in range(2):
        _dataset()
        memo.accuracy(qmodel.model, x, y)
        _backdoor(qmodel, dataset)
    assert counts.since("dataset") == (2, 0)
    assert counts.since("accuracy") == (2, 0)
    assert counts.since("trigger") == (2, 0)


def test_batch_lookup_computes_each_distinct_miss_once():
    store, calls = {}, []

    def compute(missing):
        calls.append(list(missing))
        return [item * 10 for item in missing]

    counts = Counts()
    assert memo.memoized_many("probe", "p", [3, 1, 3], compute, store) == (
        [30, 10, 30], 2
    )
    assert memo.memoized_many("probe", "p", [1, 2], compute, store) == (
        [10, 20], 1
    )
    assert calls == [[3, 1], [2]]
    assert counts.since("probe") == (3, 2)
    # Another prefix or kind reads nothing filed here; a None prefix
    # (an input with no content key) or a None store files nothing.
    assert memo.memoized_many("probe", "q", [1], compute, store)[1] == 1
    assert memo.memoized_many("leaders", "p", [1], compute, store)[1] == 1
    filed = dict(store)
    assert memo.memoized_many("probe", None, [5], compute, store)[1] == 1
    assert memo.memoized_many("probe", "p", [5], compute, None)[1] == 1
    assert store == filed


def test_scope_ends_with_its_block():
    counts = Counts()
    with memo.scope():
        _dataset()
        with memo.scope():
            _dataset()  # an inner scope starts empty
        _dataset()  # ...and the outer one comes back
    _dataset()
    assert counts.since("dataset") == (3, 1)


def test_dataset_arrays_are_read_only_and_records_independent():
    outside = _dataset()
    with pytest.raises(ValueError):
        outside.train_x[0, 0, 0, 0] = 1.0
    with memo.scope():
        first = _dataset()
        for field in ("train_x", "train_y", "test_x", "test_y"):
            with pytest.raises(ValueError):
                getattr(first, field).reshape(-1)[:1] *= 2
        original = first.test_x
        first.test_x = np.zeros_like(original)
        second = _dataset()
    assert second is not first
    assert second.test_x is original


def test_trigger_hit_leaves_weight_grads_zeroed():
    qmodel, dataset = _qmodel(), _dataset()
    params = qmodel.model.parameters().values()
    counts = Counts()
    with memo.scope():
        for _ in range(2):  # a miss, then a hit
            for param in params:
                param.grad[...] = 1.0
            _backdoor(qmodel, dataset)
            assert all(not param.grad.any() for param in params)
    assert counts.since("trigger") == (1, 1)
