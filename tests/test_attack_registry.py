"""The attack registry and the three new attack families.

Each family must show its teeth on an unprotected victim (accuracy
drops, or ASR rises) and be neutralised by DRAM-Locker -- the
"general-purpose" claim the registry exists to stress.
"""

import numpy as np
import pytest

from repro.attacks import (
    ATTACKS,
    AttackContext,
    HammerDriver,
    HammerableProfile,
    MultiRoundBFA,
    MultiRoundConfig,
    TBFAConfig,
    TBFAttack,
    TBFA_VARIANTS,
    available_attacks,
    build_attack,
    run_attack,
)
from repro.attacks.registry import AttackSpec, register_attack, summarize_generic
from repro.controller import MemoryController
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.locker import DRAMLocker, LockMode, LockerConfig
from repro.nn import QuantizedModel, WeightStore, make_dataset, resnet20, train
from repro.nn.train import TrainConfig

TRH = 60
TARGET, SOURCE = 0, 1


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


def make_system(qmodel, protected, copy_error_rate=0.0):
    cfg = DRAMConfig.small()
    device = DRAMDevice(
        cfg, vulnerability=VulnerabilityMap(cfg, weak_cell_fraction=0.0), trh=TRH
    )
    locker = None
    if protected:
        locker = DRAMLocker(
            device,
            LockerConfig(copy_error_rate=copy_error_rate, relock_interval=2 * TRH + 10),
        )
    controller = MemoryController(device, locker=locker)
    store = WeightStore(device, qmodel, guard_rows=True)
    if locker is not None:
        plan = locker.protect(store.data_rows, mode=LockMode.ADJACENT)
        assert plan.is_complete
    return device, controller, store, HammerDriver(controller, patience=2.0), locker


def dram_context(qmodel, dataset, protected, copy_error_rate=0.0, hook=None):
    device, controller, store, driver, locker = make_system(
        qmodel, protected, copy_error_rate
    )
    return AttackContext(
        qmodel, dataset, store=store, driver=driver,
        before_execute=hook, seed=0, attack_batch=32,
    )


class TestRegistry:
    def test_all_families_registered(self):
        names = available_attacks()
        for expected in (
            "bfa", "random", "pta",
            "tbfa-n-to-1", "tbfa-1-to-1", "tbfa-stealthy",
            "backdoor", "multi-round-bfa",
        ):
            assert expected in names

    def test_unknown_attack_raises(self, qmodel, dataset):
        ctx = AttackContext(qmodel, dataset)
        with pytest.raises(KeyError, match="unknown attack"):
            build_attack("nope", ctx)
        with pytest.raises(KeyError, match="unknown attack"):
            run_attack("nope", ctx, 1)

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_attack("bfa")(lambda ctx: None)

    def test_specs_carry_metadata(self):
        for name, spec in ATTACKS.items():
            assert isinstance(spec, AttackSpec)
            assert spec.name == name
            assert spec.description

    def test_uniform_payload(self, qmodel, dataset):
        ctx = AttackContext(qmodel, dataset, seed=0, attack_batch=32)
        payload = run_attack("bfa", ctx, 2)
        for key in ("attack", "iterations", "accuracies", "final_accuracy",
                    "executed_flips", "metrics", "targeted"):
            assert key in payload
        assert payload["attack"] == "bfa"
        assert payload["iterations"] == 2
        # Untargeted payloads carry no ASR; targeted ones always do,
        # even with no iteration recorded.
        assert "asr" not in payload["metrics"]
        targeted = run_attack("tbfa-n-to-1", ctx, 0)
        assert targeted["metrics"]["asr"] == []
        assert targeted["metrics"]["final_asr"] == 0.0

    def test_summarize_generic_handles_asr(self):
        class R:
            accuracies = [50.0, 40.0]
            asr = [10.0, 90.0]
            flips = []
            executed_flips = 1

        payload = summarize_generic(R())
        assert payload["metrics"]["final_asr"] == 90.0
        assert payload["executed_flips"] == 1


class TestTBFA:
    @pytest.mark.parametrize("variant", TBFA_VARIANTS)
    def test_software_variants_reach_high_asr(self, qmodel, dataset, variant):
        attack = TBFAttack(
            qmodel, dataset,
            TBFAConfig(variant=variant, target_class=TARGET,
                       source_class=SOURCE, attack_batch=32, seed=0),
        )
        before = attack.attack_success_rate()
        result = attack.run(8)
        assert result.executed_flips >= 1
        assert result.final_asr > before + 30.0

    def test_stealthy_preserves_other_classes_better(self, qmodel, dataset):
        snapshot = qmodel.snapshot()
        plain = TBFAttack(
            qmodel, dataset,
            TBFAConfig(variant="1-to-1", target_class=TARGET,
                       source_class=SOURCE, attack_batch=32, seed=0,
                       stop_at_asr=90.0),
        ).run(8)
        qmodel.restore(snapshot)
        stealthy = TBFAttack(
            qmodel, dataset,
            TBFAConfig(variant="1-to-1-stealthy", target_class=TARGET,
                       source_class=SOURCE, attack_batch=32, seed=0,
                       stop_at_asr=90.0),
        ).run(8)
        qmodel.restore(snapshot)
        assert plain.final_asr >= 90.0 and stealthy.final_asr >= 90.0
        # Accuracy over all classes is the stealth metric: the stealthy
        # variant must keep more of it once both attacks have landed.
        assert stealthy.accuracies[-1] >= plain.accuracies[-1]

    def test_invalid_variant_rejected(self, qmodel, dataset):
        with pytest.raises(ValueError, match="variant"):
            TBFAttack(qmodel, dataset, TBFAConfig(variant="bogus"))
        with pytest.raises(ValueError, match="differ"):
            TBFAttack(
                qmodel, dataset,
                TBFAConfig(variant="1-to-1", target_class=0, source_class=0),
            )

    def test_locker_blocks_tbfa(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        ctx = dram_context(qmodel, dataset, protected=True)
        payload = run_attack("tbfa-n-to-1", ctx, 4, target_class=TARGET)
        assert payload["executed_flips"] == 0
        assert payload["final_accuracy"] == pytest.approx(clean)

    def test_dram_tbfa_executes_unprotected(self, qmodel, dataset):
        ctx = dram_context(qmodel, dataset, protected=False)
        payload = run_attack("tbfa-n-to-1", ctx, 6, target_class=TARGET)
        assert payload["executed_flips"] == 6
        assert payload["metrics"]["final_asr"] > 30.0


class TestBackdoor:
    def test_software_backdoor_raises_asr_keeps_clean(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        ctx = AttackContext(qmodel, dataset, seed=0, attack_batch=32)
        payload = run_attack("backdoor", ctx, 8, target_class=TARGET)
        assert payload["metrics"]["final_asr"] > 40.0
        # The joint objective must not trade all clean accuracy away.
        assert payload["final_accuracy"] > clean - 30.0
        assert payload["final_accuracy"] > 50.0

    def test_locker_blocks_backdoor(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        ctx = dram_context(qmodel, dataset, protected=True)
        payload = run_attack("backdoor", ctx, 4, target_class=TARGET)
        assert payload["executed_flips"] == 0
        assert payload["final_accuracy"] == pytest.approx(clean)

    def test_hammerable_profile_is_deterministic_and_directional(self):
        profile = HammerableProfile(fraction=0.5, seed=7)
        cells = [("w", i, b) for i in range(64) for b in range(8)]
        hammerable = [c for c in cells if profile.is_hammerable(*c)]
        assert 0 < len(hammerable) < len(cells)
        assert hammerable == [c for c in cells if profile.is_hammerable(*c)]
        for cell in hammerable[:16]:
            direction = profile.flip_direction(*cell)
            assert profile.feasible(*cell, current=1 - direction)
            assert not profile.feasible(*cell, current=direction)

    def test_constraint_restricts_search(self, qmodel, dataset):
        ctx = AttackContext(qmodel, dataset, seed=0, attack_batch=32)
        attack = build_attack(
            "backdoor", ctx, target_class=TARGET, trigger_steps=5
        )
        result = attack.run(3)
        profile = attack.profile
        for flip in result.flips:
            assert profile.is_hammerable(flip.tensor, flip.flat_index, flip.bit)


class TestMultiRoundBFA:
    def test_unprotected_behaves_like_bfa(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        ctx = dram_context(qmodel, dataset, protected=False)
        payload = run_attack("multi-round-bfa", ctx, 6, rounds=2)
        assert payload["executed_flips"] == 6
        assert payload["final_accuracy"] < clean - 15.0
        assert [r["retries"] for r in payload["metrics"]["rounds"]] == [0, 0]

    def test_perfect_locker_blocks_all_rounds(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        ctx = dram_context(qmodel, dataset, protected=True)
        payload = run_attack("multi-round-bfa", ctx, 6, rounds=3)
        assert payload["executed_flips"] == 0
        assert payload["final_accuracy"] == pytest.approx(clean)

    def test_retries_ride_swap_windows(self, qmodel, dataset):
        """With a guaranteed-failing SWAP and tenant traffic, retried
        flips land through the exposure windows single-round BFA
        forfeits."""
        device, controller, store, driver, locker = make_system(
            qmodel, protected=True, copy_error_rate=0.999999
        )
        rng = np.random.default_rng(0)

        def tenant(name, index, bit):
            row, _ = store.bit_location(name, index, bit)
            guard = int(rng.choice(device.mapper.neighbors(row)))
            controller.read(guard, privileged=True)

        attack = MultiRoundBFA(
            qmodel,
            dataset,
            MultiRoundConfig(rounds=3, attack_batch=32, seed=0,
                             tenant_accesses_per_retry=2),
            store=store,
            driver=driver,
            tenant_hook=tenant,
        )
        result = attack.run(6)
        assert result.retried_flips >= 1
        assert result.executed_flips >= 1

    def test_store_and_driver_must_pair(self, qmodel, dataset):
        with pytest.raises(ValueError):
            MultiRoundBFA(qmodel, dataset, store=None, driver=object())

    def test_budget_never_overspent(self, qmodel, dataset):
        """``iterations`` is the total attempt budget, even when it is
        smaller than the round count."""
        for budget in (1, 2, 5):
            attack = MultiRoundBFA(
                qmodel, dataset,
                MultiRoundConfig(rounds=3, attack_batch=32, seed=0),
            )
            result = attack.run(budget)
            assert len(result.flips) == budget
            assert sum(r["attempts"] for r in result.rounds) == budget


class TestPTAViaRegistry:
    def test_pta_requires_dram(self, qmodel, dataset):
        ctx = AttackContext(qmodel, dataset)
        with pytest.raises(ValueError, match="DRAM-resident"):
            build_attack("pta", ctx)

    def test_pta_locked_vs_open(self, qmodel, dataset):
        open_ctx = dram_context(qmodel, dataset, protected=False)
        payload = run_attack("pta", open_ctx, 3)
        assert payload["executed_flips"] >= 1

    def test_pta_registry_locks_page_table(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        ctx = dram_context(qmodel, dataset, protected=True)
        payload = run_attack("pta", ctx, 3)
        assert payload["executed_flips"] == 0
        assert payload["final_accuracy"] == pytest.approx(clean)
