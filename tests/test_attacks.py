"""Attack drivers: hammering, BFA, random flips, PTA -- with and
without DRAM-Locker protection (the integration layer of the repo)."""

import numpy as np
import pytest

from repro.attacks import (
    BFAConfig,
    HammerDriver,
    PagedWeights,
    PageTableAttack,
    ProgressiveBitSearch,
    RandomAttack,
)
from repro.attacks.registry import summarize_generic
from repro.controller import MemoryController
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.locker import DRAMLocker, LockMode, LockerConfig
from repro.nn import QuantizedModel, WeightStore, make_dataset, resnet20, train
from repro.nn.train import TrainConfig
from repro.vm import MMU, PageTable, pfn_bit_positions

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


class TestHammerDriver:
    def test_flips_unprotected_bit(self, qmodel):
        device, controller, store, driver, _ = make_system(qmodel, protected=False)
        name = next(iter(qmodel.tensors))
        row, row_bit = store.bit_location(name, 0, 7)
        outcome = driver.hammer_bit(row, row_bit)
        assert outcome.flipped
        assert outcome.activations_issued <= 2 * TRH
        assert outcome.activations_blocked == 0

    def test_blocked_by_locker(self, qmodel):
        device, controller, store, driver, _ = make_system(qmodel, protected=True)
        name = next(iter(qmodel.tensors))
        row, row_bit = store.bit_location(name, 0, 7)
        outcome = driver.hammer_bit(row, row_bit)
        assert not outcome.flipped
        assert outcome.activations_issued == 0
        assert outcome.activations_blocked > 0

    def test_flip_propagates_to_model(self, qmodel):
        device, controller, store, driver, _ = make_system(qmodel, protected=False)
        name = next(iter(qmodel.tensors))
        before = int(qmodel.tensors[name].q.reshape(-1)[0])
        row, row_bit = store.bit_location(name, 0, 7)
        driver.hammer_bit(row, row_bit)
        store.sync_model()
        assert int(qmodel.tensors[name].q.reshape(-1)[0]) != before


class TestBFA:
    def test_software_bfa_degrades_accuracy(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        attack = ProgressiveBitSearch(
            qmodel, dataset, BFAConfig(attack_batch=32, seed=0)
        )
        result = attack.run(8)
        assert result.accuracies[-1] < clean - 15.0
        assert result.executed_flips == 8

    def test_bfa_beats_random(self, qmodel, dataset):
        """Fig. 1(a): targeted flips hurt far more than random flips."""
        snapshot = qmodel.snapshot()
        bfa = ProgressiveBitSearch(
            qmodel, dataset, BFAConfig(attack_batch=32, seed=0)
        ).run(6)
        qmodel.restore(snapshot)
        rnd = RandomAttack(qmodel, dataset, seed=0).run(6)
        assert bfa.accuracies[-1] < rnd.accuracies[-1] - 5.0

    def test_bfa_never_revisits_a_bit(self, qmodel, dataset):
        attack = ProgressiveBitSearch(
            qmodel, dataset, BFAConfig(attack_batch=32, seed=0)
        )
        result = attack.run(8)
        flips = {(f.tensor, f.flat_index, f.bit) for f in result.flips}
        assert len(flips) == len(result.flips)

    def test_dram_bfa_executes_through_simulator(self, qmodel, dataset):
        device, controller, store, driver, _ = make_system(qmodel, protected=False)
        attack = ProgressiveBitSearch(
            qmodel,
            dataset,
            BFAConfig(attack_batch=32, seed=0),
            store=store,
            driver=driver,
        )
        result = attack.run(4)
        assert result.executed_flips == 4
        assert device.stats.bit_flips >= 4

    def test_locker_stops_dram_bfa(self, qmodel, dataset):
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        device, controller, store, driver, _ = make_system(qmodel, protected=True)
        attack = ProgressiveBitSearch(
            qmodel,
            dataset,
            BFAConfig(attack_batch=32, seed=0),
            store=store,
            driver=driver,
        )
        result = attack.run(4)
        assert result.executed_flips == 0
        assert result.accuracies[-1] == pytest.approx(clean)

    def test_exposure_window_lets_flips_through(self, qmodel, dataset):
        """With a guaranteed-failing swap, the tenant access opens the
        window and the attacker's flip lands (the 9.6% mechanism)."""
        device, controller, store, driver, locker = make_system(
            qmodel, protected=True, copy_error_rate=0.999999
        )
        rng = np.random.default_rng(0)

        def tenant(name, index, bit):
            row, _ = store.bit_location(name, index, bit)
            guard = int(rng.choice(device.mapper.neighbors(row)))
            controller.read(guard, privileged=True)

        attack = ProgressiveBitSearch(
            qmodel,
            dataset,
            BFAConfig(attack_batch=32, seed=0),
            store=store,
            driver=driver,
            before_execute=tenant,
        )
        result = attack.run(3)
        assert result.executed_flips >= 1

    def test_store_and_driver_must_pair(self, qmodel, dataset):
        with pytest.raises(ValueError):
            ProgressiveBitSearch(qmodel, dataset, store=None, driver=object())


class TestPTA:
    def make_paged(self, qmodel, protected):
        device, controller, store, driver, locker = make_system(qmodel, protected)
        mapper = device.mapper
        bank = device.config.banks - 1
        pt_rows = [mapper.row_index((bank, 0, i)) for i in range(0, 16, 2)]
        table = PageTable(device, pt_rows)
        mmu = MMU(controller, table)
        paged = PagedWeights(store, table, mmu)
        if locker is not None:
            locker.protect(table.table_rows(), mode=LockMode.ADJACENT)
        return device, paged, driver

    def test_translation_serves_correct_weights(self, qmodel, dataset):
        device, paged, _ = self.make_paged(qmodel, protected=False)
        before = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        paged.sync_via_translation()
        after = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        assert after == pytest.approx(before)

    def test_pta_redirects_and_degrades(self, qmodel, dataset):
        device, paged, driver = self.make_paged(qmodel, protected=False)
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        attack = PageTableAttack(qmodel, dataset, paged, driver, seed=0)
        result = attack.run(3)
        assert result.executed_redirects >= 1
        assert len(paged.redirected_pages()) >= 1
        assert result.accuracies[-1] < clean

    def test_locker_blocks_pta(self, qmodel, dataset):
        device, paged, driver = self.make_paged(qmodel, protected=True)
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        attack = PageTableAttack(qmodel, dataset, paged, driver, seed=0)
        result = attack.run(3)
        assert result.executed_redirects == 0
        assert paged.redirected_pages() == []
        assert result.accuracies[-1] == pytest.approx(clean)
        assert result.page_faults == 0
        assert "page_faults" not in summarize_generic(result)["metrics"]

    def test_frame_past_memory_is_a_recorded_denial_of_service(
        self, qmodel, dataset
    ):
        """A PTE whose frame number a flip sent past the device's rows
        faults the victim's translation: every attempt after it records
        the fault (accuracy 0, nothing served) instead of raising."""
        device, paged, driver = self.make_paged(qmodel, protected=False)
        vpn = 0
        row, offset = paged.page_table.pte_location(vpn)
        device.flip_bit(row, pfn_bit_positions(offset, 30))
        attack = PageTableAttack(qmodel, dataset, paged, driver, seed=0)
        result = attack.run(2)
        assert result.page_faults == 2
        assert result.accuracies == [0.0, 0.0]
        assert all("past the device" in r.page_fault for r in result.records)
        assert vpn in paged.redirected_pages()
        payload = summarize_generic(result)
        assert payload["metrics"]["page_faults"] == 2
        assert payload["iterations"] == 2 and payload["final_accuracy"] == 0.0
