"""WeightStore layout/sync and the virtual-memory substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import PagedWeights
from repro.controller import MemoryController
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.nn import QuantizedModel, WeightStore, resnet20
from repro.vm import (
    MMU,
    PTE,
    PTE_BYTES,
    PTEFlags,
    PageFault,
    PageTable,
    decode_pte,
    encode_pte,
    pfn_bit_positions,
    pte_from_bytes,
    pte_to_bytes,
)


@pytest.fixture(scope="module")
def qmodel():
    model = resnet20(num_classes=4, width=4, input_hw=8, seed=0)
    return QuantizedModel(model)


def make_device():
    cfg = DRAMConfig.small()
    return DRAMDevice(
        cfg, vulnerability=VulnerabilityMap(cfg, weak_cell_fraction=0.0), trh=100
    )


class TestWeightStoreLayout:
    def test_guard_layout_interleaves(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        mapper = device.mapper
        for row in store.data_rows:
            assert mapper.row_address(row).row % 2 == 0
        # every neighbor of a data row is a guard, never another data row
        data = set(store.data_rows)
        for row in store.data_rows:
            assert not data.intersection(mapper.neighbors(row))

    def test_contiguous_layout_packs(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=False)
        locals_ = [device.mapper.row_address(r).row for r in store.data_rows[:4]]
        assert locals_ == [0, 1, 2, 3]

    def test_dram_holds_exact_payload(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        name, tensor = next(iter(qmodel.tensors.items()))
        row, row_bit = store.bit_location(name, 0, 0)
        byte = device.peek_bytes(row, row_bit // 8, 1)[0]
        assert byte == tensor.to_bytes()[0]

    def test_bit_location_round_trip(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        name = list(qmodel.tensors)[1]
        for index in (0, 7, qmodel.tensors[name].q.size - 1):
            for bit in (0, 7):
                row, row_bit = store.bit_location(name, index, bit)
                assert store.locate_bit(row, row_bit) == (name, index, bit)

    def test_locate_bit_outside_weights_is_none(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        guard = store.guard_row_indices[0]
        assert store.locate_bit(guard, 0) is None

    def test_store_too_big_raises(self):
        big = QuantizedModel(resnet20(num_classes=4, width=16, input_hw=8, seed=0))
        with pytest.raises(RuntimeError):
            WeightStore(
                DRAMDevice(DRAMConfig.tiny(), trh=100), big, guard_rows=True
            )


class TestWeightStoreSync:
    def test_flip_in_dram_reaches_model(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        name = next(iter(qmodel.tensors))
        tensor = qmodel.tensors[name]
        before = int(tensor.q.reshape(-1)[0])
        row, row_bit = store.bit_location(name, 0, 7)
        # a disturbance flip lands in DRAM...
        device.vulnerability.register_template(row, [row_bit])
        aggressor = device.mapper.neighbors(row)[0]
        for _ in range(device.timing.trh):
            device.activate(aggressor)
        assert store.sync_model()
        after = int(tensor.q.reshape(-1)[0])
        assert after != before

    def test_sync_is_noop_when_clean(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        store.sync_model()
        assert not store.sync_model()

    def test_inference_requests_cover_data_rows(self, qmodel):
        device = make_device()
        store = WeightStore(device, qmodel, guard_rows=True)
        requests = store.inference_requests()
        assert [r.row for r in requests] == store.data_rows
        assert all(r.privileged for r in requests)


class TestPTE:
    def test_encode_decode_round_trip(self):
        pte = PTE(valid=True, pfn=0x1234, flags=PTEFlags(writable=False))
        assert decode_pte(encode_pte(pte)) == pte

    def test_byte_image_round_trip(self):
        value = encode_pte(PTE(valid=True, pfn=77))
        assert pte_from_bytes(pte_to_bytes(value)) == value

    def test_pfn_bit_positions(self):
        # PFN starts at bit 12 of the PTE; entry at byte offset 16.
        assert pfn_bit_positions(16, 0) == 16 * 8 + 12
        assert pfn_bit_positions(0, 3) == 15

    def test_pfn_range_checked(self):
        with pytest.raises(ValueError):
            encode_pte(PTE(valid=True, pfn=1 << 40))


class TestPageTable:
    def make_table(self):
        device = make_device()
        mapper = device.mapper
        bank = device.config.banks - 1
        rows = [mapper.row_index((bank, 0, i)) for i in range(0, 12, 2)]
        return device, PageTable(device, rows)

    def test_map_and_walk(self):
        device, table = self.make_table()
        table.map(5, 1234)
        assert table.walk(5).pfn == 1234

    def test_unmapped_vpn_faults(self):
        device, table = self.make_table()
        table.map(5, 1234)
        with pytest.raises(PageFault):
            table.walk(6)

    def test_unmap(self):
        device, table = self.make_table()
        table.map(5, 1234)
        table.unmap(5)
        with pytest.raises(PageFault):
            table.walk(5)

    def test_pte_corruption_via_dram_changes_walk(self):
        """Flipping a stored PFN bit redirects translation -- the PTA core."""
        device, table = self.make_table()
        table.map(5, 0b1000)
        row, offset = table.pte_location(5)
        device.flip_bit(row, pfn_bit_positions(offset, 0))
        assert table.walk(5).pfn == 0b1001

    def test_table_rows_reported(self):
        device, table = self.make_table()
        table.map(0, 1)
        table.map(200, 2)  # second L2 table
        assert len(table.table_rows()) == 3  # root + two leaves

    def test_out_of_rows(self):
        device = make_device()
        table = PageTable(device, [device.mapper.row_index((3, 0, 0))])
        with pytest.raises(RuntimeError):
            table.map(0, 1)


class TestMMU:
    def test_translate_through_controller(self):
        device, table = TestPageTable().make_table()
        controller = MemoryController(device)
        mmu = MMU(controller, table)
        table.map(9, 1234)
        assert mmu.translate(9) == 1234
        assert mmu.walks == 1
        assert device.stats.reads >= 2  # two PTE reads

    def test_tlb_caches_translations(self):
        device, table = TestPageTable().make_table()
        controller = MemoryController(device)
        mmu = MMU(controller, table, tlb_entries=4)
        table.map(9, 1234)
        mmu.translate(9)
        mmu.translate(9)
        assert mmu.tlb_hits == 1
        assert mmu.walks == 1

    def test_flush_tlb_forces_rewalk(self):
        device, table = TestPageTable().make_table()
        controller = MemoryController(device)
        mmu = MMU(controller, table, tlb_entries=4)
        table.map(9, 1234)
        mmu.translate(9)
        mmu.flush_tlb()
        mmu.translate(9)
        assert mmu.walks == 2

    def test_frame_past_the_device_faults_before_reading_it(self):
        device, table = TestPageTable().make_table()
        controller = MemoryController(device)
        mmu = MMU(controller, table)
        total = device.config.total_rows
        table.map(9, total)
        table.map(10, total - 1)
        reads = device.stats.reads
        with pytest.raises(PageFault, match=f"frame {total}, past"):
            mmu.translate(9)
        assert device.stats.reads == reads + 2  # the root and leaf PTEs
        assert mmu.translate(10) == total - 1


#: Mapped translations the corruption property walks: three leaf tables.
CORRUPTED_VPNS = (0, 5, 200, 255, 300)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_single_flip_translates_in_range_or_faults(data):
    """For any page-table row and any single flipped bit -- anywhere in
    the row, or inside a live entry -- every translation returns a row
    of the device or raises :class:`PageFault`, never another error."""
    device, table = TestPageTable().make_table()
    mmu = MMU(MemoryController(device), table)
    total = device.config.total_rows
    for vpn in CORRUPTED_VPNS:
        table.map(vpn, (7 * vpn + 3) % total)
    entries = [table.pte_location(vpn) for vpn in CORRUPTED_VPNS] + [
        (table.root_row, (vpn >> table.l2_bits) * PTE_BYTES)
        for vpn in CORRUPTED_VPNS
    ]
    row_bits = device.config.row_bits
    row, bit = data.draw(
        st.one_of(
            st.tuples(
                st.sampled_from(table.table_rows()),
                st.integers(0, row_bits - 1),
            ),
            st.sampled_from(entries).flatmap(
                lambda entry: st.tuples(
                    st.just(entry[0]),
                    st.integers(0, 8 * PTE_BYTES - 1).map(
                        lambda k: 8 * entry[1] + k
                    ),
                )
            ),
        ),
        label="flip",
    )
    device.flip_bit(row, bit)
    for vpn in CORRUPTED_VPNS:
        # The controller-routed and the timing-free walk are one walk.
        frames = []
        for translate in (mmu.translate, lambda vpn: table.walk(vpn).pfn):
            try:
                frames.append(translate(vpn))
            except PageFault:
                frames.append(PageFault)
        assert frames[0] == frames[1]
        assert frames[0] is PageFault or 0 <= frames[0] < total


def test_faulting_translation_leaves_the_model_as_it_was():
    """A sync whose row source faults partway applies nothing: a flip
    in the first weight row, then a leaf PTE of the last page sent past
    physical memory, and every tensor keeps its pre-call bytes."""
    qmodel = QuantizedModel(resnet20(num_classes=4, width=4, input_hw=8, seed=0))
    device, table = TestPageTable().make_table()
    store = WeightStore(device, qmodel, guard_rows=True)
    paged = PagedWeights(store, table, MMU(MemoryController(device), table))
    device.flip_bit(store.data_rows[0], 3)
    row, offset = table.pte_location(paged.vpn_of_row[store.data_rows[-1]])
    high_bit = device.config.total_rows.bit_length()
    device.flip_bit(row, pfn_bit_positions(offset, high_bit))
    before = {name: tensor.to_bytes() for name, tensor in qmodel.tensors.items()}
    dirty = store._dirty
    with pytest.raises(PageFault, match="past the device"):
        paged.sync_via_translation()
    for name, tensor in qmodel.tensors.items():
        assert (tensor.to_bytes() == before[name]).all(), name
    assert store._dirty == dirty
