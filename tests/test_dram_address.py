"""Address mapping: bijectivity, adjacency, reserved rows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram import AddressMapper, ChannelInterleaver, DRAMConfig, RowAddress


@pytest.fixture(scope="module")
def mapper():
    return AddressMapper(DRAMConfig.tiny())


class TestRowIndexRoundTrip:
    @given(st.integers(min_value=0, max_value=DRAMConfig.tiny().total_rows - 1))
    def test_index_to_address_and_back(self, index):
        mapper = AddressMapper(DRAMConfig.tiny())
        assert mapper.row_index(mapper.row_address(index)) == index

    @given(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=63),
    )
    def test_address_to_index_and_back(self, bank, subarray, row):
        mapper = AddressMapper(DRAMConfig.tiny())
        addr = RowAddress(bank, subarray, row)
        assert mapper.row_address(mapper.row_index(addr)) == addr

    def test_accepts_plain_tuples(self, mapper):
        assert mapper.row_index((0, 1, 2)) == mapper.row_index(RowAddress(0, 1, 2))

    def test_out_of_range_index_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.row_address(mapper.config.total_rows)
        with pytest.raises(ValueError):
            mapper.row_address(-1)

    def test_out_of_range_fields_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.row_index(RowAddress(99, 0, 0))
        with pytest.raises(ValueError):
            mapper.row_index(RowAddress(0, 99, 0))
        with pytest.raises(ValueError):
            mapper.row_index(RowAddress(0, 0, 9999))


class TestByteAddressing:
    @given(st.integers(min_value=0, max_value=DRAMConfig.tiny().capacity_bytes - 1))
    def test_physical_round_trip(self, physical):
        mapper = AddressMapper(DRAMConfig.tiny())
        assert mapper.physical(mapper.byte_address(physical)) == physical

    def test_column_extraction(self, mapper):
        cfg = mapper.config
        addr = mapper.byte_address(cfg.row_bytes + 7)
        assert addr.column == 7
        assert mapper.row_index(addr.row) == 1

    def test_out_of_range_physical_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.byte_address(mapper.config.capacity_bytes)


class TestAdjacency:
    def test_interior_row_has_two_neighbors(self, mapper):
        index = mapper.row_index(RowAddress(0, 0, 10))
        assert mapper.neighbors(index) == [
            mapper.row_index(RowAddress(0, 0, 9)),
            mapper.row_index(RowAddress(0, 0, 11)),
        ]

    def test_subarray_edges_have_one_neighbor(self, mapper):
        first = mapper.row_index(RowAddress(0, 1, 0))
        last = mapper.row_index(RowAddress(0, 1, 63))
        assert mapper.neighbors(first) == [first + 1]
        assert mapper.neighbors(last) == [last - 1]

    def test_adjacency_never_crosses_subarrays(self, mapper):
        cfg = mapper.config
        for subarray in range(cfg.subarrays_per_bank):
            for local in (0, cfg.rows_per_subarray - 1):
                index = mapper.row_index(RowAddress(1, subarray, local))
                for neighbor in mapper.neighbors(index, radius=2):
                    assert mapper.same_subarray(index, neighbor)

    def test_radius_two_ring(self, mapper):
        index = mapper.row_index(RowAddress(0, 0, 10))
        neighbors = mapper.neighbors(index, radius=2)
        assert len(neighbors) == 4
        assert index not in neighbors

    def test_radius_zero_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.neighbors(0, radius=0)


class TestAggressors:
    def test_aggressors_exclude_victims(self, mapper):
        victims = [mapper.row_index(RowAddress(0, 0, r)) for r in (10, 11)]
        aggressors = mapper.aggressors_of(victims)
        assert not aggressors.intersection(victims)
        expected = {
            mapper.row_index(RowAddress(0, 0, 9)),
            mapper.row_index(RowAddress(0, 0, 12)),
        }
        assert aggressors == expected

    def test_isolated_victim(self, mapper):
        victim = mapper.row_index(RowAddress(1, 1, 20))
        assert mapper.aggressors_of([victim]) == {victim - 1, victim + 1}


class TestReservedRows:
    def test_reserved_rows_are_at_subarray_top(self, mapper):
        cfg = mapper.config
        reserved = mapper.reserved_rows(0, 0)
        assert len(reserved) == cfg.reserved_rows_per_subarray
        locals_ = [mapper.row_address(r).row for r in reserved]
        assert locals_ == list(
            range(cfg.usable_rows_per_subarray, cfg.rows_per_subarray)
        )


class TestChannelInterleaver:
    @pytest.mark.parametrize("policy", ["row", "block"])
    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_round_trip(self, policy, channels):
        config = DRAMConfig.tiny().with_channels(channels)
        interleaver = ChannelInterleaver(config, policy=policy)
        assert interleaver.system_rows == channels * config.total_rows
        for system_row in range(interleaver.system_rows):
            channel, local = interleaver.locate(system_row)
            assert 0 <= channel < channels
            assert 0 <= local < config.total_rows
            assert interleaver.system_row(channel, local) == system_row

    def test_single_channel_is_identity(self):
        config = DRAMConfig.tiny()
        for policy in ChannelInterleaver.POLICIES:
            interleaver = ChannelInterleaver(config, policy=policy)
            assert [interleaver.locate(r) for r in range(8)] == [
                (0, r) for r in range(8)
            ]

    def test_row_policy_round_robins(self):
        config = DRAMConfig.tiny().with_channels(4)
        interleaver = ChannelInterleaver(config)
        assert [interleaver.channel_of(r) for r in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_block_policy_is_contiguous(self):
        config = DRAMConfig.tiny().with_channels(2)
        interleaver = ChannelInterleaver(config, policy="block")
        boundary = config.total_rows
        assert interleaver.channel_of(boundary - 1) == 0
        assert interleaver.channel_of(boundary) == 1

    def test_errors(self):
        config = DRAMConfig.tiny().with_channels(2)
        interleaver = ChannelInterleaver(config)
        with pytest.raises(ValueError):
            ChannelInterleaver(config, policy="hash")
        with pytest.raises(ValueError):
            interleaver.locate(interleaver.system_rows)
        with pytest.raises(ValueError):
            interleaver.system_row(2, 0)
        with pytest.raises(ValueError):
            interleaver.system_row(0, config.total_rows)


class TestChannelsConfig:
    def test_defaults_unchanged(self):
        config = DRAMConfig.small()
        assert config.channels == 1
        assert config.system_rows == config.total_rows
        assert config.system_capacity_bytes == config.capacity_bytes
        assert config.channel_config() is config

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(name="bad", channels=0)

    def test_channel_config_strips_channels(self):
        config = DRAMConfig.small().with_channels(4)
        per_channel = config.channel_config()
        assert per_channel.channels == 1
        assert per_channel.total_rows == config.total_rows
        assert config.system_rows == 4 * per_channel.total_rows
        assert config.with_channels(4) is config

    def test_describe_mentions_channels(self):
        single = DRAMConfig.small()
        multi = single.with_channels(2)
        assert "channels" not in single.describe()
        assert "2 channels" in multi.describe()


#: Geometries the decode tables are pinned on: the two presets and an
#: odd one whose every dimension is coprime to the others.
DECODE_GEOMETRIES = {
    "tiny": DRAMConfig.tiny(),
    "small": DRAMConfig.small(),
    "odd": DRAMConfig(
        name="odd",
        banks=3,
        subarrays_per_bank=5,
        rows_per_subarray=7,
        row_bytes=64,
        reserved_rows_per_subarray=2,
    ),
}


class TestDecodeTables:
    """Each mapper decodes a row once: its cached answers must be the
    ``divmod`` formula's, on the first call and on every later one."""

    @staticmethod
    def _formula(cfg: DRAMConfig, index: int) -> RowAddress:
        bank, rest = divmod(index, cfg.subarrays_per_bank * cfg.rows_per_subarray)
        return RowAddress(bank, *divmod(rest, cfg.rows_per_subarray))

    @pytest.mark.parametrize("geometry", sorted(DECODE_GEOMETRIES))
    def test_row_address_is_the_formula_on_every_call(self, geometry):
        cfg = DECODE_GEOMETRIES[geometry]
        mapper = AddressMapper(cfg)
        assert cfg.total_rows == (
            cfg.banks * cfg.subarrays_per_bank * cfg.rows_per_subarray
        )
        for _ in range(2):
            for index in range(cfg.total_rows):
                addr = mapper.row_address(index)
                assert addr == self._formula(cfg, index)
                assert mapper.row_index(addr) == index

    @pytest.mark.parametrize("geometry", sorted(DECODE_GEOMETRIES))
    def test_out_of_range_is_never_cached(self, geometry):
        cfg = DECODE_GEOMETRIES[geometry]
        mapper = AddressMapper(cfg)
        for _ in range(2):
            for index in (-1, cfg.total_rows):
                with pytest.raises(ValueError, match=f"row index {index} out of range"):
                    mapper.row_address(index)
        for index in (0, cfg.total_rows - 1, cfg.total_rows // 2):
            assert mapper.row_address(index) == self._formula(cfg, index)

    def test_numpy_index_decodes_to_plain_ints(self):
        mapper = AddressMapper(DRAMConfig.tiny())
        addr = mapper.row_address(np.int64(70))
        assert addr == mapper.row_address(70)
        assert all(type(field) is int for field in addr)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_neighbors_returns_a_fresh_list(self, mapper, radius):
        index = mapper.row_index(RowAddress(1, 0, 10))
        first = mapper.neighbors(index, radius=radius)
        expected = list(first)
        first.append(-1)
        first[0] = -2
        assert mapper.neighbors(index, radius=radius) == expected
        assert mapper.neighbors(index, radius=radius) is not mapper.neighbors(
            index, radius=radius
        )

    def test_radius_below_one_raises_on_every_call(self, mapper):
        for _ in range(2):
            for radius in (0, -1):
                with pytest.raises(ValueError, match="radius"):
                    mapper.neighbors(5, radius=radius)

    def test_derived_geometry_stays_out_of_equality(self):
        config = DRAMConfig.small()
        fresh = DRAMConfig.small()
        assert config.total_rows and config.system_rows  # fill the caches
        assert config == fresh and hash(config) == hash(fresh)
        assert repr(config) == repr(fresh)
        wider = replace(config, banks=config.banks * 2)
        assert wider.total_rows == 2 * config.total_rows
        assert wider.capacity_bytes == wider.total_rows * wider.row_bytes
