"""Unit and property tests for the cost array."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GridError
from repro.grid import BBox, CostArray


def flat(cells, n_grids=10):
    return np.unique(np.array([c * n_grids + x for c, x in cells], dtype=np.int64))


class TestConstruction:
    def test_zeros_by_default(self):
        cost = CostArray(3, 10)
        assert cost.total_occupancy() == 0
        assert cost.shape == (3, 10)

    def test_initial_data_copied(self):
        data = np.ones((3, 10), dtype=np.int32)
        cost = CostArray(3, 10, data)
        data[0, 0] = 99
        assert cost[0, 0] == 1

    def test_bad_shape_rejected(self):
        with pytest.raises(GridError):
            CostArray(0, 10)
        with pytest.raises(GridError):
            CostArray(3, 10, np.zeros((2, 10), dtype=np.int32))


class TestWrap:
    def test_writes_alias_both_ways(self):
        buf = np.zeros((3, 10), dtype=np.int32)
        cost = CostArray.wrap(buf)
        assert cost.shape == (3, 10) and cost.data is buf
        cost.apply_path(flat([(1, 4)]))
        assert buf[1, 4] == 1
        buf[2, 7] = 5
        assert cost[2, 7] == 5
        assert cost.path_cost(flat([(1, 4), (2, 7)])) == 6

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(np.zeros((3, 10), dtype=np.float64), id="float"),
            pytest.param(np.zeros(10, dtype=np.int32), id="1-D"),
            pytest.param(
                np.zeros((3, 20), dtype=np.int32)[:, ::2], id="non-contiguous"
            ),
            pytest.param(np.zeros((0, 10), dtype=np.int32), id="zero-size"),
        ],
    )
    def test_bad_buffer_rejected(self, data):
        with pytest.raises(GridError):
            CostArray.wrap(data)


class TestPaths:
    def test_apply_and_remove_inverse(self):
        cost = CostArray(3, 10)
        cells = flat([(0, 1), (0, 2), (1, 2)])
        cost.apply_path(cells)
        assert cost.total_occupancy() == 3
        cost.remove_path(cells)
        assert cost.total_occupancy() == 0

    def test_remove_strict_detects_double_ripup(self):
        cost = CostArray(3, 10)
        cells = flat([(0, 1)])
        cost.apply_path(cells)
        cost.remove_path(cells)
        with pytest.raises(GridError):
            cost.remove_path(cells)

    def test_remove_non_strict_goes_negative(self):
        cost = CostArray(3, 10)
        cells = flat([(0, 1)])
        cost.remove_path(cells, strict=False)
        assert cost[0, 1] == -1

    def test_apply_remove_delta_round_trip(self):
        cost = CostArray(3, 10)
        cells = flat([(0, 1), (1, 2)])
        cost.apply_path(cells, delta=3)
        assert cost[0, 1] == 3
        cost.remove_path(cells, delta=3)
        assert cost.total_occupancy() == 0

    def test_remove_strict_checks_against_delta(self):
        """Rip-up of a delta-3 path from a 2-high cell must fail strictly."""
        cost = CostArray(3, 10)
        cells = flat([(0, 1)])
        cost.apply_path(cells, delta=2)
        with pytest.raises(GridError):
            cost.remove_path(cells, delta=3)
        assert cost[0, 1] == 2  # strict failure left the array untouched

    def test_remove_partial_delta_leaves_remainder(self):
        cost = CostArray(3, 10)
        cells = flat([(0, 1)])
        cost.apply_path(cells, delta=5)
        cost.remove_path(cells, delta=2)
        assert cost[0, 1] == 3

    def test_remove_delta_non_strict_goes_negative(self):
        cost = CostArray(3, 10)
        cells = flat([(0, 1)])
        cost.apply_path(cells)
        cost.remove_path(cells, delta=4, strict=False)
        assert cost[0, 1] == -3

    def test_path_cost_sums_entries(self):
        cost = CostArray(3, 10)
        a = flat([(0, 1), (0, 2)])
        b = flat([(0, 2), (1, 2)])
        cost.apply_path(a)
        assert cost.path_cost(b) == 1  # only the shared cell is occupied

    def test_empty_path_noops(self):
        cost = CostArray(3, 10)
        empty = np.empty(0, dtype=np.int64)
        cost.apply_path(empty)
        cost.remove_path(empty)
        assert cost.path_cost(empty) == 0

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 19)),
                min_size=1,
                max_size=15,
                unique=True,
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_array_equals_sum_of_indicators(self, paths):
        """Invariant: cost array == sum of applied path indicator vectors."""
        cost = CostArray(5, 20)
        reference = np.zeros((5, 20), dtype=np.int64)
        applied = []
        for cells in paths:
            fc = flat(cells, n_grids=20)
            cost.apply_path(fc)
            applied.append(fc)
            for c in fc:
                reference[c // 20, c % 20] += 1
        assert np.array_equal(cost.data, reference)
        for fc in applied:
            cost.remove_path(fc)
        assert cost.total_occupancy() == 0


class TestEvaluationHelpers:
    def test_row_prefix_inclusive_sums(self):
        cost = CostArray(2, 6)
        cost.data[0] = [1, 2, 3, 4, 5, 6]
        p = cost.row_prefix(0)
        assert p[0] == 0
        # inclusive sum over [1..3] = 2+3+4
        assert p[4] - p[1] == 9

    def test_column_range_sums(self):
        cost = CostArray(4, 6)
        cost.data[1, 2] = 5
        cost.data[2, 2] = 7
        sums = cost.column_range_sums(1, 2, 0, 5)
        assert sums[2] == 12 and sums.sum() == 12

    def test_column_range_empty_rows(self):
        cost = CostArray(4, 6)
        cost.data[:] = 9
        sums = cost.column_range_sums(2, 1, 0, 5)
        assert np.array_equal(sums, np.zeros(6, dtype=np.int64))


class TestRegions:
    def test_extract_replace_round_trip(self):
        cost = CostArray(4, 8)
        cost.data[:] = np.arange(32).reshape(4, 8)
        box = BBox(1, 2, 2, 5)
        block = cost.extract(box)
        cost.replace(box, np.zeros_like(block))
        assert cost.data[1:3, 2:6].sum() == 0
        cost.replace(box, block)
        assert np.array_equal(cost.data, np.arange(32).reshape(4, 8))

    def test_accumulate_adds(self):
        cost = CostArray(4, 8)
        box = BBox(0, 0, 1, 1)
        cost.accumulate(box, np.ones((2, 2), dtype=np.int32))
        cost.accumulate(box, np.ones((2, 2), dtype=np.int32))
        assert cost[0, 0] == 2

    def test_shape_mismatch_rejected(self):
        cost = CostArray(4, 8)
        with pytest.raises(GridError):
            cost.replace(BBox(0, 0, 1, 1), np.zeros((3, 3), dtype=np.int32))

    def test_out_of_range_box_rejected(self):
        cost = CostArray(4, 8)
        with pytest.raises(GridError):
            cost.extract(BBox(0, 0, 4, 4))

    def test_channel_maxima(self):
        cost = CostArray(3, 5)
        cost.data[1, 4] = 7
        assert list(cost.channel_maxima()) == [0, 7, 0]


class TestEquality:
    def test_copy_equal_but_independent(self):
        cost = CostArray(3, 5)
        cost.data[1, 1] = 3
        dup = cost.copy()
        assert dup == cost
        dup.data[1, 1] = 4
        assert dup != cost
