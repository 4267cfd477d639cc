"""Equivalence and unit tests for the columnar coherence engine.

The contract under test: :meth:`repro.memsim.columnar.ColumnarTrace.replay`
is *bit-identical* to the scalar :func:`repro.memsim.coherence.simulate_trace`
for every trace and line size.  The scalar engine is the oracle (it
mirrors the protocol description record by record); hypothesis fuzzes
the equivalence, the unit tests pin the edge cases the fuzz is unlikely
to hold still.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoherenceError
from repro.memsim.addressing import AddressMap
from repro.memsim.coherence import simulate_trace
from repro.memsim.columnar import ColumnarTrace, simulate_trace_streaming
from repro.memsim.trace import ReferenceTrace

N_CHANNELS = 6
N_GRIDS = 32
LINE_SIZES = (4, 8, 16, 32)


def build_trace(bursts) -> ReferenceTrace:
    """bursts: iterable of (proc, is_write, [flat cells])."""
    trace = ReferenceTrace()
    for t, (proc, is_write, cells) in enumerate(bursts):
        trace.add(float(t), proc, is_write, np.asarray(cells, dtype=np.int64))
    return trace


def assert_equivalent(trace: ReferenceTrace, n_procs: int) -> None:
    columnar = ColumnarTrace.from_trace(trace)
    for ls in LINE_SIZES:
        amap = AddressMap(N_CHANNELS, N_GRIDS, ls)
        scalar = simulate_trace(trace, n_procs, amap)
        vector = columnar.replay(n_procs, amap)
        assert scalar == vector, f"diverged at line size {ls}"


burst_strategy = st.tuples(
    st.integers(min_value=0, max_value=7),  # proc
    st.booleans(),  # is_write
    st.lists(
        st.integers(min_value=0, max_value=N_CHANNELS * N_GRIDS - 1),
        min_size=1,
        max_size=12,
    ),
)


class TestScalarColumnarEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(burst_strategy, min_size=0, max_size=60))
    def test_random_traces_bit_identical(self, bursts):
        assert_equivalent(build_trace(bursts), n_procs=8)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(burst_strategy, min_size=1, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    def test_any_processor_count(self, bursts, n_procs):
        bursts = [(proc % n_procs, w, cells) for proc, w, cells in bursts]
        assert_equivalent(build_trace(bursts), n_procs=n_procs)

    def test_empty_trace(self):
        assert_equivalent(build_trace([]), n_procs=4)

    def test_single_processor_never_invalidates(self):
        trace = build_trace([(0, False, [0, 1]), (0, True, [0]), (0, False, [1])])
        stats = ColumnarTrace.from_trace(trace).replay(1, AddressMap(N_CHANNELS, N_GRIDS, 8))
        assert stats.n_invalidation_events == 0
        assert_equivalent(trace, n_procs=1)

    def test_write_then_remote_read_forces_writeback(self):
        # Proc 0 dirties a line; proc 1's read must trigger exactly one
        # writeback in both engines.
        trace = build_trace([(0, True, [5]), (1, False, [5])])
        amap = AddressMap(N_CHANNELS, N_GRIDS, 8)
        scalar = simulate_trace(trace, 2, amap)
        vector = ColumnarTrace.from_trace(trace).replay(2, amap)
        assert scalar == vector
        assert vector.writeback_bytes == 8

    def test_burst_spanning_many_lines(self):
        trace = build_trace(
            [(0, True, list(range(0, 64))), (1, False, list(range(32, 96)))]
        )
        assert_equivalent(trace, n_procs=2)

    def test_repeated_cells_within_one_burst(self):
        # Duplicate (record, line) events must collapse to one access.
        trace = build_trace([(0, False, [3, 3, 3, 4]), (1, True, [4, 4, 3])])
        assert_equivalent(trace, n_procs=2)


class TestColumnarTrace:
    def test_reuse_across_line_sizes_matches_fresh_flatten(self):
        trace = build_trace(
            [(i % 4, i % 3 == 0, [i, i + 1, (i * 7) % 100]) for i in range(50)]
        )
        shared = ColumnarTrace.from_trace(trace)
        for ls in LINE_SIZES:
            amap = AddressMap(N_CHANNELS, N_GRIDS, ls)
            assert shared.replay(4, amap) == ColumnarTrace.from_trace(trace).replay(4, amap)

    def test_rejects_bad_processor_count(self):
        trace = build_trace([(0, False, [1])])
        columnar = ColumnarTrace.from_trace(trace)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 8)
        with pytest.raises(CoherenceError):
            columnar.replay(0, amap)
        with pytest.raises(CoherenceError):
            columnar.replay(64, amap)

    def test_rejects_out_of_range_processor(self):
        trace = build_trace([(5, False, [1])])
        with pytest.raises(CoherenceError):
            ColumnarTrace.from_trace(trace).replay(2, AddressMap(N_CHANNELS, N_GRIDS, 8))

    def test_int32_overflow_guard(self):
        trace = ReferenceTrace()
        trace.add(0.0, 0, False, np.array([np.iinfo(np.int32).max], dtype=np.int64))
        with pytest.raises(CoherenceError):
            ColumnarTrace.from_trace(trace)

    def test_accepts_reference_trace_directly(self):
        trace = build_trace([(0, True, [2]), (1, False, [2])])
        amap = AddressMap(N_CHANNELS, N_GRIDS, 4)
        assert simulate_trace_streaming(trace, 2, amap) == simulate_trace(
            trace, 2, amap
        )

    def test_wide_address_map_uses_int64_keys(self):
        """Lines at or past 2**25 need the int64 (line, proc) key; lines
        evolve independently, so shifting every cell by whole lines must
        leave the stats unchanged."""
        bursts = [(i % 4, i % 3 == 0, [i % 40, (i * 7) % 40]) for i in range(60)]
        small = build_trace(bursts)
        shift = 1 << 28  # whole lines at every line size, and line >= 2**25
        wide = build_trace([(p, w, [c + shift for c in cells]) for p, w, cells in bursts])
        for ls in LINE_SIZES:
            narrow_map = AddressMap(N_CHANNELS, N_GRIDS, ls)
            wide_map = AddressMap(1, 2 * shift, ls)
            assert wide_map.n_lines > 1 << 25
            assert ColumnarTrace.from_trace(wide).replay(4, wide_map) == simulate_trace(
                small, 4, narrow_map
            )

    def test_cell_outside_address_map_rejected(self):
        trace = build_trace([(0, False, [N_CHANNELS * N_GRIDS])])
        with pytest.raises(CoherenceError):
            ColumnarTrace.from_trace(trace).replay(2, AddressMap(N_CHANNELS, N_GRIDS, 4))
