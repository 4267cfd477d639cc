"""Columnar (vectorised) replay of Write-Back-with-Invalidate traces.

:func:`~repro.memsim.coherence.simulate_trace` walks the trace one access
burst at a time, a Python-level loop whose per-record overhead dominates
the Table 3 sweep (the *same* trace replayed once per line size).  This
module computes the identical statistics with no per-record loop:

1. the trace is flattened **once** into a record table
   (:class:`ColumnarTrace`) in global ``(time, append sequence)`` order;
2. each replay maps cells to cache lines and dedupes to one *event* per
   ``(record, line)`` pair, the burst-level deduplication the scalar
   engine performs via
   :meth:`~repro.memsim.addressing.AddressMap.cells_to_lines`;
3. events are grouped by line (lines evolve independently under the
   infinite-cache protocol) and every outcome is derived from order
   statistics over the group.

With events indexed ``0..k-1`` per line group and ``j`` the position of
the last write strictly before event ``i`` (or −1):

- ``p ∈ sharers`` before ``i``  ⟺  p's previous event on the line is at
  position ≥ max(j, 0) — a write resets the sharers to the writer, and
  every read since re-adds its processor;
- the line is *dirty* before ``i``  ⟺  ``j ≥ 0`` and events ``j..i-1``
  form one same-processor run (the first foreign access after a write
  misses, and every miss on a dirty line flushes it);
- ``|sharers|`` before ``i`` = ``1 + (read misses in (j, i))`` when
  ``j ≥ 0``, else the number of read misses since the group start.

One kernel, :func:`_replay`, runs this over record-aligned chunks and
bridges chunk boundaries with three carried per-line arrays
(:class:`_LineCarry`), which stand in for the missing prefix where
``j < 0``.  :meth:`ColumnarTrace.replay` is the kernel over one chunk;
:func:`simulate_trace_streaming` is the kernel over
:func:`~repro.memsim.trace_io.iter_trace_chunks`, in bounded memory.
Both are **bit-identical** to the scalar engine, the differential oracle
that ``locusroute verify`` and the hypothesis suites check them against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from ..errors import CoherenceError
from ..obs import telemetry as obs
from .addressing import WORD_BYTES, AddressMap
from .stats import CoherenceStats
from .trace import ReferenceTrace

__all__ = ["ColumnarTrace", "simulate_trace_streaming"]

_INT32_MAX = np.iinfo(np.int32).max

#: Default chunk budget: individual cell references per streamed chunk.
#: ~256k references keeps the working set a few MB regardless of trace
#: length while amortizing per-chunk numpy overhead.
DEFAULT_CHUNK_REFS = 1 << 18


def _popcount64(values: np.ndarray) -> np.ndarray:
    """Per-element population count of non-negative int64 values."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(values).astype(np.int32)
    as_bytes = values.astype("<i8").view(np.uint8).reshape(values.size, 8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1, dtype=np.int32)


def int32_cells(cells: np.ndarray) -> np.ndarray:
    """*cells* as the ``int32`` cell column, rejecting negative indices and
    indices that overflow it."""
    if cells.size and not 0 <= int(cells.min()) <= int(cells.max()) < _INT32_MAX:
        raise CoherenceError("flat cell index outside the int32 cell column")
    return cells.astype(np.int32)


@dataclass(frozen=True, eq=False)
class ColumnarTrace:
    """A burst trace (or a record-aligned chunk of one) as one record
    table, in global replay order.

    Build once with :meth:`from_trace` and :meth:`replay` at any number
    of line sizes: the Python-level flattening is paid once per trace.
    """

    times: np.ndarray  #: float64, per record
    procs: np.ndarray  #: int32, per record
    writes: np.ndarray  #: bool, per record
    #: int64, per record + 1; ``offsets[0] == 0`` and record ``i`` owns
    #: ``cells[offsets[i]:offsets[i + 1]]``.
    offsets: np.ndarray
    #: Concatenated cells of every burst; ``int32`` halves the memory
    #: traffic of every sort and gather in a replay.
    cells: np.ndarray

    @staticmethod
    def from_trace(trace: ReferenceTrace) -> "ColumnarTrace":
        """Flatten *trace* in global ``(time, append sequence)`` order."""
        records = list(trace.sorted_records())
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum([r.n_refs for r in records], out=offsets[1:])
        return ColumnarTrace(
            times=np.array([r.time for r in records], dtype=np.float64),
            procs=np.array([r.proc for r in records], dtype=np.int32),
            writes=np.array([r.is_write for r in records], dtype=bool),
            offsets=offsets,
            cells=int32_cells(
                np.concatenate([r.flat_cells for r in records])
                if records
                else np.empty(0, dtype=np.int64)
            ),
        )

    @property
    def n_records(self) -> int:
        return int(self.procs.size)

    @property
    def n_references(self) -> int:
        return int(self.cells.size)

    @cached_property
    def n_write_refs(self) -> int:
        """Individual cell references by writes (scalar-engine count)."""
        return int(np.diff(self.offsets)[self.writes].sum())

    @property
    def n_read_refs(self) -> int:
        """Individual cell references by reads (scalar-engine count)."""
        return self.n_references - self.n_write_refs

    @cached_property
    def rec_ids(self) -> np.ndarray:
        """Record id of each cell (``int32``, non-decreasing)."""
        return np.repeat(
            np.arange(self.n_records, dtype=np.int32), np.diff(self.offsets)
        )

    def records(self, lo: int, hi: int) -> "ColumnarTrace":
        """Records ``lo..hi-1`` as a self-contained table (views, no copy)."""
        offsets = self.offsets[lo : hi + 1]
        return ColumnarTrace(
            times=self.times[lo:hi],
            procs=self.procs[lo:hi],
            writes=self.writes[lo:hi],
            offsets=offsets - offsets[0],
            cells=self.cells[offsets[0] : offsets[-1]],
        )

    def replay(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        """Replay through Write-Back-with-Invalidate; bit-identical to
        :func:`repro.memsim.coherence.simulate_trace`."""
        return _replay((self,), n_procs, address_map)


def simulate_trace_streaming(
    source: Union[ReferenceTrace, str, Path],
    n_procs: int,
    address_map: AddressMap,
    *,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> CoherenceStats:
    """Replay a :class:`~repro.memsim.trace.ReferenceTrace` or an LRTS
    file (:func:`~repro.memsim.trace_io.save_trace_stream`) in chunks of
    about *chunk_refs* references; peak memory is
    ``O(chunk_refs + address_map.n_lines)``, whatever the trace length.
    Bit-identical to :meth:`ColumnarTrace.replay` at every chunk size."""
    from .trace_io import iter_trace_chunks

    return _replay(
        iter_trace_chunks(source, chunk_refs=chunk_refs), n_procs, address_map
    )


class _LineCarry:
    """Per-line protocol state carried from one chunk to the next."""

    def __init__(self, n_lines: int) -> None:
        #: Sharers: procs whose last access is at or after the last write.
        self.mask = np.zeros(n_lines, dtype=np.int64)
        #: The exclusive-dirty owner, else −1.
        self.dirty = np.full(n_lines, -1, dtype=np.int32)
        #: Procs that ever touched the line; 0 on lines no chunk touched.
        self.ever = np.zeros(n_lines, dtype=np.int64)

    def roll(
        self,
        ev_line: np.ndarray,
        ev_proc: np.ndarray,
        ev_write: np.ndarray,
        new_line: np.ndarray,
        run_head: np.ndarray,
    ) -> None:
        """Advance the state over one chunk's events (grouped by line;
        ``run_head`` is each event's same-processor run start)."""
        m = ev_line.size
        idx = np.arange(m, dtype=np.int32)
        pbit = np.int64(1) << ev_proc.astype(np.int64)
        starts = np.flatnonzero(new_line)
        glines = ev_line[starts]
        group_id = np.cumsum(new_line) - 1
        last_write = np.maximum.reduceat(np.where(ev_write, idx, np.int32(-1)), starts)
        after_lw = idx > last_write[group_id]
        or_after = np.bitwise_or.reduceat(np.where(after_lw, pbit, np.int64(0)), starts)
        ends = np.append(starts[1:], m) - 1
        head_last = run_head[ends]
        proc_last = ev_proc[ends]
        written = last_write >= 0
        writer_bit = np.int64(1) << ev_proc[np.maximum(last_write, 0)].astype(np.int64)
        owner = self.dirty[glines]
        self.mask[glines] = np.where(written, writer_bit, self.mask[glines]) | or_after
        self.ever[glines] |= np.bitwise_or.reduceat(pbit, starts)
        # A write leaves the line dirty while its writer's run lasts; with
        # no write, a carried owner survives only a group that is one run
        # by that owner.
        self.dirty[glines] = np.where(
            written,
            np.where(head_last <= last_write, proc_last, np.int32(-1)),
            np.where(
                (owner >= 0) & (head_last == starts) & (proc_last == owner),
                owner,
                np.int32(-1),
            ),
        )


def _replay(
    chunks: Iterable[ColumnarTrace], n_procs: int, address_map: AddressMap
) -> CoherenceStats:
    """The WBI replay kernel over record-aligned chunks in replay order.

    Carried state is applied only to events on lines an earlier chunk
    touched and rolled forward only when another chunk follows, so a
    one-chunk replay pays nothing for it.
    """
    if not (1 <= n_procs <= 63):
        raise CoherenceError("n_procs must be in [1, 63]")
    stats = CoherenceStats(line_size=address_map.line_size)
    ls = address_map.line_size
    n_lines = address_map.n_lines
    # MAX_PROCS is 63, so (line, proc) packs into ``(line << 6) | proc``;
    # the packed key fits int32 whenever every line index is below 2**25.
    key_dtype = np.int32 if n_lines <= (1 << 25) else np.int64
    carry: Optional[_LineCarry] = None

    pending = (c for c in chunks if c.cells.size)
    chunk = next(pending, None)
    while chunk is not None:
        following = next(pending, None)
        procs = chunk.procs
        if int(procs.min()) < 0 or int(procs.max()) >= n_procs:
            raise CoherenceError("trace references a processor out of range")
        stats.n_read_refs += chunk.n_read_refs
        stats.n_write_refs += chunk.n_write_refs

        # One event per (record, line): a stable sort by line alone gives
        # (line, record) order because rec_ids is non-decreasing in the
        # flattened stream.  Events come out grouped by line, in global
        # record order within each group.
        lines_all = chunk.cells // address_map.words_per_line
        order = np.argsort(lines_all, kind="stable")
        l_sorted = lines_all[order]
        if int(l_sorted[0]) < 0 or int(l_sorted[-1]) >= n_lines:
            raise CoherenceError("trace cell outside the address map")
        r_sorted = chunk.rec_ids[order]
        keep = np.empty(l_sorted.size, dtype=bool)
        keep[0] = True
        np.logical_or(
            l_sorted[1:] != l_sorted[:-1],
            r_sorted[1:] != r_sorted[:-1],
            out=keep[1:],
        )
        if keep.all():
            # Common at small line sizes (each record's cells are already
            # distinct lines): skip two large boolean-index copies.
            ev_line, ev_rec = l_sorted, r_sorted
        else:
            ev_line = l_sorted[keep]
            ev_rec = r_sorted[keep]
        ev_proc = procs[ev_rec]
        ev_write = chunk.writes[ev_rec]
        m = ev_line.size
        idx = np.arange(m, dtype=np.int32)
        obs.incr("sim.coherence.columnar_events", m)

        new_line = np.empty(m, dtype=bool)
        new_line[0] = True
        np.not_equal(ev_line[1:], ev_line[:-1], out=new_line[1:])
        seg_start = np.where(new_line, idx, np.int32(0))
        np.maximum.accumulate(seg_start, out=seg_start)

        # j: position of the last write strictly before each event within
        # its line group (-1 if none).  A running max of write positions
        # never leaks across groups: earlier groups' indices fall below
        # the group start.
        ff = np.where(ev_write, idx, np.int32(-1))
        np.maximum.accumulate(ff, out=ff)
        j = np.empty(m, dtype=np.int32)
        j[0] = -1
        j[1:] = ff[:-1]
        np.copyto(j, np.int32(-1), where=j < seg_start)
        jpos = j >= np.int32(0)

        # Previous event by the same (line, proc), or -1: classifies
        # misses as cold vs refetch and decides sharer membership.
        key = np.left_shift(ev_line, 6, dtype=key_dtype)
        key |= ev_proc
        by_lp = np.argsort(key, kind="stable")
        lp_key = key[by_lp]
        same_lp = np.empty(m, dtype=bool)
        same_lp[0] = False
        np.equal(lp_key[1:], lp_key[:-1], out=same_lp[1:])
        prev_in_sorted = np.empty(m, dtype=np.int64)
        prev_in_sorted[0] = -1
        prev_in_sorted[1:] = by_lp[:-1]
        prev_lp = np.empty(m, dtype=np.int32)
        prev_lp[by_lp] = np.where(same_lp, prev_in_sorted, np.int64(-1)).astype(
            np.int32
        )

        # Sharer membership: a write resets the sharer set to the writer;
        # reads since re-add their processor.  So p holds the line iff its
        # previous access is at or after the last write.
        sharers_has_p = prev_lp >= np.maximum(j, np.int32(0))

        # Dirty-line tracking via run-length encoding of same-processor
        # runs: the line written at j is still dirty at i iff events
        # j..i-1 are one run by the writer (the first foreign access
        # after a write misses and flushes).
        run_break = new_line.copy()
        run_break[1:] |= ev_proc[1:] != ev_proc[:-1]
        run_start = np.where(run_break, idx, np.int32(0))
        np.maximum.accumulate(run_start, out=run_start)
        run_start_prev = np.empty(m, dtype=np.int32)
        run_start_prev[0] = 0
        run_start_prev[1:] = run_start[:-1]
        prev_proc = np.empty(m, dtype=np.int32)
        prev_proc[0] = -1
        prev_proc[1:] = ev_proc[:-1]
        dirty_alive = jpos & (run_start_prev <= j)

        if carry is not None:
            # Events on lines an earlier chunk touched, where the chunk
            # has no earlier write (~jpos) fall back to the carried state.
            sel = np.flatnonzero(carry.ever[ev_line] != 0)
            s_line = ev_line[sel]
            c_mask = carry.mask[s_line]
            c_dirty = carry.dirty[s_line]
            pbit = np.int64(1) << ev_proc[sel].astype(np.int64)
            fresh = ~jpos[sel]
            sharers_has_p[sel] |= fresh & ((c_mask & pbit) != 0)
            seen = (carry.ever[s_line] & pbit) != 0  # not a cold miss
            # A carried dirty line stays dirty while its owner's run is
            # unbroken from the chunk boundary up to the event.
            at_start = sel == seg_start[sel]
            unbroken = run_start_prev[sel] <= seg_start[sel]
            unbroken &= prev_proc[sel] == c_dirty
            dirty_alive[sel] |= fresh & (c_dirty >= 0) & (at_start | unbroken)
            prev_proc[sel[at_start]] = c_dirty[at_start]  # holder at a group start
            carried_sharers = np.where(fresh, _popcount64(c_mask), np.int32(0))
        miss = ~sharers_has_p
        dirty_by_me = dirty_alive & (ev_proc == prev_proc)

        read_miss = miss & ~ev_write
        cold = read_miss & (prev_lp < 0)
        if carry is not None:
            cold[sel] &= ~seen
        writeback = miss & dirty_alive
        word_write = ev_write & ~dirty_by_me

        # Sharer counts before each event, from segmented prefix sums of
        # read misses (each read miss adds exactly one sharer; a write
        # resets the count to one).
        rm = read_miss.astype(np.int32)
        cum_excl = np.cumsum(rm, dtype=np.int32)
        cum_excl -= rm
        base = cum_excl[np.where(jpos, j, seg_start)]
        n_sharers = jpos.astype(np.int32) + cum_excl - base
        if carry is not None:
            n_sharers[sel] += carried_sharers
        others = n_sharers - sharers_has_p.astype(np.int32)
        inval = word_write & (others > 0)

        n_cold = int(np.count_nonzero(cold))
        n_read_miss = int(np.count_nonzero(read_miss))
        stats.cold_fetch_bytes += n_cold * ls
        stats.refetch_bytes += (n_read_miss - n_cold) * ls
        stats.write_miss_fetch_bytes += int(np.count_nonzero(ev_write & miss)) * ls
        stats.writeback_bytes += int(np.count_nonzero(writeback)) * ls
        stats.word_write_bytes += int(np.count_nonzero(word_write)) * WORD_BYTES
        stats.n_invalidation_events += int(np.count_nonzero(inval))
        stats.n_copies_invalidated += int(others[inval].sum())

        if following is not None:
            if carry is None:
                carry = _LineCarry(n_lines)
            carry.roll(ev_line, ev_proc, ev_write, new_line, run_start)
        chunk = following
    return stats
