"""Reference-trace file I/O.

Tango-era memory traces were files consumed by downstream cache
simulators (dinero and friends).  This module gives the in-memory
:class:`~repro.memsim.trace.ReferenceTrace` the same workflow:

- :func:`save_trace_stream` / :func:`load_trace_stream` /
  :func:`open_trace_stream` — LRTS ("LocusRoute Trace Stream"), a
  lossless flat binary file with records pre-sorted into global replay
  order and each column at a fixed offset, so a reader seeks to any
  record-aligned window without loading the rest;
- :func:`iter_trace_chunks` — record-aligned
  :class:`~repro.memsim.columnar.ColumnarTrace` chunks of an LRTS file or
  an in-memory trace, so replay code is source-agnostic;
- :func:`export_dinero` — a one-way ``label address`` text trace, one
  line per *individual* cell reference (label 0 = read, 1 = write).

Chunks never split a record: the coherence engines deduplicate lines
*within* a record, so chunking is invisible in replayed statistics (the
hypothesis tests fuzz this with random chunk sizes).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

import numpy as np

from ..errors import CoherenceError
from .addressing import WORD_BYTES
from .columnar import DEFAULT_CHUNK_REFS, ColumnarTrace, int32_cells
from .trace import ReferenceTrace

__all__ = [
    "export_dinero",
    "iter_trace_chunks",
    "load_trace_stream",
    "open_trace_stream",
    "save_trace_stream",
]

PathLike = Union[str, Path]

#: Stream container magic ("LocusRoute Trace Stream").
STREAM_MAGIC = b"LRTS"
_STREAM_VERSION = 1
_STREAM_HEADER_BYTES = 4 + 4 + 8 + 8  # magic, version, n_records, n_refs

#: Record-table probe window (records per chunk-boundary search).
_PROBE_RECORDS = 1 << 16


def _chunk_len(offsets: np.ndarray, chunk_refs: int) -> int:
    """Records in the next chunk, given the offsets window that starts it:
    as many as fit in *chunk_refs* references, and at least one."""
    rel = offsets - offsets[0]
    k = int(np.searchsorted(rel, chunk_refs, side="right")) - 1
    return max(1, min(k, offsets.size - 1))


def save_trace_stream(trace: ReferenceTrace, path: PathLike) -> int:
    """Write *trace* as an LRTS streaming container; returns bytes written.

    Records are stored in global ``(time, append sequence)`` replay
    order — the sort is paid once here so readers can consume the file
    strictly sequentially.  Layout (all little-endian, after a 24-byte
    header of magic, version, record count and reference count)::

        times    float64[n]
        procs    int32[n]
        writes   uint8[n]
        offsets  int64[n + 1]   cumulative reference counts, from 0
        cells    int64[offsets[n]]
    """
    table = ColumnarTrace.from_trace(trace)
    with open(Path(path), "wb") as fh:
        fh.write(STREAM_MAGIC)
        fh.write(np.uint32(_STREAM_VERSION).tobytes())
        fh.write(np.array([table.n_records, table.n_references], "<i8").tobytes())
        fh.write(table.times.astype("<f8").tobytes())
        fh.write(table.procs.astype("<i4").tobytes())
        fh.write(table.writes.astype(np.uint8).tobytes())
        fh.write(table.offsets.astype("<i8").tobytes())
        fh.write(table.cells.astype("<i8").tobytes())
        return fh.tell()


def open_trace_stream(
    path: PathLike, *, chunk_refs: int = DEFAULT_CHUNK_REFS
) -> Iterator[ColumnarTrace]:
    """Stream an LRTS file as record-aligned :class:`ColumnarTrace` chunks.

    Peak memory is bounded by ``chunk_refs`` (plus a fixed record-table
    probe window), independent of the trace length: each column is read
    by seeking to its offset window, never whole.  A malformed file — bad
    magic or version, a negative record count, offsets that do not start
    at 0, decrease or miss the header's reference count, a negative
    processor, a cell outside the int32 column or a truncated column —
    raises :class:`CoherenceError`.
    """
    if chunk_refs < 1:
        raise CoherenceError("chunk_refs must be positive")
    with open(Path(path), "rb") as fh:
        header = fh.read(_STREAM_HEADER_BYTES)
        if header[:4] != STREAM_MAGIC:
            raise CoherenceError(f"not a trace stream (bad magic {header[:4]!r})")
        if len(header) != _STREAM_HEADER_BYTES:
            raise CoherenceError("truncated trace stream")
        version = int.from_bytes(header[4:8], "little")
        if version != _STREAM_VERSION:
            raise CoherenceError(f"unsupported trace stream version {version}")
        n, n_refs = (int(v) for v in np.frombuffer(header[8:], dtype="<i8"))
        if n < 0:
            raise CoherenceError(f"negative trace stream record count {n}")
        times_base = _STREAM_HEADER_BYTES
        procs_base = times_base + 8 * n
        writes_base = procs_base + 4 * n
        offsets_base = writes_base + n
        cells_base = offsets_base + 8 * (n + 1)

        def read(base: int, dtype: str, start: int, count: int) -> np.ndarray:
            size = np.dtype(dtype).itemsize
            fh.seek(base + size * start)
            data = np.frombuffer(fh.read(size * count), dtype=dtype)
            if data.size != count:
                raise CoherenceError("truncated trace stream")
            return data

        # With the first offset at 0 and the last at the reference count,
        # non-decreasing offsets keep every window inside the cells column.
        first, last = (int(read(offsets_base, "<i8", i, 1)[0]) for i in (0, n))
        if first != 0 or last != n_refs:
            raise CoherenceError(
                f"trace stream offsets span [{first}, {last}], expected [0, {n_refs}]"
            )
        pos = 0
        while pos < n:
            off = read(offsets_base, "<i8", pos, min(n - pos, _PROBE_RECORDS) + 1)
            if np.any(off[1:] < off[:-1]):
                raise CoherenceError("trace stream offsets decrease")
            k = _chunk_len(off, chunk_refs)
            procs = read(procs_base, "<i4", pos, k).astype(np.int32)
            if int(procs.min()) < 0:
                raise CoherenceError("trace stream references a negative processor")
            yield ColumnarTrace(
                times=read(times_base, "<f8", pos, k).astype(np.float64),
                procs=procs,
                writes=read(writes_base, "u1", pos, k).astype(bool),
                offsets=(off[: k + 1] - off[0]).astype(np.int64),
                cells=int32_cells(
                    read(cells_base, "<i8", int(off[0]), int(off[k] - off[0]))
                ),
            )
            pos += k


def iter_trace_chunks(
    source: Union[ReferenceTrace, PathLike],
    *,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[ColumnarTrace]:
    """Record-aligned chunks of *source*, in global replay order.

    *source* is either an in-memory
    :class:`~repro.memsim.trace.ReferenceTrace` (flattened once by
    :meth:`ColumnarTrace.from_trace`, then sliced) or the path of a
    :func:`save_trace_stream` file.  Both cut chunks the same way;
    replayed statistics do not depend on chunk boundaries.
    """
    if not isinstance(source, ReferenceTrace):
        yield from open_trace_stream(source, chunk_refs=chunk_refs)
        return
    if chunk_refs < 1:
        raise CoherenceError("chunk_refs must be positive")
    table = ColumnarTrace.from_trace(source)
    pos = 0
    while pos < table.n_records:
        k = _chunk_len(table.offsets[pos : pos + _PROBE_RECORDS + 1], chunk_refs)
        yield table.records(pos, pos + k)
        pos += k


def load_trace_stream(path: PathLike) -> ReferenceTrace:
    """Read an LRTS file back into memory.

    Records come back in global replay order (the container's order),
    which leaves every replay result identical; the original append
    order is not preserved.
    """
    trace = ReferenceTrace()
    for chunk in open_trace_stream(path):
        for i in range(chunk.n_records):
            trace.add(
                float(chunk.times[i]),
                int(chunk.procs[i]),
                bool(chunk.writes[i]),
                chunk.cells[chunk.offsets[i] : chunk.offsets[i + 1]],
            )
    return trace


def export_dinero(trace: ReferenceTrace, path: PathLike) -> int:
    """Write a dinero-style ``label address`` text trace; returns the
    number of reference lines written.

    References appear in global time order; byte addresses are the cell's
    word address (4 bytes per cost-array entry).
    """
    n = 0
    with open(Path(path), "w") as handle:
        for record in trace.sorted_records():
            label = 1 if record.is_write else 0
            for cell in record.flat_cells:
                handle.write(f"{label} {int(cell) * WORD_BYTES:x}\n")
                n += 1
    return n
