"""Shared memory substrate: Tango-style reference tracing and
Write-Back-with-Invalidate cache coherence simulation (infinite caches,
configurable line size).

The production replay is :class:`ColumnarTrace` (one record table, one
vectorised kernel that :func:`simulate_trace_streaming` also runs chunk
by chunk over LRTS trace files); :func:`simulate_trace` is the scalar
oracle."""

from .addressing import WORD_BYTES, AddressMap
from .coherence import WriteBackInvalidate, simulate_trace
from .columnar import ColumnarTrace, simulate_trace_streaming
from .stats import CoherenceStats
from .tango import TangoCollector
from .trace import ReferenceTrace, TraceRecord
from .trace_io import (
    export_dinero,
    iter_trace_chunks,
    load_trace_stream,
    open_trace_stream,
    save_trace_stream,
)
from .finite_cache import FiniteWriteBackInvalidate, simulate_trace_finite
from .reference_level import analyze_references, expand_trace, simulate_trace_reference_level
from .update_protocol import WriteUpdate, simulate_trace_write_update

__all__ = [
    "WORD_BYTES",
    "AddressMap",
    "WriteBackInvalidate",
    "simulate_trace",
    "ColumnarTrace",
    "CoherenceStats",
    "TangoCollector",
    "ReferenceTrace",
    "TraceRecord",
    "WriteUpdate",
    "simulate_trace_write_update",
    "FiniteWriteBackInvalidate",
    "simulate_trace_finite",
    "save_trace_stream",
    "load_trace_stream",
    "open_trace_stream",
    "iter_trace_chunks",
    "simulate_trace_streaming",
    "export_dinero",
    "expand_trace",
    "analyze_references",
    "simulate_trace_reference_level",
]
