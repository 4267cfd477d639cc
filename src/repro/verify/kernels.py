"""Production-vs-oracle kernel equivalence checks for ``locusroute verify``.

Each hot path has one production engine and keeps its scalar reference
engine as a differential oracle, called here by name:

===========  ======================================  ==============================
check        production                              oracle
===========  ======================================  ==============================
coherence    ``memsim.columnar``                     ``memsim.coherence``
twobend      ``route.twobend.route_wire`` (fused)    ``route_wire_reference``
wavefront    ``route_iteration_wavefront``           ``route_iteration_reference``
event_queue  ``events.columnar.ColumnarEventQueue``  ``events.queue.EventQueue``
===========  ======================================  ==============================

Both engines promise *bit-identical* output.  The hypothesis suites fuzz
that promise; this module re-verifies it at ``locusroute verify`` time on
workloads derived from the verify run's own circuit.

Each check returns ``{"identical": bool, "detail": str}``; any
non-identical check fails the overall verify verdict.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..circuits.model import Circuit
from ..grid.cost_array import CostArray

__all__ = ["run_kernel_equivalence"]

#: Line sizes swept by the coherence check (the Table 3 sweep's range).
LINE_SIZES = (4, 8, 16, 32)


def _coherence_check(circuit: Circuit, n_procs: int) -> Dict[str, object]:
    """Scalar MSI replay vs the columnar kernel on a circuit-derived
    trace, as one chunk and as one record per chunk (state carried across
    every record boundary)."""
    from ..memsim.addressing import AddressMap
    from ..memsim.coherence import simulate_trace
    from ..memsim.columnar import ColumnarTrace, simulate_trace_streaming
    from ..memsim.trace import ReferenceTrace

    # A deterministic trace with real sharing: each wire's pin cells are
    # touched by a processor chosen from the wire index, alternating
    # read bursts with the occasional write burst (the cost-array update
    # pattern the shared memory router produces).
    trace = ReferenceTrace()
    for idx in range(circuit.n_wires):
        wire = circuit.wire(idx)
        cells = np.array(
            [pin.channel * circuit.n_grids + pin.x for pin in wire.pins],
            dtype=np.int64,
        )
        trace.add(float(2 * idx), idx % n_procs, False, cells)
        if idx % 3 == 0:
            trace.add(float(2 * idx + 1), (idx + 1) % n_procs, True, cells)

    columnar = ColumnarTrace.from_trace(trace)
    diverged: List[str] = []
    for ls in LINE_SIZES:
        amap = AddressMap(circuit.n_channels, circuit.n_grids, ls)
        scalar = simulate_trace(trace, n_procs, amap)
        if scalar != columnar.replay(n_procs, amap):
            diverged.append(f"{ls} (one chunk)")
        if scalar != simulate_trace_streaming(trace, n_procs, amap, chunk_refs=1):
            diverged.append(f"{ls} (record chunks)")
    detail = (
        f"{trace.n_records} bursts x line sizes {LINE_SIZES}, one chunk and "
        "one record per chunk"
        if not diverged
        else f"stats diverged at line sizes {', '.join(diverged)}"
    )
    return {"identical": not diverged, "detail": detail}


def _twobend_check(circuit: Circuit, iterations: int) -> Dict[str, object]:
    """Reference vs fused two-bend router through rip-up/reroute churn."""
    from ..route.twobend import route_wire, route_wire_reference

    def churn(router) -> Tuple[bytes, Tuple]:
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        paths = {}
        cells: List[Tuple[int, ...]] = []
        for iteration in range(iterations):
            for idx in range(circuit.n_wires):
                if idx in paths:
                    cost.remove_path(paths[idx].flat_cells)
                result = router(cost, circuit.wire(idx), tie_break=iteration % 2)
                cost.apply_path(result.path.flat_cells)
                paths[idx] = result.path
                cells.append(tuple(result.path.flat_cells.tolist()))
        return cost.data.tobytes(), tuple(cells)

    ref = churn(route_wire_reference)
    vec = churn(route_wire)
    identical = ref == vec
    detail = (
        f"{circuit.n_wires} wires x {iterations} rip-up/reroute iterations"
        if identical
        else "paths or final cost array diverged"
    )
    return {"identical": identical, "detail": detail}


def _wavefront_check(circuit: Circuit, iterations: int) -> Dict[str, object]:
    """Wave-front batched iterations vs the scalar per-wire loop.

    Drives both iteration engines through the same rip-up/reroute
    schedule and demands bit-identical occupancy, work accounting, paths
    and final cost array.
    """
    from ..route.engine import route_iteration_reference
    from ..route.wavefront import route_iteration_wavefront

    n_iterations = max(iterations, 2)

    def run(iterate) -> Tuple:
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        paths: Dict[int, object] = {}
        order = list(range(circuit.n_wires))
        totals = tuple(
            iterate(cost, circuit, order, paths, it % 2) for it in range(n_iterations)
        )
        return (
            totals,
            cost.data.tobytes(),
            tuple(tuple(paths[i].flat_cells.tolist()) for i in sorted(paths)),
        )

    identical = run(route_iteration_reference) == run(route_iteration_wavefront)
    detail = (
        f"{circuit.n_wires} wires x {n_iterations} batched iterations"
        if identical
        else "wave-front routing diverged from the sequential loop"
    )
    return {"identical": identical, "detail": detail}


def _event_queue_check(circuit: Circuit) -> Dict[str, object]:
    """Columnar event queue vs the reference heap on a live schedule.

    Drives both queues through the same circuit-derived schedule —
    nested reschedules, cancellations, simultaneous events — and
    compares the fired sequence exactly.
    """
    from ..events.columnar import ColumnarEventQueue
    from ..events.queue import EventQueue

    def run(queue) -> Tuple:
        fired: List[Tuple[float, int]] = []
        handles: List[object] = []
        now = 0.0

        def fire(tag: int) -> None:
            fired.append((now, tag))
            if tag < 1000 and tag % 4 == 0:
                handles.append(queue.push(now + 0.5, lambda t=tag: fire(t + 1000)))
            if tag % 5 == 0 and handles:
                queue.cancel(handles.pop(0))

        for idx in range(circuit.n_wires):
            wire = circuit.wire(idx)
            t = float(wire.leftmost_pin.x + wire.length_cost() % 7)
            queue.push(t, lambda tag=idx: fire(tag))
        while (nxt := queue.pop_next()) is not None:
            now, action = nxt
            action()
        return tuple(fired)

    ref = run(EventQueue())
    identical = ref == run(ColumnarEventQueue())
    detail = (
        f"{len(ref)} events fired in identical order"
        if identical
        else "event firing order diverged between queue kernels"
    )
    return {"identical": identical, "detail": detail}


def run_kernel_equivalence(
    circuit: Circuit, n_procs: int, iterations: int = 2
) -> Dict[str, Dict[str, object]]:
    """Run every kernel equivalence check; label -> {identical, detail}."""
    return {
        "coherence": _coherence_check(circuit, n_procs),
        "twobend": _twobend_check(circuit, iterations),
        "wavefront": _wavefront_check(circuit, iterations),
        "event_queue": _event_queue_check(circuit),
    }
