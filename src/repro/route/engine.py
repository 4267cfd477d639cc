"""Sequential LocusRoute: the uniprocessor reference implementation.

This is the algorithm of paper §3 run on one processor: route every wire
once per iteration along its cheapest two-bend path, and from the second
iteration on, *rip up* the wire's previous path (decrement its cells)
before rerouting it.  "Performing several of these iterations, with all
wires routed once per iteration, improves the final solution quality."

The sequential router serves three roles in the reproduction:

1. the quality baseline every parallel configuration is compared against
   (it always sees a perfectly consistent cost array);
2. the work-unit oracle used to calibrate the execution-time model;
3. the reference for property tests (cost array == sum of path indicators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.model import Circuit
from ..errors import RoutingError
from ..grid.cost_array import CostArray
from .path import RoutePath
from .quality import QualityReport, circuit_height
from .twobend import route_wire_reference
from .wavefront import route_iteration_wavefront

__all__ = [
    "SequentialRouter",
    "SequentialResult",
    "DEFAULT_ITERATIONS",
    "route_iteration_reference",
]

#: Default rip-up-and-reroute iteration count.  Rose reports quality
#: saturating after a few iterations; three keeps runs fast while leaving
#: one full rip-up pass after the greedy first pass has settled.
DEFAULT_ITERATIONS = 3


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential routing run.

    ``paths`` maps wire index to its final :class:`RoutePath`; ``quality``
    summarises the final array; ``work_cells`` is total candidate-cell
    inspections (the calibration oracle); ``per_iteration_height`` shows
    the quality trajectory across iterations.
    """

    quality: QualityReport
    paths: Dict[int, RoutePath]
    work_cells: int
    per_iteration_height: List[int]
    cost: CostArray


class SequentialRouter:
    """Uniprocessor rip-up-and-reroute LocusRoute driver.

    Parameters
    ----------
    circuit:
        The circuit to route.
    iterations:
        Number of routing iterations (>= 1).
    """

    def __init__(self, circuit: Circuit, iterations: int = DEFAULT_ITERATIONS) -> None:
        if iterations < 1:
            raise RoutingError(f"need >= 1 iteration, got {iterations}")
        self.circuit = circuit
        self.iterations = iterations

    def run(self, wire_order: Optional[Sequence[int]] = None) -> SequentialResult:
        """Route the whole circuit and return the final solution.

        ``wire_order`` fixes the order wires are visited inside each
        iteration (defaults to index order).  The same order is used in
        every iteration, matching the original program's behaviour.
        """
        circuit = self.circuit
        order = list(wire_order) if wire_order is not None else list(range(circuit.n_wires))
        if sorted(order) != list(range(circuit.n_wires)):
            raise RoutingError("wire_order must be a permutation of all wire indices")

        cost = CostArray(circuit.n_channels, circuit.n_grids)
        paths: Dict[int, RoutePath] = {}
        total_work = 0
        heights: List[int] = []

        for iteration in range(self.iterations):
            # Batched wave-front routing: partitions this iteration's wires
            # into independence classes and routes each class with one
            # grouped rip-up and one grouped commit.  Bit-identical to route_iteration_reference
            # (locusroute verify replays both).
            occupancy, work = route_iteration_wavefront(
                cost, circuit, order, paths, tie_break=iteration % 2
            )
            total_work += work
            heights.append(circuit_height(cost))

        quality = QualityReport(
            circuit_height=heights[-1],
            occupancy_factor=occupancy,
            total_wire_cells=cost.total_occupancy(),
        )
        return SequentialResult(
            quality=quality,
            paths=paths,
            work_cells=total_work,
            per_iteration_height=heights,
            cost=cost,
        )


def route_iteration_reference(
    cost: CostArray,
    circuit: Circuit,
    order: Sequence[int],
    paths: Dict[int, RoutePath],
    tie_break: int,
) -> Tuple[int, int]:
    """One rip-up-and-reroute iteration, one wire at a time (the oracle).

    The scalar loop of paper §3 that
    :func:`~repro.route.wavefront.route_iteration_wavefront` batches: same
    signature, same mutations of *cost* and *paths*, and the same
    ``(occupancy, work_cells)`` return value, bit for bit.
    """
    occupancy = 0
    work = 0
    for wire_idx in order:
        wire = circuit.wire(wire_idx)
        if wire_idx in paths:
            cost.remove_path(paths[wire_idx].flat_cells)
        result = route_wire_reference(cost, wire, tie_break=tie_break)
        work += result.work_cells
        occupancy += result.cost
        cost.apply_path(result.path.flat_cells)
        paths[wire_idx] = result.path
    return occupancy, work
