"""Wave-front batched routing: fused evaluation of independent wires.

The sequential rip-up-and-reroute loop routes one wire at a time: rip up,
price every candidate two-bend route, commit, move on.  Each step is a
handful of small NumPy calls, so the Python dispatch overhead around the
arithmetic dominates on real circuits.

This module batches that loop without changing a single routed cell.  The
observation: a wire's evaluation reads only its segments' bounding boxes,
and both its old and its new path lie inside those same boxes (paths are
built from the same pins, so every path cell is inside some segment box).
Two wires whose box unions are disjoint therefore *commute* — routing one
first cannot change what the other reads, rips up, or prices.  Each
iteration greedily partitions the pending wires, in visit order, into
**waves** of pairwise-disjoint footprints, then routes a whole wave as one
fused step:

1. rip up every wave member's old path in one grouped ``remove_path``;
2. price each member against the ripped-up array with the per-wire fused
   evaluator (:func:`_evaluate_single`: one flat prefix buffer over the
   wire's own bbox, one gather for every candidate of every segment);
3. reconstruct each wire's path, price it, and commit the whole wave in
   one grouped ``apply_path``.

Order preservation: the greedy partition defers a wire whose footprint
overlaps *any* earlier pending wire (whether that wire joined the wave or
was itself deferred), so no wire is ever routed before an earlier wire it
could interact with.  Within a wave, disjointness makes the batched
rip-up / evaluate / price / commit schedule produce exactly the
sequential result — :func:`repro.route.twobend.route_wire_reference`
stays the differential oracle and ``locusroute verify`` replays both.

Everything is integer arithmetic over the same ``int64`` sums in the same
per-element association order as the reference evaluator, so the chosen
columns, path cells, costs, and work accounting are bit-identical, not
merely equivalent.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..circuits.model import Circuit, Wire
from ..errors import RoutingError
from ..grid.bbox import BBox
from ..grid.cost_array import CostArray
from .path import RoutePath
from .twobend import SegmentRoute, WireRoute, _candidate_columns

__all__ = [
    "WireGeometry",
    "wire_geometry",
    "route_wire_fused",
    "plan_wave",
    "plan_waves",
    "plan_waves_reference",
    "route_iteration_wavefront",
]

#: Sentinel total for padded candidate slots — never selected by argmin
#: because every real candidate's cost is a small sum of occupancies.
_INF = np.iinfo(np.int64).max

_EMPTY = np.empty(0, dtype=np.int64)


class WireGeometry:
    """Routing-invariant geometry of one wire, precomputed once.

    Everything here depends only on the wire's pins and the grid width —
    candidate columns, the flat gather layout, path templates, work
    accounting — so it is computed once per ``(wire, n_grids)`` and
    cached on the wire object.  The cost array never enters; evaluation
    against a concrete array is :func:`_evaluate_single`.
    """

    __slots__ = (
        "seg_is_bend",
        "n_bend",
        "b_cand",
        "s_x1",
        "work_cells",
        "bbox",
        "needs_col",
        "has_pad",
        "e_invalid",
        "e_rows",
        "tbl_rows",
        "tbl_width",
        "rowp_size",
        "buf_size",
        "f_all",
        "const_off",
        "s_off",
        "seg_tmpl",
        "seg_proto",
        "bbox_obj",
    )

    def __init__(self, wire: Wire, n_grids: int) -> None:
        seg_is_bend: List[bool] = []
        bend_rows: List[Tuple[int, int, int, int, int, int]] = []
        b_candidates: List[np.ndarray] = []
        straight_rows: List[Tuple[int, int, int]] = []
        seg_tmpl: List[Tuple] = []
        # SegmentRoute prototypes: everything but xv/cost is static, so
        # route_wire_fused fills instances from these dicts instead of
        # paying the dataclass constructor per segment per reroute.
        seg_proto: List[Dict[str, object]] = []
        box = None
        work = 0
        for a, b in wire.segments():
            x1, c1 = a.x, a.channel
            x2, c2 = b.x, b.channel
            span = x2 - x1
            xs = np.arange(x1, x2 + 1, dtype=np.int64)
            if c1 == c2:
                straight_rows.append((c1, x1, x2))
                cand = _EMPTY
                w = span + 1
                seg_box = BBox(c1, x1, c1, x2)
                # A straight run's cells never depend on the cost array.
                seg_tmpl.append((c1 * n_grids + xs,))
            else:
                c_lo, c_hi = (c1, c2) if c1 <= c2 else (c2, c1)
                cand = _candidate_columns(x1, x2)
                n_interior = max(0, c_hi - c_lo - 1)
                bend_rows.append((c1, x1, c2, x2, c_lo, c_hi))
                b_candidates.append(cand)
                w = int(cand.size) * (span + 2 + n_interior)
                seg_box = BBox(c_lo, x1, c_hi, x2)
                # Path builder slices these at the chosen bend column:
                # low-channel run, interior column cells, high-channel run.
                seg_tmpl.append(
                    (
                        c_lo * n_grids + xs,
                        c_hi * n_grids + xs,
                        np.arange(c_lo + 1, c_hi, dtype=np.int64) * n_grids,
                        x1,
                        c1 <= c2,
                    )
                )
            seg_is_bend.append(c1 != c2)
            seg_proto.append(
                {
                    "xv": 0,
                    "cost": 0,
                    "work_cells": w,
                    "read_box": seg_box,
                    "c1": c1,
                    "x1": x1,
                    "c2": c2,
                    "x2": x2,
                    "candidates": cand,
                }
            )
            box = seg_box if box is None else box.union(seg_box)
            work += w
        self.seg_tmpl = seg_tmpl
        self.seg_proto = seg_proto
        self.seg_is_bend = seg_is_bend
        self.work_cells = work
        self.bbox = box.as_tuple()
        # Every segment's path spans its full x-range whatever bend column
        # wins, so any realized path's bbox IS the geometry bbox; the path
        # builder stamps this on trusted paths to skip the lazy recompute.
        self.bbox_obj = box

        n_bend = len(bend_rows)
        self.n_bend = n_bend
        if n_bend:
            b_c1, b_x1, b_c2, b_x2, b_clo, b_chi = np.array(
                bend_rows, dtype=np.int64
            ).T
            # Pad only to this wire's widest candidate row, not the global
            # MAX_CANDIDATES — short segments price narrow rows.
            width = max(cand.size for cand in b_candidates)
            cand_tab = np.empty((n_bend, width), dtype=np.int64)
            valid = np.zeros((n_bend, width), dtype=bool)
            for i, cand in enumerate(b_candidates):
                k = cand.size
                cand_tab[i, :k] = cand
                cand_tab[i, k:] = cand[0]  # padding never wins (cost forced to _INF)
                valid[i, :k] = True
            self.b_cand = cand_tab
        else:
            self.b_cand = np.empty((0, 1), dtype=np.int64)
        # A straight run's chosen "bend" column is always its left pin.
        self.s_x1 = tuple(int(x1) for _, x1, _ in straight_rows)

        # Flat-buffer layout: the evaluator builds both prefix tables in a
        # single flat buffer over exactly this wire's bbox, then prices
        # everything with ONE precomputed (2, K) flat gather — row 0 holds
        # every "+" prefix term, row 1 every "-" term, so
        # ``diff = gather[0] - gather[1]`` yields, in order, the H1-H2
        # candidate matrix, the interior (V) matrix, the per-bend
        # constant (H2 left end minus H1 left end), and the straight-run
        # costs.  Exact integer sums: regrouping the reference's
        # (H1 + H2 + V) into (matrix + const) is bit-identical.
        band_lo, x_lo = self.bbox[0], self.bbox[1]
        self.needs_col = bool(n_bend) and bool(np.any(b_chi - b_clo > 1))
        self.has_pad = bool(n_bend and not valid.all())
        self.e_invalid = ~valid if self.has_pad else None
        self.e_rows = np.arange(n_bend)
        rows = self.bbox[2] - band_lo + 1
        width = self.bbox[3] - x_lo + 1
        stride = width + 1
        self.tbl_rows = rows
        self.tbl_width = width
        self.rowp_size = rows * stride
        self.buf_size = self.rowp_size + ((rows + 1) * width if self.needs_col else 0)

        plus_parts: List[np.ndarray] = []
        minus_parts: List[np.ndarray] = []
        if n_bend:
            r1 = b_c1 - band_lo
            r2 = b_c2 - band_lo
            cand_rel = self.b_cand - x_lo
            plus_parts.append((r1[:, None] * stride + cand_rel + 1).ravel())
            minus_parts.append((r2[:, None] * stride + cand_rel).ravel())
            if self.needs_col:
                chi = (b_chi - band_lo)[:, None]
                clo = (b_clo + 1 - band_lo)[:, None]
                plus_parts.append((self.rowp_size + chi * width + cand_rel).ravel())
                minus_parts.append((self.rowp_size + clo * width + cand_rel).ravel())
            plus_parts.append(r2 * stride + b_x2 + 1 - x_lo)
            minus_parts.append(r1 * stride + b_x1 - x_lo)
        if straight_rows:
            s_c, s_x1, s_x2 = np.array(straight_rows, dtype=np.int64).T
            sr = s_c - band_lo
            plus_parts.append(sr * stride + s_x2 + 1 - x_lo)
            minus_parts.append(sr * stride + s_x1 - x_lo)
        nbW = n_bend * self.b_cand.shape[1] if n_bend else 0
        self.const_off = (2 * nbW if self.needs_col else nbW)
        self.s_off = self.const_off + n_bend
        if plus_parts:
            self.f_all = np.stack(
                (np.concatenate(plus_parts), np.concatenate(minus_parts))
            )
        else:
            self.f_all = np.empty((2, 0), dtype=np.int64)


def wire_geometry(wire: Wire, n_grids: int) -> WireGeometry:
    """The wire's :class:`WireGeometry`, cached on the wire object.

    ``Wire`` is frozen but carries a ``__dict__``; the cache is attached
    through ``object.__setattr__`` and keyed by grid width, so a wire
    shared across engines with different grids stays correct.
    """
    cache = getattr(wire, "_wf_geom", None)
    if cache is None:
        cache = {}
        object.__setattr__(wire, "_wf_geom", cache)
    geom = cache.get(n_grids)
    if geom is None:
        geom = WireGeometry(wire, n_grids)
        cache[n_grids] = geom
    return geom


def _evaluate_single(
    cost: CostArray, g: WireGeometry, tie_break: int
) -> List[Tuple[int, int]]:
    """Price one wire's segments against *cost* with a single fused step.

    Both prefix tables are built in one flat buffer over exactly the
    wire's bounding box, and every prefix-sum term of every segment is
    fetched by the geometry's single precomputed ``(2, K)`` flat gather;
    ``diff = gathered[0] - gathered[1]`` then holds the H1-H2 candidate
    matrix, the interior (V) matrix, the per-bend constants, and the
    straight-run costs back to back.  Bit-identical to per-segment
    :func:`repro.route.twobend.route_segment` — exact integer sums are
    association-free, and ties are broken on identical totals.
    """
    c_lo, x_lo, c_hi, x_hi = g.bbox
    block = cost.data[c_lo : c_hi + 1, x_lo : x_hi + 1]
    buf = np.zeros(g.buf_size, dtype=np.int64)
    rowp = buf[: g.rowp_size].reshape(g.tbl_rows, g.tbl_width + 1)
    np.cumsum(block, axis=1, dtype=np.int64, out=rowp[:, 1:])
    if g.needs_col:
        colp = buf[g.rowp_size :].reshape(g.tbl_rows + 1, g.tbl_width)
        np.cumsum(block, axis=0, dtype=np.int64, out=colp[1:, :])

    gathered = buf[g.f_all]
    diff = gathered[0] - gathered[1]

    nb = g.n_bend
    if nb:
        W = g.b_cand.shape[1]
        nbW = nb * W
        totals = diff[:nbW].reshape(nb, W)
        if g.needs_col:
            # V: strictly interior channels c_lo+1..c_hi-1 at column xv
            # (zero for adjacent-channel bends, same as the reference).
            totals += diff[nbW : 2 * nbW].reshape(nb, W)
        totals += diff[g.const_off : g.const_off + nb][:, None]
        if g.has_pad:
            totals[g.e_invalid] = _INF
        if tie_break == 0:
            best = np.argmin(totals, axis=1)  # first minimum: smallest xv
        else:
            # Last minimum: padded slots sit at _INF, so the reversed
            # argmin lands on the last *real* minimum, exactly the
            # reference's totals[::-1] scan.
            best = W - 1 - np.argmin(totals[:, ::-1], axis=1)
        b_xv = g.b_cand[g.e_rows, best]
        b_cost = totals[g.e_rows, best]

    s_cost = diff[g.s_off :]

    out: List[Tuple[int, int]] = []
    b_off = 0
    s_off = 0
    for is_bend in g.seg_is_bend:
        if is_bend:
            out.append((int(b_xv[b_off]), int(b_cost[b_off])))
            b_off += 1
        else:
            out.append((g.s_x1[s_off], int(s_cost[s_off])))
            s_off += 1
    return out


def _build_path(geom: WireGeometry, xvs: Sequence[int], n_grids: int) -> RoutePath:
    """Assemble the wire's :class:`RoutePath` from chosen bend columns.

    Segment cells come from slices of the geometry's precomputed run
    templates, emitted in ascending flat order (low channel run, interior
    column, high channel run), so the one-segment common case skips the
    ``np.unique`` sort entirely and constructs the path without
    re-validation; multi-segment wires union through ``np.unique``
    exactly like the reference.
    """
    tmpl = geom.seg_tmpl
    if len(tmpl) == 1:
        t = tmpl[0]
        if len(t) == 1:  # single straight run: the template is the path
            path = RoutePath._trusted(t[0], n_grids)
        else:
            lo_full, hi_full, int_rows, x1, c1_low = t
            xv = xvs[0]
            j = xv - x1
            if c1_low:
                cells = np.concatenate(
                    (lo_full[: j + 1], int_rows + xv, hi_full[j:])
                )
            else:
                cells = np.concatenate(
                    (lo_full[j:], int_rows + xv, hi_full[: j + 1])
                )
            path = RoutePath._trusted(cells, n_grids)
        object.__setattr__(path, "_bbox", geom.bbox_obj)
        return path

    parts: List[np.ndarray] = []
    for t, xv in zip(tmpl, xvs):
        if len(t) == 1:
            parts.append(t[0])
            continue
        lo_full, hi_full, int_rows, x1, c1_low = t
        j = xv - x1
        if c1_low:
            parts.extend((lo_full[: j + 1], int_rows + xv, hi_full[j:]))
        else:
            parts.extend((lo_full[j:], int_rows + xv, hi_full[: j + 1]))
    cells = np.sort(np.concatenate(parts))
    # Sort + consecutive-duplicate mask == np.unique, minus its overhead.
    keep = np.empty(cells.size, dtype=bool)
    keep[0] = True
    np.not_equal(cells[1:], cells[:-1], out=keep[1:])
    path = RoutePath._trusted(cells[keep], n_grids)
    object.__setattr__(path, "_bbox", geom.bbox_obj)
    return path


def route_wire_fused(cost: CostArray, wire: Wire, tie_break: int = 0) -> WireRoute:
    """Route every segment of *wire* against *cost* and union the cells.

    The production evaluator, exported as
    :func:`repro.route.twobend.route_wire`: the wire's cached
    :class:`WireGeometry` is priced by :func:`_evaluate_single`, which
    fills one flat prefix buffer over the wire's bbox and fetches every
    candidate of every segment in one gather.

    The cost array is *not* modified; callers decide when to commit the
    path (sequential router: immediately; parallel simulators: at the
    wire's commit event).  The reported wire cost prices the
    *deduplicated* footprint, so a cell crossed by two segments of the
    same wire counts once — consistent with the one-increment-per-cell
    occupancy rule.  Bit-identical to
    :func:`repro.route.twobend.route_wire_reference`, including the
    per-segment :class:`SegmentRoute` detail records.
    """
    if tie_break not in (0, 1):
        raise RoutingError(f"tie_break must be 0 or 1, got {tie_break}")
    geom = wire_geometry(wire, cost.n_grids)
    res = _evaluate_single(cost, geom, tie_break)
    path = _build_path(geom, [xv for xv, _ in res], cost.n_grids)
    segments: List[SegmentRoute] = []
    for proto, (xv, seg_cost) in zip(geom.seg_proto, res):
        seg = object.__new__(SegmentRoute)
        sd = seg.__dict__
        sd.update(proto)
        sd["xv"] = xv
        sd["cost"] = seg_cost
        segments.append(seg)
    return WireRoute(
        path=path,
        cost=cost.path_cost(path.flat_cells),
        work_cells=geom.work_cells,
        segments=tuple(segments),
    )


def plan_wave(
    pending: Sequence[int],
    footprints: Dict[int, Tuple[int, int, int, int]],
) -> Tuple[List[int], List[int]]:
    """Greedy in-order split of *pending* into ``(wave, deferred)``.

    A wire joins the wave only if its footprint is disjoint from *every*
    earlier pending wire's footprint — wave members **and** deferred ones.
    Blocking on deferred wires too is what preserves routing order: if a
    deferred wire's later routing could interact with a subsequent wire,
    that subsequent wire must wait for a later wave.
    """
    n = len(pending)
    clo = np.empty(n, dtype=np.int64)
    xlo = np.empty(n, dtype=np.int64)
    chi = np.empty(n, dtype=np.int64)
    xhi = np.empty(n, dtype=np.int64)
    wave: List[int] = []
    deferred: List[int] = []
    k = 0
    for idx in pending:
        c_lo, x_lo, c_hi, x_hi = footprints[idx]
        if k and bool(
            np.any(
                (clo[:k] <= c_hi)
                & (chi[:k] >= c_lo)
                & (xlo[:k] <= x_hi)
                & (xhi[:k] >= x_lo)
            )
        ):
            deferred.append(idx)
        else:
            wave.append(idx)
        clo[k] = c_lo
        xlo[k] = x_lo
        chi[k] = c_hi
        xhi[k] = x_hi
        k += 1
    return wave, deferred


def plan_waves_reference(
    order: Sequence[int],
    footprints: Dict[int, Tuple[int, int, int, int]],
) -> List[List[int]]:
    """The full wave decomposition of *order*, by the O(n^2) recurrence.

    Equivalent to iterating :func:`plan_wave` to exhaustion (wave ``w``
    is the ``w``-th round's wave, members in visit order), via the
    layering recurrence: a wire with no earlier overlapping wire joins
    wave 0, otherwise wave ``1 + max(wave of earlier overlapping
    wires)`` — an earlier overlapping wire in wave ``w`` is still
    pending in every round ``<= w``, blocking this wire exactly until
    round ``w + 1``.  One vectorised overlap test per wire replaces the
    per-round rescan of every deferred wire, and the result depends
    only on (*order*, *footprints*), so callers can cache it across
    iterations.

    This is the differential oracle for :func:`plan_waves` — it tests
    every wire against *all* earlier wires, so it stays trivially
    correct but quadratic.  The spatial-index planner must match it
    bit-for-bit on any input.
    """
    n = len(order)
    if not n:
        return []
    clo = np.empty(n, dtype=np.int64)
    xlo = np.empty(n, dtype=np.int64)
    chi = np.empty(n, dtype=np.int64)
    xhi = np.empty(n, dtype=np.int64)
    for k, idx in enumerate(order):
        clo[k], xlo[k], chi[k], xhi[k] = footprints[idx]
    wave_no = np.zeros(n, dtype=np.int64)
    for k in range(1, n):
        overlap = (
            (clo[:k] <= chi[k])
            & (chi[:k] >= clo[k])
            & (xlo[:k] <= xhi[k])
            & (xhi[:k] >= xlo[k])
        )
        if overlap.any():
            wave_no[k] = wave_no[:k][overlap].max() + 1
    waves: List[List[int]] = [[] for _ in range(int(wave_no.max()) + 1)]
    for idx, w in zip(order, wave_no):
        waves[w].append(idx)
    return waves


#: Most distinct wire orders whose wave decompositions are retained per
#: circuit (least recently used evicted first).  Steady-state routing
#: reuses one order across iterations, so a handful of slots keeps the
#: hit rate while bounding memory on runs that keep permuting the order.
WAVE_CACHE_MAX_ORDERS = 8

#: Coarse-layer bucket width (power of two for shift indexing): each
#: coarse slot holds the max over 64 fine cells, so wide footprints
#: query/update O(span/64) coarse slots plus two boundary fine slices.
_COARSE_SHIFT = 6
_COARSE = 1 << _COARSE_SHIFT

#: Footprints narrower than this skip the coarse-layer query; a single
#: C-level slice max over the fine row is cheaper than bucket splits.
_NARROW = 3 * _COARSE

#: Memory guard: most fine-grid cells the index may allocate
#: (n_rows * span).  sqrt-scaled circuit dimensions keep multi-million
#: wire circuits far below this; adversarial coordinates (huge sparse
#: spans) fall back to the exact quadratic oracle instead.
_MAX_GRID_CELLS = 1 << 25


def plan_waves(
    order: Sequence[int],
    footprints: Dict[int, Tuple[int, int, int, int]],
) -> List[List[int]]:
    """The full wave decomposition of *order*, via a grid-paint index.

    Same contract and bit-identical output as
    :func:`plan_waves_reference`, but sub-quadratic in practice: one
    skyline row per channel holds, for every grid cell, the maximum
    wave among processed wires covering that cell.  Footprints are
    axis-aligned rectangles on the grid, so two wires overlap iff
    their rectangles share a cell — the recurrence maximum for wire
    ``k`` is exactly the maximum of the skyline over ``k``'s own
    rectangle, read with C-level ``max()`` over list slices.

    The update exploits the recurrence itself: ``w = best + 1``
    strictly exceeds every skyline value under the new rectangle
    (``best`` is their maximum), so committing the wire is a C-level
    slice *overwrite* — no elementwise maximum anywhere.  A coarse
    64:1 max layer serves wide footprints (interior read from the
    coarse row, only the two boundary fragments from the fine row),
    and two exact prunes cut reads further: a per-row running maximum
    skips rows that cannot improve ``best``, and the query stops once
    ``best`` reaches the global maximum wave.  Both leave ``best`` >=
    every cell under the rectangle, which is all overwrite needs.
    """
    if not len(order):
        return []
    boxes = [footprints[idx] for idx in order]
    clos, xlos, chis, xhis = zip(*boxes)
    cmin = min(clos)
    n_rows = max(chis) - cmin + 1
    xmin = min(xlos)
    span = max(xhis) - xmin + 1
    if (
        n_rows * span > _MAX_GRID_CELLS
        # Inverted boxes have no grid-cell representation but still
        # overlap things under the recurrence's interval tests; keep
        # bit-identity by handing them to the oracle.  Likewise
        # pathological coordinates (memory guard above).  Real wire
        # geometry boxes never take this branch.
        or any(a > b for a, b in zip(clos, chis))
        or any(a > b for a, b in zip(xlos, xhis))
    ):
        return plan_waves_reference(order, footprints)

    # Three layers per channel row, all plain lists so slice reads and
    # writes run at C speed:
    #   fine[c][x]   cell skyline, possibly stale under a lazy slot
    #   lazy[c][B]   pending full-slot overwrite (cell truth is
    #                max(fine[c][x], lazy[c][x >> 6]))
    #   coarse[c][B] true per-slot maximum (always >= fine and lazy)
    n_coarse = ((span - 1) >> _COARSE_SHIFT) + 1
    fine = [[-1] * span for _ in range(n_rows)]
    lazy = [[-1] * n_coarse for _ in range(n_rows)]
    coarse = [[-1] * n_coarse for _ in range(n_rows)]
    # Waves are built in place: ``w = best + 1`` can exceed the
    # current maximum by at most one, so a new wave is always a plain
    # append.  This replaces a second grouping pass over all wires.
    waves: List[List[int]] = []
    max_wave = -1  # always len(waves) - 1
    shift = _COARSE_SHIFT

    for idx, (c0, l, c1, h) in zip(order, boxes):
        cl = c0 - cmin
        xl = l - xmin
        ch0 = c1 - cmin
        xh2 = h - xmin + 1  # exclusive
        b0 = xl >> shift
        b1 = (xh2 - 1) >> shift  # last touched slot
        if b1 == b0:
            # Fast path: the whole footprint lies in one coarse slot
            # (the overwhelmingly common case for local wires).
            if ch0 == cl:
                # ... and in one channel row: no loops at all.
                crow = coarse[cl]
                row = fine[cl]
                cb = crow[b0]
                if xl + 2 == xh2:
                    # Unit-span wires (two cells) are the single most
                    # common footprint; direct indexing skips the slice
                    # allocations of both the query and the commit.
                    xr = xl + 1
                    if cb == -1:
                        w = 0
                    else:
                        m = row[xl]
                        m2 = row[xr]
                        if m2 > m:
                            m = m2
                        m2 = lazy[cl][b0]
                        if m2 > m:
                            m = m2
                        w = m + 1
                    if w > max_wave:
                        max_wave = w
                        waves.append([idx])
                    else:
                        waves[w].append(idx)
                    row[xl] = w
                    row[xr] = w
                    if w > cb:
                        crow[b0] = w
                    continue
                if cb == -1:
                    w = 0  # empty slot: nothing can overlap
                else:
                    m = max(row[xl:xh2])
                    m2 = lazy[cl][b0]
                    w = (m2 if m2 > m else m) + 1
                if w > max_wave:
                    max_wave = w
                    waves.append([idx])
                else:
                    waves[w].append(idx)
                row[xl:xh2] = [w] * (xh2 - xl)
                if w > cb:
                    crow[b0] = w
                continue
            if ch0 == cl + 1:
                # Two channel rows (extent-1 wires are the next most
                # common): inline both, still loop-free.
                ch2 = cl + 1
                crow = coarse[cl]
                crow2 = coarse[ch2]
                if xl + 2 == xh2:
                    # Unit-span again: direct indexing, no slices.
                    xr = xl + 1
                    row = fine[cl]
                    best = -1
                    if crow[b0] > -1:
                        best = row[xl]
                        m2 = row[xr]
                        if m2 > best:
                            best = m2
                        m2 = lazy[cl][b0]
                        if m2 > best:
                            best = m2
                    if crow2[b0] > best:
                        row2 = fine[ch2]
                        m = row2[xl]
                        if m > best:
                            best = m
                        m = row2[xr]
                        if m > best:
                            best = m
                        m2 = lazy[ch2][b0]
                        if m2 > best:
                            best = m2
                    w = best + 1
                    if w > max_wave:
                        max_wave = w
                        waves.append([idx])
                    else:
                        waves[w].append(idx)
                    row[xl] = w
                    row[xr] = w
                    row2 = fine[ch2]
                    row2[xl] = w
                    row2[xr] = w
                    if w > crow[b0]:
                        crow[b0] = w
                    if w > crow2[b0]:
                        crow2[b0] = w
                    continue
                best = -1
                if crow[b0] > -1:
                    best = max(fine[cl][xl:xh2])
                    m2 = lazy[cl][b0]
                    if m2 > best:
                        best = m2
                if crow2[b0] > best:
                    m = max(fine[ch2][xl:xh2])
                    if m > best:
                        best = m
                    m2 = lazy[ch2][b0]
                    if m2 > best:
                        best = m2
                w = best + 1
                if w > max_wave:
                    max_wave = w
                    waves.append([idx])
                else:
                    waves[w].append(idx)
                seg = [w] * (xh2 - xl)
                fine[cl][xl:xh2] = seg
                fine[ch2][xl:xh2] = seg
                if w > crow[b0]:
                    crow[b0] = w
                if w > crow2[b0]:
                    crow2[b0] = w
                continue
            ch = ch0 + 1
            best = -1
            if xl + 2 == xh2:
                # Unit-span, many rows: direct indexing per row.
                xr = xl + 1
                for c in range(cl, ch):
                    if coarse[c][b0] <= best:
                        continue
                    row = fine[c]
                    m = row[xl]
                    m2 = row[xr]
                    if m2 > m:
                        m = m2
                    m2 = lazy[c][b0]
                    if m2 > m:
                        m = m2
                    if m > best:
                        best = m
                        if best >= max_wave:
                            break
                w = best + 1
                if w > max_wave:
                    max_wave = w
                    waves.append([idx])
                else:
                    waves[w].append(idx)
                for c in range(cl, ch):
                    row = fine[c]
                    row[xl] = w
                    row[xr] = w
                    crow = coarse[c]
                    if w > crow[b0]:
                        crow[b0] = w
                continue
            for c in range(cl, ch):
                # The slot maximum bounds everything under the
                # rectangle: a row that cannot beat the current best
                # is skipped unread.
                if coarse[c][b0] <= best:
                    continue
                m = max(fine[c][xl:xh2])
                m2 = lazy[c][b0]
                if m2 > m:
                    m = m2
                if m > best:
                    best = m
                    if best >= max_wave:
                        break
            w = best + 1
            if w > max_wave:
                max_wave = w
                waves.append([idx])
            else:
                waves[w].append(idx)
            seg = [w] * (xh2 - xl)
            for c in range(cl, ch):
                fine[c][xl:xh2] = seg
                crow = coarse[c]
                if w > crow[b0]:
                    crow[b0] = w
            continue
        ch = ch0 + 1
        best = -1
        b1p = b1 + 1
        wide = xh2 - xl >= _NARROW
        for c in range(cl, ch):
            crow = coarse[c]
            # Slot maxima bound everything under the rectangle: a row
            # that cannot beat the current best is skipped unread.
            ub = max(crow[b0:b1p])
            if ub <= best:
                continue
            row = fine[c]
            lrow = lazy[c]
            if wide:
                # Interior slots lie fully under the rectangle, so
                # their coarse maxima are exact; only the two boundary
                # fragments read fine cells (plus their lazy slots).
                m = max(crow[b0 + 1 : b1])
                m2 = max(row[xl : (b0 + 1) << shift])
                if m2 > m:
                    m = m2
                m2 = max(row[b1 << shift : xh2])
                if m2 > m:
                    m = m2
                m2 = lrow[b0]
                if m2 > m:
                    m = m2
                m2 = lrow[b1]
                if m2 > m:
                    m = m2
            else:
                m = max(row[xl:xh2])
                m2 = max(lrow[b0:b1p])
                if m2 > m:
                    m = m2
            if m > best:
                best = m
                if best >= max_wave:
                    break
        w = best + 1
        if w > max_wave:
            max_wave = w
            waves.append([idx])
        else:
            waves[w].append(idx)
        # Commit: w exceeds every cell under the rectangle, so all
        # writes are plain overwrites (see docstring).
        if wide:
            mid0 = (b0 + 1) << shift
            mid1 = b1 << shift
            seg0 = [w] * (mid0 - xl)
            seg1 = [w] * (xh2 - mid1)
            nseg = [w] * (b1 - b0 - 1)
            for c in range(cl, ch):
                row = fine[c]
                row[xl:mid0] = seg0
                row[mid1:xh2] = seg1
                lazy[c][b0 + 1 : b1] = nseg
                crow = coarse[c]
                crow[b0 + 1 : b1] = nseg
                if w > crow[b0]:
                    crow[b0] = w
                if w > crow[b1]:
                    crow[b1] = w
        else:
            seg = [w] * (xh2 - xl)
            for c in range(cl, ch):
                fine[c][xl:xh2] = seg
                crow = coarse[c]
                for b in range(b0, b1p):
                    if w > crow[b]:
                        crow[b] = w

    return waves


def route_iteration_wavefront(
    cost: CostArray,
    circuit: Circuit,
    order: Sequence[int],
    paths: Dict[int, RoutePath],
    tie_break: int,
) -> Tuple[int, int]:
    """One full rip-up-and-reroute iteration, routed in waves.

    Mutates *cost* and *paths* exactly as the sequential per-wire loop
    would and returns ``(occupancy, work_cells)`` for the iteration.
    Footprints are the wires' static geometry boxes — both the old and
    the new path of a wire always lie inside its own geometry box, so
    the partition never needs to look at current paths.
    """
    n_grids = cost.n_grids
    geoms: Dict[int, WireGeometry] = {}
    footprints: Dict[int, Tuple[int, int, int, int]] = {}
    for idx in order:
        g = wire_geometry(circuit.wire(idx), n_grids)
        geoms[idx] = g
        footprints[idx] = g.bbox

    # The decomposition depends only on the visit order and the static
    # geometry boxes, so it is identical in every iteration — cache it
    # on the circuit, keyed by the order.  The cache is LRU-bounded:
    # long rip-up/reroute runs that permute the order (annealed
    # schedules, per-iteration reorderings) would otherwise retain one
    # O(n) decomposition per distinct order for the circuit's lifetime.
    cache: "OrderedDict[Tuple[int, ...], List[List[int]]]" = getattr(
        circuit, "_wf_waves", None
    )
    if cache is None:
        cache = OrderedDict()
        object.__setattr__(circuit, "_wf_waves", cache)
    key = tuple(order)
    waves = cache.get(key)
    if waves is None:
        waves = plan_waves(order, footprints)
        cache[key] = waves
        while len(cache) > WAVE_CACHE_MAX_ORDERS:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)

    occupancy = 0
    work = 0
    for wave in waves:
        old_parts = [paths[i].flat_cells for i in wave if i in paths]
        if old_parts:
            # Disjoint footprints: one grouped rip-up == per-wire rip-ups.
            cost.remove_path(np.concatenate(old_parts))

        new_cells: List[np.ndarray] = []
        for idx in wave:
            geom = geoms[idx]
            # Evaluate and price before the grouped commit: no other wave
            # member's cells intersect this wire's box, so both equal the
            # sequential values taken right after this wire's own rip-up.
            res = _evaluate_single(cost, geom, tie_break)
            path = _build_path(geom, [xv for xv, _ in res], n_grids)
            occupancy += cost.path_cost(path.flat_cells)
            work += geom.work_cells
            paths[idx] = path
            new_cells.append(path.flat_cells)
        cost.apply_path(np.concatenate(new_cells))
    return occupancy, work
