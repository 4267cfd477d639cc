"""The live message-passing LocusRoute: one real process per node.

This is the real-core twin of
:func:`repro.parallel.mp_sim.run_message_passing` (which models the
design through the CBS methodology and a wormhole network simulator).
Here the paper's §4 architecture actually executes:

- one OS process per node, each holding a **private view** of the whole
  cost array plus the §4.1 delta array of its unsent changes; there is
  no shared memory between nodes;
- wires are statically assigned (the ThresholdCost=1000 locality policy,
  like the simulator's default);
- real :class:`~repro.updates.packets.UpdatePacket` objects travel over
  ``multiprocessing.Pipe`` connections — a full point-to-point mesh —
  on the same :class:`~repro.updates.schedule.UpdateSchedule` cadence
  the simulator uses: SendRmtData pushes deltas to region owners,
  SendLocData pushes the owner's absolute region to its mesh
  neighbours, and ReqRmtData requests remote regions with optional
  blocking;
- blocking requests run under a real-time watchdog reusing the PR 3/6
  :class:`~repro.faults.plan.RecoveryPolicy` shape: wait with a timeout,
  retry with exponential backoff, and finally *abandon* the request and
  route with stale data rather than hang behind a straggler.

Ground truth and quality: node views legitimately diverge (that is the
design's quality-degradation mechanism), so every node also writes rip-up
and commit records into a durable commit log, stamped with
``time.monotonic_ns()`` (system-wide monotonic on Linux).  Replaying all
logs in timestamp order rebuilds the canonical final array — the
equivalent of the simulator's event-ordered truth array — from which
circuit height and occupancy are computed, and which must equal the union
of the final committed paths exactly.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...assign.base import Assignment
from ...circuits.model import Circuit
from ...errors import SimulationError
from ...faults.plan import RecoveryPolicy
from ...grid.bbox import BBox
from ...grid.cost_array import CostArray
from ...grid.delta import DeltaArray
from ...grid.regions import RegionMap
from ...obs import telemetry as obs
from ...route.path import RoutePath
from ...route.quality import QualityReport, circuit_height
from ...route.twobend import route_wire
from ...updates.packets import build_loc_data, build_request, build_response, build_rmt_data
from ...updates.schedule import UpdateSchedule
from ...updates.types import UpdateKind
from .commitlog import COMMIT, RIPUP, CommitLogWriter, read_logs, replay_records
from .results import LiveRunResult, LiveWorkerStats

__all__ = ["run_live_message_passing", "DEFAULT_LIVE_POLICY"]

#: Watchdog for blocking requests over real pipes: the simulator's 10 ms
#: virtual-time timeout is far too twitchy for a loaded host, so the live
#: router waits 250 ms, retries twice with 2x backoff, then abandons.
DEFAULT_LIVE_POLICY = RecoveryPolicy(
    watchdog_timeout_s=0.25, backoff_factor=2.0, max_retries=2
)


@dataclass(frozen=True)
class _NodeConfig:
    """Everything one node needs, picklable for the spawn start method."""

    circuit: Circuit
    node: int
    n_procs: int
    wires: Tuple[int, ...]
    schedule: UpdateSchedule
    policy: RecoveryPolicy
    log_path: str


def _mp_node(cfg: _NodeConfig, control, peer_conns: Dict[int, object]) -> None:
    """Node process body (module-level: picklable under spawn)."""
    circuit = cfg.circuit
    me = cfg.node
    regions = RegionMap(circuit.n_channels, circuit.n_grids, cfg.n_procs)
    my_region = regions.region(me)
    neighbors = regions.neighbors(me)
    view = CostArray(circuit.n_channels, circuit.n_grids)
    delta = DeltaArray(circuit.n_channels, circuit.n_grids)
    log = CommitLogWriter(cfg.log_path, me)
    sched = cfg.schedule
    policy = cfg.policy
    my_paths: Dict[int, RoutePath] = {}
    stats = {
        "grabs": 0,
        "commits": 0,
        "ripups": 0,
        "cells_written": 0,
        "messages_sent": 0,
        "messages_received": 0,
        "bytes_sent": 0,
        "bytes_received": 0,
        "requests_sent": 0,
        "requests_serviced": 0,
        "retries_sent": 0,
        "requests_abandoned": 0,
        "late_responses": 0,
        "blocked_time_s": 0.0,
    }
    #: outstanding blocking req_id -> owner processor
    pending: Dict[int, int] = {}
    next_req_id = 0

    def send(dst: int, pkt) -> None:
        peer_conns[dst].send(pkt)
        stats["messages_sent"] += 1
        stats["bytes_sent"] += pkt.length_bytes

    def reapply_pending(bbox) -> None:
        """Re-add our unsent deltas after an absolute overwrite.

        A SendLocData / RspRmtData block reflects the owner's knowledge,
        which cannot include changes we have not pushed yet; without the
        re-add our own recent commits would vanish from our view.
        """
        ours = delta.extract(bbox)
        if ours.any():
            view.accumulate(bbox, ours)

    def handle_packet(pkt) -> None:
        stats["messages_received"] += 1
        stats["bytes_received"] += pkt.length_bytes
        if pkt.kind is UpdateKind.SEND_RMT_DATA:
            # A remote's deltas inside our owned region: fold into both
            # the view and our delta array, so the next SendLocData push
            # propagates them (paper §4.3.2).
            view.accumulate(pkt.bbox, pkt.values)
            delta.accumulate(pkt.bbox, pkt.values)
        elif pkt.kind is UpdateKind.SEND_LOC_DATA:
            view.replace(pkt.bbox, pkt.values)
            reapply_pending(pkt.bbox)
        elif pkt.kind is UpdateKind.REQ_RMT_DATA:
            stats["requests_serviced"] += 1
            send(pkt.src, build_response(pkt, view.extract(pkt.bbox)))
        elif pkt.kind is UpdateKind.RSP_RMT_DATA:
            if sched.blocking and pkt.req_id is not None and pkt.req_id not in pending:
                # Abandoned-then-answered: apply anyway (idempotent
                # absolute overwrite), count it.  Non-blocking requests
                # never wait, so their responses are on time by design.
                stats["late_responses"] += 1
            pending.pop(pkt.req_id, None)
            view.replace(pkt.bbox, pkt.values)
            reapply_pending(pkt.bbox)
        # Other kinds (ReqLocData and control traffic) are not scheduled
        # by the live router; silently ignoring them keeps the node
        # robust to protocol evolution.

    def service(conn) -> None:
        """Handle every packet buffered on *conn*; forget a peer that left.

        A peer that has already said ``bye`` closes its pipe ends, so its
        connection reads as EOF (or a reset) rather than a packet.
        """
        try:
            while conn.poll():
                handle_packet(conn.recv())
        except (EOFError, ConnectionResetError):
            for peer, peer_conn in list(peer_conns.items()):
                if peer_conn is conn:
                    del peer_conns[peer]

    def drain(timeout_s: float = 0.0) -> None:
        """Service every deliverable peer packet (bounded wait)."""
        conns = list(peer_conns.values())
        ready = conn_wait(conns, timeout=timeout_s) if conns else []
        for conn in ready:
            service(conn)

    def request_regions(wire_bbox) -> None:
        """Fire ReqRmtData at every foreign owner the wire touches."""
        nonlocal next_req_id
        owners = [p for p in regions.regions_touched(wire_bbox) if p != me]
        if not owners:
            return
        sent: Dict[int, Tuple[int, object]] = {}
        for owner in owners:
            box = wire_bbox.intersect(regions.region(owner))
            if box is None:
                continue
            req_id = next_req_id = next_req_id + 1
            pkt = build_request(
                UpdateKind.REQ_RMT_DATA, me, owner, box, owner, req_id
            )
            send(owner, pkt)
            stats["requests_sent"] += 1
            if sched.blocking:
                pending[req_id] = owner
                sent[req_id] = (owner, box)
        if not sched.blocking or not pending:
            return
        # Real-time watchdog (PR 3/6 policy shape): wait, retry with
        # backoff, abandon.  Abandoning routes with stale data instead of
        # hanging the node behind a straggler.
        t0 = time.perf_counter()
        budget = policy.watchdog_timeout_s
        retries = 0
        my_ids = set(sent)
        while my_ids & set(pending):
            deadline = time.monotonic() + budget
            while (my_ids & set(pending)) and time.monotonic() < deadline:
                drain(timeout_s=0.005)
            still = my_ids & set(pending)
            if not still:
                break
            if retries >= policy.max_retries:
                for req_id in still:
                    pending.pop(req_id, None)
                stats["requests_abandoned"] += len(still)
                break
            retries += 1
            stats["retries_sent"] += len(still)
            for req_id in list(still):
                owner, box = sent[req_id]
                new_id = next_req_id = next_req_id + 1
                pending.pop(req_id, None)
                pending[new_id] = owner
                sent[new_id] = (owner, box)
                my_ids.discard(req_id)
                my_ids.add(new_id)
                send(
                    owner,
                    build_request(
                        UpdateKind.REQ_RMT_DATA, me, owner, box, owner, new_id
                    ),
                )
            budget *= policy.backoff_factor
        stats["blocked_time_s"] += time.perf_counter() - t0

    def push_rmt() -> None:
        """SendRmtData: push pending deltas to each foreign region owner."""
        for p in range(cfg.n_procs):
            if p == me:
                continue
            pkt = build_rmt_data(me, p, delta, regions.region(p))
            if pkt is not None:
                send(p, pkt)
                delta.clear_region(regions.region(p))

    def push_loc() -> None:
        """SendLocData: push our absolute region to the mesh neighbours."""
        pkt = None
        for nbr in neighbors:
            pkt = build_loc_data(me, nbr, view, delta, my_region)
            if pkt is None:
                return
            send(nbr, pkt)
        if pkt is not None:
            delta.clear_region(my_region)

    def route_iteration(iteration: int) -> None:
        wires_done = 0
        for wire_idx in cfg.wires:
            drain(0.0)
            stats["grabs"] += 1
            wire = circuit.wire(wire_idx)
            old = my_paths.get(wire_idx)
            if old is not None:
                # strict=False: the local view is only advisory — an
                # absolute overwrite may have clipped our own path's
                # counts, which is exactly the divergence the paper
                # tolerates.  The durable log keeps exact truth.
                view.remove_path(old.flat_cells, strict=False)
                delta.record_path(old.flat_cells, -1)
                log.append(
                    RIPUP, iteration, wire_idx, time.monotonic_ns(), old.flat_cells
                )
                stats["ripups"] += 1
                stats["cells_written"] += old.n_cells
            if (
                sched.req_rmt_every is not None
                and wires_done % sched.req_rmt_every == 0
            ):
                c_lo, x_lo, c_hi, x_hi = wire.bounding_box
                request_regions(BBox(c_lo, x_lo, c_hi, x_hi))
            result = route_wire(view, wire, tie_break=iteration % 2)
            cells = result.path.flat_cells
            view.apply_path(cells)
            delta.record_path(cells, 1)
            log.append(COMMIT, iteration, wire_idx, time.monotonic_ns(), cells)
            my_paths[wire_idx] = result.path
            stats["commits"] += 1
            stats["cells_written"] += int(cells.size)
            wires_done += 1
            if (
                sched.send_rmt_every is not None
                and wires_done % sched.send_rmt_every == 0
            ):
                push_rmt()
            if (
                sched.send_loc_every is not None
                and wires_done % sched.send_loc_every == 0
            ):
                push_loc()
        # End-of-iteration flush so the barrier starts the next iteration
        # from reasonably converged views.
        if sched.send_rmt_every is not None:
            push_rmt()
        if sched.send_loc_every is not None:
            push_loc()
        drain(0.0)

    try:
        control.send(("ready", me, 0))
        while True:
            # Park at the barrier, but keep answering peer requests —
            # a blocking requester must never deadlock on a parked node.
            msg = None
            while msg is None:
                waitables = [control] + list(peer_conns.values())
                for obj in conn_wait(waitables, timeout=0.25):
                    if obj is control:
                        msg = control.recv()
                        break
                    service(obj)
            if msg[0] == "stop":
                control.send(("bye", dict(stats), view.data))
                break
            route_iteration(msg[1])
            control.send(("idle", msg[1], dict(stats)))
    finally:
        log.close()


def run_live_message_passing(
    circuit: Circuit,
    schedule: Optional[UpdateSchedule] = None,
    n_procs: int = 2,
    iterations: int = 3,
    assignment: Optional[Assignment] = None,
    policy: RecoveryPolicy = DEFAULT_LIVE_POLICY,
    start_method: Optional[str] = None,
    timeout_s: float = 120.0,
    keep_logs_dir: Optional[str] = None,
) -> LiveRunResult:
    """Route *circuit* with one real process per message-passing node.

    Parameters mirror the simulator where they overlap; ``schedule``
    defaults to the sender-initiated ``SRD=1 SLD=1`` push schedule, and
    ``assignment`` to the ThresholdCost=1000 locality policy.
    ``req_loc_every`` schedules are not supported live.  ``timeout_s``
    bounds the whole run; a node process dying (they are never killed on
    purpose — crash stress lives in the shared-memory twin) aborts the
    run with :class:`~repro.errors.SimulationError`.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if n_procs < 1:
        raise SimulationError("need at least one node process")
    if iterations < 1:
        raise SimulationError("need at least one iteration")
    if schedule is None:
        schedule = UpdateSchedule.sender_initiated(1, 1)
    if schedule.req_loc_every is not None:
        raise SimulationError("ReqLocData schedules are not supported live")

    from ...harness.pool import mp_context
    from ..mp_sim import default_assignment

    ctx = mp_context(start_method)
    regions = RegionMap(circuit.n_channels, circuit.n_grids, n_procs)
    if assignment is None:
        assignment = default_assignment(circuit, regions)
    if assignment.n_procs != n_procs or assignment.n_wires != circuit.n_wires:
        raise SimulationError("assignment does not match circuit / processor count")
    per_node = assignment.per_proc_lists()

    tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if keep_logs_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="locusroute-live-mp-")
        log_dir = tmpdir.name
    else:
        os.makedirs(keep_logs_dir, exist_ok=True)
        log_dir = keep_logs_dir

    # Full point-to-point mesh of pipes plus one control pipe per node.
    node_peer_ends: List[Dict[int, object]] = [dict() for _ in range(n_procs)]
    for i in range(n_procs):
        for j in range(i + 1, n_procs):
            end_i, end_j = ctx.Pipe(duplex=True)
            node_peer_ends[i][j] = end_i
            node_peer_ends[j][i] = end_j

    log_paths = [os.path.join(log_dir, f"node{p}.log") for p in range(n_procs)]
    procs = []
    controls = []
    final_views: List[Optional[np.ndarray]] = [None] * n_procs
    final_stats: List[Dict[str, object]] = [dict() for _ in range(n_procs)]
    routing_wall = 0.0
    try:
        for p in range(n_procs):
            cfg = _NodeConfig(
                circuit=circuit,
                node=p,
                n_procs=n_procs,
                wires=tuple(int(w) for w in per_node[p]),
                schedule=schedule,
                policy=policy,
                log_path=log_paths[p],
            )
            parent_end, child_end = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_mp_node,
                args=(cfg, child_end, node_peer_ends[p]),
                daemon=True,
            )
            proc.start()
            child_end.close()
            for conn in node_peer_ends[p].values():
                conn.close()
            procs.append(proc)
            controls.append(parent_end)

        deadline = time.monotonic() + timeout_s

        def gather(expect: str) -> List[Tuple]:
            """Collect one *expect* message from every node."""
            got: List[Optional[Tuple]] = [None] * n_procs
            while any(m is None for m in got):
                if time.monotonic() > deadline:
                    raise SimulationError(
                        f"live message-passing run exceeded {timeout_s}s"
                    )
                waitables = {
                    controls[p]: p for p in range(n_procs) if got[p] is None
                }
                for p in range(n_procs):
                    # A dead node with an empty control pipe can never
                    # deliver; a dead node with buffered output (it
                    # flushed "bye" and exited) is still collectable.
                    if (
                        got[p] is None
                        and not procs[p].is_alive()
                        and not controls[p].poll()
                    ):
                        raise SimulationError(
                            f"node {p} died unexpectedly (exit "
                            f"{procs[p].exitcode})"
                        )
                for obj in conn_wait(list(waitables), timeout=0.25):
                    p = waitables[obj]
                    try:
                        msg = obj.recv()
                    except (EOFError, OSError) as exc:
                        raise SimulationError(f"node {p} died: {exc!r}")
                    if msg[0] != expect:  # pragma: no cover - defensive
                        raise SimulationError(
                            f"node {p} sent {msg[0]!r}, expected {expect!r}"
                        )
                    got[p] = msg
            return got  # type: ignore[return-value]

        gather("ready")
        routing_t0 = time.perf_counter()
        for iteration in range(iterations):
            for conn in controls:
                conn.send(("iter", iteration))
            for p, msg in enumerate(gather("idle")):
                final_stats[p] = msg[2]
        routing_wall = time.perf_counter() - routing_t0
        for conn in controls:
            conn.send(("stop",))
        for p, msg in enumerate(gather("bye")):
            final_stats[p] = msg[1]
            final_views[p] = np.array(msg[2], dtype=np.int32, copy=True)
        for proc in procs:
            proc.join(timeout=10.0)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for conn in controls:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # replay: canonical truth from the durable logs
    # ------------------------------------------------------------------
    n_wires = circuit.n_wires
    records = read_logs(log_paths)
    replay = replay_records(records, circuit.n_channels, circuit.n_grids)
    union = CostArray(circuit.n_channels, circuit.n_grids)
    for cells in replay.paths.values():
        union.apply_path(cells)
    replay_ok = (
        replay.ok
        and replay.commits == n_wires * iterations
        and len(replay.paths) == n_wires
        and union == replay.truth
    )
    quality = QualityReport(
        circuit_height=circuit_height(replay.truth),
        occupancy_factor=replay.occupancy_factor,
        total_wire_cells=replay.truth.total_occupancy(),
    )
    paths = {
        w: RoutePath.from_cells(c, circuit.n_grids) for w, c in replay.paths.items()
    }

    divergence = []
    for p in range(n_procs):
        if final_views[p] is not None:
            divergence.append(
                int(np.abs(final_views[p] - replay.truth.data).max())
            )
    worker_stats = [
        LiveWorkerStats(
            slot=p,
            incarnations=1,
            wires_committed=int(final_stats[p].get("commits", 0)),
            grabs=int(final_stats[p].get("grabs", 0)),
            ripups=int(final_stats[p].get("ripups", 0)),
            cells_written=int(final_stats[p].get("cells_written", 0)),
            messages_sent=int(final_stats[p].get("messages_sent", 0)),
            messages_received=int(final_stats[p].get("messages_received", 0)),
            bytes_sent=int(final_stats[p].get("bytes_sent", 0)),
            blocked_time_s=float(final_stats[p].get("blocked_time_s", 0.0)),
        )
        for p in range(n_procs)
    ]
    traffic = {
        key: int(sum(int(final_stats[p].get(key, 0)) for p in range(n_procs)))
        for key in (
            "messages_sent",
            "bytes_sent",
            "requests_sent",
            "requests_serviced",
            "retries_sent",
            "requests_abandoned",
            "late_responses",
        )
    }
    if tmpdir is not None:
        tmpdir.cleanup()

    meta: Dict[str, object] = {
        "circuit": circuit.name,
        "n_procs": n_procs,
        "iterations": iterations,
        "schedule": schedule.describe(),
        "assignment": assignment.method,
        "start_method": ctx.get_start_method(),
        "traffic": traffic,
        "view_divergence_max": max(divergence) if divergence else 0,
        "replay": {
            "commits": replay.commits,
            "ripups": replay.ripups,
            "records": len(records),
        },
    }

    wall = time.perf_counter() - wall0
    obs.record_span("live.mp", wall, time.process_time() - cpu0)
    obs.incr("live.mp.runs")
    obs.incr("live.mp.messages", traffic["messages_sent"])
    obs.incr("live.mp.bytes", traffic["bytes_sent"])
    if not replay_ok:
        obs.incr("live.mp.replay_failures")

    return LiveRunResult(
        paradigm="message_passing_live",
        quality=quality,
        n_procs=n_procs,
        iterations=iterations,
        wall_s=wall,
        routing_wall_s=routing_wall,
        replay_ok=replay_ok,
        paths=paths,
        truth=replay.truth,
        wire_router=np.asarray(assignment.owner, dtype=np.int64).copy(),
        worker_stats=worker_stats,
        meta=meta,
    )
