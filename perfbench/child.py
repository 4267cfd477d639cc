"""One fresh process of a benchmark workload.

Usage::

    python perfbench/child.py WORKLOAD --seed N [--budget S] [--runs K]
                              [--speedup-runs K] [--trace PREFIX]

The child imports ``repro``, builds the workload's inputs from the seed
(set-up), prints ``READY``, runs the timed work, checks the outputs and
prints ``RESULT <json>`` as its last line.  With ``--trace`` it first
wraps every layer's entry points (``tracer.py``) and writes
``PREFIX.summary.json`` and ``PREFIX.trace.json.gz`` (Chrome trace events)
at exit.  ``run.py`` measures set-up from its side as the
time from spawning the child to reading ``READY``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any, Dict, List, Optional

from common import DEFAULT_SEED, check_paths, digest, peak_rss_mb

import repro
import repro.circuits
import repro.parallel.live

#: Paper grids at full scale: bnrE-like, 16 processors, 3 iterations.
T1_GRID = [(srd, sld) for srd in (2, 5, 10) for sld in (1, 5, 10, 20)]
T2_GRID = [(rld, rrd) for rld in (1, 2, 10) for rrd in (5, 10, 30)]
T3_LINE_SIZES = (4, 8, 16, 32)
PROCS, ITERATIONS = 16, 3

#: route_scaled: a cold 50k-wire S-series route, two iterations.
SCALED_WIRES, SCALED_RENT, SCALED_ITERATIONS = 50_000, 0.6, 2

#: live_2proc: live SM on bnrE-like, two real worker processes, three
#: iterations.  Live MP is not run: ``run_live_message_passing`` fails
#: intermittently at its stop barrier (README.md, "Known failure").
LIVE_PROCS, LIVE_ITERATIONS, LIVE_CIRCUITS = 2, 3, 8


def _row(result) -> Dict[str, Any]:
    row = dict(result.table_row())
    coherence = result.meta.get("coherence_by_line_size")
    if coherence:
        row["mbytes_by_line"] = {str(k): v["mbytes"] for k, v in coherence.items()}
    return row


class Work:
    """Collects timed operations, failures and digest inputs of one child."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.rows: List[Any] = []
        self.extra: Dict[str, float] = {}

    def timed(self, kind: str, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.request = f"{kind}#{len(self.ops)}"
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.ops.append({"kind": kind, "s": time.perf_counter() - t0, "ok": False})
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.ops.append({"kind": kind, "s": time.perf_counter() - t0, "ok": True})
        return result

    def fail_last(self, problems: List[str]) -> None:
        if problems:
            self.ops[-1]["ok"] = False
            self.problems.extend(problems)


# ----------------------------------------------------------------------
# paper_tables
# ----------------------------------------------------------------------
def _fresh_circuits(seed: int, maker, count: int, salt: int = 0) -> List[Any]:
    """*count* circuit objects, each with its own lazy per-wire caches.

    The default seed gives fresh copies of the canonical circuit; other
    seeds draw a circuit of their own for each.
    """
    if seed == DEFAULT_SEED:
        return [maker() for _ in range(count)]
    return [maker(seed=seed * 100 + salt + i) for i in range(count)]


def setup_paper(seed: int) -> List[Any]:
    """One circuit per table, as when each table is its own command:
    T1, T2 and T3 on bnrE-like circuits, T5 on a bnrE-like and an MDC-like
    one.  A run's cost so averages over five seed-drawn circuits."""
    bnre = _fresh_circuits(seed, repro.circuits.bnre_like, 4)
    mdc = _fresh_circuits(seed, repro.circuits.mdc_like, 1, salt=4)
    t1, t2, t3, t5 = bnre
    return [t1] * len(T1_GRID) + [t2] * len(T2_GRID) + [t3] + [t5] * 4 + mdc * 4


def _sim_checked(work: Work, kind: str, circuit, fn, *args, **kwargs):
    result = work.timed(kind, fn, *args, **kwargs)
    if result is not None:
        work.fail_last(check_paths(circuit.n_wires, result.paths, result.truth.data, kind))
        work.rows.append([kind, _row(result)])
    return result


def _t5_assignment(circuit, policy: int):
    regions = repro.RegionMap(circuit.n_channels, circuit.n_grids, PROCS)
    if policy == 0:
        return repro.RoundRobinAssigner(circuit, regions).assign()
    threshold = (30, 1000, math.inf)[policy - 1]
    return repro.ThresholdCostAssigner(circuit, regions, threshold).assign()


def _t5_run(circuit, policy: int):
    """One T5 cell; the assignment is built inside the timed call, as
    ``run_table5`` pays for it and ``run_message_passing`` for its default."""
    return repro.run_shared_memory(circuit, assignment=_t5_assignment(circuit, policy),
                                   iterations=ITERATIONS)


def run_paper(work: Work, circuits: List[Any]) -> None:
    mp_blocked, mp_span, mp_mbytes = 0.0, 0.0, 0.0
    cells = iter(circuits)

    def mp_cell(kind: str, schedule) -> None:
        nonlocal mp_blocked, mp_span, mp_mbytes
        circuit = next(cells)
        result = _sim_checked(work, kind, circuit, repro.run_message_passing, circuit,
                              schedule, n_procs=PROCS, iterations=ITERATIONS)
        if result is not None:
            mp_blocked += sum(s.blocked_time_s for s in result.node_summaries)
            mp_span += len(result.node_summaries) * result.exec_time_s
            mp_mbytes += result.network.mbytes if result.network is not None else 0.0

    for srd, sld in T1_GRID:
        mp_cell("t1", repro.UpdateSchedule.sender_initiated(srd, sld))
    for rld, rrd in T2_GRID:
        mp_cell("t2", repro.UpdateSchedule.receiver_initiated(rld, rrd))
    circuit = next(cells)
    _sim_checked(work, "sm", circuit, repro.run_shared_memory, circuit,
                 iterations=ITERATIONS, line_size=T3_LINE_SIZES[0],
                 extra_line_sizes=T3_LINE_SIZES[1:])
    for i, circuit in enumerate(cells):  # T5: bnrE-like then MDC-like
        _sim_checked(work, "sm", circuit, _t5_run, circuit, i % 4)
    work.extra["parallel.node.blocked_frac"] = mp_blocked / mp_span if mp_span else 0.0
    work.extra["netsim.wormhole.mbytes"] = mp_mbytes


# ----------------------------------------------------------------------
# route_scaled
# ----------------------------------------------------------------------
def setup_route(seed: int):
    kwargs = {} if seed == DEFAULT_SEED else {"seed": seed}
    return repro.circuits.generate_scaled(SCALED_WIRES, rent_exponent=SCALED_RENT, **kwargs)


def run_route(work: Work, circuit) -> None:
    router = repro.SequentialRouter(circuit, iterations=SCALED_ITERATIONS)
    result = work.timed("route", router.run)
    if result is not None:
        work.fail_last(check_paths(circuit.n_wires, result.paths, result.cost.data, "route"))
        work.rows.append(["route", {"quality": result.quality.as_dict(),
                                    "per_iteration_height": result.per_iteration_height}])


# ----------------------------------------------------------------------
# live_2proc
# ----------------------------------------------------------------------
def setup_live(seed: int) -> List[Any]:
    """bnrE-like circuits the live runs cycle through."""
    return _fresh_circuits(seed, repro.circuits.bnre_like, LIVE_CIRCUITS)


def _live_checked(work: Work, kind: str, circuit, fn, n_procs: int):
    result = work.timed(kind, fn, circuit, n_procs=n_procs, iterations=LIVE_ITERATIONS)
    if result is None:
        return None
    work.ops[-1]["s"] = result.routing_wall_s  # the metric is the routing wall
    problems = check_paths(circuit.n_wires, result.paths, result.truth.data, kind)
    if not result.replay_ok:
        problems.append(f"{kind}: commit-log replay did not reproduce the array")
    work.fail_last(problems)
    return result


def run_live(work: Work, circuits: List[Any], budget_s: float, runs: int) -> None:
    """Live SM runs: *runs* of them, or for *budget_s* seconds when *runs*
    is 0."""
    live = repro.parallel.live
    t0 = time.perf_counter()
    done = 0
    while done < runs if runs else time.perf_counter() - t0 < budget_s:
        circuit = circuits[done % len(circuits)]
        _live_checked(work, "live_sm", circuit, live.run_live_shared_memory, LIVE_PROCS)
        done += 1


def live_speedup(circuits: List[Any], runs: int) -> float:
    """Median 1-process over median 2-process live SM routing wall."""
    live = repro.parallel.live
    one, two = [], []
    for circuit in circuits[:runs]:
        one.append(live.run_live_shared_memory(
            circuit, n_procs=1, iterations=LIVE_ITERATIONS).routing_wall_s)
        two.append(live.run_live_shared_memory(
            circuit, n_procs=LIVE_PROCS, iterations=LIVE_ITERATIONS).routing_wall_s)
    one.sort()
    two.sort()
    return one[len(one) // 2] / two[len(two) // 2]


SETUP = {"paper_tables": setup_paper, "route_scaled": setup_route, "live_2proc": setup_live}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="live_2proc: seconds of live runs")
    parser.add_argument("--runs", type=int, default=0,
                        help="live_2proc: a fixed number of live SM runs instead")
    parser.add_argument("--speedup-runs", type=int, default=0,
                        help="live_2proc: 1- vs 2-process SM runs after the window")
    parser.add_argument("--trace", metavar="PREFIX")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, default_layers

        tracer = Tracer()
        tracer.install(default_layers())
    work = Work(tracer)

    w0 = time.perf_counter()
    inputs = SETUP[args.workload](args.seed)
    print("READY", flush=True)
    if args.workload == "paper_tables":
        run_paper(work, inputs)
    elif args.workload == "route_scaled":
        run_route(work, inputs)
    else:
        run_live(work, inputs, args.budget, args.runs)
    window_s = time.perf_counter() - w0
    if args.speedup_runs:
        work.extra["parallel.live.sm_speedup"] = live_speedup(inputs, args.speedup_runs)

    report = {
        "window_s": window_s,
        "ops": work.ops,
        "problems": work.problems,
        "rows_digest": digest(work.rows) if work.rows else None,
        "extra": work.extra,
        "peak_rss_mb": peak_rss_mb(),
        "repro_file": repro.__file__,
    }
    if tracer is not None:
        summary = tracer.summary()
        with open(args.trace + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write_chrome(args.trace + ".trace.json.gz")
        report["trace_summary"] = args.trace + ".summary.json"
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
