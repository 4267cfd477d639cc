"""The repository benchmark: one command, every metric, output checks.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_tables --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``paper_tables``  T1 and T2 grids (message passing), T3 and T5 (shared
                  memory) at full scale, serial, in fresh processes.
``route_scaled``  a cold 50k-wire ``SequentialRouter`` route.
``service_mix``   ``locusroute serve --port 0`` and one closed-loop client
                  mixing repository hits with new jobs.
``live_2proc``    live SM runs on two worker processes.

With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` one untraced and one traced repetition give the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Earlier lines print every metric with its unit, the workload-specific
figures, host context and the per-layer table.  Everything is also
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (DEFAULT_SEED, DIGESTS_PATH, HERE, host_info, median, percentile,
                    recorded_digests)

WORKLOADS = ("paper_tables", "route_scaled", "service_mix", "live_2proc")
ROOT = os.path.dirname(HERE)
#: Child processes that do not finish in this long count as hung.
CHILD_TIMEOUT_S = 150.0
#: Set-up is repeated at least this often per run; its median is reported.
#: The fresh-process workloads also make at least this many requests.
MIN_SETUPS = 3

#: End-to-end metrics, reported by every workload.  A *request* is what
#: a user of the workload waits for (README.md): one simulator
#: configuration of the tables, one cold route, one service submission,
#: or one live SM run.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
]

#: service_mix submissions per daemon instance (untraced / traced runs).
SERVICE_PLAN = 400
SERVICE_TRACE_PLAN = 300
#: live_2proc runs in each child of the traced run, and 1-proc SM runs.
LIVE_TRACE_RUNS = 16
LIVE_SPEEDUP_RUNS = 3


class BenchError(RuntimeError):
    """The program under test could not be run at all."""


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env(tmp: str) -> Dict[str, str]:
    """Children import the checkout's ``src`` and keep temp files inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["TMPDIR"] = tmp
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, env: Dict[str, str], cwd: str,
              extra: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """Run ``child.py`` once; set-up is timed from spawn to ``READY``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def drain() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setup_s, report = None, None
    try:
        while True:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                break
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                report = json.loads(line[len("RESULT "):])
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (queue.Empty, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} child timed out after {CHILD_TIMEOUT_S:.0f} s")
    finally:
        reader.join(timeout=10)
    if proc.returncode != 0 or report is None or setup_s is None:
        raise BenchError(f"{workload} child failed (exit {proc.returncode})")
    report["setup_parent_s"] = setup_s
    return report


class Run:
    """Accumulates one benchmark run's samples, failures and outputs."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env(work)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []
        self.setups: List[float] = []
        self.rss: List[float] = []
        #: Seconds per successful request, in groups; a percentile is taken
        #: per group and the median across groups reported (service_mix
        #: groups by daemon instance and live_2proc by child, so one
        #: disturbed instance cannot move it; the other workloads pool
        #: everything in one group).
        self.latencies: List[List[float]] = [[]]
        self.detail: Dict[str, Tuple[float, str]] = {}

    def child(self, *extra: str) -> Dict[str, Any]:
        report = run_child(self.workload, self.seed, self.env, self.work, extra)
        expected_src = os.path.join(ROOT, "src")
        if not os.path.abspath(report["repro_file"]).startswith(expected_src + os.sep):
            raise BenchError(f"imported repro from {report['repro_file']}, not {expected_src}")
        self.setups.append(report["setup_parent_s"])
        self.rss.append(report["peak_rss_mb"])
        for op in report["ops"]:
            self.attempted += 1
            self.failed += not op["ok"]
        self.problems += report["problems"]
        if report["rows_digest"]:
            self.digests.append(report["rows_digest"])
        return report

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": median(self.setups),
            "peak_rss_mb": max(self.rss),
            "p50_ms": median([percentile(g, 50) for g in self.latencies]) * 1e3,
            "p95_ms": median([percentile(g, 95) for g in self.latencies]) * 1e3,
        }


def _keep_going(t0: float, count: int, seconds: float) -> bool:
    """Start another repetition if that ends nearer *seconds* than stopping."""
    elapsed = time.perf_counter() - t0
    return elapsed + 0.5 * elapsed / count <= seconds


# ----------------------------------------------------------------------
# untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------
def measure_processes(run: Run) -> None:
    """paper_tables / route_scaled: fresh processes, each one regeneration
    of the tables (30 requests) or one cold route (one request)."""
    t0 = time.perf_counter()
    by_kind: Dict[str, List[float]] = {}
    reps = 0
    while True:
        report = run.child()
        reps += 1
        run.latencies[0] += [op["s"] for op in report["ops"] if op["ok"]]
        per_rep: Dict[str, float] = {}
        for op in report["ops"]:
            per_rep[op["kind"]] = per_rep.get(op["kind"], 0.0) + op["s"]
        for kind, total in per_rep.items():
            by_kind.setdefault(kind, []).append(total)
        if reps >= MIN_SETUPS and not _keep_going(t0, reps, run.seconds):
            break
    names = {"t1": "t1_s", "t2": "t2_s", "sm": "sm_s", "route": "route_s"}
    for kind, totals in by_kind.items():
        run.detail[names[kind]] = (median(totals), "s")
    run.detail["processes"] = (reps, "count")
    run.detail["requests"] = (len(run.latencies[0]), "count")


def measure_live(run: Run) -> None:
    """live_2proc: several fresh children, each making live SM runs."""
    budget = run.seconds / MIN_SETUPS
    groups = []
    for _ in range(MIN_SETUPS):
        ops = run.child("--budget", f"{budget:.3f}")["ops"]
        # A failed run has no routing wall; it counts in ``failed`` only.
        groups.append([op["s"] for op in ops if op["ok"]])
    run.latencies = [group for group in groups if group]
    pooled = [s for group in run.latencies for s in group]
    run.detail["live_sm_s"] = (median(pooled), "s")
    run.detail["requests"] = (len(pooled), "count")


def _service_instance(run: Run, plan, trace_prefix: Optional[str] = None):
    from service_mix import Instance, ServiceRunError

    try:
        inst = Instance(run.env, run.work, trace_prefix)
    except ServiceRunError as exc:
        raise BenchError(str(exc)) from exc
    try:
        run.setups.append(inst.warm())
        result = inst.run_plan(plan)
        result["queue_wait_s"] = inst.queue_wait_s()
        # Client HTTP time and the daemon's spans both cover this window.
        result["window_s"] = time.perf_counter() - inst.healthy_at
        result["http_s"], result["requests"] = inst.http_s, inst.requests
        run.rss.append(inst.peak_rss_mb())
    except Exception as exc:
        raise BenchError(f"service instance failed: {type(exc).__name__}: {exc}") from exc
    finally:
        inst.stop()
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.problems += inst.problems
    run.digests.append(result["digest"])
    return result


def measure_service(run: Run) -> None:
    from service_mix import submission_plan

    plan = submission_plan(run.seed, SERVICE_PLAN)
    hits: List[float] = []
    execs: List[float] = []
    groups: List[List[float]] = []
    loop_s = 0.0
    t0 = time.perf_counter()
    count = 0
    while True:
        result = _service_instance(run, plan)
        count += 1
        loop_s += result["wall_s"]
        hits += result["hits"]
        execs += result["execs"]
        groups.append(result["hits"] + result["execs"])
        if count >= MIN_SETUPS and not _keep_going(t0, count, run.seconds):
            break
    run.latencies = groups
    run.detail.update({
        "hit_p50_ms": (percentile(hits, 50) * 1e3, "ms"),
        "hit_p99_ms": (percentile(hits, 99) * 1e3, "ms"),
        "exec_p50_ms": (percentile(execs, 50) * 1e3, "ms"),
        "exec_p90_ms": (percentile(execs, 90) * 1e3, "ms"),
        "jobs_per_s": (count * len(plan) / loop_s, "1/s"),
        "hit_samples": (len(hits), "count"),
        "exec_samples": (len(execs), "count"),
        "instances": (count, "count"),
    })


# ----------------------------------------------------------------------
# traced runs: the per-layer metrics
# ----------------------------------------------------------------------
def trace_prefix(run: Run) -> str:
    out = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{run.workload}-seed{run.seed}")


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def trace_processes(run: Run, prefix: str) -> Tuple[Dict[str, Any], float, Dict[str, float]]:
    if run.workload == "live_2proc":
        runs = ("--runs", str(LIVE_TRACE_RUNS))
        plain = run.child(*runs, "--speedup-runs", str(LIVE_SPEEDUP_RUNS))
        traced = run.child(*runs, "--trace", prefix)
    else:
        plain = run.child()
        traced = run.child("--trace", prefix)
    extra = dict(plain["extra"])
    extra.update(traced["extra"])
    extra["trace.overhead_frac"] = traced["window_s"] / plain["window_s"] - 1.0
    return _load(traced["trace_summary"]), traced["window_s"], extra


def trace_service(run: Run, prefix: str) -> Tuple[Dict[str, Any], float, Dict[str, float]]:
    from service_mix import submission_plan

    plan = submission_plan(run.seed, SERVICE_TRACE_PLAN)
    # Untraced instances before and after the traced one, so the overhead
    # is not the difference between a first and a second daemon start.
    before = _service_instance(run, plan)
    traced = _service_instance(run, plan, trace_prefix=prefix)
    after = _service_instance(run, plan)
    plain_s = (before["wall_s"] + after["wall_s"]) / 2
    summary = _load(prefix + ".summary.json")
    # Daemon-side time of the requests the client timed ("pending" polls
    # are in neither).
    daemon_s = sum(v for k, v in summary["inclusive_s"].items()
                   if k.startswith("service.daemon:"))
    daemon_s -= summary["counters"].get("service.daemon.pending_s", 0.0)
    extra = {
        "service.http.self_s": max(0.0, traced["http_s"] - daemon_s),
        "service.http.requests": traced["requests"],
        "service.queue.self_s": traced["queue_wait_s"],
        "service.queue.wait_s": traced["queue_wait_s"],
        "trace.overhead_frac": traced["wall_s"] / plain_s - 1.0,
    }
    return summary, traced["window_s"], extra


def layer_table(summary: Dict[str, Any], metrics: Dict[str, float]) -> List[str]:
    from tracer import LAYER_EXTRAS, LAYER_NAMES

    lines = [f"{'layer':<20} {'self_s':>9} {'share':>7}  extras"]
    for layer in LAYER_NAMES:
        if layer in summary.get("absent", []):
            lines.append(f"{layer:<20} {'absent':>9}")
            continue
        extras = "  ".join(f"{m}={metrics[f'{layer}.{m}']:.6g}{u if u in ('s', 'us', 'ns', 'MB') else ''}"
                           for m, u in LAYER_EXTRAS[layer])
        lines.append(f"{layer:<20} {metrics[f'{layer}.self_s']:>9.4f} "
                     f"{metrics[f'{layer}.share']:>7.1%}  {extras}")
    lines.append(f"trace.overhead_frac = {metrics['trace.overhead_frac']:.3f}")
    for layer, entries in sorted(summary.get("missing", {}).items()):
        lines.append(f"not wrapped (entry point gone): {layer}: {', '.join(entries)}")
    return lines


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def check_digests(run: Run) -> None:
    if run.seed != DEFAULT_SEED:
        return
    recorded = recorded_digests().get(run.workload)
    if recorded is None:
        return  # live runs are not deterministic; only invariants are checked
    wrong = [d for d in run.digests if d != recorded]
    if wrong or not run.digests:
        run.failed += 1
        run.attempted += 1
        run.problems.append(f"default-seed output digest {wrong[:1]} != recorded {recorded}")


def record_digest(run: Run) -> None:
    """Store this default-seed run's output digest as the expected one."""
    if run.seed != DEFAULT_SEED or len(set(run.digests)) != 1 or run.failed:
        raise BenchError("record digests from one clean default-seed run")
    recorded = recorded_digests()
    recorded[run.workload] = run.digests[0]
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="LocusRoute repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this default-seed run's output digest")
    args = parser.parse_args(argv)
    # Daemons are stopped with SIGINT, their clean shutdown.  A launcher
    # that ignores SIGINT would hand that on to them; a handler is reset
    # to the default in every process this one starts.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing (run from the root of a checkout)", file=sys.stderr)
        return 2

    host = host_info(args.seed)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    run = Run(args.workload, args.seed, args.seconds, work)
    started = time.perf_counter()
    try:
        if args.trace:
            prefix = trace_prefix(run)
            tracer_fn = trace_service if args.workload == "service_mix" else trace_processes
            summary, wall, extra = tracer_fn(run, prefix)
            from tracer import PER_LAYER_METRICS, per_layer_metrics

            values = per_layer_metrics(summary, wall, extra)
            units = dict(PER_LAYER_METRICS)
            table = layer_table(summary, values)
        else:
            {"paper_tables": measure_processes, "route_scaled": measure_processes,
             "live_2proc": measure_live, "service_mix": measure_service}[args.workload](run)
            values = run.end_to_end()
            units = dict(END_TO_END)
            table = []
            if not all(math.isfinite(v) for v in values.values()):
                raise BenchError(f"no request succeeded: {run.problems[:3]}")
        if args.record_digests:
            record_digest(run)
        else:
            check_digests(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"took {time.perf_counter() - started:.1f} s")
    print("# host " + json.dumps(host, sort_keys=True))
    for name, value in values.items():
        print(f"{name:<36} {value:>14.6g} {units[name]}")
    for name, (value, unit) in run.detail.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<34} {run.failed / max(1, run.attempted):>14.6g} fraction")
    for line in table:
        print(line)
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")

    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record = {"host": host, "workload": args.workload, "trace": args.trace,
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in run.detail.items()},
              "problems": run.problems, "result": result}
    results_dir = os.path.join(base, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
