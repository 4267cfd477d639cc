"""The ``service_mix`` workload: a routing daemon and one closed-loop client.

Each *instance* starts ``locusroute serve --port 0`` (as ``python -m repro
serve --port 0``; every other flag at its default) in a fresh, empty
working directory, so the default SQLite repository and file cache start
empty.  Set-up lasts until the daemon answers ``/health`` and has executed
the job specs later submissions repeat, one of each kind.  Then one
client, which waits for each reply before sending the next request,
submits a seed-fixed sequence: in every block of ten submissions one is a
new job (the execute path: queue, in-process execution, both stores
written) and nine repeat a stored fingerprint (the repository-hit path:
one read plus one audit-row write).

Jobs are the repository's *quick* size (``harness.simjobs``: 160-wire
bnrE-like and 200-wire MDC-like circuits) with the job defaults of
``docs/SERVICE.md``: 3 iterations, 16 processors, line size 8, the
``send_rmt=2, send_loc=10`` schedule for message passing.  The stored
fingerprints are ``quick: true`` jobs; each new job gets a fingerprint of
its own from a circuit a few wires off the quick size.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import HERE, digest

#: Parameters every job shares: the job defaults spelled out, and the
#: schedule ``docs/SERVICE.md`` submits message-passing jobs with.
JOB_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "route": {"iterations": 3},
    "mp": {"iterations": 3, "n_procs": 16, "send_rmt": 2, "send_loc": 10},
    "sm": {"iterations": 3, "n_procs": 16, "line_size": 8},
}
EXEC_KINDS = ("route", "mp", "sm")
#: Stored fingerprints that nine in ten submissions repeat: quick jobs,
#: one per kind, warmed during set-up.
HIT_SPECS: List[Tuple[str, Dict[str, Any]]] = [
    (kind, {"which": which, "quick": True, **JOB_DEFAULTS[kind]})
    for kind, which in (("route", "bnrE"), ("mp", "bnrE"), ("sm", "MDC"))
]
#: New jobs: the quick circuits' sizes (bnrE 160, MDC 200 wires), moved by
#: a few wires so that each has a fingerprint of its own.
QUICK_WIRES = {"bnrE": 160, "MDC": 200}
WIRE_OFFSETS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
BLOCK = 10  # one new job per block of ten submissions
POLL_S = 0.005  # client poll interval while a new job executes
JOB_TIMEOUT_S = 30.0  # a new job without a result by then has failed
#: Payloads of the first few new jobs enter the default-seed digest.
DIGEST_EXECS = 30


class ServiceRunError(RuntimeError):
    """The daemon could not be started or stopped."""


def exec_spec(kind: str, which: str, n_wires: int) -> Tuple[str, Dict[str, Any]]:
    return kind, {"which": which, "n_wires": n_wires, **JOB_DEFAULTS[kind]}


def submission_plan(seed: int, n: int) -> List[Tuple[str, Tuple[str, Dict[str, Any]]]]:
    """``n`` submissions, ``("hit"|"exec", (kind, params))``, fixed by *seed*.

    New jobs cycle through the kinds; within a kind, circuits are drawn
    without replacement so every new job has a fresh fingerprint.
    """
    per_kind = len(QUICK_WIRES) * len(WIRE_OFFSETS)
    if -(-n // BLOCK) > len(EXEC_KINDS) * per_kind:
        raise ValueError(f"{n} submissions need more new-job specs than exist")
    rng = random.Random(seed)
    pools = {}
    for kind in EXEC_KINDS:
        pool = [exec_spec(kind, which, size + d)
                for which, size in QUICK_WIRES.items() for d in WIRE_OFFSETS]
        rng.shuffle(pool)
        pools[kind] = pool
    plan = []
    n_exec = 0
    for block_start in range(0, n, BLOCK):
        exec_at = rng.randrange(BLOCK)
        for j in range(min(BLOCK, n - block_start)):
            if j == exec_at:
                kind = EXEC_KINDS[n_exec % len(EXEC_KINDS)]
                plan.append(("exec", pools[kind][n_exec // len(EXEC_KINDS)]))
                n_exec += 1
            else:
                plan.append(("hit", HIT_SPECS[rng.randrange(len(HIT_SPECS))]))
    return plan


def _deterministic(body: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a result row fixed by the job (no wall times)."""
    payload = body.get("payload", {})
    keep = ("kind", "quality", "per_iteration_height", "work_cells", "exec_time_s",
            "mbytes_transferred", "n_wires", "network", "coherence")
    return {"config": body.get("config"),
            "payload": {k: payload[k] for k in keep if k in payload}}


class Instance:
    """One daemon process plus the client state that talks to it."""

    def __init__(self, env: Dict[str, str], workdir: str,
                 trace_prefix: Optional[str] = None) -> None:
        if trace_prefix is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [sys.executable, "-u", os.path.join(HERE, "serve_traced.py"),
                   trace_prefix, "--port", "0"]
        self.workdir = tempfile.mkdtemp(prefix="service-", dir=workdir)
        #: Client time in HTTP round trips, and their number, from the
        #: moment the daemon is healthy.  "Pending" replies to result polls
        #: are left out: they overlap the job's execution, which the
        #: daemon's own layers account for.
        self.http_s = 0.0
        self.requests = 0
        self.healthy_at = 0.0
        self.reference: Dict[str, bytes] = {}  # fingerprint -> first result body
        self.problems: List[str] = []
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=self.workdir, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._read_port()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            if "listening on http://" in line:
                return int(line.strip().rsplit(":", 1)[1])
        self.stop()
        raise ServiceRunError("daemon did not report its port")

    # -- HTTP ------------------------------------------------------------
    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            status, raw = response.status, response.read()
        finally:
            conn.close()
        if status != 409:
            self.http_s += time.perf_counter() - t0
            self.requests += 1
        return status, raw

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                status, _ = self.request("GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise ServiceRunError("daemon never became healthy")
            time.sleep(0.01)

    def submit_and_wait(self, kind: str, params: Dict[str, Any],
                        expect: str) -> Tuple[bool, Optional[Dict[str, Any]], str]:
        """Submit, then fetch (polling while it executes) the result row.

        Returns ``(ok, result row, job id)``; any non-2xx reply other than
        "pending", a failed job or a changed payload makes ``ok`` false.
        """
        status, raw = self.request("POST", "/jobs", {"kind": kind, "params": params})
        if status not in (200, 202):
            self.problems.append(f"submit {kind}: HTTP {status}")
            return False, None, ""
        record = json.loads(raw)
        job_id = record["job_id"]
        got = "hit" if record["status"] == "done" else "exec"
        if got != expect:
            self.problems.append(f"{kind} {params}: expected {expect}, got {got}")
            return False, None, job_id
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            status, raw = self.request("GET", f"/jobs/{job_id}/result")
            if status != 409:
                break
            if time.monotonic() > deadline:
                self.problems.append(f"{kind} {job_id}: no result after {JOB_TIMEOUT_S:.0f} s")
                return False, None, job_id
            time.sleep(POLL_S)
        if status != 200:
            self.problems.append(f"result {kind} {job_id}: HTTP {status}")
            return False, None, job_id
        body = json.loads(raw)
        fingerprint = body.get("fingerprint", "")
        first = self.reference.setdefault(fingerprint, raw)
        if first != raw:
            self.problems.append(f"{kind} {fingerprint}: payload changed between submissions")
            return False, body, job_id
        return True, body, job_id

    # -- phases ----------------------------------------------------------
    def warm(self) -> float:
        """Health, then execute every stored spec; returns set-up seconds."""
        self.wait_healthy()
        self.healthy_at = time.perf_counter()
        self.http_s, self.requests = 0.0, 0
        for kind, params in HIT_SPECS:
            ok, _, _ = self.submit_and_wait(kind, params, expect="exec")
            if not ok:
                raise ServiceRunError(f"warm-up {kind} job failed: {self.problems[-1:]}")
        return time.perf_counter() - self.t_spawn

    def run_plan(self, plan) -> Dict[str, Any]:
        """Submit *plan* in a closed loop; per-submission latencies."""
        hits: List[float] = []
        execs: List[float] = []
        failed = 0
        digest_rows = [_deterministic(json.loads(self.reference[fp]))
                       for fp in sorted(self.reference)]
        t0 = time.perf_counter()
        for cls, (kind, params) in plan:
            s0 = time.perf_counter()
            try:
                ok, body, _ = self.submit_and_wait(kind, params, expect=cls)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                ok, body = False, None
                self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            if ok:
                (hits if cls == "hit" else execs).append(time.perf_counter() - s0)
            failed += not ok
            if cls == "exec" and body is not None and len(digest_rows) < len(HIT_SPECS) + DIGEST_EXECS:
                digest_rows.append(_deterministic(body))
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "hits": hits, "execs": execs, "failed": failed,
                "attempted": len(plan), "digest": digest(digest_rows)}

    def queue_wait_s(self) -> float:
        """Total time executed jobs waited between submission and start."""
        status, raw = self.request("GET", "/jobs?limit=1000000")
        if status != 200:
            self.problems.append(f"job list: HTTP {status}")
            return 0.0
        total = 0.0
        for job in json.loads(raw)["jobs"]:
            if job.get("source") == "executed" and job.get("started_unix"):
                total += job["started_unix"] - job["submitted_unix"]
        return total

    def peak_rss_mb(self) -> float:
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                self.problems.append("daemon did not stop on SIGINT")
        self._reader.join(timeout=10)
        shutil.rmtree(self.workdir, ignore_errors=True)
