"""The routing service daemon: a job queue over the salvage pool.

``locusroute serve`` turns the batch CLI into a long-running service:
clients submit routing/simulation/experiment jobs over a tiny JSON/HTTP
API (stdlib :class:`ThreadingHTTPServer`, no new dependencies), the
daemon deduplicates identical work, executes on the existing
:func:`~repro.harness.pool.pool_map_salvage` process pool, and persists
every run into the SQLite repository.

Dedup semantics (docs/SERVICE.md)
---------------------------------
Every submission gets its own job row (audit trail), but identical work
executes once:

- a fingerprint already **done** in the repository — executed by this
  daemon, another daemon, or stored by ``locusroute experiment --db`` —
  is answered immediately: job row with status ``done``, zero executions;
- a fingerprint already **queued or running** gains a follower job
  (``dedup_of`` = the primary's id) that completes when the shared
  execution does — counted in ``service.jobs.dedup_hits``;
- ``force=True`` skips the completed-result lookup (recompute) but still
  coalesces with an in-flight execution of the same fingerprint: the
  recompute the caller asked for is already happening.

Execution model
---------------
One dispatcher thread drains the queue in batches and hands each batch
to :func:`pool_map_salvage` (``jobs`` workers), so a crashed worker is
respawned and a twice-failed job becomes a *failed row*, never a dead
daemon.  SQLite writes happen only on daemon threads — pool workers
return payloads; the dispatcher persists them.

Telemetry: ``service.jobs.submitted / dedup_hits / repo_hits /
executed / failed``, ``service.queue.enqueued /
drained``, and a ``service.job`` span per execution (job latency).
"""

from __future__ import annotations

import json
import queue
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from ..errors import ReproError, ServiceError
from ..harness.fingerprint import jsonify
from ..harness.pool import pool_map_salvage
from ..harness.runner import DEFAULT_DB
from ..obs import telemetry as obs
from .jobs import JobSpec, execute_job_in_worker, job_key
from .repository import Repository

__all__ = ["RoutingService", "ServiceServer", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 8642
#: Largest request body the daemon reads; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20
#: Per-request socket timeout: a client that stalls mid-request is dropped
#: instead of holding a handler thread forever.
REQUEST_TIMEOUT_S = 30.0


class RoutingService:
    """Job queue + dedup + pool execution + repository persistence.

    Parameters
    ----------
    repository:
        The result store (shared with the HTTP layer, reports and
        ``locusroute experiment --db``).
    jobs:
        Salvage-pool width per batch (``1`` executes in-process, which
        tests use for speed and determinism).
    timeout_s:
        Per-job pool timeout (retried once, then the job fails).
    poll_s:
        Dispatcher queue poll interval.
    paused:
        Start with the dispatcher stopped; :meth:`start` launches it.
        Tests use this to pile up submissions deterministically.
    """

    def __init__(
        self,
        repository: Repository,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        poll_s: float = 0.05,
        paused: bool = False,
    ) -> None:
        self.repository = repository
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._queue: "queue.Queue[Tuple[str, JobSpec, str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._inflight: Dict[str, str] = {}  # fingerprint -> primary job id
        self._followers: Dict[str, List[str]] = {}  # fingerprint -> follower ids
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread: Optional[threading.Thread] = None
        if not paused:
            self.start()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Launch the dispatcher thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="locusroute-dispatcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the dispatcher (current batch finishes first)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Block until the queue is empty and no batch is executing."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._queue.empty() and self._idle.is_set() and not self._inflight:
                return True
            time.sleep(0.01)
        return False

    # -- submission ----------------------------------------------------
    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        force: bool = False,
    ) -> Dict[str, Any]:
        """Submit one job; returns its submission record.

        The record always carries ``job_id``, ``fingerprint``, ``kind``
        and ``status``; deduplicated submissions add ``dedup_of``.
        """
        spec = JobSpec.from_params(kind, params)
        fingerprint = job_key(spec)
        job_id = uuid.uuid4().hex[:12]
        obs.incr("service.jobs.submitted")

        if not force:
            stored = self.repository.get_result(fingerprint)
            if stored is not None:
                obs.incr("service.jobs.repo_hits")
                self.repository.add_job(
                    job_id, fingerprint, spec.kind, spec.params,
                    status="done", source="repository",
                )
                return self._submission(job_id, fingerprint, spec, "done")

        with self._lock:
            primary = self._inflight.get(fingerprint)
            if primary is not None:
                obs.incr("service.jobs.dedup_hits")
                self._followers.setdefault(fingerprint, []).append(job_id)
                self.repository.add_job(
                    job_id, fingerprint, spec.kind, spec.params,
                    status="queued", source="dedup", dedup_of=primary,
                )
                return self._submission(
                    job_id, fingerprint, spec, "queued", dedup_of=primary
                )
            self._inflight[fingerprint] = job_id
        self.repository.add_job(
            job_id, fingerprint, spec.kind, spec.params, status="queued"
        )
        self._queue.put((job_id, spec, fingerprint))
        obs.incr("service.queue.enqueued")
        return self._submission(job_id, fingerprint, spec, "queued")

    @staticmethod
    def _submission(
        job_id: str,
        fingerprint: str,
        spec: JobSpec,
        status: str,
        dedup_of: Optional[str] = None,
    ) -> Dict[str, Any]:
        record = {
            "job_id": job_id,
            "fingerprint": fingerprint,
            "kind": spec.kind,
            "status": status,
        }
        if dedup_of is not None:
            record["dedup_of"] = dedup_of
        return record

    # -- queries -------------------------------------------------------
    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self.repository.get_job(job_id)

    def result(self, job_id: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """(result row or None, state) for a job id.

        States: ``unknown``, ``pending``, ``failed``, ``done``.
        """
        job = self.repository.get_job(job_id)
        if job is None:
            return None, "unknown"
        if job["status"] == "failed":
            return None, "failed"
        if job["status"] != "done":
            return None, "pending"
        stored = self.repository.get_result(job["fingerprint"])
        if stored is None:  # done job whose row was lost to corruption
            return None, "failed"
        return stored, "done"

    def stats(self) -> Dict[str, Any]:
        """Queue depth, in-flight map size, counters, repository counts."""
        counters = {
            name: value
            for name, value in dict(obs.get_telemetry().counters).items()
            if name.startswith("service.")
        }
        with self._lock:
            inflight = len(self._inflight)
        return {
            "queue_depth": self._queue.qsize(),
            "inflight": inflight,
            "pool_jobs": self.jobs,
            "counters": counters,
            "repository": {
                "path": self.repository.path,
                "jobs": self.repository.counts(),
            },
        }

    # -- dispatcher ----------------------------------------------------
    def _take_batch(self) -> List[Tuple[str, JobSpec, str]]:
        """Block briefly for the first job, then drain what's queued."""
        try:
            first = self._queue.get(timeout=self.poll_s)
        except queue.Empty:
            return []
        batch = [first]
        while True:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                return batch

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            batch = self._take_batch()
            if not batch:
                continue
            self._idle.clear()
            try:
                self._run_batch(batch)
            finally:
                self._idle.set()

    def _run_batch(self, batch: List[Tuple[str, JobSpec, str]]) -> None:
        obs.incr("service.queue.drained", len(batch))
        for job_id, _spec, fingerprint in batch:
            self.repository.set_status(job_id, "running")
            for follower in self._followers_of(fingerprint):
                self.repository.set_status(follower, "running")
        report = pool_map_salvage(
            execute_job_in_worker,
            [spec for _jid, spec, _fp in batch],
            jobs=self.jobs,
            timeout_s=self.timeout_s,
            label="service job",
        )
        failures = {f.index: f for f in report.failures}
        for i, (job_id, spec, fingerprint) in enumerate(batch):
            outcome = report.results[i]
            if outcome is None:
                error = failures[i].describe("job") if i in failures else "lost"
                obs.incr("service.jobs.failed")
                self._finish(job_id, fingerprint, "failed", error=error)
                continue
            payload, telemetry, wall = outcome
            obs.get_telemetry().merge(telemetry)
            obs.incr("service.jobs.executed")
            obs.record_span("service.job", wall, 0.0)
            self.repository.record_result(
                fingerprint, spec.kind, spec.params,
                jsonify(payload), telemetry=jsonify(telemetry), wall_s=wall,
            )
            self._finish(job_id, fingerprint, "done")

    def _followers_of(self, fingerprint: str) -> List[str]:
        with self._lock:
            return list(self._followers.get(fingerprint, ()))

    def _finish(
        self, job_id: str, fingerprint: str, status: str, error: Optional[str] = None
    ) -> None:
        self.repository.set_status(job_id, status, error=error)
        with self._lock:
            followers = self._followers.pop(fingerprint, [])
            self._inflight.pop(fingerprint, None)
        for follower in followers:
            self.repository.set_status(follower, status, error=error)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """JSON/HTTP facade over :class:`RoutingService`.

    ========  =======================  =======================================
    method    path                     meaning
    ========  =======================  =======================================
    GET       /health                  liveness probe
    GET       /stats                   queue depth, counters, repository counts
    GET       /jobs                    submission history (?status=, ?limit=)
    GET       /jobs/<id>               one job's status record
    GET       /jobs/<id>/result        payload (409 while pending, 500 failed)
    POST      /jobs                    submit {"kind": ..., "params": {...}}
    ========  =======================  =======================================
    """

    server_version = "locusroute-service/1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the daemon's stdout belongs to the operator, not access logs

    @property
    def service(self) -> RoutingService:
        return self.server.service  # type: ignore[attr-defined]

    def _send(self, code: int, payload: Dict[str, Any], close: bool = False) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # The unread body would otherwise be parsed as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a bad length has been answered."""
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": f"bad Content-Length {raw!r}"}, close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._send(
                413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}, close=True
            )
            return None
        return self.rfile.read(length)

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["health"]:
            self._send(200, {"ok": True})
        elif parts == ["stats"]:
            self._send(200, self.service.stats())
        elif parts == ["jobs"]:
            params = dict(
                pair.split("=", 1) for pair in parsed.query.split("&") if "=" in pair
            )
            try:
                limit = int(params.get("limit", 200))
                if limit < 0:  # SQLite reads a negative LIMIT as "no limit"
                    raise ValueError
            except ValueError:
                self._send(400, {"error": f"bad limit {params['limit']!r}"})
                return
            status = params.get("status")
            self._send(200, {"jobs": self.service.repository.jobs(status, limit)})
        elif len(parts) == 2 and parts[0] == "jobs":
            record = self.service.status(parts[1])
            if record is None:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
            else:
                self._send(200, record)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            stored, state = self.service.result(parts[1])
            if state == "unknown":
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
            elif state == "pending":
                self._send(409, {"status": "pending"})
            elif state == "failed":
                job = self.service.status(parts[1]) or {}
                self._send(500, {"error": job.get("error") or "job failed"})
            else:
                self._send(200, {"status": "done", **stored})
        else:
            self._send(404, {"error": f"no such endpoint {parsed.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != "/jobs":
            self._send(404, {"error": f"no such endpoint {parsed.path!r}"})
            return
        raw = self._read_body()
        if raw is None:
            return
        try:
            body = json.loads(raw or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as exc:
            self._send(400, {"error": f"bad request body: {exc}"})
            return
        try:
            record = self.service.submit(
                str(body.get("kind", "")),
                body.get("params") or {},
                force=bool(body.get("force", False)),
            )
        except ReproError as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(200 if record["status"] == "done" else 202, record)


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service instance for handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: RoutingService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    db: str = DEFAULT_DB,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    paused: bool = False,
) -> ServiceServer:
    """Build a ready-to-run server (pass ``port=0`` for an OS-picked port).

    The caller owns the loop: ``server.serve_forever()`` to run,
    ``server.shutdown()`` + ``server.service.stop()`` +
    ``server.service.repository.close()`` to tear down.
    """
    service = RoutingService(
        Repository(db), jobs=jobs, timeout_s=timeout_s, paused=paused
    )
    return ServiceServer((host, port), service)
