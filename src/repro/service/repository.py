"""SQLite-backed result repository: the package's one result store.

Every stored result lives here (``schema.sql``): service jobs and
harness experiments in ``results`` (content-addressed JSON,
``fingerprint -> payload``), pickled simulation rows of the harness
sweeps in ``sim_rows``, and the daemon's submission history in
``jobs``.  The daemon, ``locusroute experiment --db``, ``report.py``
and ad-hoc ``sqlite3`` sessions all read the same file, so an
experiment one of them stored is a hit for the others, and the store
can be queried: every submission ever made, which ones shared an
execution, how long each kind takes, what failed and why.

Concurrency, durability and corruption policy
---------------------------------------------
One :class:`Repository` serialises its own statements behind a lock and
opens SQLite in WAL mode with a busy timeout, so the daemon's HTTP
threads and dispatcher thread share one instance safely, and *separate
processes* (a daemon plus a CLI sweep, or the harness's pool workers,
each with its own :class:`Repository` — a connection is never used
across a fork) contend through SQLite's own file locking.  Writes are
idempotent ``INSERT OR REPLACE`` keyed by fingerprint — two processes
racing to record the same configuration both succeed and agree.  With
``synchronous=NORMAL`` a power loss can drop the last commits but never
leaves the file inconsistent; a lost row is simply recomputed.

A corrupted or truncated database degrades to a miss, never an error:
if the file cannot even be opened as a database it is moved aside to
``<name>.corrupt.<n>`` and recreated empty (counted in
``service.repository.recovered``).  A file another process holds locked
is not corrupt: opening it waits up to the busy timeout, then raises
:class:`~repro.errors.ServiceError`.  A row that fails to decode mid-read —
undecodable JSON, a truncated or garbage pickle — is treated as absent
(``service.repository.corrupt_rows``), and so is a row with a stale
``schema_version``.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import ServiceError
from ..obs import telemetry as obs

__all__ = ["Repository", "REPOSITORY_SCHEMA"]

PathLike = Union[str, Path]

#: Bump to invalidate persisted payloads (both result tables) on a
#: format change.
REPOSITORY_SCHEMA = 1

#: What unpickling a truncated or garbage ``sim_rows`` blob can raise.
_UNPICKLE_ERRORS = (
    ValueError, EOFError, pickle.UnpicklingError, AttributeError,
    ImportError, IndexError, TypeError, KeyError,
)

_SCHEMA_PATH = Path(__file__).with_name("schema.sql")


def _schema_sql() -> str:
    return _SCHEMA_PATH.read_text()


class Repository:
    """The persistent job/result store over one SQLite file.

    Parameters
    ----------
    path:
        Database file (created on first use), or ``":memory:"`` for an
        ephemeral store (tests).
    timeout_s:
        SQLite busy timeout for cross-process lock contention.
    """

    def __init__(self, path: PathLike = ":memory:", timeout_s: float = 30.0) -> None:
        self.path = str(path)
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._conn = self._open()

    # -- connection / recovery -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=self._timeout_s, check_same_thread=False
        )
        try:
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_schema_sql())
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _open(self) -> sqlite3.Connection:
        deadline = time.monotonic() + self._timeout_s
        while True:
            try:
                return self._connect()
            except sqlite3.DatabaseError as exc:
                if self.path == ":memory:":
                    raise
                if "locked" not in str(exc):
                    break
                # Another process is creating or opening the same file.
                # That is contention, not corruption: moving the file
                # aside would orphan the other process's writes.
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"result store {self.path} stayed locked for "
                        f"{self._timeout_s:g} s: {exc}"
                    ) from exc
                time.sleep(0.01)
        # Corrupt/truncated file: move it aside and start fresh — the
        # canonical store must degrade to a miss, not a crash loop.
        target = Path(self.path)
        for n in range(1000):
            aside = target.with_name(f"{target.name}.corrupt.{n}")
            if not aside.exists():
                target.replace(aside)
                break
        obs.incr("service.repository.recovered")
        return self._connect()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- jobs ----------------------------------------------------------
    def add_job(
        self,
        job_id: str,
        fingerprint: str,
        kind: str,
        config: Dict[str, Any],
        status: str = "queued",
        source: str = "executed",
        dedup_of: Optional[str] = None,
    ) -> None:
        """Persist one submission (deduplicated ones included)."""
        now = time.time()
        finished = now if status in ("done", "failed") else None
        with self._lock:
            self._conn.execute(
                "INSERT INTO jobs (job_id, fingerprint, kind, config, status,"
                " source, dedup_of, submitted_unix, finished_unix)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    fingerprint,
                    kind,
                    json.dumps(config, sort_keys=True),
                    status,
                    source,
                    dedup_of,
                    now,
                    finished,
                ),
            )
            self._conn.commit()

    def set_status(
        self,
        job_id: str,
        status: str,
        error: Optional[str] = None,
    ) -> None:
        """Advance a job through queued -> running -> done/failed."""
        now = time.time()
        started = now if status == "running" else None
        finished = now if status in ("done", "failed") else None
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET status = ?,"
                " error = COALESCE(?, error),"
                " started_unix = COALESCE(started_unix, ?),"
                " finished_unix = COALESCE(?, finished_unix)"
                " WHERE job_id = ?",
                (status, error, started, finished, job_id),
            )
            self._conn.commit()

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One submission row as a plain dict (config decoded), or None."""
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return None
        return self._job_dict(row) if row is not None else None

    def jobs(
        self, status: Optional[str] = None, limit: int = 200
    ) -> List[Dict[str, Any]]:
        """Submission history, newest first (optionally one status)."""
        query = "SELECT * FROM jobs"
        params: List[Any] = []
        if status is not None:
            query += " WHERE status = ?"
            params.append(status)
        query += " ORDER BY submitted_unix DESC, job_id DESC LIMIT ?"
        params.append(limit)
        try:
            with self._lock:
                rows = self._conn.execute(query, params).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return []
        return [self._job_dict(r) for r in rows]

    def counts(self) -> Dict[str, int]:
        """Job counts by status (the queue-depth view of the history)."""
        try:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
                ).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return {}
        return {r["status"]: r["n"] for r in rows}

    @staticmethod
    def _job_dict(row: sqlite3.Row) -> Dict[str, Any]:
        record = dict(row)
        try:
            record["config"] = json.loads(record["config"])
        except (TypeError, ValueError):
            record["config"] = {}
        return record

    # -- results -------------------------------------------------------
    def record_result(
        self,
        fingerprint: str,
        kind: str,
        config: Dict[str, Any],
        payload: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        """Persist one execution's payload (idempotent per fingerprint)."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (fingerprint, kind, config,"
                " payload, telemetry, schema_version, wall_s, created_unix)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    kind,
                    json.dumps(config, sort_keys=True),
                    json.dumps(payload),  # key order kept: checks render in it
                    json.dumps(telemetry or {}, sort_keys=True),
                    REPOSITORY_SCHEMA,
                    wall_s,
                    time.time(),
                ),
            )
            self._conn.commit()

    def get_result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored result row for a fingerprint, or ``None`` on miss.

        Wrong-schema and undecodable rows are misses (and counted).
        """
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT * FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            obs.incr("service.repository.misses")
            return None
        if row is None:
            obs.incr("service.repository.misses")
            return None
        if row["schema_version"] != REPOSITORY_SCHEMA:
            obs.incr("service.repository.misses")
            return None
        try:
            record = {
                "fingerprint": row["fingerprint"],
                "kind": row["kind"],
                "config": json.loads(row["config"]),
                "payload": json.loads(row["payload"]),
                "telemetry": json.loads(row["telemetry"]),
                "wall_s": row["wall_s"],
                "created_unix": row["created_unix"],
            }
        except (TypeError, ValueError):
            obs.incr("service.repository.corrupt_rows")
            obs.incr("service.repository.misses")
            return None
        obs.incr("service.repository.hits")
        return record

    def history(
        self, kind: Optional[str] = None, limit: int = 100
    ) -> List[Dict[str, Any]]:
        """Stored results, newest first, payloads omitted (summary view)."""
        query = (
            "SELECT fingerprint, kind, config, wall_s, created_unix"
            " FROM results"
        )
        params: List[Any] = []
        if kind is not None:
            query += " WHERE kind = ?"
            params.append(kind)
        query += " ORDER BY created_unix DESC LIMIT ?"
        params.append(limit)
        try:
            with self._lock:
                rows = self._conn.execute(query, params).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return []
        out = []
        for row in rows:
            record = dict(row)
            try:
                record["config"] = json.loads(record["config"])
            except (TypeError, ValueError):
                record["config"] = {}
            out.append(record)
        return out

    # -- simulation rows -----------------------------------------------
    def put_sim(self, key: str, obj: object) -> None:
        """Persist one pickled simulation result (idempotent per key)."""
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO sim_rows (key, schema_version, result,"
                " created_unix) VALUES (?, ?, ?, ?)",
                (key, REPOSITORY_SCHEMA, blob, time.time()),
            )
            self._conn.commit()

    def get_sim(self, key: str) -> Optional[object]:
        """The stored simulation result for *key*, or ``None`` on miss.

        A wrong-schema, truncated or garbage blob is a miss (and counted).
        """
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT schema_version, result FROM sim_rows WHERE key = ?",
                    (key,),
                ).fetchone()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return None
        if row is None or row["schema_version"] != REPOSITORY_SCHEMA:
            return None
        try:
            return pickle.loads(row["result"])
        except _UNPICKLE_ERRORS:
            obs.incr("service.repository.corrupt_rows")
            return None
