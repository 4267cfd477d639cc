"""Run experiments and persist their results.

:func:`run_all` executes the selected experiments (default: all, in
registry order), prints the rendered tables, and optionally writes a
JSON record per experiment — the file EXPERIMENTS.md's numbers come
from.

Three orthogonal capabilities wrap the plain drivers:

- **Parallel fan-out** (``jobs > 1``): experiment ids run across a
  process pool (:mod:`repro.harness.parallel_runner`); a single id
  instead fans out its per-row simulation configs
  (:mod:`repro.harness.simjobs`).  Results are returned in id order and
  are row-identical to a serial run.
- **Result store** (``db``): experiments and individual simulation rows
  are content-addressed (:mod:`repro.harness.fingerprint`) and kept in
  the SQLite :class:`~repro.service.repository.Repository`, so warm
  re-runs and overlapping sweeps skip already-computed work, and a
  routing service daemon on the same file answers the same experiments
  without executing.  ``db=None`` (CLI ``--no-cache``) neither reads
  nor writes a store.
- **Telemetry**: per-experiment wall/CPU time, events processed and
  events/second land in a ``BENCH_harness.json`` record next to the
  results (or at an explicit ``bench_path``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from .. import __version__
from ..errors import ExperimentError
from ..obs import telemetry as obs
from . import simjobs
from .experiments import EXPERIMENTS, ExperimentResult, quick_circuit, run_experiment
from .fingerprint import (
    circuit_fingerprint,
    code_fingerprint,
    cost_model_fingerprint,
    jsonify,
    stable_hash,
)

if TYPE_CHECKING:  # a runtime import would close a service -> harness cycle
    from ..service.repository import Repository

__all__ = [
    "run_all",
    "save_result",
    "load_result",
    "resolve_ids",
    "experiment_fingerprint",
    "experiment_cache_key",
    "write_bench_record",
    "atomic_write_text",
    "BENCH_FILENAME",
    "DEFAULT_DB",
]

PathLike = Union[str, Path]

#: Default file name of the harness telemetry record.
BENCH_FILENAME = "BENCH_harness.json"

#: Default SQLite result store of ``locusroute experiment`` and
#: ``locusroute serve``: one file, so the two share results.
DEFAULT_DB = ".locusroute_service.sqlite"


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-renamed file survives power loss.

    Best-effort: platforms/filesystems that cannot open or fsync a
    directory (e.g. Windows) keep the rename's atomicity and lose only
    the durability guarantee.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write *text* (UTF-8) to *path* atomically and durably.

    tmp file + fsync + rename + directory fsync: the rename makes the
    write atomic for concurrent readers, the file fsync makes the *data*
    durable before the name points at it, and the directory fsync makes
    the *name* durable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def save_result(result: ExperimentResult, directory: PathLike) -> Path:
    """Write one experiment result as JSON (atomically); returns the path."""
    directory = Path(directory)
    path = directory / f"{result.exp_id.lower()}.json"
    payload = {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "checks": result.checks,
        "notes": result.notes,
        "passed": result.passed,
    }
    return atomic_write_text(path, json.dumps(payload, indent=1, default=str))


def load_result(exp_id: str, directory: PathLike) -> Optional[dict]:
    """Load a previously saved result, or ``None`` if absent."""
    path = Path(directory) / f"{exp_id.lower()}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def resolve_ids(exp_ids: Optional[Iterable[str]]) -> List[str]:
    """Normalise and validate experiment ids (default: every registered id).

    Raises :class:`ExperimentError` listing the valid ids when any
    requested id is unknown — before any experiment runs.
    """
    if exp_ids is None:
        return list(EXPERIMENTS)
    ids = [str(i).upper() for i in exp_ids]
    unknown = sorted({i for i in ids if i not in EXPERIMENTS})
    if unknown:
        raise ExperimentError(
            f"unknown experiment id(s) {', '.join(unknown)}; "
            f"valid ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    return ids


# ----------------------------------------------------------------------
# experiment-level store plumbing
# ----------------------------------------------------------------------
def experiment_fingerprint(exp_id: str, quick: bool) -> Dict[str, object]:
    """Everything that determines one experiment run, as a plain dict.

    The experiment id and scale, both benchmark circuits' netlists at
    that scale, the cost-model fields, and a digest of the package source
    (the schedule fields baked into each driver are code, hence covered
    by the code digest; rows additionally hit the finer-grained sim-row
    store keyed on their exact schedule/processor fields).  The service's
    ``experiment`` jobs use this fingerprint too, so the harness and the
    daemon share stored experiments.
    """
    return {
        "unit": "experiment",
        "exp_id": exp_id.upper(),
        "quick": quick,
        "circuits": {
            which: circuit_fingerprint(quick_circuit(which, quick))
            for which in ("bnrE", "MDC")
        },
        "cost_model": cost_model_fingerprint(),
        "code": code_fingerprint(),
    }


def experiment_cache_key(exp_id: str, quick: bool) -> str:
    """Content-addressed store key of one experiment run."""
    return stable_hash(experiment_fingerprint(exp_id, quick))


def result_to_payload(result: ExperimentResult) -> dict:
    """JSON-safe stored payload of an :class:`ExperimentResult`.

    The same payload whether the harness or a service ``experiment`` job
    stored it.
    """
    return {
        "kind": "experiment",
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": jsonify(result.rows),
        "checks": jsonify(result.checks),
        "notes": result.notes,
        "extras": jsonify(result.extras),
        "passed": result.passed,
    }


def payload_to_result(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a stored payload.

    ``extras`` come back in their JSON form (tuple dict keys became
    strings); rows, checks, and notes round-trip exactly.
    """
    return ExperimentResult(
        exp_id=payload["exp_id"],
        title=payload["title"],
        columns=list(payload["columns"]),
        rows=list(payload["rows"]),
        checks=dict(payload["checks"]),
        notes=payload.get("notes", ""),
        extras=payload.get("extras", {}) or {},
    )


def run_one_cached(
    exp_id: str, quick: bool, store: Optional["Repository"]
) -> Tuple[ExperimentResult, Dict[str, object]]:
    """Run one experiment through the store; returns (result, bench record).

    The record carries the per-experiment telemetry that lands in
    ``BENCH_harness.json``: wall/CPU seconds, whether the store served
    it, and how many simulator events were actually processed (0 for a
    full hit).
    """
    tel = obs.get_telemetry()
    events0 = tel.count("sim.events")
    messages0 = tel.count("sim.mp.messages_sent")
    wall0, cpu0 = time.perf_counter(), time.process_time()

    result: Optional[ExperimentResult] = None
    if store is not None:
        key = experiment_cache_key(exp_id, quick)
        stored = store.get_result(key)
        if stored is not None:
            result = payload_to_result(stored["payload"])
        obs.incr(
            "cache.experiment.hits" if stored is not None
            else "cache.experiment.misses"
        )
    cache_hit = result is not None
    if result is None:
        result = run_experiment(exp_id, quick=quick)
        if store is not None:
            store.record_result(
                key, "experiment", {"exp_id": exp_id.upper(), "quick": quick},
                result_to_payload(result),
                wall_s=time.perf_counter() - wall0,
            )

    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    events = tel.count("sim.events") - events0
    obs.record_span("harness.experiment", wall, cpu)
    record: Dict[str, object] = {
        "exp_id": result.exp_id,
        "wall_s": round(wall, 6),
        "cpu_s": round(cpu, 6),
        "cache_hit": cache_hit,
        "passed": result.passed,
        "events_processed": int(events),
        "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
        "messages_sent": int(tel.count("sim.mp.messages_sent") - messages0),
    }
    return result, record


# ----------------------------------------------------------------------
# the bench record
# ----------------------------------------------------------------------
def _counter_delta(before: Dict[str, object], name: str) -> float:
    return obs.get_telemetry().count(name) - before.get("counters", {}).get(name, 0)


def write_bench_record(
    path: PathLike,
    records: List[Dict[str, object]],
    wall_s: float,
    quick: bool,
    jobs: int,
    telemetry_before: Dict[str, object],
) -> Path:
    """Write the ``BENCH_harness.json`` telemetry record (atomically).

    ``telemetry_before`` is a global-telemetry snapshot taken when the
    run started, so totals are this run's deltas even when several
    ``run_all`` calls share a process.
    """
    events = sum(r["events_processed"] for r in records)
    payload = {
        "schema": "bench-harness/1",
        "package_version": __version__,
        "unix_time": time.time(),
        "quick": quick,
        "jobs": jobs,
        "experiments": records,
        "totals": {
            "experiments": len(records),
            "wall_s": round(wall_s, 6),
            "events_processed": int(events),
            "events_per_s": round(events / wall_s, 1) if wall_s > 0 else 0.0,
            "messages_sent": int(sum(r["messages_sent"] for r in records)),
            "cache": {
                name: int(_counter_delta(telemetry_before, f"cache.{name}"))
                for name in (
                    "experiment.hits",
                    "experiment.misses",
                    "sim.hits",
                    "sim.misses",
                )
            },
            "verify": {
                "checks": int(_counter_delta(telemetry_before, "verify.checks")),
                "violations": int(
                    _counter_delta(telemetry_before, "verify.violations")
                ),
            },
        },
    }
    return atomic_write_text(path, json.dumps(jsonify(payload), indent=1))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_all(
    exp_ids: Optional[Iterable[str]] = None,
    quick: bool = False,
    out_dir: Optional[PathLike] = None,
    echo: bool = True,
    jobs: int = 1,
    db: Optional[PathLike] = None,
    timeout_s: Optional[float] = None,
    bench_path: Optional[PathLike] = None,
) -> List[ExperimentResult]:
    """Run the selected experiments (default: all), in registry order.

    Parameters
    ----------
    exp_ids, quick, out_dir, echo:
        As before: which experiments, at which scale, where to save JSON
        results, and whether to print tables.
    jobs:
        Process-pool width.  ``1`` (default) runs serially in-process;
        ``N > 1`` fans experiment ids out across ``N`` workers — or, for
        a single id, fans out its per-row simulation configs instead.
    db:
        SQLite result store file (:class:`repro.service.repository.Repository`)
        that experiments and sim rows are read from and written to.
        ``None`` (default) neither reads nor writes a store.
    timeout_s:
        Per-task timeout for pool execution (see
        :func:`repro.harness.pool.pool_map` for the exact semantics).
    bench_path:
        Where to write the ``BENCH_harness.json`` telemetry record.
        Defaults to ``out_dir/BENCH_harness.json`` when ``out_dir`` is
        given; with neither, no record is written.
    """
    ids = resolve_ids(exp_ids)
    store = None
    if db is not None:
        from ..service.repository import Repository

        store = Repository(db)
    telemetry_before = obs.snapshot()
    wall0 = time.perf_counter()

    try:
        if jobs > 1:
            from .parallel_runner import run_parallel

            results, records = run_parallel(
                ids, quick=quick, jobs=jobs, store=store, timeout_s=timeout_s
            )
            if echo:
                for result, record in zip(results, records):
                    print(result.render())
                    print(f"({record['wall_s']:.1f}s wall)\n")
        else:
            simjobs.configure(reset=True, store=store, timeout_s=timeout_s)
            results, records = [], []
            try:
                for exp_id in ids:
                    result, record = run_one_cached(exp_id, quick, store)
                    results.append(result)
                    records.append(record)
                    if echo:
                        print(result.render())
                        print(f"({record['wall_s']:.1f}s wall)\n")
            finally:
                simjobs.configure(reset=True)
    finally:
        if store is not None:
            store.close()

    wall = time.perf_counter() - wall0
    if out_dir is not None:
        for result in results:
            save_result(result, out_dir)
    if bench_path is None and out_dir is not None:
        bench_path = Path(out_dir) / BENCH_FILENAME
    if bench_path is not None:
        write_bench_record(
            bench_path, records, wall, quick=quick, jobs=jobs,
            telemetry_before=telemetry_before,
        )

    if echo:
        failed = [r.exp_id for r in results if not r.passed]
        print(
            f"{len(results)} experiments, "
            f"{sum(r.passed for r in results)} fully passing shape checks"
            + (f"; check failures in: {failed}" if failed else "")
        )
    return results
