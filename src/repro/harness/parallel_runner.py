"""Process-pool fan-out over experiment ids.

:func:`run_parallel` is the ``jobs > 1`` engine behind
:func:`repro.harness.runner.run_all`:

- **Many ids** → each experiment id becomes one pool task
  (:func:`repro.harness.pool.pool_map` supplies deterministic result
  ordering, a per-task timeout, and retry-once).  Workers execute the
  same cached path as the serial runner
  (:func:`repro.harness.runner.run_one_cached`), so parallel and serial
  runs produce row-identical results and share one store.
- **One id** → fanning out a single task would buy nothing, so the
  experiment runs in-process with its *per-row simulation configs*
  fanned out instead (:mod:`repro.harness.simjobs`); sweep tables like
  T1 (12 independent rows) parallelise this way.

Worker telemetry (events processed, store hits, span timers) comes back
with each task and is merged into the parent's global telemetry, so
``BENCH_harness.json`` sees the whole picture regardless of where the
work ran.  Workers never nest pools: a pool worker runs its experiment's
sim rows serially.
"""

from __future__ import annotations

import os
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import telemetry as obs
from . import simjobs
from .experiments import ExperimentResult
from .pool import pool_map
from .runner import run_one_cached

if TYPE_CHECKING:  # a runtime import would close a service -> harness cycle
    from ..service.repository import Repository

__all__ = ["run_parallel"]

_WorkerOut = Tuple[ExperimentResult, Dict[str, object], Dict[str, object]]


def _run_experiment_task(
    exp_id: str,
    quick: bool,
    db: Optional[str],
    parent_pid: int,
) -> _WorkerOut:
    """Pool-worker body: one experiment id, returning its telemetry.

    In a pool worker the global telemetry is reset first (fork-started
    workers inherit the parent's counters, which the parent already
    owns), so the returned snapshot is exactly this task's delta.  When
    :func:`repro.harness.pool.pool_map` retries a failed task serially
    *in the parent* (detected via ``parent_pid``), the telemetry already
    lands in the parent's live global, so an empty snapshot is returned
    instead of a double-counting copy.

    Each task opens its own :class:`~repro.service.repository.Repository`
    on the shared file (a SQLite connection must never cross a fork);
    rows are content-addressed and written with ``INSERT OR REPLACE``,
    so concurrent writers are safe (last writer wins with identical rows).
    """
    in_worker = os.getpid() != parent_pid
    if in_worker:
        obs.reset()
    store = None
    if db is not None:
        from ..service.repository import Repository

        store = Repository(db)
    simjobs.configure(reset=True, store=store)
    try:
        result, record = run_one_cached(exp_id, quick, store)
    finally:
        simjobs.configure(reset=True)
        if store is not None:
            store.close()
    return result, record, obs.snapshot() if in_worker else {}


def run_parallel(
    exp_ids: List[str],
    quick: bool = False,
    jobs: int = 2,
    store: Optional["Repository"] = None,
    timeout_s: Optional[float] = None,
) -> Tuple[List[ExperimentResult], List[Dict[str, object]]]:
    """Run *exp_ids* with ``jobs`` workers; results in id order.

    Returns ``(results, records)`` — the experiment results plus the
    per-experiment bench records (wall time, events/sec, store hits)
    that :func:`repro.harness.runner.write_bench_record` consumes.
    """
    if len(exp_ids) <= 1:
        # One experiment: parallelise its sim rows instead of the id.
        simjobs.configure(
            reset=True, jobs=jobs, store=store, timeout_s=timeout_s
        )
        try:
            pairs = [run_one_cached(exp_id, quick, store) for exp_id in exp_ids]
        finally:
            simjobs.configure(reset=True)
        results = [result for result, _ in pairs]
        records = [record for _, record in pairs]
        return results, records

    worker = partial(
        _run_experiment_task,
        quick=quick,
        db=store.path if store is not None else None,
        parent_pid=os.getpid(),
    )
    outs: List[_WorkerOut] = pool_map(
        worker, exp_ids, jobs=jobs, timeout_s=timeout_s, label="experiment"
    )
    tel = obs.get_telemetry()
    results, records = [], []
    for result, record, tel_snapshot in outs:
        tel.merge(tel_snapshot)
        results.append(result)
        records.append(record)
    return results, records
