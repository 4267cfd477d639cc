"""Deterministic process-pool mapping with per-task timeout and retry.

Both fan-out levels of the parallel harness — experiment ids in
:mod:`repro.harness.parallel_runner`, and per-row simulation configs in
:mod:`repro.harness.simjobs` — need the same primitive: map a picklable
function over independent items on a ``ProcessPoolExecutor`` and get the
results back *in item order* regardless of completion order, with a
per-task timeout and one retry for robustness.

Failure policy
--------------
A task that raises in its worker, or exceeds ``timeout_s``, is retried
**once, serially, in the parent process** after the pool pass finishes.
Serial retry sidesteps a potentially broken/saturated pool and makes the
second attempt easy to debug (the traceback is the real one, not a
pickled copy).  A task that fails twice raises :class:`ExperimentError`
carrying the original failure.

A pool whose worker *process* dies (OOM kill, segfault, a fault-injected
crash experiment taking out its host) surfaces as
``BrokenProcessPool``.  That poisons every outstanding future, so the
pool pass respawns the executor — up to :data:`MAX_POOL_RESPAWNS` times,
with exponential backoff — and resubmits only the uncollected items.
If the respawn budget runs out, the survivors' results are kept and the
stragglers fall through to the serial retry like any other failure.

:func:`pool_map_salvage` is the non-raising variant: instead of raising
on the first twice-failed task it returns a :class:`PoolReport` with
``None`` holes for the casualties and a structured
:class:`PoolFailure` record per loss, so sweep callers can salvage the
partial results (a 47/48-cell sweep is still a sweep).

Timeout semantics: ``timeout_s`` bounds how long the parent waits for
each task *from the moment it starts waiting on it* (tasks are awaited
in submission order, so time spent waiting on earlier tasks also counts
towards later ones — a late task only trips the timeout if it is still
unfinished ``timeout_s`` after all earlier tasks were collected).  A
timed-out worker cannot be interrupted mid-task; the pool is shut down
without waiting and the orphaned worker exits when its simulation
completes (every simulation terminates — the event kernel has a
``max_steps`` guard).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import ExperimentError

__all__ = [
    "MAX_POOL_RESPAWNS",
    "RESPAWN_BACKOFF_S",
    "START_METHOD_ENV",
    "PoolFailure",
    "PoolReport",
    "mp_context",
    "pool_map",
    "pool_map_salvage",
    "default_jobs",
]

T = TypeVar("T")
R = TypeVar("R")

#: How many times a broken pool is rebuilt before giving up on it.
MAX_POOL_RESPAWNS = 2
#: Backoff before the first respawn; doubles on each subsequent one.
RESPAWN_BACKOFF_S = 0.25
#: Environment override for the multiprocessing start method used by every
#: process fan-out in the repo (the experiment pools and the live
#: routers): ``fork`` / ``spawn`` / ``forkserver``.  Unset or empty keeps
#: the platform default.  CI runs the suite under ``spawn`` through this.
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def mp_context(method: Optional[str] = None):
    """The multiprocessing context the repo's process fan-out uses.

    *method* overrides explicitly; otherwise :data:`START_METHOD_ENV` is
    consulted, falling back to the platform default.  Validates against
    the platform's available start methods so a typo fails loudly instead
    of silently using the default.
    """
    if method is None:
        method = os.environ.get(START_METHOD_ENV, "").strip() or None
    if method is not None and method not in multiprocessing.get_all_start_methods():
        raise ExperimentError(
            f"start method {method!r} not available on this platform "
            f"(have: {multiprocessing.get_all_start_methods()})"
        )
    return multiprocessing.get_context(method)


def _pool_worker_init() -> None:
    """Pool-worker initializer: start every worker with clean telemetry.

    Under ``fork`` workers inherit the parent's counters; resetting them
    keeps worker snapshots identical across start methods.
    """
    from ..obs import telemetry

    telemetry.reset()


def default_jobs() -> int:
    """A sensible ``--jobs auto`` value: the machine's CPU count."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PoolFailure:
    """One task that failed both its pool pass and its serial retry."""

    index: int  #: position in the input sequence
    item: Any  #: the input item itself
    stage: str  #: where the first failure happened: worker/timeout/pool-broken/serial
    attempts: int  #: total execution attempts made
    error: str  #: repr of the final (serial-retry) exception

    def describe(self, label: str = "task") -> str:
        return (
            f"{label} {self.index} ({self.item!r}) failed "
            f"{self.attempts} times (first: {self.stage}): {self.error}"
        )


@dataclass
class PoolReport:
    """Outcome of :func:`pool_map_salvage`: partial results plus losses."""

    results: List[Optional[Any]]  #: item-order results, ``None`` per failure
    failures: List[PoolFailure] = field(default_factory=list)
    respawns: int = 0  #: broken-pool rebuilds performed

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """Structured failure report for logs / run metadata."""
        return {
            "tasks": len(self.results),
            "salvaged": sum(1 for r in self.results if r is not None),
            "failed": len(self.failures),
            "respawns": self.respawns,
            "failures": [
                {
                    "index": f.index,
                    "item": repr(f.item),
                    "stage": f.stage,
                    "attempts": f.attempts,
                    "error": f.error,
                }
                for f in self.failures
            ],
        }


def _run_with_retry(fn: Callable[[T], R], item: T, label: str, index: int) -> R:
    """Serial execution with the same retry-once contract as the pool."""
    try:
        return fn(item)
    except ExperimentError:
        raise
    except Exception:
        try:
            return fn(item)
        except Exception as exc:
            raise ExperimentError(
                f"{label} {index} ({item!r}) failed twice: {exc}"
            ) from exc


def _failure_stage(exc: BaseException) -> str:
    if isinstance(exc, FutureTimeoutError):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "pool-broken"
    return "worker"


def _pool_pass(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int,
    timeout_s: Optional[float],
) -> Tuple[Dict[int, R], List[Tuple[int, BaseException]], int]:
    """One pool stage over all items, respawning on ``BrokenProcessPool``.

    Returns ``(results, failures, respawns)`` where *failures* pairs each
    uncollected index with the exception that sank its first attempt.
    The caller decides what a failure means (retry-or-raise for
    :func:`pool_map`, record-and-salvage for :func:`pool_map_salvage`).
    """
    pending = list(range(len(items)))
    results: Dict[int, R] = {}
    failures: List[Tuple[int, BaseException]] = []
    respawns = 0
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            mp_context=mp_context(),
            initializer=_pool_worker_init,
        )
        broken: Optional[BaseException] = None
        resubmit: List[int] = []
        try:
            futures = [(i, executor.submit(fn, items[i])) for i in pending]
        except BrokenProcessPool as exc:
            broken = exc
            futures = []
            resubmit = list(pending)
        for i, future in futures:
            if broken is not None:
                # The pool died mid-collection; every outstanding future
                # is poisoned, so resubmit rather than fail the items.
                resubmit.append(i)
                continue
            try:
                results[i] = future.result(timeout=timeout_s)
            except FutureTimeoutError as exc:
                future.cancel()
                failures.append((i, exc))
            except BrokenProcessPool as exc:
                broken = exc
                resubmit.append(i)
            except Exception as exc:
                failures.append((i, exc))
        # Don't block on a timed-out or dead worker; pending tasks were
        # collected, recorded as failures, or queued for resubmission.
        executor.shutdown(wait=broken is None and not failures, cancel_futures=True)
        if broken is None:
            break
        respawns += 1
        if respawns > MAX_POOL_RESPAWNS:
            failures.extend((i, broken) for i in resubmit)
            break
        time.sleep(RESPAWN_BACKOFF_S * 2 ** (respawns - 1))
        pending = resubmit
    return results, failures, respawns


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    label: str = "task",
) -> List[R]:
    """Map *fn* over *items*, results in item order (see module docstring).

    ``jobs <= 1`` (or a single item) runs serially in-process, still with
    the retry-once contract, so callers need exactly one code path.
    """
    items = list(items)
    if not items:
        return []
    if jobs <= 1 or len(items) == 1:
        return [
            _run_with_retry(fn, item, label, i) for i, item in enumerate(items)
        ]

    results, failures, _respawns = _pool_pass(fn, items, jobs, timeout_s)
    for i, _first_exc in failures:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            raise ExperimentError(
                f"{label} {i} ({items[i]!r}) failed twice "
                f"(once in a worker, once on serial retry): {exc}"
            ) from exc
    return [results[i] for i in range(len(items))]


def pool_map_salvage(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    label: str = "task",
) -> PoolReport:
    """Like :func:`pool_map`, but a twice-failed task never raises.

    Each casualty leaves a ``None`` hole in ``report.results`` and a
    :class:`PoolFailure` record; everything that did complete is kept.
    ``label`` only flavours failure descriptions.
    """
    items = list(items)
    if not items:
        return PoolReport(results=[])
    collected: Dict[int, R] = {}
    losses: List[PoolFailure] = []
    respawns = 0
    if jobs <= 1 or len(items) == 1:
        for i, item in enumerate(items):
            try:
                collected[i] = _run_with_retry(fn, item, label, i)
            except Exception as exc:
                losses.append(
                    PoolFailure(
                        index=i, item=item, stage="serial",
                        attempts=2, error=repr(exc),
                    )
                )
    else:
        collected, pool_failures, respawns = _pool_pass(
            fn, items, jobs, timeout_s
        )
        for i, first_exc in pool_failures:
            try:
                collected[i] = fn(items[i])
            except Exception as exc:
                losses.append(
                    PoolFailure(
                        index=i,
                        item=items[i],
                        stage=_failure_stage(first_exc),
                        attempts=2,
                        error=repr(exc),
                    )
                )
    losses.sort(key=lambda f: f.index)
    return PoolReport(
        results=[collected.get(i) for i in range(len(items))],
        failures=losses,
        respawns=respawns,
    )
