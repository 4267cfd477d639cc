"""Per-row simulation jobs: the harness's inner level of parallelism.

The paper's sweep tables (Tables 1, 2, 6; the X5 speedup pair) are
embarrassingly parallel: every row is one independent
``run_message_passing`` / ``run_shared_memory`` call.  This module gives
the experiment drivers a declarative way to say so — build a list of
:class:`SimConfig` records and hand it to :func:`run_sim_configs` —
which unlocks, transparently to the drivers:

- **fan-out**: rows execute across a process pool when the harness has
  configured inner jobs (:func:`configure`), serially otherwise;
- **row storage**: each config is content-addressed (circuit netlist
  digest, schedule fields, processor/iteration counts, cost-model
  fields, code digest) and kept in the repository's ``sim_rows`` table
  (:meth:`repro.service.repository.Repository.get_sim` / ``put_sim``),
  so overlapping sweeps and warm re-runs skip rows that were already
  computed — e.g. the sender-initiated ``(2, 10)`` configuration
  appears in T1, T6, and X5 but simulates once.

Results come back in config order either way, so driver code is
identical under every execution strategy.  Configuration is process
local; worker processes of the *outer* experiment pool inherit the
defaults (serial, store from their own setup), so pools never nest.
Pool workers of the row fan-out never touch the store: the parent reads
and writes every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..circuits import Circuit, bnre_like, mdc_like
from ..errors import ExperimentError
from ..faults.plan import FaultPlan
from ..parallel import run_message_passing, run_shared_memory
from ..parallel.results import ParallelRunResult
from ..parallel.timing import DEFAULT_COST_MODEL
from ..obs import telemetry as obs
from ..updates import UpdateSchedule
from .fingerprint import (
    circuit_fingerprint,
    code_fingerprint,
    cost_model_fingerprint,
    stable_hash,
)
from .pool import pool_map

if TYPE_CHECKING:  # a runtime import would close a service -> harness cycle
    from ..service.repository import Repository

__all__ = [
    "SimConfig",
    "sim_fingerprint",
    "sim_key",
    "run_sim_config",
    "run_sim_configs",
    "configure",
]


@dataclass(frozen=True)
class SimConfig:
    """One independent simulation row of a sweep (picklable).

    ``kind`` selects the paradigm: ``"mp"`` (requires ``schedule``) or
    ``"sm"``.  The circuit is named, not embedded, so configs stay tiny
    on the wire: ``which`` is ``"bnrE"`` or ``"MDC"``, sized by ``quick``
    exactly as :func:`~repro.harness.experiments.quick_circuit` does, or
    overridden to ``n_wires`` wires (tests and smoke benches).
    """

    kind: str
    which: str = "bnrE"
    quick: bool = False
    n_wires: Optional[int] = None
    schedule: Optional[UpdateSchedule] = None
    n_procs: int = 16
    iterations: int = 3
    # shared memory only
    line_size: int = 8
    extra_line_sizes: Tuple[int, ...] = ()
    protocol: str = "invalidate"
    collect_trace: bool = True
    #: Run the repro.verify invariant checkers alongside the simulation.
    check_invariants: bool = False
    #: Fault-injection plan (message passing only); ``None`` = fault-free.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.kind not in ("mp", "sm"):
            raise ExperimentError(f"unknown sim kind {self.kind!r}")
        if self.kind == "mp" and self.schedule is None:
            raise ExperimentError("message passing configs need a schedule")
        if self.kind == "sm" and self.faults is not None:
            raise ExperimentError(
                "fault injection targets the message passing network; "
                "shared memory configs cannot carry a FaultPlan"
            )


@lru_cache(maxsize=32)
def _named_circuit(which: str, quick: bool, n_wires: Optional[int]) -> Circuit:
    """Build (and memoise) the named benchmark circuit for a config."""
    if which == "bnrE":
        base_quick_wires = 160
        maker = bnre_like
    elif which == "MDC":
        base_quick_wires = 200
        maker = mdc_like
    else:
        raise ExperimentError(f"unknown circuit {which!r}")
    if n_wires is not None:
        return maker(n_wires=n_wires)
    return maker(n_wires=base_quick_wires) if quick else maker()


@lru_cache(maxsize=32)
def _named_circuit_fingerprint(
    which: str, quick: bool, n_wires: Optional[int]
) -> str:
    return circuit_fingerprint(_named_circuit(which, quick, n_wires))


def sim_fingerprint(config: SimConfig) -> Dict[str, object]:
    """Everything that determines this row's result, as a plain dict."""
    return {
        "unit": "sim",
        "kind": config.kind,
        "circuit": _named_circuit_fingerprint(
            config.which, config.quick, config.n_wires
        ),
        "schedule": config.schedule,  # dataclass; jsonified by stable_hash
        "n_procs": config.n_procs,
        "iterations": config.iterations,
        "line_size": config.line_size,
        "extra_line_sizes": config.extra_line_sizes,
        "protocol": config.protocol,
        "collect_trace": config.collect_trace,
        "check_invariants": config.check_invariants,
        "faults": config.faults,  # dataclass (or None); jsonified by stable_hash
        "cost_model": cost_model_fingerprint(DEFAULT_COST_MODEL),
        "code": code_fingerprint(),
    }


def sim_key(config: SimConfig) -> str:
    """The content-addressed store key of one simulation config."""
    return stable_hash(sim_fingerprint(config))


def _run_sim_config_in_worker(
    config: SimConfig,
) -> Tuple[ParallelRunResult, Dict[str, object]]:
    """Pool-worker wrapper: run one config and report its telemetry.

    The worker's global telemetry is reset first (fork-started workers
    inherit the parent's counters, which the parent already owns), so
    the returned snapshot is exactly this task's delta.
    """
    obs.reset()
    result = run_sim_config(config)
    return result, obs.snapshot()


def run_sim_config(config: SimConfig) -> ParallelRunResult:
    """Execute one simulation row (no store; used by pool workers)."""
    circuit = _named_circuit(config.which, config.quick, config.n_wires)
    if config.kind == "mp":
        return run_message_passing(
            circuit,
            config.schedule,
            n_procs=config.n_procs,
            iterations=config.iterations,
            check_invariants=config.check_invariants,
            faults=config.faults,
        )
    return run_shared_memory(
        circuit,
        n_procs=config.n_procs,
        iterations=config.iterations,
        line_size=config.line_size,
        extra_line_sizes=config.extra_line_sizes,
        protocol=config.protocol,
        collect_trace=config.collect_trace,
        check_invariants=config.check_invariants,
    )


# ----------------------------------------------------------------------
# harness-installed execution strategy (process local)
# ----------------------------------------------------------------------
@dataclass
class _Strategy:
    jobs: int = 1
    store: Optional["Repository"] = None
    timeout_s: Optional[float] = None


_STRATEGY = _Strategy()


def configure(
    jobs: Optional[int] = None,
    store: Optional["Repository"] = None,
    timeout_s: Optional[float] = None,
    reset: bool = False,
) -> None:
    """Install the execution strategy the harness wants for sim rows.

    ``reset=True`` restores the defaults (serial, no store) first; other
    arguments then override individual fields.  Drivers never call this —
    only the runner / parallel runner and tests do.
    """
    global _STRATEGY
    if reset:
        _STRATEGY = _Strategy()
    if jobs is not None:
        _STRATEGY.jobs = jobs
    if store is not None:
        _STRATEGY.store = store
    if timeout_s is not None:
        _STRATEGY.timeout_s = timeout_s


def run_sim_configs(
    configs: List[SimConfig],
    jobs: Optional[int] = None,
    store: Optional["Repository"] = None,
    timeout_s: Optional[float] = None,
) -> List[ParallelRunResult]:
    """Execute every config, in config order, with the store and fan-out.

    Explicit arguments override the :func:`configure`-installed strategy;
    the default (no configuration, no arguments) is serial with no store —
    identical to calling the simulators directly.
    """
    jobs = _STRATEGY.jobs if jobs is None else jobs
    store = _STRATEGY.store if store is None else store
    timeout_s = _STRATEGY.timeout_s if timeout_s is None else timeout_s

    results: Dict[int, ParallelRunResult] = {}
    missing: List[int] = []
    keys: List[Optional[str]] = [None] * len(configs)
    if store is not None:
        for i, config in enumerate(configs):
            keys[i] = sim_key(config)
            hit = store.get_sim(keys[i])
            if hit is None:
                obs.incr("cache.sim.misses")
                missing.append(i)
            else:
                obs.incr("cache.sim.hits")
                results[i] = hit
    else:
        missing = list(range(len(configs)))

    if missing:
        if jobs > 1 and len(missing) > 1:
            # Pool workers carry their own telemetry globals; each task
            # returns a snapshot so the parent's counters stay complete.
            outs = pool_map(
                _run_sim_config_in_worker,
                [configs[i] for i in missing],
                jobs=jobs,
                timeout_s=timeout_s,
                label="sim config",
            )
            computed = []
            for result, tel_snapshot in outs:
                obs.get_telemetry().merge(tel_snapshot)
                computed.append(result)
        else:
            computed = pool_map(
                run_sim_config,
                [configs[i] for i in missing],
                jobs=1,
                timeout_s=timeout_s,
                label="sim config",
            )
        for i, result in zip(missing, computed):
            results[i] = result
            if store is not None:
                store.put_sim(keys[i], result)
    obs.incr("harness.sim_rows", len(configs))
    return [results[i] for i in range(len(configs))]
