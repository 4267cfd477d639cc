"""Experiment harness: paper reference values, per-table drivers with
shape checks, table rendering, the run-everything runner, and its
parallel/stored execution machinery (pool, simjobs, fingerprint,
parallel_runner).  Results are stored in the SQLite repository of
:mod:`repro.service.repository`, which harness functions take as an
argument (``db=`` / ``store=``)."""

from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .runner import load_result, resolve_ids, run_all, save_result
from .fingerprint import stable_hash
from .simjobs import SimConfig, run_sim_configs
from .tables import format_value, render_checks, render_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "run_all",
    "save_result",
    "load_result",
    "resolve_ids",
    "stable_hash",
    "SimConfig",
    "run_sim_configs",
    "render_table",
    "render_checks",
    "format_value",
]
