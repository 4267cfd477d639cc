"""Tests for the parallel harness: pool_map, sim-row fan-out, run_all jobs."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import ExperimentError
from repro.harness import run_all
from repro.harness.pool import default_jobs, pool_map
from repro.harness.runner import BENCH_FILENAME
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.obs import telemetry as obs
from repro.updates import UpdateSchedule

_PARENT_PID = os.getpid()


# Pool tasks must be picklable, hence module level.
def _double(x):
    return 2 * x


def _fails_in_worker(x):
    """Raises in a forked pool worker, succeeds on the parent's retry."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return -x


def _always_fails(x):
    raise RuntimeError("injected permanent failure")


def _slow_in_worker(x):
    if os.getpid() != _PARENT_PID:
        time.sleep(30)
    return x


_SERIAL_CALLS = []


def _flaky_serial(x):
    _SERIAL_CALLS.append(x)
    if len(_SERIAL_CALLS) == 1:
        raise RuntimeError("first call fails")
    return x


def tiny_config(**overrides):
    base = dict(
        kind="mp",
        which="bnrE",
        n_wires=24,
        schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=10),
        n_procs=4,
        iterations=1,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestPoolMap:
    def test_empty(self):
        assert pool_map(_double, [], jobs=4) == []

    def test_serial_preserves_order(self):
        assert pool_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        assert pool_map(_double, list(range(7)), jobs=2) == [
            2 * i for i in range(7)
        ]

    def test_worker_failure_retried_in_parent(self):
        assert pool_map(_fails_in_worker, [1, 2, 3], jobs=2) == [-1, -2, -3]

    def test_double_failure_raises_experiment_error(self):
        with pytest.raises(ExperimentError, match="failed twice"):
            pool_map(_always_fails, [1, 2], jobs=2)

    def test_serial_failure_also_wrapped(self):
        with pytest.raises(ExperimentError, match="failed twice"):
            pool_map(_always_fails, [1], jobs=1)

    def test_serial_retry_once(self):
        _SERIAL_CALLS.clear()
        assert pool_map(_flaky_serial, [5], jobs=1) == [5]
        assert _SERIAL_CALLS == [5, 5]

    def test_timeout_falls_back_to_parent_retry(self):
        # The worker would sleep 30 s; the 0.5 s timeout trips and the
        # serial retry (parent pid -> no sleep) succeeds immediately.
        out = pool_map(_slow_in_worker, [1, 2], jobs=2, timeout_s=0.5)
        assert out == [1, 2]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSimRowFanOut:
    def test_parallel_rows_identical_to_serial(self):
        configs = [tiny_config(n_procs=p) for p in (2, 4, 8)]
        serial = run_sim_configs(configs, jobs=1)
        parallel = run_sim_configs(configs, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.table_row() == b.table_row()
            assert a.exec_time_s == b.exec_time_s

    def test_parallel_telemetry_merged(self):
        before = obs.snapshot()["counters"].get("sim.events", 0)
        run_sim_configs([tiny_config(n_procs=p) for p in (2, 4)], jobs=2)
        after = obs.snapshot()["counters"].get("sim.events", 0)
        assert after > before  # worker deltas landed in the parent


class TestRunAllParallel:
    def test_unknown_id_rejected_before_any_run(self):
        with pytest.raises(ExperimentError, match="valid ids"):
            run_all(["NOPE"], quick=True, echo=False, jobs=2)

    def test_many_ids_rows_identical_to_serial(self, capsys):
        serial = run_all(["X4", "T6"], quick=True, echo=False)
        parallel = run_all(["X4", "T6"], quick=True, echo=False, jobs=2)
        assert [r.exp_id for r in parallel] == ["X4", "T6"]
        for a, b in zip(serial, parallel):
            assert a.rows == b.rows
            assert a.checks == b.checks

    def test_single_id_inner_fan_out_matches_serial(self):
        serial = run_all(["T6"], quick=True, echo=False)
        parallel = run_all(["T6"], quick=True, echo=False, jobs=2)
        assert serial[0].rows == parallel[0].rows

    def test_parallel_run_with_cache_warm_second_pass(self, tmp_path):
        db = tmp_path / "store.sqlite"
        cold = run_all(["X4", "T6"], quick=True, echo=False, jobs=2, db=db)
        before = obs.snapshot()["counters"].get("cache.experiment.hits", 0)
        warm = run_all(["X4", "T6"], quick=True, echo=False, jobs=1, db=db)
        hits = obs.snapshot()["counters"].get("cache.experiment.hits", 0) - before
        assert hits == 2
        for a, b in zip(cold, warm):
            assert a.rows == b.rows

    def test_bench_record_written(self, tmp_path):
        run_all(
            ["X4"],
            quick=True,
            echo=False,
            jobs=2,
            out_dir=tmp_path,
            db=tmp_path / "store.sqlite",
        )
        bench = json.loads((tmp_path / BENCH_FILENAME).read_text())
        assert bench["schema"] == "bench-harness/1"
        assert bench["jobs"] == 2
        assert bench["totals"]["experiments"] == 1
        assert bench["experiments"][0]["exp_id"] == "X4"
        assert bench["experiments"][0]["events_processed"] > 0
        assert bench["totals"]["cache"]["experiment.misses"] == 1

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path, monkeypatch):
        db = tmp_path / "store.sqlite"
        run_all(["X4"], quick=True, echo=False, db=db)
        monkeypatch.chdir(tmp_path)
        counters = obs.snapshot()["counters"]
        run_all(["X4"], quick=True, echo=False, db=None)
        after = obs.snapshot()["counters"]
        for name in ("cache.experiment.hits", "cache.experiment.misses"):
            assert after.get(name, 0) == counters.get(name, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.sqlite"]
