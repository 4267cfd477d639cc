"""Determinism: every execution strategy yields bit-identical results.

The whole verification and caching story rests on the simulators being
pure functions of their configuration: fixed circuit seeds, virtual
time, no wall-clock or ordering dependence.  These tests pin that down
by running the same :class:`SimConfig` rows serially, through the
process pool, and back out of a warm result store, and requiring the
result *fingerprints* — ``stable_hash`` of the full JSON summary — to be
identical everywhere, including across repeated runs in one process.
"""

from __future__ import annotations

import pytest

from repro.harness.fingerprint import stable_hash
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.service.repository import Repository
from repro.updates import UpdateSchedule

CONFIGS = [
    SimConfig(
        kind="mp",
        n_wires=60,
        schedule=UpdateSchedule.sender_initiated(2, 10),
        n_procs=4,
        iterations=2,
    ),
    SimConfig(
        kind="mp",
        n_wires=60,
        schedule=UpdateSchedule.receiver_initiated(2, 5, blocking=True),
        n_procs=4,
        iterations=2,
    ),
    SimConfig(kind="sm", n_wires=60, n_procs=4, iterations=2),
]


def fingerprints(results) -> list:
    return [stable_hash(r.summary_dict()) for r in results]


@pytest.fixture(scope="module")
def serial_fingerprints() -> list:
    return fingerprints(run_sim_configs(CONFIGS, jobs=1))


def test_repeated_serial_runs_identical(serial_fingerprints):
    again = fingerprints(run_sim_configs(CONFIGS, jobs=1))
    assert again == serial_fingerprints


def test_pool_matches_serial(serial_fingerprints):
    pooled = fingerprints(run_sim_configs(CONFIGS, jobs=2))
    assert pooled == serial_fingerprints


def test_cache_round_trip_matches_serial(serial_fingerprints, tmp_path):
    store = Repository(tmp_path / "store.sqlite")
    try:
        cold = fingerprints(run_sim_configs(CONFIGS, jobs=1, store=store))
        warm = fingerprints(run_sim_configs(CONFIGS, jobs=1, store=store))
    finally:
        store.close()
    assert cold == serial_fingerprints
    assert warm == serial_fingerprints


def test_checked_run_does_not_change_results(serial_fingerprints):
    """check_invariants must observe, never perturb, the simulation."""
    checked = [
        SimConfig(
            kind=c.kind,
            n_wires=c.n_wires,
            schedule=c.schedule,
            n_procs=c.n_procs,
            iterations=c.iterations,
            check_invariants=True,
        )
        for c in CONFIGS
    ]
    results = run_sim_configs(checked, jobs=1)
    for result in results:
        verification = result.meta.get("verification")
        assert verification is not None and verification["ok"]
    # Fingerprints include meta, which now carries the verification
    # summary — compare the quality/timing core instead.
    for result, base_fp, config in zip(results, serial_fingerprints, CONFIGS):
        base = run_sim_configs([config], jobs=1)[0]
        assert result.quality.as_dict() == base.quality.as_dict()
        assert result.exec_time_s == base.exec_time_s
        assert stable_hash({k: p.flat_cells for k, p in result.paths.items()}) == (
            stable_hash({k: p.flat_cells for k, p in base.paths.items()})
        )
