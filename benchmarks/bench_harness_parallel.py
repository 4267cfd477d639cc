"""Harness smoke bench — parallel fan-out and the result store (quick mode).

Unlike the per-experiment benches this one exercises the *harness
machinery* end to end at quick scale: a serial baseline, a ``jobs > 1``
fan-out over experiment ids, and a warm second pass over a shared
SQLite result store.  Correctness (row identity, store hits, a well-formed
``BENCH_harness.json``) is asserted; timing is *reported* only — the
speedup depends on how many cores the host actually has, so a hard
assertion would be flaky on small CI machines.
"""

from __future__ import annotations

import json
import os

from repro.harness import run_all
from repro.harness.runner import BENCH_FILENAME
from repro.obs import telemetry as obs

#: A mixed, sweep-heavy subset: two table sweeps, two single-row checks.
SMOKE_IDS = ["T1", "T6", "X2", "X4"]


def _quiet_run(**kwargs):
    return run_all(SMOKE_IDS, quick=True, echo=False, **kwargs)


def test_parallel_rows_match_serial(benchmark, capsys):
    """Fan-out over ids must be row-identical to the serial baseline."""
    serial = _quiet_run()
    jobs = min(4, os.cpu_count() or 1)
    parallel = benchmark.pedantic(
        lambda: _quiet_run(jobs=jobs), rounds=1, iterations=1
    )
    assert [r.exp_id for r in parallel] == SMOKE_IDS
    for a, b in zip(serial, parallel):
        assert a.rows == b.rows, f"{a.exp_id} rows diverged under jobs={jobs}"
        assert a.checks == b.checks
    with capsys.disabled():
        print(f"\n  parallel harness ok: {len(parallel)} experiments, "
              f"jobs={jobs}, rows identical to serial")


def test_warm_cache_serves_identical_results(benchmark, capsys, tmp_path):
    """A warm store pass must hit every experiment and change nothing."""
    db = tmp_path / "store.sqlite"
    cold = _quiet_run(db=db)
    before = obs.snapshot()["counters"].get("cache.experiment.hits", 0)
    warm = benchmark.pedantic(lambda: _quiet_run(db=db), rounds=1, iterations=1)
    hits = obs.snapshot()["counters"].get("cache.experiment.hits", 0) - before
    assert hits == len(SMOKE_IDS), "warm pass missed the store"
    for a, b in zip(cold, warm):
        assert a.rows == b.rows
        assert a.checks == b.checks
    with capsys.disabled():
        print(f"\n  warm store ok: {hits}/{len(SMOKE_IDS)} experiment hits")


def test_bench_record_well_formed(benchmark, capsys, tmp_path):
    """The harness telemetry record carries totals worth reporting."""
    result = benchmark.pedantic(
        lambda: _quiet_run(out_dir=tmp_path, db=tmp_path / "store.sqlite"),
        rounds=1,
        iterations=1,
    )
    assert all(r.passed for r in result)
    payload = json.loads((tmp_path / BENCH_FILENAME).read_text())
    assert payload["schema"] == "bench-harness/1"
    assert payload["totals"]["experiments"] == len(SMOKE_IDS)
    assert payload["totals"]["events_processed"] > 0
    assert payload["totals"]["events_per_s"] > 0
    with capsys.disabled():
        totals = payload["totals"]
        print(f"\n  {totals['events_processed']} events in "
              f"{totals['wall_s']:.2f}s wall "
              f"({totals['events_per_s']:.0f} events/s), "
              f"cache {totals['cache']}")
