"""Tests for the content-addressed result store: fingerprints
(harness.fingerprint), experiment and sim-row entries in the SQLite
repository, and the stored path through simjobs."""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.harness.fingerprint import code_fingerprint, jsonify, stable_hash
from repro.harness.runner import atomic_write_text
from repro.harness.simjobs import (
    SimConfig,
    _run_sim_config_in_worker,
    run_sim_configs,
    sim_fingerprint,
    sim_key,
)
from repro.obs import telemetry as obs
from repro.service.repository import REPOSITORY_SCHEMA, Repository
from repro.updates import UpdateSchedule


@pytest.fixture
def store(tmp_path):
    repo = Repository(tmp_path / "store.sqlite")
    yield repo
    repo.close()


def tiny_mp_config(**overrides):
    """A message passing row small enough for unit tests (<100 ms)."""
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


class TestJsonify:
    def test_plain_data_passes_through(self):
        assert jsonify({"a": [1, 2.5, "x", None, True]}) == {
            "a": [1, 2.5, "x", None, True]
        }

    def test_numpy_and_tuples_become_plain(self):
        out = jsonify({"n": np.int64(3), "v": np.array([1, 2]), "t": (1, 2)})
        assert out == {"n": 3, "v": [1, 2], "t": [1, 2]}
        json.dumps(out)  # fully serialisable

    def test_non_string_dict_keys_are_type_tagged(self):
        out = jsonify({(2, 10): "row"})
        assert out == {"tuple:(2, 10)": "row"}

    def test_int_and_string_keys_stay_distinct(self):
        # Regression: {1: x} and {"1": x} used to canonicalise to the
        # same JSON and so the same cache key.
        assert jsonify({1: "x"}) == {"int:1": "x"}
        assert jsonify({"1": "x"}) == {"1": "x"}
        assert jsonify({1: "x"}) != jsonify({"1": "x"})

    def test_bool_and_int_keys_stay_distinct(self):
        assert jsonify({True: "x"}) == {"bool:True": "x"}
        assert jsonify({1: "x"}) != jsonify({True: "x"})

    def test_tag_shaped_string_keys_get_escaped(self):
        # The string key "int:1" must not collide with the int key 1.
        assert jsonify({"int:1": "x"}) == {"str:int:1": "x"}
        assert jsonify({"int:1": "x"}) != jsonify({1: "x"})

    def test_numpy_scalar_keys_match_python_spelling(self):
        assert jsonify({np.int64(3): "x"}) == {"int64:3": "x"}

    def test_dataclasses_become_dicts(self):
        out = jsonify(UpdateSchedule(send_rmt_every=2, send_loc_every=10))
        assert out["send_rmt_every"] == 2


class TestStableHash:
    def test_deterministic(self):
        fp = {"a": 1, "b": [1, 2], "c": {"x": (3, 4)}}
        assert stable_hash(fp) == stable_hash(fp)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_any_field_change_changes_hash(self):
        base = {"a": 1, "b": 2}
        assert stable_hash(base) != stable_hash({"a": 1, "b": 3})
        assert stable_hash(base) != stable_hash({"a": 1})

    def test_key_type_changes_hash(self):
        # Regression: these fingerprints hashed identically before the
        # type-tagged key canonicalisation.
        assert stable_hash({"d": {1: "x"}}) != stable_hash({"d": {"1": "x"}})
        assert stable_hash({"d": {True: "x"}}) != stable_hash({"d": {1: "x"}})

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestSimKey:
    def test_same_config_same_key(self):
        assert sim_key(tiny_mp_config()) == sim_key(tiny_mp_config())

    def test_schedule_field_changes_key(self):
        a = tiny_mp_config()
        b = tiny_mp_config(
            schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=20)
        )
        assert sim_key(a) != sim_key(b)

    def test_n_procs_changes_key(self):
        assert sim_key(tiny_mp_config()) != sim_key(tiny_mp_config(n_procs=8))

    def test_circuit_scale_changes_key(self):
        assert sim_key(tiny_mp_config()) != sim_key(tiny_mp_config(n_wires=30))

    def test_kind_in_fingerprint(self):
        fp = sim_fingerprint(tiny_mp_config())
        assert fp["kind"] == "mp" and fp["unit"] == "sim"

    def test_bad_kind_rejected(self):
        with pytest.raises(ExperimentError):
            SimConfig(kind="xx")

    def test_mp_without_schedule_rejected(self):
        with pytest.raises(ExperimentError):
            SimConfig(kind="mp", schedule=None)


class TestStoreEntries:
    def test_experiment_round_trip(self, store):
        store.record_result("k1", "experiment", {}, {"rows": [1, 2]})
        stored = store.get_result("k1")
        assert stored["payload"]["rows"] == [1, 2]
        assert stored["kind"] == "experiment"

    def test_experiment_miss(self, store):
        assert store.get_result("absent") is None

    def test_corrupt_experiment_entry_is_a_miss(self, store):
        store.record_result("bad", "experiment", {}, {"rows": []})
        store._conn.execute(
            "UPDATE results SET payload = '{not json' WHERE fingerprint = 'bad'"
        )
        assert store.get_result("bad") is None

    def test_wrong_schema_is_a_miss(self, store):
        store.record_result("old", "experiment", {}, {"rows": []})
        store.put_sim("old", {"x": 1})
        store._conn.execute("UPDATE results SET schema_version = -1")
        store._conn.execute("UPDATE sim_rows SET schema_version = -1")
        assert store.get_result("old") is None
        assert store.get_sim("old") is None

    def test_sim_round_trip_preserves_numpy(self, store):
        obj = {"array": np.arange(5), "n": 3}
        store.put_sim("k", obj)
        out = store.get_sim("k")
        np.testing.assert_array_equal(out["array"], np.arange(5))

    def test_truncated_sim_entry_is_a_miss(self, store):
        store.put_sim("k", {"x": 1})
        store._conn.execute(  # truncate mid-pickle
            "UPDATE sim_rows SET result = substr(result, 1, 10) WHERE key = 'k'"
        )
        assert store.get_sim("k") is None

    def test_garbage_sim_entry_is_a_miss(self, store):
        store._conn.execute(
            "INSERT INTO sim_rows VALUES ('k', ?, ?, 0)",
            (REPOSITORY_SCHEMA, b"\x00\x01 not a pickle"),
        )
        assert store.get_sim("k") is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "k.json", json.dumps({"rows": []}))
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]


class TestDurableWrites:
    def test_atomic_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        # Regression: atomic writes never fsynced, so a "committed" file
        # (or its name) could vanish on power loss.
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1]
        )
        atomic_write_text(tmp_path / "entry.json", "payload")
        assert len(calls) >= 2  # the temp file and its directory
        assert (tmp_path / "entry.json").read_text() == "payload"

    def test_failed_write_cleans_up_temp_file(self, tmp_path, monkeypatch):
        def boom(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "entry.json", "payload")
        assert list(tmp_path.iterdir()) == []


def _concurrent_put_sim(item):
    """Module-level pool worker (picklable under spawn)."""
    db, worker_id = item
    store = Repository(db)
    try:
        for _ in range(20):
            store.put_sim("shared-key", {"worker": worker_id, "data": np.arange(64)})
    finally:
        store.close()
    return worker_id


class TestConcurrentCacheAccess:
    def test_racing_writers_never_corrupt_the_entry(self, tmp_path):
        """Two processes hammering the same key both succeed, and readers
        always see a complete row (one writer's version, never a torn mix)."""
        db = str(tmp_path / "store.sqlite")
        reader = Repository(db)
        ctx = multiprocessing.get_context("spawn")
        try:
            with ctx.Pool(2) as pool:
                async_result = pool.map_async(
                    _concurrent_put_sim, [(db, 1), (db, 2)]
                )
                while not async_result.ready():
                    entry = reader.get_sim("shared-key")
                    if entry is not None:
                        assert entry["worker"] in (1, 2)
                        np.testing.assert_array_equal(entry["data"], np.arange(64))
                assert sorted(async_result.get()) == [1, 2]
        finally:
            reader.close()
        final = Repository(db)
        try:
            entry = final.get_sim("shared-key")
        finally:
            final.close()
        assert entry["worker"] in (1, 2)
        np.testing.assert_array_equal(entry["data"], np.arange(64))


class TestCachedSimRows:
    def test_second_run_hits_and_matches(self, store):
        configs = [tiny_mp_config(), tiny_mp_config(n_procs=8)]
        first = run_sim_configs(configs, store=store)
        before = obs.snapshot()
        second = run_sim_configs(configs, store=store)
        delta = obs.snapshot()["counters"]
        assert (
            delta.get("cache.sim.hits", 0)
            - before["counters"].get("cache.sim.hits", 0)
            == 2
        )
        for a, b in zip(first, second):
            assert a.table_row() == b.table_row()
            assert a.exec_time_s == b.exec_time_s

    def test_overlapping_sweeps_share_rows(self, store):
        shared = tiny_mp_config()
        run_sim_configs([shared], store=store)
        before = obs.snapshot()["counters"].get("cache.sim.hits", 0)
        run_sim_configs([shared, tiny_mp_config(n_procs=2)], store=store)
        after = obs.snapshot()["counters"].get("cache.sim.hits", 0)
        assert after - before == 1  # the shared row hit, the new one ran

    def test_uncached_rows_identical_to_cached(self, store):
        config = tiny_mp_config()
        plain = run_sim_configs([config])[0]
        run_sim_configs([config], store=store)  # stores the row
        cached = run_sim_configs([config], store=store)[0]  # reads it back
        assert plain.table_row() == cached.table_row()


class TestWorkerTelemetry:
    def test_in_process_call_keeps_parent_telemetry(self):
        """A serial retry runs the pool wrapper in the parent process.

        It must neither wipe the parent's counters nor hand them back
        for a second merge: the row counts exactly once.
        """
        obs.incr("cache.sim.hits", 5)
        before = obs.snapshot()["counters"]
        _result, snap = _run_sim_config_in_worker(tiny_mp_config())
        obs.get_telemetry().merge(snap)
        after = obs.snapshot()["counters"]
        assert after.get("cache.sim.hits", 0) == before["cache.sim.hits"]
        assert after.get("sim.mp.runs", 0) == before.get("sim.mp.runs", 0) + 1
