-- SQLite schema of the result repository (docs/SERVICE.md).
--
-- The one result store of the package: the service, the experiment
-- harness and the CLI all read and write these tables.
--
--   results:  content-addressed JSON results.  One row per *distinct*
--             service job or harness experiment ever run, keyed by the
--             stable_hash fingerprint of everything that determines the
--             output.
--   sim_rows: pickled ParallelRunResult objects of single simulation
--             rows (harness/simjobs.py), keyed by their sim fingerprint;
--             they carry numpy arrays and routed paths that JSON cannot
--             round-trip.
--   jobs:     the submission history.  One row per *submission*, so
--             deduplicated submissions of the same configuration each
--             keep their own audit row (status, timestamps, which
--             execution they shared via dedup_of).

CREATE TABLE IF NOT EXISTS results (
    fingerprint    TEXT PRIMARY KEY,   -- stable_hash of the job fingerprint
    kind           TEXT NOT NULL,      -- route | mp | sm | experiment
    config         TEXT NOT NULL,      -- canonical JSON of the job params
    payload        TEXT NOT NULL,      -- JSON result payload
    telemetry      TEXT NOT NULL DEFAULT '{}',  -- counters/spans snapshot
    schema_version INTEGER NOT NULL,   -- repository payload format
    wall_s         REAL,               -- execution wall time
    created_unix   REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS sim_rows (
    key            TEXT PRIMARY KEY,   -- stable_hash of the sim fingerprint
    schema_version INTEGER,            -- repository payload format
    result         BLOB,               -- pickled ParallelRunResult
    created_unix   REAL
);

CREATE TABLE IF NOT EXISTS jobs (
    job_id         TEXT PRIMARY KEY,
    fingerprint    TEXT NOT NULL,
    kind           TEXT NOT NULL,
    config         TEXT NOT NULL,
    status         TEXT NOT NULL,      -- queued | running | done | failed
    source         TEXT NOT NULL DEFAULT 'executed',
                                       -- executed | repository | dedup
    error          TEXT,               -- final error of a failed job
    dedup_of       TEXT,               -- job_id whose execution this shares
    submitted_unix REAL NOT NULL,
    started_unix   REAL,
    finished_unix  REAL
);

CREATE INDEX IF NOT EXISTS idx_jobs_fingerprint ON jobs (fingerprint);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs (status);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
