"""End-to-end tests for the routing service (daemon, HTTP, CLI, viz).

Everything runs with a pool width of 1 (in-process execution) and
quick 24-wire circuits, so the whole module stays fast and
deterministic.  The acceptance scenario from the issue — two identical
submissions plus one distinct one yield exactly two executions and
three persisted job rows — is ``test_dedup_three_submissions_two_executions``.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.errors import ServiceError
from repro.harness.cache import ResultCache
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.obs import telemetry as obs
from repro.service import (
    JobSpec,
    Repository,
    RoutingService,
    ServiceClient,
    execute_job,
    job_key,
    serve,
)
from repro.service.daemon import MAX_BODY_BYTES, _Handler
from repro.service.jobs import route_payload
from repro.updates import UpdateSchedule
from repro.viz import ascii_job_timeline

ROUTE_PARAMS = {"which": "bnrE", "n_wires": 24, "iterations": 1, "quick": True}


def quick_route_params(**overrides):
    params = dict(ROUTE_PARAMS)
    params.update(overrides)
    return params


def tiny_mp_params():
    return {
        "which": "bnrE",
        "n_wires": 24,
        "iterations": 1,
        "n_procs": 4,
        "send_rmt": 2,
        "send_loc": 10,
    }


def executed_count():
    return obs.snapshot()["counters"].get("service.jobs.executed", 0)


@pytest.fixture
def service(tmp_path):
    svc = RoutingService(
        Repository(tmp_path / "svc.sqlite"),
        cache=ResultCache(tmp_path / "cache"),
        jobs=1,
        paused=True,
    )
    yield svc
    svc.stop()
    svc.repository.close()


class TestDedup:
    def test_dedup_three_submissions_two_executions(self, service):
        """The issue's acceptance scenario, against a paused queue."""
        before = executed_count()
        a = service.submit("route", quick_route_params())
        b = service.submit("route", quick_route_params())  # identical
        c = service.submit("route", quick_route_params(iterations=2))  # distinct
        assert b["dedup_of"] == a["job_id"]
        assert "dedup_of" not in c
        assert a["fingerprint"] == b["fingerprint"] != c["fingerprint"]

        service.start()
        assert service.drain(timeout_s=60)
        assert executed_count() - before == 2
        assert service.repository.counts() == {"done": 3}

        rows = [service.result(r["job_id"]) for r in (a, b, c)]
        for stored, state in rows:
            assert state == "done"
        assert rows[0][0]["payload"] == rows[1][0]["payload"]
        assert rows[0][0]["fingerprint"] != rows[2][0]["fingerprint"]

        # The dedup'd row kept its own audit trail.
        follower = service.status(b["job_id"])
        assert follower["source"] == "dedup"
        assert follower["dedup_of"] == a["job_id"]

    def test_service_result_matches_direct_execution(self, service):
        record = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        stored, state = service.result(record["job_id"])
        assert state == "done"
        direct = execute_job(JobSpec.from_params("route", quick_route_params()))
        assert stored["payload"] == direct

    def test_repository_hit_skips_execution(self, service):
        first = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        before = executed_count()
        again = service.submit("route", quick_route_params())
        assert again["status"] == "done"
        assert executed_count() == before
        assert service.status(again["job_id"])["source"] == "repository"
        assert (
            service.result(again["job_id"])[0]["payload"]
            == service.result(first["job_id"])[0]["payload"]
        )

    def test_force_reexecutes_a_stored_fingerprint(self, service):
        service.start()
        service.submit("route", quick_route_params())
        assert service.drain(timeout_s=60)
        before = executed_count()
        forced = service.submit("route", quick_route_params(), force=True)
        assert forced["status"] == "queued"
        assert service.drain(timeout_s=60)
        assert executed_count() - before == 1

    def test_file_cache_read_through(self, service):
        """A warm file cache answers mp jobs without executing and the
        payload is promoted into the repository."""
        config = SimConfig(
            kind="mp",
            which="bnrE",
            n_wires=24,
            schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=10),
            n_procs=4,
            iterations=1,
        )
        run_sim_configs([config], cache=service.cache)  # warm the file cache
        before = executed_count()
        record = service.submit("mp", tiny_mp_params())
        assert record["status"] == "done"
        assert executed_count() == before
        assert service.status(record["job_id"])["source"] == "file-cache"
        stored = service.repository.get_result(record["fingerprint"])
        assert stored["payload"]["kind"] == "mp"

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown job kind"):
            service.submit("teleport", {})

    def test_unknown_parameter_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown parameter"):
            service.submit("route", {"wires": 24})

    @pytest.mark.parametrize("kind", ["route", "mp", "sm"])
    def test_non_integer_param_rejected(self, service, kind):
        params = tiny_mp_params() if kind == "mp" else quick_route_params()
        with pytest.raises(ServiceError, match="'iterations' must be an integer"):
            service.submit(kind, {**params, "iterations": "x"})

    def test_runtime_failure_becomes_failed_row(self, service):
        # iterations=0 passes submission validation but the router
        # rejects it at execution time.
        record = service.submit("route", quick_route_params(iterations=0))
        service.start()
        assert service.drain(timeout_s=60)
        stored, state = service.result(record["job_id"])
        assert stored is None and state == "failed"
        job = service.status(record["job_id"])
        assert job["status"] == "failed"
        assert "iteration" in job["error"]

    def test_failed_fingerprint_is_not_cached(self, service):
        service.start()
        bad = service.submit("route", quick_route_params(iterations=0))
        assert service.drain(timeout_s=60)
        again = service.submit("route", quick_route_params(iterations=0))
        assert again["status"] == "queued"  # no done-result to dedup against


@pytest.fixture
def server(tmp_path):
    srv = serve(
        port=0,
        db=str(tmp_path / "svc.sqlite"),
        cache_dir=str(tmp_path / "cache"),
        jobs=1,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)
    srv.service.stop()
    srv.service.repository.close()
    srv.server_close()


def raw_post(server, body: bytes, content_length: str):
    """POST /jobs with a hand-written Content-Length; (status, reply)."""
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


@pytest.fixture
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")


class TestHTTP:
    def test_health_and_stats(self, client):
        assert client.health() == {"ok": True}
        stats = client.stats()
        assert stats["pool_jobs"] == 1
        assert "queue_depth" in stats and "repository" in stats

    def test_submit_wait_result_round_trip(self, client):
        record = client.submit("route", quick_route_params())
        finished = client.wait(record["job_id"], timeout_s=60)
        assert finished["status"] == "done"
        result = client.result(record["job_id"])
        assert result["status"] == "done"
        direct = execute_job(JobSpec.from_params("route", quick_route_params()))
        assert result["payload"] == direct

    def test_dedup_over_http(self, client):
        a = client.submit("route", quick_route_params(iterations=2))
        b = client.submit("route", quick_route_params(iterations=2))
        if b.get("status") != "done":  # a may already have finished
            assert b.get("dedup_of") == a["job_id"] or b["status"] == "done"
        client.wait(a["job_id"], timeout_s=60)
        client.wait(b["job_id"], timeout_s=60)
        assert (
            client.result(a["job_id"])["payload"]
            == client.result(b["job_id"])["payload"]
        )

    def test_bad_kind_is_a_400(self, client):
        with pytest.raises(ServiceError, match="unknown job kind"):
            client.submit("teleport", {})

    def test_non_integer_param_is_a_400(self, client):
        with pytest.raises(ServiceError, match="must be an integer"):
            client.submit("mp", {**tiny_mp_params(), "iterations": "x"})

    def test_unparsable_content_length_is_a_400(self, server):
        assert raw_post(server, b"{}", "abc")[0] == 400

    def test_negative_content_length_is_a_400(self, server):
        # rfile.read(-1) would block until the client hung up.
        assert raw_post(server, b"{}", "-1")[0] == 400

    def test_oversized_body_is_a_413(self, server):
        # Refused from the header alone, before reading the body.
        assert raw_post(server, b"{}", str(MAX_BODY_BYTES + 1))[0] == 413

    def test_handler_times_out_stalled_clients(self):
        assert 0 < _Handler.timeout <= 60

    def test_bad_list_limit_is_a_400(self, server):
        conn = http.client.HTTPConnection(*server.server_address, timeout=5)
        try:
            conn.request("GET", "/jobs?limit=many")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("nope")
        with pytest.raises(ServiceError, match="unknown job"):
            client.result("nope")

    def test_list_jobs_reflects_history(self, client):
        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        jobs = client.list_jobs()
        assert any(j["job_id"] == record["job_id"] for j in jobs)
        assert client.list_jobs(status="failed") == []

    def test_unreachable_service_raises(self):
        bad = ServiceClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            bad.health()


class TestCLI:
    def test_route_json_matches_service_payload(self, capsys):
        # --wires pins the circuit, so the service job's `quick` flag is
        # irrelevant to the payload and the two paths must agree exactly.
        from repro.cli import main

        assert main(
            ["route", "--wires", "24", "--iterations", "1", "--json"]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        direct = execute_job(JobSpec.from_params("route", quick_route_params()))
        assert printed == direct

    def test_jobs_submit_wait_and_result(self, server, capsys):
        from repro.cli import main

        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert main(
            [
                "jobs", "--url", url, "submit", "route",
                "--wires", "24", "--iterations", "1", "--quick",
                "--wait", "--json",
            ]
        ) == 0
        # --wait prints the finished job's payload itself.
        printed = json.loads(capsys.readouterr().out)
        assert printed["kind"] == "route"
        assert printed == execute_job(JobSpec.from_params("route", quick_route_params()))

    def test_jobs_list_and_stats(self, server, client, capsys):
        from repro.cli import main

        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert main(["jobs", "--url", url, "list"]) == 0
        out = capsys.readouterr().out
        assert record["job_id"] in out
        assert main(["jobs", "--url", url, "stats"]) == 0
        assert "queue_depth" in capsys.readouterr().out

    def test_jobs_list_timeline(self, server, client, capsys):
        from repro.cli import main

        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert main(["jobs", "--url", url, "list", "--timeline"]) == 0
        assert record["job_id"] in capsys.readouterr().out


class TestServiceReport:
    def test_report_renders_repository(self, service, tmp_path):
        from repro.harness.report import main as report_main

        record = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        out = tmp_path / "report.md"
        assert report_main(
            ["--service", service.repository.path, str(out)]
        ) == 0
        text = out.read_text()
        assert record["job_id"] in text
        assert "## Job counts" in text
        assert "## Stored results" in text


class TestTimelineViz:
    def test_empty_history(self):
        assert ascii_job_timeline([]) == "(no jobs)"

    def test_bars_scale_with_wall_time(self):
        jobs = [
            {
                "job_id": "slow", "kind": "route", "status": "done",
                "started_unix": 100.0, "finished_unix": 102.0,
            },
            {
                "job_id": "fast", "kind": "route", "status": "done",
                "started_unix": 100.0, "finished_unix": 101.0,
            },
            {
                "job_id": "dup", "kind": "route", "status": "done",
                "source": "dedup", "dedup_of": "slow",
                "started_unix": 100.0, "finished_unix": 102.0,
            },
            {"job_id": "wait", "kind": "mp", "status": "queued"},
            {
                "job_id": "hit", "kind": "mp", "status": "done",
                "source": "repository",
            },
        ]
        text = ascii_job_timeline(jobs, max_width=20)
        lines = text.splitlines()
        assert len(lines) == 5
        slow_bar = lines[0].split("|")[1]
        fast_bar = lines[1].split("|")[1]
        assert len(slow_bar) == 2 * len(fast_bar)
        assert "(dedup)" in lines[2]
        assert "." in lines[3]  # queued glyph
        assert "via repository" in lines[4]
