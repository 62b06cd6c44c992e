"""The ``repro serve`` HTTP front-end: submit, poll, stats, errors,
private and shared queues, auth, rate limits, SSE progress, readiness
and per-job state retention."""

import http.client
import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.service import Job, JobQueue, ResultCache, ServiceServer
from tests.conftest import pool_job_state

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""


@pytest.fixture(scope="module")
def server():
    srv = ServiceServer(workers=1, port=0, cache=ResultCache())
    srv.start()
    yield srv
    srv.close()


def _url(server, path):
    host, port = server.address
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as reply:
        return reply.status, json.loads(reply.read())


def _post(server, path, payload, headers=None):
    body = json.dumps(payload).encode("utf-8")
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    request = urllib.request.Request(
        _url(server, path), data=body, headers=all_headers)
    with urllib.request.urlopen(request, timeout=10) as reply:
        return reply.status, json.loads(reply.read())


def _poll_done(server, job_id, budget_s=60.0):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        status, reply = _get(server, f"/jobs/{job_id}")
        assert status == 200
        if reply["status"] == "done":
            return reply
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never completed")


class TestSubmitAndPoll:
    def test_full_cycle(self, server):
        status, reply = _post(server, "/jobs", {
            "jobs": [{"kind": "repair", "source": RACY,
                      "source_name": "r.hj"}]})
        assert status == 202
        assert reply["submitted"] == 1
        assert isinstance(reply["ids"][0], int)  # a private-queue id
        reply = _poll_done(server, reply["ids"][0])
        result = reply["result"]
        assert result["status"] == "ok"
        assert result["result"]["converged"]
        assert result["source_name"] == "r.hj"

    def test_single_job_body_shorthand(self, server):
        status, reply = _post(server, "/jobs",
                              {"kind": "detect", "source": RACY})
        assert status == 202
        result = _poll_done(server, reply["ids"][0])["result"]
        assert result["result"]["race_count"] == 1

    def test_error_job_reports_structured_error(self, server):
        _, reply = _post(server, "/jobs",
                         {"kind": "detect", "source": "def main( {",
                          "source_name": "bad.hj"})
        result = _poll_done(server, reply["ids"][0])["result"]
        assert result["status"] == "error"
        assert result["error"]["category"] == "parse"

    def test_repeat_submission_hits_cache(self, server):
        body = {"kind": "repair", "source": RACY, "source_name": "again.hj"}
        _, first = _post(server, "/jobs", body)
        _poll_done(server, first["ids"][0])
        _, second = _post(server, "/jobs", body)
        result = _poll_done(server, second["ids"][0])["result"]
        assert result["cached"]

    def test_stats_endpoint(self, server):
        _, reply = _post(server, "/jobs",
                         {"kind": "detect", "source": RACY})
        _poll_done(server, reply["ids"][0])
        status, stats = _get(server, "/stats")
        assert status == 200
        assert stats["workers"] == 1
        assert stats["pool"]["completed"] >= 1
        assert "hit_rate" in stats["cache"]
        assert stats["cache"]["entries"] >= 1


class TestHttpErrors:
    def _expect_error(self, server, method, path, body=None):
        if method == "GET":
            call = lambda: _get(server, path)
        else:
            call = lambda: _post(server, path, body)
        with pytest.raises(urllib.error.HTTPError) as info:
            call()
        return info.value.code, json.loads(info.value.read())

    def test_unknown_job_id_is_404(self, server):
        code, reply = self._expect_error(server, "GET", "/jobs/job-999999")
        assert code == 404
        assert "unknown job id" in reply["error"]

    def test_unknown_endpoint_is_404(self, server):
        code, _ = self._expect_error(server, "GET", "/nope")
        assert code == 404
        code, _ = self._expect_error(server, "POST", "/nope",
                                     {"kind": "detect", "source": RACY})
        assert code == 404

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/jobs"), data=b"{ not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert "invalid JSON" in json.loads(info.value.read())["error"]

    def test_bad_job_field_is_400(self, server):
        code, reply = self._expect_error(
            server, "POST", "/jobs",
            {"kind": "detect", "source": RACY, "bogus": 1})
        assert code == 400
        assert "unknown job field" in reply["error"]

    def test_missing_body_is_400(self, server):
        request = urllib.request.Request(_url(server, "/jobs"), data=b"")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_empty_batch_is_400(self, server):
        code, reply = self._expect_error(server, "POST", "/jobs",
                                         {"jobs": []})
        assert code == 400
        assert "at least one job" in reply["error"]


class TestMetricsEndpoint:
    def test_metrics_shape_after_jobs(self, server):
        _, reply = _post(server, "/jobs",
                         {"kind": "repair", "source": RACY,
                          "source_name": "metrics.hj"})
        _poll_done(server, reply["ids"][0])
        status, metrics = _get(server, "/metrics")
        assert status == 200
        phases = metrics["phases"]
        assert "detect_races" in phases
        entry = phases["detect_races"]
        for key in ("count", "mean_ms", "p50_ms", "p95_ms", "max_ms",
                    "total_s"):
            assert key in entry, key
        assert entry["count"] >= 1
        assert entry["max_ms"] >= entry["p95_ms"] >= entry["p50_ms"] > 0
        assert metrics["counters"].get("runtime.ops", 0) > 0
        assert metrics["jobs"]["completed"] >= 1
        for key in ("restarts", "timeouts", "crashes", "configured"):
            assert key in metrics["workers"], key
        assert "hits" in metrics["cache"]
        assert "entries" in metrics["cache"]

    def test_job_results_carry_timings_over_http(self, server):
        _, reply = _post(server, "/jobs",
                         {"kind": "detect", "source": RACY,
                          "source_name": "timed.hj"})
        result = _poll_done(server, reply["ids"][0])["result"]
        assert result["schema"] == 3
        assert "execute" in result["timings"]
        assert result["counters"]["detector.races"] >= 1


class TestContentLength:
    def _raw(self, server, method, path, body=None):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(method, path, body=body)
            reply = conn.getresponse()
            payload = reply.read()
            return reply.status, reply.getheader("Content-Length"), payload
        finally:
            conn.close()

    def test_success_responses_declare_length(self, server):
        for path in ("/stats", "/metrics"):
            status, length, payload = self._raw(server, "GET", path)
            assert status == 200
            assert length is not None and int(length) == len(payload)

    def test_handler_errors_declare_length(self, server):
        status, length, payload = self._raw(server, "GET", "/nope")
        assert status == 404
        assert length is not None and int(length) == len(payload)
        assert json.loads(payload)["error"]

    def test_http_server_errors_are_json_with_length(self, server):
        # An unsupported method never reaches do_GET/do_POST: the base
        # class answers through send_error, which must also emit JSON
        # with an explicit Content-Length.
        status, length, payload = self._raw(server, "PUT", "/jobs")
        assert status == 501
        assert length is not None and int(length) == len(payload)
        assert "error" in json.loads(payload)


class TestHealthz:
    def test_ready_private_queue(self, server):
        status, reply = _get(server, "/healthz")
        assert status == 200
        assert reply["status"] == "ok"
        assert reply["workers"]["alive"] >= 1
        assert reply["queue"]["reachable"]
        assert reply["queue"]["path"] == server.queue.path
        assert os.path.exists(server.queue.path)

    def test_unreachable_queue_is_503(self, tmp_path):
        srv = ServiceServer(workers=1, port=0, cache=ResultCache(),
                            queue=str(tmp_path / "q.db"), node_id="hz")
        srv.start()
        try:
            status, reply = _get(srv, "/healthz")
            assert status == 200 and reply["queue"]["reachable"]
            # Point the queue somewhere unopenable: fresh handler threads
            # fail to connect, so readiness must flip to 503.
            srv.queue.path = str(tmp_path)  # a directory, not a database
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(srv, "/healthz")
            assert info.value.code == 503
            payload = json.loads(info.value.read())
            assert payload["status"] == "unavailable"
            assert "queue" in payload["failing"]
        finally:
            srv.queue.path = str(tmp_path / "q.db")
            srv.close()


@pytest.fixture(scope="module")
def auth_server():
    srv = ServiceServer(workers=1, port=0, cache=ResultCache(),
                        auth_token="sesame")
    srv.start()
    yield srv
    srv.close()


class TestAuth:
    BODY = {"kind": "detect", "source": RACY}

    def _denied(self, srv, headers):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(srv, "/jobs", self.BODY, headers=headers)
        return info.value.code, json.loads(info.value.read())

    def test_missing_token_is_401(self, auth_server):
        code, reply = self._denied(auth_server, None)
        assert code == 401
        assert "bearer" in reply["error"].lower()

    def test_wrong_token_is_401(self, auth_server):
        code, _ = self._denied(
            auth_server, {"Authorization": "Bearer wrong"})
        assert code == 401

    def test_wrong_scheme_is_401(self, auth_server):
        code, _ = self._denied(
            auth_server, {"Authorization": "Basic sesame"})
        assert code == 401

    def test_valid_token_is_accepted(self, auth_server):
        status, reply = _post(auth_server, "/jobs", self.BODY,
                              headers={"Authorization": "Bearer sesame"})
        assert status == 202
        _poll_done(auth_server, reply["ids"][0])

    def test_read_endpoints_stay_open(self, auth_server):
        for path in ("/stats", "/metrics", "/healthz"):
            status, _ = _get(auth_server, path)
            assert status == 200, path

    def test_stats_reports_auth_required(self, auth_server):
        _, stats = _get(auth_server, "/stats")
        assert stats["auth"]["required"]


class TestRateLimit:
    def test_tenant_bucket_empties_to_429(self):
        srv = ServiceServer(workers=1, port=0, cache=ResultCache(),
                            rate_limit=0.001, rate_burst=2)
        srv.start()
        try:
            body = {"kind": "detect", "source": RACY}
            headers = {"X-Tenant": "alice"}
            for _ in range(2):
                status, _ = _post(srv, "/jobs", body, headers=headers)
                assert status == 202
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(srv, "/jobs", body, headers=headers)
            assert info.value.code == 429
            # Another tenant has its own bucket.
            status, _ = _post(srv, "/jobs", body,
                              headers={"X-Tenant": "bob"})
            assert status == 202
            _, stats = _get(srv, "/stats")
            assert stats["rate_limiter"]["rejected"] >= 1
            assert stats["rate_limiter"]["tenants"] >= 2
        finally:
            srv.close()


@pytest.fixture(scope="module")
def queue_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("queue-server")
    srv = ServiceServer(workers=1, port=0,
                        cache=ResultCache(str(root / "cache")),
                        queue=str(root / "q.db"), node_id="srv-node",
                        lease_s=30.0)
    srv.start()
    yield srv
    srv.close()


class TestQueueMode:
    def test_submission_lands_in_queue_and_completes(self, queue_server):
        status, reply = _post(queue_server, "/jobs", {
            "kind": "repair", "source": RACY, "source_name": "q.hj"})
        assert status == 202
        job_id = reply["ids"][0]
        assert isinstance(job_id, int)
        done = _poll_done(queue_server, job_id)
        assert done["queue_state"] == "done"
        assert done["attempts"] == 1
        assert done["result"]["status"] == "ok"
        assert done["result"]["result"]["converged"]

    def test_poll_carries_queue_extras(self, queue_server):
        _, reply = _post(queue_server, "/jobs",
                         {"kind": "detect", "source": RACY})
        reply = _poll_done(queue_server, reply["ids"][0])
        assert reply["queue_state"] in ("done",)
        assert reply["attempts"] >= 1

    def test_tenant_recorded_on_queue_rows(self, queue_server):
        _, reply = _post(queue_server, "/jobs",
                         {"kind": "detect", "source": RACY},
                         headers={"X-Tenant": "class-2026"})
        job_id = reply["ids"][0]
        _poll_done(queue_server, job_id)
        row = queue_server.queue.status(job_id)
        assert row["tenant"] == "tenant:class-2026"

    def test_metrics_carry_queue_and_node_blocks(self, queue_server):
        _, reply = _post(queue_server, "/jobs",
                         {"kind": "detect", "source": RACY})
        _poll_done(queue_server, reply["ids"][0])
        _, metrics = _get(queue_server, "/metrics")
        assert metrics["queue"]["done"] >= 1
        assert metrics["node"]["node_id"] == "srv-node"
        assert metrics["node"]["completed"] >= 1
        assert "evictions" in metrics["cache"]

    def test_unknown_queue_id_is_404(self, queue_server):
        for bogus in ("999999", "not-a-number"):
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(queue_server, f"/jobs/{bogus}")
            assert info.value.code == 404


def _read_sse(server, path, timeout=60.0):
    """Collect a whole SSE stream as ``[(event, data_dict), ...]``."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        assert reply.status == 200
        assert reply.getheader("Content-Type") == "text/event-stream"
        raw = reply.read().decode("utf-8")  # stream ends when job does
    finally:
        conn.close()
    events = []
    for block in raw.split("\n\n"):
        name, data = None, None
        for line in block.splitlines():
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if name is not None:
            events.append((name, data))
    return events


class TestEventStream:
    def test_full_lifecycle_events(self, queue_server):
        _, reply = _post(queue_server, "/jobs", {
            "kind": "repair", "source": RACY, "source_name": "sse.hj"})
        job_id = reply["ids"][0]
        events = _read_sse(queue_server, f"/jobs/{job_id}/events")
        names = [name for name, _ in events]
        assert names[0] == "status"
        assert names[-1] == "result"
        statuses = [data["status"] for name, data in events
                    if name == "status"]
        assert statuses[-1] == "done"
        phases = {data["phase"]: data["ms"] for name, data in events
                  if name == "phase"}
        assert "repair" in phases and "execute" in phases
        assert all(ms >= 0 for ms in phases.values())
        final = events[-1][1]["result"]
        assert final["status"] == "ok"
        assert final["source_name"] == "sse.hj"

    def test_stream_after_completion_replays_result(self, queue_server):
        _, reply = _post(queue_server, "/jobs",
                         {"kind": "detect", "source": RACY})
        job_id = reply["ids"][0]
        _poll_done(queue_server, job_id)
        events = _read_sse(queue_server, f"/jobs/{job_id}/events")
        assert events[0][0] == "status"
        assert events[0][1]["status"] == "done"
        assert events[-1][0] == "result"

    def test_events_for_unknown_job_404(self, queue_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(queue_server, "/jobs/424242/events")
        assert info.value.code == 404

    def test_private_queue_streams_too(self, server):
        _, reply = _post(server, "/jobs",
                         {"kind": "detect", "source": RACY,
                          "source_name": "pool-sse.hj"})
        events = _read_sse(server, f"/jobs/{reply['ids'][0]}/events")
        assert events[-1][0] == "result"
        assert events[-1][1]["result"]["result"]["race_count"] == 1


class TestPrivateQueue:
    def test_close_deletes_the_private_queue(self):
        srv = ServiceServer(workers=1, port=0)
        srv.start()
        directory = os.path.dirname(srv.queue.path)
        _, reply = _post(srv, "/jobs", {"kind": "detect", "source": RACY})
        _poll_done(srv, reply["ids"][0])
        srv.close()
        assert not os.path.exists(directory)

    def test_shared_queue_survives_close(self, tmp_path):
        path = str(tmp_path / "q.db")
        srv = ServiceServer(workers=1, port=0, queue=path)
        srv.start()
        _, reply = _post(srv, "/jobs", {"kind": "detect", "source": RACY})
        _poll_done(srv, reply["ids"][0])
        srv.close()
        assert JobQueue(path).result(reply["ids"][0]).status == "ok"


class TestNoPerJobRetention:
    @pytest.mark.parametrize("shared", [False, True])
    def test_drained_server_holds_no_job_state(self, tmp_path, shared):
        # A long-lived node keeps each result in one place -- the queue
        # row -- and nothing per job in its pool.
        queue = str(tmp_path / "q.db") if shared else None
        srv = ServiceServer(workers=2, port=0, queue=queue,
                            cache=ResultCache())
        srv.start()
        try:
            sources = [RACY.replace("x = 1", f"x = {n}") for n in range(4)]
            sources += sources[:2]  # repeats: cache hits / coalesced
            _, reply = _post(srv, "/jobs", {"jobs": [
                {"kind": "detect", "source": source} for source in sources]})
            for job_id in reply["ids"]:
                assert _poll_done(srv, job_id)["result"]["status"] == "ok"
            state = pool_job_state(srv.pool)
            assert not any(state.values()), state
            assert srv.node.stats_snapshot()["in_flight"] == 0
            assert len(srv.pool.cache) == 4
        finally:
            srv.close()
