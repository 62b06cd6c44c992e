"""The event-driven job path: every hop of a job — HTTP response, queue
node, worker pool — wakes on an event, not on a timer.

Covers response framing (one write per response, ``TCP_NODELAY``), the
wake paths a pure poller cannot pass, the ``poll_s`` fallback for work
queued by another process, the pool's self-pipe lifecycle, and the
verbatim ``GET /jobs/<id>`` body built around stored result text."""

import http.client
import json
import os
import socket
import sqlite3
import statistics
import time

import pytest

from repro.service import (Job, JobQueue, JobResult, ServiceServer,
                           WorkerPool)
from repro.service.server import ServiceHandler

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""


def _request(conn, method, path, body=None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    reply = conn.getresponse()
    return reply.status, reply.read()


def _wait_done(conn, job_id, budget_s):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        status, data = _request(conn, "GET", f"/jobs/{job_id}")
        assert status == 200
        reply = json.loads(data)
        if reply["status"] == "done":
            return reply
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} not done within {budget_s} s")


def _submit(conn, job):
    status, data = _request(conn, "POST", "/jobs",
                            json.dumps(job).encode("utf-8"))
    assert status == 202
    return json.loads(data)["ids"][0]


# ----------------------------------------------------------------------
# Wake paths
# ----------------------------------------------------------------------

class TestWakePaths:
    def test_posted_job_finishes_without_waiting_for_polls(self, tmp_path):
        # Both timers are set far beyond the budget: only the wake
        # events (POST -> node, node -> pool, pool -> node) can finish
        # the job in time.
        srv = ServiceServer(workers=1, port=0, queue=str(tmp_path / "q.db"),
                            node_id="wake")
        srv.node.poll_s = 5.0
        srv.pool.poll_interval_s = 5.0
        srv.start()
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            time.sleep(0.2)  # let both loops settle into their waits
            start = time.monotonic()
            job_id = _submit(conn, {"kind": "detect", "source": RACY})
            reply = _wait_done(conn, job_id, budget_s=5.0)
            elapsed = time.monotonic() - start
            assert reply["result"]["status"] == "ok"
            assert elapsed < 1.0, f"took {elapsed:.3f} s"
        finally:
            conn.close()
            srv.close()

    def test_job_from_another_queue_handle_uses_poll_fallback(self,
                                                              tmp_path):
        path = str(tmp_path / "q.db")
        srv = ServiceServer(workers=1, port=0, queue=path, node_id="poll")
        srv.node.poll_s = 0.1
        srv.start()
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            # A second handle: the server's node is never notified.
            other = JobQueue(path)
            job_id = other.submit(Job("detect", RACY, source_name="o.hj"))
            reply = _wait_done(conn, job_id, budget_s=30.0)
            assert reply["result"]["status"] == "ok"
            assert reply["result"]["source_name"] == "o.hj"
            other.close()
        finally:
            conn.close()
            srv.close()

    def test_pool_dispatches_on_submit(self):
        pool = WorkerPool(workers=1, poll_interval_s=5.0).start()
        try:
            time.sleep(0.1)  # the dispatcher is now in its 5 s wait
            start = time.monotonic()
            job_id = pool.submit(Job("detect", RACY))
            item = pool.next_completed(timeout=5.0)
            assert item is not None and item[0] == job_id
            assert time.monotonic() - start < 1.0
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# Framing and hygiene
# ----------------------------------------------------------------------

class _RecordingWriter:
    """Stands in for a handler's ``wfile``, logging every write."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _recording_handler(writes, nodelay):
    class RecordingHandler(ServiceHandler):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            self.wfile = _RecordingWriter(self.wfile, writes)

    return RecordingHandler


def _parse_response(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


@pytest.fixture()
def recorded_server(tmp_path):
    writes, nodelay = [], []
    srv = ServiceServer(workers=1, port=0, queue=str(tmp_path / "q.db"),
                        node_id="framing")
    srv.httpd.RequestHandlerClass = _recording_handler(writes, nodelay)
    srv.start()
    yield srv, writes, nodelay
    srv.close()


class TestFraming:
    def test_every_response_is_one_write(self, recorded_server):
        srv, writes, nodelay = recorded_server
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            job_id = _submit(conn, {"kind": "detect", "source": RACY})
            _wait_done(conn, job_id, budget_s=30.0)
            requests = [("GET", "/healthz", None), ("GET", "/stats", None),
                        ("GET", "/metrics", None),
                        ("GET", "/metrics?format=prometheus", None),
                        ("GET", "/nope", None), ("GET", "/jobs/999", None),
                        ("POST", "/jobs", b"{not json"),
                        ("PUT", "/jobs", None)]
            del writes[:]
            for method, path, body in requests:
                _request(conn, method, path, body)
            _request(conn, "GET", f"/jobs/{job_id}")
        finally:
            conn.close()
        assert len(writes) == len(requests) + 1
        statuses = []
        for raw in writes:
            status, headers, body = _parse_response(raw)
            assert int(headers["Content-Length"]) == len(body)
            json_like = headers["Content-Type"].startswith(
                "application/json")
            if json_like:
                json.loads(body)
            statuses.append(status)
        assert statuses == [200, 200, 200, 200, 404, 404, 400, 501, 200]
        assert nodelay and all(nodelay)

    def test_keepalive_healthz_is_fast(self, recorded_server):
        srv, _writes, _nodelay = recorded_server
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            timings = []
            for _ in range(20):
                start = time.perf_counter()
                status, _ = _request(conn, "GET", "/healthz")
                timings.append((time.perf_counter() - start) * 1000.0)
                assert status == 200
        finally:
            conn.close()
        # A headers-then-body pair of writes stalls ~40 ms on Nagle plus
        # the client's delayed ACK.
        assert statistics.median(timings) < 10.0, timings


def _raw_post(address, content_length):
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: " + content_length + b"\r\n\r\n"
                     b"{}")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse_response(b"".join(chunks))


class TestContentLengthValidation:
    @pytest.mark.parametrize("value", [b"abc", b"-5", b"1.5"])
    def test_bad_content_length_is_400_json(self, recorded_server, value):
        srv, _writes, _nodelay = recorded_server
        status, headers, body = _raw_post(srv.address, value)
        assert status == 400
        # The body's extent is unknown, so the connection cannot be
        # reused.
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        assert "error" in json.loads(body)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
class TestPoolWakeSocket:
    def test_wake_socketpair_closed_on_shutdown(self):
        pool = WorkerPool(workers=1).start()
        wake = (pool._wake_r, pool._wake_w)
        assert all(sock.fileno() >= 0 for sock in wake)
        pool.shutdown()
        assert all(sock.fileno() == -1 for sock in wake)

    def test_open_fds_stable_across_cycles(self):
        counts = []
        for _ in range(5):
            pool = WorkerPool(workers=2).start()
            pool.submit(Job("detect", RACY))
            assert pool.next_completed(timeout=30.0) is not None
            pool.shutdown()
            counts.append(_open_fds())
        assert len(set(counts[1:])) == 1, counts


# ----------------------------------------------------------------------
# Verbatim result bodies
# ----------------------------------------------------------------------

def _reencoded_body(queue, queue_id):
    """The body ``GET /jobs/<id>`` sent before results were served
    verbatim: decode the row, rebuild the JobResult, re-encode."""
    row = queue.status(queue_id)
    result = queue.result(queue_id)
    return json.loads(json.dumps({
        "id": str(queue_id), "status": "done",
        "result": result.to_dict(), "queue_state": row["state"],
        "attempts": row["attempts"]}, sort_keys=True))


def _results():
    job = Job("detect", RACY, source_name="r.hj")
    ok = JobResult.ok(job, {"race_count": 1, "summary": "1 race",
                            "races": [{"address": "x", "kind": "ww"}],
                            "text": "quote \" and unicode é"}, 0.25)
    ok.timings = {"execute": 0.1, "detect": 0.05}
    ok.counters = {"detector.races": 1}
    ok.trace_id = "ab" * 16
    error = JobResult.failure(job, ValueError("boom"), 0.01)
    cached = JobResult.ok(job, {"race_count": 0}, 0.0)
    cached.cached = True
    coalesced = JobResult.ok(job, {"race_count": 2}, 0.0)
    coalesced.coalesced = True
    return {"ok": ok, "error": error, "cached": cached,
            "coalesced": coalesced}


@pytest.fixture()
def filled_queue(tmp_path):
    path = str(tmp_path / "q.db")
    queue = JobQueue(path)
    ids = {}
    for name, result in _results().items():
        queue_id = queue.submit(Job("detect", RACY, source_name=name))
        claimed = queue.claim("filler")
        assert claimed[0] == queue_id
        assert queue.complete(queue_id, "filler", result)
        ids[name] = queue_id
    srv = ServiceServer(workers=1, port=0, queue=path, node_id="splice")
    srv.start()
    yield srv, queue, ids
    srv.close()
    queue.close()


class TestVerbatimResults:
    def test_body_parses_equal_to_reencoded(self, filled_queue):
        srv, queue, ids = filled_queue
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            for name, queue_id in ids.items():
                status, data = _request(conn, "GET", f"/jobs/{queue_id}")
                assert status == 200, name
                assert json.loads(data) == _reencoded_body(queue, queue_id)
        finally:
            conn.close()

    def test_stored_bytes_are_served_verbatim(self, filled_queue):
        srv, queue, ids = filled_queue
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            for queue_id in ids.values():
                stored = queue.result_json(queue_id)
                assert json.loads(stored) == \
                    queue.result(queue_id).to_dict()
                _status, data = _request(conn, "GET", f"/jobs/{queue_id}")
                assert b'"result": ' + stored + b"}" in data
        finally:
            conn.close()

    def test_legacy_sorted_row_is_reencoded(self, filled_queue):
        srv, queue, ids = filled_queue
        queue_id = ids["ok"]
        legacy = json.dumps(queue.result(queue_id).to_dict(),
                            sort_keys=True)
        with sqlite3.connect(queue.path) as db:
            db.execute("UPDATE jobs SET result_json = ? WHERE id = ?",
                       (legacy, queue_id))
        assert json.loads(queue.result_json(queue_id)) == json.loads(legacy)
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            status, data = _request(conn, "GET", f"/jobs/{queue_id}")
        finally:
            conn.close()
        assert status == 200
        assert json.loads(data) == _reencoded_body(queue, queue_id)

    def test_foreign_schema_is_rejected(self, filled_queue):
        srv, queue, ids = filled_queue
        queue_id = ids["error"]
        foreign = queue.result(queue_id).to_dict()
        foreign["schema"] = JobResult.SCHEMA + 1
        with sqlite3.connect(queue.path) as db:
            db.execute("UPDATE jobs SET result_json = ? WHERE id = ?",
                       (json.dumps(foreign), queue_id))
        with pytest.raises(ValueError, match="schema"):
            queue.result_json(queue_id)
        with pytest.raises(ValueError, match="schema"):
            queue.result(queue_id)
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            status, data = _request(conn, "GET", f"/jobs/{queue_id}")
        finally:
            conn.close()
        assert status == 500
        assert "schema" in json.loads(data)["error"]
