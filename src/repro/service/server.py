"""``repro serve`` — the HTTP front-end over the durable job queue.

Every job goes through a :class:`~repro.service.queue.JobQueue` and is
executed by this process's :class:`~repro.service.node.QueueWorker`
(and, on a shared queue, by any other node).  With ``--queue`` the
queue is that shared file; without it the server opens a private queue
in a temporary directory and deletes it on close.  A job's result lives
in its queue row, and only there.

Endpoints, JSON in and out (SSE for the event stream):

``POST /jobs``
    Submit a batch.  Body: ``{"jobs": [<job dict>, ...]}`` (or a single
    job dict); each job dict is :meth:`repro.service.jobs.Job.to_dict`
    shaped — ``kind`` and ``source`` required, everything else optional.
    Response: ``{"ids": [...], "submitted": N}``, HTTP 202; the ids are
    queue ids (integers).  Mutating endpoints honour ``--auth-token``
    (401 without the matching ``Authorization: Bearer``) and the
    per-tenant token-bucket rate limit (429 when a tenant's bucket is
    empty).

``GET /jobs/<id>``
    Poll one job: ``{"id", "status": queued|running|done,
    "queue_state": queued|leased|done|failed|cancelled, "attempts",
    "result": <JobResult dict> | null}``; 404 for an unknown id.

``GET /jobs/<id>/events``
    Server-sent events (``text/event-stream``): a ``status`` event per
    state transition, then — on completion — one ``phase`` event per
    pipeline phase the job's telemetry spans recorded (name + total
    milliseconds), a final ``result`` event with the full JobResult, and
    stream end.  ``curl -N`` renders live progress.

``GET /healthz``
    Readiness for load balancers: 200 with ``{"status": "ok"}`` when
    the queue answers and at least one worker process is alive; 503
    with the failing component otherwise.

``GET /stats``, ``GET /metrics``
    Pool throughput / telemetry aggregation, as before, extended with
    queue state counts, node lease counters and rate-limiter counters.
    Snapshots are taken under the pool lock — the completion path
    mutates the stats dicts with the lock held.

Every non-stream response, including handler- and ``http.server``-
generated errors, is JSON with an explicit ``Content-Length``
(keep-alive clients depend on it); the SSE stream is the one
``Connection: close`` path.  Each such response — status line, headers
and body — leaves in a single socket write, and accepted sockets set
``TCP_NODELAY``: with headers and body as two small writes, Nagle's
algorithm holds the body until the client ACKs the headers, and the
client's delayed ACK adds ~40 ms to every request.  A finished job's
``GET /jobs/<id>`` body is built around the stored result text
(:meth:`JobQueue.result_json`), never decoded and re-encoded.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from .. import telemetry
from .auth import RateLimiter, check_bearer, tenant_of
from .cache import ResultCache
from .jobs import Job, JobResult
from .node import QueueWorker
from .pool import WorkerPool
from .queue import JobQueue

#: refuse request bodies beyond this many bytes (a submission of the
#: whole student corpus is ~100 KiB; 16 MiB is generous headroom).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: SSE polling cadence and hard stream bound (a watchdog against
#: orphaned streams; clients re-connect).
EVENTS_POLL_S = 0.05
EVENTS_MAX_S = 3600.0

#: queue state → the public job-status vocabulary.
_QUEUE_STATUS = {"queued": "queued", "leased": "running", "done": "done",
                 "failed": "done", "cancelled": "done"}


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's queue via ``self.server``."""

    server_version = "repro-serve/2.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket (see the module docstring).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    @property
    def queue(self) -> JobQueue:
        return self.server.queue  # type: ignore[attr-defined]

    @property
    def service(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send_body(self, status: int, *parts: bytes,
                   content_type: str = "application/json") -> None:
        """Send one complete response, whose body is ``parts`` joined,
        in a single write: the ``end_headers``/``flush_headers`` pair of
        ``http.server`` with the body appended before the one
        ``wfile.write``."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(sum(map(len, parts))))
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
        head = getattr(self, "_headers_buffer", [])
        self._headers_buffer = []
        self.wfile.write(b"".join(head + list(parts)))

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_body(status,
                        json.dumps(payload, sort_keys=True).encode("utf-8"))

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8"
                   ) -> None:
        self._send_body(status, text.encode("utf-8"),
                        content_type=content_type)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Replace ``http.server``'s HTML error pages (malformed request
        line, unsupported method, ...) with the same JSON-plus-explicit-
        Content-Length shape every other response uses."""
        short = message
        if not short:
            short, _ = self.responses.get(code, ("error", ""))
        self._send_json(code, {"error": short})

    def _read_body(self) -> Optional[bytes]:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        # A body left unread (bad or oversize length) would be parsed as
        # the next request on this keep-alive connection: close it.
        if length < 0:
            self.close_connection = True
            self._error(400, f"invalid Content-Length {declared!r}")
            return None
        if length == 0:
            self._error(400, "a JSON request body is required")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    def _gate_mutation(self) -> Optional[str]:
        """Auth + rate-limit check for mutating endpoints.  Returns the
        tenant identity when the request may proceed, ``None`` after an
        error response has been sent."""
        service = self.service
        if not check_bearer(self.headers.get("Authorization"),
                            service.auth_token):
            self._error(401, "missing or invalid bearer token")
            return None
        tenant = tenant_of(self.headers, self.client_address[0],
                           service.auth_token)
        if not service.rate_limiter.allow(tenant):
            self._error(429, "rate limit exceeded for this tenant")
            return None
        return tenant

    # -- routes --------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if self.path.rstrip("/") != "/jobs":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        tenant = self._gate_mutation()
        if tenant is None:
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body)
        except ValueError as error:
            self._error(400, f"invalid JSON: {error}")
            return
        if isinstance(payload, dict) and "jobs" in payload:
            entries = payload["jobs"]
        elif isinstance(payload, dict):
            entries = [payload]
        else:
            entries = payload
        if not isinstance(entries, list) or not entries:
            self._error(400, "expected {'jobs': [...]} with at least one job")
            return
        jobs: List[Job] = []
        for index, entry in enumerate(entries):
            try:
                jobs.append(Job.from_dict(entry))
            except (TypeError, ValueError) as error:
                self._error(400, f"job #{index}: {error}")
                return
        # Mint a trace context per job (unless the submitter sent one):
        # the submit span below is the root every downstream hop —
        # queue.wait, pool.wait, the worker's phases — parents to.
        submitted_at = time.time()
        for job in jobs:
            if telemetry.TraceContext.from_dict(job.trace) is None:
                job.trace = telemetry.TraceContext.mint().to_dict()
        ids = [self.queue.submit(job, tenant=tenant) for job in jobs]
        self.service.node.notify()  # claim now, not at the next poll
        log = telemetry.get_tracelog()
        if log is not None:
            done = time.time()
            for job, job_id in zip(jobs, ids):
                trace = telemetry.TraceContext.from_dict(job.trace)
                try:
                    log.span("submit", submitted_at, done, trace.trace_id,
                             span_id=trace.span_id, job=job.source_name,
                             job_id=str(job_id), tenant=tenant)
                except Exception:  # pragma: no cover - tracing is best-effort
                    pass
        self._send_json(202, {"ids": ids, "submitted": len(ids)})

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        path = parts.path.rstrip("/") or "/"
        if path == "/healthz":
            self._serve_healthz()
            return
        if path == "/stats":
            self._send_json(200, self.service.stats_snapshot())
            return
        if path == "/metrics":
            metrics = self.service.metrics_snapshot()
            fmt = (query.get("format") or ["json"])[0]
            if fmt == "prometheus":
                self._send_text(
                    200, telemetry.render_prometheus(metrics),
                    content_type="text/plain; version=0.0.4; "
                                 "charset=utf-8")
            elif fmt == "json":
                self._send_json(200, metrics)
            else:
                self._error(400, f"unknown metrics format {fmt!r}; "
                                 "expected json or prometheus")
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                self._serve_events(rest[:-len("/events")])
                return
            self._serve_job(rest)
            return
        self._error(404, f"no such endpoint: GET {self.path}")

    def _serve_healthz(self) -> None:
        healthy, payload = self.service.health_snapshot()
        self._send_json(200 if healthy else 503, payload)

    # -- job lookup ----------------------------------------------------

    def _state(self, job_id: str
               ) -> Tuple[str, Optional[int], Dict[str, Any]]:
        """``(status, queue id, extras)`` for one job; an unknown id
        reads ``("unknown", None, {})``."""
        try:
            queue_id = int(job_id)
        except ValueError:
            return "unknown", None, {}
        row = self.queue.status(queue_id)
        if row is None:
            return "unknown", None, {}
        return _QUEUE_STATUS[row["state"]], queue_id, {
            "queue_state": row["state"], "attempts": row["attempts"]}

    def _lookup(self, job_id: str
                ) -> Tuple[str, Optional[JobResult], Dict[str, Any]]:
        """``(status, result, extras)`` for one job."""
        status, queue_id, extras = self._state(job_id)
        if status != "done":
            return status, None, extras
        return status, self.queue.result(queue_id), extras

    def _serve_job(self, job_id: str) -> None:
        status, queue_id, extras = self._state(job_id)
        if status == "unknown":
            self._error(404, f"unknown job id {job_id!r}")
            return
        result: Optional[bytes] = None
        if status == "done":
            try:
                result = self.queue.result_json(queue_id)
            except ValueError as error:  # a row this version cannot read
                self._error(500, f"job {job_id}: {error}")
                return
        # Splice the result into the envelope: a finished job's result
        # is sent as stored, not decoded and re-encoded.
        envelope = {"id": job_id, "status": status}
        envelope.update(extras)
        head = json.dumps(envelope, sort_keys=True)[:-1] + ', "result": '
        self._send_body(200, head.encode("utf-8"), result or b"null", b"}")

    # -- SSE -----------------------------------------------------------

    def _emit_event(self, name: str, payload: Dict[str, Any]) -> bool:
        try:
            self.wfile.write(
                f"event: {name}\ndata: "
                f"{json.dumps(payload, sort_keys=True)}\n\n".encode("utf-8"))
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False  # client went away; stop streaming

    def _serve_events(self, job_id: str) -> None:
        """Stream one job's progress as server-sent events."""
        status, _result, _extras = self._lookup(job_id)
        if status == "unknown":
            self._error(404, f"unknown job id {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        last_status: Optional[str] = None
        deadline = time.monotonic() + EVENTS_MAX_S
        while time.monotonic() < deadline:
            status, result, extras = self._lookup(job_id)
            if status != last_status:
                last_status = status
                event: Dict[str, Any] = {"id": job_id, "status": status}
                event.update(extras)
                if not self._emit_event("status", event):
                    return
            if status == "done" and result is not None:
                # The per-phase totals the job's telemetry session
                # recorded (the same spans /metrics aggregates).
                for phase, seconds in sorted(
                        (result.timings or {}).items()):
                    if not self._emit_event("phase", {
                            "id": job_id, "phase": phase,
                            "ms": round(seconds * 1000.0, 3)}):
                        return
                self._emit_event("result",
                                 {"id": job_id, "result": result.to_dict()})
                return
            if status == "done":  # cancelled/failed rows may lack results
                self._emit_event("result", {"id": job_id, "result": None})
                return
            time.sleep(EVENTS_POLL_S)
        self._emit_event("timeout", {"id": job_id})  # pragma: no cover


class ServiceServer:
    """The queue node + HTTP listener behind ``repro serve``.

    Submissions land in a durable queue and a :class:`QueueWorker`
    attached to this server pulls from it.  ``queue`` (a path or
    :class:`JobQueue`) is shared with every other node pointed at the
    same file; without it the server makes a private queue in a
    temporary directory, which :meth:`close` deletes.
    """

    def __init__(self, workers: int = 1, host: str = "127.0.0.1",
                 port: int = 8321, cache: Optional[ResultCache] = None,
                 queue: Optional[Union[JobQueue, str]] = None,
                 node_id: Optional[str] = None,
                 lease_s: Optional[float] = None,
                 auth_token: Optional[str] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None) -> None:
        self.auth_token = auth_token
        self.rate_limiter = RateLimiter(rate_limit, rate_burst)
        self.httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self.httpd.daemon_threads = True
        self._private_dir: Optional[str] = None
        if queue is None:
            self._private_dir = tempfile.mkdtemp(prefix="repro-serve-")
            queue = os.path.join(self._private_dir, "queue.db")
        self.node = QueueWorker(queue, workers=workers, cache=cache,
                                node_id=node_id, lease_s=lease_s)
        self.queue: JobQueue = self.node.queue
        self.pool: WorkerPool = self.node.pool
        self.httpd.queue = self.queue  # type: ignore[attr-defined]
        self.httpd.service = self  # type: ignore[attr-defined]

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    # -- snapshots -----------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        snapshot = self.pool.stats_snapshot()
        snapshot["rate_limiter"] = self.rate_limiter.stats_dict()
        snapshot["auth"] = {"required": self.auth_token is not None}
        snapshot["node"] = self.node.stats_snapshot()
        return snapshot

    def metrics_snapshot(self) -> Dict[str, Any]:
        metrics = self.pool.metrics_snapshot()
        metrics["rate_limiter"] = self.rate_limiter.stats_dict()
        node = self.node.stats_snapshot()
        node.pop("queue", None)  # superseded by the gauges below
        metrics["node"] = node
        gauges = self.queue.gauges()
        metrics["queue"] = gauges.pop("depth")
        #: lease ages, retry totals and the per-process event counters
        #: (dedupe hits, expired reclaims/failures).
        metrics["queue_health"] = gauges
        return metrics

    def health_snapshot(self) -> Tuple[bool, Dict[str, Any]]:
        """(healthy?, payload) for ``GET /healthz``."""
        pool_stats = self.pool.stats_snapshot()["pool"]["workers"]
        workers_ok = pool_stats["alive"] > 0
        queue_ok = self.queue.ping()
        payload: Dict[str, Any] = {
            "workers": {"configured": pool_stats["configured"],
                        "alive": pool_stats["alive"]},
            "queue": {"reachable": queue_ok, "path": self.queue.path},
        }
        healthy = workers_ok and queue_ok
        payload["status"] = "ok" if healthy else "unavailable"
        if not healthy:
            payload["failing"] = ([] if workers_ok else ["workers"]) + \
                ([] if queue_ok else ["queue"])
        return healthy, payload

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ServiceServer":
        """Start the node and serve in a background thread (tests and
        embedding; the CLI uses :meth:`serve_forever`)."""
        self.node.start()
        thread = threading.Thread(target=self.httpd.serve_forever,
                                  name="repro-serve-http", daemon=True)
        thread.start()
        return self

    def serve_forever(self) -> None:
        self.node.start()
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop listening, then stop the node: in-flight jobs drain and
        queued ones stay in the queue.  A private queue is deleted."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.node.stop()
        if self._private_dir is not None:
            self.queue.close()
            shutil.rmtree(self._private_dir, ignore_errors=True)


def serve(workers: int = 1, host: str = "127.0.0.1", port: int = 8321,
          cache_dir: Optional[str] = None,
          cache_max_mb: Optional[float] = None,
          queue_path: Optional[str] = None,
          node_id: Optional[str] = None,
          lease_s: Optional[float] = None,
          auth_token: Optional[str] = None,
          rate_limit: Optional[float] = None,
          rate_burst: Optional[float] = None,
          trace_log: Optional[str] = None,
          announce=None) -> None:
    """Run the batch service until interrupted (the ``repro serve``
    entry point).  The first SIGINT (or a SIGTERM) shuts down
    gracefully: the listener stops, in-flight jobs drain, and the jobs
    this node had claimed but not started are released back to the
    queue — where a private queue's leftovers are deleted with it."""
    if trace_log:
        telemetry.set_tracelog(trace_log, node=node_id)
    cache = ResultCache(cache_dir, max_mb=cache_max_mb) \
        if cache_dir is not None else ResultCache()
    server = ServiceServer(workers=workers, host=host, port=port,
                           cache=cache, queue=queue_path, node_id=node_id,
                           lease_s=lease_s, auth_token=auth_token,
                           rate_limit=rate_limit, rate_burst=rate_burst)
    if announce is not None:
        host_, port_ = server.address
        extras = [f"{workers} worker(s)"]
        if queue_path:
            extras.append(f"queue at {queue_path}")
        if cache_dir:
            extras.append(f"cache at {cache_dir}")
        if auth_token:
            extras.append("bearer auth on")
        if trace_log:
            extras.append(f"trace log at {trace_log}")
        if rate_limit:
            extras.append(f"rate limit {rate_limit:g}/s per tenant")
        announce(f"repro serve: listening on http://{host_}:{port_} "
                 f"with {', '.join(extras)}")
    # serve_forever handles KeyboardInterrupt; translate SIGTERM into the
    # same graceful path when we're on the main thread.
    if threading.current_thread() is threading.main_thread():
        def _graceful(_signum, _frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _graceful)
    server.serve_forever()
