"""The load generator: keep-alive HTTP clients driving ``POST /jobs`` and
``GET /jobs/<id>``.

At most :data:`CLIENTS` threads, each holding one keep-alive connection.

* Closed loop (:func:`closed_loop`): each client submits a job, polls it
  to completion, then submits the next, until the window ends.  A job's
  latency runs from the start of its submission to the poll that saw it
  done.
* Open loop (:func:`open_loop`): arrivals are due on a fixed schedule
  whatever the service does.  Both clients submit every arrival that is
  due before polling anything, so a slow service builds a backlog
  instead of slowing the offered load.  Latency runs from the arrival's
  *due* time, so a stall also charges the wait it imposes on the
  arrivals behind it, and generator lag (send time minus due time) is
  recorded per job.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from workloads import Arrival, JobSpec

CLIENTS = 2
#: minimum gap between two polls of the same job.
POLL_INTERVAL_S = 0.01
#: a job not done this long after it was due counts as failed.
JOB_TIMEOUT_S = 45.0


class JobRecord:
    """Everything the client saw of one job."""

    __slots__ = ("spec", "due", "sent", "queue_id", "polls",
                 "last_poll", "done", "result", "result_bytes", "error",
                 "refused", "post_span", "report_encode_s", "report_bytes")

    def __init__(self, spec: JobSpec, due: float) -> None:
        self.spec = spec
        self.due = due
        self.sent: Optional[float] = None
        self.queue_id: Optional[str] = None
        #: (start, end) of every GET of this job.
        self.polls: List[tuple] = []
        self.last_poll = 0.0
        self.done: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.result_bytes = 0
        self.error: Optional[str] = None
        self.refused = False
        #: (start, end, job count) of the POST that carried this job.
        self.post_span: Optional[tuple] = None
        #: race-report encoding cost, measured by a traced run's digest.
        self.report_encode_s = 0.0
        self.report_bytes = 0

    @property
    def latency_s(self) -> Optional[float]:
        return None if self.done is None else self.done - self.due

    @property
    def lag_s(self) -> float:
        return 0.0 if self.sent is None else max(0.0, self.sent - self.due)

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


class Client:
    """One keep-alive connection, reopened after a transport error."""

    def __init__(self, address, digest: Callable[[JobRecord], None]
                 ) -> None:
        self.address = address
        self.digest = digest
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None):
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    *self.address, timeout=JOB_TIMEOUT_S)
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    # -- protocol ------------------------------------------------------

    def submit(self, records: Sequence[JobRecord]) -> None:
        body = json.dumps({"jobs": [r.spec.wire() for r in records]}
                          ).encode("utf-8")
        start = time.monotonic()
        for record in records:
            record.sent = start
        try:
            status, data = self.request("POST", "/jobs", body)
        except (OSError, http.client.HTTPException) as error:
            status, data = None, repr(error).encode()
        end = time.monotonic()
        for index, record in enumerate(records):
            record.post_span = (start, end, len(records))
            if status != 202:
                record.refused = status == 429 or (status or 500) >= 500
                record.error = f"submit answered {status}: {data[:200]!r}"
                record.done = end
                continue
            record.queue_id = str(json.loads(data)["ids"][index])

    def poll(self, record: JobRecord) -> bool:
        """One GET; True once the job is finished (or failed)."""
        start = time.monotonic()
        try:
            status, data = self.request("GET", f"/jobs/{record.queue_id}")
        except (OSError, http.client.HTTPException) as error:
            status, data = None, repr(error).encode()
        end = time.monotonic()
        record.polls.append((start, end))
        record.last_poll = end
        if status != 200:
            record.refused = status == 429 or (status or 500) >= 500
            record.error = f"poll answered {status}: {data[:200]!r}"
            record.done = end
            return True
        payload = json.loads(data)
        if payload["status"] != "done":
            if end - record.due > JOB_TIMEOUT_S:
                record.error = "timed out"
                record.done = end
                return True
            return False
        record.done = end
        record.result_bytes = len(data)
        result = payload.get("result")
        if result is None or result.get("status") != "ok":
            record.error = f"job failed: {json.dumps(result)[:300]}"
        record.result = result
        self.digest(record)
        return True


def warm_up(address, jobs: List[JobSpec], digest) -> List[JobRecord]:
    """Submit ``jobs`` in one batch and poll until all are done."""
    client = Client(address, digest)
    now = time.monotonic()
    records = [JobRecord(spec, now) for spec in jobs]
    try:
        client.submit(records)
        for record in records:
            while record.done is None and not client.poll(record):
                time.sleep(POLL_INTERVAL_S)
    finally:
        client.close()
    return records


def closed_loop(address, jobs: List[JobSpec], seconds: float, digest
                ) -> List[JobRecord]:
    """CLIENTS clients, each running one job at a time until the window
    ends; jobs in flight at the end are awaited."""
    lock = threading.Lock()
    feed = iter(jobs)
    records: List[JobRecord] = []
    deadline = time.monotonic() + seconds

    def run() -> None:
        client = Client(address, digest)
        try:
            while time.monotonic() < deadline:
                with lock:
                    spec = next(feed, None)
                if spec is None:
                    return
                record = JobRecord(spec, time.monotonic())
                with lock:
                    records.append(record)
                client.submit([record])
                while record.done is None:
                    if client.poll(record):
                        break
                    time.sleep(POLL_INTERVAL_S)
        finally:
            client.close()

    _run_threads(run)
    return records


def open_loop(address, arrivals: List[Arrival], start: float, digest
              ) -> List[JobRecord]:
    """Submit every arrival at ``start + due``; poll outstanding jobs in
    between.  Returns when every job is done or has timed out."""
    lock = threading.Lock()
    pending = deque(arrivals)
    outstanding: deque = deque()
    records: List[JobRecord] = []

    def run() -> None:
        client = Client(address, digest)
        try:
            while True:
                now = time.monotonic()
                batch = None
                record = None
                with lock:
                    if pending and start + pending[0].due <= now:
                        arrival = pending.popleft()
                        batch = [JobRecord(spec, start + arrival.due)
                                 for spec in arrival.jobs]
                        records.extend(batch)
                    elif outstanding and (
                            now - outstanding[0].last_poll
                            >= POLL_INTERVAL_S):
                        record = outstanding.popleft()
                    elif not pending and not outstanding:
                        return
                    wake = start + pending[0].due if pending else now + 1
                if batch is not None:
                    client.submit(batch)
                    with lock:
                        outstanding.extend(r for r in batch
                                           if r.done is None)
                elif record is not None:
                    if not client.poll(record):
                        with lock:
                            outstanding.append(record)
                else:
                    time.sleep(max(0.0, min(wake - time.monotonic(),
                                            POLL_INTERVAL_S / 2)))
        finally:
            client.close()

    _run_threads(run)
    return records


def _run_threads(target) -> None:
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as error:  # reported after join
            errors.append(error)
            raise

    threads = [threading.Thread(target=guarded, name=f"perfbench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"client thread failed: {errors[0]!r}")
