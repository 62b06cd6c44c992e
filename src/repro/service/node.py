"""A queue worker node: claim → execute on the pool → complete.

One :class:`QueueWorker` is one *node* of the distributed service tier:
it opens the shared :class:`~repro.service.queue.JobQueue`, leases jobs,
runs them on its private :class:`~repro.service.pool.WorkerPool`
(timeouts, crash containment and the content-addressed cache all come
along for free), heartbeats every in-flight lease at a third of the
lease duration, and publishes each result through the queue's fenced
``complete``.  Run N of these against one queue file — in threads,
processes or separate ``repro serve --queue`` invocations — and the
queue's lease protocol guarantees each job lands exactly once even when
nodes are SIGKILL'd mid-run (see :mod:`repro.service.queue`).

The node loop sleeps on one wake event, set by every local submission
(:meth:`QueueWorker.notify`, called by the HTTP front-end after its
``queue.submit``) and by every pool completion, so a job is claimed and
a result published the moment either happens.  ``poll_s`` is only the
fallback that notices work submitted by *other* processes — other
nodes, ``repro queue submit`` — which cannot reach this event.

Sharing the result cache across nodes is just pointing every node's
``ResultCache`` at the same store directory: the keys are content
addresses (sha256 of canonical source + semantic knobs), so a hit
computed by node A is valid verbatim on node B.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional, Tuple, Union

from .. import telemetry
from .cache import ResultCache
from .jobs import JobResult
from .pool import WorkerPool
from .queue import JobQueue


class QueueWorker:
    """Pull jobs from a shared queue onto a local worker pool.

    ``queue`` is a :class:`JobQueue` or a path to one.  ``claim_ahead``
    bounds how many leases the node holds beyond busy workers (0 keeps
    leases minimal; 1-2 hides claim latency).  ``poll_s`` is how often
    an idle node looks for work no :meth:`notify` announced.
    """

    def __init__(self, queue: Union[JobQueue, str], workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 node_id: Optional[str] = None,
                 lease_s: Optional[float] = None,
                 poll_s: float = 0.05, claim_ahead: int = 1) -> None:
        self.queue = queue if isinstance(queue, JobQueue) \
            else JobQueue(queue)
        self.lease_s = lease_s if lease_s is not None else self.queue.lease_s
        self.node_id = node_id or f"node-{os.getpid()}"
        self.poll_s = poll_s
        self.claim_ahead = max(0, claim_ahead)
        #: set by local submissions and pool completions; the node
        #: loop waits on it (``poll_s`` at most) between rounds.
        self._wake = threading.Event()
        self.pool = WorkerPool(workers=workers, cache=cache,
                               on_complete=self._wake.set)
        #: pool job id -> queue id, for every lease this node holds.
        self._in_flight: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_heartbeat = 0.0
        #: node-level counters (the ``/healthz`` and ``/stats`` extras).
        self.completed = 0
        self.lost_leases = 0
        self.released = 0
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "QueueWorker":
        """Run the node loop in a background thread (the serve mode)."""
        if self._thread is not None:
            return self
        self._export_node_env()
        self.pool.start()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-queue-node", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop claiming, drain in-flight jobs, shut the pool down.
        Leases the node still holds un-completed are released back to
        the queue (attempt refunded) rather than left to expire."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        # Let anything the pool already finished land first.
        self._drain_completions()
        self.pool.shutdown(wait=True)
        self._drain_completions()
        with self._lock:
            leftovers = list(self._in_flight.items())
            self._in_flight.clear()
        for _pool_id, queue_id in leftovers:
            if self.queue.release(queue_id, self.node_id):
                self.released += 1

    def notify(self) -> None:
        """Wake the node loop: this process just queued work."""
        self._wake.set()

    def __enter__(self) -> "QueueWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- batch mode ----------------------------------------------------

    def run_until_drained(self, batch_id: Optional[str] = None,
                          idle_timeout_s: Optional[float] = None) -> int:
        """Process jobs until the queue (or one batch) has none left
        queued or leased — by this node *or any other*; a multi-node
        batch returns when the last node finishes its last job.
        Returns how many jobs this node completed.  ``idle_timeout_s``
        bounds how long to wait on work leased elsewhere."""
        self._export_node_env()
        self.pool.start()
        completed_before = self.completed
        idle_since: Optional[float] = None
        while True:
            self._wake.clear()
            progressed = self._step()
            with self._lock:
                busy = bool(self._in_flight)
            if not busy and self.queue.unfinished(batch_id) == 0:
                break
            if progressed or busy:
                idle_since = None
            else:
                # Nothing claimable and nothing local: another node
                # holds the remaining leases.
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (idle_timeout_s is not None
                      and now - idle_since > idle_timeout_s):
                    break
            if not progressed:
                self._wake.wait(self.poll_s)
        self.pool.shutdown(wait=True)
        self._drain_completions()
        return self.completed - completed_before

    def _export_node_env(self) -> None:
        """Publish this node's id for the trace log *before* the pool
        forks, so worker-emitted records land in this node's lane.  An
        id already in the environment (the subprocess entry points set
        one) wins — never clobber another node's lane from a thread."""
        os.environ.setdefault("REPRO_NODE_ID", self.node_id)

    # -- the node loop -------------------------------------------------

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            # Clear before the round: a wake-up that lands during it
            # makes the wait below return at once.
            self._wake.clear()
            if not self._step() and not self._stop.is_set():
                self._wake.wait(self.poll_s)

    def _step(self) -> bool:
        """One scheduling round: land completions, heartbeat leases,
        claim new work.  Returns whether anything happened."""
        progressed = self._drain_completions()
        self._heartbeat_leases()
        progressed |= self._claim_ready()
        return progressed

    def _capacity(self) -> int:
        with self._lock:
            return (self.pool.workers + self.claim_ahead
                    - len(self._in_flight))

    def _claim_ready(self) -> bool:
        claimed_any = False
        while self._capacity() > 0 and not self._stop.is_set():
            item = self.queue.claim(self.node_id, lease_s=self.lease_s)
            if item is None:
                break
            queue_id, job, attempt = item
            self._trace_claim(queue_id, job, attempt)
            pool_id = self.pool.submit(job)
            with self._lock:
                self._in_flight[pool_id] = queue_id
            claimed_any = True
        return claimed_any

    def _trace_claim(self, queue_id: int, job, attempt: int) -> None:
        """Record the enqueue-to-lease wait as a ``queue.wait`` span."""
        trace = telemetry.TraceContext.from_dict(job.trace)
        log = telemetry.get_tracelog()
        if trace is None or log is None:
            return
        now = time.time()
        row = self.queue.status(queue_id)
        enqueued = (row or {}).get("enqueued_at") or now
        try:
            log.span("queue.wait", enqueued, now, trace.trace_id,
                     parent_id=trace.span_id, queue_id=queue_id,
                     attempt=attempt, node_id=self.node_id,
                     job=job.source_name)
        except Exception:  # pragma: no cover - tracing must not fail jobs
            pass

    def _heartbeat_leases(self) -> None:
        now = time.monotonic()
        if now - self._last_heartbeat < self.lease_s / 3.0:
            return
        self._last_heartbeat = now
        with self._lock:
            held = list(self._in_flight.items())
        for _pool_id, queue_id in held:
            if self.queue.heartbeat(queue_id, self.node_id,
                                    lease_s=self.lease_s):
                self.heartbeats_sent += 1
            else:
                # Lease gone: the job expired here and was re-claimed
                # elsewhere.  Keep running — the result still feeds the
                # shared cache — but completion will be fenced out.
                self.heartbeats_missed += 1
                self.lost_leases += 1

    def _drain_completions(self) -> bool:
        landed = False
        while True:
            item = self.pool.next_completed(timeout=0.0)
            if item is None:
                return landed
            pool_id, result = item
            with self._lock:
                queue_id = self._in_flight.pop(pool_id, None)
            if queue_id is None:
                continue  # not ours (defensive)
            landed = True
            self._land(queue_id, result)

    def _land(self, queue_id: int, result: JobResult) -> None:
        if result.status == "cancelled":
            # Pool-side cancellation (node shutting down): hand the job
            # back instead of consuming it with a non-answer.
            if self.queue.release(queue_id, self.node_id):
                self.released += 1
            return
        if self.queue.complete(queue_id, self.node_id, result):
            self.completed += 1
        else:
            self.lost_leases += 1

    # -- observability -------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            in_flight = len(self._in_flight)
        return {
            "node_id": self.node_id,
            "in_flight": in_flight,
            "completed": self.completed,
            "lost_leases": self.lost_leases,
            "released": self.released,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_missed": self.heartbeats_missed,
            "queue": self.queue.counts(),
        }


def _node_entry(queue_path: str, workers: int, cache_dir: Optional[str],
                node_id: str, lease_s: float,
                cache_max_mb: Optional[float] = None) -> int:
    """Run one node to drain (the subprocess entry used by the crash
    tests, ``scripts/queue_ci.py`` and the bench): a real OS process
    whose SIGKILL mid-batch is the fault the lease protocol absorbs."""
    cache = ResultCache(cache_dir, max_mb=cache_max_mb) \
        if cache_dir else None
    worker = QueueWorker(queue_path, workers=workers, cache=cache,
                         node_id=node_id, lease_s=lease_s)
    done = worker.run_until_drained()
    print(f"{node_id}: completed {done} job(s)")
    return 0


def main(argv=None) -> int:  # pragma: no cover - exercised as subprocess
    """``python -m repro.service.node --queue q.db`` — a bare node."""
    import argparse

    parser = argparse.ArgumentParser(description="repro queue worker node")
    parser.add_argument("--queue", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--cache-max-mb", type=float, default=None)
    parser.add_argument("--node-id", default=None)
    parser.add_argument("--lease", type=float, default=None)
    parser.add_argument("--trace-log", default=None,
                        help="append distributed-trace records to this "
                             "JSONL file (one per node)")
    options = parser.parse_args(argv)
    node_id = options.node_id or f"node-{os.getpid()}"
    if options.trace_log:
        telemetry.set_tracelog(options.trace_log, node=node_id)
    queue = JobQueue(options.queue)
    return _node_entry(options.queue, options.workers, options.cache_dir,
                       node_id,
                       options.lease if options.lease else queue.lease_s,
                       options.cache_max_mb)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
