"""Batch repair service: jobs, pool, cache, durable queue, HTTP server.

This subpackage turns the single-shot pipeline (one program per process,
via :mod:`repro.cli`) into a concurrent — and, with the queue tier, a
distributed and durable — job runner:

* :mod:`~repro.service.jobs` — the typed :class:`Job`/:class:`JobResult`
  model with structured JSON serialization and faithful error capture;
* :mod:`~repro.service.pool` — a multiprocessing worker pool with
  streaming results, per-job wall-clock timeouts, crash containment and
  graceful cancellation;
* :mod:`~repro.service.cache` — a content-addressed result cache keyed
  on the canonical (parse → pretty-print) source text;
* :mod:`~repro.service.store` — where cache entries live: sharded
  one-file-per-key directory stores with optional LRU size bounding,
  shared by every node pointed at the same directory (or a private
  in-process dict);
* :mod:`~repro.service.queue` — a SQLite-WAL persistent job queue with
  leases, heartbeats, retry budgets and fenced exactly-once completion;
* :mod:`~repro.service.node` — a queue worker node (claim → pool →
  complete), N of which drain one queue concurrently;
* :mod:`~repro.service.auth` — bearer-token auth and per-tenant
  token-bucket rate limiting for the HTTP front-end;
* :mod:`~repro.service.server` — the ``repro serve`` HTTP front-end
  (submit/poll/SSE progress/healthz/stats/metrics).

Typical batch use::

    from repro.service import Job, ResultCache, run_batch
    jobs = [Job("repair", source, source_name=name, args=(40,))
            for name, source in corpus]
    for job_id, job, result in run_batch(jobs, workers=4,
                                         cache=ResultCache()):
        print(result.describe())

Typical multi-node use: ``repro queue submit`` + N × ``repro serve
--queue`` against one queue file (see DESIGN.md §13).
"""

from .auth import RateLimiter, TokenBucket, check_bearer, tenant_of
from .cache import CacheStats, ResultCache, canonical_source
from .jobs import JOB_KINDS, Job, JobResult, run_job
from .node import QueueWorker
from .pool import PoolStats, WorkerPool, run_batch
from .queue import (
    JobQueue,
    QueueError,
    batch_dedupe_key,
    derive_batch_id,
)
from .server import ServiceServer, serve
from .store import CacheStore, DirectoryStore, MemoryStore, open_store

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobResult",
    "run_job",
    "CacheStats",
    "ResultCache",
    "canonical_source",
    "CacheStore",
    "DirectoryStore",
    "MemoryStore",
    "open_store",
    "PoolStats",
    "WorkerPool",
    "run_batch",
    "JobQueue",
    "QueueError",
    "batch_dedupe_key",
    "derive_batch_id",
    "QueueWorker",
    "RateLimiter",
    "TokenBucket",
    "check_bearer",
    "tenant_of",
    "ServiceServer",
    "serve",
]
