"""The multiprocessing worker pool: sharding, streaming, supervision.

The acceptance bar for the batch service is that concurrency is purely a
throughput feature: a batch must produce bit-identical race reports and
repaired sources to sequential single-shot runs, while timeouts, worker
crashes and cancellations are contained to the job they hit.
"""

import os
import signal
import time

import pytest

from repro.bench.students import population_sources
from repro.service import Job, ResultCache, WorkerPool, run_batch, run_job
from tests.conftest import pool_job_state

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""

#: Monitored array writes keep the detector busy for a few seconds —
#: long enough for the supervisor tests to observe an in-flight job,
#: short enough to run to its natural end when a test needs that.
SLOW = """
def main() {
    var a = new int[64];
    for (var round = 0; round < 2500; round = round + 1) {
        for (var i = 0; i < 64; i = i + 1) {
            a[i] = a[i] + round;
        }
    }
}
"""


def _variant(index):
    """Distinct racy programs (different constants => different keys)."""
    return RACY.replace("x = 1", f"x = {index + 1}")


def _busy_workers(pool):
    return pool.stats_snapshot()["pool"]["workers"]["busy"]


def _corpus_jobs(count=8, kind="repair"):
    sources = population_sources()[:count]
    return [Job(kind, source, source_name=name, args=(24,))
            for name, source in sources]


class TestBatchCorrectness:
    def test_batch_matches_sequential_single_shot(self):
        # The headline invariant: batch output == single-shot output,
        # for both race reports (detect) and repaired sources (repair).
        for kind in ("detect", "repair"):
            jobs = _corpus_jobs(count=8, kind=kind)
            sequential = {job.source_name: run_job(job) for job in jobs}
            batched = {job.source_name: result
                       for _, job, result in run_batch(jobs, workers=2)}
            assert set(batched) == set(sequential)
            for name, expected in sequential.items():
                got = batched[name]
                assert got.status == "ok", (name, got.error)
                if kind == "repair":
                    assert got.result["repaired_source"] == \
                        expected.result["repaired_source"], name
                    assert got.result["converged"] == \
                        expected.result["converged"]
                else:
                    assert got.result["races"] == \
                        expected.result["races"], name
                    assert got.result["race_count"] == \
                        expected.result["race_count"]

    def test_batch_with_cache_matches_sequential(self):
        jobs = _corpus_jobs(count=10)
        sequential = {job.source_name:
                      run_job(job).result["repaired_source"]
                      for job in jobs}
        cache = ResultCache()
        batched = {job.source_name: result for _, job, result
                   in run_batch(jobs, workers=2, cache=cache)}
        for name, expected_source in sequential.items():
            assert batched[name].result["repaired_source"] == \
                expected_source, name
        # The corpus repeats programs, so dedup must have fired.
        assert any(r.cached or r.coalesced for r in batched.values())

    def test_streaming_yields_every_job_exactly_once(self):
        jobs = [Job("detect", _variant(i), source_name=f"v{i}.hj")
                for i in range(7)]
        seen = [job.source_name
                for _, job, _ in run_batch(jobs, workers=3)]
        assert sorted(seen) == sorted(j.source_name for j in jobs)

    def test_error_jobs_do_not_poison_the_batch(self):
        jobs = [Job("detect", "def main( {", source_name="bad.hj"),
                Job("detect", RACY, source_name="ok.hj"),
                Job("detect", "def f() { }", source_name="nomain.hj")]
        results = {job.source_name: result
                   for _, job, result in run_batch(jobs, workers=2)}
        assert results["bad.hj"].status == "error"
        assert results["bad.hj"].error["category"] == "parse"
        assert results["nomain.hj"].error["category"] == "validate"
        assert results["ok.hj"].status == "ok"


class TestCoalescing:
    def test_in_batch_twins_run_once(self):
        cache = ResultCache()
        jobs = [Job("repair", RACY, source_name=f"twin{i}.hj")
                for i in range(5)]
        results = [r for _, _, r in run_batch(jobs, workers=2, cache=cache)]
        executed = [r for r in results if not r.cached and not r.coalesced]
        coalesced = [r for r in results if r.coalesced]
        assert len(executed) == 1
        assert len(coalesced) == 4
        assert len({r.result["repaired_source"] for r in results}) == 1
        assert cache.stats.stores == 1

    def test_second_batch_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        jobs = [Job("repair", RACY, source_name="a.hj")]
        first = [r for _, _, r in run_batch(jobs, workers=1, cache=cache)]
        assert not first[0].cached
        fresh = ResultCache(str(tmp_path / "store"))  # new process' view
        second = [r for _, _, r in run_batch(jobs, workers=1, cache=fresh)]
        assert second[0].cached
        assert second[0].result == first[0].result


class TestSupervision:
    def test_timeout_kills_only_the_offender(self):
        jobs = [Job("detect", SLOW, source_name="slow.hj", timeout_s=0.6),
                Job("detect", RACY, source_name="quick.hj")]
        results = {job.source_name: result
                   for _, job, result in run_batch(jobs, workers=2)}
        assert results["slow.hj"].status == "timeout"
        assert "wall-clock" in results["slow.hj"].error["message"]
        assert results["quick.hj"].status == "ok"

    def test_pool_survives_timeout_and_reuses_replacement(self):
        with WorkerPool(workers=1) as pool:
            slow = pool.submit(Job("detect", SLOW, timeout_s=0.5))
            after = pool.submit(Job("detect", RACY, source_name="after.hj"))
            done = {}
            while len(done) < 2:
                item = pool.next_completed(timeout=10.0)
                assert item is not None, "pool stalled"
                done[item[0]] = item[1]
            assert done[slow].status == "timeout"
            assert done[after].status == "ok"

    def test_worker_crash_is_contained(self):
        with WorkerPool(workers=1) as pool:
            crash = pool.submit(Job("detect", SLOW, source_name="doomed.hj"))
            deadline = time.monotonic() + 10.0
            while not any(h.job_id == crash for h in pool._handles):
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            victim = next(h.process.pid for h in pool._handles
                          if h.job_id == crash)
            os.kill(victim, signal.SIGKILL)
            item = pool.next_completed(timeout=10.0)
            assert item is not None
            job_id, result = item
            assert job_id == crash
            assert result.status == "crashed"
            assert "died" in result.error["message"]
            # The replacement worker keeps serving.
            ok = pool.submit(Job("detect", RACY, source_name="next.hj"))
            item = pool.next_completed(timeout=10.0)
            assert item is not None and item[0] == ok
            assert item[1].status == "ok"

    def test_cancel_pending_drains_in_flight(self):
        with WorkerPool(workers=1) as pool:
            ids = [pool.submit(Job("detect", SLOW, source_name=f"{i}.hj",
                                   timeout_s=30.0))
                   for i in range(4)]
            deadline = time.monotonic() + 10.0
            while _busy_workers(pool) == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            cancelled = pool.cancel_pending()
            assert 0 < len(cancelled) <= 3
            done = {}
            while len(done) < len(ids):
                item = pool.next_completed(timeout=60.0)
                assert item is not None, "pool stalled"
                done[item[0]] = item[1]
            statuses = [done[i].status for i in ids]
            assert statuses.count("cancelled") == len(cancelled)
            # The in-flight job ran to its natural end.
            assert statuses.count("ok") == len(ids) - len(cancelled)

    def test_cancelled_results_are_not_cached(self):
        cache = ResultCache()
        with WorkerPool(workers=1, cache=cache) as pool:
            pool.submit(Job("detect", SLOW, source_name="busy.hj",
                            timeout_s=30.0))
            queued = pool.submit(Job("detect", _variant(9),
                                     source_name="queued.hj"))
            assert queued in pool.cancel_pending()
            done = {}
            while queued not in done:
                item = pool.next_completed(timeout=60.0)
                assert item is not None, "pool stalled"
                done[item[0]] = item[1]
            assert done[queued].status == "cancelled"
        assert cache.lookup(Job("detect", _variant(9))) is None


class TestPoolApi:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_submit_requires_start(self):
        pool = WorkerPool(workers=1)
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit(Job("detect", RACY))

    def test_status_lifecycle(self):
        # queued/running -> done: in flight until its completion is
        # streamed, and then forgotten by the pool.
        with WorkerPool(workers=1) as pool:
            job_id = pool.submit(Job("detect", RACY))
            assert pool.stats_snapshot()["pool"]["in_flight"] == 1
            item = pool.next_completed(timeout=10.0)
            assert item is not None and item[0] == job_id
            assert item[1].status == "ok"
            assert pool.stats_snapshot()["pool"]["in_flight"] == 0
            assert not any(pool_job_state(pool).values())
            assert pool.next_completed(timeout=0.0) is None

    def test_completed_jobs_leave_no_state(self):
        # Executed, cached, coalesced, timed-out and cancelled jobs:
        # once their results are consumed the pool holds none of them.
        with WorkerPool(workers=1, cache=ResultCache()) as pool:
            jobs = [Job("detect", RACY, source_name="a.hj"),
                    Job("detect", "// twin\n" + RACY, source_name="b.hj"),
                    Job("detect", SLOW, source_name="slow.hj",
                        timeout_s=0.5),
                    Job("detect", _variant(3), source_name="c.hj")]
            statuses = sorted(r.status for _, _, r in pool.run(jobs))
            assert statuses == ["ok", "ok", "ok", "timeout"]
            hit = list(pool.run([Job("detect", RACY, source_name="d.hj")]))
            assert hit[0][2].cached
            pool.submit(Job("detect", SLOW, source_name="busy.hj",
                            timeout_s=0.5))
            pool.submit(Job("detect", _variant(4), source_name="e.hj"))
            pool.cancel_pending()
            for _ in range(2):
                assert pool.next_completed(timeout=30.0) is not None
            assert pool.stats.coalesced == 1
            state = pool_job_state(pool)
            assert not any(state.values()), state

    def test_stats_accumulate(self):
        cache = ResultCache()
        with WorkerPool(workers=2, cache=cache) as pool:
            for _ in pool.run([Job("detect", RACY, source_name="a.hj"),
                               Job("detect", RACY, source_name="b.hj"),
                               Job("detect", "def main( {",
                                   source_name="c.hj")]):
                pass
            stats = pool.stats.to_dict()
        assert stats["submitted"] == 3
        assert stats["completed"] == 3
        assert stats["by_status"]["ok"] == 2
        assert stats["by_status"]["error"] == 1
        assert stats["coalesced"] == 1
        assert stats["latency"]["detect"]["count"] >= 1
        assert stats["jobs_per_sec"] > 0


class TestPoolTelemetry:
    def test_phase_histograms_and_snapshots(self):
        cache = ResultCache()
        with WorkerPool(workers=2, cache=cache) as pool:
            for _ in pool.run([Job("repair", RACY, source_name="a.hj"),
                               Job("repair", _variant(1),
                                   source_name="b.hj")]):
                pass
            stats = pool.stats_snapshot()
            metrics = pool.metrics_snapshot()
        # /stats shape: pool + workers + cache, workers enriched.
        assert stats["workers"] == 2
        assert stats["pool"]["completed"] == 2
        assert stats["pool"]["workers"]["configured"] == 2
        assert stats["pool"]["workers"]["restarts"] == 0
        assert stats["cache"]["entries"] >= 1
        # /metrics shape: per-phase summaries from job timings.
        phases = metrics["phases"]
        assert "detect_races" in phases and "placement" in phases
        entry = phases["detect_races"]
        assert entry["count"] == 2
        assert entry["max_ms"] >= entry["p95_ms"] >= entry["p50_ms"] > 0
        assert metrics["counters"]["repair.iterations"] >= 2
        assert metrics["jobs"]["completed"] == 2
        assert metrics["cache"]["misses"] >= 2

    def test_cached_results_do_not_skew_histograms(self):
        cache = ResultCache()
        with WorkerPool(workers=1, cache=cache) as pool:
            for _ in pool.run([Job("detect", RACY, source_name="a.hj")]):
                pass
            first = pool.metrics_snapshot()["phases"]["detect_races"]["count"]
            for _ in pool.run([Job("detect", RACY, source_name="b.hj")]):
                pass
            second = pool.metrics_snapshot()["phases"]["detect_races"]["count"]
        assert first == 1
        assert second == 1  # the cache hit contributed no sample

    def test_timeout_increments_worker_counters(self):
        with WorkerPool(workers=1) as pool:
            pool.submit(Job("detect", SLOW, timeout_s=0.5))
            item = pool.next_completed(timeout=30.0)
            assert item is not None and item[1].status == "timeout"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                metrics = pool.metrics_snapshot()
                if metrics["workers"]["restarts"] >= 1:
                    break
                time.sleep(0.05)
        assert metrics["workers"]["timeouts"] == 1
        assert metrics["workers"]["restarts"] >= 1
        assert metrics["workers"]["crashes"] == 0

    def test_phase_sample_ring_is_bounded(self):
        from repro.service.pool import PoolStats
        from repro.service.jobs import JobResult

        stats = PoolStats()
        for index in range(PoolStats.MAX_PHASE_SAMPLES + 50):
            result = JobResult("ok", "detect", f"s{index}.hj", result={},
                               elapsed_s=0.001,
                               timings={"detect_races": 0.001})
            stats.record(result)
        samples = stats.phases["detect_races"]
        assert len(samples) == PoolStats.MAX_PHASE_SAMPLES
        assert stats.phases_dict()["detect_races"]["count"] \
            == PoolStats.MAX_PHASE_SAMPLES
