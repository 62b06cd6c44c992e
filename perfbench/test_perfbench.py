"""Tests for the benchmark's own pieces.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import client  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from repro.bench.students import OVERSYNC_TEMPLATES  # noqa: E402
from repro.lang import parse  # noqa: E402
from repro.repair import repair_program  # noqa: E402


# -- percentile rule ---------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == stats.Tail(90.0, 90, 10, 100)
    assert stats.tail(values[:99]) == stats.Tail(100.0 * 89 / 99, 89, 10,
                                                 99)
    assert stats.tail(list(range(1000))).value == 989


def test_tail_with_few_samples_falls_back_to_the_median():
    tail = stats.tail([5.0, 1.0, 3.0])
    assert (tail.percentile, tail.value, tail.beyond) == (
        100.0 * 2 / 3, 3.0, 1)
    assert stats.tail([]) is None


def test_percentile_is_nearest_rank():
    assert stats.percentile([10, 20, 30, 40], 50) == 20
    assert stats.percentile([10, 20, 30, 40], 99) == 40


# -- due-time latency --------------------------------------------------

class _StallingService(BaseHTTPRequestHandler):
    """Accepts jobs and reports them done at once; the first submission
    stalls every request for STALL seconds."""

    protocol_version = "HTTP/1.1"
    STALL = 0.4
    lock = threading.Lock()
    submitted = 0

    def log_message(self, *args):
        pass

    def _reply(self, payload):
        body = json.dumps(payload).encode()
        self.send_response(202 if self.command == "POST" else 200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        jobs = json.loads(self.rfile.read(
            int(self.headers["Content-Length"])))["jobs"]
        with self.lock:
            cls = type(self)
            first = cls.submitted
            cls.submitted += len(jobs)
            if first == 0:
                time.sleep(self.STALL)
        self._reply({"ids": list(range(first, first + len(jobs)))})

    def do_GET(self):
        with self.lock:
            pass
        self._reply({"status": "done", "result": {
            "status": "ok", "trace_id": None, "result": {}}})


def test_open_loop_latency_runs_from_the_due_time():
    _StallingService.submitted = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingService)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        spec = workloads.JobSpec("detect", "def main() {}", "x.hj", ())
        arrivals = [workloads.Arrival(0.0, [spec]),
                    workloads.Arrival(0.05, [spec]),
                    workloads.Arrival(0.1, [spec])]
        start = time.monotonic()
        records = client.open_loop(server.server_address, arrivals, start,
                                   lambda record: None)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(records) == 3 and all(r.ok for r in records)
    by_due = sorted(records, key=lambda r: r.due)
    assert [r.due - start for r in by_due] == pytest.approx([0, .05, .1])
    # Every arrival waited out the stall, measured from its due time
    # even though it could not be sent until the stall ended.
    for record in by_due:
        assert record.latency_s >= _StallingService.STALL - 0.1 - 1e-3
        assert record.latency_s == pytest.approx(record.done - record.due)
    assert by_due[-1].lag_s > 0.2


def test_record_latency_and_lag_use_the_due_time():
    spec = workloads.JobSpec("detect", "", "x.hj", ())
    record = client.JobRecord(spec, due=10.0)
    record.sent, record.done = 12.5, 13.0
    assert record.latency_s == 3.0
    assert record.lag_s == 2.5


# -- self time ---------------------------------------------------------

def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [("p", None, (), "outer", 0.0, 10.0),
             ("a", "p", (), "inner", 1.0, 4.0),
             ("b", "p", (), "inner", 3.0, 6.0),   # overlaps a: counted once
             ("c", "p", (), "inner", 8.0, 12.0)]  # part outside p ignored
    selfs = tracing.self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["a"] == pytest.approx(3.0)
    assert selfs["b"] + selfs["c"] == pytest.approx(3.0 + 4.0)


def test_orphan_server_spans_attach_to_the_enclosing_client_span():
    spans = [("post", None, ("t1",), "client.http.submit", 0.0, 5.0),
             ("get", None, ("t1",), "client.http.poll", 6.0, 9.0),
             ("q", None, ("t1",), "service.queue.submit", 1.0, 2.0),
             ("r", None, ("t1",), "service.queue.result", 7.0, 7.5),
             ("w", None, ("t2",), "service.queue.result", 7.0, 7.5)]
    parents = tracing.attach_orphans(spans, run.CLIENT_SPANS)
    assert parents == {"post": None, "get": None, "q": "post", "r": "get",
                       "w": None}
    selfs = tracing.self_times(spans, parents)
    assert selfs["post"] == pytest.approx(4.0)
    assert selfs["get"] == pytest.approx(2.5)


def test_span_recorder_nests_and_inherits_the_trace():
    recorder = tracing.SpanRecorder()

    class Job:
        trace = {"trace_id": "abc"}

    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda job: inner(),
                          trace_in=lambda a: tracing._job_trace(a[0]))
    assert outer(Job()) == 1
    (inner_span, outer_span) = recorder.spans
    assert inner_span[1] == outer_span[0]
    assert inner_span[2] == outer_span[2] == ("abc",)


# -- generators --------------------------------------------------------

def _keys(jobs):
    return [(j.kind, j.source, j.args, j.algorithm) for j in jobs]


def test_generators_are_deterministic_per_seed():
    assert _keys(workloads.detect_suite(7, 80)) == \
        _keys(workloads.detect_suite(7, 80))
    assert _keys(workloads.detect_suite(7, 80)) != \
        _keys(workloads.detect_suite(8, 80))
    assert _keys(workloads.repair_suite(7, 40)) == \
        _keys(workloads.repair_suite(7, 40))
    one = workloads.classroom_open(3, 10.0, 4.0)
    two = workloads.classroom_open(3, 10.0, 4.0)
    assert [a.due for a in one] == [a.due for a in two]
    assert [_keys(a.jobs) for a in one] == [_keys(a.jobs) for a in two]
    assert len(one) == 40 and all(0 <= a.due <= 10.0 for a in one)


def test_every_deck_holds_the_same_mix_whatever_the_seed():
    size = len(workloads.detect_space())

    def mix(seed):
        return sorted((j.truth["program"], j.truth["variant"], j.args,
                       j.algorithm)
                      for j in workloads.detect_suite(seed, size))

    assert mix(1) == mix(2)
    assert len(set(mix(1))) == size
    jobs = workloads.detect_suite(1, 2 * size)
    assert len({j.source for j in jobs}) == 2 * size  # tags: no cache hits
    for job in jobs:
        assert job.truth["racy"] == (job.truth["vc_races"] > 0)
    heaviest = [j for j in jobs[:size] if j.source_name ==
                "lufact-stripped-25.hj"]
    assert [j.algorithm for j in heaviest] == ["mrw"]


def test_untagged_recovers_the_program():
    source = workloads.table1_source("fibonacci", "original")
    assert workloads.untagged(workloads.tagged(source, 7)).strip() == \
        source.strip()


def test_stress_programs_need_depth_iterations():
    for depth in workloads.STRESS_DEPTHS:
        result = repair_program(parse(workloads.stress_source(depth)), (20,))
        assert len(result.iterations) == depth


def test_known_class_accounts_for_race_free_inputs():
    racy = [sub for sub in workloads.classroom_population(1)
            if sub.description in workloads.RACE_FREE_INPUTS]
    assert racy
    assert workloads.known_class(racy[0], 60) == "matched"
    assert workloads.known_class(racy[0], 40) == "racy"


# -- planted wrong answers ---------------------------------------------

def _phase(records):
    phase = run.Phase()
    phase.records = records
    return phase


def _answered(spec, payload):
    record = client.JobRecord(spec, 0.0)
    record.result = {"status": "ok", "result": payload}
    record.done = 1.0
    return record


def test_repaired_source_with_its_finish_removed_counts_as_failed():
    checker = Checker()
    stripped = workloads.table1_source("fibonacci", "stripped")
    spec = workloads.JobSpec(
        "repair", stripped, "fib.hj", (8,),
        truth={"original": workloads.table1_source("fibonacci",
                                                   "original")})
    payload = repair_program(parse(stripped), (8,)).to_payload()
    good = _answered(spec, payload)
    planted = _answered(spec, dict(payload, repaired_source=stripped))
    ratios = run.check_phase(_phase([good, planted]), checker)
    assert good.ok and ratios == [1.0]
    assert not planted.ok
    assert "races under vector clocks" in planted.error


def test_misgraded_submission_counts_as_failed():
    checker = Checker()
    source = OVERSYNC_TEMPLATES[0][1]
    truth = {"class": "matched", "n": 40, "template": "planted",
             "arrival": 0}
    repair = workloads.JobSpec("repair", source, "s.hj", (40,),
                               truth=dict(truth))
    measure = workloads.JobSpec("measure", source, "s.hj", (40,),
                                truth=dict(truth))
    from repro.graph import measure_program

    schedule = measure_program(parse(source), (40,))
    records = [
        _answered(repair, repair_program(parse(source), (40,)).to_payload()),
        _answered(measure, {"work": schedule.work, "span": schedule.span})]
    run.check_phase(_phase(records), checker)
    assert records[0].ok
    assert not records[1].ok
    assert "graded over-synchronized" in records[1].error


def test_wrong_race_count_counts_as_failed():
    spec = workloads.detect_suite(1, 1)[0]
    right = {"race_free": not spec.truth["racy"],
             "race_count": spec.truth["vc_races"]}
    wrong = dict(right, race_count=right["race_count"] + 1,
                 race_free=False)
    spec.algorithm = "mrw"
    records = [_answered(spec, right), _answered(spec, wrong)]
    run.check_phase(_phase(records), Checker())
    assert records[0].ok and not records[1].ok


# -- the metric table and BENCHMARK.json -------------------------------

def test_benchmark_json_lists_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        table = {name: (unit, better)
                 for name, (k, unit, better, _t, _w) in run.METRICS.items()
                 if k == kind}
        assert listed == table
