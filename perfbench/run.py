"""The repository benchmark: seeded traffic through ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detect-suite --seed 1 \\
        --seconds 25 --trace 0

Each run starts the service as users deploy it —
``repro serve --queue <fresh db> --cache-dir <fresh dir> --workers 2`` —
drives one workload through its HTTP API from at most two keep-alive
client threads, checks every answer (``checks.py``), and prints one line
per metric followed by a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice, for half the seconds each: once
untraced, then against a service whose layer entry points are wrapped in
spans (``tracing.py``), and reports the per-layer metrics — self time per
layer, the service's own phase timings and counters, and the tracing
overhead between the two halves.  The metric table, with the end-to-end
metric and workload each per-layer metric targets, is :data:`METRICS`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from repro.lang import parse  # noqa: E402
from repro.runtime import run_program  # noqa: E402

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from client import closed_loop, open_loop, warm_up  # noqa: E402
from service import WORKERS, ServiceProcess  # noqa: E402
from stats import geomean, median, percentile, tail, union_length  # noqa
from tracing import attach_orphans, load_spans, self_times  # noqa: E402

#: workload -> traffic shape.  ``limit_ms`` is the latency limit goodput
#: counts against; ``rate`` the open loop's offered arrivals per second
#: (each arrival sends two jobs).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "detect-suite": {"loop": "closed", "limit_ms": 10000.0},
    "repair-suite": {"loop": "closed", "limit_ms": 10000.0},
    "classroom-open": {"loop": "open", "rate": 4.0, "limit_ms": 1000.0},
}

#: launches of the service per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: seconds of uninstrumented program runs for the ``runtime.*`` metrics.
RUNTIME_BUDGET_S = 2.0

_E = "end_to_end"
_L = "per_layer"
#: name -> (kind, unit, better, targeted end-to-end metric, workload).
METRICS: Dict[str, Tuple[str, str, str, str, str]] = {
    "setup_s": (_E, "s", "lower", "", ""),
    "jobs_per_s": (_E, "1/s", "higher", "", ""),
    "goodput_jobs_per_s": (_E, "1/s", "higher", "", ""),
    "latency_p50_ms": (_E, "ms", "lower", "", ""),
    "latency_tail_ms": (_E, "ms", "lower", "", ""),
    "peak_rss_mb": (_E, "MB", "lower", "", ""),
    "repaired_cpl_ratio": (_E, "ratio", "lower", "", ""),
    "failed_share": (_L, "share", "lower", "failed_share", "all"),
    "lang.parse_ms": (_L, "ms", "lower", "latency_p50_ms",
                      "classroom-open"),
    "lang.validate_ms": (_L, "ms", "lower", "latency_p50_ms",
                         "classroom-open"),
    "lang.pretty_ms": (_L, "ms", "lower", "latency_p50_ms", "repair-suite"),
    "runtime.execute_ms": (_L, "ms", "lower", "jobs_per_s", "detect-suite"),
    "runtime.ops": (_L, "count", "lower", "jobs_per_s", "detect-suite"),
    "runtime.ns_per_op": (_L, "ns", "lower", "jobs_per_s", "detect-suite"),
    "races.detect_ms": (_L, "ms", "lower", "jobs_per_s", "detect-suite"),
    "races.execute_ms": (_L, "ms", "lower", "jobs_per_s", "detect-suite"),
    "dpst.finish_ms": (_L, "ms", "lower", "jobs_per_s", "detect-suite"),
    "races.scan_ms": (_L, "ms", "lower", "jobs_per_s", "detect-suite"),
    "races.accesses": (_L, "count", "lower", "jobs_per_s", "detect-suite"),
    "races.ns_per_access": (_L, "ns", "lower", "jobs_per_s",
                            "detect-suite"),
    "races.count": (_L, "count", "lower", "jobs_per_s", "detect-suite"),
    "dpst.nodes": (_L, "count", "lower", "jobs_per_s", "detect-suite"),
    "races.report_ms": (_L, "ms", "lower", "latency_tail_ms",
                        "detect-suite"),
    "races.report_bytes": (_L, "bytes", "lower", "latency_tail_ms",
                           "detect-suite"),
    "repair.repair_ms": (_L, "ms", "lower", "jobs_per_s", "repair-suite"),
    "repair.first_detect_ms": (_L, "ms", "lower", "jobs_per_s",
                               "repair-suite"),
    "repair.redetect_ms": (_L, "ms", "lower", "latency_p50_ms",
                           "repair-suite"),
    "repair.incremental_hit_ratio": (_L, "ratio", "higher",
                                     "latency_p50_ms", "repair-suite"),
    "repair.incremental_window_fraction": (_L, "ratio", "lower",
                                           "latency_p50_ms",
                                           "repair-suite"),
    "repair.replay_fallbacks": (_L, "count", "lower", "latency_p50_ms",
                                "repair-suite"),
    "repair.placement_ms": (_L, "ms", "lower", "latency_tail_ms",
                            "repair-suite"),
    "repair.iterations": (_L, "count", "lower", "normalizer",
                          "repair-suite"),
    "repair.finishes_inserted": (_L, "count", "lower",
                                 "repaired_cpl_ratio", "repair-suite"),
    "graph.measure_ms": (_L, "ms", "lower", "latency_p50_ms",
                         "classroom-open"),
    "graph.work": (_L, "count", "lower", "latency_p50_ms",
                   "classroom-open"),
    "graph.span": (_L, "count", "lower", "repaired_cpl_ratio",
                   "classroom-open"),
    "service.http.submit_ms": (_L, "ms", "lower", "latency_p50_ms",
                               "classroom-open"),
    "service.http.poll_ms": (_L, "ms", "lower", "latency_p50_ms",
                             "classroom-open"),
    "service.http.polls_per_job": (_L, "count", "lower", "latency_p50_ms",
                                   "classroom-open"),
    "service.overhead_p50_ms": (_L, "ms", "lower", "latency_p50_ms",
                                "classroom-open"),
    "service.overhead_tail_ms": (_L, "ms", "lower", "latency_tail_ms",
                                 "detect-suite"),
    "service.result_bytes": (_L, "bytes", "lower", "latency_tail_ms",
                             "detect-suite"),
    "service.cache.hit_ratio": (_L, "ratio", "higher",
                                "goodput_jobs_per_s", "classroom-open"),
    "service.cache.lookup_ms": (_L, "ms", "lower", "latency_p50_ms",
                                "classroom-open"),
    "service.cache.key_ms": (_L, "ms", "lower", "latency_p50_ms",
                             "classroom-open"),
    "service.cache.put_ms": (_L, "ms", "lower", "jobs_per_s",
                             "detect-suite"),
    "service.queue.submit_ms": (_L, "ms", "lower", "goodput_jobs_per_s",
                                "classroom-open"),
    "service.queue.claim_ms": (_L, "ms", "lower", "goodput_jobs_per_s",
                               "classroom-open"),
    "service.queue.complete_ms": (_L, "ms", "lower", "latency_tail_ms",
                                  "detect-suite"),
    "service.queue.result_ms": (_L, "ms", "lower", "latency_tail_ms",
                                "detect-suite"),
    "service.worker_busy_share": (_L, "share", "higher", "jobs_per_s",
                                  "detect-suite"),
    "service.refused": (_L, "count", "lower", "failed_share", "all"),
    "loadgen.lag_p99_ms": (_L, "ms", "lower", "validity guard",
                           "classroom-open"),
    "bench.trace_overhead_share": (_L, "share", "lower", "validity guard",
                                   "all"),
    "bench.blocking_coverage_share": (_L, "share", "higher",
                                      "latency_p50_ms", "all"),
}

CLIENT_SPANS = ("client.http.submit", "client.http.poll")


# ----------------------------------------------------------------------
# One phase: a service lifetime with warm-up and a measured window
# ----------------------------------------------------------------------

class Phase:
    def __init__(self) -> None:
        self.records: List[Any] = []
        self.warmup: List[Any] = []
        #: the measured window: [window_start, window_start + window_s].
        self.window_start = 0.0
        self.window_s = 0.0
        self.closed = True
        self.started = 0.0
        self.ended = 0.0
        self.peak_rss_mb = 0.0
        self.metrics: Dict[str, Any] = {}
        self.ready_s = 0.0
        self.span_dir: Optional[str] = None


def run_phase(workload: str, seed: int, seconds: float, workdir: str,
              traced: bool, digest) -> Phase:
    shape = WORKLOADS[workload]
    phase = Phase()
    span_dir = None
    if traced:
        span_dir = phase.span_dir = os.path.join(workdir, "spans")
        os.makedirs(span_dir, exist_ok=True)
    service = ServiceProcess(ROOT, workdir, span_dir)
    try:
        service.start()
        phase.ready_s = service.ready_s
        phase.started = time.monotonic()
        phase.warmup = warm_up(service.address, workloads.warmup_jobs(),
                               digest)
        phase.window_start = time.monotonic()
        phase.window_s = seconds
        phase.closed = shape["loop"] == "closed"
        if phase.closed:
            maker = (workloads.detect_suite if workload == "detect-suite"
                     else workloads.repair_suite)
            phase.records = closed_loop(service.address, maker(seed, 2000),
                                        seconds, digest)
        else:
            arrivals = workloads.classroom_open(seed, seconds, shape["rate"])
            phase.records = open_loop(service.address, arrivals,
                                      phase.window_start, digest)
        phase.ended = time.monotonic()
        phase.peak_rss_mb = service.peak_rss_mb()
        phase.metrics = service.metrics()
    finally:
        service.stop()
    return phase


def setup_times(workdir: str, count: int) -> List[float]:
    """Launch-to-healthy seconds of ``count`` fresh service launches."""
    times = []
    for index in range(count):
        service = ServiceProcess(ROOT, os.path.join(workdir, f"setup{index}"))
        try:
            service.start()
            times.append(service.ready_s)
        finally:
            service.stop()
    return times


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def check_phase(phase: Phase, checker) -> List[float]:
    """Mark wrong answers as failed; returns the CPL ratios of repairs
    with a hand-written original."""
    ratios: List[float] = []
    repairs_by_arrival: Dict[Any, Any] = {}
    for record in phase.warmup + phase.records:
        if record.spec.kind == "repair" and "arrival" in record.spec.truth:
            repairs_by_arrival[record.spec.truth["arrival"]] = record
    for record in phase.warmup + phase.records:
        if not record.ok:
            continue
        spec = record.spec
        payload = record.result["result"]
        if spec.kind == "detect":
            problem = checker.check_detect(spec, payload)
        elif spec.kind == "repair":
            problem, ratio = checker.check_repair(spec, payload)
            if ratio is not None:
                ratios.append(ratio)
        elif "arrival" in spec.truth:
            repair = repairs_by_arrival.get(spec.truth["arrival"])
            if repair is None or not repair.ok:
                problem = f"{spec.source_name}: ungradable, repair failed"
            else:
                problem = checker.check_grade(
                    spec, repair.result["result"], payload)
        else:
            problem = None if 0 < payload["span"] <= payload["work"] \
                else f"{spec.source_name}: impossible work/span"
        if problem is not None:
            record.error = f"wrong answer: {problem}"
    return ratios


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------

def end_to_end(workload: str, phase: Phase, setups: List[float],
               ratios: List[float], notes: List[str]) -> Dict[str, float]:
    limit_s = WORKLOADS[workload]["limit_ms"] / 1000.0
    good = [r for r in phase.records if r.ok]
    latencies = [r.latency_s * 1000.0 for r in good]
    within = [r for r in good if r.latency_s <= limit_s]
    window_end = phase.window_start + phase.window_s
    elapsed = phase.window_s
    if not phase.closed:
        # Open loop: every arrival falls in the window, so the rate is
        # what the service delivered until its last answer.
        elapsed = max(r.done for r in phase.records) - phase.window_start

    def completed(records) -> float:
        """Jobs completed.  A closed-loop job still running when the
        window closes counts for the share of it inside."""
        if not phase.closed:
            return float(len(records))
        total = 0.0
        for r in records:
            inside = min(r.done, window_end) - max(r.sent, phase.window_start)
            total += max(0.0, inside) / max(1e-9, r.done - r.sent)
        return total

    tail_stat = tail(latencies)
    notes.append(f"latency_tail_ms is p{tail_stat.percentile:.2f} of "
                 f"{tail_stat.samples} samples ({tail_stat.beyond} beyond)")
    notes.append(f"window {elapsed:.3f} s, {len(phase.records)} "
                 f"jobs, {len(within)} within {limit_s * 1000:.0f} ms")
    return {
        "setup_s": median(setups),
        "jobs_per_s": completed(good) / elapsed,
        "goodput_jobs_per_s": completed(within) / elapsed,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_stat.value,
        "peak_rss_mb": phase.peak_rss_mb,
        "repaired_cpl_ratio": geomean(ratios),
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def client_spans(records) -> List[tuple]:
    """The client's HTTP calls as spans of the jobs they served."""
    spans = []
    posts: Dict[tuple, List[str]] = defaultdict(list)
    for index, record in enumerate(records):
        trace = (record.result or {}).get("trace_id")
        traces = (trace,) if trace else ()
        if record.post_span is not None:
            posts[record.post_span[:2]].extend(traces)
        for number, (start, end) in enumerate(record.polls):
            spans.append((f"client:get:{index}:{number}", None, traces,
                          "client.http.poll", start, end))
    for number, ((start, end), traces) in enumerate(posts.items()):
        spans.append((f"client:post:{number}", None, tuple(traces),
                      "client.http.submit", start, end))
    return spans


def runtime_metrics(records) -> Dict[str, float]:
    """Uninstrumented runs (no detector, no recorder) of the phase's
    programs, for as many distinct (source, args) as fit the budget."""
    seen = set()
    elapsed = 0.0
    ops = 0
    runs = 0
    for record in records:
        key = (record.spec.source, record.spec.args)
        if key in seen:
            continue
        seen.add(key)
        program = parse(record.spec.source)
        start = time.perf_counter()
        result = run_program(program, record.spec.args)
        elapsed += time.perf_counter() - start
        ops += result.ops
        runs += 1
        if elapsed > RUNTIME_BUDGET_S:
            break
    return {"runtime.execute_ms": elapsed * 1000.0 / runs,
            "runtime.ops": ops / runs,
            "runtime.ns_per_op": elapsed * 1e9 / max(1, ops)}


def per_layer(traced: Phase, untraced: Phase,
              notes: List[str]) -> Dict[str, float]:
    records = traced.warmup + traced.records
    jobs = len(records)
    spans = load_spans(traced.span_dir) + client_spans(records)
    selfs = self_times(spans, attach_orphans(spans, CLIENT_SPANS))
    totals: Dict[str, float] = defaultdict(float)
    #: trace -> layer -> self seconds (a span serving several jobs is
    #: split evenly between them).
    per_trace: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        totals[span[3]] += selfs[span[0]]
        for trace in span[2]:
            per_trace[trace][span[3]] += selfs[span[0]] / len(span[2])
    attribute(traced.records, per_trace, notes)

    def per_job_ms(name: str) -> float:
        return totals.get(name, 0.0) * 1000.0 / jobs

    # The service's own per-job phase timings and counters, over the
    # detect and repair jobs a worker executed (measure jobs reuse the
    # phase names; cache hits carry their original run's figures).
    timings: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(float)
    first_detect = 0.0
    for record in records:
        result = record.result or {}
        if (record.spec.kind == "measure" or result.get("cached")
                or result.get("coalesced")):
            continue
        for name, seconds in (result.get("timings") or {}).items():
            timings[name] += seconds
        for name, value in (result.get("counters") or {}).items():
            counters[name] += value
        if record.spec.kind == "repair":
            first_detect += (result.get("timings") or {}).get(
                "detect_races", 0.0)

    def payloads(kind: str) -> List[Dict[str, Any]]:
        return [r.result["result"] for r in records
                if r.spec.kind == kind and r.ok]

    repairs = payloads("repair")
    measures = payloads("measure")
    incremental = counters["incremental.hits"] + counters[
        "incremental.fallbacks"]
    accesses = counters["detector.monitored_accesses"]
    overheads = []
    for record in records:
        if not record.ok:
            continue
        result = record.result
        executed = not (result.get("cached") or result.get("coalesced"))
        busy = result.get("elapsed_s", 0.0) if executed else 0.0
        overheads.append((record.done - record.sent - busy) * 1000.0)
    busy = sum(end - start for _sid, _p, _t, name, start, end in spans
               if name == "service.worker.run_job")
    cache = traced.metrics.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)

    by_trace: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        for trace in span[2]:
            by_trace[trace].append((span[4], span[5]))
    coverage = []
    for record in traced.records:
        trace = (record.result or {}).get("trace_id")
        if not record.ok or not trace:
            continue
        start = record.sent
        clipped = [(max(s, start), min(e, record.done))
                   for s, e in by_trace[trace] if e > start
                   and s < record.done]
        coverage.append(union_length(clipped)
                        / max(1e-9, record.done - start))

    def p50_ms(phase: Phase) -> float:
        return median([r.latency_s * 1000.0 for r in phase.records
                       if r.ok])

    attempted = len(traced.records) + len(untraced.records)
    failed = sum(1 for r in traced.records + untraced.records if not r.ok)
    lags = [r.lag_s * 1000.0 for r in traced.records]
    values = {
        "failed_share": failed / max(1, attempted),
        "lang.parse_ms": per_job_ms("lang.parse"),
        "lang.validate_ms": per_job_ms("lang.validate"),
        "lang.pretty_ms": per_job_ms("lang.pretty"),
        "races.detect_ms": per_job_ms("races.detect"),
        "races.execute_ms": timings["execute"] * 1000.0 / jobs,
        "dpst.finish_ms": timings["dpst"] * 1000.0 / jobs,
        "races.scan_ms": timings["detect"] * 1000.0 / jobs,
        "races.accesses": accesses / jobs,
        "races.ns_per_access": (timings["detect_races"] + timings["replay"])
        * 1e9 / max(1.0, accesses),
        "races.count": counters["detector.races"] / jobs,
        "dpst.nodes": counters["dpst.nodes"] / jobs,
        "races.report_ms": (per_job_ms("races.to_payload")
                            + sum(r.report_encode_s for r in records)
                            * 1000.0 / jobs),
        "races.report_bytes": sum(r.report_bytes for r in records) / jobs,
        "repair.repair_ms": per_job_ms("repair.repair"),
        "repair.first_detect_ms": first_detect * 1000.0 / jobs,
        "repair.redetect_ms": timings["replay"] * 1000.0 / jobs,
        "repair.incremental_hit_ratio":
            counters["incremental.hits"] / incremental if incremental
            else 0.0,
        "repair.incremental_window_fraction":
            counters["incremental.window_events"]
            / counters["incremental.events_total"]
            if counters["incremental.events_total"] else 0.0,
        "repair.replay_fallbacks": counters["repair.replay_fallbacks"],
        "repair.placement_ms": timings["placement"] * 1000.0 / jobs,
        "repair.iterations": sum(p["iteration_count"] for p in repairs)
        / max(1, len(repairs)),
        "repair.finishes_inserted": sum(
            p["inserted_finish_count"] for p in repairs)
        / max(1, len(repairs)),
        "graph.measure_ms": per_job_ms("graph.measure"),
        "graph.work": sum(p["work"] for p in measures)
        / max(1, len(measures)),
        "graph.span": sum(p["span"] for p in measures)
        / max(1, len(measures)),
        "service.http.submit_ms": per_job_ms("client.http.submit"),
        "service.http.poll_ms": per_job_ms("client.http.poll"),
        "service.http.polls_per_job": sum(len(r.polls) for r in records)
        / jobs,
        "service.overhead_p50_ms": median(overheads),
        "service.overhead_tail_ms": tail(overheads).value,
        "service.result_bytes": sum(r.result_bytes for r in records) / jobs,
        "service.cache.hit_ratio": cache.get("hits", 0) / max(1, lookups),
        "service.cache.lookup_ms": per_job_ms("service.cache.lookup"),
        "service.cache.key_ms": per_job_ms("service.cache.key"),
        "service.cache.put_ms": per_job_ms("service.cache.put"),
        "service.queue.submit_ms": per_job_ms("service.queue.submit"),
        "service.queue.claim_ms": per_job_ms("service.queue.claim"),
        "service.queue.complete_ms": per_job_ms("service.queue.complete"),
        "service.queue.result_ms": per_job_ms("service.queue.result"),
        "service.worker_busy_share": busy / (
            WORKERS * max(1e-9, traced.ended - traced.started)),
        "service.refused": sum(1 for r in traced.records + untraced.records
                               if r.refused),
        "loadgen.lag_p99_ms": percentile(lags, 99.0),
        "bench.trace_overhead_share": p50_ms(traced) / p50_ms(untraced)
        - 1.0,
        "bench.blocking_coverage_share": median(coverage),
    }
    values.update(runtime_metrics(traced.records))
    return values


def attribute(records, per_trace, notes: List[str]) -> None:
    """Name the jobs behind the heaviest layer costs of a traced run."""
    def layers(record) -> Dict[str, float]:
        return per_trace.get((record.result or {}).get("trace_id"), {})

    def ms(seconds: float) -> str:
        return f"{seconds * 1000.0:.0f} ms"

    def report_s(record) -> float:
        return (record.report_encode_s
                + layers(record).get("races.to_payload", 0.0))

    done = [r for r in records if r.ok]
    for record in sorted(done, key=lambda r: -report_s(r))[:3]:
        if not record.report_bytes:
            break
        notes.append(
            f"report: {record.spec.source_name} ({record.spec.algorithm}) "
            f"{record.report_bytes} B; to_payload+encode "
            f"{ms(report_s(record))}, worker "
            f"{ms(record.result['elapsed_s'])}, end to end "
            f"{ms(record.done - record.sent)}")
    for record in sorted(done, key=lambda r: -(
            (r.result.get("timings") or {}).get("placement", 0.0)))[:3]:
        timings = record.result.get("timings") or {}
        if not timings.get("placement"):
            break
        notes.append(f"placement: {record.spec.source_name} "
                     f"{ms(timings['placement'])} of repair "
                     f"{ms(timings.get('repair', 0.0))}")
    http = [sum(v for k, v in layers(r).items() if k in CLIENT_SPANS)
            / max(1e-9, r.done - r.sent) for r in done if layers(r)]
    if http:
        notes.append(f"client time in HTTP calls, less the server spans "
                     f"inside them: median {median(http):.0%} of a job's "
                     f"latency")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Dict[str, Any]:
    checker = Checker()
    notes: List[str] = []
    digest = Digest(trace)
    if not trace:
        setups = setup_times(workdir, SETUPS - 1)
        phase = run_phase(workload, seed, seconds,
                          os.path.join(workdir, "run"), False, digest)
        setups.append(phase.ready_s)
        ratios = check_phase(phase, checker)
        phases = [phase]
        values = end_to_end(workload, phase, setups, ratios, notes)
    else:
        untraced = run_phase(workload, seed, seconds / 2.0,
                             os.path.join(workdir, "untraced"), False,
                             Digest(False))
        check_phase(untraced, checker)
        traced = run_phase(workload, seed, seconds / 2.0,
                           os.path.join(workdir, "traced"), True, digest)
        check_phase(traced, checker)
        phases = [untraced, traced]
        values = per_layer(traced, untraced, notes)
    attempted = sum(len(p.records) + len(p.warmup) for p in phases)
    failures = [r for p in phases for r in p.warmup + p.records if not r.ok]
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, (metric_kind, unit, _better, target, target_workload) \
            in METRICS.items():
        if metric_kind != kind:
            continue
        value = float(values[name])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
        aim = f"  -> {target} on {target_workload}" if target else ""
        print(f"{name} = {value:.6g} {unit}{aim}")
    for note in notes:
        print(note)
    for record in failures[:20]:
        print(f"FAILED {record.spec.kind} {record.spec.source_name}: "
              f"{record.error}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


class Digest:
    """Per-result hook run by the client the moment a job completes:
    measures the race report's JSON encoding (traced runs) and drops the
    race rows, so a long run never holds megabytes of reports."""

    def __init__(self, measure_reports: bool) -> None:
        self.measure_reports = measure_reports

    def __call__(self, record) -> None:
        payload = (record.result or {}).get("result") or {}
        races = payload.pop("races", None)
        if races is None or not self.measure_reports:
            return
        payload["races"] = races
        start = time.perf_counter()
        encoded = json.dumps(payload)
        record.report_encode_s = time.perf_counter() - start
        record.report_bytes = len(encoded)
        del payload["races"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run(options.workload, options.seed, options.seconds,
                     bool(options.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
