#!/usr/bin/env python
"""CI gate for the observability layer (DESIGN.md §14).

Three checks:

1. **Fleet trace validity** — submit a small traced batch to a durable
   queue, drain it with TWO real node processes (``python -m
   repro.service.node --trace-log``), merge the per-node logs with the
   ``repro trace merge`` CLI verb, and assert (a) the merged document
   passes ``validate_chrome_trace``, (b) every job's spans — submit,
   queue.wait, job, phases — form ONE connected tree under its single
   trace id, with the submit span as the root.

2. **Prometheus exposition** — stand up the HTTP service in queue mode,
   run one job, scrape ``GET /metrics?format=prometheus`` and feed it to
   the strict :func:`repro.telemetry.parse_prometheus`; the families a
   dashboard needs (phase latency histogram, queue depth, jobs by
   status) must be present.

3. **Overhead budget** — enabled tracing must cost within ``--budget``
   (default 5%) of tracing-off on a full ``run_job``.  Measured over
   **CPU time** as the median of per-pair on/off ratios over ABBA-ordered
   pairs (``overhead.py``, shared with ``scripts/telemetry_ci.py``), with
   an absolute grace floor against sub-millisecond jitter.

Exit status 0 iff all checks pass.  Usage::

    PYTHONPATH=src python scripts/observability_ci.py
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from overhead import check_overhead as paired_overhead
from repro import telemetry
from repro.service import Job, JobQueue, run_job

RACY = """
var x = 0;
def main() {
    async { x = %d; }
    print(x);
}
"""

REQUIRED_FAMILIES = (
    "repro_phase_seconds_bucket",
    "repro_phase_seconds_count",
    "repro_queue_depth",
    "repro_jobs_by_status",
    "repro_workers_truncated_spans",
)


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    return env


def _traced_job(n):
    return Job("detect", RACY % n, source_name=f"v{n}.hj",
               trace=telemetry.TraceContext.mint())


def _tree_size(roots):
    total, stack = 0, list(roots)
    while stack:
        span = stack.pop()
        total += 1
        stack.extend(span["children"])
    return total


def check_fleet_trace(workdir: str, count: int, lease_s: float) -> int:
    """Two real node processes drain a traced batch; merge and audit."""
    queue_path = os.path.join(workdir, "q.db")
    queue = JobQueue(queue_path, lease_s=lease_s)
    submit_path = os.path.join(workdir, "submit.jsonl")
    submit_log = telemetry.TraceLog(submit_path, node="cli")

    jobs = [_traced_job(n + 1) for n in range(count)]
    for job in jobs:
        submitted = time.time()
        queue_id = queue.submit(job, batch_id="ci")
        trace = telemetry.TraceContext.from_dict(job.trace)
        submit_log.span("submit", submitted, time.time(), trace.trace_id,
                        span_id=trace.span_id, job=job.source_name,
                        job_id=str(queue_id))

    node_logs = [os.path.join(workdir, f"{name}.jsonl")
                 for name in ("node-a", "node-b")]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "repro.service.node",
         "--queue", queue_path, "--workers", "2",
         "--node-id", name, "--lease", str(lease_s),
         "--trace-log", log],
        env=_env_with_src(), stdout=subprocess.DEVNULL)
        for name, log in zip(("node-a", "node-b"), node_logs)]
    for proc in procs:
        if proc.wait(timeout=300) != 0:
            print("FAIL: node process exited non-zero", file=sys.stderr)
            return 1

    counts = queue.counts("ci")
    if counts["done"] != count:
        print(f"FAIL: batch did not drain cleanly: {counts}",
              file=sys.stderr)
        return 1

    # Merge through the CLI verb — the command a user would type.
    merged_path = os.path.join(workdir, "merged.json")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "merge",
         submit_path, *node_logs, "-o", merged_path],
        env=_env_with_src(), capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL: repro trace merge exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        return 1
    with open(merged_path) as handle:
        doc = json.load(handle)
    problems = telemetry.validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"FAIL: invalid merged trace: {problem}",
                  file=sys.stderr)
        return 1

    records = telemetry.read_records(submit_path)
    for log in node_logs:
        records.extend(telemetry.read_records(log))
    for job in jobs:
        trace = telemetry.TraceContext.from_dict(job.trace)
        trace_id, roots = telemetry.trace_tree(records, trace.trace_id)
        in_trace = [r for r in records
                    if r.get("trace_id") == trace.trace_id
                    and r.get("kind") == "span"]
        if trace_id != trace.trace_id or len(roots) != 1 \
                or roots[0]["name"] != "submit" \
                or _tree_size(roots) != len(in_trace):
            print(f"FAIL: {job.source_name}: spans do not form one "
                  f"connected submit-rooted tree "
                  f"(roots={[r['name'] for r in roots]}, "
                  f"tree={_tree_size(roots)}, spans={len(in_trace)})",
                  file=sys.stderr)
            return 1
    lanes = {r["node"] for r in records}
    print(f"ok: fleet trace valid — {count} jobs, "
          f"{len(records)} records from lanes {sorted(lanes)}, "
          f"{len(doc['traceEvents'])} merged events, "
          f"one connected tree per trace id")
    return 0


def check_prometheus(workdir: str) -> int:
    """Scrape the live fleet-health endpoint with the strict parser."""
    from repro.service import ServiceServer

    server = ServiceServer(workers=1, port=0,
                           queue=os.path.join(workdir, "metrics-q.db"))
    server.start()
    try:
        host, port = server.address
        body = json.dumps({"kind": "detect", "source": RACY % 1,
                           "source_name": "m.hj"}).encode("utf-8")
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as reply:
            job_id = json.loads(reply.read())["ids"][0]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with urllib.request.urlopen(
                    f"http://{host}:{port}/jobs/{job_id}",
                    timeout=10) as reply:
                if json.loads(reply.read())["status"] == "done":
                    break
            time.sleep(0.05)
        else:
            print("FAIL: metrics probe job never completed",
                  file=sys.stderr)
            return 1
        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics?format=prometheus",
                timeout=10) as reply:
            text = reply.read().decode("utf-8")
    finally:
        server.close()

    try:
        samples = telemetry.parse_prometheus(text)
    except ValueError as error:
        print(f"FAIL: exposition does not parse: {error}",
              file=sys.stderr)
        return 1
    names = {name for name, _labels, _value in samples}
    missing = [family for family in REQUIRED_FAMILIES
               if family not in names]
    if missing:
        print(f"FAIL: exposition lacks families {missing}",
              file=sys.stderr)
        return 1
    print(f"ok: prometheus exposition parses — {len(samples)} samples, "
          f"{len(names)} series names")
    return 0


def check_overhead(workdir: str, program: str, budget: float,
                   rounds: int, grace_s: float) -> int:
    """``run_job`` CPU time, tracing enabled vs disabled, in ABBA pairs.

    Measured on a real example program (~50 ms of detection) so the
    per-job tracing cost — minting a context, exporting one session of
    spans as JSONL — is held against a meaningful denominator.
    """
    with open(program) as handle:
        source = handle.read()
    run_job(Job("detect", source, source_name="warm.hj"))  # warm-up
    log_path = os.path.join(workdir, "overhead.jsonl")

    def run_off():
        telemetry.set_tracelog(None)
        run_job(Job("detect", source, source_name="off.hj"))

    def run_on():
        telemetry.set_tracelog(log_path, node="ci")
        run_job(Job("detect", source, source_name="on.hj",
                    trace=telemetry.TraceContext.mint()))

    try:
        return paired_overhead("run_job tracing", run_off, run_on, budget,
                               rounds, grace_s)
    finally:
        telemetry.set_tracelog(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=6,
                        help="jobs in the 2-node traced batch")
    parser.add_argument("--lease", type=float, default=5.0)
    parser.add_argument("--program",
                        default="examples/mergesort_racy.hj",
                        help="overhead-probe program (needs a real "
                             "workload, not a toy)")
    parser.add_argument("--budget", type=float, default=0.05,
                        help="max allowed relative overhead (default 5%%)")
    parser.add_argument("--rounds", type=int, default=16,
                        help="on/off pairs, run in ABBA order")
    parser.add_argument("--grace-ms", type=float, default=2.0,
                        help="absolute delta below which the relative "
                             "budget is not enforced")
    options = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="observability_ci_") as work:
        failures = check_fleet_trace(work, options.count, options.lease)
        failures += check_prometheus(work)
        failures += check_overhead(work, options.program,
                                   options.budget, options.rounds,
                                   options.grace_ms / 1e3)
    if failures:
        return 1
    print("observability CI gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
