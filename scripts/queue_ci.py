#!/usr/bin/env python
"""CI gate for the durable queue tier (DESIGN.md §13).

The scenario the queue exists for, end to end, with a real fault:

1. Materialize a slice of the student corpus and run it in-process on
   a bare worker pool (``run_batch``, no queue involved) — the ground
   truth, independent of the queue's result storage.
2. Submit the same corpus to a fresh queue (``repro queue submit``),
   start **two** node processes (``python -m repro.service.node``) with
   a short lease and a shared cache directory, and SIGKILL one of them
   as soon as it holds leases — no shutdown handler runs, the node
   simply vanishes mid-jobs.
3. Let the surviving node drain the queue: the dead node's leases
   expire and are re-claimed.

The gate then asserts the durability contract:

* **No loss** — every submitted job reaches ``done``; none stays
  queued/leased, none is ``failed`` or ``cancelled``.
* **Exactly once** — the queue holds exactly one result per job
  (``done == total``), completions are fenced, and the two nodes'
  completed counts sum to the job count.
* **Identical answers** — each job's result (status, payload, error;
  wall-clock fields excluded) is equal to the in-process baseline's.

Exit status 0 iff every check passes.  Usage::

    PYTHONPATH=src python scripts/queue_ci.py --count 10 --lease 1.0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.students import population_sources
from repro.service import Job, JobQueue, run_batch


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    return env


def write_corpus(directory, count):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, source in population_sources()[:count]:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        paths.append(path)
    return paths


def strip_clocks(value):
    """Drop ``*_s`` (seconds) keys recursively: wall-clock measurements
    vary run to run; everything else must not."""
    if isinstance(value, dict):
        return {key: strip_clocks(inner) for key, inner in value.items()
                if not key.endswith("_s")}
    if isinstance(value, list):
        return [strip_clocks(inner) for inner in value]
    return value


def deterministic_payload(result_dict):
    return {key: strip_clocks(result_dict.get(key))
            for key in ("status", "kind", "source_name", "result", "error")}


def run_baseline(paths, workers):
    """The corpus on a fresh pool, no queue and no cache: source_name
    -> canonical payload.  The jobs match what ``repro queue submit
    <dir> --arg 40`` enqueues."""
    jobs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            jobs.append(Job("repair", handle.read(), source_name=path,
                            args=(40,)))
    baseline = {}
    for _job_id, job, result in run_batch(jobs, workers=workers):
        if result.status != "ok" \
                or not (result.result or {}).get("converged"):
            print(f"FAIL: baseline {job.source_name}: {result.status} "
                  f"{result.error}", file=sys.stderr)
            return None
        baseline[job.source_name] = deterministic_payload(result.to_dict())
    return baseline


def start_node(queue_path, cache_dir, node_id, workers, lease):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.node",
         "--queue", queue_path, "--workers", str(workers),
         "--cache-dir", cache_dir, "--node-id", node_id,
         "--lease", str(lease)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def run_gate(workdir, count, workers, lease, budget_s):
    corpus_dir = os.path.join(workdir, "corpus")
    queue_path = os.path.join(workdir, "queue.db")
    cache_dir = os.path.join(workdir, "cache")
    paths = write_corpus(corpus_dir, count)

    baseline = run_baseline(paths, workers)
    if baseline is None:
        return 1
    if len(baseline) != count:
        print(f"FAIL: baseline produced {len(baseline)} results "
              f"for {count} programs", file=sys.stderr)
        return 1
    print(f"ok: in-process baseline answered {len(baseline)} program(s)")

    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "queue", "submit", corpus_dir,
         "--arg", "40", "--queue", queue_path, "--json"],
        capture_output=True, text=True, env=_env())
    if proc.returncode != 0:
        print(f"FAIL: queue submit exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        return 1
    submitted = json.loads(proc.stdout)
    batch_id, ids = submitted["batch_id"], submitted["ids"]
    print(f"ok: submitted {len(ids)} job(s) as {batch_id}")

    queue = JobQueue(queue_path, lease_s=lease)

    def victim_holds_leases():
        row = queue._conn().execute(
            "SELECT COUNT(*) AS n FROM jobs "
            "WHERE state = 'leased' AND lease_owner = 'victim'").fetchone()
        return int(row["n"]) > 0

    victim = start_node(queue_path, cache_dir, "victim", workers, lease)
    survivor = start_node(queue_path, cache_dir, "survivor", workers, lease)
    killed = False
    try:
        # SIGKILL the victim the moment it holds leases: mid-batch, no
        # cleanup, the fault the lease protocol absorbs.
        deadline = time.monotonic() + budget_s
        while time.monotonic() < deadline:
            if victim_holds_leases():
                victim.kill()
                killed = True
                break
            time.sleep(0.005)
        if not killed:
            print("FAIL: the victim node never leased a job",
                  file=sys.stderr)
            return 1
        victim.wait(timeout=30)
        print("ok: SIGKILLed the victim node mid-batch")

        try:
            survivor_log = survivor.communicate(
                timeout=max(1.0, deadline - time.monotonic()))[0]
        except subprocess.TimeoutExpired:
            survivor.kill()
            print("FAIL: surviving node did not drain the queue in "
                  f"{budget_s:.0f}s", file=sys.stderr)
            return 1
    finally:
        for node in (victim, survivor):
            if node.poll() is None:
                node.kill()
    if survivor.returncode != 0:
        print(f"FAIL: surviving node exited {survivor.returncode}:\n"
              f"{survivor_log}", file=sys.stderr)
        return 1

    failures = 0
    counts = queue.counts(batch_id)
    if counts["done"] != len(ids) or counts["failed"] \
            or counts["cancelled"] or counts["queued"] or counts["leased"]:
        print(f"FAIL: expected all {len(ids)} job(s) done exactly once, "
              f"got {counts}", file=sys.stderr)
        failures += 1
    else:
        print(f"ok: all {counts['done']} job(s) done, none lost, "
              f"duplicated, failed or cancelled")

    mismatched = 0
    for queue_id in ids:
        stored = queue.result(queue_id)
        if stored is None:
            print(f"FAIL: job {queue_id} has no stored result",
                  file=sys.stderr)
            failures += 1
            continue
        recovered = deterministic_payload(stored.to_dict())
        name = recovered["source_name"]
        if recovered != baseline.get(name):
            print(f"FAIL: {name}: crash-recovered result differs from "
                  f"the in-process baseline", file=sys.stderr)
            mismatched += 1
    if mismatched:
        failures += mismatched
    else:
        print(f"ok: every recovered result identical to the baseline")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="durable-queue CI gate: 2 nodes, 1 SIGKILL, 0 losses")
    parser.add_argument("--count", type=int, default=10,
                        help="corpus slice size (default 10)")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool workers per node (default 2)")
    parser.add_argument("--lease", type=float, default=1.0,
                        help="queue lease seconds (default 1.0; short so "
                             "the dead node's work is re-offered fast)")
    parser.add_argument("--budget", type=float, default=240.0,
                        help="overall drain budget in seconds")
    parser.add_argument("--workdir", default=None,
                        help="keep artifacts here instead of a temp dir")
    options = parser.parse_args(argv)

    workdir = options.workdir or tempfile.mkdtemp(prefix="queue-ci-")
    try:
        return run_gate(workdir, options.count, options.workers,
                        options.lease, options.budget)
    finally:
        if options.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
