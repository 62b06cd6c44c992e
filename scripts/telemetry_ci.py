#!/usr/bin/env python
"""CI gate for the telemetry layer (DESIGN.md §9).

Two checks, both against a Table-1 program:

1. **Trace validity** — run ``repro profile <program> --trace-out`` in a
   fresh process (the same command a user would type), load the emitted
   Chrome ``trace_event`` document, run it through
   ``validate_chrome_trace``, and assert the pipeline phases the paper
   cares about (execute, dpst, detect, placement) all appear as spans.

2. **Overhead budget** — the enabled-telemetry policy is "harvest,
   don't instrument": per-access detector paths make zero telemetry
   calls, so a full detection under an active session must cost within
   ``--budget`` (default 5%) of a telemetry-off detection.  Measured
   over **CPU time** (``time.process_time``) as the median of per-pair
   on/off ratios over ABBA-ordered pairs (``overhead.py``): shared CI
   runners shift wall-clock by more than the budget, and a min-of-N
   comparison of CPU times still flips on unchanged code.  An absolute
   grace floor additionally keeps sub-millisecond jitter from failing
   the relative check on fast machines.

Exit status 0 iff both checks pass.  Usage::

    PYTHONPATH=src python scripts/telemetry_ci.py \
        --program examples/mergesort_racy.hj --trace-out /tmp/trace.json
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from overhead import check_overhead as paired_overhead
from repro import telemetry
from repro.lang import parse
from repro.races import detect_races

REQUIRED_SPANS = ("repair", "detect_races", "execute", "dpst", "detect",
                  "placement")


def check_trace(program: str, trace_out: str) -> int:
    """Run ``repro profile`` end to end and validate what it emitted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "profile", program,
         "--trace-out", trace_out],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(f"FAIL: repro profile exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        return 1
    with open(trace_out) as handle:
        doc = json.load(handle)
    problems = telemetry.validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"FAIL: invalid trace: {problem}", file=sys.stderr)
        return 1
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    missing = [s for s in REQUIRED_SPANS if s not in names]
    if missing:
        print(f"FAIL: trace lacks pipeline spans {missing}; "
              f"has {sorted(names)}", file=sys.stderr)
        return 1
    print(f"ok: trace valid, {len(doc['traceEvents'])} events, "
          f"spans include {REQUIRED_SPANS}")
    return 0


def check_overhead(program: str, budget: float, rounds: int,
                   grace_s: float) -> int:
    """Detection CPU time, telemetry session on vs off, in ABBA pairs."""
    with open(program) as handle:
        tree = parse(handle.read())
    detect_races(tree)  # warm-up: imports, caches, allocator

    def run_on():
        with telemetry.session("ci-overhead"):
            detect_races(tree)

    return paired_overhead("detect telemetry", lambda: detect_races(tree),
                           run_on, budget, rounds, grace_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program",
                        default="examples/mergesort_racy.hj")
    parser.add_argument("--trace-out", default="/tmp/telemetry_ci.json")
    parser.add_argument("--budget", type=float, default=0.05,
                        help="max allowed relative overhead (default 5%%)")
    parser.add_argument("--rounds", type=int, default=16,
                        help="on/off pairs, run in ABBA order")
    parser.add_argument("--grace-ms", type=float, default=2.0,
                        help="absolute delta below which the relative "
                             "budget is not enforced")
    options = parser.parse_args(argv)

    failures = check_trace(options.program, options.trace_out)
    failures += check_overhead(options.program, options.budget,
                               options.rounds, options.grace_ms / 1e3)
    if failures:
        return 1
    print("telemetry CI gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
