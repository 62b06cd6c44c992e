"""Regenerate ``vc_races.json``: the vector-clock detector's race count
for every (program, variant, args) the detect-suite can send.

The vector-clock detector is an independent implementation of race
detection (happens-before over spawn/join clocks, not ESP-bags), so the
table is ground truth the benchmark checks each ``detect`` answer
against without re-running the oracle inside a timed run.  Rerun after
changing ``workloads.DETECT_LEVELS``::

    python3 perfbench/make_vc_table.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.lang import parse  # noqa: E402
from repro.races import detect_races  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    table = {}
    for program, variant, args in workloads.detect_space():
        source = workloads.table1_source(program, variant)
        detection = detect_races(parse(source), args, algorithm="vc")
        key = workloads.vc_key(program, variant, args)
        table[key] = len(detection.report)
        print(key, table[key], flush=True)
    with open(workloads.VC_TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
