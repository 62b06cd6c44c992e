"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPAN_DIR SERVE_ARGS...``
(run from the repository root).  Every process of the service writes its
spans to ``SPAN_DIR/spans-<pid>.json`` when it ends.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

if __name__ == "__main__":
    sys.exit(tracing.serve_main(sys.argv[1:]))
