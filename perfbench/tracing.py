"""In-memory spans around calls into the system's layers.

The benchmark traces from its own files only: :func:`install` replaces
each layer's public entry points with a wrapper that records one span
per call, in every ``repro`` module that bound the function, before the
service starts.  Forked pool workers inherit the wrappers; each process
keeps its spans in memory and writes them out once, when it ends
(:func:`dump`).  A span records its name, start, end, the in-process span
that caused it, and the job's trace id, which the service already mints
per job — so spans of one job share an identifier across processes.

:func:`self_times` turns the spans of all processes into per-layer self
time: a span's duration minus the part of it its child spans cover.
Spans that start a process's part of a job (a queue call inside an HTTP
request) are attached to the client span of the same job that encloses
them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from stats import union_length

#: (id, parent id, trace ids, name, start, end)
Span = Tuple[str, Optional[str], Tuple[str, ...], str, float, float]


class SpanRecorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked child starts with its parent's
        spans otherwise)."""
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}:"

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> str:
        return self._prefix + str(next(self._ids))

    def wrap(self, name: str, func: Callable,
             trace_in: Optional[Callable] = None,
             trace_out: Optional[Callable] = None) -> Callable:
        """``func`` recording a ``name`` span per call.  ``trace_in``
        reads the job's trace id from the arguments, ``trace_out`` from
        the return value; otherwise the span inherits its parent's."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            trace = trace_in(args) if trace_in is not None else None
            if trace is None and parent is not None:
                trace = parent[1]
            frame = [recorder.new_id(), trace]
            stack.append(frame)
            start = time.monotonic()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                if frame[1] is None and trace_out is not None:
                    frame[1] = trace_out(result)
                recorder.spans.append(
                    (frame[0], parent[0] if parent is not None else None,
                     (frame[1],) if frame[1] else (), name, start, end))

        return traced

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def load_spans(directory: str) -> List[Span]:
    spans: List[Span] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                for span in json.load(f)["spans"]:
                    spans.append((span[0], span[1], tuple(span[2]), span[3],
                                  span[4], span[5]))
    return spans


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def attach_orphans(spans: List[Span], client_names: Iterable[str]
                   ) -> Dict[str, Optional[str]]:
    """Parent of every span: its in-process parent, or — for a span
    with none — the shortest client span of the same job that encloses
    it in time."""
    client_names = set(client_names)
    by_trace: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span[3] in client_names:
            for trace in span[2]:
                by_trace[trace].append(span)
    parents: Dict[str, Optional[str]] = {}
    for span in spans:
        parent = span[1]
        if parent is None and span[3] not in client_names:
            best = None
            for trace in span[2]:
                for outer in by_trace.get(trace, ()):
                    if outer[4] <= span[4] and span[5] <= outer[5] and (
                            best is None
                            or outer[5] - outer[4] < best[5] - best[4]):
                        best = outer
            if best is not None:
                parent = best[0]
        parents[span[0]] = parent
    return parents


def self_times(spans: List[Span],
               parents: Optional[Dict[str, Optional[str]]] = None
               ) -> Dict[str, float]:
    """Span id -> duration minus the time its children cover (children
    running in parallel threads are counted once; parts of a child
    outside its parent are ignored)."""
    if parents is None:
        parents = {span[0]: span[1] for span in spans}
    by_id = {span[0]: span for span in spans}
    children: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        parent_id = parents.get(span[0])
        parent = by_id.get(parent_id) if parent_id is not None else None
        if parent is None:
            continue
        start = max(span[4], parent[4])
        end = min(span[5], parent[5])
        if end > start:
            children[parent[0]].append((start, end))
    return {span[0]: max(0.0, (span[5] - span[4])
                         - union_length(children.get(span[0], [])))
            for span in spans}


# ----------------------------------------------------------------------
# Instrumentation of a running service
# ----------------------------------------------------------------------

def _job_trace(job: Any) -> Optional[str]:
    trace = getattr(job, "trace", None)
    return trace.get("trace_id") if isinstance(trace, dict) else None


def _result_trace(result: Any) -> Optional[str]:
    return getattr(result, "trace_id", None)


#: (span name, module, attribute) of the functions wrapped in every
#: module that bound them.
FUNCTIONS = (
    ("lang.parse", "repro.lang", "parse"),
    ("lang.validate", "repro.lang", "validate"),
    ("lang.pretty", "repro.lang", "pretty"),
    ("races.detect", "repro.races", "detect_races"),
    ("repair.repair", "repro.repair", "repair_program"),
    ("graph.measure", "repro.graph", "measure_program"),
)

#: (span name, module, class, method, trace_in, trace_out).
METHODS = (
    ("races.to_payload", "repro.races.detect", "DetectionResult",
     "to_payload", None, None),
    ("service.cache.key", "repro.service.cache", "ResultCache", "key_for",
     lambda a: _job_trace(a[1]), None),
    ("service.cache.lookup", "repro.service.cache", "ResultCache", "lookup",
     lambda a: _job_trace(a[1]), None),
    ("service.cache.put", "repro.service.cache", "ResultCache", "put",
     lambda a: _result_trace(a[2]), None),
    ("service.queue.submit", "repro.service.queue", "JobQueue", "submit",
     lambda a: _job_trace(a[1]), None),
    ("service.queue.claim", "repro.service.queue", "JobQueue", "claim",
     None, lambda r: _job_trace(r[1]) if r else None),
    ("service.queue.complete", "repro.service.queue", "JobQueue",
     "complete", lambda a: _result_trace(a[3]), None),
    ("service.queue.result", "repro.service.queue", "JobQueue", "result",
     None, _result_trace),
)


def _rebind(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder, span_dir: str) -> None:
    """Wrap every traced entry point, including the pool's worker main
    (which resets the inherited spans and dumps its own at exit)."""
    import importlib

    for module in ("repro.cli", "repro.lang", "repro.races",
                   "repro.repair", "repro.graph", "repro.service",
                   "repro.service.jobs", "repro.service.pool"):
        importlib.import_module(module)
    for name, module, attr in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        _rebind(original, recorder.wrap(name, original))
    for name, module, cls_name, meth, trace_in, trace_out in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, meth, recorder.wrap(name, getattr(cls, meth),
                                         trace_in, trace_out))
    run_job = sys.modules["repro.service.jobs"].run_job
    _rebind(run_job, recorder.wrap("service.worker.run_job", run_job,
                                   lambda a: _job_trace(a[0])))
    pool = sys.modules["repro.service.pool"]
    worker_main = pool._worker_main

    def traced_worker_main(conn_) -> None:
        recorder.reset()
        try:
            worker_main(conn_)
        finally:
            recorder.dump(span_dir)

    pool._worker_main = traced_worker_main


def serve_main(argv: List[str]) -> int:
    """``traced_serve.py SPAN_DIR SERVE_ARGS...``: ``repro serve`` with
    every traced entry point wrapped; spans are written to SPAN_DIR."""
    span_dir, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder, span_dir)
    from repro.cli import main

    try:
        return main(["serve"] + serve_args)
    finally:
        recorder.dump(span_dir)
