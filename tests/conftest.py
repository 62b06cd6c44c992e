"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.lang import parse, validate
from repro.runtime import BUILTIN_NAMES, run_program


def build(source: str, require_main: bool = True):
    """Parse + validate a mini-HJ program (most tests want both)."""
    program = parse(source)
    validate(program, BUILTIN_NAMES, require_main=require_main)
    return program


def run(source: str, args=()):
    """Parse, validate and execute; returns the output lines."""
    return run_program(build(source), args).output


def src_env():
    """The environment for a subprocess that imports ``repro`` from this
    checkout's ``src`` directory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH", ""))
        if p)
    return env


def _stat_fields(pid):
    """``/proc/<pid>/stat`` after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def children_of(pid):
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(entry)[1]) == pid:
                kids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return kids


def alive(pid):
    """Running: neither gone nor a zombie awaiting its reaper."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def pool_job_state(pool):
    """Sizes of everything a :class:`~repro.service.WorkerPool` records
    per job; all zero once every submitted job has completed and its
    result has been consumed from the completion stream."""
    with pool._lock:
        return {"jobs": len(pool._jobs), "pending": len(pool._pending),
                "running": len(pool._running),
                "submit_epoch": len(pool._submit_epoch),
                "key_owner": len(pool._key_owner),
                "owner_key": len(pool._owner_key),
                "waiters": len(pool._waiters),
                "stream": pool._completed.qsize()}


@pytest.fixture
def fib_source() -> str:
    """The paper's Figure 8 program (unsynchronized Fibonacci)."""
    return """
    struct BoxInteger { v }

    def fib(ret, n) {
        if (n < 2) {
            ret.v = n;
            return;
        }
        var X = new BoxInteger();
        var Y = new BoxInteger();
        async fib(X, n - 1);
        async fib(Y, n - 2);
        ret.v = X.v + Y.v;
    }

    def main(n) {
        var result = new BoxInteger();
        async fib(result, n);
        print(result.v);
    }
    """


@pytest.fixture
def figure7_source() -> str:
    """Figure 7: two parallel readers, one later writer."""
    return """
    var x = 0;

    def main() {
        async { var a = x; print(a); }
        async { var b = x; print(b); }
        async { x = 1; }
    }
    """
