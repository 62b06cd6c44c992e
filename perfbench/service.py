"""Start, probe and stop the ``repro serve`` process under test.

The service runs as its own process (and process group, so its pool
workers are stopped with it), exactly as a user deploys it:
``repro serve --queue <fresh db> --cache-dir <fresh dir> --workers 2``
on an ephemeral port.  Its stderr goes to a file, read for the
"listening on" line; nothing is left to block on a full pipe.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

WORKERS = 2
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServiceProcess:
    """One ``repro serve`` instance with a fresh queue and cache."""

    def __init__(self, root: str, workdir: str,
                 span_dir: Optional[str] = None) -> None:
        self.root = root
        self.workdir = workdir
        self.span_dir = span_dir
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        #: seconds from launch until /healthz first answered 200.
        self.ready_s: Optional[float] = None

    def command(self) -> List[str]:
        serve_args = ["--queue", os.path.join(self.workdir, "queue.db"),
                      "--cache-dir", os.path.join(self.workdir, "cache"),
                      "--workers", str(WORKERS), "--port", "0"]
        if self.span_dir is None:
            return [sys.executable, "-m", "repro.cli", "serve"] + serve_args
        return [sys.executable,
                os.path.join(self.root, "perfbench", "traced_serve.py"),
                self.span_dir] + serve_args

    def start(self) -> "ServiceProcess":
        os.makedirs(self.workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        log_path = os.path.join(self.workdir, "serve.log")
        launched = time.monotonic()
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.command(), cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                start_new_session=True)
        deadline = launched + READY_TIMEOUT_S
        while self.address is None:
            self._check_alive(log_path)
            with open(log_path, encoding="utf-8", errors="replace") as log:
                match = _LISTENING.search(log.read())
            if match:
                self.address = (match.group(1), int(match.group(2)))
            elif time.monotonic() > deadline:
                raise RuntimeError("service did not announce its port")
            else:
                time.sleep(0.005)
        while not self._healthy():
            self._check_alive(log_path)
            if time.monotonic() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.005)
        self.ready_s = time.monotonic() - launched
        return self

    def _check_alive(self, log_path: str) -> None:
        if self.process.poll() is not None:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                tail = log.read()[-2000:]
            raise RuntimeError(f"service exited with code "
                               f"{self.process.returncode}: {tail}")

    def _healthy(self) -> bool:
        try:
            return self.get("/healthz")[0] == 200
        except OSError:
            return False

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(*self.address, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """Highest VmHWM over the serve process and its pool workers."""
        peak_kb = 0
        for pid in [self.process.pid] + _children(self.process.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except OSError:
                continue
        return peak_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain; traced processes write their spans),
        then SIGKILL the whole group if it lingers; wait for every
        member to be gone."""
        if self.process is None:
            return
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(pgid)
        self.process.wait()
        self.process = None


def _children(pid: int) -> List[int]:
    found = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as f:
            found = [int(p) for p in f.read().split()]
    except OSError:
        pass
    return found


def _group_members(pgid: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state; fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _kill_group(pgid: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        members = _group_members(pgid)
        if not members:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {members} survived SIGKILL")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)
