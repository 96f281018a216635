"""Start, measure and stop the server under test in its own process(es).

The load generator never shares an interpreter with the server: the
server is ``harness/launcher.py`` (``repro serve --no-tracing``, plus
``--fleet 2`` for the gateway workload), so client threads never
contend for the server's GIL.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from .launcher import BENCH_DIR, SRC_DIR

LAUNCHER = os.path.join(BENCH_DIR, "harness", "launcher.py")

_READY = re.compile(r"^serving STTSV (?:fleet )?on ([\d.]+):(\d+)")


class ServerProcess:
    """One served instance: a shard server, or a gateway with its shards."""

    def __init__(
        self, log_path: str, fleet: bool, spans_path: Optional[str] = None
    ):
        self.log_path = log_path
        self.fleet = fleet
        self.spans_path = spans_path
        self.process: Optional[subprocess.Popen] = None
        self._children: List[int] = []

    def start(self, timeout: float = 60.0) -> Tuple[str, int]:
        """Spawn and block until the server prints its address."""
        command = [sys.executable, LAUNCHER]
        if self.spans_path is not None:
            command += ["--spans", self.spans_path]
        command += ["serve", "--no-tracing", "--port", "0"]
        if self.fleet:
            command += ["--fleet", "2"]
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env
            )
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = _READY.match(line)
            if match:
                self._children = self._child_pids()
                return match.group(1), int(match.group(2))
        self.kill()
        raise RuntimeError(
            f"server did not start (see {self.log_path})"
        )

    def _child_pids(self) -> List[int]:
        pid = self.process.pid
        children: List[int] = []
        task_dir = f"/proc/{pid}/task"
        try:
            for tid in os.listdir(task_dir):
                with open(f"{task_dir}/{tid}/children") as source:
                    children += [int(c) for c in source.read().split()]
        except OSError:
            pass
        return children

    def pids(self) -> List[int]:
        return [self.process.pid, *self._child_pids()]

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server-side processes, in MiB."""
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def wait(self, timeout: float = 30.0) -> None:
        """Wait for a requested shutdown; force it if it does not come."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        """Stop the server if it still runs, then its leftover shards;
        returns once every one of them has ended."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self._children = self._child_pids() or self._children
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._reap_children()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def _reap_children(self) -> None:
        """Shards outliving their gateway are terminated and waited for."""
        left = [pid for pid in self._children if _alive(pid)]
        _signal_all(left, signal.SIGTERM)
        deadline = time.monotonic() + 15.0
        while left:
            if time.monotonic() > deadline:
                _signal_all(left, signal.SIGKILL)
            time.sleep(0.05)
            left = [pid for pid in left if _alive(pid)]
        self._children = []


def _signal_all(pids: List[int], sig: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except OSError:
            pass


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False
