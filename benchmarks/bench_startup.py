"""Serving start-up — time to ready, REGISTER plus first apply, VmHWM.

A ``repro serve`` process is started cold at each gated shape (q=2,
n=120 in ``parallel`` mode; n=300 in ``plan`` mode). The benchmark
times start to the ready line, then REGISTER plus the first apply, and
prints the server's ``VmHWM`` idle and after the apply. Timings are
printed, never asserted; what is asserted is deterministic: the server
maps no ``numpy.random`` extension, ``_hashlib``, libcrypto or
``_posixshmem``, the libraries a served process does not use.
"""

import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.service.client import ServiceClient
from repro.tensor.dense import random_symmetric

UNSERVED = re.compile(r"numpy/random/|_hashlib|libcrypto|_posixshmem")
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field):
                return int(line.split()[1])
    raise KeyError(field)


def _unserved_maps(pid: int):
    with open(f"/proc/{pid}/maps") as maps:
        return sorted({line.split()[-1] for line in maps if UNSERVED.search(line)})


def _start():
    began = time.perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV,
    )
    ready = server.stdout.readline().decode()
    host, port = re.search(r"on ([\d.]+):(\d+)", ready).groups()
    return server, host, int(port), time.perf_counter() - began


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
@pytest.mark.parametrize("n,mode", [(120, "parallel"), (300, "plan")])
def test_startup(benchmark, n, mode):
    server, host, port, start_s = benchmark.pedantic(_start, rounds=1, iterations=1)
    try:
        idle_kb = _status_kb(server.pid, "VmHWM")
        idle_maps = _unserved_maps(server.pid)
        tensor = random_symmetric(n, seed=0)
        x = np.linspace(-1.0, 1.0, n)
        with ServiceClient(host, port) as client:
            began = time.perf_counter()
            client.register("T", tensor, q=2)
            registered = time.perf_counter()
            client.apply("T", x, mode=mode)
            applied = time.perf_counter()
            served_kb = _status_kb(server.pid, "VmHWM")
            served_maps = _unserved_maps(server.pid)
            client.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    print(f"\n[startup — repro serve, q=2, n={n}, mode={mode}]")
    print(
        f"  start to ready {1e3 * start_s:.0f} ms, REGISTER"
        f" {1e3 * (registered - began):.0f} ms, first apply"
        f" {1e3 * (applied - registered):.0f} ms"
    )
    print(f"  VmHWM idle {idle_kb / 1024:.1f} MiB, after the apply {served_kb / 1024:.1f} MiB")
    assert idle_maps == [] and served_maps == []
