"""A served process loads only what it serves.

``repro serve`` imports the serving modules from the submodules that
define each name, so neither an idle server nor one that has answered
plan and parallel requests maps ``numpy.random``'s extensions,
``hashlib``'s OpenSSL binding or the shared-memory transport's
``_posixshmem``. Each of those costs megabytes of resident memory in
every shard of a fleet.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.service.client import ServiceClient
from repro.tensor.dense import random_symmetric

#: Shared objects no serving process may map.
UNSERVED = re.compile(r"numpy/random/|_hashlib|libcrypto|_posixshmem")

#: Modules ``import repro.service.server`` must leave unloaded.
UNSERVED_MODULES = (
    "repro.service.gateway",
    "repro.service.client",
    "repro.apps",
    "repro.machine.transport.shm",
    "numpy.random",
    "multiprocessing",
    "hashlib",
)

SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))
ENV = dict(os.environ, PYTHONPATH=SRC_DIR)

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)


def _unserved_maps(pid: int):
    with open(f"/proc/{pid}/maps") as maps:
        return sorted(
            {line.split()[-1] for line in maps if UNSERVED.search(line)}
        )


def test_server_module_imports_no_unserved_module():
    completed = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys\n"
            "import repro.service.server\n"
            f"print(json.dumps([m for m in {list(UNSERVED_MODULES)!r}"
            " if m in sys.modules]))\n",
        ],
        capture_output=True, text=True, check=True, env=ENV,
    )
    assert json.loads(completed.stdout) == []


def test_served_process_maps_no_unserved_library():
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV,
    )
    try:
        ready = server.stdout.readline().decode()
        host, port = re.search(r"on ([\d.]+):(\d+)", ready).groups()
        assert _unserved_maps(server.pid) == []
        n = 30
        tensor = random_symmetric(n, seed=0)
        x = np.linspace(-1.0, 1.0, n)
        with ServiceClient(host, int(port)) as client:
            client.register("T", tensor, q=2)
            for mode in ("plan", "parallel"):
                assert np.allclose(
                    client.apply("T", x, mode=mode), repro.sttsv(tensor, x)
                )
            assert _unserved_maps(server.pid) == []
            client.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
