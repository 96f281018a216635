"""Server-process entry of the benchmark: ``repro serve``, optionally traced.

    python servebench/harness/launcher.py [--spans FILE] serve --no-tracing ...

Runs the ``repro`` command line on the remaining arguments, importing
``repro`` from the ``src/`` beside the benchmark. With ``--spans`` the
layer wrappers of :mod:`harness.layers` are installed first and the
span log is written to FILE when the process exits; in fleet mode the
shard processes are started through this file as well, each writing
``FILE-shard<port>.jsonl``. SIGTERM (how a fleet stops its shards)
exits through ``SystemExit``, so the server still stops cleanly and the
span log is still written.
"""

from __future__ import annotations

import atexit
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _exit_on_sigterm(signum, frame):
    raise SystemExit(0)


def _spawn_traced_shards(spans_path: str) -> None:
    """Make the fleet start its shards through this launcher, traced."""
    import repro.service.gateway as gateway

    def spawn_shard(port, host="127.0.0.1", extra_args=(), log_path=None):
        command = [
            sys.executable, os.path.abspath(__file__),
            "--spans", f"{spans_path}-shard{port}.jsonl",
            "serve", "--host", host, "--port", str(port), *extra_args,
        ]
        return subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
            env=gateway._repro_env(),
        )

    gateway.spawn_shard = spawn_shard


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    from repro.cli import main as repro_main

    if spans_path is not None:
        from harness.layers import install_server_layers
        from harness.spans import SpanLog

        fleet = "--fleet" in argv
        log = SpanLog({"pid": os.getpid(), "role": "gateway" if fleet else "server"})
        install_server_layers(log)
        atexit.register(log.dump, spans_path)
        if fleet:
            _spawn_traced_shards(spans_path)
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
