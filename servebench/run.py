"""Benchmark of served STTSV: four workloads, end-to-end and per-layer metrics.

One pass of one workload (the form ``BENCHMARK.json`` names)::

    python3 servebench/run.py --workload plan_dense --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.

The full report (both passes of every workload, with the environment
stamp, latency budget, top stages and tracing overhead)::

    python3 servebench/run.py --seed 1 [--workload W] [--quick] --output R.json

Both forms start the server in its own process(es), check the served
outputs against local references after the window, and exit nonzero if
any check fails. ``--quick`` is a smoke run whose numbers are not
comparable. Compare reports with ``servebench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

#: Windows and repetitions of a full (or ``--quick``) report.
FULL = {"warmup": 2.0, "seconds": 20.0, "traced_seconds": 10.0, "setups": 5}
QUICK = {"warmup": 0.5, "seconds": 2.0, "traced_seconds": 1.0, "setups": 1}

#: Every ``KEEP_EVERY``-th reply is kept; at most ``MAX_CHECKS`` of the
#: kept replies per target, evenly spaced, are checked after the window.
KEEP_EVERY = 8
MAX_CHECKS = 48


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC_DIR}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC_DIR / "repro").resolve():
        print(
            f"error: imported repro from {repro.__file__}, not {SRC_DIR}",
            file=sys.stderr,
        )
        sys.exit(2)


# -- environment ------------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _l3_bytes() -> Optional[int]:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 1 << 10, "M": 1 << 20}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            return None
    return None


def _cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty if unreadable)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return []


def environment() -> Dict:
    import platform

    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "platform": platform.platform(),
    }


# -- one pass -----------------------------------------------------------------------


def _session(stats: Dict, tensor_id: str) -> Dict:
    for label, session in stats.get("sessions", {}).items():
        if label.startswith(f"{tensor_id}@"):
            return session
    return {}


def _checks(instance, window, stats: Dict) -> List[str]:
    """Every failed output check, as a message (empty when all pass)."""
    import numpy as np

    failures: List[str] = []
    by_target: Dict[int, list] = {}
    for sample in window.kept:
        by_target.setdefault(sample[0], []).append(sample)
    for index, samples in sorted(by_target.items()):
        target = instance.targets[index]
        picks = np.linspace(0, len(samples) - 1, min(MAX_CHECKS, len(samples)))
        for pick in sorted(set(int(p) for p in picks)):
            _, x, y, epoch = samples[pick]
            if not target.check(x, y, epoch):
                failures.append(f"{target.tensor_id}: reply {pick} (epoch {epoch}) is wrong")
    from harness.checks import final_rank_matches, words_match

    for target in instance.targets:
        if target.expected_words is not None:
            session = _session(stats, target.tensor_id)
            if not words_match(
                session.get("comm_words", -1), session.get("parallel_runs", 0),
                target.expected_words,
            ):
                failures.append(
                    f"{target.tensor_id}: served runs moved {session.get('comm_words')}"
                    f" words over {session.get('parallel_runs')} runs, expected"
                    f" {target.expected_words} per run"
                )
    writer = instance.writer
    if writer is not None:
        acked = sum(1 for w in window.writes if w.ok)
        rank = _session(stats, writer.tensor_id).get("rank", -1)
        if not final_rank_matches(rank, writer.initial_rank, acked):
            failures.append(
                f"{writer.tensor_id}: final rank {rank} after {acked} writes,"
                f" expected {writer.initial_rank + acked}"
            )
    return failures


def run_pass(
    name: str, seed: int, seconds: float, warmup: float, traced: bool,
    setups: int, out_dir: Path, prefix_seconds: Optional[float] = None,
) -> Dict:
    """Set the server up ``setups`` times, measure one window on the last."""
    import numpy as np

    from harness.analysis import end_to_end, layer_metrics, top_stages
    from harness.layers import install_client_layers
    from harness.loadgen import run_window
    from harness.server import ServerProcess
    from harness.spans import SpanLog
    from harness.workloads import WORKLOADS
    from repro.service.client import ServiceClient

    workload = WORKLOADS[name]
    instance = workload.build(seed, seconds)
    first = instance.targets[0]
    probe = np.random.default_rng([seed, 99]).standard_normal(first.n)
    spans_path = out_dir / f"{name}-spans.jsonl"
    setup_seconds: List[float] = []
    for rep in range(setups):
        server = ServerProcess(
            str(out_dir / f"{name}-server.log"), workload.fleet,
            str(spans_path) if traced and rep == setups - 1 else None,
        )
        clients: List = []
        try:
            began = time.monotonic()
            host, port = server.start()
            clients = [ServiceClient(host, port) for _ in range(workload.connections)]
            for target in instance.targets:
                target.register(clients[0])
            clients[0].apply(first.tensor_id, probe, mode=first.mode)
            setup_seconds.append(time.monotonic() - began)
            if rep == setups - 1:
                client_log = SpanLog({"role": "client"})
                if traced:
                    install_client_layers(client_log)
                try:
                    window = run_window(clients, instance, seed, warmup, seconds, KEEP_EVERY)
                finally:
                    client_log.unwrap_all()
                peak_rss_mb = server.peak_rss_mb()
                stats = clients[0].stats()
            clients[0].shutdown()
            server.wait()
        finally:
            for client in clients:
                client.close()
            server.kill()

    failures = _checks(instance, window, stats)
    if traced:
        # The server, or the gateway and its two shards.
        expected = 3 if workload.fleet else 1
        span_files = sorted(
            p for p in out_dir.glob(f"{name}-spans.jsonl*") if p.suffix == ".jsonl"
        )
        if len(span_files) != expected:
            failures.append(
                f"{len(span_files)} server span logs written, expected {expected}"
            )
    e2e, details = end_to_end(
        window, setup_seconds, peak_rss_mb, len(failures), prefix_seconds
    )
    result = {
        "workload": name,
        "traced": traced,
        "window_s": seconds,
        "end_to_end": e2e,
        "details": details,
        "check_failures": failures,
        "errors": window.errors[:20],
        "correct": not failures and details["failed"] == 0,
    }
    if traced:
        if not span_files:
            raise RuntimeError(f"{name}: no server span log was written")
        servers = [SpanLog.load(str(p)) for p in span_files]
        rank = _session(stats, instance.writer.tensor_id).get("rank", 0) if instance.writer else 0
        per_layer, budget = layer_metrics(
            window, servers, client_log,
            [t.tensor_id for t in instance.targets], rank,
        )
        result.update(per_layer=per_layer, budget_us=budget, top_stages=top_stages(budget))
    return result


# -- output ---------------------------------------------------------------------------


def _print_metrics(name: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for metric, unit in units.items():
        print(f"{name:14s} {metric:34s} {metrics[metric]:14.4f} {unit}")


def _result_line(result: Dict, traced: bool) -> str:
    from harness.analysis import END_TO_END_UNITS, PER_LAYER_UNITS

    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = result["per_layer"] if traced else result["end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["details"]["attempted"],
            "failed": result["details"]["failed"],
            "metrics": {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit in units.items()
            },
        }
    )


def _full_report(args, out_dir: Path) -> Tuple[Dict, bool]:
    from harness.analysis import DETAIL_UNITS, END_TO_END_UNITS, PER_LAYER_UNITS
    from harness.workloads import WORKLOADS

    config = dict(QUICK if args.quick else FULL)
    if args.seconds is not None:
        config["seconds"] = args.seconds
        config["traced_seconds"] = args.seconds / 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    nproc = os.cpu_count() or 1
    report = {
        "schema": "servebench/1",
        "seed": args.seed,
        "quick": args.quick,
        "env": environment(),
        "config": config,
        "workloads": {},
    }
    correct = True
    for name in names:
        load_before = os.getloadavg()[0]
        ticks_before = _cpu_ticks()
        untraced = run_pass(
            name, args.seed, config["seconds"], config["warmup"], False,
            config["setups"], out_dir, prefix_seconds=config["traced_seconds"],
        )
        traced = run_pass(
            name, args.seed, config["traced_seconds"], config["warmup"], True,
            1, out_dir,
        )
        # Over equal spans of window: the traced pass is shorter.
        untraced_rps = untraced["details"]["prefix_throughput_rps"]
        overhead = (
            (untraced_rps - traced["end_to_end"]["throughput_rps"]) / untraced_rps * 100
            if untraced_rps else 0.0
        )
        ticks = [b - a for a, b in zip(ticks_before, _cpu_ticks())]
        entry = {
            "why": WORKLOADS[name].why,
            # One generator thread per connection.
            "connections": WORKLOADS[name].connections,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg()[0],
            "noisy_host": load_before > 0.5 * nproc,
            # Share of CPU time the hypervisor gave to other guests.
            "steal_pct": 100.0 * ticks[7] / sum(ticks) if len(ticks) > 7 and sum(ticks) else None,
            "end_to_end": {
                m: {"value": v, "unit": END_TO_END_UNITS[m]}
                for m, v in untraced["end_to_end"].items()
            },
            "details": untraced["details"],
            "per_layer": {
                m: {"value": v, "unit": PER_LAYER_UNITS[m]}
                for m, v in traced["per_layer"].items()
            },
            "budget_us": traced["budget_us"],
            "top_stages": traced["top_stages"],
            "trace_overhead_pct": overhead,
            "traced_details": traced["details"],
            "check_failures": untraced["check_failures"] + traced["check_failures"],
            "errors": untraced["errors"] + traced["errors"],
            "correct": untraced["correct"] and traced["correct"],
        }
        report["workloads"][name] = entry
        correct = correct and entry["correct"]
        _print_metrics(name, untraced["end_to_end"], END_TO_END_UNITS)
        _print_metrics(name, untraced["details"], DETAIL_UNITS)
        _print_metrics(name, traced["per_layer"], PER_LAYER_UNITS)
        print(f"{name:14s} {'trace_overhead_pct':34s} {overhead:14.4f} %")
        for rank, stage in enumerate(traced["top_stages"], 1):
            print(f"{name:14s} top stage {rank}: {stage['stage']} {stage['us']:.1f} us ({stage['share']:.1%})")
        for failure in entry["check_failures"]:
            print(f"{name:14s} CHECK FAILED: {failure}")
        sys.stdout.flush()
    report["correct"] = correct
    return report, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per pass (default 20; traced pass half)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass: 0 untraced end-to-end, 1 traced per-layer")
    parser.add_argument("--quick", action="store_true", help="smoke run, not comparable")
    parser.add_argument("--output", default=None, help="write the full report here")
    args = parser.parse_args(argv)
    _import_repro()
    from harness.analysis import DETAIL_UNITS, END_TO_END_UNITS, PER_LAYER_UNITS
    from harness.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.trace is not None and args.workload is None:
        parser.error("--trace runs one pass of one workload: give --workload")
    # Spans and server logs stay inside the checkout and go with the run.
    with tempfile.TemporaryDirectory(prefix=".servebench-", dir=ROOT) as scratch:
        out_dir = Path(scratch)
        if args.trace is not None:
            config = QUICK if args.quick else FULL
            traced = bool(args.trace)
            result = run_pass(
                args.workload, args.seed,
                args.seconds if args.seconds is not None else config["seconds"],
                config["warmup"], traced, 1 if traced else config["setups"], out_dir,
            )
            if traced:
                _print_metrics(args.workload, result["per_layer"], PER_LAYER_UNITS)
                for stage in result["top_stages"]:
                    print(f"{args.workload:14s} top stage: {stage['stage']} {stage['us']:.1f} us ({stage['share']:.1%})")
            else:
                _print_metrics(args.workload, result["end_to_end"], END_TO_END_UNITS)
                _print_metrics(args.workload, result["details"], DETAIL_UNITS)
            for failure in result["check_failures"] + result["errors"]:
                print(f"{args.workload:14s} FAILED: {failure}")
            if args.output:
                Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
            print(_result_line(result, traced))
            return 0 if result["correct"] else 1
        report, correct = _full_report(args, out_dir)
        if args.output:
            Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
