"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``      regenerate the paper's partition tables (Tables 1–3)
``schedule``    print the point-to-point schedule (Figure 1 style)
``bound``       evaluate the Theorem 5.2 lower bound (or its order-d
                generalization)
``analyze``     run Algorithm 5 on the simulator and compare measured
                communication with the closed forms
``admissible``  list constructible processor counts
``plan``        price every candidate configuration (variant × fusion ×
                backend × plan strategy) under calibrated α-β-γ
                constants and print the decision table;
                ``--calibrate`` refreshes the constants from
                microbenchmarks first
``serve``       start the STTSV serving layer (warm sessions + dynamic
                batching) on a TCP port; ``--fleet N`` spawns N shard
                processes behind a consistent-hash gateway instead
``gateway``     route STTSV traffic across already-running shard
                servers with a consistent-hash ring
``load``        register a random tensor on a running server (or
                gateway) and drive it with concurrent closed-loop
                clients
``stats``       scrape a running server or gateway: human table, raw
                JSON, or Prometheus text format
``trace``       render the span tree of one trace id (from a running
                server or a JSON-lines dump)

Every command prints plain text and returns a process exit code, so the
CLI is scriptable and the test suite drives it directly through
:func:`main` — including failure paths: unknown subcommands return 2
(usage on stderr) instead of escaping as ``SystemExit``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro._version import __version__
from repro.core import bounds
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.schedule import build_exchange_schedule
from repro.core.sttsv_ndim import sttsv_ndim_lower_bound
from repro.errors import ConfigurationError, ReproError
from repro.machine.machine import Machine
from repro.machine.transport import TRANSPORTS, FaultPolicy, make_transport
from repro.planner.pricing import VARIANTS
from repro.reporting.tables import (
    render_processor_table,
    render_row_block_table,
    render_schedule,
    summary_statistics,
)
from repro.steiner import (
    admissible_processor_counts,
    boolean_steiner_system,
    spherical_steiner_system,
)
from repro.tensor.dense import random_symmetric


def _partition_from_args(args) -> TetrahedralPartition:
    if args.sqs is not None:
        system = boolean_steiner_system(args.sqs)
    else:
        system = spherical_steiner_system(args.q)
    partition = TetrahedralPartition(system)
    partition.validate()
    return partition


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=sorted(TRANSPORTS),
        default="simulated",
        help="who moves the bytes: in-process simulation (default) or"
        " shared-memory worker processes (ledger counts are identical)",
    )


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--q", type=int, default=3,
        help="prime power for the spherical family (P = q(q²+1); default 3)",
    )
    group.add_argument(
        "--sqs", type=int, default=None,
        help="k for the Boolean family SQS(2^k) (the paper's Table 3 uses k=3)",
    )


def _command_tables(args) -> int:
    partition = _partition_from_args(args)
    print(render_processor_table(partition))
    print()
    print(render_row_block_table(partition))
    print()
    print("summary:", summary_statistics(partition))
    return 0


def _command_schedule(args) -> int:
    partition = _partition_from_args(args)
    schedule = build_exchange_schedule(partition)
    print(render_schedule(schedule))
    print(
        f"\n{schedule.step_count} steps for P = {partition.P}"
        f" (P - 1 = {partition.P - 1});"
        f" {schedule.degrees.two_block} two-block +"
        f" {schedule.degrees.one_block} one-block neighbors per processor"
    )
    return 0


def _command_bound(args) -> int:
    if args.d == 3:
        value = bounds.sttsv_lower_bound(args.n, args.p)
    else:
        value = sttsv_ndim_lower_bound(args.n, args.p, args.d)
    print(
        f"lower bound (n={args.n}, P={args.p}, d={args.d}):"
        f" {value:.2f} words per processor"
    )
    print(f"leading term 2n/P^(1/d): {2 * args.n / args.p ** (1 / args.d):.2f}")
    return 0


class _RetryView:
    """Duck-typed ledger view carrying only the retry side-channel,
    for rendering a verdict through :func:`fault_summary`."""

    def __init__(self, retry_rounds: int, retry_words: int, retry_messages: int):
        self.retry_rounds = retry_rounds
        self.retry_words = retry_words
        self.retry_messages = retry_messages


def _command_analyze(args) -> int:
    from repro.obs.tracing import get_tracer, new_trace_id, trace_context

    tracer = get_tracer()
    trace_id = new_trace_id()
    tracer_was_enabled = tracer.enabled
    tracer.enable()
    try:
        with trace_context(trace_id):
            return _run_analyze(args, trace_id)
    finally:
        if not tracer_was_enabled:
            tracer.disable()


def _run_analyze_ndim(args, trace_id: str) -> int:
    """Order-4 analysis: run the blocked STTSV over an SQS partition
    and compare measured communication with the generalized bound."""
    from repro.core.partition_ndim import QuadruplePartition
    from repro.core.sttsv_ndim import sttsv_ndim
    from repro.tensor.ndpacked import nd_random_symmetric

    if args.sqs is None:
        raise ConfigurationError(
            "order-4 analysis partitions with SQS(2^k); pass --sqs K"
        )
    partition = QuadruplePartition(boolean_steiner_system(args.sqs))
    partition.validate()
    n = args.n if args.n else partition.m * partition.replication
    tensor = nd_random_symmetric(n, 4, seed=args.seed)
    x = np.random.default_rng(args.seed + 1).normal(size=n)
    algo = ParallelSTTSV(partition, n)
    print(
        f"order-4 blocked STTSV on P = {partition.P} processors, n = {n}"
        f" (padded to {algo.n_padded}, transport {args.backend})"
    )
    print(f"trace id: {trace_id}")
    with Machine(
        partition.P,
        transport=make_transport(args.backend, partition.P),
        fusion=args.fused,
    ) as machine:
        algo.load(machine, tensor, x)
        algo.run(machine)
        y = algo.gather_result(machine)
        words = machine.ledger.max_words_sent()
        rounds = machine.ledger.round_count()
    error = float(np.max(np.abs(y - sttsv_ndim(tensor, x))))
    bound = sttsv_ndim_lower_bound(n, partition.P, 4)
    print(
        f"  {'point-to-point':>16}: {words:>8} words/proc,"
        f" {rounds:>4} rounds, max error {error:.2e}"
    )
    print(
        f"  {'lower bound':>16}: {bound:>8.1f} words/proc"
        f" (order-4 generalization)"
    )
    return 0


def _run_analyze_symk(args, trace_id: str) -> int:
    """Low-rank analysis: run the symk TTSV under both communication
    variants and compare the measured ledger with the closed form
    ``(P-1)·r`` words per processor."""
    from repro.core.parallel_symk import (
        ParallelSymKTTSV,
        symk_words_per_processor,
    )
    from repro.tensor.symk import random_symk

    P = args.q * (args.q * args.q + 1)
    n = args.n if args.n else 4 * P
    tensor = random_symk(n, args.rank, order=args.order, seed=args.seed)
    x = np.random.default_rng(args.seed + 1).normal(size=n)
    fault_policy = (
        FaultPolicy.parse(args.faults) if args.faults is not None else None
    )
    print(
        f"low-rank STTSV (rank {args.rank}, order {args.order}) on"
        f" P = {P} processors, n = {n} (transport {args.backend}"
        + (f", faults {args.faults}" if fault_policy else "")
        + ")"
    )
    print(f"trace id: {trace_id}")
    closed_form = symk_words_per_processor(P, args.rank)
    all_ok = True
    for variant in CommBackend:
        algo = ParallelSymKTTSV(P, n, order=args.order, backend=variant)
        with Machine(
            P,
            transport=make_transport(args.backend, P, faults=fault_policy),
            fusion=args.fused,
        ) as machine:
            algo.load(machine, tensor, x)
            algo.run(machine)
            y = algo.gather_result(machine)
            words = machine.ledger.max_words_sent()
            rounds = machine.ledger.round_count()
        bitwise = bool(np.array_equal(y, algo.serial_reference(x)))
        error = float(np.max(np.abs(y - tensor.ttsv(x))))
        ok = bitwise and words == closed_form
        all_ok = all_ok and ok
        print(
            f"  {variant.value:>16}: {words:>8} words/proc,"
            f" {rounds:>4} rounds, max error {error:.2e},"
            f" serial replay {'bitwise' if bitwise else 'MISMATCH'}"
        )
    print(
        f"  {'closed form':>16}: {closed_form:>8} words/proc"
        f" ((P-1)*r = {P - 1}*{args.rank})"
    )
    dense_words = 2 * (n * (args.q + 1) / (args.q**2 + 1) - n / P)
    print(
        f"  {'dense (order 3)':>16}: {dense_words:>8.1f} words/proc"
        f" (2(n(q+1)/(q²+1) - n/P))"
    )
    return 0 if all_ok else 1


def _run_analyze(args, trace_id: str) -> int:
    from repro.core.verification import verify_sttsv_run
    from repro.obs.export import spans_to_jsonl
    from repro.obs.tracing import get_tracer
    from repro.reporting.trace import fault_summary

    if args.rank is not None:
        if args.sqs is not None:
            raise ConfigurationError(
                "--rank analyzes the low-rank symk path, which places"
                " any P = q(q²+1); it does not combine with --sqs"
            )
        return _run_analyze_symk(args, trace_id)
    if args.order == 4:
        return _run_analyze_ndim(args, trace_id)
    if args.order != 3:
        raise ConfigurationError(
            f"analyze supports tensor orders 3 and 4, got {args.order}"
        )
    partition = _partition_from_args(args)
    replication = partition.steiner.point_replication()
    n = args.n if args.n else partition.m * replication
    tensor = random_symmetric(n, seed=args.seed)
    x = np.random.default_rng(args.seed + 1).normal(size=n)
    fault_policy = (
        FaultPolicy.parse(args.faults) if args.faults is not None else None
    )
    print(
        f"Algorithm 5 on P = {partition.P} processors, n = {n}"
        f" (padded to {ParallelSTTSV(partition, n).n_padded},"
        f" transport {args.backend}"
        + (f", faults {args.faults}" if fault_policy else "")
        + ")"
    )
    print(f"trace id: {trace_id}")
    all_ok = True
    for backend in CommBackend:
        # One transport per comm backend: exchange() may close a broken
        # transport mid-run (worker death), and per-backend stats must
        # not accumulate across iterations.
        transport = make_transport(
            args.backend, partition.P, faults=fault_policy
        )
        try:
            verdict = verify_sttsv_run(
                partition, tensor, x, backend,
                transport=transport, fusion=args.fused,
            )
            print(
                f"  {backend.value:>16}: {verdict.words_per_processor:>8}"
                f" words/proc, {verdict.rounds:>4} rounds,"
                f" max error {verdict.max_error:.2e}"
                + (
                    f" [{verdict.retry_rounds} retry rounds,"
                    f" {verdict.retry_words} retry words]"
                    if fault_policy
                    else ""
                )
            )
            fusion = verdict.fusion_summary
            if fusion.get("fused_rounds"):
                print(
                    f"      fusion: {fusion['messages_fused']} physical"
                    f" messages for {fusion['messages_logical']} scheduled"
                    f" ({fusion['words_fused']} words incl. headers,"
                    f" {fusion['fused_rounds']} fused exchanges)"
                )
            for warning in verdict.warnings:
                print(f"      warning: {warning}")
            if args.timings:
                for name, seconds in verdict.phase_seconds.items():
                    print(f"      {name:<24} {seconds * 1e3:8.2f} ms")
            if fault_policy:
                ledger = _RetryView(
                    verdict.retry_rounds,
                    verdict.retry_words,
                    verdict.retry_messages,
                )
                for line in fault_summary(ledger, transport).splitlines():
                    print(f"      {line}")
            if args.audit:
                print("   ", verdict.summary())
                if not verdict.audit.ok:
                    print("   ", str(verdict.audit))
            all_ok &= verdict.ok
        finally:
            transport.close()
    print(
        f"  {'lower bound':>16}: {bounds.sttsv_lower_bound(n, partition.P):>8.1f}"
        f" words/proc (Theorem 5.2)"
    )
    if args.trace_out is not None:
        spans = get_tracer().spans(trace_id=trace_id)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(spans_to_jsonl(spans))
        print(
            f"wrote {len(spans)} spans to {args.trace_out}"
            f" (render with: repro trace {trace_id} --file {args.trace_out})"
        )
    if args.audit:
        print("audit:", "all runs PASS" if all_ok else "FAILURES detected")
        return 0 if all_ok else 1
    return 0


def _command_admissible(args) -> int:
    counts = admissible_processor_counts(args.limit)
    print(f"constructible processor counts <= {args.limit}:")
    print("  " + ", ".join(str(c) for c in counts))
    return 0


def _command_plan(args) -> int:
    from dataclasses import replace

    from repro.planner import (
        Calibration,
        calibrate,
        measure_candidate,
        plan_sttsv,
        render_decision_table,
    )
    from repro.planner.calibration import (
        DEFAULT_CALIBRATION_FILE,
        ComputeConstants,
        TransportConstants,
    )

    if args.order != 3:
        raise ConfigurationError(
            f"the planner prices order 3 only (got --order"
            f" {args.order}); use --order 3, or skip the planner and"
            f" register the tensor explicitly with --backend/--variant"
            f" ('repro load --order {args.order} --backend ...')"
        )
    backends = tuple(args.backend) if args.backend else ("simulated",)
    if args.calibrate:
        calibration = calibrate(backends=backends)
        saved = calibration.save(args.calibration or DEFAULT_CALIBRATION_FILE)
        print(f"calibrated {', '.join(backends)}; wrote {saved}")
    else:
        calibration = Calibration.load_or_default(args.calibration)
    if args.alpha is not None or args.beta is not None:
        overridden = {
            name: TransportConstants(
                alpha=(
                    args.alpha
                    if args.alpha is not None
                    else calibration.constants_for(name).alpha
                ),
                beta=(
                    args.beta
                    if args.beta is not None
                    else calibration.constants_for(name).beta
                ),
            )
            for name in backends
        }
        calibration = replace(
            calibration,
            backends={**calibration.backends, **overridden},
        )
    if args.gamma is not None:
        calibration = replace(
            calibration,
            compute=ComputeConstants(
                gemm_flop_s=args.gamma,
                gemv_flop_s=args.gamma,
                scatter_op_s=calibration.compute.scatter_op_s,
            ),
        )
    qs = tuple(args.q) if args.q else (2, 3)
    n = args.n if args.n else 4 * max(qs) * (max(qs) ** 2 + 1)
    if args.fused is None:
        fusion_options = (True, False)
    else:
        fusion_options = (args.fused,)
    decision = plan_sttsv(
        n,
        qs=qs,
        backends=backends,
        fusion_options=fusion_options,
        calibration=calibration,
        Ps=args.P if args.P else None,
        rank=args.rank,
    )
    print(render_decision_table(decision))
    if args.measure and decision.best_parallel is not None:
        measured = measure_candidate(decision.best_parallel, n)
        print(
            f"\nmeasured (best parallel, median of 3):"
            f" {measured.measured_seconds * 1e3:.4f} ms vs"
            f" {measured.total_time * 1e3:.4f} ms predicted"
            f" (ratio {measured.prediction_error:.3f})"
        )
    config = decision.session_config()
    print(
        "\nsession config: "
        + ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
    )
    return 0


def _command_serve(args) -> int:
    from repro.service.server import STTSVServer

    if args.fleet:
        return _serve_fleet(args)
    fault_policy = (
        FaultPolicy.parse(args.faults) if args.faults is not None else None
    )
    accepted_orders = tuple(args.order) if args.order else (3, 4)
    server = STTSVServer(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        admission_capacity=args.admission_capacity,
        faults=fault_policy,
        fusion=args.fused,
        tracing=not args.no_tracing,
        calibration_path=args.calibration,
        accepted_orders=accepted_orders,
    )
    host, port = server.start()
    print(
        f"serving STTSV on {host}:{port}"
        f" (max_batch={args.max_batch}, max_wait_ms={args.max_wait_ms},"
        f" admission_capacity={args.admission_capacity},"
        f" max_sessions={args.max_sessions}"
        + (
            f", orders {','.join(map(str, accepted_orders))}"
            if accepted_orders != (3, 4)
            else ""
        )
        + (f", faults {args.faults}" if fault_policy else "")
        + (", tracing off" if args.no_tracing else "")
        + ")",
        flush=True,
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        print("interrupted; stopping", flush=True)
    finally:
        server.stop()
    print("server stopped", flush=True)
    return 0


def _fleet_shard_args(args) -> list:
    """Forward the serve tuning flags to spawned shard processes."""
    shard_args = [
        "--max-batch", str(args.max_batch),
        "--max-wait-ms", str(args.max_wait_ms),
        "--admission-capacity", str(args.admission_capacity),
        "--max-sessions", str(args.max_sessions),
    ]
    if args.faults is not None:
        shard_args += ["--faults", args.faults]
    if args.order:
        for order in args.order:
            shard_args += ["--order", str(order)]
    if args.calibration is not None:
        shard_args += ["--calibration", args.calibration]
    if not args.fused:
        shard_args.append("--no-fused")
    if args.no_tracing:
        shard_args.append("--no-tracing")
    return shard_args


def _serve_fleet(args) -> int:
    from repro.service.gateway import LocalFleet

    fleet = LocalFleet(
        shards=args.fleet,
        host=args.host,
        gateway_port=args.port,
        replication=args.replication,
        shard_args=_fleet_shard_args(args),
    )
    try:
        fleet.start()
    except Exception as error:  # noqa: BLE001 — report, then clean up
        print(f"error: fleet failed to start: {error}", flush=True)
        fleet.stop()
        return 1
    host, port = fleet.gateway.address
    shard_list = ", ".join(
        fleet.shard_name(i) for i in range(len(fleet.ports))
    )
    print(
        f"serving STTSV fleet on {host}:{port}"
        f" ({args.fleet} shards: {shard_list};"
        f" replication={args.replication})",
        flush=True,
    )
    try:
        fleet.gateway.wait()
    except KeyboardInterrupt:
        print("interrupted; stopping fleet", flush=True)
    finally:
        fleet.stop()
    print("fleet stopped", flush=True)
    return 0


def _command_gateway(args) -> int:
    from repro.service.gateway import STTSVGateway

    backends = []
    for spec in args.backend:
        host, _, port_text = spec.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"error: --backend must be host:port, got {spec!r}")
            return 1
        backends.append((host, int(port_text)))
    gateway = STTSVGateway(
        backends,
        host=args.host,
        port=args.port,
        replication=args.replication,
    )
    host, port = gateway.start()
    print(
        f"gateway on {host}:{port} routing to"
        f" {len(backends)} shard(s):"
        f" {', '.join(f'{h}:{p}' for h, p in backends)}"
        f" (replication={args.replication})",
        flush=True,
    )
    try:
        gateway.wait()
    except KeyboardInterrupt:
        print("interrupted; stopping", flush=True)
    finally:
        gateway.stop()
    print("gateway stopped", flush=True)
    return 0


def _command_load(args) -> int:
    from repro.reporting.trace import gateway_table, service_table
    from repro.service.client import ServiceClient, run_load
    from repro.tensor.dense import random_symmetric

    if args.rank is not None:
        from repro.tensor.symk import random_symk

        n = args.n if args.n else 4 * args.q * (args.q * args.q + 1)
        tensor = random_symk(n, args.rank, order=args.order, seed=args.seed)
        with ServiceClient(args.host, args.port) as client:
            info = client.register_symk(
                args.tensor_id,
                tensor,
                q=args.q,
                backend=args.backend,
                variant=args.variant,
            )
    elif args.order == 4:
        from repro.tensor.ndpacked import nd_random_symmetric

        # q is the SQS parameter k of S(2^k, 4, 3) at order 4.
        n = args.n if args.n else 4 * 2**args.q
        tensor = nd_random_symmetric(n, 4, seed=args.seed)
    else:
        n = args.n if args.n else 4 * args.q * (args.q * args.q + 1)
        tensor = random_symmetric(n, seed=args.seed)
    if args.rank is None:
        with ServiceClient(args.host, args.port) as client:
            info = client.register(
                args.tensor_id,
                tensor,
                q=args.q,
                backend=args.backend,
                variant=args.variant,
                order=args.order,
            )
    print(
        f"registered {args.tensor_id!r}: n={info['n']}, q={info['q']},"
        f" P={info['P']}, backend={info['backend']},"
        f" variant={info.get('variant', 'point-to-point')},"
        f" plan={info['plan_strategy']}"
        + (f", rank={args.rank}" if args.rank is not None else "")
        + (f", order={args.order}" if args.order != 3 else "")
        + (" [planner-resolved]" if info.get("planned") else "")
    )
    summary = run_load(
        args.host,
        args.port,
        args.tensor_id,
        n,
        clients=args.clients,
        requests_per_client=args.requests,
        mode=args.mode,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )
    latency = summary["latency"]
    print(
        f"{summary['clients']} clients x {args.requests} requests:"
        f" {summary['ok']} ok, {summary['overloaded']} overloaded,"
        f" {summary['deadline_exceeded']} expired,"
        f" {summary['errors']} errors in {summary['elapsed_s']:.2f}s"
        f" ({summary['throughput_rps']:.0f} req/s)"
    )
    print(
        f"latency ms: p50 {latency['p50_ms']:.2f}"
        f"  p95 {latency['p95_ms']:.2f}  p99 {latency['p99_ms']:.2f}"
        f"  max {latency['max_ms']:.2f}"
    )
    print()
    server_stats = summary["server_stats"]
    if "gateway" in server_stats:
        print(gateway_table(server_stats))
    else:
        print(service_table(server_stats))
    return 0 if summary["errors"] == 0 else 1


def _command_stats(args) -> int:
    import json

    from repro.reporting.trace import gateway_table, service_table
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        if args.format == "prometheus":
            print(client.metrics_text(), end="")
        elif args.format == "json":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        else:
            stats = client.stats()
            # A gateway STATS payload self-identifies; render the ring
            # and shard table instead of the single-server view.
            if "gateway" in stats:
                print(gateway_table(stats))
            else:
                print(service_table(stats))
    return 0


def _command_trace(args) -> int:
    from repro.obs.export import spans_from_jsonl
    from repro.reporting.trace import trace_table

    if (args.port is None) == (args.file is None):
        print(
            "error: give exactly one span source: --port (running"
            " server) or --file (JSON-lines dump)",
            file=sys.stderr,
        )
        return 2
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            spans = spans_from_jsonl(handle.read())
    else:
        from repro.service.client import ServiceClient

        with ServiceClient(args.host, args.port) as client:
            spans = spans_from_jsonl(client.spans_jsonl(args.trace_id))
    print(trace_table(spans, trace_id=args.trace_id))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-optimal parallel STTSV (SPAA 2025 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="regenerate Tables 1-3")
    _add_system_arguments(tables)
    tables.set_defaults(func=_command_tables)

    schedule = subparsers.add_parser("schedule", help="print the Figure 1 schedule")
    _add_system_arguments(schedule)
    schedule.set_defaults(func=_command_schedule)

    bound = subparsers.add_parser("bound", help="Theorem 5.2 lower bound")
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--p", type=int, required=True)
    bound.add_argument("--d", type=int, default=3, help="tensor order (default 3)")
    bound.set_defaults(func=_command_bound)

    analyze = subparsers.add_parser(
        "analyze", help="run Algorithm 5 on the simulator and compare costs"
    )
    _add_system_arguments(analyze)
    analyze.add_argument("--n", type=int, default=None, help="tensor dimension")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--order", type=int, default=3, choices=(3, 4),
        help="tensor order: 3 (Algorithm 5, default) or 4 (blocked BCSS"
        " STTSV over an SQS partition; requires --sqs)",
    )
    analyze.add_argument(
        "--rank", type=int, default=None, metavar="R",
        help="analyze the low-rank symk path instead: rank-R"
        " factorized tensor, communication (P-1)*R words/proc"
        " independent of n",
    )
    analyze.add_argument(
        "--audit",
        action="store_true",
        help="run the full ledger audit and exit nonzero on any violation",
    )
    analyze.add_argument(
        "--timings",
        action="store_true",
        help="print per-phase wall-clock timings (instrumentation spans)",
    )
    analyze.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="dump the run's trace spans as JSON lines to PATH"
        " (render later with 'repro trace <id> --file PATH')",
    )
    analyze.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="inject seeded transport faults, e.g."
        " 'drop=0.1,corrupt=0.05,duplicate=0.05,seed=7' — results and"
        " algorithmic ledger counts are unchanged; recovery cost shows"
        " up in the retry counters",
    )
    analyze.add_argument(
        "--fused",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="pack each exchange phase's transfers into per-destination"
        " fused buffers (--no-fused moves every scheduled transfer as"
        " its own message); algorithmic ledger counts are identical"
        " either way",
    )
    _add_backend_argument(analyze)
    analyze.set_defaults(func=_command_analyze)

    admissible = subparsers.add_parser(
        "admissible", help="list constructible processor counts"
    )
    admissible.add_argument("--limit", type=int, default=1000)
    admissible.set_defaults(func=_command_admissible)

    symv = subparsers.add_parser(
        "symv",
        help="run the 2-D substrate (triangle-partition parallel SYMV)",
    )
    symv.add_argument(
        "--q", type=int, default=2,
        help="projective-plane order (P = q²+q+1; default 2 = Fano)",
    )
    symv.add_argument("--n", type=int, default=None)
    symv.add_argument("--seed", type=int, default=0)
    _add_backend_argument(symv)
    symv.set_defaults(func=_command_symv)

    plan = subparsers.add_parser(
        "plan",
        help="price candidate STTSV configurations under calibrated"
        " α-β-γ constants and print the decision table",
    )
    plan.add_argument(
        "--q", type=int, action="append", default=None, metavar="Q",
        help="prime power to consider (repeatable; default: 2 and 3)",
    )
    plan.add_argument(
        "--P", type=int, action="append", default=None, metavar="P",
        help="keep only qs whose P = q(q²+1) appears here (repeatable)",
    )
    plan.add_argument(
        "--n", type=int, default=None,
        help="tensor dimension (default 4·P for the largest q)",
    )
    plan.add_argument(
        "--backend", action="append", choices=sorted(TRANSPORTS),
        default=None,
        help="transport backend to consider (repeatable; default"
        " simulated)",
    )
    plan.add_argument(
        "--calibrate", action="store_true",
        help="run the α-β-γ microbenchmarks first and write the"
        " calibration file",
    )
    plan.add_argument(
        "--calibration", type=str, default=None, metavar="PATH",
        help="calibration file to read/write (default"
        " ./repro-calibration.json; documented defaults when absent)",
    )
    plan.add_argument(
        "--alpha", type=float, default=None,
        help="override per-message latency (s) for every backend",
    )
    plan.add_argument(
        "--beta", type=float, default=None,
        help="override per-word bandwidth cost (s) for every backend",
    )
    plan.add_argument(
        "--gamma", type=float, default=None,
        help="override the per-flop compute rate (s) for gemm and gemv",
    )
    plan.add_argument(
        "--fused",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="restrict candidates to fused (--fused) or unfused"
        " (--no-fused) execution; default considers both",
    )
    plan.add_argument(
        "--measure", action="store_true",
        help="execute the best parallel candidate and print measured vs"
        " predicted time",
    )
    plan.add_argument(
        "--order", type=int, default=3,
        help="tensor order (the cost model prices order 3 only; any"
        " other value is a configuration error)",
    )
    plan.add_argument(
        "--rank", type=int, default=None, metavar="R",
        help="also price the low-rank symk representation at rank R"
        " (parallel comm (P-1)*R words/proc plus the O(nR) serial"
        " plan) next to the dense candidates",
    )
    plan.set_defaults(func=_command_plan)

    serve = subparsers.add_parser(
        "serve",
        help="start the STTSV serving layer (warm sessions, dynamic batching)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="cap on coalesced batch width (default 16)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=0.0,
        help="hold the first request up to this long to grow a batch"
        " (default 0 = pure drain policy, no added serial latency)",
    )
    serve.add_argument(
        "--admission-capacity", type=int, default=64,
        help="queued requests per lane before OVERLOADED replies (default 64)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8,
        help="warm engine sessions kept before LRU eviction (default 8)",
    )
    serve.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="inject seeded transport faults into every session, e.g."
        " 'drop=0.05,seed=7' (recovery shows up in the retry counters)",
    )
    serve.add_argument(
        "--fused",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fuse each session's exchange rounds into per-destination"
        " buffers (--no-fused disables; default fused)",
    )
    serve.add_argument(
        "--calibration", type=str, default=None, metavar="PATH",
        help="calibration file auto-mode registrations price with"
        " (default ./repro-calibration.json; documented defaults when"
        " absent)",
    )
    serve.add_argument(
        "--order", type=int, action="append", choices=(3, 4), default=None,
        metavar="D",
        help="tensor order this server accepts at registration"
        " (repeatable; default: both 3 and 4)",
    )
    serve.add_argument(
        "--no-tracing", action="store_true",
        help="do not record request-to-round trace spans (tracing is on"
        " by default; spans live in a bounded in-memory ring buffer)",
    )
    serve.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="serve a sharded fleet instead of one server: spawn N"
        " shard processes on ephemeral ports and route to them through"
        " a consistent-hash gateway listening on --port",
    )
    serve.add_argument(
        "--replication", type=int, default=2,
        help="shards each tensor registers on in fleet/gateway mode"
        " (primary + replicas; default 2)",
    )
    serve.set_defaults(func=_command_serve)

    gateway = subparsers.add_parser(
        "gateway",
        help="route STTSV traffic across running shard servers with a"
        " consistent-hash ring",
    )
    gateway.add_argument("--host", type=str, default="127.0.0.1")
    gateway.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = pick an ephemeral port and print it)",
    )
    gateway.add_argument(
        "--backend", action="append", required=True, metavar="HOST:PORT",
        help="address of a running shard server (repeat for each shard)",
    )
    gateway.add_argument(
        "--replication", type=int, default=2,
        help="shards each tensor registers on (primary + replicas;"
        " default 2)",
    )
    gateway.set_defaults(func=_command_gateway)

    load = subparsers.add_parser(
        "load",
        help="register a random tensor on a running server and drive load",
    )
    load.add_argument("--host", type=str, default="127.0.0.1")
    load.add_argument("--port", type=int, required=True)
    load.add_argument(
        "--tensor-id", type=str, default="load-test",
        help="registration id (default 'load-test')",
    )
    load.add_argument(
        "--q", type=int, default=2,
        help="prime power for the session's partition (P = q(q²+1);"
        " default 2); with --order 4 this is the SQS parameter k of"
        " S(2^k, 4, 3)",
    )
    load.add_argument(
        "--order", type=int, default=3, choices=(3, 4),
        help="tensor order to register and drive (default 3)",
    )
    load.add_argument(
        "--rank", type=int, default=None, metavar="R",
        help="register a low-rank symk tensor of rank R instead of a"
        " dense packed one and drive the same load against it",
    )
    load.add_argument(
        "--n", type=int, default=None,
        help="tensor dimension (default 4·P)",
    )
    load.add_argument(
        "--clients", type=int, default=16,
        help="concurrent closed-loop clients (default 16)",
    )
    load.add_argument(
        "--requests", type=int, default=32,
        help="requests per client (default 32)",
    )
    load.add_argument(
        "--mode", choices=("plan", "parallel"), default="plan",
        help="execution mode: compiled plan (fast) or Algorithm 5 on the"
        " warm machine (default plan)",
    )
    load.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline; expired requests get typed errors",
    )
    load.add_argument("--seed", type=int, default=0)
    load.add_argument(
        "--backend",
        choices=("auto", *sorted(TRANSPORTS)),
        default="simulated",
        help="transport for the session (default simulated), or 'auto'"
        " to let the server's planner choose",
    )
    load.add_argument(
        "--variant",
        choices=("auto", *VARIANTS),
        default="point-to-point",
        help="communication variant for mode=parallel requests"
        " (default point-to-point), or 'auto' to let the server's"
        " planner choose",
    )
    load.set_defaults(func=_command_load)

    stats = subparsers.add_parser(
        "stats",
        help="scrape a running server (table, JSON, or Prometheus text)",
    )
    stats.add_argument("--host", type=str, default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True)
    stats.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
        help="output format: human table (default), the raw STATS JSON,"
        " or the metrics registry in Prometheus exposition format",
    )
    stats.set_defaults(func=_command_stats)

    trace = subparsers.add_parser(
        "trace",
        help="render the span tree of one trace id",
    )
    trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id to render (omit for every buffered span)",
    )
    trace.add_argument("--host", type=str, default="127.0.0.1")
    trace.add_argument(
        "--port", type=int, default=None,
        help="fetch spans from the server listening on this port",
    )
    trace.add_argument(
        "--file", type=str, default=None, metavar="PATH",
        help="read spans from a JSON-lines dump (e.g. analyze --trace-out)",
    )
    trace.set_defaults(func=_command_trace)

    return parser


def _command_symv(args) -> int:
    from repro.matrix.bounds import symv_lower_bound
    from repro.matrix.kernels import symv as symv_kernel
    from repro.matrix.packed import random_symmetric_matrix
    from repro.matrix.parallel_symv import ParallelSYMV
    from repro.matrix.partition import TriangleBlockPartition
    from repro.steiner.pairwise import projective_plane_system

    partition = TriangleBlockPartition(projective_plane_system(args.q))
    partition.validate()
    n = args.n if args.n else partition.m * partition.steiner.point_replication()
    matrix = random_symmetric_matrix(n, seed=args.seed)
    x = np.random.default_rng(args.seed + 1).normal(size=n)
    with Machine(
        partition.P, transport=make_transport(args.backend, partition.P)
    ) as machine:
        algo = ParallelSYMV(partition, n)
        algo.load(machine, matrix, x)
        algo.run(machine)
        error = float(
            np.max(np.abs(algo.gather_result(machine) - symv_kernel(matrix, x)))
        )
    print(
        f"parallel SYMV on P = {partition.P} (PG(2,{args.q})), n = {n}"
        f" [{args.backend}]:"
        f" {machine.ledger.max_words_sent()} words/proc,"
        f" {machine.ledger.round_count()} rounds, max error {error:.2e}"
    )
    print(f"2-D lower bound: {symv_lower_bound(n, partition.P):.1f} words/proc")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Argparse failures (unknown subcommand, bad flags) are converted
    from ``SystemExit`` into a plain return of their exit code (2, with
    usage already printed on stderr), so embedding callers — and the
    test suite — never have to catch ``SystemExit``. ``--help`` and
    ``--version`` likewise return 0.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
