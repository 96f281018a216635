"""Algorithm 5 builds its exchanges once per engine and reuses them.

``ParallelSTTSV`` lays out each exchange phase at construction: the
validated labeled rounds, the fused batches with one ``FusionPlan``
each, the send buffer every transfer's payload is a slice of, and the
maps that stage and unpack a whole phase. Each priced batch is replayed
into the run's ledger. These tests run several vectors through one
engine and machine and require each run to be exactly a freshly built
engine's run: ``y`` bitwise, and every ledger field (per-processor
counters, round labels, messages, ``fused`` flags, ``retry_*`` and
``fused_*``). Any state that leaked through the reused buffers, plans
or priced ledgers would break one of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distribution import assemble_vector
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.partition_ndim import QuadruplePartition
from repro.errors import PartitionError
from repro.machine.machine import Machine
from repro.machine.transport import FaultPolicy, make_transport
from repro.planner import predicted_ledger
from repro.service.client import ServiceClient
from repro.service.server import STTSVServer
from repro.steiner import boolean_steiner_system, spherical_steiner_system
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size
from repro.tensor.sparse import SparseSymmetricTensor

RUNS = 3

_PARTITIONS = {}


def _partition(kind: str, q: int):
    key = (kind, q)
    if key not in _PARTITIONS:
        if kind == "order4":
            _PARTITIONS[key] = QuadruplePartition(boolean_steiner_system(q))
        else:
            _PARTITIONS[key] = TetrahedralPartition(spherical_steiner_system(q))
    return _PARTITIONS[key]


def _tensor(kind: str, n: int, rng: np.random.Generator):
    if kind == "dense":
        return random_symmetric(n, seed=int(rng.integers(1 << 30)))
    if kind == "sparse":
        edges = set()
        while len(edges) < 3 * n:
            edges.add(tuple(sorted(rng.choice(n, 3, replace=False).tolist())))
        return SparseSymmetricTensor.from_hyperedges(n, sorted(edges))
    # Integer-valued data: order-4 sums are bitwise only on integers.
    data = rng.integers(-3, 4, nd_packed_size(n, 4)).astype(float)
    return NdPackedSymmetricTensor(n, 4, data)


def _vector(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "order4":
        return rng.integers(-3, 4, n).astype(float)
    return rng.standard_normal(n)


def _fingerprint(ledger):
    """Every field of a ledger, as comparable plain values."""
    return {
        "words_sent": list(ledger.words_sent),
        "words_received": list(ledger.words_received),
        "messages_sent": list(ledger.messages_sent),
        "messages_received": list(ledger.messages_received),
        "rounds": [
            (
                record.label,
                record.fused,
                [(m.source, m.dest, m.words, m.tag) for m in record.messages],
            )
            for record in ledger.rounds
        ],
        "retry": (ledger.retry_rounds, ledger.retry_words, ledger.retry_messages),
        "fused": ledger.fusion_summary(),
    }


def _machine(P, transport, fusion, faults=None):
    return Machine(
        P, transport=make_transport(transport, P, faults=faults), fusion=fusion
    )


def _fresh_run(kind, q, n, backend, fusion, transport, tensor, x):
    """One vector through a newly built engine on a new machine."""
    partition = _partition(kind, q)
    with _machine(partition.P, transport, fusion) as machine:
        algo = ParallelSTTSV(partition, n, backend)
        algo.load(machine, tensor, x)
        algo.run(machine)
        return algo.gather_result(machine), _fingerprint(machine.ledger)


CONFIGS = [
    pytest.param(kind, q, n, backend, fusion, transport, id=name)
    for kind, q, n, transports in (
        ("dense", 2, 30, ("simulated", "shm")),
        ("dense", 3, 60, ("simulated",)),
        ("sparse", 2, 30, ("simulated",)),
        ("order4", 3, 56, ("simulated", "shm")),
    )
    for backend in (
        (CommBackend.POINT_TO_POINT,)
        if kind == "order4"
        else (CommBackend.POINT_TO_POINT, CommBackend.ALL_TO_ALL)
    )
    for fusion in (True, False)
    for transport in transports
    if transport == "simulated" or backend is CommBackend.POINT_TO_POINT
    for name in [
        f"{kind}-q{q}-{backend.value}-"
        f"{'fused' if fusion else 'unfused'}-{transport}"
    ]
]


class TestReusedEngineMatchesFresh:
    @pytest.mark.parametrize("kind,q,n,backend,fusion,transport", CONFIGS)
    def test_runs_equal_fresh_engine_runs(
        self, kind, q, n, backend, fusion, transport
    ):
        rng = np.random.default_rng([q, n, int(fusion)])
        tensor = _tensor(kind, n, rng)
        partition = _partition(kind, q)
        predicted = (
            predicted_ledger(partition, n, variant=backend.value, fusion=fusion)
            if kind != "order4"
            else None
        )
        with _machine(partition.P, transport, fusion) as machine:
            algo = ParallelSTTSV(partition, n, backend)
            algo.load_tensor(machine, tensor)
            for _ in range(RUNS):
                x = _vector(kind, n, rng)
                machine.reset_ledger()
                algo.load_vector(machine, x)
                algo.run(machine)
                y = algo.gather_result(machine)
                fresh_y, fresh_ledger = _fresh_run(
                    kind, q, n, backend, fusion, transport, tensor, x
                )
                assert np.array_equal(
                    y.view(np.uint64), fresh_y.view(np.uint64)
                )
                assert _fingerprint(machine.ledger) == fresh_ledger
                assert machine.ledger.words_sent == algo.words_per_processor()
                if predicted is not None:
                    assert _fingerprint(predicted) == fresh_ledger

    def test_stored_shards_are_not_overwritten_by_later_runs(self):
        """A run's ``y_shards`` stay valid after the next run."""
        partition = _partition("dense", 2)
        n = 30
        tensor = random_symmetric(n, seed=3)
        rng = np.random.default_rng(4)
        with Machine(partition.P) as machine:
            algo = ParallelSTTSV(partition, n)
            algo.load_tensor(machine, tensor)
            algo.load_vector(machine, rng.standard_normal(n))
            algo.run(machine)
            first = [machine[p].load("y_shards") for p in range(partition.P)]
            y_first = algo.gather_result(machine).copy()
            algo.load_vector(machine, rng.standard_normal(n))
            algo.run(machine)
            rebuilt = assemble_vector(partition, first, algo.b, original_length=n)
        assert np.array_equal(rebuilt, y_first)


class TestFaultInjectedReuse:
    #: ``(retry_rounds, retry_words, retry_messages)`` of each run, as
    #: the per-request exchange code recorded them for this seed.
    EXPECTED_RETRIES = [(13, 84, 46), (14, 86, 52), (18, 101, 62)]

    def test_retries_and_results_match(self):
        partition = _partition("dense", 2)
        n = 30
        tensor = random_symmetric(n, seed=11)
        rng = np.random.default_rng(12)
        faults = FaultPolicy(drop=0.1, corrupt=0.05, duplicate=0.05, seed=7)
        retries = []
        with _machine(partition.P, "simulated", True, faults) as machine:
            algo = ParallelSTTSV(partition, n)
            algo.load_tensor(machine, tensor)
            for _ in range(RUNS):
                x = rng.standard_normal(n)
                machine.reset_ledger()
                algo.load_vector(machine, x)
                algo.run(machine)
                y = algo.gather_result(machine)
                clean_y, clean_ledger = _fresh_run(
                    "dense", 2, n, CommBackend.POINT_TO_POINT, True,
                    "simulated", tensor, x,
                )
                assert np.array_equal(y.view(np.uint64), clean_y.view(np.uint64))
                faulty = _fingerprint(machine.ledger)
                retries.append(faulty.pop("retry"))
                clean_ledger.pop("retry")
                assert faulty == clean_ledger
        assert retries == self.EXPECTED_RETRIES


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteVectors:
    """A NaN or infinity in ``x`` reaches ``y`` like any other value;
    it is never mistaken for a missing shard."""

    N = 30

    def _x(self):
        x = np.random.default_rng(5).standard_normal(self.N)
        x[3] = np.nan
        x[7] = np.inf
        return x

    def test_engine_returns_non_finite_result(self):
        partition = _partition("dense", 2)
        tensor = random_symmetric(self.N, seed=6)
        with Machine(partition.P) as machine:
            algo = ParallelSTTSV(partition, self.N)
            algo.load(machine, tensor, self._x())
            algo.run(machine)
            y = algo.gather_result(machine)
        assert y.shape == (self.N,)
        assert not np.isfinite(y).any()

    def test_served_parallel_matches_plan_on_non_finite_input(self):
        tensor = random_symmetric(self.N, seed=6)
        x = self._x()
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                client.register("nan", tensor, q=2)
                parallel = client.apply("nan", x, mode="parallel")
                plan = client.apply("nan", x, mode="plan")
        direct, _ = _fresh_run(
            "dense", 2, self.N, CommBackend.POINT_TO_POINT, True, "simulated",
            tensor, x,
        )
        assert np.array_equal(parallel, direct, equal_nan=True)
        assert np.array_equal(np.isnan(parallel), np.isnan(plan))

    def test_missing_shard_is_still_detected(self):
        partition = _partition("dense", 2)
        tensor = random_symmetric(self.N, seed=6)
        with Machine(partition.P) as machine:
            algo = ParallelSTTSV(partition, self.N)
            algo.load(machine, tensor, self._x())
            algo.run(machine)
            shards = dict(machine[0].load("y_shards"))
            del shards[next(iter(shards))]
            machine[0].store("y_shards", shards)
            with pytest.raises(PartitionError, match="missing shards"):
                algo.gather_result(machine)
