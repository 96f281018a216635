"""Conformance property test: with fault injection ON, the algorithmic
ledger still matches the paper's closed form exactly.

The closed form for the spherical family's point-to-point schedule is

    words/processor = 2 (n(q+1)/(q^2+1) - n/P)        (n = padded dim)

and it is computed here *independently* of the library's own
``expected_words_per_processor`` — the test would not notice a bug
shared by the implementation and its accounting helper otherwise. The
retry side-channel (``retry_words`` etc.) is the only place recovery
cost may appear; the algorithmic counters must be identical on a
faulty and a fault-free network.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.sttsv_sequential import sttsv_packed
from repro.machine.machine import Machine
from repro.machine.transport import (
    FaultPolicy,
    SharedMemoryTransport,
    make_transport,
)
from repro.steiner import spherical_steiner_system
from repro.tensor.dense import random_symmetric

_PARTITIONS = {
    2: TetrahedralPartition(spherical_steiner_system(2)),
    3: TetrahedralPartition(spherical_steiner_system(3)),
}


def _closed_form_words(q: int, P: int, n_padded: int) -> int:
    """2 (n(q+1)/(q^2+1) - n/P), asserted to be an exact integer."""
    value = 2 * (n_padded * (q + 1) / (q * q + 1) - n_padded / P)
    assert abs(value - round(value)) < 1e-9, value
    return round(value)


def _run(partition, n, seed, transport, fusion=True):
    tensor = random_symmetric(n, seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=n)
    machine = Machine(partition.P, transport=transport, fusion=fusion)
    algo = ParallelSTTSV(partition, n, CommBackend.POINT_TO_POINT)
    algo.load(machine, tensor, x)
    algo.run(machine)
    y = algo.gather_result(machine)
    assert np.allclose(y, sttsv_packed(tensor, x))
    return algo, machine.ledger, y


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    n=st.integers(min_value=3, max_value=80),
    seed=st.integers(min_value=0, max_value=10**6),
    # Rates are capped so a transfer failing all 8 retry attempts
    # (probability <= 0.15^9 per transfer) cannot realistically occur:
    # exhausting the retry budget raises MachineError by design and is
    # covered by the failure-injection suite, not this conformance one.
    drop=st.floats(min_value=0.0, max_value=0.1),
    corrupt=st.floats(min_value=0.0, max_value=0.05),
)
def test_faulty_simulated_ledger_matches_closed_form(
    q, n, seed, drop, corrupt
):
    partition = _PARTITIONS[q]
    faults = FaultPolicy(drop=drop, corrupt=corrupt, seed=seed % 1000)
    transport = make_transport("simulated", partition.P, faults=faults)
    try:
        algo, ledger, _ = _run(partition, n, seed, transport)
    finally:
        transport.close()
    expected = _closed_form_words(q, partition.P, algo.n_padded)
    # Every processor sends exactly the closed-form volume — faults
    # never leak into the algorithmic counters.
    assert ledger.words_sent == [expected] * partition.P, (
        f"closed-form violation at q={q} n={n} seed={seed}"
        f" drop={drop} corrupt={corrupt}"
    )
    assert expected == algo.expected_words_per_processor()
    # Recovery cost is confined to the retry side-channel.
    assert ledger.retry_words >= 0
    if drop == 0.0 and corrupt == 0.0:
        assert ledger.retry_rounds == 0


def _shm_case_matrix(count_per_q: int = 1):
    """A *seeded randomized* case matrix for the shared-memory
    conformance runs: (q, n, fault seed) drawn from a fixed-seed rng
    instead of hand-picked constants, so the cases vary across repo
    history (edit the master seed to roll them) while any failure is
    reproducible from the parameters in the test id / message."""
    rng = np.random.default_rng(20250808)
    cases = []
    for q in (2, 3):
        P = _PARTITIONS[q].P
        for _ in range(count_per_q):
            n = int(rng.integers(P, 6 * P))
            seed = int(rng.integers(0, 10**6))
            cases.append((q, n, seed))
    return cases


@pytest.mark.parametrize(
    "q,n,seed",
    _shm_case_matrix(),
    ids=lambda value: str(value),
)
def test_faulty_shm_ledger_matches_closed_form(q, n, seed):
    """The same conformance claim on the real shared-memory backend
    (one randomized case per system: worker processes are expensive)."""
    partition = _PARTITIONS[q]
    faults = FaultPolicy(drop=0.15, corrupt=0.05, seed=seed % 1000)
    from repro.machine.transport import FaultInjectingTransport

    inner = SharedMemoryTransport(partition.P, n_workers=2)
    transport = FaultInjectingTransport(inner, faults)
    try:
        algo, ledger, _ = _run(partition, n=n, seed=seed, transport=transport)
    finally:
        transport.close()
    expected = _closed_form_words(q, partition.P, algo.n_padded)
    assert ledger.words_sent == [expected] * partition.P, (
        f"shm closed-form violation at q={q} n={n} seed={seed}"
    )
    assert ledger.words_received == [expected] * partition.P
    assert expected == algo.expected_words_per_processor()


@settings(max_examples=8, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    n_factor=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_order4_accounting_matches_ledger(k, n_factor, seed):
    """Order-4 conformance: the partition's own pair-map accounting
    (``words_per_processor``) must equal the machine ledger's measured
    counts for random SQS sizes — the generalized analogue of the
    order-3 closed-form pin."""
    from repro.core.parallel_sttsv import ParallelSTTSV
    from repro.core.partition_ndim import QuadruplePartition
    from repro.steiner import boolean_steiner_system
    from repro.tensor.ndpacked import nd_random_symmetric

    partition = QuadruplePartition(boolean_steiner_system(k))
    partition.validate()
    base = partition.m * partition.replication
    n = base + n_factor * partition.m
    tensor = nd_random_symmetric(n, 4, seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=n)
    machine = Machine(
        partition.P, transport=make_transport("simulated", partition.P)
    )
    algo = ParallelSTTSV(partition, n)
    algo.load(machine, tensor, x)
    algo.run(machine)
    expected = algo.words_per_processor()
    assert machine.ledger.words_sent == expected, (
        f"order-4 accounting mismatch at k={k} n={n} seed={seed}"
    )
    assert machine.ledger.max_words_sent() == max(expected)


@settings(max_examples=15, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    n=st.integers(min_value=3, max_value=80),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_fusion_preserves_closed_form_and_bits(q, n, seed):
    """The fusing scheduler is invisible to the paper's accounting:
    the closed form holds with fusion on and off, the algorithmic
    counters agree exactly, results are bitwise identical, and the
    only difference is the ledger's ``fused_*`` side-channel."""
    partition = _PARTITIONS[q]
    runs = {}
    for fusion in (True, False):
        transport = make_transport("simulated", partition.P)
        try:
            algo, ledger, y = _run(
                partition, n, seed, transport, fusion=fusion
            )
        finally:
            transport.close()
        expected = _closed_form_words(q, partition.P, algo.n_padded)
        assert ledger.words_sent == [expected] * partition.P
        runs[fusion] = (ledger, y)
    fused_ledger, unfused_ledger = runs[True][0], runs[False][0]
    assert np.array_equal(
        runs[True][1].view(np.uint64), runs[False][1].view(np.uint64)
    )
    assert fused_ledger.words_sent == unfused_ledger.words_sent
    assert fused_ledger.messages_sent == unfused_ledger.messages_sent
    assert [r.label for r in fused_ledger.rounds] == [
        r.label for r in unfused_ledger.rounds
    ]
    assert unfused_ledger.fused_rounds == 0
    summary = fused_ledger.fusion_summary()
    assert summary["messages_fused"] <= summary["messages_logical"]
