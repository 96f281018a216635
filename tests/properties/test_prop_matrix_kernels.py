"""Property tests: the 2-D kernel family (SYRK / SYR2K / SYMM) across
random shapes, ranks, and seeds, with exact cost assertions. SYMM is
the order-2 Algorithm-5 engine run on ``B``'s ``k`` columns."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition
from repro.matrix.symm import (
    ParallelSYR2K,
    symm_reference,
    syr2k_reference,
)
from repro.matrix.syrk import ParallelSYRK, syrk_reference
from repro.steiner.pairwise import bose_triple_system, projective_plane_system
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size

_PARTITIONS = {
    "fano": TriangleBlockPartition(projective_plane_system(2)),
    "bose1": TriangleBlockPartition(bose_triple_system(1)),
}

_PARAMS = st.tuples(
    st.sampled_from(sorted(_PARTITIONS)),
    st.integers(min_value=2, max_value=45),   # n (forces padding paths)
    st.integers(min_value=1, max_value=4),    # k
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=15, deadline=None)
@given(_PARAMS)
def test_syrk_correct_and_cost_exact(params):
    key, n, k, seed = params
    partition = _PARTITIONS[key]
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, k))
    machine = Machine(partition.P)
    algo = ParallelSYRK(partition, n, k)
    algo.load(machine, A)
    algo.run(machine)
    assert np.allclose(algo.gather_result(machine), syrk_reference(A), atol=1e-9)
    assert machine.ledger.words_sent == (
        [algo.expected_words_per_processor()] * partition.P
    )


@settings(max_examples=12, deadline=None)
@given(_PARAMS)
def test_syr2k_correct(params):
    key, n, k, seed = params
    partition = _PARTITIONS[key]
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, k))
    B = rng.normal(size=(n, k))
    machine = Machine(partition.P)
    algo = ParallelSYR2K(partition, n, k)
    algo.load(machine, A, B)
    algo.run(machine)
    assert np.allclose(
        algo.gather_result(machine), syr2k_reference(A, B), atol=1e-9
    )
    assert machine.ledger.words_sent == (
        [algo.expected_words_per_processor()] * partition.P
    )


@settings(max_examples=12, deadline=None)
@given(_PARAMS)
def test_symm_correct(params):
    key, n, k, seed = params
    partition = _PARTITIONS[key]
    rng = np.random.default_rng(seed)
    matrix = NdPackedSymmetricTensor(n, 2, rng.normal(size=nd_packed_size(n, 2)))
    B = rng.normal(size=(n, k))
    machine = Machine(partition.P)
    algo = ParallelSTTSV(partition, n)
    algo.load(machine, matrix, B)
    algo.run(machine)
    assert np.allclose(
        algo.gather_result(machine), symm_reference(matrix, B), atol=1e-9
    )
    assert machine.ledger.words_sent == (
        [k * algo.expected_words_per_processor()] * partition.P
    )
