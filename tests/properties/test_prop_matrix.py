"""Property tests for the 2-D (symmetric matrix) substrate: order-2
packed storage, the SYMV kernels, and SYMV on the Algorithm-5 engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.sttsv_ndim import sttsv_ndim, sttsv_ndim_dense_reference
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition
from repro.steiner.pairwise import bose_triple_system, projective_plane_system
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_packed_index,
    nd_packed_size,
    nd_unpacked,
)

_FLOATS = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False, width=64
)


@given(st.integers(min_value=0, max_value=10**6))
def test_sym_index_roundtrip(offset):
    i, j = nd_unpacked(offset, 2)
    assert i >= j >= 0
    assert nd_packed_index((i, j)) == offset


@st.composite
def matrix_and_vector(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    data = draw(
        arrays(dtype=np.float64, shape=nd_packed_size(n, 2), elements=_FLOATS)
    )
    x = draw(arrays(dtype=np.float64, shape=n, elements=_FLOATS))
    return NdPackedSymmetricTensor(n, 2, data), x


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector())
def test_symv_matches_dense(problem):
    matrix, x = problem
    assert np.allclose(
        sttsv_ndim(matrix, x),
        sttsv_ndim_dense_reference(matrix.to_dense(), x),
        atol=1e-8,
    )


@settings(max_examples=40, deadline=None)
@given(matrix_and_vector(), _FLOATS)
def test_symv_linearity(problem, scale):
    matrix, x = problem
    assert np.allclose(
        sttsv_ndim(matrix, scale * x),
        scale * sttsv_ndim(matrix, x),
        atol=1e-6,
        rtol=1e-6,
    )


_PARTITIONS = {
    "fano": TriangleBlockPartition(projective_plane_system(2)),
    "pg3": TriangleBlockPartition(projective_plane_system(3)),
    "bose1": TriangleBlockPartition(bose_triple_system(1)),
}


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(sorted(_PARTITIONS)),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)
def test_parallel_symv_equals_sequential(key, n, seed):
    partition = _PARTITIONS[key]
    rng = np.random.default_rng(seed)
    matrix = NdPackedSymmetricTensor(
        n, 2, rng.normal(size=nd_packed_size(n, 2))
    )
    x = rng.normal(size=n)
    machine = Machine(partition.P)
    algo = ParallelSTTSV(partition, n)
    algo.load(machine, matrix, x)
    algo.run(machine)
    assert np.allclose(algo.gather_result(machine), sttsv_ndim(matrix, x))
    expected = algo.expected_words_per_processor()
    assert machine.ledger.words_sent == [expected] * partition.P
