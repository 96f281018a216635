"""Property tests: the order-d combinatorial-number-system offsets
agree with the order-3 packed map, and the vectorized order-3 kernel is
bitwise-identical to Algorithm 4's bincount kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sttsv_ndim import sttsv_ndim, sttsv_ndim_scalar
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_index_arrays,
    nd_packed_index,
    nd_packed_index_array,
    nd_packed_size,
    pad_ndpacked,
)
from repro.tensor.multiplicity import contribution_weights
from repro.tensor.packed import PackedSymmetricTensor, packed_index


def _algorithm4_bincount(tensor, x):
    """Algorithm 4 as three weighted bincount scatters, products left to
    right, accumulated in (i, j, k) order."""
    n = tensor.n
    I, J, K = PackedSymmetricTensor.index_arrays(n)
    w_i, w_j, w_k = contribution_weights(I, J, K)
    a = tensor.data
    y = np.bincount(I, weights=w_i * a * x[J] * x[K], minlength=n)
    y += np.bincount(J, weights=w_j * a * x[I] * x[K], minlength=n)
    y += np.bincount(K, weights=w_k * a * x[I] * x[J], minlength=n)
    return y


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=200),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_d3_offsets_match_packed_index(triples):
    canonical = np.sort(np.asarray(triples, dtype=np.int64), axis=1)[:, ::-1]
    offsets = nd_packed_index_array(canonical)
    for row, offset in zip(canonical, offsets):
        i, j, k = (int(v) for v in row)
        assert offset == packed_index(i, j, k)
        assert offset == nd_packed_index((i, j, k))


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
)
def test_index_arrays_are_a_bijection(n, d):
    arrays = nd_index_arrays(n, d)
    assert arrays.shape == (nd_packed_size(n, d), d)
    # Row at offset o unpacks to the canonical tuple that packs to o.
    offsets = nd_packed_index_array(arrays)
    assert np.array_equal(offsets, np.arange(arrays.shape[0]))
    # Rows are canonical: non-increasing, in range.
    assert np.all(arrays[:, :-1] >= arrays[:, 1:])
    assert arrays.min() >= 0 and arrays.max() < n


@settings(max_examples=25)
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=4000),
)
def test_vectorized_sttsv_bitwise_matches_algorithm4(n, extra, seed):
    """At d = 3 the vectorized order-d kernel performs the same
    multiply/accumulate sequence as Algorithm 4's bincount kernel, so
    results agree bitwise — not just to rounding."""
    rng = np.random.default_rng(seed)
    packed = PackedSymmetricTensor(
        n, rng.standard_normal(nd_packed_size(n, 3))
    )
    tensor = NdPackedSymmetricTensor(n, 3, packed.data.copy())
    x = rng.standard_normal(n)
    expected = _algorithm4_bincount(packed, x)
    assert sttsv_ndim(tensor, x).tobytes() == expected.tobytes()
    # Padding with zero blocks never changes the result bitwise either:
    # zero rows contribute exact zeros through every product.
    padded = pad_ndpacked(tensor, n + extra)
    assert (
        sttsv_ndim(padded, np.concatenate([x, np.zeros(extra)]))[:n].tobytes()
        == expected.tobytes()
    )


@settings(max_examples=20)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4000),
)
def test_vectorized_matches_scalar_reference(n, d, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(nd_packed_size(n, d))
    tensor = NdPackedSymmetricTensor(n, d, data)
    x = rng.standard_normal(n)
    assert np.allclose(
        sttsv_ndim(tensor, x), sttsv_ndim_scalar(tensor, x),
        rtol=1e-12, atol=1e-12,
    )
