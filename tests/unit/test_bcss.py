"""Blocked compact symmetric storage (BCSS), its kernels, and the
``BlockedPlan`` name of the order-generic compiled plan."""

from math import comb

import numpy as np
import pytest

from repro.core.block_kernels import apply_case, block_case
from repro.core.plans import BlockedPlan, SequentialPlan
from repro.core.sttsm import (
    sttsm,
    sttsm_dense_reference,
    sttsm_ndpacked,
    sttsv_bcss,
)
from repro.core.sttsv_ndim import sttsv_ndim
from repro.errors import ConfigurationError
from repro.tensor.bcss import BCSSTensor, _block_entry_offsets, bcss_block_count
from repro.tensor.multiplicity import nd_contribution_weights
from repro.tensor.ndpacked import nd_packed_size, nd_random_symmetric


def contract_all_but(block, keep_mode, vectors):
    """The ``einsum`` definition of one kernel contraction: every mode
    of ``block`` except ``keep_mode`` against the matching entry of
    ``vectors`` (``vectors[keep_mode]`` is ignored)."""
    letters = "abcdefghij"[: block.ndim]
    others = [mode for mode in range(block.ndim) if mode != keep_mode]
    spec = ",".join([letters, *(letters[mode] for mode in others)])
    return np.einsum(
        f"{spec}->{letters[keep_mode]}", block, *(vectors[mode] for mode in others)
    )


def apply_one(index, block, x_blocks, y_blocks):
    """One block as a one-block stack: gather the x row block of each
    run of ``index``, add the contributions into ``y_blocks``."""
    runs = list(dict.fromkeys(index))
    x = np.stack([x_blocks[value] for value in runs])[:, None]
    for value, contribution in zip(runs, apply_case(block_case(index), block[None], x)[:, 0]):
        y_blocks[value] += contribution


class TestStorage:
    @pytest.mark.parametrize("nbar,m", [(1, 3), (3, 3), (4, 4), (5, 2)])
    def test_block_count_formula(self, nbar, m):
        assert bcss_block_count(nbar, m) == comb(nbar + m - 1, m)

    @pytest.mark.parametrize("n,m,b", [(6, 3, 2), (8, 4, 2), (8, 4, 4)])
    def test_stores_exactly_the_upper_hyper_triangle(self, n, m, b):
        tensor = nd_random_symmetric(n, m, seed=0)
        bcss = BCSSTensor.from_ndpacked(tensor, b)
        nbar = n // b
        assert bcss.num_blocks == bcss_block_count(nbar, m)
        assert bcss.blocks.shape == (bcss.num_blocks,) + (b,) * m
        assert bcss.storage_words == bcss_block_count(nbar, m) * b**m

    @pytest.mark.parametrize("n,m,b", [(6, 3, 3), (8, 4, 2), (6, 4, 2)])
    def test_ndpacked_roundtrip_is_exact(self, n, m, b):
        tensor = nd_random_symmetric(n, m, seed=1)
        bcss = BCSSTensor.from_ndpacked(tensor, b)
        assert np.array_equal(bcss.to_ndpacked().data, tensor.data)

    @pytest.mark.parametrize(
        "n,m,b", [(12, 2, 3), (12, 3, 3), (12, 3, 4), (12, 4, 3), (10, 5, 2)]
    )
    def test_every_block_is_its_dense_cube(self, n, m, b):
        """Each gather path — runs, runs plus mirrors — cuts exactly
        the dense cube's block."""
        tensor = nd_random_symmetric(n, m, seed=2)
        dense = tensor.to_dense()
        bcss = BCSSTensor.from_ndpacked(tensor, b)
        patterns = set()
        for block, index in zip(bcss.blocks, bcss.block_indices.tolist()):
            cube = dense[tuple(slice(i * b, (i + 1) * b) for i in index)]
            assert np.array_equal(block, cube)
            patterns.add(tuple(a == c for a, c in zip(index, index[1:])))
        assert len(patterns) == 2 ** (m - 1)

    @pytest.mark.parametrize("n,m,b", [(12, 3, 4), (30, 3, 6), (12, 4, 3)])
    def test_runs_gather_is_the_entry_gather_bitwise(self, n, m, b):
        """Every block, all-diagonal ones included, gathered from runs
        plus mirrors holds bitwise the words an entry-by-entry gather
        at its packed offsets takes."""
        tensor = nd_random_symmetric(n, m, seed=5)
        bcss = BCSSTensor.from_ndpacked(tensor, b)
        for block, index in zip(bcss.blocks, bcss.block_indices.tolist()):
            entries = tensor.data[_block_entry_offsets(tuple(index), b)]
            assert block.tobytes() == entries.tobytes()

    def test_dense_roundtrip(self):
        tensor = nd_random_symmetric(6, 4, seed=2)
        bcss = BCSSTensor.from_ndpacked(tensor, 2)
        dense = bcss.to_dense()
        assert np.allclose(dense, tensor.to_dense())
        back = BCSSTensor.from_dense(dense, 2)
        assert np.array_equal(back.to_ndpacked().data, tensor.data)

    def test_block_size_must_divide_n(self):
        tensor = nd_random_symmetric(7, 3, seed=3)
        with pytest.raises(ConfigurationError):
            BCSSTensor.from_ndpacked(tensor, 3)

    def test_storage_beats_dense_blocks(self):
        """BCSS keeps C(n̄+m−1, m)/n̄^m of a dense block grid."""
        tensor = nd_random_symmetric(12, 4, seed=4)
        bcss = BCSSTensor.from_ndpacked(tensor, 3)
        assert bcss.storage_words < 12**4 / 3
        assert bcss.storage_words >= nd_packed_size(12, 4)


class TestWeights:
    def test_order4_values(self):
        # All-distinct: (m-1)! per distinct value.
        assert nd_contribution_weights((3, 2, 1, 0)) == {3: 6, 2: 6, 1: 6, 0: 6}
        # One pair: the pair absorbs both its slots' permutations.
        assert nd_contribution_weights((2, 2, 1, 0)) == {2: 6, 1: 3, 0: 3}
        # Two pairs, triple, and the fully repeated diagonal.
        assert nd_contribution_weights((1, 1, 0, 0)) == {1: 3, 0: 3}
        assert nd_contribution_weights((1, 1, 1, 0)) == {1: 3, 0: 1}
        assert nd_contribution_weights((0, 0, 0, 0)) == {0: 1}

    def test_order3_matches_algorithm4_cases(self):
        assert nd_contribution_weights((2, 1, 0)) == {2: 2, 1: 2, 0: 2}
        assert nd_contribution_weights((1, 1, 0)) == {1: 2, 0: 1}
        assert nd_contribution_weights((1, 0, 0)) == {1: 1, 0: 2}
        assert nd_contribution_weights((0, 0, 0)) == {0: 1}


class TestKernels:
    def test_contract_all_but_matches_einsum(self, rng):
        block = rng.standard_normal((3, 3, 3, 3))
        vectors = [rng.standard_normal(3) for _ in range(4)]
        got = contract_all_but(block, 2, vectors)
        want = np.einsum(
            "abcd,a,b,d->c", block, vectors[0], vectors[1], vectors[3]
        )
        assert np.allclose(got, want)

    def test_apply_block_accumulates_symmetric_contributions(self, rng):
        """One off-diagonal block applied through the weights equals the
        dense symmetric tensor restricted to that block's rows."""
        tensor = nd_random_symmetric(4, 4, seed=5)
        bcss = BCSSTensor.from_ndpacked(tensor, 2)
        x = rng.standard_normal(4)
        x_blocks = {i: x[2 * i : 2 * i + 2] for i in range(2)}
        y_blocks = {i: np.zeros(2) for i in range(2)}
        for offset in range(bcss.num_blocks):
            index = tuple(int(v) for v in bcss.block_indices[offset])
            apply_one(index, bcss.blocks[offset], x_blocks, y_blocks)
        y = np.concatenate([y_blocks[0], y_blocks[1]])
        assert np.allclose(y, sttsv_ndim(tensor, x))


class TestApplyBlockPatterns:
    #: Every multiplicity pattern of a canonical 4-tuple (a > b > c > d).
    PATTERNS = {
        "abcd": (3, 2, 1, 0),
        "aabc": (2, 2, 1, 0),
        "abbc": (2, 1, 1, 0),
        "abcc": (2, 1, 0, 0),
        "aabb": (1, 1, 0, 0),
        "aaab": (1, 1, 1, 0),
        "abbb": (1, 0, 0, 0),
        "aaaa": (0, 0, 0, 0),
    }

    @pytest.mark.parametrize("pattern", list(PATTERNS))
    def test_matches_contract_all_but(self, pattern, rng):
        """The batched reshape/mat-vec chains, on a one-block stack,
        equal the weighted ``einsum`` contraction at each distinct
        value's first position, for a BCSS block of every multiplicity
        pattern."""
        b, nbar = 3, 4
        index = self.PATTERNS[pattern]
        tensor = nd_random_symmetric(nbar * b, 4, seed=rng.integers(1 << 30))
        block = BCSSTensor.from_ndpacked(tensor, b).block(index)
        x_blocks = [rng.standard_normal(b) for _ in range(nbar)]
        y_blocks = [np.zeros(b) for _ in range(nbar)]
        apply_one(index, block, x_blocks, y_blocks)
        vectors = [x_blocks[value] for value in index]
        expected = [np.zeros(b) for _ in range(nbar)]
        for value, weight in nd_contribution_weights(index).items():
            keep = index.index(value)
            expected[value] += weight * contract_all_but(block, keep, vectors)
        for got, want in zip(y_blocks, expected):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestSttsm:
    @pytest.mark.parametrize("n,m,b", [(6, 3, 2), (8, 4, 2), (8, 4, 4)])
    def test_sttsv_bcss_matches_ndim_kernel(self, n, m, b, rng):
        tensor = nd_random_symmetric(n, m, seed=6)
        bcss = BCSSTensor.from_ndpacked(tensor, b)
        x = rng.standard_normal(n)
        assert np.allclose(sttsv_bcss(bcss, x), sttsv_ndim(tensor, x))

    @pytest.mark.parametrize("n,m,b,r", [(6, 3, 2, 2), (8, 4, 2, 3)])
    def test_sttsm_matches_dense_cascade(self, n, m, b, r, rng):
        tensor = nd_random_symmetric(n, m, seed=7)
        bcss = BCSSTensor.from_ndpacked(tensor, b)
        X = rng.standard_normal((n, r))
        packed = sttsm(bcss, X)
        want = sttsm_dense_reference(tensor.to_dense(), X)
        assert np.allclose(packed.to_dense(), want)

    def test_sttsm_rank_one_collapses_to_sttsv_products(self, rng):
        """With a single column, C = A ×₁ x ··· ×ₘ x is the 1×…×1
        contraction ⟨y, x⟩ where y is the STTSV output."""
        tensor = nd_random_symmetric(6, 4, seed=8)
        bcss = BCSSTensor.from_ndpacked(tensor, 2)
        x = rng.standard_normal(6)
        core = sttsm(bcss, x[:, None]).to_dense().reshape(())
        assert np.allclose(core, sttsv_ndim(tensor, x) @ x)

    def test_sttsm_ndpacked_pads_awkward_n(self, rng):
        """n that no block size divides still works via zero padding."""
        tensor = nd_random_symmetric(7, 4, seed=9)
        X = rng.standard_normal((7, 2))
        packed = sttsm_ndpacked(tensor, X, block_size=3)
        want = sttsm_dense_reference(tensor.to_dense(), X)
        assert np.allclose(packed.to_dense(), want)


class TestBlockedPlan:
    @pytest.mark.parametrize("n,m", [(6, 3), (8, 4), (20, 4)])
    def test_apply_matches_ndim_kernel(self, n, m, rng):
        tensor = nd_random_symmetric(n, m, seed=10)
        plan = BlockedPlan(tensor)
        x = rng.standard_normal(n)
        assert np.allclose(plan.apply(x), sttsv_ndim(tensor, x))

    def test_apply_batch_columns_match_apply(self, rng):
        tensor = nd_random_symmetric(9, 4, seed=11)
        plan = BlockedPlan(tensor)
        X = rng.standard_normal((9, 5))
        Y = plan.apply_batch(X)
        for s in range(5):
            assert np.allclose(Y[:, s], plan.apply(X[:, s]))

    def test_compilation_does_not_mutate_blocks(self, rng):
        """Regression: baking multiplicities into the operator must
        not scale the tensor's own data in place."""
        tensor = nd_random_symmetric(8, 4, seed=12)
        before = tensor.data.copy()
        plan = BlockedPlan(tensor)
        assert np.array_equal(tensor.data, before)
        x = rng.standard_normal(8)
        first = plan.apply(x)
        assert np.array_equal(plan.apply(x), first)
        assert np.allclose(first, sttsv_ndim(tensor, x))

    def test_rejects_other_inputs(self):
        with pytest.raises(ConfigurationError):
            BlockedPlan(np.zeros((3, 3, 3)))

    def test_nbytes_and_strategy(self):
        plan = BlockedPlan(nd_random_symmetric(6, 3, seed=14))
        assert isinstance(plan, SequentialPlan)
        assert plan.strategy == "gemm"
        assert plan.nbytes() > 0
