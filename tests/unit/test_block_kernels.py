"""Per-block ternary kernels (Algorithm 5 lines 24–36)."""

import numpy as np
import pytest

from repro.core.block_kernels import apply_block, block_flop_count, contract_mode23
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.tensor.bcss import BCSSTensor
from repro.tensor.blocks import lower_tetrahedral_blocks
from repro.tensor.dense import random_symmetric


class TestContractions:
    def test_mode_contractions_against_einsum(self, rng):
        block = rng.normal(size=(3, 4, 5))
        u4, u5 = rng.normal(size=4), rng.normal(size=5)
        assert np.allclose(
            contract_mode23(block, u4, u5), np.einsum("ijk,j,k->i", block, u4, u5)
        )

    @pytest.mark.parametrize("layout", ["strided-view", "fortran"])
    def test_non_c_contiguous_blocks_against_einsum(self, rng, layout):
        if layout == "strided-view":
            block = rng.normal(size=(8, 8, 8))[::2, 1::2, ::2]
        else:
            block = np.asfortranarray(rng.normal(size=(4, 4, 4)))
        assert block.shape == (4, 4, 4) and not block.flags.c_contiguous
        x = [rng.normal(size=4) for _ in range(3)]
        assert np.allclose(
            contract_mode23(block, x[1], x[2]),
            np.einsum("ijk,j,k->i", block, x[1], x[2]),
        )
        # An off-diagonal block needs no symmetry, so any block will do.
        y = {i: np.zeros(4) for i in range(3)}
        apply_block((2, 1, 0), block, dict(enumerate(x)), y)
        assert np.allclose(y[2], 2 * np.einsum("ijk,j,k->i", block, x[1], x[0]))
        assert np.allclose(y[1], 2 * np.einsum("ijk,i,k->j", block, x[2], x[0]))
        assert np.allclose(y[0], 2 * np.einsum("ijk,i,j->k", block, x[2], x[1]))


class TestApplyBlock:
    @pytest.mark.parametrize("m,b", [(4, 2), (4, 3), (5, 2), (3, 4)])
    def test_full_block_sweep_reproduces_sttsv(self, m, b, rng):
        """Summing apply_block over every lower-tetrahedral block equals
        the exact symmetric STTSV — the identity Algorithm 5 relies on."""
        n = m * b
        tensor = random_symmetric(n, seed=rng.integers(1 << 30))
        x = rng.normal(size=n)
        x_blocks = {i: x[i * b : (i + 1) * b] for i in range(m)}
        y_blocks = {i: np.zeros(b) for i in range(m)}
        block_at = BCSSTensor.from_ndpacked(tensor, b).block
        for index in lower_tetrahedral_blocks(m):
            apply_block(index, block_at(index), x_blocks, y_blocks)
        y = np.concatenate([y_blocks[i] for i in range(m)])
        assert np.allclose(y, sttsv_packed(tensor, x))

    def test_single_off_diagonal_block(self, rng):
        """One off-diagonal block contributes weight-2 to all three row
        blocks, matching a brute-force sum over its 6 permuted positions."""
        b, m = 2, 3
        n = m * b
        tensor = random_symmetric(n, seed=3)
        x = rng.normal(size=n)
        dense = tensor.to_dense()
        x_blocks = {i: x[i * b : (i + 1) * b] for i in range(m)}
        y_blocks = {i: np.zeros(b) for i in range(m)}
        block = BCSSTensor.from_ndpacked(tensor, b).block((2, 1, 0))
        apply_block((2, 1, 0), block, x_blocks, y_blocks)
        # Brute force: zero out everything except entries whose index
        # multiset hits all three row blocks once.
        y_expected = np.zeros(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if sorted((i // b, j // b, k // b)) == [0, 1, 2]:
                        y_expected[i] += dense[i, j, k] * x[j] * x[k]
        for block_id in range(m):
            assert np.allclose(
                y_blocks[block_id],
                y_expected[block_id * b : (block_id + 1) * b],
            )

    @pytest.mark.parametrize(
        "index,weights",
        [
            ((3, 2, 0), {0: 2, 1: 2, 2: 2}),  # I > J > K
            ((2, 2, 0), {0: 2, 2: 1}),  # I == J > K
            ((2, 0, 0), {0: 1, 1: 2}),  # I > J == K
            ((1, 1, 1), {0: 1}),  # I == J == K
        ],
        ids=["off-diagonal", "i=j>k", "i>j=k", "central"],
    )
    def test_each_case_matches_weighted_einsum(self, index, weights, rng):
        """One block of each canonical case, cut from packed storage,
        adds the paper's weighted contractions and touches nothing else.
        ``weights`` maps the kept mode to its multiplicity."""
        b, m = 4, 4
        tensor = random_symmetric(m * b, seed=rng.integers(1 << 30))
        block = BCSSTensor.from_ndpacked(tensor, b).block(index)
        x_blocks = {i: rng.normal(size=b) for i in range(m)}
        y_blocks = {i: np.zeros(b) for i in range(m)}
        apply_block(index, block, x_blocks, y_blocks)
        specs = {0: "ijk,j,k->i", 1: "ijk,i,k->j", 2: "ijk,i,j->k"}
        expected = {i: np.zeros(b) for i in range(m)}
        for mode, weight in weights.items():
            others = [x_blocks[index[o]] for o in range(3) if o != mode]
            expected[index[mode]] += weight * np.einsum(
                specs[mode], block, *others
            )
        for i in range(m):
            assert np.allclose(y_blocks[i], expected[i], rtol=1e-12, atol=1e-12)

    def test_non_canonical_index_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_block((0, 1, 2), np.zeros((2, 2, 2)), {}, {})


class TestFlopCounts:
    def test_counts(self):
        b = 3
        assert block_flop_count((3, 2, 1), b) == 3 * 27
        assert block_flop_count((2, 2, 1), b) == 3 * 9 * 2 // 2 + 2 * 9
        assert block_flop_count((1, 1, 1), b) == 3 * 3 * 2 * 1 // 6 + 2 * 3 * 2 + 3
