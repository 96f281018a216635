"""Stacked ternary kernels (Algorithm 5 lines 24–36), order 3."""

import numpy as np
import pytest

from repro.core.block_kernels import apply_case, block_case, block_flop_count
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.tensor.bcss import BCSSTensor
from repro.tensor.blocks import lower_tetrahedral_blocks
from repro.tensor.dense import random_symmetric


def apply_one(index, block, x_blocks, y_blocks):
    """One block as a one-block stack: gather the x row block of each
    run of ``index``, add the contributions into ``y_blocks``."""
    runs = list(dict.fromkeys(index))
    x = np.stack([x_blocks[value] for value in runs])[:, None]
    for value, contribution in zip(runs, apply_case(block_case(index), block[None], x)[:, 0]):
        y_blocks[value] += contribution


class TestContractions:
    def test_mode_contractions_against_einsum(self, rng):
        """An off-diagonal stack needs no symmetry: every block's three
        outputs are its weighted single-mode-kept contractions."""
        stack = rng.normal(size=(5, 4, 4, 4))
        x = rng.normal(size=(3, 5, 4))
        got = apply_case((1, 1, 1), stack, x)
        for s in range(5):
            xi, xj, xk = x[:, s]
            for run, (spec, u, v) in enumerate(
                [("ijk,j,k->i", xj, xk), ("ijk,i,k->j", xi, xk), ("ijk,i,j->k", xi, xj)]
            ):
                assert np.allclose(got[run, s], 2 * np.einsum(spec, stack[s], u, v))

    @pytest.mark.parametrize(
        "case", [(1, 1), (2,), (1, 1, 1), (2, 1), (1, 2), (3,), (1, 2, 1), (2, 2), (4,)]
    )
    def test_columns_match_vectors(self, rng, case):
        """``c`` columns through one pass equal ``c`` vector passes."""
        stack = rng.normal(size=(3,) + (4,) * sum(case))
        x = rng.normal(size=(len(case), 3, 4, 5))
        got = apply_case(case, stack, x)
        assert got.shape == x.shape
        for col in range(5):
            assert np.allclose(got[..., col], apply_case(case, stack, x[..., col]))

    @pytest.mark.parametrize("layout", ["strided-view", "fortran"])
    def test_non_c_contiguous_blocks_against_einsum(self, rng, layout):
        if layout == "strided-view":
            block = rng.normal(size=(8, 8, 8))[::2, 1::2, ::2]
        else:
            block = np.asfortranarray(rng.normal(size=(4, 4, 4)))
        assert block.shape == (4, 4, 4) and not block.flags.c_contiguous
        x = [rng.normal(size=4) for _ in range(3)]
        # An off-diagonal block needs no symmetry, so any block will do.
        y = {i: np.zeros(4) for i in range(3)}
        apply_one((2, 1, 0), block, dict(enumerate(x)), y)
        assert np.allclose(y[2], 2 * np.einsum("ijk,j,k->i", block, x[1], x[0]))
        assert np.allclose(y[1], 2 * np.einsum("ijk,i,k->j", block, x[2], x[0]))
        assert np.allclose(y[0], 2 * np.einsum("ijk,i,j->k", block, x[2], x[1]))


class TestApplyBlock:
    @pytest.mark.parametrize("m,b", [(4, 2), (4, 3), (5, 2), (3, 4)])
    def test_full_block_sweep_reproduces_sttsv(self, m, b, rng):
        """Every lower-tetrahedral block, stacked by case, one
        ``apply_case`` pass per case: the contributions sum to the exact
        symmetric STTSV — the identity Algorithm 5 relies on."""
        n = m * b
        tensor = random_symmetric(n, seed=rng.integers(1 << 30))
        x = rng.normal(size=n)
        x_blocks = {i: x[i * b : (i + 1) * b] for i in range(m)}
        y_blocks = {i: np.zeros(b) for i in range(m)}
        block_at = BCSSTensor.from_ndpacked(tensor, b).block
        by_case = {}
        for index in lower_tetrahedral_blocks(m):
            by_case.setdefault(block_case(index), []).append(index)
        for case, indices in by_case.items():
            runs = [list(dict.fromkeys(index)) for index in indices]
            stack = np.stack([block_at(index) for index in indices])
            x_stack = np.array([[x_blocks[v] for v in values] for values in runs])
            out = apply_case(case, stack, x_stack.transpose(1, 0, 2))
            for values, contributions in zip(runs, out.transpose(1, 0, 2)):
                for value, contribution in zip(values, contributions):
                    y_blocks[value] += contribution
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
        apply_one((2, 1, 0), block, x_blocks, y_blocks)
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
        """One block of each canonical case, cut from packed storage, as
        a one-block stack adds the paper's weighted contractions and
        touches nothing else.
        ``weights`` maps the kept mode to its multiplicity."""
        b, m = 4, 4
        tensor = random_symmetric(m * b, seed=rng.integers(1 << 30))
        block = BCSSTensor.from_ndpacked(tensor, b).block(index)
        x_blocks = {i: rng.normal(size=b) for i in range(m)}
        y_blocks = {i: np.zeros(b) for i in range(m)}
        apply_one(index, block, x_blocks, y_blocks)
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
            block_case((0, 1, 2))
        with pytest.raises(ConfigurationError):
            apply_case((2, 1), np.zeros((1, 2, 2, 2)), np.zeros((3, 1, 2)))


class TestFlopCounts:
    def test_counts(self):
        b = 3
        assert block_flop_count((3, 2, 1), b) == 3 * 27
        assert block_flop_count((2, 2, 1), b) == 3 * 9 * 2 // 2 + 2 * 9
        assert block_flop_count((1, 1, 1), b) == 3 * 3 * 2 * 1 // 6 + 2 * 3 * 2 + 3
