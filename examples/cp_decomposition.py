"""Symmetric CP decomposition with STTSV-powered gradients.

Paper Algorithm 2: the gradient of the symmetric CP objective needs one
STTSV per rank-one component. We build a noisy rank-3 symmetric tensor,
recover its factors by gradient descent with backtracking, and report
the communication a parallel gradient evaluation costs (r optimal
STTSV exchanges).

Run:  python examples/cp_decomposition.py
"""

import numpy as np

from repro import (
    Machine,
    ParallelSTTSV,
    TetrahedralPartition,
    spherical_steiner_system,
)
from repro.apps.cp_gradient import (
    cp_objective,
    parallel_cp_gradient,
    symmetric_cp_decompose,
)
from repro.core.bounds import optimal_bandwidth_cost
from repro.tensor.dense import packed_from_dense, rank_one_symmetric
from repro.tensor.packed import PackedSymmetricTensor


def main() -> None:
    rng = np.random.default_rng(11)
    n, rank = 30, 3
    true_factors = rng.normal(size=(n, rank))
    clean = sum(rank_one_symmetric(true_factors[:, t]) for t in range(rank))
    tensor = packed_from_dense(clean)
    noise_scale = 1e-3 * float(np.abs(tensor.data).max())
    noisy = PackedSymmetricTensor(
        n, tensor.data + noise_scale * rng.normal(size=tensor.data.shape)
    )
    print(f"Rank-{rank} symmetric tensor, n={n}, noise scale {noise_scale:.1e}")
    print(f"Objective at truth (noise floor): {cp_objective(noisy, true_factors):.3e}")

    start = true_factors + 0.05 * rng.normal(size=true_factors.shape)
    print(f"Objective at perturbed start:     {cp_objective(noisy, start):.3e}")

    result = symmetric_cp_decompose(
        noisy, rank, X0=start, max_iterations=300, tolerance=1e-9
    )
    print(
        f"After {result.iterations} gradient steps: objective"
        f" {result.objective:.3e} (converged={result.converged})"
    )

    # Column-wise match up to sign and permutation.
    recovered = result.factors
    print("\nFactor recovery (cosine similarity to best-matching true column):")
    for t in range(rank):
        sims = [
            abs(
                float(
                    recovered[:, t]
                    @ true_factors[:, s]
                    / (
                        np.linalg.norm(recovered[:, t])
                        * np.linalg.norm(true_factors[:, s])
                    )
                )
            )
            for s in range(rank)
        ]
        print(f"  column {t}: {max(sims):.6f}")

    # Communication of one parallel gradient evaluation.
    q = 2
    partition = TetrahedralPartition(spherical_steiner_system(q))
    engine = ParallelSTTSV(partition, n)
    with Machine(partition.P) as machine:
        engine.load_tensor(machine, noisy)
        _, ledger = parallel_cp_gradient(engine, machine, recovered)
    print(
        f"\nParallel gradient on P={partition.P}: {ledger.max_words_sent()}"
        f" words/processor = {rank} STTSVs x"
        f" {optimal_bandwidth_cost(n, q):.0f} words"
    )


if __name__ == "__main__":
    main()
