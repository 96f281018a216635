"""Hypergraph eigenvector centrality via STTSV (NQZ H-eigenpairs).

The paper cites fast tensor-times-same-vector for hypergraphs
(Shivakumar et al.) as an STTSV consumer. This example builds a
3-uniform hypergraph with planted community structure, computes its
H-eigenvector centrality (the Perron H-eigenpair of the adjacency
tensor) with the NQZ iteration — every step one STTSV — and runs the
same computation on the simulated P=10 machine with the
communication-optimal kernel.

Run:  python examples/hypergraph_centrality.py
"""

import numpy as np

from repro import (
    Machine,
    ParallelSTTSV,
    TetrahedralPartition,
    spherical_steiner_system,
)
from repro.apps.heig import nqz_h_eigenpair, parallel_nqz_h_eigenpair
from repro.tensor.hypergraph import (
    adjacency_tensor,
    connected_components,
    edge_list_from_cliques,
    random_hypergraph,
    vertex_degrees,
)


def build_hypergraph(n: int, seed: int):
    """Random background edges + one planted dense community."""
    rng = np.random.default_rng(seed)
    background = random_hypergraph(n, 3 * n, seed=rng)
    community = edge_list_from_cliques(n, [list(range(6))])  # dense core 0..5
    edges = sorted(set(background) | set(community))
    return edges


def main() -> None:
    n = 30
    edges = build_hypergraph(n, seed=4)
    components = connected_components(n, edges)
    assert len(components) == 1, "want a connected hypergraph"
    degrees = vertex_degrees(n, edges)
    tensor = adjacency_tensor(n, edges)
    print(f"3-uniform hypergraph: {n} vertices, {len(edges)} hyperedges,"
          f" connected")

    result = nqz_h_eigenpair(tensor, seed=5)
    centrality = result.eigenvector / result.eigenvector.max()
    print(f"H-spectral radius λ = {result.eigenvalue:.6f}"
          f" ({result.iterations} NQZ iterations, Collatz gap"
          f" {result.collatz_upper - result.collatz_lower:.2e})")

    top = np.argsort(centrality)[::-1][:8]
    print("\ntop-8 central vertices (centrality / degree):")
    for vertex in top:
        marker = "  <- planted core" if vertex < 6 else ""
        print(f"  v{vertex:>2}: {centrality[vertex]:.4f} / {int(degrees[vertex])}{marker}")
    core_in_top = sum(1 for v in top if v < 6)
    print(f"planted core members in top-8: {core_in_top}/6")

    partition = TetrahedralPartition(spherical_steiner_system(2))
    engine = ParallelSTTSV(partition, n)
    with Machine(partition.P) as machine:
        engine.load_tensor(machine, tensor)
        parallel = parallel_nqz_h_eigenpair(engine, machine, tensor, seed=5)
    print(
        f"\nparallel NQZ on P=10: λ = {parallel.eigenvalue:.6f}"
        f" (match {abs(parallel.eigenvalue - result.eigenvalue):.2e}),"
        f" total communication {parallel.ledger.total_words()} words over"
        f" {parallel.iterations} iterations"
    )


if __name__ == "__main__":
    main()
