"""repro — communication-optimal parallel STTSV.

Reproduction of *"Minimizing Communication for Parallel Symmetric
Tensor Times Same Vector Computation"* (Al Daas, Ballard, Grigori,
Kumar, Rouse, Vérité — SPAA 2025): symmetric tensor kernels,
tetrahedral block partitions generated from Steiner systems, the
communication-optimal parallel STTSV algorithm with exact word-count
accounting on a simulated α-β-γ machine, matching lower bounds, and
the HOPM / symmetric-CP applications that motivate the kernel.

Quickstart
----------
>>> import numpy as np
>>> from repro import (spherical_steiner_system, TetrahedralPartition,
...                    ParallelSTTSV, Machine, random_symmetric, sttsv)
>>> part = TetrahedralPartition(spherical_steiner_system(2))   # P = 10
>>> tensor = random_symmetric(30, seed=0)
>>> x = np.ones(30)
>>> machine = Machine(part.P)
>>> algo = ParallelSTTSV(part, n=30)
>>> algo.load(machine, tensor, x)
>>> algo.run(machine)
>>> bool(np.allclose(algo.gather_result(machine), sttsv(tensor, x)))
True
>>> machine.ledger.max_words_sent() == algo.expected_words_per_processor()
True
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": (
        "ReproError",
        "ConfigurationError",
        "FieldError",
        "SteinerError",
        "MatchingError",
        "PartitionError",
        "MachineError",
        "ConvergenceError",
    ),
    "repro.fields.gf": ("GF",),
    "repro.fields.primes": ("is_prime_power",),
    "repro.steiner.system": ("SteinerSystem",),
    "repro.steiner.spherical": ("spherical_steiner_system",),
    "repro.steiner.boolean": ("boolean_steiner_system",),
    "repro.steiner.catalog": (
        "steiner_system_for_processors",
        "admissible_processor_counts",
    ),
    "repro.tensor.packed": ("PackedSymmetricTensor",),
    "repro.tensor.dense": ("random_symmetric", "symmetrize", "odeco_tensor"),
    "repro.machine.machine": ("Machine",),
    "repro.machine.ledger": ("CommunicationLedger",),
    "repro.machine.cost": ("CostModel",),
    "repro.core.sttsv_sequential": (
        "sttsv",
        "sttsv_naive",
        "sttsv_symmetric",
        "sttsv_packed",
    ),
    "repro.core.plans": ("SequentialPlan", "sequential_plan"),
    "repro.core.partition": ("TetrahedralPartition",),
    "repro.core.parallel_sttsv": ("ParallelSTTSV", "CommBackend"),
    "repro.core.bounds": (
        "sttsv_lower_bound",
        "optimal_bandwidth_cost",
        "all_to_all_bandwidth_cost",
    ),
    "repro.core.schedule": ("build_exchange_schedule",),
    "repro.apps.hopm": ("hopm", "parallel_hopm"),
    "repro.apps.cp_gradient": ("cp_gradient", "symmetric_cp_decompose"),
})

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "FieldError",
    "SteinerError",
    "MatchingError",
    "PartitionError",
    "MachineError",
    "ConvergenceError",
    # substrates
    "GF",
    "is_prime_power",
    "SteinerSystem",
    "spherical_steiner_system",
    "boolean_steiner_system",
    "steiner_system_for_processors",
    "admissible_processor_counts",
    "PackedSymmetricTensor",
    "random_symmetric",
    "symmetrize",
    "odeco_tensor",
    "Machine",
    "CommunicationLedger",
    "CostModel",
    # core
    "sttsv",
    "SequentialPlan",
    "sequential_plan",
    "sttsv_naive",
    "sttsv_symmetric",
    "sttsv_packed",
    "TetrahedralPartition",
    "ParallelSTTSV",
    "CommBackend",
    "sttsv_lower_bound",
    "optimal_bandwidth_cost",
    "all_to_all_bandwidth_cost",
    "build_exchange_schedule",
    # apps
    "hopm",
    "parallel_hopm",
    "cp_gradient",
    "symmetric_cp_decompose",
]
