"""The paper's primary contribution: STTSV kernels, tetrahedral block
partitioning, the communication-optimal parallel algorithm, lower
bounds, and baselines."""

from repro.core.sttsv_sequential import (
    sttsv,
    sttsv_naive,
    sttsv_symmetric,
    sttsv_packed,
    sttsv_dense_reference,
    ttv_all_modes,
)
from repro.core.plans import (
    CacheInfo,
    ExchangePlan,
    LRUByteCache,
    SequentialPlan,
    cache_clear,
    cache_info,
    configure_cache,
    invalidate_plan,
    sequential_plan,
)
from repro.core.partition import TetrahedralPartition
from repro.core.partition_ndim import (
    QuadruplePartition,
    greedy_partial_permutation_rounds,
)
from repro.core.parallel_sttsv import ParallelSTTSV, CommBackend
from repro.core.sttsm import (
    sttsm,
    sttsm_dense_reference,
    sttsm_ndpacked,
    sttsv_bcss,
)
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_lower_bound,
    sttsv_ndim_scalar,
)
from repro.core.bounds import (
    sttsv_lower_bound,
    minimal_access_solution,
    optimal_bandwidth_cost,
    all_to_all_bandwidth_cost,
    computation_cost_leading,
    schedule_step_count,
)
from repro.core.schedule import ExchangeSchedule, build_exchange_schedule
from repro.core.verification import RunVerdict, verify_sttsv_run
from repro.core.serialization import save_partition, load_partition
from repro.core.baselines import (
    sequence_baseline_sttsv,
    grid_baseline_sttsv,
)

__all__ = [
    "sttsv",
    "ttv_all_modes",
    "QuadruplePartition",
    "greedy_partial_permutation_rounds",
    "sttsm",
    "sttsm_dense_reference",
    "sttsm_ndpacked",
    "sttsv_bcss",
    "sttsv_ndim",
    "sttsv_ndim_dense_reference",
    "sttsv_ndim_lower_bound",
    "sttsv_ndim_scalar",
    "SequentialPlan",
    "ExchangePlan",
    "LRUByteCache",
    "CacheInfo",
    "sequential_plan",
    "invalidate_plan",
    "cache_clear",
    "cache_info",
    "configure_cache",
    "RunVerdict",
    "verify_sttsv_run",
    "save_partition",
    "load_partition",
    "sttsv_naive",
    "sttsv_symmetric",
    "sttsv_packed",
    "sttsv_dense_reference",
    "TetrahedralPartition",
    "ParallelSTTSV",
    "CommBackend",
    "sttsv_lower_bound",
    "minimal_access_solution",
    "optimal_bandwidth_cost",
    "all_to_all_bandwidth_cost",
    "computation_cost_leading",
    "schedule_step_count",
    "ExchangeSchedule",
    "build_exchange_schedule",
    "sequence_baseline_sttsv",
    "grid_baseline_sttsv",
]
