"""The paper's primary contribution: STTSV kernels, tetrahedral block
partitioning, the communication-optimal parallel algorithm, lower
bounds, and baselines."""

from repro._lazy import lazy_exports

# Each a function named after its own submodule, so bound eagerly (see
# repro._lazy); neither loads more than the serving path already does.
from repro.core.sttsm import sttsm
from repro.core.sttsv_ndim import sttsv_ndim

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.sttsv_sequential": (
        "sttsv",
        "sttsv_naive",
        "sttsv_symmetric",
        "sttsv_packed",
        "sttsv_dense_reference",
        "ttv_all_modes",
    ),
    "repro.core.plans": (
        "CacheInfo",
        "ExchangePlan",
        "LRUByteCache",
        "SequentialPlan",
        "cache_clear",
        "cache_info",
        "configure_cache",
        "invalidate_plan",
        "sequential_plan",
    ),
    "repro.core.partition": ("TetrahedralPartition",),
    "repro.core.partition_ndim": (
        "QuadruplePartition",
        "greedy_partial_permutation_rounds",
    ),
    "repro.core.parallel_sttsv": ("ParallelSTTSV", "CommBackend"),
    "repro.core.sttsm": ("sttsm_dense_reference", "sttsm_ndpacked", "sttsv_bcss"),
    "repro.core.sttsv_ndim": (
        "sttsv_ndim_dense_reference",
        "sttsv_ndim_lower_bound",
        "sttsv_ndim_scalar",
    ),
    "repro.core.bounds": (
        "sttsv_lower_bound",
        "minimal_access_solution",
        "optimal_bandwidth_cost",
        "all_to_all_bandwidth_cost",
        "computation_cost_leading",
        "schedule_step_count",
    ),
    "repro.core.schedule": ("ExchangeSchedule", "build_exchange_schedule"),
    "repro.core.verification": ("RunVerdict", "verify_sttsv_run"),
    "repro.core.serialization": ("save_partition", "load_partition"),
    "repro.core.baselines": ("sequence_baseline_sttsv", "grid_baseline_sttsv"),
})

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
