"""High-level framework API: build/run pipeline and ISA selection."""

from .cost import (
    CostParameters,
    CostReport,
    OpClassCounts,
    estimate_width,
    evaluate_widths,
    select_isas_cost_aware,
)
from .config import RunConfig
from .parallel import (
    ParallelResult,
    ShardPlan,
    merge_metric_dicts,
    plan_shards,
    run_parallel,
)
from .pipeline import (
    BuildResult,
    RunResult,
    build,
    build_and_run,
    build_benchmark,
    run,
)
from .sampling import (
    SampledRun,
    SamplingConfig,
    SamplingResult,
    estimate_cycles,
    merge_sampling_results,
    run_sampled,
)
from .selection import (
    FunctionAttributor,
    FunctionProfile,
    SelectionReport,
    demangle,
    profile_functions,
    select_isas,
)

__all__ = [
    "BuildResult",
    "CostParameters",
    "CostReport",
    "OpClassCounts",
    "estimate_width",
    "evaluate_widths",
    "select_isas_cost_aware",
    "FunctionAttributor",
    "FunctionProfile",
    "ParallelResult",
    "RunConfig",
    "RunResult",
    "SampledRun",
    "SamplingConfig",
    "SamplingResult",
    "ShardPlan",
    "merge_metric_dicts",
    "plan_shards",
    "run_parallel",
    "SelectionReport",
    "build",
    "build_and_run",
    "build_benchmark",
    "demangle",
    "estimate_cycles",
    "merge_sampling_results",
    "profile_functions",
    "run",
    "run_sampled",
    "select_isas",
]
