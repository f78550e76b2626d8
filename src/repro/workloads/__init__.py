"""FStartBench: functions, arrival processes and workload sets.

Reproduces the paper's benchmark (Section V): the 13 functions of Table II,
Poisson/uniform/peak/random arrival processes, the seven workload sets
(HI-Sim, LO-Sim, LO-Var, HI-Var, Uniform, Peak, Random) plus the overall
400-invocation mix of Section VI-B, and a synthetic Azure-like trace
generator reproducing the cited production-workload statistics.
"""

from repro.workloads.functions import (
    FunctionSpec,
    fstartbench_functions,
    function_by_id,
    function_by_name,
)
from repro.workloads.workload import Invocation, Workload
from repro.workloads.arrivals import (
    ArrivalProcess,
    PeakArrivals,
    PoissonArrivals,
    UniformArrivals,
)
from repro.workloads.fstartbench import (
    WORKLOAD_BUILDERS,
    build_workload,
    hi_sim_workload,
    hi_var_workload,
    lo_sim_workload,
    lo_var_workload,
    overall_workload,
    peak_workload,
    random_workload,
    uniform_workload,
)
from repro.workloads.azure import (
    AzureTraceConfig,
    AzureTraceGenerator,
    AzureTraceStream,
)
from repro.workloads.stream import (
    InvocationStream,
    StreamStatistics,
    WorkloadStream,
    merge_function_chunks,
    statistics_from_counts,
    stream_from_workload,
)
from repro.workloads.metrics import workload_similarity, workload_size_variance
from repro.workloads.serialization import load_workload, save_workload

__all__ = [
    "FunctionSpec",
    "fstartbench_functions",
    "function_by_id",
    "function_by_name",
    "Invocation",
    "Workload",
    "ArrivalProcess",
    "PoissonArrivals",
    "UniformArrivals",
    "PeakArrivals",
    "WORKLOAD_BUILDERS",
    "build_workload",
    "lo_sim_workload",
    "hi_sim_workload",
    "lo_var_workload",
    "hi_var_workload",
    "uniform_workload",
    "peak_workload",
    "random_workload",
    "overall_workload",
    "AzureTraceConfig",
    "AzureTraceGenerator",
    "AzureTraceStream",
    "InvocationStream",
    "StreamStatistics",
    "WorkloadStream",
    "merge_function_chunks",
    "statistics_from_counts",
    "stream_from_workload",
    "workload_similarity",
    "workload_size_variance",
    "save_workload",
    "load_workload",
]
