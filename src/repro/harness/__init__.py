"""Experiment harness: runner, table/figure generators, formatting,
parallel sweep execution, and the persistent baseline cache."""

from repro.harness.baseline_cache import (
    BaselineCache,
    baseline_key,
    cost_model_fingerprint,
    default_cache_dir,
    program_fingerprint,
)
from repro.harness.experiment import (
    CellRecord,
    ExperimentRunner,
    RunResult,
    RunSpec,
    make_instrumentations,
    overhead_percent,
)
from repro.harness.parallel import (
    RunnerConfig,
    WorkerLost,
    cell_seed,
    effective_jobs,
    run_specs,
)
from repro.harness.formatting import mean, render_table
from repro.harness.sweeps import (
    SweepPoint,
    interval_sweep,
    operating_range,
    pareto_frontier,
    sweep_table,
)
from repro.harness.tables import (
    TableResult,
    figure7,
    figure8a,
    figure8b,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "ExperimentRunner",
    "RunSpec",
    "RunResult",
    "CellRecord",
    "BaselineCache",
    "baseline_key",
    "program_fingerprint",
    "cost_model_fingerprint",
    "default_cache_dir",
    "RunnerConfig",
    "cell_seed",
    "effective_jobs",
    "run_specs",
    "WorkerLost",
    "make_instrumentations",
    "overhead_percent",
    "render_table",
    "mean",
    "TableResult",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure7",
    "figure8a",
    "SweepPoint",
    "interval_sweep",
    "pareto_frontier",
    "operating_range",
    "sweep_table",
    "figure8b",
]
