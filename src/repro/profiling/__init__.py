"""Self-sampling VM overhead profiling (docs/PROFILING.md).

The paper's counter-based sampling machinery, pointed at the host
interpreters themselves:

* :mod:`repro.profiling.profiler` — :class:`OverheadProfiler`, sampling
  at the engines' observer boundaries and attributing wall time to cost
  components (dispatch / compiled / check / dup / trampoline / payload / poll /
  runtime), plus heat maps and calling-context stack samples;
* :mod:`repro.profiling.decomposition` — per-cell overhead-decomposition
  reports whose component sum reconciles against measured wall time;
* :mod:`repro.profiling.flamegraph` — collapsed-stack, speedscope, and
  Chrome trace_event flame-graph exporters;
* :mod:`repro.profiling.ledger` — the continuous perf-regression
  ledger (``BENCH_history.jsonl``) and its rolling-baseline comparator;
* :mod:`repro.profiling.cct` — the first-class calling-context tree:
  dense context interning, per-context cost attribution, and the
  snapshot-table merge/diff (bindings of :data:`repro.snapshots.CCT`).
"""

from repro.profiling.cct import (
    PATH_SEPARATOR,
    CallingContextTree,
    ContextTracker,
    cct_from_events,
    context_totals,
    diff_cct_table,
    join_path,
    merge_cct_tables,
    split_path,
    top_contexts,
)

from repro.profiling.decomposition import (
    DEFAULT_TOLERANCE,
    DecompositionReport,
    decompose,
)
from repro.profiling.flamegraph import (
    stacks_to_chrome_flame,
    stacks_to_collapsed,
    stacks_to_speedscope,
    write_chrome_flame,
    write_collapsed,
    write_speedscope,
)
from repro.profiling.ledger import (
    DEFAULT_NOISE_PCT,
    DEFAULT_WINDOW,
    LEDGER_ENV,
    LEDGER_FILENAME,
    LedgerReport,
    PerfLedger,
    TrendVerdict,
    calibration_score,
    host_fingerprint,
    make_record,
    resolve_ledger,
)
from repro.profiling.profiler import (
    COMPONENTS,
    DEFAULT_INTERVAL,
    OverheadProfiler,
    merge_snapshots,
)

__all__ = [
    "COMPONENTS",
    "CallingContextTree",
    "ContextTracker",
    "DEFAULT_INTERVAL",
    "DEFAULT_NOISE_PCT",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WINDOW",
    "DecompositionReport",
    "LEDGER_ENV",
    "LEDGER_FILENAME",
    "LedgerReport",
    "OverheadProfiler",
    "PATH_SEPARATOR",
    "PerfLedger",
    "TrendVerdict",
    "calibration_score",
    "cct_from_events",
    "context_totals",
    "decompose",
    "diff_cct_table",
    "host_fingerprint",
    "join_path",
    "make_record",
    "merge_cct_tables",
    "merge_snapshots",
    "resolve_ledger",
    "split_path",
    "top_contexts",
    "stacks_to_chrome_flame",
    "stacks_to_collapsed",
    "stacks_to_speedscope",
    "write_chrome_flame",
    "write_collapsed",
    "write_speedscope",
]
