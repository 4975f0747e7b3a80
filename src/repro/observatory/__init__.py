"""The benchmark observatory: history, trend reports, differential judge.

``repro bench`` emits point-in-time ``repro-bench/1`` snapshots; this
package is what *reads* them across time and across backends, turning the
perf trajectory into a first-class, self-checking artifact:

* :mod:`.history` — ``repro bench --history PATH`` appends each run as a
  ``repro-bench-history/1`` JSONL line (UTC time, git SHA, hostname,
  suite, options, full document);
* :mod:`.report` — ``repro report`` renders trend tables (per-scenario
  seconds, plan-cache hit rates, per-family scaling) plus a
  regression summary against a chosen anchor run, exiting non-zero past
  the noise floor;
* :mod:`.judge` — ``repro judge`` replays a suite across checker
  backends, failing on any verdict or normalized-plan disagreement and
  flagging portfolio-race picks that were measurably slower than a
  losing backend.

See the "Benchmark observatory" section of ``docs/ARCHITECTURE.md`` for
the data flow (bench → history → report/judge).
"""

from repro.observatory.history import (
    HISTORY_SCHEMA,
    append_history,
    history_line,
    load_history,
)
from repro.observatory.judge import (
    DEFAULT_BACKENDS,
    JUDGE_SCHEMA,
    format_judge_summary,
    run_judge,
)
from repro.observatory.report import (
    REPORT_SCHEMA,
    build_report,
    format_report,
    resolve_anchor,
)

__all__ = [
    "DEFAULT_BACKENDS",
    "HISTORY_SCHEMA",
    "JUDGE_SCHEMA",
    "REPORT_SCHEMA",
    "append_history",
    "build_report",
    "format_judge_summary",
    "format_report",
    "history_line",
    "load_history",
    "resolve_anchor",
    "run_judge",
]
