"""The cross-backend differential judge (``repro judge``).

:mod:`.judge` replays a scenario suite across checker backends, failing
on any verdict or normalized-plan disagreement.
See the "Differential judge" section of ``docs/ARCHITECTURE.md``.
"""

from repro.observatory.judge import (
    DEFAULT_BACKENDS,
    JUDGE_SCHEMA,
    format_judge_summary,
    run_judge,
)

__all__ = [
    "DEFAULT_BACKENDS",
    "JUDGE_SCHEMA",
    "format_judge_summary",
    "run_judge",
]
