"""Placeholder for the deleted verdict memo.

``perfbench/tracing.py`` imports :class:`VerdictMemo` at module level, and
files under ``perfbench/`` change only in a benchmark-kind PR.  The class
keeps that import working; it has no methods, so the benchmark's
``perf.memo_*`` spans report as unpatched and read 0.
"""


class VerdictMemo:
    """Empty stand-in that exists only for ``perfbench/tracing.py``'s
    import; it is deleted by the benchmark-kind PR of ROADMAP item 4."""
