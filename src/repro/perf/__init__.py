"""Performance support.

:mod:`repro.perf.memo` is an empty placeholder kept for an import in
``perfbench/tracing.py``.  Per-layer timings come from perfbench's traced
runs (``python3 perfbench/run.py --trace 1``).
"""
