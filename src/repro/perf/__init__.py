"""Profiling: the ``repro profile`` harness.

* :mod:`repro.perf.profile` — per-phase wall time attribution (labeling,
  SAT ordering, wait removal) emitted as a schema-versioned
  ``PROFILE_<suite>.json``.

:mod:`repro.perf.memo` is an empty placeholder kept for an import in
``perfbench/tracing.py``.
"""
