"""Static analysis: problem linting and plan audits.

Two passes over synthesis inputs/outputs, neither of which runs a model
checker:

* :func:`analyze_problem` — per-class reachability closure over the
  endpoint configurations, with sound ``infeasible``-family diagnostics
  (``repro analyze``);
* :func:`audit_plan` — structural verification of synthesized plans.

Both passes report :class:`Diagnostic` records aggregated into the
versioned ``repro-analysis/1`` document (:class:`AnalysisReport`).
"""

from repro.analysis.diagnostics import (
    ANALYSIS_SCHEMA,
    DIAGNOSTIC_CODES,
    AnalysisReport,
    Diagnostic,
    TargetReport,
)
from repro.analysis.plan_audit import audit_plan
from repro.analysis.problem import analyze_problem
from repro.analysis.reachability import ClassClosure, class_closure

__all__ = [
    "ANALYSIS_SCHEMA",
    "DIAGNOSTIC_CODES",
    "AnalysisReport",
    "ClassClosure",
    "Diagnostic",
    "TargetReport",
    "analyze_problem",
    "audit_plan",
    "class_closure",
]
