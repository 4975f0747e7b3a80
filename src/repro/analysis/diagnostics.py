"""The ``repro-analysis/1`` diagnostics format.

Every static-analysis pass (problem linter, plan auditor)
reports :class:`Diagnostic` records: a stable ``RAxxx`` code, a severity
(``error``/``warn``/``info``), a human-readable message, and — for
error-level findings — an *exit family* that maps the finding onto the
exit-code taxonomy in :mod:`repro.errors` instead of inventing new codes:

* ``infeasible`` — a statically-*proven* infeasibility (the solver would
  raise :class:`~repro.errors.UpdateInfeasibleError`) → ``EXIT_INFEASIBLE``;
* ``parse`` — the document is malformed in a way the parse layer should
  have refused → ``EXIT_PARSE_ERROR``;
* ``failure`` — everything else → ``EXIT_FAILURE``.

Reports aggregate per *target* (a problem file, a corpus scenario, a
plan) and serialize to the versioned ``repro-analysis/1`` document that
``repro analyze --json`` emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import EXIT_FAILURE, EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE_ERROR, ParseError

#: bump when the document layout changes
ANALYSIS_SCHEMA = "repro-analysis/1"

SEVERITIES = ("error", "warn", "info")
FAMILIES = ("infeasible", "parse", "failure")

#: every diagnostic code the two passes can emit, with the one-line
#: description the README table and ``repro analyze --codes`` render.
DIAGNOSTIC_CODES: Dict[str, str] = {
    # problem linter (RA0xx)
    "RA000": "problem document failed to load or parse",
    "RA001": "ingress names an unknown, unattached, or non-host node",
    "RA002": "spec atom names a node absent from the topology",
    "RA003": "spec field guard matches no traffic class",
    "RA005": "traffic class has no ingress hosts (spec holds vacuously)",
    "RA010": "required node unreachable from the class ingress (infeasible)",
    "RA011": "forbidden node reachable from the class ingress (infeasible)",
    "RA012": "class drops traffic under a no-blackhole spec (infeasible)",
    "RA013": "endpoint configuration has a forwarding loop (infeasible)",
    "RA014": "spec is unsatisfiable for a class with live ingress (infeasible)",
    "RA020": "dead rule: matched by no traffic class",
    "RA021": "configured switch unreachable by any traffic class",
    "RA022": "configuration installs a table on a node missing from the topology",
    # plan auditor (RA2xx)
    "RA201": "plan command touches a switch absent from the topology",
    "RA202": "plan command names an unknown traffic class",
    "RA203": "plan command granularity disagrees with the plan granularity",
    "RA204": "plan updates the same unit twice",
    "RA205": "plan does not install the final configuration exactly",
    "RA206": "useless wait (leading, trailing, or consecutive)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One coded finding from a static-analysis pass."""

    code: str
    severity: str  # "error" | "warn" | "info"
    message: str
    family: str = "failure"  # exit family, meaningful for severity == "error"
    certificate: Optional[str] = None  # human-readable witness

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def render(self) -> str:
        text = f"{self.code} {self.severity}: {self.message}"
        if self.certificate:
            text += f" [{self.certificate}]"
        return text

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "family": self.family,
            "message": self.message,
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "Diagnostic":
        try:
            return Diagnostic(
                code=doc["code"],
                severity=doc["severity"],
                message=doc["message"],
                family=doc.get("family", "failure"),
                certificate=doc.get("certificate"),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"bad diagnostic document: {err}") from err


@dataclass
class TargetReport:
    """All diagnostics for one analyzed target (problem or plan)."""

    target: str
    kind: str  # "problem" | "plan"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {severity: 0 for severity in SEVERITIES}
        for diag in self.diagnostics:
            out[diag.severity] += 1
        return out

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def statically_infeasible(self) -> bool:
        return any(d.family == "infeasible" for d in self.errors)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "kind": self.kind,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": self.counts(),
            "statically_infeasible": self.statically_infeasible,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "TargetReport":
        try:
            return TargetReport(
                target=doc["target"],
                kind=doc["kind"],
                diagnostics=[Diagnostic.from_dict(d) for d in doc.get("diagnostics", [])],
            )
        except (KeyError, TypeError) as err:
            raise ParseError(f"bad target report document: {err}") from err


@dataclass
class AnalysisReport:
    """The ``repro-analysis/1`` document: one run of ``repro analyze``."""

    targets: List[TargetReport] = field(default_factory=list)

    def totals(self) -> Dict[str, Any]:
        counts = {severity: 0 for severity in SEVERITIES}
        for target in self.targets:
            for severity, n in target.counts().items():
                counts[severity] += n
        return {"targets": len(self.targets), "ok": counts["error"] == 0, **counts}

    def exit_code(self) -> int:
        """Map error-level findings onto the :mod:`repro.errors` taxonomy.

        Statically-proven infeasibility wins (``EXIT_INFEASIBLE``), then
        parse-family errors (``EXIT_PARSE_ERROR``), then anything else
        error-level (``EXIT_FAILURE``); a clean or warn-only run exits 0.
        """
        families = {d.family for t in self.targets for d in t.errors}
        if "infeasible" in families:
            return EXIT_INFEASIBLE
        if "parse" in families:
            return EXIT_PARSE_ERROR
        if families:
            return EXIT_FAILURE
        return EXIT_OK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ANALYSIS_SCHEMA,
            "targets": [t.to_dict() for t in self.targets],
            "totals": self.totals(),
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "AnalysisReport":
        if doc.get("schema") != ANALYSIS_SCHEMA:
            raise ParseError(
                f"unsupported analysis schema {doc.get('schema')!r} (expected {ANALYSIS_SCHEMA!r})"
            )
        return AnalysisReport(
            targets=[TargetReport.from_dict(t) for t in doc.get("targets", [])]
        )
