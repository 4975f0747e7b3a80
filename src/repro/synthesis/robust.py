"""Failure robustness analysis of update plans (future-work extension, §8).

A synthesized plan guarantees the specification in the *failure-free* model
(§3 assumes failure-freedom).  This module reports what a single link
failure would do at each stage of the update: for every intermediate
configuration the plan steps through and every candidate link, does the
specification still hold on the degraded network?

This does not change the synthesis guarantee — it quantifies the blast
radius an operator accepts when executing the plan, and identifies the
stages where a failure would be spec-violating (e.g. while traffic is on a
path with no installed alternative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.errors import ForwardingLoopError
from repro.kripke.structure import KripkeStructure
from repro.ltl.syntax import Formula
from repro.mc.interface import make_checker
from repro.net.commands import is_update
from repro.net.config import Configuration
from repro.net.failures import FailedLink, fail_link, links_used
from repro.net.fields import TrafficClass
from repro.net.topology import NodeId, Topology
from repro.synthesis.plan import UpdatePlan
from repro.synthesis.waits import apply_command


@dataclass
class FailureFinding:
    """One (stage, failed link) probe result."""

    stage: int  # configuration index: 0 = initial, i = after i-th update
    link: FailedLink
    ok: bool

    def __str__(self) -> str:
        verdict = "survives" if self.ok else "VIOLATES"
        return f"stage {self.stage}: fail {self.link[0]}-{self.link[1]} -> {verdict}"


@dataclass
class RobustnessReport:
    """All probe results for a plan, with summary accessors."""

    findings: List[FailureFinding] = field(default_factory=list)

    def fragile_stages(self) -> List[int]:
        """Stages where at least one single-link failure violates the spec."""
        return sorted({f.stage for f in self.findings if not f.ok})

    def fragile_links(self) -> List[FailedLink]:
        """Links whose failure violates the spec at some stage."""
        seen = []
        for finding in self.findings:
            if not finding.ok and finding.link not in seen:
                seen.append(finding.link)
        return seen

    def is_fully_robust(self) -> bool:
        return all(f.ok for f in self.findings)

    def survival_rate(self) -> float:
        if not self.findings:
            return 1.0
        return sum(1 for f in self.findings if f.ok) / len(self.findings)

    def worst_link(self) -> Optional[FailedLink]:
        """The link whose failure violates the spec at the most stages."""
        violations: dict = {}
        for finding in self.findings:
            if not finding.ok:
                violations[finding.link] = violations.get(finding.link, 0) + 1
        if not violations:
            return None
        return max(sorted(violations), key=lambda link: violations[link])

    def summary(self) -> dict:
        """A JSON-ready digest for batch rows and bench documents."""
        fragile = self.fragile_stages()
        worst = self.worst_link()
        return {
            "probes": len(self.findings),
            "survival_rate": round(self.survival_rate(), 4),
            "fully_robust": self.is_fully_robust(),
            "fragile_stages": fragile,
            "violating_stages": len(fragile),
            "fragile_links": len(self.fragile_links()),
            "worst_link": list(worst) if worst else None,
        }


def robustness_report(
    topology: Topology,
    init: Configuration,
    plan: UpdatePlan,
    ingresses: Mapping[TrafficClass, Sequence[NodeId]],
    spec: Formula,
    links: Optional[Sequence[FailedLink]] = None,
) -> RobustnessReport:
    """Probe every (intermediate configuration, single link failure) pair.

    ``links`` defaults to every link used by the initial or final
    configuration (failing an unused link cannot affect the spec).  Host
    access links are skipped: their failure disconnects the host outright
    and no update order could help.
    """
    configs: List[Configuration] = [init]
    for command in plan.commands:
        if is_update(command):
            configs.append(apply_command(configs[-1], command))

    if links is None:
        candidates: List[FailedLink] = []
        for config in (init, configs[-1]):
            for link in links_used(topology, config):
                if link not in candidates:
                    candidates.append(link)
    else:
        candidates = list(links)
    candidates = [
        link
        for link in candidates
        if not (topology.is_host(link[0]) or topology.is_host(link[1]))
    ]

    report = RobustnessReport()
    for link in candidates:
        degraded = fail_link(topology, link)
        for stage, config in enumerate(configs):
            ok = _config_ok(degraded, config, ingresses, spec)
            report.findings.append(FailureFinding(stage, link, ok))
    return report


def _config_ok(
    topology: Topology,
    config: Configuration,
    ingresses: Mapping[TrafficClass, Sequence[NodeId]],
    spec: Formula,
) -> bool:
    try:
        structure = KripkeStructure(topology, config, ingresses)
    except ForwardingLoopError:
        return False
    return bool(make_checker("incremental", structure, spec).full_check().ok)
