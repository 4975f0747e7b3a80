"""The problem linter: static feasibility and hygiene diagnostics.

Runs per-class graph closure over the *initial* and *final* configurations
(:mod:`repro.analysis.reachability` — no model checking) and compares the
result against the spec's node obligations (:mod:`repro.analysis.spec`).

Soundness of the ``infeasible``-family diagnostics rests on one fact about
the solver (:func:`repro.synthesis.search.order_update`): before searching,
it model-checks the **final** and then the **initial** configuration against
the spec and raises :class:`~repro.errors.UpdateInfeasibleError` if either
violates it (or has a forwarding loop).  So any static proof that one
endpoint configuration violates the spec — a required node unreachable, a
forbidden node reachable, a drop under a no-blackhole invariant, a loop, or
a per-class-unsatisfiable spec — is a proof the solver would return
*infeasible*.  Nothing here reasons about intermediate (mixed)
configurations, which is exactly why the verdict is safe.  The differential
test in ``tests/test_analysis.py`` enforces this agreement on seeded
corpora.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.diagnostics import Diagnostic, TargetReport
from repro.analysis.reachability import ClassClosure, class_closure
from repro.analysis.spec import (
    atom_nodes,
    field_atoms,
    forbidden_nodes,
    required_nodes,
    specialize,
)
from repro.errors import TopologyError
from repro.kripke.structure import rule_covers_class
from repro.ltl.syntax import FALSE, Formula
from repro.net.fields import TrafficClass
from repro.net.serialize import Problem

_CONFIGS = ("initial", "final")


def analyze_problem(problem: Problem, target: str = "problem") -> TargetReport:
    """Lint ``problem``, returning a :class:`TargetReport` of diagnostics."""
    report = TargetReport(target=target, kind="problem")
    diags = report.diagnostics
    topology = problem.topology

    # ------------------------------------------------------------------
    # ingress / topology hygiene (RA001, RA005)
    # ------------------------------------------------------------------
    live_ingresses: Dict[TrafficClass, List[str]] = {}
    for tc, hosts in problem.ingresses.items():
        if not hosts:
            diags.append(
                Diagnostic(
                    "RA005",
                    "warn",
                    f"class {tc.name!r} has no ingress hosts; its spec holds vacuously",
                )
            )
            continue
        good: List[str] = []
        for host in hosts:
            if not topology.has_node(host):
                diags.append(
                    Diagnostic(
                        "RA001",
                        "error",
                        f"class {tc.name!r} ingress {host!r} is not a node of the topology",
                        family="parse",
                    )
                )
            elif not topology.is_host(host):
                diags.append(
                    Diagnostic(
                        "RA001",
                        "error",
                        f"class {tc.name!r} ingress {host!r} is a switch, not a host",
                        family="parse",
                    )
                )
            else:
                try:
                    topology.attachment(host)
                except TopologyError:
                    diags.append(
                        Diagnostic(
                            "RA001",
                            "error",
                            f"class {tc.name!r} ingress {host!r} is not attached to any switch",
                            family="parse",
                        )
                    )
                else:
                    good.append(host)
        if good:
            live_ingresses[tc] = good

    # ------------------------------------------------------------------
    # spec vacuity (RA002, RA003)
    # ------------------------------------------------------------------
    for node in sorted(atom_nodes(problem.spec), key=str):
        if not topology.has_node(node):
            diags.append(
                Diagnostic(
                    "RA002",
                    "warn",
                    f"spec atom at({node}) names a node absent from the topology",
                )
            )
    classes = list(problem.ingresses)
    for atom in sorted(field_atoms(problem.spec), key=str):
        if not any(tc.get(atom.field) == atom.value for tc in classes):
            diags.append(
                Diagnostic(
                    "RA003",
                    "warn",
                    f"spec guard {atom.field}={atom.value} matches no traffic class",
                )
            )

    # ------------------------------------------------------------------
    # per-class closures over both endpoint configurations
    # ------------------------------------------------------------------
    closures: Dict[str, Dict[TrafficClass, ClassClosure]] = {name: {} for name in _CONFIGS}
    for tc, hosts in live_ingresses.items():
        for name, config in zip(_CONFIGS, (problem.init, problem.final)):
            closures[name][tc] = class_closure(topology, config, tc, hosts)

    # ------------------------------------------------------------------
    # statically-proven infeasibility (RA010..RA014)
    # ------------------------------------------------------------------
    for tc in live_ingresses:
        diags.extend(_class_infeasibilities(problem, tc, closures))

    # ------------------------------------------------------------------
    # dead rules / unreachable switches / unknown config nodes (RA020..RA022)
    # ------------------------------------------------------------------
    for name, config in zip(_CONFIGS, (problem.init, problem.final)):
        reached = set()
        for closure in closures[name].values():
            reached |= closure.nodes
        for switch in sorted(config.switches(), key=str):
            if not topology.has_node(switch):
                diags.append(
                    Diagnostic(
                        "RA022",
                        "warn",
                        f"{name} configuration installs a table on {switch!r}, "
                        "which is not in the topology",
                    )
                )
                continue
            if live_ingresses and switch not in reached:
                diags.append(
                    Diagnostic(
                        "RA021",
                        "warn",
                        f"switch {switch!r} has {config.rule_count(switch)} rule(s) in the "
                        f"{name} configuration but no traffic class reaches it",
                    )
                )
            for rule in config.table(switch).rules:
                if classes and not any(rule_covers_class(rule, tc) for tc in classes):
                    diags.append(
                        Diagnostic(
                            "RA020",
                            "warn",
                            f"dead rule on {switch!r} in the {name} configuration: "
                            f"pattern {rule.pattern} matches no traffic class",
                        )
                    )

    return report


def _class_infeasibilities(
    problem: Problem,
    tc: TrafficClass,
    closures: Dict[str, Dict[TrafficClass, ClassClosure]],
) -> List[Diagnostic]:
    """Sound per-class infeasibility proofs over the endpoint closures."""
    diags: List[Diagnostic] = []
    spec_tc: Formula = specialize(problem.spec, tc)

    for name in _CONFIGS:
        closure = closures[name][tc]
        if closure.loop is not None:
            cycle = " -> ".join(str(node) for node in closure.loop)
            diags.append(
                Diagnostic(
                    "RA013",
                    "error",
                    f"the {name} configuration forwards class {tc.name!r} in a loop",
                    family="infeasible",
                    certificate=f"cycle {cycle} -> {closure.loop[0]}",
                )
            )
    if any(closures[name][tc].loop is not None for name in _CONFIGS):
        # reachability past a loop is ill-defined; the loop alone is the proof
        return diags

    if spec_tc == FALSE:
        diags.append(
            Diagnostic(
                "RA014",
                "error",
                f"the specification is unsatisfiable for class {tc.name!r}",
                family="infeasible",
                certificate=f"spec specializes to false for {tc}",
            )
        )
        return diags

    required = required_nodes(spec_tc)
    forbidden, forbid_drop = forbidden_nodes(spec_tc)

    for node in sorted(required, key=str):
        missing = [name for name in _CONFIGS if node not in closures[name][tc].nodes]
        if missing:
            where = "both configurations" if len(missing) == 2 else f"the {missing[0]} configuration"
            diags.append(
                Diagnostic(
                    "RA010",
                    "error",
                    f"required node {node!r} is unreachable for class {tc.name!r} in {where}",
                    family="infeasible",
                    certificate=(
                        f"every trace of {tc.name} must visit {node}, but no forwarding "
                        f"path from its ingress reaches it in {where}"
                    ),
                )
            )

    for node in sorted(forbidden, key=str):
        for name in _CONFIGS:
            closure = closures[name][tc]
            if node in closure.nodes:
                path = closure.path_to(node)
                witness = " -> ".join(str(n) for n in path) if path else str(node)
                diags.append(
                    Diagnostic(
                        "RA011",
                        "error",
                        f"forbidden node {node!r} is reachable for class {tc.name!r} "
                        f"in the {name} configuration",
                        family="infeasible",
                        certificate=f"witness path {witness}",
                    )
                )

    if forbid_drop:
        for name in _CONFIGS:
            closure = closures[name][tc]
            if closure.dropped:
                site = closure.drop_sites[0]
                path = closure.path_to(site[0])
                witness = " -> ".join(str(n) for n in path) if path else str(site[0])
                diags.append(
                    Diagnostic(
                        "RA012",
                        "error",
                        f"class {tc.name!r} is dropped at {site[0]!r}:{site[1]} in the "
                        f"{name} configuration under a no-blackhole spec",
                        family="infeasible",
                        certificate=f"drop after {witness}",
                    )
                )

    return diags

