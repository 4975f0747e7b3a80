"""NetPlumber-style checker backend: header-space flows + probe policies.

Paper mapping: the §6 / Figure 7(d-f) NetPlumber comparison backend.

This adapter exposes :class:`repro.hsa.plumber.PlumbingGraph` through the
:class:`~repro.mc.interface.ModelChecker` protocol so the synthesis search
can use it as a drop-in backend (the paper's Figure 7(d-f) comparison).

NetPlumber's policy language is less expressive than LTL, so this backend
*recognizes* the specification shapes produced by :mod:`repro.ltl.specs`
(reachability, waypointing, service chaining, isolation, drop-freedom, and
conjunctions thereof) and rejects anything else with
:class:`~repro.errors.ModelCheckError` — mirroring the real tool's
restriction.  It also reports no counterexamples, as noted in §6.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import ModelCheckError
from repro.hsa.plumber import (
    CoveragePolicy,
    DropFreedomPolicy,
    IsolationPolicy,
    PlumbingGraph,
    Policy,
    ServiceChainPolicy,
    WaypointPolicy,
)
from repro.kripke.structure import KState, KripkeStructure
from repro.ltl.atoms import At, Dropped, FieldIs
from repro.ltl.syntax import (
    And,
    Ff,
    Formula,
    NotProp,
    Or,
    Prop,
    Release,
    Tt,
    Until,
)
from repro.mc.interface import CheckResult
from repro.net.fields import TrafficClass


def _conjuncts(formula: Formula) -> List[Formula]:
    if isinstance(formula, And):
        return _conjuncts(formula.left) + _conjuncts(formula.right)
    return [formula]


def _disjuncts(formula: Formula) -> List[Formula]:
    if isinstance(formula, Or):
        return _disjuncts(formula.left) + _disjuncts(formula.right)
    return [formula]


def _guard_fields(parts: Sequence[Formula]) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Negated-guard disjuncts ``!f=v`` -> the guarded class's field tuple."""
    fields = []
    for part in parts:
        if isinstance(part, NotProp) and isinstance(part.atom, FieldIs):
            fields.append((part.atom.field, part.atom.value))
        else:
            return None
    return tuple(sorted(fields))


def _match_eventually(body: Formula) -> Optional[str]:
    """``true U at(d)`` -> ``d``."""
    if (
        isinstance(body, Until)
        and isinstance(body.left, Tt)
        and isinstance(body.right, Prop)
        and isinstance(body.right.atom, At)
    ):
        return body.right.atom.node
    return None


def _match_chain(body: Formula) -> Optional[Tuple[Tuple[str, ...], str]]:
    """The ``way(W, d)`` recursion -> (waypoints, d).

    Handles both the single-waypoint form
    ``!at(d) U (at(w) & F at(d))`` and longer chains.
    """
    waypoints: List[str] = []
    current = body
    while True:
        dst = _match_eventually(current)
        if dst is not None:
            return (tuple(waypoints), dst) if waypoints else None
        if not isinstance(current, Until):
            return None
        # left side must be a conjunction of !at(...) avoid-atoms (or one atom)
        for part in _conjuncts(current.left):
            if not (isinstance(part, NotProp) and isinstance(part.atom, At)):
                return None
        right = current.right
        if not isinstance(right, And):
            return None
        head = right.left
        if not (isinstance(head, Prop) and isinstance(head.atom, At)):
            return None
        waypoints.append(head.atom.node)
        current = right.right


def _match_globally_not(body: Formula) -> Optional[Formula]:
    """``false R psi`` (i.e. ``G psi``) -> ``psi``."""
    if isinstance(body, Release) and isinstance(body.left, Ff):
        return body.right
    return None


class NetPlumberChecker:
    """Header-space backend implementing the ModelChecker protocol."""

    name = "netplumber"

    def __init__(self, structure: KripkeStructure, formula: Formula):
        self.structure = structure
        self.formula = formula
        self.graph = PlumbingGraph(structure.topology)
        self._ingress_of = {}
        for tc, hosts in self._class_ingresses().items():
            for host in hosts:
                self.graph.add_source(f"{tc.name}@{host}", tc, host)
        self.policies: List[Policy] = self._translate(formula)
        for switch in structure.topology.switches:
            self.graph.set_table(switch, structure.table(switch))
        self.check_count = 0

    def _class_ingresses(self):
        ingresses = {}
        for state in self.structure.initial_states:
            tc = state.tc
            # recover the host attached to the initial (switch, port)
            peer = self.structure.topology.peer(state.node, state.port)
            if peer is None:
                continue
            host = peer[0]
            ingresses.setdefault(tc, set()).add(host)
        return ingresses

    # ------------------------------------------------------------------
    def _class_by_fields(self, fields: Tuple[Tuple[str, str], ...]) -> TrafficClass:
        for tc in self.structure.traffic_classes:
            if tuple(sorted(tc.fields)) == fields:
                return tc
        raise ModelCheckError(
            f"specification guards unknown traffic class {dict(fields)!r}"
        )

    def _translate(self, formula: Formula) -> List[Policy]:
        if isinstance(formula, Tt):
            return []
        policies: List[Policy] = []
        for conjunct in _conjuncts(formula):
            policies.append(self._translate_one(conjunct))
        return policies

    def _translate_one(self, conjunct: Formula) -> Policy:
        parts = _disjuncts(conjunct)
        guard = _guard_fields(parts[:-1]) if len(parts) >= 2 else None
        body = parts[-1]
        if guard is None:
            raise ModelCheckError(
                "NetPlumber backend supports only class-guarded properties "
                f"(got {conjunct})"
            )
        tc = self._class_by_fields(guard)
        dst = _match_eventually(body)
        if dst is not None:
            return CoveragePolicy(tc, dst)
        chain = _match_chain(body)
        if chain is not None:
            waypoints, chain_dst = chain
            if len(waypoints) == 1:
                return WaypointPolicy(tc, waypoints[0], chain_dst)
            return ServiceChainPolicy(tc, waypoints, chain_dst)
        body_of_g = _match_globally_not(body)
        if body_of_g is not None:
            if isinstance(body_of_g, NotProp) and isinstance(body_of_g.atom, At):
                return IsolationPolicy(tc, body_of_g.atom.node)
            if isinstance(body_of_g, NotProp) and isinstance(body_of_g.atom, Dropped):
                return DropFreedomPolicy(tc)
        raise ModelCheckError(
            f"NetPlumber backend cannot express property {body}"
        )

    # ------------------------------------------------------------------
    def full_check(self) -> CheckResult:
        for switch in self.structure.topology.switches:
            self.graph.set_table(switch, self.structure.table(switch))
        return self._verdict()

    def apply_update(self, dirty: Sequence[KState]) -> CheckResult:
        switches: Set[str] = {s.node for s in dirty if s.kind == "loc"}
        for switch in switches:
            self.graph.set_table(switch, self.structure.table(switch))
        return self._verdict()

    def _verdict(self) -> CheckResult:
        self.check_count += 1
        for result in self.graph.check(self.policies):
            if not result.ok:
                # NetPlumber reports no counterexample traces (§6)
                return CheckResult(False, None)
        return CheckResult(True, None)
