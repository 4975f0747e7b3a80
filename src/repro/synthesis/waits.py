"""Wait-removal heuristic (§4.2.C).

The synthesized sequences are *careful*: a ``wait`` between every pair of
updates.  Most waits are unnecessary — a wait before updating ``u`` is only
needed if a packet forwarded by some earlier-updated unit ``p`` *before*
``p``'s update could still be in flight and subsequently hit rules that
``u``'s update changes.

The analysis is per traffic class, because a packet of class ``c`` is
entirely oblivious to updates of other classes' rules (this is what makes
rule-granularity updates so much more parallel):

* for each class, maintain the union of that class's forwarding edges over
  every configuration since the last retained wait (a conservative
  over-approximation of where in-flight class-``c`` packets can be —
  a retained wait flushes everything, so window packets entered at a class
  ingress and traveled under window configurations);
* a wait is kept before updating ``u`` iff for some class ``c`` affected by
  ``u``, some window unit ``p`` also affecting ``c`` is reachable from
  ``c``'s ingress and can reach ``u``'s switch in that union graph.

Sound (never removes a needed wait under the model's assumptions) and in
practice removes the overwhelming majority of waits, matching the paper's
~99.9% removal with 2-4 waits kept.

Windows are monotone: inside one, the union graph only gains edges, so the
nodes reachable from a class ingress (*exposed*) and the nodes reachable in
>= 1 hop from an exposed window unit (*downstream*) only grow.  Each class
keeps both sets with the union's adjacency.  The whole-configuration edge
set is built once, when the class's window opens; after that every update
adds only its switch's new edges, and a wait is kept iff the updated switch
is downstream for an affected class.  A plan costs O(switches + edges) per
window rather than per update.

The walk keeps the plan's current configuration as one mutable table dict
and edits the updated switch's entry in place, so an update costs O(1) on
top of its switch's edges.  A retained wait snapshots the dict: the window
opening after it needs the tables the wait flushed under.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.kripke.structure import merge_class_rules, rule_covers_class
from repro.net.commands import Command, RuleGranUpdate, Wait, is_update
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import EMPTY_TABLE, Forward, Table
from repro.net.topology import NodeId, Topology
from repro.synthesis.plan import UpdatePlan


#: memo key for one switch's edge contribution: tables are immutable and
#: content-hashed, so consecutive plan configurations (which share all but
#: one table) hit the cache on every unchanged switch
_EdgeCacheKey = Tuple[NodeId, Table, Optional[str]]
_EdgeCache = Dict[_EdgeCacheKey, FrozenSet[Tuple[NodeId, NodeId]]]


def _switch_class_edges(
    topology: Topology,
    switch: NodeId,
    table: Table,
    tc: Optional[TrafficClass],
    cache: Optional[_EdgeCache] = None,
) -> FrozenSet[Tuple[NodeId, NodeId]]:
    """One switch's contribution to :func:`_class_edges`."""
    key = (switch, table, tc.name if tc is not None else None)
    if cache is not None and key in cache:
        return cache[key]
    edges: Set[Tuple[NodeId, NodeId]] = set()
    for rule in table:
        if tc is not None and not rule_covers_class(rule, tc):
            continue
        for action in rule.actions:
            if not isinstance(action, Forward):
                continue
            peer = topology.peer(switch, action.port)
            if peer is None:
                continue
            peer_node, _ = peer
            if topology.is_switch(peer_node):
                edges.add((switch, peer_node))
    frozen = frozenset(edges)
    if cache is not None:
        cache[key] = frozen
    return frozen


def _class_edges(
    topology: Topology,
    tables: Mapping[NodeId, Table],
    tc: Optional[TrafficClass],
    cache: Optional[_EdgeCache] = None,
) -> Set[Tuple[NodeId, NodeId]]:
    """Directed switch-to-switch edges class ``tc`` can be forwarded along
    under a configuration's ``tables``.

    ``tc=None`` means "any class" (the class-agnostic fallback).  Port- and
    in-port-agnostic, hence conservative.  ``cache`` memoizes per-switch
    contributions across the many near-identical configurations a plan
    steps through.
    """
    edges: Set[Tuple[NodeId, NodeId]] = set()
    for switch, table in tables.items():
        edges |= _switch_class_edges(topology, switch, table, tc, cache)
    return edges


def _command_table(table: Table, command: Command) -> Table:
    """The updated switch's table after ``command``, given its ``table``
    before."""
    if isinstance(command, RuleGranUpdate):
        return merge_class_rules(table, command.tc, command.table)
    return command.table


def apply_command(config: Configuration, command: Command) -> Configuration:
    """The configuration after ``command`` (unchanged by a wait)."""
    if not is_update(command):
        return config
    switch = command.switch
    return config.with_table(switch, _command_table(config.table(switch), command))


def _affected_classes(
    command: Command,
    before: Table,
    after: Table,
    classes: Sequence[Optional[TrafficClass]],
) -> List[Optional[TrafficClass]]:
    """The traffic classes whose forwarding this update can change, given
    the updated switch's tables ``before`` and ``after`` it."""
    if isinstance(command, RuleGranUpdate) and None not in classes:
        return [command.tc]
    affected: List[Optional[TrafficClass]] = []
    for tc in classes:
        if tc is None:
            if before != after:
                affected.append(None)
            continue
        old_rules = [r for r in before if rule_covers_class(r, tc)]
        new_rules = [r for r in after if rule_covers_class(r, tc)]
        if old_rules != new_rules:
            affected.append(tc)
    return affected


class _Window:
    """One class's open window: the union graph's adjacency, its window
    units, and the growing ``exposed`` and ``downstream`` node sets (see the
    module docstring).  Each edge and node enters them once."""

    __slots__ = ("adj", "exposed", "units", "downstream")

    def __init__(self, edges: Set[Tuple[NodeId, NodeId]], ingresses: Set[NodeId]):
        self.adj: Dict[NodeId, Set[NodeId]] = {}
        self.exposed: Set[NodeId] = set(ingresses)
        self.units: Set[NodeId] = set()
        self.downstream: Set[NodeId] = set()
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: NodeId, b: NodeId) -> None:
        succ = self.adj.setdefault(a, set())
        if b in succ:
            return
        succ.add(b)
        if a in self.exposed:
            self._expose(b)
        if a in self.downstream or (a in self.units and a in self.exposed):
            self._flood(b)

    def add_unit(self, node: NodeId) -> None:
        if node in self.units:
            return
        self.units.add(node)
        if node in self.exposed:
            for b in self.adj.get(node, ()):
                self._flood(b)

    def _expose(self, node: NodeId) -> None:
        if node in self.exposed:
            return
        self.exposed.add(node)
        queue = deque([node])
        while queue:
            here = queue.popleft()
            succ = self.adj.get(here, ())
            if here in self.units:
                for b in succ:
                    self._flood(b)
            for b in succ:
                if b not in self.exposed:
                    self.exposed.add(b)
                    queue.append(b)

    def _flood(self, node: NodeId) -> None:
        if node in self.downstream:
            return
        self.downstream.add(node)
        queue = deque([node])
        while queue:
            for b in self.adj.get(queue.popleft(), ()):
                if b not in self.downstream:
                    self.downstream.add(b)
                    queue.append(b)


def remove_waits(
    topology: Topology,
    init: Configuration,
    plan: UpdatePlan,
    ingresses: Optional[Mapping[TrafficClass, Sequence[NodeId]]] = None,
) -> UpdatePlan:
    """Return a plan equivalent to ``plan`` with unnecessary waits removed.

    ``ingresses`` enables the precise per-class analysis; without it the
    analysis falls back to a single class-agnostic graph with every
    host-facing switch treated as an ingress (strictly more conservative).
    """
    started = time.monotonic()
    updates = [c for c in plan.commands if is_update(c)]
    waits_before = plan.num_waits()

    if ingresses:
        classes: List[Optional[TrafficClass]] = list(ingresses)
        ingress_of: Dict[Optional[TrafficClass], Set[NodeId]] = {
            tc: {topology.attachment(h)[0] for h in hosts}
            for tc, hosts in ingresses.items()
        }
    else:
        classes = [None]
        ingress_of = {
            None: {topology.attachment(h)[0] for h in topology.hosts}
        }

    commands: List[Command] = []
    # the current configuration, edited in place
    tables: Dict[NodeId, Table] = dict(init.tables())
    edge_cache: _EdgeCache = {}
    # the open windows: a class's window opens at the first update changing
    # its rules and closes (for every class) at each retained wait
    windows: Dict[Optional[TrafficClass], _Window] = {}
    # a retained wait flushes the network under its configuration, so a
    # window opening later also covers the edges that configuration had on
    # the switches updated since
    wait_tables: Optional[Dict[NodeId, Table]] = None
    since_wait: Set[NodeId] = set()
    kept = 0
    for index, update in enumerate(updates):
        switch = update.switch
        before = tables.get(switch, EMPTY_TABLE)
        after = _command_table(before, update)
        affected = _affected_classes(update, before, after, classes)
        if index > 0 and any(
            tc in windows and switch in windows[tc].downstream for tc in affected
        ):
            commands.append(Wait())
            kept += 1
            windows = {}
            wait_tables = dict(tables)
            since_wait = set()
        for tc in affected:
            window = windows.get(tc)
            if window is None:
                edges = _class_edges(topology, tables, tc, edge_cache)
                if wait_tables is not None:
                    for moved in since_wait:
                        edges |= _switch_class_edges(
                            topology,
                            moved,
                            wait_tables.get(moved, EMPTY_TABLE),
                            tc,
                            edge_cache,
                        )
                window = windows[tc] = _Window(edges, ingress_of[tc])
            window.add_unit(switch)
        commands.append(update)
        since_wait.add(switch)
        tables[switch] = after
        # the union only grows: add the updated switch's new edges for every
        # open window (a rule-granularity update can change a wildcard rule
        # other classes share)
        for tc, window in windows.items():
            for a, b in _switch_class_edges(topology, switch, after, tc, edge_cache):
                window.add_edge(a, b)

    new_plan = UpdatePlan(commands, plan.granularity, plan.stats)
    new_plan.stats.waits_before_removal = waits_before
    new_plan.stats.waits_after_removal = kept
    new_plan.stats.wait_removal_seconds = time.monotonic() - started
    return new_plan
