"""Static network configurations (the data plane).

A :class:`Configuration` assigns a forwarding :class:`~repro.net.rules.Table`
to every switch of a topology.  It is the object the synthesis algorithm
searches over: intermediate configurations mix tables from the initial and
final configurations switch by switch.

:func:`path_rules` builds the per-switch rules that forward one traffic class
along a host-to-host path, which is how all the paper's experiment workloads
(diamonds) are constructed.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.fields import Packet, TrafficClass, packet_for_class
from repro.net.rules import EMPTY_TABLE, Forward, Pattern, Rule, Table
from repro.net.topology import NodeId, Port, Topology


class Configuration:
    """An immutable mapping from switch to forwarding table.

    Switches absent from the mapping have the empty table (drop everything).
    """

    __slots__ = ("_tables", "_hash")

    def __init__(self, tables: Mapping[NodeId, Table] = ()):
        cleaned = {sw: tbl for sw, tbl in dict(tables).items() if len(tbl) > 0}
        self._tables: Dict[NodeId, Table] = cleaned
        self._hash: Optional[int] = None

    def table(self, switch: NodeId) -> Table:
        return self._tables.get(switch, EMPTY_TABLE)

    def tables(self) -> Mapping[NodeId, Table]:
        """A read-only view of the non-empty tables, by switch."""
        return MappingProxyType(self._tables)

    def switches(self) -> FrozenSet[NodeId]:
        """Switches with a non-empty table."""
        return frozenset(self._tables)

    def with_table(self, switch: NodeId, table: Table) -> "Configuration":
        updated = dict(self._tables)
        if len(table) == 0:
            updated.pop(switch, None)
        else:
            updated[switch] = table
        # ``updated`` is already free of empty tables: skip __init__'s filter
        clone = Configuration.__new__(Configuration)
        clone._tables = updated
        clone._hash = None
        return clone

    def process(self, switch: NodeId, packet: Packet, port: Port) -> List[Tuple[Packet, Port]]:
        """Apply ``switch``'s table to ``(packet, port)``."""
        return self.table(switch).process(packet, port)

    def rule_count(self, switch: NodeId) -> int:
        return len(self.table(switch))

    def total_rules(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def diff_switches(self, other: "Configuration") -> FrozenSet[NodeId]:
        """Switches whose tables differ between ``self`` and ``other``."""
        touched = set(self._tables) | set(other._tables)
        return frozenset(sw for sw in touched if self.table(sw) != other.table(sw))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._tables == other._tables

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._tables.items()))
        return self._hash

    def __str__(self) -> str:
        return f"Configuration({len(self._tables)} switches, {self.total_rules()} rules)"

    def __repr__(self) -> str:
        return str(self)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "Configuration":
        return Configuration({})

    @staticmethod
    def from_paths(
        topology: Topology,
        paths: Mapping[TrafficClass, Sequence[NodeId]],
        priority: int = 100,
    ) -> "Configuration":
        """A configuration forwarding each traffic class along its path.

        Each path must start and end at hosts and traverse only switches in
        between.  Rules for different classes on the same switch are merged.
        """
        tables: Dict[NodeId, List[Rule]] = {}
        for tc, path in paths.items():
            for switch, rule in path_rules(topology, tc, path, priority):
                tables.setdefault(switch, []).append(rule)
        return Configuration({sw: Table(rules) for sw, rules in tables.items()})


def path_rules(
    topology: Topology,
    tc: TrafficClass,
    path: Sequence[NodeId],
    priority: int = 100,
) -> List[Tuple[NodeId, Rule]]:
    """Per-switch rules forwarding traffic class ``tc`` along ``path``.

    ``path`` is a node sequence ``[host, sw_1, ..., sw_k, host']``.  Each
    switch gets one rule matching the class's header fields (no in-port
    constraint, as in destination-based forwarding) that forwards toward the
    next node on the path.
    """
    if len(path) < 3:
        raise ConfigurationError(f"path too short: {list(path)}")
    if not topology.is_host(path[0]) or not topology.is_host(path[-1]):
        raise ConfigurationError("path must start and end at hosts")
    out: List[Tuple[NodeId, Rule]] = []
    for here, nxt in zip(path[1:-1], path[2:]):
        if not topology.is_switch(here):
            raise ConfigurationError(f"interior path node {here!r} is not a switch")
        if not topology.are_adjacent(here, nxt):
            raise ConfigurationError(f"path hop {here!r} -> {nxt!r} is not a link")
        pattern = Pattern(None, tc.fields)
        rule = Rule(priority, pattern, (Forward(topology.port_to(here, nxt)),))
        out.append((here, rule))
    return out


def next_hops(
    topology: Topology,
    config: Configuration,
    switch: NodeId,
    tc: TrafficClass,
    in_port: Port,
) -> List[Tuple[NodeId, Port, TrafficClass]]:
    """Where packets of class ``tc`` entering ``switch`` at ``in_port`` go.

    Returns ``(next_node, arrival_port, tc')`` triples; ``next_node`` may be a
    host (delivery).  Unwired output ports are dropped silently, matching
    hardware behaviour.  Packet rewrites produce a class with the same name
    (the Kripke builder currently rejects rewrites; see builder docs).
    """
    return table_hops(topology, config.table(switch), switch, tc, in_port)


def table_hops(
    topology: Topology,
    table: Table,
    switch: NodeId,
    tc: TrafficClass,
    in_port: Port,
) -> List[Tuple[NodeId, Port, TrafficClass]]:
    """:func:`next_hops` with ``table`` as ``switch``'s table."""
    results: List[Tuple[NodeId, Port, TrafficClass]] = []
    packet = packet_for_class(tc)
    for out_packet, out_port in table.process(packet, in_port):
        peer = topology.peer(switch, out_port)
        if peer is None:
            continue
        peer_node, peer_port = peer
        out_tc = TrafficClass(tc.name, out_packet.fields)
        results.append((peer_node, peer_port, out_tc))
    return results
