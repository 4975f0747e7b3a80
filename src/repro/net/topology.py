"""Network topologies: switches, hosts, ports, and links.

A topology is the static wiring of the network: which switch ports connect to
which.  The paper identifies switches, ports, and hosts by natural numbers;
we allow arbitrary string identifiers (e.g. ``"A1"``, ``"H3"``) for
readability and assign integer port numbers per node.

Links are undirected (full-duplex); the operational machine materializes one
packet queue per direction.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.errors import TopologyError

NodeId = str
Port = int
Location = Tuple[NodeId, Port]

#: compact, key-sorted JSON, as for tables (:mod:`repro.net.rules`)
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_new_tuple = tuple.__new__


class Link(NamedTuple):
    """An undirected link between ``(node_a, port_a)`` and ``(node_b, port_b)``.

    A named tuple, because one is built per link of every request and a
    tuple is the cheapest immutable record to build.  It compares and
    hashes as the plain tuple of its four fields.
    """

    node_a: NodeId
    port_a: Port
    node_b: NodeId
    port_b: Port

    def endpoints(self) -> Tuple[Location, Location]:
        return (self.node_a, self.port_a), (self.node_b, self.port_b)

    def other(self, node: NodeId) -> Location:
        """The endpoint opposite to ``node``."""
        if node == self.node_a:
            return (self.node_b, self.port_b)
        if node == self.node_b:
            return (self.node_a, self.port_a)
        raise TopologyError(f"node {node!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.node_a}:{self.port_a}<->{self.node_b}:{self.port_b}"


class Topology:
    """The static network graph.

    Use :meth:`add_switch`, :meth:`add_host`, and :meth:`add_link` to build a
    topology; port numbers are assigned automatically (monotonically per
    node) unless given explicitly.  All query methods are O(1) dictionary
    lookups, which matters because the Kripke builder and the wait-removal
    heuristic call them in tight loops.
    """

    def __init__(self) -> None:
        self._switches: Set[NodeId] = set()
        self._hosts: Set[NodeId] = set()
        self._links: List[Link] = []
        self._next_port: Dict[NodeId, Port] = {}
        # (node, port) -> (peer node, peer port)
        self._peer: Dict[Location, Location] = {}
        # node -> sorted list of occupied ports
        self._ports: Dict[NodeId, List[Port]] = {}
        # (node_a, node_b) -> port on node_a facing node_b
        self._port_to: Dict[Tuple[NodeId, NodeId], Port] = {}
        # canonical_json(), until the next edit
        self._json: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_switch(self, node: NodeId) -> NodeId:
        if node in self._hosts:
            raise TopologyError(f"{node!r} already registered as a host")
        self._json = None
        self._switches.add(node)
        self._next_port.setdefault(node, 1)
        self._ports.setdefault(node, [])
        return node

    def add_host(self, node: NodeId) -> NodeId:
        if node in self._switches:
            raise TopologyError(f"{node!r} already registered as a switch")
        self._json = None
        self._hosts.add(node)
        self._next_port.setdefault(node, 1)
        self._ports.setdefault(node, [])
        return node

    def add_switches(self, nodes: Iterable[NodeId]) -> None:
        for node in nodes:
            self.add_switch(node)

    def add_hosts(self, nodes: Iterable[NodeId]) -> None:
        for node in nodes:
            self.add_host(node)

    def _claim_port(self, node: NodeId, port: Optional[Port]) -> Port:
        if node not in self._next_port:
            raise TopologyError(f"unknown node {node!r}")
        if port is None:
            port = self._next_port[node]
        if (node, port) in self._peer:
            raise TopologyError(f"port {port} on {node!r} already wired")
        self._next_port[node] = max(self._next_port[node], port + 1)
        self._ports[node].append(port)
        self._ports[node].sort()
        return port

    def add_link(
        self,
        node_a: NodeId,
        node_b: NodeId,
        port_a: Optional[Port] = None,
        port_b: Optional[Port] = None,
    ) -> Link:
        """Wire ``node_a`` to ``node_b``, assigning ports if not given."""
        if node_a == node_b:
            raise TopologyError(f"self-link on {node_a!r}")
        if (node_a, node_b) in self._port_to:
            raise TopologyError(f"duplicate link {node_a!r} <-> {node_b!r}")
        self._json = None
        port_a = self._claim_port(node_a, port_a)
        port_b = self._claim_port(node_b, port_b)
        link = Link(node_a, port_a, node_b, port_b)
        self._links.append(link)
        self._peer[(node_a, port_a)] = (node_b, port_b)
        self._peer[(node_b, port_b)] = (node_a, port_a)
        self._port_to[(node_a, node_b)] = port_a
        self._port_to[(node_b, node_a)] = port_b
        return link

    def add_links(
        self,
        links: Iterable[Tuple[NodeId, NodeId, Optional[Port], Optional[Port]]],
    ) -> None:
        """Wire every ``(node_a, node_b, port_a, port_b)`` link in one pass.

        Same checks, errors and resulting indexes (port order, next free
        ports, link order) as one :meth:`add_link` per link, but each
        node's port list is sorted once, after the last link, instead of
        once per link.  The wire decoder builds request topologies this way.
        """
        self._json = None
        peer, port_to, ports, next_port = self._peer, self._port_to, self._ports, self._next_port
        wired = self._links
        try:
            for node_a, node_b, port_a, port_b in links:
                if node_a == node_b:
                    raise TopologyError(f"self-link on {node_a!r}")
                pair = (node_a, node_b)
                if pair in port_to:
                    raise TopologyError(f"duplicate link {node_a!r} <-> {node_b!r}")
                # _claim_port for each end, minus the sort
                free = next_port.get(node_a)
                if free is None:
                    raise TopologyError(f"unknown node {node_a!r}")
                if port_a is None:
                    port_a = free
                end_a = (node_a, port_a)
                if end_a in peer:
                    raise TopologyError(f"port {port_a} on {node_a!r} already wired")
                if port_a >= free:
                    next_port[node_a] = port_a + 1
                ports[node_a].append(port_a)
                free = next_port.get(node_b)
                if free is None:
                    raise TopologyError(f"unknown node {node_b!r}")
                if port_b is None:
                    port_b = free
                end_b = (node_b, port_b)
                if end_b in peer:
                    raise TopologyError(f"port {port_b} on {node_b!r} already wired")
                if port_b >= free:
                    next_port[node_b] = port_b + 1
                ports[node_b].append(port_b)
                # Link(...) without the Python-level __new__ frame
                wired.append(_new_tuple(Link, (node_a, port_a, node_b, port_b)))
                peer[end_a] = end_b
                peer[end_b] = end_a
                port_to[pair] = port_a
                port_to[(node_b, node_a)] = port_b
        finally:
            # sorting an already sorted list is one linear scan
            for node_ports in ports.values():
                node_ports.sort()

    def remove_link(self, node_a: NodeId, node_b: NodeId) -> Link:
        """Unwire the link between ``node_a`` and ``node_b``.

        The edge update behind delta requests (:mod:`repro.net.delta`):
        every index touched by :meth:`add_link` is reverted in place — the
        freed ports may be re-used by a later :meth:`add_link` with explicit
        port numbers, and no other adjacency is recomputed.
        """
        if (node_a, node_b) not in self._port_to:
            raise TopologyError(f"no link {node_a!r} <-> {node_b!r} to remove")
        self._json = None
        port_a = self._port_to.pop((node_a, node_b))
        port_b = self._port_to.pop((node_b, node_a))
        link = Link(node_a, port_a, node_b, port_b)
        try:
            self._links.remove(link)
        except ValueError:
            self._links.remove(Link(node_b, port_b, node_a, port_a))
        del self._peer[(node_a, port_a)]
        del self._peer[(node_b, port_b)]
        self._ports[node_a].remove(port_a)
        self._ports[node_b].remove(port_b)
        return link

    def copy(self) -> "Topology":
        """An independent structural copy (index dicts duplicated, nothing
        re-derived) — the cheap base for applying a delta patch."""
        clone = Topology()
        clone._switches = set(self._switches)
        clone._hosts = set(self._hosts)
        clone._links = list(self._links)
        clone._next_port = dict(self._next_port)
        clone._peer = dict(self._peer)
        clone._ports = {node: list(ports) for node, ports in self._ports.items()}
        clone._port_to = dict(self._port_to)
        clone._json = self._json
        return clone

    def canonical_json(self) -> str:
        """The topology as compact, key-sorted JSON, order-insensitive:
        switches and hosts sorted, each link oriented so its smaller
        ``(node, port)`` endpoint comes first, and the links sorted.

        This is the topology's share of a problem fingerprint
        (:mod:`repro.service.fingerprint`).  It is computed once per
        topology and kept until the next edit, so resubmitting a problem,
        or a delta that moves no link, does not re-sort the links.
        """
        if self._json is None:
            # a link's two nodes differ, so its smaller endpoint is the one
            # with the smaller node id; JSON writes each tuple as a list
            links = sorted(
                link if link[0] < link[2] else (link[2], link[3], link[0], link[1])
                for link in self._links
            )
            self._json = _CANONICAL.encode(
                {
                    "switches": sorted(self._switches),
                    "hosts": sorted(self._hosts),
                    "links": links,
                }
            )
        return self._json

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def switches(self) -> FrozenSet[NodeId]:
        return frozenset(self._switches)

    @property
    def hosts(self) -> FrozenSet[NodeId]:
        return frozenset(self._hosts)

    @property
    def links(self) -> Tuple[Link, ...]:
        return tuple(self._links)

    def is_switch(self, node: NodeId) -> bool:
        return node in self._switches

    def is_host(self, node: NodeId) -> bool:
        return node in self._hosts

    def has_node(self, node: NodeId) -> bool:
        return node in self._switches or node in self._hosts

    def ports(self, node: NodeId) -> Tuple[Port, ...]:
        """The occupied (wired) ports of ``node``."""
        return tuple(self._ports.get(node, ()))

    def peer(self, node: NodeId, port: Port) -> Optional[Location]:
        """The ``(node, port)`` at the far end of the link, if wired."""
        return self._peer.get((node, port))

    def port_to(self, node_a: NodeId, node_b: NodeId) -> Port:
        """The port on ``node_a`` whose link leads to ``node_b``."""
        try:
            return self._port_to[(node_a, node_b)]
        except KeyError:
            raise TopologyError(f"no link {node_a!r} -> {node_b!r}") from None

    def are_adjacent(self, node_a: NodeId, node_b: NodeId) -> bool:
        return (node_a, node_b) in self._port_to

    def neighbors(self, node: NodeId) -> List[NodeId]:
        return [self._peer[(node, p)][0] for p in self._ports.get(node, ())]

    def host_ports(self, switch: NodeId) -> List[Tuple[Port, NodeId]]:
        """Ports of ``switch`` that face hosts, with the host behind each."""
        out = []
        for port in self._ports.get(switch, ()):
            peer_node, _ = self._peer[(switch, port)]
            if self.is_host(peer_node):
                out.append((port, peer_node))
        return out

    def attachment(self, host: NodeId) -> Location:
        """The switch-side ``(switch, port)`` the host is attached to."""
        ports = self._ports.get(host)
        if not ports:
            raise TopologyError(f"host {host!r} is not attached")
        return self._peer[(host, ports[0])]

    def __contains__(self, node: NodeId) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(sorted(self._switches) + sorted(self._hosts))

    def shortest_path(self, src: NodeId, dst: NodeId) -> Optional[List[NodeId]]:
        """BFS shortest node path from ``src`` to ``dst`` (inclusive)."""
        if src == dst:
            return [src]
        from collections import deque

        prev: Dict[NodeId, NodeId] = {src: src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in self.neighbors(node):
                if nxt in prev:
                    continue
                prev[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                # do not route *through* hosts
                if not self.is_host(nxt):
                    queue.append(nxt)
        return None

    def disjoint_paths(self, src: NodeId, dst: NodeId) -> List[List[NodeId]]:
        """Up to two switch-disjoint paths from ``src`` to ``dst``.

        Used by the diamond-scenario generator.  The second path avoids the
        interior switches of the first; returns one path if no disjoint
        alternative exists.
        """
        first = self.shortest_path(src, dst)
        if first is None:
            return []
        # when the endpoints are hosts, their access switches are shared by
        # both paths; only the strict interior must be disjoint
        lo = 2 if self.is_host(src) and len(first) > 2 else 1
        hi = -2 if self.is_host(dst) and len(first) > 2 else -1
        interior = set(first[lo:hi])
        # BFS avoiding the first path's interior
        from collections import deque

        prev: Dict[NodeId, NodeId] = {src: src}
        queue = deque([src])
        second: Optional[List[NodeId]] = None
        while queue and second is None:
            node = queue.popleft()
            for nxt in self.neighbors(node):
                if nxt in prev or nxt in interior:
                    continue
                prev[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    path.reverse()
                    second = path
                    break
                if not self.is_host(nxt):
                    queue.append(nxt)
        return [first] if second is None else [first, second]

    def __str__(self) -> str:
        return (
            f"Topology(switches={len(self._switches)}, hosts={len(self._hosts)}, "
            f"links={len(self._links)})"
        )
