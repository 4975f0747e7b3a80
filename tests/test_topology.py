"""Tests for the topology graph."""

import pytest

from repro.errors import TopologyError
from repro.net.topology import Link, Topology
from repro.topo import mini_datacenter


def line_topology():
    """H1 - S1 - S2 - S3 - H2"""
    topo = Topology()
    topo.add_switches(["S1", "S2", "S3"])
    topo.add_hosts(["H1", "H2"])
    topo.add_link("H1", "S1")
    topo.add_link("S1", "S2")
    topo.add_link("S2", "S3")
    topo.add_link("S3", "H2")
    return topo


class TestConstruction:
    def test_node_kinds(self):
        topo = line_topology()
        assert topo.is_switch("S1")
        assert topo.is_host("H1")
        assert not topo.is_switch("H1")
        assert topo.has_node("S2")
        assert "S2" in topo
        assert "nope" not in topo

    def test_duplicate_kind_rejected(self):
        topo = Topology()
        topo.add_switch("X")
        with pytest.raises(TopologyError):
            topo.add_host("X")

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_switch("X")
        with pytest.raises(TopologyError):
            topo.add_link("X", "X")

    def test_duplicate_link_rejected(self):
        topo = line_topology()
        with pytest.raises(TopologyError):
            topo.add_link("S1", "S2")

    def test_unknown_node_rejected(self):
        topo = Topology()
        topo.add_switch("A")
        with pytest.raises(TopologyError):
            topo.add_link("A", "B")

    def test_explicit_ports(self):
        topo = Topology()
        topo.add_switches(["A", "B"])
        link = topo.add_link("A", "B", port_a=5, port_b=9)
        assert link.port_a == 5
        assert topo.peer("A", 5) == ("B", 9)

    def test_port_collision_rejected(self):
        topo = Topology()
        topo.add_switches(["A", "B", "C"])
        topo.add_link("A", "B", port_a=1)
        with pytest.raises(TopologyError):
            topo.add_link("A", "C", port_a=1)

    def test_canonical_json_follows_every_edit(self):
        from repro.net.serialize import topology_from_dict, topology_to_dict

        def fresh(topo):
            return topology_from_dict(topology_to_dict(topo)).canonical_json()

        topo = line_topology()
        edits = [
            lambda: topo.add_switch("S4"),
            lambda: topo.add_host("H3"),
            lambda: topo.add_link("S3", "S4"),
            lambda: topo.add_links([("S4", "H3", None, 7)]),
            lambda: topo.remove_link("S1", "S2"),
        ]
        for edit in edits:
            before = topo.canonical_json()
            edit()
            assert topo.canonical_json() != before
            assert topo.canonical_json() == fresh(topo)
        assert topo.copy().canonical_json() == topo.canonical_json()

    def test_link_is_a_named_tuple_of_its_fields(self):
        link = Link("A", 1, "B", 2)
        assert repr(link) == "Link(node_a='A', port_a=1, node_b='B', port_b=2)"
        assert str(link) == "A:1<->B:2"
        assert link.endpoints() == (("A", 1), ("B", 2))
        assert hash(link) == hash(("A", 1, "B", 2)) and link == Link("A", 1, "B", 2)
        with pytest.raises(AttributeError):
            link.port_a = 3


class TestQueries:
    def test_peer_and_port_to(self):
        topo = line_topology()
        port = topo.port_to("S1", "S2")
        assert topo.peer("S1", port) == ("S2", topo.port_to("S2", "S1"))
        with pytest.raises(TopologyError):
            topo.port_to("S1", "S3")

    def test_neighbors(self):
        topo = line_topology()
        assert set(topo.neighbors("S2")) == {"S1", "S3"}

    def test_host_ports_and_attachment(self):
        topo = line_topology()
        assert topo.attachment("H1")[0] == "S1"
        ports = topo.host_ports("S1")
        assert len(ports) == 1 and ports[0][1] == "H1"

    def test_unattached_host(self):
        topo = Topology()
        topo.add_host("H")
        with pytest.raises(TopologyError):
            topo.attachment("H")

    def test_link_other(self):
        link = Link("A", 1, "B", 2)
        assert link.other("A") == ("B", 2)
        assert link.other("B") == ("A", 1)
        with pytest.raises(TopologyError):
            link.other("C")


class TestPaths:
    def test_shortest_path_line(self):
        topo = line_topology()
        assert topo.shortest_path("H1", "H2") == ["H1", "S1", "S2", "S3", "H2"]

    def test_shortest_path_same_node(self):
        topo = line_topology()
        assert topo.shortest_path("S1", "S1") == ["S1"]

    def test_no_path(self):
        topo = Topology()
        topo.add_switches(["A", "B"])
        assert topo.shortest_path("A", "B") is None

    def test_path_does_not_route_through_hosts(self):
        # H in the middle should not be used as transit
        topo = Topology()
        topo.add_switches(["A", "B"])
        topo.add_host("H")
        topo.add_link("A", "H")
        topo.add_link("H", "B")
        assert topo.shortest_path("A", "B") is None

    def test_disjoint_paths_in_datacenter(self):
        topo = mini_datacenter()
        paths = topo.disjoint_paths("H1", "H3")
        assert len(paths) == 2
        interior0 = set(paths[0][2:-2])
        interior1 = set(paths[1][2:-2])
        assert not (interior0 & interior1)

    def test_disjoint_paths_on_line_gives_one(self):
        topo = line_topology()
        assert len(topo.disjoint_paths("H1", "H2")) == 1
