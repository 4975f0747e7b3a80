"""Tests for topology generators and diamond scenarios."""

import pytest

from repro.topo import (
    builtin_zoo,
    chained_diamond,
    diamond_on_topology,
    double_diamond,
    fan_diamond,
    fat_tree,
    mini_datacenter,
    ring_diamond,
    small_world,
    synthetic_zoo,
    zoo_topology,
)


def connected(topo):
    nodes = sorted(topo.switches)
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        for nxt in topo.neighbors(node):
            if topo.is_switch(nxt) and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == set(nodes)


class TestFatTree:
    def test_switch_count(self):
        # 5k^2/4 switches
        assert len(fat_tree(4).switches) == 20
        assert len(fat_tree(6).switches) == 45

    def test_hosts(self):
        topo = fat_tree(4, with_hosts=True)
        assert len(topo.hosts) == 16  # k^3/4

    def test_connected(self):
        assert connected(fat_tree(4))

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_mini_datacenter_shape(self):
        topo = mini_datacenter()
        assert len(topo.switches) == 10
        assert len(topo.hosts) == 4
        assert topo.are_adjacent("C1", "A1")


class TestSmallWorld:
    def test_size_and_connectivity(self):
        topo = small_world(40, seed=1)
        assert len(topo.switches) == 40
        assert connected(topo)

    def test_ring_backbone_kept(self):
        topo = small_world(20, rewire_probability=1.0, seed=2)
        for i in range(20):
            assert topo.are_adjacent(f"S{i}", f"S{(i + 1) % 20}")

    def test_deterministic(self):
        a = small_world(30, seed=5)
        b = small_world(30, seed=5)
        assert {(link.node_a, link.node_b) for link in a.links} == {
            (link.node_a, link.node_b) for link in b.links
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            small_world(2)
        with pytest.raises(ValueError):
            small_world(10, k=3)


class TestZoo:
    def test_builtin_topologies_connected(self):
        for name, topo in builtin_zoo():
            assert connected(topo), name
            assert len(topo.switches) >= 10

    def test_lookup_by_name(self):
        topo = zoo_topology("abilene")
        assert "SEA" in topo.switches

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            zoo_topology("nope")

    def test_synthetic_zoo_deterministic_and_connected(self):
        zoo_a = synthetic_zoo(6, seed=3)
        zoo_b = synthetic_zoo(6, seed=3)
        for (name_a, topo_a), (name_b, topo_b) in zip(zoo_a, zoo_b):
            assert name_a == name_b
            assert connected(topo_a)
            assert len(topo_a.links) == len(topo_b.links)


class TestDiamonds:
    def test_ring_diamond_scenario(self):
        sc = ring_diamond(20, seed=1)
        assert sc.units_updating() >= 18
        assert sc.init != sc.final
        assert len(sc.classes) == 1

    def test_diamond_on_topology(self):
        sc = diamond_on_topology(fat_tree(4), seed=1, name="ft")
        assert sc is not None
        assert sc.units_updating() >= 2

    def test_chained_diamond_props(self):
        for prop in ("reachability", "waypoint", "chain"):
            sc = chained_diamond(2, 2, prop=prop)
            assert sc.prop == prop
            # 2 segments x 2 chains x 2 switches + shared waypoint flips
            assert sc.units_updating() >= 8

    def test_chained_diamond_bad_args(self):
        with pytest.raises(ValueError):
            chained_diamond(0, 1)

    def test_double_diamond_two_classes(self):
        sc = double_diamond(12)
        assert len(sc.classes) == 2
        assert not sc.expected_feasible

    def test_fan_diamond_forces_the_enabler_first(self):
        from repro.errors import UpdateInfeasibleError
        from repro.synthesis import order_update

        sc = fan_diamond(4)
        assert len(sc.classes) == 4
        assert sc.units_updating() == 5  # 4 flips + the shared enabler
        # the shared enabler must be the first update in any plan
        plan = order_update(
            sc.topology, sc.init, sc.final, sc.ingresses, sc.spec,
            use_reachability_heuristic=False,
        )
        updates = [c.switch for c in plan.updates()]
        assert updates[0] == "Zall"
        # and the adversarial naming makes the heuristic-off search pay a
        # refuted check per flip before finding it
        assert plan.stats.counterexamples >= 3
        # sanity: no flip-first order exists
        final_flip_first = sc.init.with_table("A00", sc.final.table("A00"))
        with pytest.raises(UpdateInfeasibleError):
            order_update(
                sc.topology, final_flip_first, sc.init, sc.ingresses, sc.spec,
            )
