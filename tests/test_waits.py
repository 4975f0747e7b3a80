"""Tests for the wait-removal heuristic (§4.2.C)."""

import random
from collections import deque

import pytest

from repro.ltl import specs
from repro.net.commands import RuleGranUpdate, SwitchUpdate, Wait, is_update
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, Table
from repro.synthesis import order_update, remove_waits, waits
from repro.synthesis.plan import UpdatePlan
from repro.synthesis.waits import _affected_classes, _class_edges, apply_command
from repro.topo import (
    chained_diamond,
    double_diamond,
    fan_diamond,
    mini_datacenter,
    ring_diamond,
)

TC = TrafficClass.make("f13", src="H1", dst="H3")
RED = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
GREEN = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
BLUE = ["H1", "T1", "A2", "C1", "A4", "T3", "H3"]


# ----------------------------------------------------------------------
# reference: the per-update BFS formulation of the window test


def _reaches(edges, src, dst):
    """Is ``dst`` reachable from ``src`` (in >= 1 hop) in the edge set?"""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    queue = deque(adjacency.get(src, ()))
    seen = set()
    while queue:
        node = queue.popleft()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        queue.extend(adjacency.get(node, ()))
    return False


def _reachable_from(edges, sources):
    """All nodes reachable from ``sources`` (inclusive) in the edge set."""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen = set(sources)
    queue = deque(sources)
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reference_remove_waits(topology, init, plan, ingresses=None):
    """Wait removal re-deriving each class's window from scratch per update."""
    updates = [c for c in plan.commands if is_update(c)]
    if ingresses:
        classes = list(ingresses)
        ingress_of = {
            tc: {topology.attachment(h)[0] for h in hosts}
            for tc, hosts in ingresses.items()
        }
    else:
        classes = [None]
        ingress_of = {None: {topology.attachment(h)[0] for h in topology.hosts}}

    def needs_wait(switch, affected):
        for tc in affected:
            edges = union[tc]
            exposed = _reachable_from(edges, ingress_of[tc])
            for p in window[tc]:
                if p in exposed and _reaches(edges, p, switch):
                    return True
        return False

    commands = []
    config = init
    window = {tc: [] for tc in classes}
    union = {tc: set() for tc in classes}
    for index, update in enumerate(updates):
        after = apply_command(config, update)
        affected = _affected_classes(
            update, config.table(update.switch), after.table(update.switch), classes
        )
        if index > 0 and needs_wait(update.switch, affected):
            commands.append(Wait())
            for tc in classes:
                window[tc] = []
                union[tc] = _class_edges(topology, config.tables(), tc)
        for tc in affected:
            if not window[tc]:
                union[tc] |= _class_edges(topology, config.tables(), tc)
            window[tc].append(update.switch)
        commands.append(update)
        config = after
        for tc in classes:
            if window[tc]:
                union[tc] |= _class_edges(topology, config.tables(), tc)
    return commands


class TestEdgesAndReachability:
    def test_forwarding_edges_follow_config(self):
        topo = mini_datacenter()
        config = Configuration.from_paths(topo, {TC: RED})
        edges = _class_edges(topo, config.tables(), None)
        assert ("T1", "A1") in edges
        assert ("A1", "C1") in edges
        assert ("T3", "A1") not in edges  # T3 forwards to H3 (a host)

    def test_reaches_transitive(self):
        edges = {("a", "b"), ("b", "c")}
        assert _reaches(edges, "a", "c")
        assert not _reaches(edges, "c", "a")

    def test_reaches_requires_a_hop(self):
        assert not _reaches(set(), "a", "a")


class TestRemoveWaits:
    def test_disjoint_updates_need_no_wait(self):
        """C2 is unreachable before A1 flips: the wait between them drops."""
        topo = mini_datacenter()
        init = Configuration.from_paths(topo, {TC: RED})
        final = Configuration.from_paths(topo, {TC: GREEN})
        plan = UpdatePlan(
            [
                SwitchUpdate("C2", final.table("C2")),
                Wait(),
                SwitchUpdate("A1", final.table("A1")),
            ]
        )
        slim = remove_waits(topo, init, plan)
        assert slim.num_waits() == 0
        assert slim.stats.waits_before_removal == 1
        assert slim.stats.waits_after_removal == 0

    def test_wait_kept_when_packets_could_chase_update(self):
        """T1 forwards into A2 before flipping; A2->C1 path reaches C1, so a
        wait must survive before C1's update (the paper's red->blue case)."""
        topo = mini_datacenter()
        init = Configuration.from_paths(topo, {TC: RED})
        final = Configuration.from_paths(topo, {TC: BLUE})
        plan = UpdatePlan(
            [
                SwitchUpdate("A2", final.table("A2")),
                Wait(),
                SwitchUpdate("A4", final.table("A4")),
                Wait(),
                SwitchUpdate("T1", final.table("T1")),
                Wait(),
                SwitchUpdate("C1", final.table("C1")),
            ]
        )
        slim = remove_waits(topo, init, plan)
        commands = list(slim.commands)
        # find what precedes C1's update
        c1_index = next(
            i for i, c in enumerate(commands)
            if isinstance(c, SwitchUpdate) and c.switch == "C1"
        )
        assert isinstance(commands[c1_index - 1], Wait)
        # but the A2 -> A4 wait is gone (both unreachable)
        a4_index = next(
            i for i, c in enumerate(commands)
            if isinstance(c, SwitchUpdate) and c.switch == "A4"
        )
        assert not isinstance(commands[a4_index - 1], Wait)

    def test_update_order_is_preserved(self):
        topo = mini_datacenter()
        init = Configuration.from_paths(topo, {TC: RED})
        final = Configuration.from_paths(topo, {TC: GREEN})
        plan = order_update(topo, init, final, {TC: ["H1"]}, specs.reachability(TC, "H3"))
        slim = remove_waits(topo, init, plan)
        assert [c.switch for c in slim.updates()] == [c.switch for c in plan.updates()]

    def test_ring_diamond_removes_most_waits(self):
        sc = ring_diamond(30, seed=4)
        plan = order_update(sc.topology, sc.init, sc.final, sc.ingresses, sc.spec)
        slim = remove_waits(sc.topology, sc.init, plan)
        removed = slim.stats.waits_before_removal - slim.stats.waits_after_removal
        assert slim.stats.waits_before_removal >= 25
        # the paper reports ~99.9% removal; we require the vast majority
        assert removed / max(1, slim.stats.waits_before_removal) > 0.85
        assert slim.stats.waits_after_removal <= 4

    def test_chained_diamond_waits(self):
        sc = chained_diamond(3, 3, prop="chain")
        plan = order_update(sc.topology, sc.init, sc.final, sc.ingresses, sc.spec)
        slim = remove_waits(sc.topology, sc.init, plan)
        assert slim.stats.waits_after_removal <= slim.stats.waits_before_removal

    def test_empty_plan(self):
        topo = mini_datacenter()
        init = Configuration.from_paths(topo, {TC: RED})
        slim = remove_waits(topo, init, UpdatePlan([]))
        assert slim.num_updates() == 0
        assert slim.num_waits() == 0


# ----------------------------------------------------------------------
# incremental windows against the reference


def careful(updates):
    commands = []
    for update in updates:
        if commands:
            commands.append(Wait())
        commands.append(update)
    return UpdatePlan(commands)


def shuffled(plan, seed):
    updates = [c for c in plan.commands if is_update(c)]
    random.Random(seed).shuffle(updates)
    return careful(updates)


def synthesized(sc, granularity="switch"):
    return order_update(
        sc.topology, sc.init, sc.final, sc.ingresses, sc.spec, granularity=granularity
    )


SCENARIOS = [
    ("ring16", lambda: ring_diamond(16, seed=1), "switch"),
    ("ring40", lambda: ring_diamond(40, seed=3), "switch"),
    ("chain3x3", lambda: chained_diamond(3, 3, prop="chain"), "switch"),
    ("waypoint2x4", lambda: chained_diamond(2, 4, prop="waypoint"), "switch"),
    ("fan6", lambda: fan_diamond(6), "switch"),
    ("fan5-rule", lambda: fan_diamond(5), "rule"),
    ("double8-rule", lambda: double_diamond(8), "rule"),
    ("double10-rule", lambda: double_diamond(10, seed=1), "rule"),
]


def random_rule_plan(seed):
    """Rule- and switch-granularity updates of random two-class tables,
    wildcard rules included (a class update then moves the other class's
    edges too)."""
    rng = random.Random(seed)
    sc = double_diamond(8, seed=seed % 2)
    topo = sc.topology
    classes = list(sc.ingresses)
    switches = sorted(topo.switches)

    def table(switch):
        rules = []
        for priority in range(rng.randint(0, 3)):
            owner = rng.choice(classes + [None])
            fields = owner.fields if owner is not None else ()
            peers = rng.sample(topo.neighbors(switch), rng.choice([1, 1, 2]))
            actions = tuple(Forward(topo.port_to(switch, p)) for p in peers)
            rules.append(Rule(priority, Pattern(None, fields), actions))
        return Table(rules)

    init = Configuration({switch: table(switch) for switch in switches})
    updates = []
    for _ in range(24):
        switch = rng.choice(switches)
        if rng.random() < 0.5:
            updates.append(SwitchUpdate(switch, table(switch)))
        else:
            updates.append(RuleGranUpdate(switch, rng.choice(classes), table(switch)))
    return sc, init, careful(updates)


class TestAgainstReference:
    @pytest.mark.parametrize("name,make,granularity", SCENARIOS)
    @pytest.mark.parametrize("with_ingresses", [True, False])
    def test_synthesized_and_shuffled_plans(self, name, make, granularity, with_ingresses):
        sc = make()
        ingresses = sc.ingresses if with_ingresses else None
        base = synthesized(sc, granularity)
        for seed, plan in [(None, base)] + [(s, shuffled(base, s)) for s in range(6)]:
            where = f"{name} seed={seed} ingresses={with_ingresses}"
            slim = remove_waits(sc.topology, sc.init, plan, ingresses)
            expected = reference_remove_waits(sc.topology, sc.init, plan, ingresses)
            assert list(slim.commands) == expected, where
            kept = sum(isinstance(c, Wait) for c in expected)
            assert slim.stats.waits_after_removal == kept, where

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tables_with_wildcards(self, seed):
        sc, init, plan = random_rule_plan(seed)
        for ingresses in (sc.ingresses, None):
            slim = remove_waits(sc.topology, init, plan, ingresses)
            expected = reference_remove_waits(sc.topology, init, plan, ingresses)
            assert list(slim.commands) == expected, f"seed={seed} ingresses={bool(ingresses)}"


class TestWindowCost:
    def test_ring640_builds_each_window_once(self, monkeypatch):
        """Edge sets are built from the whole configuration only when a
        class's window opens; every other update adds one switch's edges."""
        calls = []
        class_edges = waits._class_edges

        def counted(*args, **kwargs):
            calls.append(args[2])
            return class_edges(*args, **kwargs)

        sc = ring_diamond(640)
        plan = synthesized(sc)
        monkeypatch.setattr(waits, "_class_edges", counted)
        slim = remove_waits(sc.topology, sc.init, plan, sc.ingresses)
        kept = slim.stats.waits_after_removal
        assert len(calls) <= (kept + 1) * len(sc.ingresses)
