"""Tests for the Kripke structure builder and incremental updates."""

import copy
import gc
import pickle
import random
import sys
import threading
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from repro.errors import ForwardingLoopError
from repro.kripke import structure as structure_module
from repro.kripke.structure import (
    KState,
    KripkeStructure,
    merge_class_rules,
    rule_covers_class,
)
from repro.ltl import specs
from repro.mc.interface import make_checker
from repro.net.config import Configuration, next_hops
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, Table
from repro.net.topology import Topology
from repro.synthesis import order_update
from repro.topo import mini_datacenter, ring_diamond

TC = TrafficClass.make("f13", src="H1", dst="H3")
RED = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
GREEN = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]


@pytest.fixture
def topo():
    return mini_datacenter()


def build(topo, path):
    config = Configuration.from_paths(topo, {TC: path})
    return KripkeStructure(topo, config, {TC: ["H1"]})


class TestBuild:
    def test_states_along_path(self, topo):
        ks = build(topo, RED)
        locs = [s for s in ks.states() if s.kind == "loc"]
        assert {s.node for s in locs} == {"T1", "A1", "C1", "A3", "T3"}
        hosts = [s for s in ks.states() if s.kind == "host"]
        assert {s.node for s in hosts} == {"H3"}

    def test_initial_state_is_ingress(self, topo):
        ks = build(topo, RED)
        (init,) = ks.initial_states
        assert init.node == "T1"
        assert init.tc == TC

    def test_host_sink_self_loops(self, topo):
        ks = build(topo, RED)
        host = next(s for s in ks.states() if s.kind == "host")
        assert ks.is_sink(host)
        assert ks.succ(host) == (host,)
        assert ks.rank(host) == 0

    def test_ranks_decrease_along_path(self, topo):
        ks = build(topo, RED)
        (init,) = ks.initial_states
        # T1 -> A1 -> C1 -> A3 -> T3 -> H3 is five edges to the sink
        assert ks.rank(init) == 5

    def test_empty_config_drops_at_ingress(self, topo):
        ks = KripkeStructure(topo, Configuration.empty(), {TC: ["H1"]})
        (init,) = ks.initial_states
        (succ,) = ks.succ(init)
        assert succ.kind == "drop"
        assert succ.dropped

    def test_preds(self, topo):
        ks = build(topo, RED)
        (init,) = ks.initial_states
        (next_state,) = ks.succ(init)
        assert init in ks.preds(next_state)

    def test_loop_rejected_at_build(self):
        topo = Topology()
        topo.add_switches(["A", "B"])
        topo.add_host("H")
        topo.add_link("H", "A")
        topo.add_link("A", "B")
        rule_ab = Rule(10, Pattern(None, TC.fields), (Forward(topo.port_to("A", "B")),))
        rule_ba = Rule(10, Pattern(None, TC.fields), (Forward(topo.port_to("B", "A")),))
        config = Configuration({"A": Table([rule_ab]), "B": Table([rule_ba])})
        with pytest.raises(ForwardingLoopError) as err:
            KripkeStructure(topo, config, {TC: ["H"]})
        assert err.value.cycle


class TestUpdate:
    def test_update_switch_dirty_set(self, topo):
        ks = build(topo, RED)
        green = Configuration.from_paths(topo, {TC: GREEN})
        dirty = ks.update_switch("C2", green.table("C2"))
        # C2 is not reachable yet: no loc states of C2 exist, nothing dirty
        assert dirty == []
        dirty = ks.update_switch("A1", green.table("A1"))
        assert any(s.node == "A1" for s in dirty)
        # new states along the green path were created
        assert any(s.node == "C2" for s in dirty)

    def test_update_preserves_old_states(self, topo):
        ks = build(topo, RED)
        before = set(ks.states())
        green = Configuration.from_paths(topo, {TC: GREEN})
        ks.update_switch("A1", green.table("A1"))
        # Q only grows (states are never removed)
        assert before.issubset(set(ks.states()))

    def test_update_and_revert_roundtrip(self, topo):
        red_config = Configuration.from_paths(topo, {TC: RED})
        green = Configuration.from_paths(topo, {TC: GREEN})
        ks = build(topo, RED)
        succ_before = {s: ks.succ(s) for s in ks.states()}
        ks.update_switch("A1", green.table("A1"))
        ks.update_switch("A1", red_config.table("A1"))
        for state, succ in succ_before.items():
            assert ks.succ(state) == succ

    def test_update_creating_loop_raises(self):
        topo = Topology()
        topo.add_switches(["A", "B"])
        topo.add_host("H")
        topo.add_host("H2")
        topo.add_link("H", "A")
        topo.add_link("A", "B")
        topo.add_link("B", "H2")
        path = ["H", "A", "B", "H2"]
        config = Configuration.from_paths(topo, {TC: path})
        ks = KripkeStructure(topo, config, {TC: ["H"]})
        before = snapshot(ks)
        # repoint B back at A: loop
        bad = Rule(99, Pattern(None, TC.fields), (Forward(topo.port_to("B", "A")),))
        with pytest.raises(ForwardingLoopError):
            ks.update_switch("B", Table([bad]))
        # the update is rolled back whole, the state A-from-B it built too
        assert snapshot(ks) == before
        # revert restores acyclicity
        ks.update_switch("B", config.table("B"))
        assert ks.rank(ks.initial_states[0]) >= 1

    def test_rule_granularity_update_only_touches_class(self, topo):
        other = TrafficClass.make("f31", src="H3", dst="H1")
        init = Configuration.from_paths(
            topo,
            {TC: RED, other: ["H3", "T3", "A3", "C1", "A1", "T1", "H1"]},
        )
        final13 = Configuration.from_paths(topo, {TC: GREEN})
        ks = KripkeStructure(topo, init, {TC: ["H1"], other: ["H3"]})
        dirty = ks.update_class_rules("A1", TC, final13.table("A1"))
        assert all(s.tc == TC for s in dirty if s.kind == "loc" and s.node == "A1")
        # the other class still flows through A1 untouched
        assert "A1" in ks.reachable_switches(other)

    def test_reachable_switches(self, topo):
        ks = build(topo, RED)
        assert ks.reachable_switches(TC) == frozenset({"T1", "A1", "C1", "A3", "T3"})


def snapshot(ks):
    """Every piece of a structure's incremental state, copied."""
    return (
        ks.config,
        dict(ks._succ),
        {state: set(preds) for state, preds in ks._preds.items()},
        dict(ks._rank),
        {switch: list(states) for switch, states in ks._at.items()},
        dict(ks._refs),
        {tc: dict(counts) for tc, counts in ks._reach.items()},
    )


def forward(topo, switch, *peers, fields=TC.fields, priority=10, in_from=None):
    ports = tuple(Forward(topo.port_to(switch, peer)) for peer in peers)
    in_port = topo.port_to(switch, in_from) if in_from is not None else None
    return Rule(priority, Pattern(in_port, fields), ports)


class TestFailedUpdate:
    def test_multicast_into_a_loop_reverts_cleanly(self):
        """A loop found partway through a multicast's successors leaves no
        half-built state behind (an unvisited successor without succ, preds
        or rank made the revert raise KeyError)."""
        topo = Topology()
        topo.add_switches(["A", "B", "C", "D", "E"])
        topo.add_hosts(["H", "H2"])
        for a, b in [("H", "A"), ("A", "B"), ("B", "C"), ("A", "D"),
                     ("D", "H2"), ("A", "E"), ("E", "D")]:
            topo.add_link(a, b)
        config = Configuration.from_paths(topo, {TC: ["H", "A", "D", "H2"]})
        ks = KripkeStructure(topo, config, {TC: ["H"]})
        ks.update_switch("B", Table([forward(topo, "B", "C")]))
        ks.update_switch("C", Table([forward(topo, "C", "B")]))
        before = snapshot(ks)
        with pytest.raises(ForwardingLoopError):
            ks.update_switch("A", Table([forward(topo, "A", "B", "E")]))
        assert snapshot(ks) == before
        assert ks.update_switch("A", config.table("A")) == []
        assert snapshot(ks) == before
        assert ks.reachable_switches(TC) == frozenset({"A", "D"})

    def test_states_built_by_a_loop_do_not_outlive_it(self):
        """States a looping update built do not stay behind: left unlabeled,
        a later update reaching one from a labeled state broke the checker."""
        topo = Topology()
        topo.add_switches(["A", "D", "E"])
        topo.add_hosts(["H", "H2"])
        for a, b in [("H", "A"), ("A", "E"), ("E", "D"), ("D", "H2"), ("A", "D")]:
            topo.add_link(a, b)
        config = Configuration.from_paths(topo, {TC: ["H", "A", "E", "D", "H2"]})
        spec = specs.reachability(TC, "H2")
        ks = KripkeStructure(topo, config, {TC: ["H"]})
        checker = make_checker("incremental", ks, spec)
        assert checker.full_check().ok
        # D -> A builds <A from D> and closes the loop A -> E -> D -> A
        with pytest.raises(ForwardingLoopError):
            ks.update_switch("D", Table([forward(topo, "D", "A")]))
        checker.apply_update(ks.update_switch("D", config.table("D")))
        # only packets from H change course at A
        a_table = Table(
            [forward(topo, "A", "D", priority=20, in_from="H"), forward(topo, "A", "E")]
        )
        assert checker.apply_update(ks.update_switch("A", a_table)).ok
        # H -> A -> D -> A -> E -> D -> H2 reaches <A from D> again, loop-free
        d_table = Table(
            [forward(topo, "D", "A", priority=20, in_from="A"), forward(topo, "D", "H2")]
        )
        result = checker.apply_update(ks.update_switch("D", d_table))
        fresh = KripkeStructure(topo, ks.config, {TC: ["H"]})
        assert result.ok == make_checker("incremental", fresh, spec).full_check().ok


def reference_reach(topo, config, ingresses, tc):
    """Switches class ``tc`` reaches, walked on the configuration itself."""
    todo = [topo.attachment(host) for host in ingresses[tc]]
    seen = set(todo)
    while todo:
        switch, port = todo.pop()
        for node, arrival, _ in next_hops(topo, config, switch, tc, port):
            if topo.is_switch(node) and (node, arrival) not in seen:
                seen.add((node, arrival))
                todo.append((node, arrival))
    return frozenset(switch for switch, _ in seen)


def two_class_ring(seed):
    """ring_diamond(12)'s structure with a second, opposite class."""
    sc = ring_diamond(12, seed=seed)
    (forth,) = sc.ingresses
    back = TrafficClass.make("back", src="Hdst", dst="Hsrc")
    ingresses = {forth: ["Hsrc"], back: ["Hdst"]}
    return KripkeStructure(sc.topology, sc.init, ingresses), ingresses


def random_table(rng, topo, classes, switch):
    """Random per-class rules for ``switch``: unicast or multicast, some
    matching an in-port.  Per-class rules only (a wildcard rule would let a
    class-rule update move another class's forwarding); in-port rules let a
    packet cross one switch twice without a loop."""
    rules = []
    for priority in range(rng.randint(0, 4)):
        owner = rng.choice(classes)
        width = rng.choice([1, 1, 2])
        ports = tuple(
            Forward(topo.port_to(switch, peer))
            for peer in rng.sample(topo.neighbors(switch), width)
        )
        in_port = rng.choice([None, rng.choice(topo.ports(switch))])
        rules.append(Rule(priority, Pattern(in_port, owner.fields), ports))
    return Table(rules)


class TestReachDifferential:
    """Reach counts against a walk of the configuration, step by step."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walk(self, seed):
        rng = random.Random(seed)
        ks, ingresses = two_class_ring(seed)
        topo = ks.topology
        classes = list(ingresses)
        switches = sorted(topo.switches)

        loops = 0
        for step in range(200):
            where = f"seed={seed} step={step}"
            switch = rng.choice(switches)
            table = random_table(rng, topo, classes, switch)
            tc = rng.choice(classes + [None])
            before = snapshot(ks)
            old = ks.config.table(switch)
            try:
                if tc is None:
                    ks.update_switch(switch, table)
                else:
                    ks.update_class_rules(switch, tc, table)
            except ForwardingLoopError:
                loops += 1
                assert snapshot(ks) == before, where
                assert ks.update_switch(switch, old) == [], where
                assert snapshot(ks) == before, where
            for cls in classes:
                expected = reference_reach(topo, ks.config, ingresses, cls)
                assert ks.reachable_switches(cls) == expected, f"{where} class={cls.name}"
        assert loops > 0, f"seed={seed}: the walk never met a loop"


class TestReachFlips:
    """The reach-flip record against :meth:`reachable_switches`."""

    @pytest.mark.parametrize("seed", range(8))
    def test_replayed_flips_track_reach(self, seed):
        rng = random.Random(seed)
        ks, ingresses = two_class_ring(seed)
        topo = ks.topology
        classes = list(ingresses)
        by_name = {tc.name: tc for tc in classes}
        switches = sorted(topo.switches)
        # a consumer's view, built from the record's first drain
        view = {tc: set() for tc in classes}

        def drain(where):
            for (switch, name), on in ks.reach_flips.items():
                held = view[by_name[name]]
                # each entry is a change: the view must not hold it already
                assert (switch in held) != on, f"{where} {switch} {name}"
                if on:
                    held.add(switch)
                else:
                    held.remove(switch)
            ks.reach_flips.clear()
            for tc in classes:
                assert view[tc] == ks.reachable_switches(tc), f"{where} {tc.name}"

        drain("construction")
        loops = 0
        for step in range(300):
            where = f"seed={seed} step={step}"
            switch = rng.choice(switches)
            old = ks.config.table(switch)
            tc = rng.choice(classes + [None])
            table = random_table(rng, topo, classes, switch)
            flips_before = dict(ks.reach_flips)
            try:
                if tc is None:
                    ks.update_switch(switch, table)
                else:
                    ks.update_class_rules(switch, tc, table)
            except ForwardingLoopError:
                loops += 1
                # a rolled-back update records nothing
                assert ks.reach_flips == flips_before, where
            if rng.random() < 0.3:
                ks.update_switch(switch, old)  # revert, as the search does
            if rng.random() < 0.5:  # drain only sometimes: flips pile up
                drain(where)
        drain("end")
        assert loops > 0, f"seed={seed}: the walk never met a loop"

    def test_undrained_record_is_bounded(self):
        rng = random.Random(0)
        ks, ingresses = two_class_ring(0)
        topo = ks.topology
        classes = list(ingresses)
        switches = sorted(topo.switches)
        for _ in range(1000):
            switch = rng.choice(switches)
            try:
                ks.update_switch(switch, random_table(rng, topo, classes, switch))
            except ForwardingLoopError:
                pass
        assert ks.reach_flips
        assert len(ks.reach_flips) <= len(switches) * len(classes)


class TestUpdateCost:
    def test_ring_search_never_recounts_reach_from_scratch(self, monkeypatch):
        """Counts are built once per structure; every later update moves
        them incrementally (a recount per update would be O(n) each)."""
        calls = Counter()
        count_reach = KripkeStructure._count_reach

        def counted(self):
            calls[id(self)] += 1
            count_reach(self)

        monkeypatch.setattr(KripkeStructure, "_count_reach", counted)
        sc = ring_diamond(640)
        order_update(sc.topology, sc.init, sc.final, sc.ingresses, sc.spec)
        assert calls and set(calls.values()) == {1}


class TestInterning:
    """One object per state value, so hashing and equality are identity."""

    def test_identity_hash_and_equality(self):
        assert KState.__hash__ is object.__hash__
        assert KState.__eq__ is object.__eq__

    def test_structures_on_one_problem_share_states(self, topo):
        one, two = build(topo, RED), build(topo, RED)
        by_value = {(s.kind, s.node, s.port, s.tc): s for s in one.states()}
        assert len(by_value) == one.num_states() == two.num_states()
        for state in two.states():
            assert by_value[(state.kind, state.node, state.port, state.tc)] is state

    def test_constructed_state_is_the_structures(self, topo):
        ks = build(topo, RED)
        (init,) = ks.initial_states
        made = KState("loc", init.node, init.port, TrafficClass.make("f13", src="H1", dst="H3"))
        assert made is init
        assert made in ks and ks.succ(made) == ks.succ(init)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_return_the_interned_state(self, topo, round_trip):
        ks = build(topo, RED)
        for state in ks.states():
            assert round_trip(state) is state

    def test_attributes_are_read_only(self, topo):
        (init,) = build(topo, RED).initial_states
        with pytest.raises(FrozenInstanceError):
            init.node = "A1"
        with pytest.raises(FrozenInstanceError):
            del init.port
        with pytest.raises(AttributeError):
            init.label = "x"  # no __dict__ either
        assert init.node == "T1"

    def test_value_semantics_in_repr_and_str(self, topo):
        (init,) = build(topo, RED).initial_states
        assert repr(init) == f"KState(kind='loc', node='T1', port={init.port!r}, tc={TC!r})"
        assert str(init) == f"<f13@T1:{init.port}>"
        assert not init.dropped and not init.is_sink

    def test_classes_differing_in_fields_give_distinct_states(self):
        other = TrafficClass.make("f13", src="H2", dst="H3")
        assert other != TC
        assert KState("loc", "T1", 1, TC) is not KState("loc", "T1", 1, other)
        assert KState("loc", "T1", 1, TC) != KState("loc", "T1", 1, other)

    def test_intern_table_drops_states_with_their_structures(self, topo):
        gc.collect()
        baseline = len(structure_module._interned)
        built = 0
        for index in range(100):
            tc = TrafficClass.make(f"tmp{index}", src="H1", dst="H3")
            config = Configuration.from_paths(topo, {tc: RED})
            built += KripkeStructure(topo, config, {tc: ["H1"]}).num_states()
        assert built >= 600
        gc.collect()
        assert len(structure_module._interned) == baseline

    def test_racing_threads_get_one_object_per_value(self):
        scenario = ring_diamond(64, seed=5)

        def build():
            return KripkeStructure(scenario.topology, scenario.init, scenario.ingresses)

        built = race(lambda k: build())
        objects = {}
        for ks in built:
            for state in ks.states():
                value = (state.kind, state.node, state.port, state.tc)
                objects.setdefault(value, set()).add(id(state))
        assert objects and all(len(ids) == 1 for ids in objects.values())

    def test_racing_constructors_agree(self):
        """Threads building one structure walk it in step, so the leader
        makes every state.  Here each thread makes fresh values in its own
        order, so two threads often miss on one value at once."""
        tc = TrafficClass.make("race", src="H1", dst="H3")
        values = [("loc", f"S{i}", port, tc) for i in range(500) for port in (1, 2)]
        orders = [random.Random(k).sample(values, len(values)) for k in range(8)]

        def make(k):
            return {value: KState(*value) for value in orders[k]}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            for _ in range(10):
                made = race(make)
                for value in values:
                    assert len({id(states[value]) for states in made}) == 1, value
                del made
                gc.collect()  # the next round makes every value anew
        finally:
            sys.setswitchinterval(interval)


def race(work, threads=8):
    """Run ``work(k)`` in threads ``k = 0, 1, ...`` released at once; return
    its results."""
    barrier = threading.Barrier(threads)
    results = []

    def run(k):
        barrier.wait(timeout=60)
        results.append(work(k))

    pool = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(results) == threads
    return results


class TestTablesInPlace:
    def test_config_is_a_snapshot(self, topo):
        ks = build(topo, RED)
        red = Configuration.from_paths(topo, {TC: RED})
        green = Configuration.from_paths(topo, {TC: GREEN})
        snapshot_before = ks.config
        ks.update_switch("A1", green.table("A1"))
        assert snapshot_before == red
        assert ks.table("A1") == green.table("A1")
        assert ks.config == red.with_table("A1", green.table("A1"))
        assert ks.has_config(ks.config) and not ks.has_config(red)

    def test_empty_table_leaves_the_config(self, topo):
        ks = build(topo, RED)
        ks.update_switch("C1", Table())
        assert "C1" not in ks.config.switches()
        assert len(ks.table("C1")) == 0

    def test_rolled_back_update_restores_the_switch_table(self):
        topo = Topology()
        topo.add_switches(["A", "B"])
        topo.add_host("H")
        topo.add_host("H2")
        topo.add_link("H", "A")
        topo.add_link("A", "B")
        topo.add_link("B", "H2")
        config = Configuration.from_paths(topo, {TC: ["H", "A", "B", "H2"]})
        ks = KripkeStructure(topo, config, {TC: ["H"]})
        with pytest.raises(ForwardingLoopError):
            ks.update_switch("B", Table([forward(topo, "B", "A")]))
        assert ks.has_config(config)
        with pytest.raises(ForwardingLoopError):
            ks.update_class_rules("B", TC, Table([forward(topo, "B", "A")]))
        assert ks.has_config(config)

    def test_search_and_wait_removal_copy_no_configuration(self, monkeypatch):
        """Every search apply and revert, and every wait-removal step, edits
        one table in place: none builds a whole new configuration."""
        from repro.synthesis import remove_waits

        sc = ring_diamond(160, seed=2)

        def refuse(self, switch, table):
            raise AssertionError("Configuration.with_table on the hot path")

        monkeypatch.setattr(Configuration, "with_table", refuse)
        for granularity in ("switch", "rule"):
            plan = order_update(
                sc.topology, sc.init, sc.final, sc.ingresses, sc.spec,
                granularity=granularity,
            )
            slim = remove_waits(sc.topology, sc.init, plan, sc.ingresses)
            assert slim.num_updates() == plan.num_updates() > 0


class TestMergeClassRules:
    def test_keeps_other_classes_and_takes_the_class_rules(self):
        other = TrafficClass.make("f31", src="H3", dst="H1")
        mine = Rule(10, Pattern(None, TC.fields), (Forward(1),))
        theirs = Rule(10, Pattern(None, other.fields), (Forward(2),))
        wildcard = Rule(1, Pattern.make(), (Forward(3),))
        replacement = Rule(10, Pattern(None, TC.fields), (Forward(4),))
        merged = merge_class_rules(
            Table([mine, theirs, wildcard]), TC, Table([replacement, theirs])
        )
        # the wildcard covers TC, so it goes; the other class's rule stays
        # once: class_table's copy of it does not cover TC
        assert merged == Table([theirs, replacement])


class TestMaximalPaths:
    def test_single_path(self, topo):
        ks = build(topo, RED)
        paths = ks.maximal_paths()
        assert len(paths) == 1
        nodes = [s.node for s in paths[0]]
        assert nodes == ["T1", "A1", "C1", "A3", "T3", "H3"]


class TestRuleCoversClass:
    def test_exact_match(self):
        rule = Rule(10, Pattern(None, TC.fields), (Forward(1),))
        assert rule_covers_class(rule, TC)

    def test_wildcard_covers_all(self):
        rule = Rule(10, Pattern.make(), (Forward(1),))
        assert rule_covers_class(rule, TC)

    def test_conflicting_field_excluded(self):
        rule = Rule(10, Pattern.make(dst="H4"), (Forward(1),))
        assert not rule_covers_class(rule, TC)
