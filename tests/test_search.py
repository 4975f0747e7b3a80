"""Tests for the ORDERUPDATE synthesis algorithm and its optimizations."""

import pytest

from repro.errors import SynthesisTimeout, UpdateInfeasibleError
from repro.kripke.structure import KripkeStructure
from repro.ltl import specs
from repro.mc import make_checker
from repro.net.commands import is_careful
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.synthesis import order_update
from repro.synthesis.pruning import WrongConfigs, make_formula
from repro.topo import double_diamond, mini_datacenter, ring_diamond

TC = TrafficClass.make("f13", src="H1", dst="H3")
RED = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
GREEN = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
BLUE = ["H1", "T1", "A2", "C1", "A4", "T3", "H3"]


def fig1(final_path=GREEN):
    topo = mini_datacenter()
    init = Configuration.from_paths(topo, {TC: RED})
    final = Configuration.from_paths(topo, {TC: final_path})
    return topo, init, final


def plan_order(plan):
    return [c.switch for c in plan.updates()]


def assert_plan_valid(topo, init, final, ingresses, spec, plan):
    """Every prefix configuration of the plan satisfies the spec."""
    assert is_careful(plan.commands) or plan.num_waits() < plan.num_updates() - 1
    config = init
    for command in plan.updates():
        config = config.with_table(command.switch, command.table)
        ks = KripkeStructure(topo, config, ingresses)
        assert make_checker("incremental", ks, spec).full_check().ok
    assert config == final


class TestFig1Scenarios:
    def test_red_to_green_order(self):
        topo, init, final = fig1()
        spec = specs.reachability(TC, "H3")
        plan = order_update(topo, init, final, {TC: ["H1"]}, spec)
        order = plan_order(plan)
        # the one hard constraint: C2 must come before A1
        assert order.index("C2") < order.index("A1")
        assert_plan_valid(topo, init, final, {TC: ["H1"]}, spec, plan)

    def test_red_to_blue_with_waypoint_choice(self):
        topo, init, final = fig1(BLUE)
        spec = specs.waypoint_choice(TC, ["A2", "A3"], "H3")
        plan = order_update(topo, init, final, {TC: ["H1"]}, spec)
        order = plan_order(plan)
        # A2 and C1's flip constraints: T1 must flip after A2 is ready
        assert order.index("A2") < order.index("T1")
        assert_plan_valid(topo, init, final, {TC: ["H1"]}, spec, plan)

    def test_careful_plan_shape(self):
        topo, init, final = fig1()
        plan = order_update(topo, init, final, {TC: ["H1"]}, specs.reachability(TC, "H3"))
        assert is_careful(plan.commands)
        assert plan.num_waits() == plan.num_updates() - 1

    def test_trivial_spec_allows_any_order(self):
        from repro.ltl.syntax import TRUE

        topo, init, final = fig1()
        plan = order_update(topo, init, final, {TC: ["H1"]}, TRUE)
        assert set(plan_order(plan)) == {"A1", "C1", "C2"}

    def test_noop_update(self):
        topo, init, _ = fig1()
        plan = order_update(topo, init, init, {TC: ["H1"]}, specs.reachability(TC, "H3"))
        assert plan.num_updates() == 0

    def test_infeasible_final_config(self):
        topo, init, _final = fig1()
        empty = Configuration.empty()
        with pytest.raises(UpdateInfeasibleError):
            order_update(topo, init, empty, {TC: ["H1"]}, specs.reachability(TC, "H3"))

    def test_infeasible_initial_config(self):
        topo, _init, final = fig1()
        empty = Configuration.empty()
        with pytest.raises(UpdateInfeasibleError):
            order_update(topo, empty, final, {TC: ["H1"]}, specs.reachability(TC, "H3"))


class TestOptimizations:
    def test_counterexample_pruning_reduces_checks(self):
        sc = ring_diamond(20, seed=2)
        with_cex = order_update(
            sc.topology, sc.init, sc.final, sc.ingresses, sc.spec,
            use_counterexamples=True, use_reachability_heuristic=False,
        )
        without_cex = order_update(
            sc.topology, sc.init, sc.final, sc.ingresses, sc.spec,
            use_counterexamples=False, use_reachability_heuristic=False,
        )
        assert with_cex.stats.model_checks <= without_cex.stats.model_checks

    def test_reachability_heuristic_avoids_backtracking(self):
        sc = ring_diamond(24, seed=3)
        plan = order_update(sc.topology, sc.init, sc.final, sc.ingresses, sc.spec)
        assert plan.stats.backtracks == 0

    def test_all_backends_agree(self):
        topo, init, final = fig1()
        spec = specs.reachability(TC, "H3")
        orders = set()
        for backend in ("incremental", "batch", "automaton", "netplumber"):
            plan = order_update(topo, init, final, {TC: ["H1"]}, spec, checker=backend)
            orders.add(tuple(plan_order(plan)))
            assert_plan_valid(topo, init, final, {TC: ["H1"]}, spec, plan)

    def test_timeout(self):
        sc = double_diamond(16)
        with pytest.raises((SynthesisTimeout, UpdateInfeasibleError)):
            order_update(
                sc.topology, sc.init, sc.final, sc.ingresses, sc.spec,
                use_early_termination=False, timeout=0.5,
            )


class TestInfeasible:
    def test_double_diamond_infeasible_switch_granularity(self):
        sc = double_diamond(10)
        with pytest.raises(UpdateInfeasibleError) as err:
            order_update(sc.topology, sc.init, sc.final, sc.ingresses, sc.spec)
        assert err.value.reason in ("sat", "search")

    def test_double_diamond_sat_early_termination(self):
        sc = double_diamond(10)
        with pytest.raises(UpdateInfeasibleError) as err:
            order_update(sc.topology, sc.init, sc.final, sc.ingresses, sc.spec)
        # with the optimization on, the SAT solver should fire
        assert err.value.reason == "sat"

    def test_fig8h_experiment_reports_the_sat_proof(self):
        from repro.bench import experiments

        (row,) = experiments.fig8h_infeasible(sizes=(16,))
        assert not row.feasible
        assert row.reason == "sat"

    def test_double_diamond_feasible_rule_granularity(self):
        sc = double_diamond(10)
        plan = order_update(
            sc.topology, sc.init, sc.final, sc.ingresses, sc.spec, granularity="rule"
        )
        assert plan.granularity == "rule"
        assert plan.num_updates() > 0
        # replay: every prefix config satisfies the spec
        from repro.net.commands import RuleGranUpdate
        from repro.kripke.structure import rule_covers_class
        from repro.net.rules import Table

        config = sc.init
        for command in plan.updates():
            assert isinstance(command, RuleGranUpdate)
            old = config.table(command.switch)
            kept = old.restrict(lambda r: not rule_covers_class(r, command.tc))
            new = [r for r in command.table if rule_covers_class(r, command.tc)]
            config = config.with_table(command.switch, Table(tuple(kept) + tuple(new)))
            ks = KripkeStructure(sc.topology, config, sc.ingresses)
            assert make_checker("incremental", ks, sc.spec).full_check().ok
        assert config == sc.final


class TestPruningUnits:
    def test_make_formula_flags(self):
        from repro.kripke.structure import KState

        cex = [
            KState("loc", "A", 1, TC),
            KState("loc", "B", 1, TC),
            KState("drop", "C", 1, TC),
        ]
        units = frozenset({"A", "B", "C"})
        pattern = make_formula(cex, frozenset({"A"}), units, rule_granularity=False)
        assert ("A", True) in pattern
        assert ("B", False) in pattern
        assert ("C", False) in pattern

    def test_make_formula_ignores_unmanaged_switches(self):
        from repro.kripke.structure import KState

        cex = [KState("loc", "X", 1, TC)]
        pattern = make_formula(cex, frozenset(), frozenset({"A"}), False)
        assert pattern == frozenset()

    def test_wrong_configs_matching(self):
        wrong = WrongConfigs()
        wrong.add(frozenset({("A", True), ("B", False)}))
        assert wrong.matches(frozenset({"A"}))
        assert wrong.matches(frozenset({"A", "C"}))
        assert not wrong.matches(frozenset({"A", "B"}))
        assert not wrong.matches(frozenset())

    def test_empty_pattern_never_added(self):
        wrong = WrongConfigs()
        wrong.add(frozenset())
        assert len(wrong) == 0
        assert not wrong.matches(frozenset({"A"}))
