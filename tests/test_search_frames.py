"""Differential test of the search's candidate order.

:func:`reference_order_update` keeps the list-based frames ORDERUPDATE
used before its frames became lazy bitmasks.  After every accepted unit it
rebuilds the whole frame: the free units in ``str`` order, the cold ones
(unreachable by their class) before the hot ones, with the warm hint moved
to the front while the path follows the warm order.  It keys ``V`` and
``W`` by frozensets of units.

The production search must hand the Kripke structure the same units, in
the same order, and count the same work: on every corpus problem at both
granularities, without the reachability heuristic, along the churn delta
chains (warm orders and handed-over start structures), and on loop-rich
random-path problems.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest

from repro.errors import ForwardingLoopError, UpdateInfeasibleError
from repro.kripke.structure import KripkeStructure
from repro.ltl import specs
from repro.mc.interface import make_checker
from repro.mc.labeling import LabelEngine
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.scenarios.churn import generate_churn
from repro.scenarios.corpus import generate_corpus
from repro.service import SynthesisService
from repro.synthesis import synthesizer
from repro.synthesis.ordering import OrderingConstraints
from repro.synthesis.plan import SearchStats, UpdatePlan
from repro.synthesis.search import _build_commands, _compute_units, order_update
from repro.topo import ring_diamond

COUNTERS = (
    "model_checks",
    "counterexamples",
    "pruned_visited",
    "pruned_wrong",
    "loops_rejected",
    "backtracks",
    "warm_units",
    "warm_hits",
    "sat_terminated",
)


def reference_order_update(
    topology,
    init,
    final,
    ingresses,
    spec,
    *,
    granularity="switch",
    use_reachability_heuristic=True,
    warm_order=None,
    handover=None,
    **_options,
):
    """ORDERUPDATE with list frames and frozenset keys (incremental
    checker, counterexamples and early termination on)."""
    stats = SearchStats()
    classes = list(ingresses)
    class_by_name = {tc.name: tc for tc in classes}
    rule_gran = granularity == "rule"
    units = _compute_units(init, final, classes, granularity)
    all_units = frozenset(units)
    warm_units: List = []
    for unit in warm_order or ():
        unit = tuple(unit) if isinstance(unit, list) else unit
        if unit in all_units and unit not in warm_units:
            warm_units.append(unit)
    stats.warm_units = len(warm_units)

    def infeasible(reason="search"):
        err = UpdateInfeasibleError("reference search", reason=reason)
        err.stats = stats
        return err

    engine = handover.engine if handover and handover.engine else LabelEngine(spec)
    try:
        final_structure = KripkeStructure(topology, final, ingresses)
    except ForwardingLoopError:
        raise infeasible() from None
    final_checker = make_checker("incremental", final_structure, spec, engine=engine)
    stats.model_checks += 1
    if not final_checker.full_check().ok:
        raise infeasible()
    if handover is not None:
        handover.final = final_checker
    if handover is not None and handover.start is not None:
        structure, backend = handover.start.structure, handover.start
    else:
        try:
            structure = KripkeStructure(topology, init, ingresses)
        except ForwardingLoopError:
            raise infeasible() from None
        backend = make_checker("incremental", structure, spec, engine=engine)
        stats.model_checks += 1
        if not backend.full_check().ok:
            raise infeasible()
    if not units:
        return UpdatePlan([], granularity, stats)

    wrong: Set[Tuple[FrozenSet, FrozenSet]] = set()
    ordering = OrderingConstraints()
    visited: Set[FrozenSet] = set()
    updated: Set = set()
    path: List = []
    by_name = sorted(units, key=str)

    def apply_unit(unit, target):
        if rule_gran:
            switch, tc_name = unit
            return structure.update_class_rules(
                switch, class_by_name[tc_name], target.table(switch)
            )
        return structure.update_switch(unit, target.table(unit))

    def handle_violation(cex, key):
        if cex is None:
            return
        stats.counterexamples += 1
        flags: Dict = {}
        for state in cex:
            if state.kind in ("loc", "drop"):
                unit = (state.node, state.tc.name) if rule_gran else state.node
                if unit in all_units:
                    flags[unit] = unit in key
        required = frozenset(u for u, flag in flags.items() if flag)
        forbidden = frozenset(u for u, flag in flags.items() if not flag)
        if flags:
            wrong.add((required, forbidden))
        ordering.add_counterexample(required, forbidden)
        if not ordering.feasible():
            stats.sat_terminated = True
            raise infeasible("sat")

    def candidates():
        if not use_reachability_heuristic:
            frame = [u for u in units if u not in updated]
        else:
            remaining = [u for u in by_name if u not in updated]
            reach = {tc.name: structure.reachable_switches(tc) for tc in classes}
            if rule_gran:
                hot = {u for u in remaining if u[0] in reach[u[1]]}
            else:
                hot = set().union(*reach.values())
            frame = [u for u in remaining if u not in hot]
            frame += [u for u in remaining if u in hot]
        depth = len(path)
        if depth < len(warm_units) and path == warm_units[:depth]:
            hint = warm_units[depth]
            if hint in frame:
                stats.warm_hits += 1
                frame.remove(hint)
                frame.insert(0, hint)
        return frame

    stack = [candidates()]
    while stack:
        frame = stack[-1]
        if not frame:
            stack.pop()
            if path:
                unit = path.pop()
                updated.discard(unit)
                backend.apply_update(apply_unit(unit, init))
                stats.backtracks += 1
            continue
        unit = frame.pop(0)
        key = frozenset(updated | {unit})
        if key in visited:
            stats.pruned_visited += 1
            continue
        if any(req <= key and forb.isdisjoint(key) for req, forb in wrong):
            stats.pruned_wrong += 1
            continue
        try:
            dirty = apply_unit(unit, final)
        except ForwardingLoopError as exc:
            stats.loops_rejected += 1
            visited.add(key)
            handle_violation(exc.cycle, key)
            backend.apply_update(apply_unit(unit, init))
            continue
        result = backend.apply_update(dirty)
        stats.model_checks += 1
        visited.add(key)
        if not result.ok:
            handle_violation(result.counterexample, key)
            backend.apply_update(apply_unit(unit, init))
            continue
        updated.add(unit)
        path.append(unit)
        if len(updated) == len(all_units):
            commands = _build_commands(path, final, class_by_name, rule_gran)
            return UpdatePlan(commands, granularity, stats)
        stack.append(candidates())
    raise infeasible()


@pytest.fixture
def update_log(monkeypatch):
    """Every unit update any Kripke structure receives, in call order."""
    log: List[Tuple] = []
    switch_update = KripkeStructure.update_switch
    class_update = KripkeStructure.update_class_rules

    def logged_switch(self, switch, table):
        log.append((switch, None, table))
        return switch_update(self, switch, table)

    def logged_class(self, switch, tc, table):
        log.append((switch, tc.name, table))
        return class_update(self, switch, tc, table)

    monkeypatch.setattr(KripkeStructure, "update_switch", logged_switch)
    monkeypatch.setattr(KripkeStructure, "update_class_rules", logged_class)
    return log


def outcome(search, problem, **options):
    """(plan commands or infeasibility reason, search counters)."""
    try:
        plan = search(
            problem.topology,
            problem.init,
            problem.final,
            problem.ingresses,
            problem.spec,
            **options,
        )
    except UpdateInfeasibleError as err:
        result, stats = ("infeasible", err.reason), err.stats
    else:
        result, stats = plan.commands, plan.stats
    return result, {name: getattr(stats, name) for name in COUNTERS}


def assert_same_search(update_log, problem, where, **options):
    """Run both searches on ``problem``; return the shared counters."""
    expected = outcome(reference_order_update, problem, **options)
    reference_log = list(update_log)
    update_log.clear()
    actual = outcome(order_update, problem, **options)
    assert update_log == reference_log, where
    assert actual == expected, where
    update_log.clear()
    return actual[1]


class TestCorpusOrder:
    @pytest.mark.parametrize("granularity", ["switch", "rule"])
    @pytest.mark.parametrize("suite", ["smoke", "full", "zoo"])
    def test_same_units_and_counters(self, update_log, suite, granularity):
        for record in generate_corpus(suite, quick=True):
            assert_same_search(
                update_log,
                record.problem,
                f"{record.scenario_id} {granularity}",
                granularity=granularity,
            )

    @pytest.mark.parametrize("granularity", ["switch", "rule"])
    def test_without_reachability_heuristic(self, update_log, granularity):
        for record in generate_corpus("smoke", quick=True):
            assert_same_search(
                update_log,
                record.problem,
                f"{record.scenario_id} {granularity}",
                granularity=granularity,
                use_reachability_heuristic=False,
            )


def run_delta_chain(trace):
    """The trace's base and its chained deltas on one serial service."""
    service = SynthesisService()
    try:
        job = service.submit(trace.records[0].problem)
        results = [service.result(job.job_id)]
        for record in trace.records[1:]:
            job = service.submit_delta(job.fingerprint, record.patch)
            results.append(service.result(job.job_id))
        return results
    finally:
        service.close()


class TestDeltaChainOrder:
    @pytest.mark.parametrize("quick", [True, False])
    def test_warm_orders_and_handed_over_starts(self, update_log, monkeypatch, quick):
        handed_over = []  # flap deltas edit links, so only some starts are handed over
        for trace in generate_churn(quick=quick):

            def reference(*args, handover=None, **options):
                handed_over.append(handover is not None and handover.start is not None)
                return reference_order_update(*args, handover=handover, **options)

            with monkeypatch.context() as patched:
                patched.setattr(synthesizer, "order_update", reference)
                expected = run_delta_chain(trace)
            reference_log = list(update_log)
            update_log.clear()
            actual = run_delta_chain(trace)
            assert update_log == reference_log, trace.trace_id
            update_log.clear()
            for want, got in zip(expected, actual):
                assert got.status == want.status, trace.trace_id
                assert got.plan.commands == want.plan.commands, trace.trace_id
                for name in COUNTERS:
                    assert getattr(got.plan.stats, name) == getattr(
                        want.plan.stats, name
                    ), (trace.trace_id, name)
            # the chain really exercised the warm start
            assert any(r.plan.stats.warm_hits for r in actual[1:]), trace.trace_id
        assert any(handed_over)


def random_path(rng, topology, src, dst):
    """A random simple host-to-host path (randomized DFS over switches)."""
    start = topology.attachment(src)[0]
    goal = topology.attachment(dst)[0]
    path, seen = [start], {start}
    options = {start: rng.sample(topology.neighbors(start), len(topology.neighbors(start)))}
    while path[-1] != goal:
        here = path[-1]
        nexts = [n for n in options[here] if topology.is_switch(n) and n not in seen]
        if not nexts:
            path.pop()
            continue
        node = nexts[0]
        options[here].remove(node)
        seen.add(node)
        path.append(node)
        options[node] = rng.sample(topology.neighbors(node), len(topology.neighbors(node)))
    return [src] + path + [dst]


def random_path_problem(seed):
    """Two opposite classes, each moved between two random paths over a
    12-switch ring: intermediate configurations often loop."""
    rng = random.Random(seed)
    sc = ring_diamond(12, seed=seed)
    topology = sc.topology
    forth = TrafficClass.make("forth", src="Hsrc", dst="Hdst")
    back = TrafficClass.make("back", src="Hdst", dst="Hsrc")
    ends = {forth: ("Hsrc", "Hdst"), back: ("Hdst", "Hsrc")}

    def config():
        return Configuration.from_paths(
            topology, {tc: random_path(rng, topology, *ends[tc]) for tc in ends}
        )

    return SimpleNamespace(
        topology=topology,
        ingresses={forth: ["Hsrc"], back: ["Hdst"]},
        init=config(),
        final=config(),
        spec=specs.all_of(
            [specs.reachability(forth, "Hdst"), specs.reachability(back, "Hsrc")]
        ),
    )


class TestRandomPathOrder:
    @pytest.mark.parametrize("granularity", ["switch", "rule"])
    def test_loop_rich_problems(self, update_log, granularity):
        loops = 0
        for seed in range(40):
            counters = assert_same_search(
                update_log,
                random_path_problem(seed),
                f"seed={seed} {granularity}",
                granularity=granularity,
            )
            loops += counters["loops_rejected"]
        assert loops > 0, "no candidate ever met a forwarding loop"
