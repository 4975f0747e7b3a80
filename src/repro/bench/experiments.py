"""One driver per table/figure of the paper's evaluation (§6).

Every driver returns structured rows (and can print them via
:mod:`repro.bench.report`); the ``benchmarks/`` directory wraps each driver
in a pytest-benchmark target.  Sizes default to laptop-scale values chosen so
the full suite completes in minutes while preserving the paper's *shapes*:
who wins, by roughly what factor, and where the crossovers fall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.measure import geometric_mean, speedups, timed
from repro.errors import SynthesisTimeout, UpdateInfeasibleError
from repro.ltl import specs
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.runtime import (
    NaiveStrategy,
    OrderedStrategy,
    TwoPhaseStrategy,
    run_update_experiment,
)
from repro.scenarios.builders import family_scenarios, scenario_for_prop
from repro.synthesis import UpdateSynthesizer, order_update, remove_waits
from repro.topo import (
    chained_diamond,
    double_diamond,
    mini_datacenter,
    ring_diamond,
)

# ----------------------------------------------------------------------
# Figure 2: probe loss and rule overhead during an update
# ----------------------------------------------------------------------
TC13 = TrafficClass.make("f13", src="H1", dst="H3")
RED = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
GREEN = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]


def _figure2_setup():
    topo = mini_datacenter()
    init = Configuration.from_paths(topo, {TC13: RED})
    final = Configuration.from_paths(topo, {TC13: GREEN})
    flows = {TC13: ("H1", "H3")}
    plan = UpdateSynthesizer(topo).synthesize(
        init, final, specs.reachability(TC13, "H3"), {TC13: ["H1"]}
    )
    return topo, init, final, flows, plan


def fig2a_probe_series(bucket: int = 10) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 2(a): probes received over time per update strategy."""
    topo, init, final, flows, plan = _figure2_setup()
    strategies = [
        NaiveStrategy(final, order=["A1", "C1", "C2"]),
        TwoPhaseStrategy(topo, init, final, flows),
        OrderedStrategy(plan, final),
    ]
    out: Dict[str, List[Tuple[int, float]]] = {}
    for strategy in strategies:
        # realistic slow TCAM installs stretch the naive update's blackhole
        # window, as in the paper's Mininet run (~seconds of 100% loss)
        result = run_update_experiment(
            topo, init, final, flows, strategy, install_latency=10
        )
        out[strategy.name] = result.stats.delivery_series(bucket)
    return out


def fig2b_rule_overhead() -> Dict[str, Dict[str, float]]:
    """Figure 2(b): per-switch rule overhead per update strategy."""
    topo, init, final, flows, plan = _figure2_setup()
    strategies = [
        TwoPhaseStrategy(topo, init, final, flows),
        OrderedStrategy(plan, final),
    ]
    out: Dict[str, Dict[str, float]] = {}
    for strategy in strategies:
        result = run_update_experiment(topo, init, final, flows, strategy)
        out[strategy.name] = dict(sorted(result.overhead.items()))
    return out


# ----------------------------------------------------------------------
# Figure 7: checker-backend comparisons
# ----------------------------------------------------------------------
@dataclass
class SolverRow:
    name: str
    switches: int
    seconds: Dict[str, float] = field(default_factory=dict)


#: per-family default sizes (laptop-scale stand-ins for the paper's ranges)
FIG7_SIZES = {
    "zoo": (0, 0, 0, 0, 0, 0),  # zoo sizes come from the topologies themselves
    "fattree": (4, 6, 8),
    "smallworld": (20, 40, 80, 120),
}


def fig7_solvers(
    family: str,
    sizes: Optional[Sequence[int]] = None,
    backends: Sequence[str] = ("incremental", "batch", "automaton", "symbolic"),
    timeout: float = 120.0,
) -> Tuple[List[SolverRow], Dict[str, float]]:
    """Figure 7(a-c): synthesis runtime per checker backend.

    Returns per-scenario rows and the geometric-mean speedup of incremental
    over each other backend (the paper's headline 447x vs NuSMV, ~4-12x vs
    Batch, at laptop scale).
    """
    sizes = sizes if sizes is not None else FIG7_SIZES[family]
    rows: List[SolverRow] = []
    for scenario in family_scenarios(family, sizes):
        row = SolverRow(scenario.name, len(scenario.topology.switches))
        for backend in backends:
            try:
                _, seconds = timed(
                    lambda b=backend: order_update(
                        scenario.topology,
                        scenario.init,
                        scenario.final,
                        scenario.ingresses,
                        scenario.spec,
                        checker=b,
                        timeout=timeout,
                    )
                )
            except (SynthesisTimeout, UpdateInfeasibleError):
                seconds = float("nan")
            row.seconds[backend] = seconds
        rows.append(row)
    means: Dict[str, float] = {}
    for backend in backends:
        if backend == "incremental":
            continue
        ratios = speedups(
            [r.seconds[backend] for r in rows if r.seconds[backend] == r.seconds[backend]],
            [r.seconds["incremental"] for r in rows if r.seconds[backend] == r.seconds[backend]],
        )
        means[f"incremental_vs_{backend}"] = geometric_mean(ratios)
    return rows, means


class _TandemChecker:
    """Poses every query of the primary backend to a shadow backend too.

    Reproduces the paper's NetPlumber methodology: "we also measured total
    Incremental versus NetPlumber runtime on the same set of model-checking
    questions posed by Incremental" (§6) — the shadow's verdicts are
    computed and timed but never influence the search.
    """

    def __init__(self, primary, shadow):
        self.primary = primary
        self.shadow = shadow
        self.name = primary.name
        self.primary_seconds = 0.0
        self.shadow_seconds = 0.0

    def _both(self, method: str, *args):
        start = time.perf_counter()
        result = getattr(self.primary, method)(*args)
        self.primary_seconds += time.perf_counter() - start
        start = time.perf_counter()
        getattr(self.shadow, method)(*args)
        self.shadow_seconds += time.perf_counter() - start
        return result

    def full_check(self):
        return self._both("full_check")

    def apply_update(self, dirty):
        return self._both("apply_update", dirty)


def fig7_netplumber(
    sizes: Sequence[int] = (16, 32, 64),
    timeout: float = 120.0,
    prop: str = "reachability",
) -> Tuple[List[SolverRow], Dict[str, float]]:
    """Figure 7(d-f): Incremental vs NetPlumber, rule granularity.

    Both checkers answer the *same* query stream (the one the incremental
    search generates); reported seconds are pure checker time, matching the
    paper's same-questions comparison (mean speedup 2.74x there).
    """
    from repro.mc.incremental import IncrementalChecker
    from repro.mc.netplumber import NetPlumberChecker

    rows: List[SolverRow] = []
    for n in sizes:
        if prop == "reachability":
            scenario = ring_diamond(n, seed=1)
        else:
            scenario = chained_diamond(max(1, n // 9), 4, prop=prop)
        row = SolverRow(scenario.name, len(scenario.topology.switches))
        tandems: List[_TandemChecker] = []

        def factory(structure, spec):
            tandem = _TandemChecker(
                IncrementalChecker(structure, spec),
                NetPlumberChecker(structure, spec),
            )
            tandems.append(tandem)
            return tandem

        order_update(
            scenario.topology,
            scenario.init,
            scenario.final,
            scenario.ingresses,
            scenario.spec,
            checker=factory,
            granularity="rule",
            timeout=timeout,
        )
        row.seconds["incremental"] = sum(t.primary_seconds for t in tandems)
        row.seconds["netplumber"] = sum(t.shadow_seconds for t in tandems)
        rows.append(row)
    ratios = speedups(
        [r.seconds["netplumber"] for r in rows],
        [r.seconds["incremental"] for r in rows],
    )
    return rows, {"incremental_vs_netplumber": geometric_mean(ratios)}


# ----------------------------------------------------------------------
# Figure 8: scalability, infeasibility, rule granularity, waits
# ----------------------------------------------------------------------
@dataclass
class ScalingRow:
    prop: str
    switches: int
    updates: int
    seconds: float
    feasible: bool = True
    #: which proof fired for an infeasible row (``UpdateInfeasibleError.reason``)
    reason: str = ""
    waits_before: int = 0
    waits_after: int = 0
    wait_seconds: float = 0.0
    model_checks: int = 0


def fig8g_scaling(
    sizes: Sequence[int] = (20, 40, 80, 160),
    props: Sequence[str] = ("reachability", "waypoint", "chain"),
    timeout: float = 300.0,
) -> List[ScalingRow]:
    """Figure 8(g): Incremental-backed synthesis runtime vs problem size."""
    rows: List[ScalingRow] = []
    for prop in props:
        for n in sizes:
            scenario = scenario_for_prop(prop, n)
            plan, seconds = timed(
                lambda: order_update(
                    scenario.topology,
                    scenario.init,
                    scenario.final,
                    scenario.ingresses,
                    scenario.spec,
                    timeout=timeout,
                )
            )
            slim = remove_waits(scenario.topology, scenario.init, plan, scenario.ingresses)
            rows.append(
                ScalingRow(
                    prop,
                    len(scenario.topology.switches),
                    plan.num_updates(),
                    seconds,
                    waits_before=slim.stats.waits_before_removal,
                    waits_after=slim.stats.waits_after_removal,
                    wait_seconds=slim.stats.wait_removal_seconds,
                    model_checks=plan.stats.model_checks,
                )
            )
    return rows


def fig8h_infeasible(
    sizes: Sequence[int] = (8, 16, 32, 64),
    timeout: float = 300.0,
) -> List[ScalingRow]:
    """Figure 8(h): time to report switch-granularity impossibility."""
    rows: List[ScalingRow] = []
    for n in sizes:
        scenario = double_diamond(n, seed=1)

        def attempt():
            try:
                order_update(
                    scenario.topology,
                    scenario.init,
                    scenario.final,
                    scenario.ingresses,
                    scenario.spec,
                    timeout=timeout,
                )
                return ""
            except UpdateInfeasibleError as err:
                return err.reason

        reason, seconds = timed(attempt)
        rows.append(
            ScalingRow(
                "infeasible",
                len(scenario.topology.switches),
                len(scenario.init.diff_switches(scenario.final)),
                seconds,
                feasible=not reason,
                reason=reason,
            )
        )
    return rows


def fig8i_rule_granularity(
    sizes: Sequence[int] = (8, 16, 32, 64),
    timeout: float = 600.0,
) -> List[ScalingRow]:
    """Figure 8(i): rule-granularity synthesis solves the 8(h) instances."""
    rows: List[ScalingRow] = []
    for n in sizes:
        scenario = double_diamond(n, seed=1)
        plan, seconds = timed(
            lambda: order_update(
                scenario.topology,
                scenario.init,
                scenario.final,
                scenario.ingresses,
                scenario.spec,
                granularity="rule",
                timeout=timeout,
            )
        )
        slim = remove_waits(scenario.topology, scenario.init, plan, scenario.ingresses)
        rows.append(
            ScalingRow(
                "rule-gran",
                len(scenario.topology.switches),
                plan.num_updates(),
                seconds,
                waits_before=slim.stats.waits_before_removal,
                waits_after=slim.stats.waits_after_removal,
                wait_seconds=slim.stats.wait_removal_seconds,
                model_checks=plan.stats.model_checks,
            )
        )
    return rows


def waits_summary(rows: Sequence[ScalingRow]) -> Dict[str, float]:
    """The §6 'Waits' paragraph: removal fraction and kept-wait counts."""
    total_before = sum(r.waits_before for r in rows)
    total_after = sum(r.waits_after for r in rows)
    return {
        "waits_before": total_before,
        "waits_after": total_after,
        "removed_fraction": (
            (total_before - total_after) / total_before if total_before else 0.0
        ),
        "max_kept": max((r.waits_after for r in rows), default=0),
        "max_wait_removal_seconds": max((r.wait_seconds for r in rows), default=0.0),
    }


# ----------------------------------------------------------------------
# Ablations: what each §4.2 optimization buys
# ----------------------------------------------------------------------
@dataclass
class AblationRow:
    variant: str
    seconds: float
    model_checks: int
    counterexamples: int
    backtracks: int
    completed: bool = True


#: the §4.2 optimizations, as keyword toggles for order_update
ABLATION_VARIANTS = {
    "full": {},
    "no-counterexamples": {"use_counterexamples": False},
    "no-early-termination": {"use_early_termination": False},
    "no-reachability-heuristic": {"use_reachability_heuristic": False},
    "no-cex-no-heuristic": {
        "use_counterexamples": False,
        "use_reachability_heuristic": False,
    },
}


def ablation_optimizations(
    n: int = 40,
    prop: str = "reachability",
    timeout: float = 60.0,
) -> List[AblationRow]:
    """Measure each search optimization's contribution on one workload.

    The paper motivates counterexample pruning ("greatly prunes the search
    space"), the SAT early termination, and the DFS heuristics; this driver
    quantifies them: disable one at a time and compare model-checker calls,
    backtracks, and wall time.
    """
    rows: List[AblationRow] = []
    for variant, toggles in ABLATION_VARIANTS.items():
        scenario = scenario_for_prop(prop, n)
        try:
            plan, seconds = timed(
                lambda: order_update(
                    scenario.topology,
                    scenario.init,
                    scenario.final,
                    scenario.ingresses,
                    scenario.spec,
                    timeout=timeout,
                    **toggles,
                )
            )
            rows.append(
                AblationRow(
                    variant,
                    seconds,
                    plan.stats.model_checks,
                    plan.stats.counterexamples,
                    plan.stats.backtracks,
                )
            )
        except SynthesisTimeout:
            rows.append(AblationRow(variant, timeout, 0, 0, 0, completed=False))
    return rows


def ablation_early_termination(
    sizes: Sequence[int] = (8, 16, 24),
    timeout: float = 120.0,
) -> List[AblationRow]:
    """Early termination on the infeasible instances: SAT proof vs exhaustion."""
    rows: List[AblationRow] = []
    for use_sat in (True, False):
        for n in sizes:
            scenario = double_diamond(n, seed=1)
            variant = f"{'sat' if use_sat else 'exhaustive'}-n{n}"

            def attempt():
                try:
                    order_update(
                        scenario.topology,
                        scenario.init,
                        scenario.final,
                        scenario.ingresses,
                        scenario.spec,
                        use_early_termination=use_sat,
                        timeout=timeout,
                    )
                except UpdateInfeasibleError:
                    return True
                except SynthesisTimeout:
                    return False
                return False

            completed, seconds = timed(attempt)
            rows.append(AblationRow(variant, seconds, 0, 0, 0, completed=completed))
    return rows
