"""Controller update strategies driven against the tick simulator.

Three disciplines, as in Figure 2:

* :class:`NaiveStrategy` — walk the switches in an arbitrary (sorted) order
  and replace each table with no synchronization: transient blackholes.
* :class:`OrderedStrategy` — execute a synthesized :class:`UpdatePlan`:
  per-switch updates in the synthesized order, honoring ``wait`` barriers
  (a wait completes when every probe in flight at its start has left).
* :class:`TwoPhaseStrategy` — the consistent-update baseline: install
  version-2 rules everywhere, barrier, flip ingress stamping, wait for the
  flush, then garbage-collect version-1 rules.

:func:`run_update_experiment` runs one strategy under continuous probing and
returns the probe statistics and rule-overhead profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kripke.structure import merge_class_rules
from repro.net.commands import Command, RuleGranUpdate, SwitchUpdate, Wait, is_update
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.topology import NodeId, Topology
from repro.runtime.openflow import FlowMod
from repro.runtime.simulator import ProbeStats, TickSimulator
from repro.runtime import twophase
from repro.synthesis.plan import UpdatePlan


class Strategy:
    """A controller update discipline stepped once per simulator tick."""

    name = "strategy"

    def start(self, sim: TickSimulator) -> None:  # pragma: no cover - hook
        pass

    def step(self, sim: TickSimulator) -> None:  # pragma: no cover - hook
        pass

    def done(self, sim: TickSimulator) -> bool:  # pragma: no cover - hook
        raise NotImplementedError


class NaiveStrategy(Strategy):
    """Sequential per-switch replacement with no ordering or waits."""

    name = "naive"

    def __init__(self, final: Configuration, order: Optional[Sequence[NodeId]] = None):
        self.final = final
        self.order = list(order) if order is not None else None
        self._remaining: List[NodeId] = []
        self._current: Optional[NodeId] = None

    def start(self, sim: TickSimulator) -> None:
        touched = sorted(
            {
                sw
                for sw in sim.agents
                if sim.agents[sw].table != self.final.table(sw)
            }
        )
        self._remaining = self.order if self.order is not None else touched
        self._remaining = [s for s in self._remaining if s in sim.agents]
        self._current = None

    def step(self, sim: TickSimulator) -> None:
        if self._current is not None and not sim.agents[self._current].barrier_done():
            return
        if self._remaining:
            self._current = self._remaining.pop(0)
            sim.agents[self._current].enqueue_atomic_replacement(
                self.final.table(self._current)
            )

    def done(self, sim: TickSimulator) -> bool:
        return not self._remaining and sim.control_quiescent()


class OrderedStrategy(Strategy):
    """Executes a synthesized plan, treating ``wait`` as an in-flight flush."""

    name = "ordering"

    def __init__(self, plan: UpdatePlan, final: Configuration):
        self.plan = plan
        self.final = final
        self._commands: List[Command] = []
        self._wait_started: Optional[int] = None
        self._installing: Optional[NodeId] = None

    def start(self, sim: TickSimulator) -> None:
        self._commands = list(self.plan.commands)
        self._wait_started = None
        self._installing = None

    def _apply_update(self, sim: TickSimulator, command: Command) -> None:
        agent = sim.agents[command.switch]
        if isinstance(command, SwitchUpdate):
            agent.enqueue_atomic_replacement(command.table)
        elif isinstance(command, RuleGranUpdate):
            agent.enqueue_atomic_replacement(
                merge_class_rules(agent.table, command.tc, command.table)
            )
        self._installing = command.switch

    def step(self, sim: TickSimulator) -> None:
        if self._installing is not None:
            if not sim.agents[self._installing].barrier_done():
                return
            self._installing = None
        if self._wait_started is not None:
            oldest = sim.oldest_inflight_sent_tick()
            if oldest is not None and oldest < self._wait_started:
                return  # packets from before the wait are still in flight
            self._wait_started = None
        if not self._commands:
            return
        command = self._commands.pop(0)
        if isinstance(command, Wait):
            self._wait_started = sim.tick_now
        elif is_update(command):
            self._apply_update(sim, command)

    def done(self, sim: TickSimulator) -> bool:
        return (
            not self._commands
            and self._installing is None
            and self._wait_started is None
            and sim.control_quiescent()
        )


class TwoPhaseStrategy(Strategy):
    """Consistent two-phase update with version stamping [33]."""

    name = "two-phase"

    def __init__(
        self,
        topology: Topology,
        init: Configuration,
        final: Configuration,
        flows: Mapping[TrafficClass, Tuple[NodeId, NodeId]],
    ):
        self.topology = topology
        self.init = init
        self.final = final
        self.flows = dict(flows)
        self._phase = 0
        self._wait_started: Optional[int] = None

    def start(self, sim: TickSimulator) -> None:
        self._phase = 0
        self._wait_started = None

    def step(self, sim: TickSimulator) -> None:
        if self._phase == 0:
            # phase 1: install v2 rules everywhere (TCAM doubles here)
            for switch, rules in twophase.versioned_rules(self.final).items():
                agent = sim.agents[switch]
                for rule in rules:
                    agent.enqueue(FlowMod("add", rule))
            self._phase = 1
        elif self._phase == 1:
            if sim.control_quiescent():
                # phase 2: flip ingress stamping
                stamps = twophase.stamping_rules(self.topology, self.final, self.flows)
                for switch, rules in stamps.items():
                    for rule in rules:
                        sim.agents[switch].enqueue(FlowMod("add", rule))
                self._phase = 2
        elif self._phase == 2:
            if sim.control_quiescent():
                self._wait_started = sim.tick_now
                self._phase = 3
        elif self._phase == 3:
            # the one wait two-phase needs: drain unstamped packets
            oldest = sim.oldest_inflight_sent_tick()
            if oldest is None or oldest >= (self._wait_started or 0):
                for switch in self.init.switches():
                    agent = sim.agents[switch]
                    for rule in self.init.table(switch):
                        agent.enqueue(FlowMod("remove", rule))
                self._phase = 4

    def done(self, sim: TickSimulator) -> bool:
        return self._phase == 4 and sim.control_quiescent()


@dataclass
class ExperimentResult:
    strategy: str
    stats: ProbeStats
    overhead: Dict[NodeId, float]
    ticks: int

    def loss_fraction(self) -> float:
        lost, sent = self.stats.loss_window()
        return lost / sent if sent else 0.0


def run_update_experiment(
    topology: Topology,
    init: Configuration,
    final: Configuration,
    flows: Mapping[TrafficClass, Tuple[NodeId, NodeId]],
    strategy: Strategy,
    *,
    warmup_ticks: int = 30,
    cooldown_ticks: int = 60,
    install_latency: int = 3,
    max_ticks: int = 5000,
) -> ExperimentResult:
    """Probe continuously while ``strategy`` performs the update."""
    sim = TickSimulator(topology, init, flows, install_latency=install_latency)
    sim.run(warmup_ticks)
    strategy.start(sim)
    while not strategy.done(sim):
        strategy.step(sim)
        sim.step()
        if sim.tick_now > max_ticks:
            raise RuntimeError(f"strategy {strategy.name} did not converge")
    sim.run(cooldown_ticks)
    sim.drain()
    return ExperimentResult(
        strategy=strategy.name,
        stats=sim.stats,
        overhead=sim.rule_overhead(init, final),
        ticks=sim.tick_now,
    )
