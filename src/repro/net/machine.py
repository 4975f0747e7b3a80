"""The small-step operational network semantics (§3.1, Figure 3).

A chemical-abstract-machine-style model: the network state is a multiset of
elements — switches (with forwarding tables and buffered packet/port pairs),
directed links (with packet queues), and a controller (with a command list
and the current epoch).  Transitions:

* ``IN`` — a host admits a packet onto its access link, stamped with the
  controller's current epoch;
* ``PROCESS`` — a switch consumes the head packet of an incoming link and
  applies its table, buffering the outputs;
* ``FORWARD`` — a buffered output moves onto the adjacent link;
* ``OUT`` — a packet on a host-facing link leaves the network;
* ``UPDATE`` / ``INCR`` / ``FLUSH`` — controller commands (``wait`` is
  ``incr; flush``; ``FLUSH`` is enabled only when every in-flight packet
  carries the current epoch).

The machine records, per injected packet, the sequence of observations
``(sw, pt, pkt)`` it generates — the paper's single-packet traces — so specs
can be evaluated *dynamically* on executions and compared against the static
model-checking verdicts (Lemma 1 / Theorem 1 are tested this way).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ltl.atoms import StateView
from repro.net.commands import (
    Command,
    Flush,
    Incr,
    RuleGranUpdate,
    SwitchUpdate,
    expand_waits,
)
from repro.net.config import Configuration
from repro.net.fields import Packet, TrafficClass
from repro.net.rules import Table
from repro.net.topology import Location, NodeId, Port, Topology
from repro.kripke.structure import merge_class_rules


@dataclass
class _InFlight:
    """A packet in the network: payload + epoch stamp + trace identity."""

    packet: Packet
    epoch: int
    pid: int


@dataclass
class _SwitchEl:
    sw: NodeId
    table: Table
    buffered: List[Tuple[_InFlight, Port]] = field(default_factory=list)


@dataclass
class _LinkEl:
    """A *directed* link queue from ``src`` to ``dst`` (Figure 3's L)."""

    src: Location
    dst: Location
    queue: Deque[_InFlight] = field(default_factory=deque)


class NetworkMachine:
    """An executable instance of the paper's network model."""

    def __init__(self, topology: Topology, config: Configuration, seed: int = 0):
        self.topology = topology
        self._tables: Dict[NodeId, Table] = {
            sw: config.table(sw) for sw in topology.switches
        }
        self.switches: Dict[NodeId, _SwitchEl] = {
            sw: _SwitchEl(sw, self._tables[sw]) for sw in topology.switches
        }
        self.links: Dict[Tuple[Location, Location], _LinkEl] = {}
        for link in topology.links:
            a, b = link.endpoints()
            self.links[(a, b)] = _LinkEl(a, b)
            self.links[(b, a)] = _LinkEl(b, a)
        self.commands: List[Command] = []
        self.epoch = 0
        self.rng = random.Random(seed)
        self._next_pid = 0
        # per-packet observation traces (as StateViews) and outcomes
        self.traces: Dict[int, List[StateView]] = {}
        self.outcome: Dict[int, str] = {}  # "delivered" | "dropped" | in-flight
        self.delivered_at: Dict[int, NodeId] = {}
        self._tc_of: Dict[int, Optional[TrafficClass]] = {}

    # ------------------------------------------------------------------
    # configuration / inspection
    # ------------------------------------------------------------------
    def current_config(self) -> Configuration:
        return Configuration(self._tables)

    def set_commands(self, commands: Sequence[Command]) -> None:
        self.commands = expand_waits(commands)

    def in_flight_count(self) -> int:
        count = sum(len(link.queue) for link in self.links.values())
        count += sum(len(sw.buffered) for sw in self.switches.values())
        return count

    def _min_epoch(self) -> Optional[int]:
        epochs: List[int] = []
        for link in self.links.values():
            epochs.extend(p.epoch for p in link.queue)
        for sw in self.switches.values():
            epochs.extend(p.epoch for p, _ in sw.buffered)
        return min(epochs) if epochs else None

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def inject(self, host: NodeId, packet: Packet, tc: Optional[TrafficClass] = None) -> int:
        """The IN rule: admit ``packet`` at ``host``, stamped with the epoch."""
        if not self.topology.is_host(host):
            raise SimulationError(f"{host!r} is not a host")
        sw, pt = self.topology.attachment(host)
        link = self.links[((host, self.topology.port_to(host, sw)), (sw, pt))]
        pid = self._next_pid
        self._next_pid += 1
        flight = _InFlight(packet.with_epoch(self.epoch), self.epoch, pid)
        link.queue.append(flight)
        self.traces[pid] = []
        self.outcome[pid] = "in-flight"
        self._tc_of[pid] = tc
        return pid

    def _view(self, pid: int, node: NodeId, port: Optional[Port], dropped: bool = False) -> StateView:
        tc = self._tc_of.get(pid)
        if tc is None:
            # derive a degenerate class from the packet's own fields
            tc = TrafficClass(f"pid{pid}", ())
        return StateView(node, port, tc, dropped)

    def _step_process(self, link: _LinkEl) -> None:
        """PROCESS: switch consumes the head packet of ``link``."""
        flight = link.queue.popleft()
        sw_id, pt = link.dst
        switch = self.switches[sw_id]
        self.traces[flight.pid].append(self._view(flight.pid, sw_id, pt))
        outputs = switch.table.process(flight.packet, pt)
        if not outputs:
            self.traces[flight.pid].append(self._view(flight.pid, sw_id, pt, dropped=True))
            self.outcome[flight.pid] = "dropped"
            return
        for out_packet, out_port in outputs:
            switch.buffered.append(
                (_InFlight(out_packet, flight.epoch, flight.pid), out_port)
            )

    def _step_forward(self, switch: _SwitchEl, index: int) -> None:
        """FORWARD: move a buffered output onto its link."""
        flight, port = switch.buffered.pop(index)
        peer = self.topology.peer(switch.sw, port)
        if peer is None:
            # forwarding out an unwired port drops the packet silently
            self.traces[flight.pid].append(
                self._view(flight.pid, switch.sw, port, dropped=True)
            )
            self.outcome[flight.pid] = "dropped"
            return
        link = self.links[((switch.sw, port), peer)]
        link.queue.append(flight)

    def _step_out(self, link: _LinkEl) -> None:
        """OUT: a packet on a host-facing link leaves the network."""
        flight = link.queue.popleft()
        host, _ = link.dst
        self.traces[flight.pid].append(self._view(flight.pid, host, None))
        self.outcome[flight.pid] = "delivered"
        self.delivered_at[flight.pid] = host

    def _apply_table_update(self, command: Command) -> None:
        if isinstance(command, SwitchUpdate):
            self._tables[command.switch] = command.table
            self.switches[command.switch].table = command.table
        elif isinstance(command, RuleGranUpdate):
            old = self._tables[command.switch]
            merged = merge_class_rules(old, command.tc, command.table)
            self._tables[command.switch] = merged
            self.switches[command.switch].table = merged

    def step_controller(self) -> bool:
        """Execute the next controller command if enabled; True if it ran."""
        if not self.commands:
            return False
        command = self.commands[0]
        if isinstance(command, (SwitchUpdate, RuleGranUpdate)):
            self._apply_table_update(command)
        elif isinstance(command, Incr):
            self.epoch += 1
        elif isinstance(command, Flush):
            minimum = self._min_epoch()
            if minimum is not None and minimum < self.epoch:
                return False  # blocked until old packets drain
        self.commands.pop(0)
        return True

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _enabled_data_steps(self) -> List[Callable[[], None]]:
        steps: List[Callable[[], None]] = []
        for link in self.links.values():
            if not link.queue:
                continue
            dst_node, _ = link.dst
            if self.topology.is_host(dst_node):
                steps.append(lambda l=link: self._step_out(l))
            else:
                steps.append(lambda l=link: self._step_process(l))
        for switch in self.switches.values():
            for index in range(len(switch.buffered)):
                steps.append(lambda s=switch, i=index: self._step_forward(s, i))
        return steps

    def step(self, allow_controller: bool = True) -> bool:
        """Perform one randomly chosen enabled transition; False if none."""
        steps = self._enabled_data_steps()
        if allow_controller and self.commands:
            steps.append(lambda: self.step_controller() or None)
        if not steps:
            return False
        self.rng.choice(steps)()
        return True

    def run(self, max_steps: int = 100000, allow_controller: bool = True) -> int:
        """Run random steps until quiescent or budget exhausted."""
        executed = 0
        while executed < max_steps and self.step(allow_controller):
            executed += 1
        return executed

    def drain(self, max_steps: int = 100000) -> None:
        """Process data-plane steps only, until no packet is in flight."""
        executed = 0
        while self.in_flight_count() > 0:
            if executed >= max_steps:
                raise SimulationError("drain did not quiesce (forwarding loop?)")
            steps = self._enabled_data_steps()
            if not steps:
                raise SimulationError("stuck packets with no enabled step")
            self.rng.choice(steps)()
            executed += 1

    def run_commands_carefully(self, interleave: Callable[[], None] = lambda: None) -> None:
        """Execute all controller commands, draining around FLUSH correctly.

        ``interleave`` is called between commands and may inject traffic —
        used by tests to exercise packets that cross an update boundary.
        """
        budget = 1000000
        interleave()
        while self.commands:
            if budget <= 0:
                raise SimulationError("command execution did not terminate")
            budget -= 1
            if self.step_controller():
                # a command executed; let the caller inject traffic that will
                # straddle the boundary between commands
                interleave()
                continue
            # FLUSH blocked: make progress on the data plane
            steps = self._enabled_data_steps()
            if not steps:
                raise SimulationError("flush blocked but no data step enabled")
            self.rng.choice(steps)()
        self.drain()

    # ------------------------------------------------------------------
    def completed_traces(self) -> Dict[int, List[StateView]]:
        """Traces of packets that were delivered or dropped."""
        return {
            pid: trace
            for pid, trace in self.traces.items()
            if self.outcome[pid] in ("delivered", "dropped") and trace
        }
