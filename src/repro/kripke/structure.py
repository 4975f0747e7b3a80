"""Network Kripke structures with incremental updates (Definition 9, §5.2).

A static configuration induces a Kripke structure whose states are packet
locations per traffic class:

* ``loc`` states ``(sw, pt, tc)`` — a packet of class ``tc`` arriving at
  switch ``sw`` on port ``pt``;
* ``host`` states ``(h, tc)`` — delivered packets (sink, self-loop);
* ``drop`` states ``(sw, pt, tc)`` — blackholed packets (sink, self-loop,
  labeled with the ``dropped`` atom).

The structure is *DAG-like*: the only cycles are self-loops on sinks.  A
forwarding loop in the configuration manifests as a non-trivial cycle and is
reported via :class:`~repro.errors.ForwardingLoopError` (the paper's tool
"automatically detects/rejects such configurations").

States are created lazily (only locations reachable in some configuration
encountered so far exist) and are never removed, so the state set ``Q`` is
stable across updates, as §5.2 requires.  :meth:`KripkeStructure.update_switch`
implements ``swUpdate``: it recomputes the transitions of the updated
switch's states and returns the set of *dirty* states (changed or newly
created) that an incremental checker must relabel.

Every update costs what it changes, not the size of the structure:

* loc states are indexed by switch (``_at``, in creation order), so an
  update finds the states it retargets without scanning ``Q``;
* each state counts its reachable predecessors, plus one per ingress it is
  the entry of; a state is reachable iff its count is positive.  After an
  update passes the loop check, each retargeted reachable state gains its
  new successors and then loses its old ones, and only 0<->1 transitions
  propagate further.  Reference counting is exact on a DAG.  Each class
  keeps ``{switch: reachable loc-state count}``, so
  :meth:`KripkeStructure.reachable_switches` is a read of its keys;
* an update that creates a forwarding loop is rolled back before it
  touches ranks or counts: the previous configuration, the old transitions
  and the state set come back, and the loop is raised.  So a loop never
  leaves stale counts or half-built states behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError, ForwardingLoopError
from repro.net.config import Configuration, next_hops
from repro.net.fields import TrafficClass
from repro.net.rules import Table
from repro.net.topology import NodeId, Port, Topology


@dataclass(frozen=True)
class KState:
    """A Kripke state: a packet location for one traffic class.

    Provides the state-view attributes (``node``, ``port``, ``tc``,
    ``dropped``) that atomic propositions evaluate against.
    """

    kind: str  # "loc" | "host" | "drop"
    node: NodeId
    port: Optional[Port]
    tc: TrafficClass

    def __hash__(self) -> int:
        # states are hashed millions of times as dict keys across the label
        # maps and pred sets; cache the (immutable) hash
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.kind, self.node, self.port, self.tc))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # drop the cached hash: it is salt-specific to this process
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    @property
    def dropped(self) -> bool:
        return self.kind == "drop"

    @property
    def is_sink(self) -> bool:
        return self.kind in ("host", "drop")

    def __str__(self) -> str:
        if self.kind == "host":
            return f"<{self.tc.name}@host:{self.node}>"
        if self.kind == "drop":
            return f"<{self.tc.name}@DROP:{self.node}:{self.port}>"
        return f"<{self.tc.name}@{self.node}:{self.port}>"


def _loc(sw: NodeId, pt: Port, tc: TrafficClass) -> KState:
    return KState("loc", sw, pt, tc)


def _host(h: NodeId, tc: TrafficClass) -> KState:
    return KState("host", h, None, tc)


def _drop(sw: NodeId, pt: Port, tc: TrafficClass) -> KState:
    return KState("drop", sw, pt, tc)


class KripkeStructure:
    """A mutable, incrementally-updatable network Kripke structure.

    Args:
        topology: the network wiring.
        config: the initial static configuration.
        ingresses: for each traffic class, the hosts where its packets enter
            the network.  The initial Kripke states are the switch ports those
            hosts attach to.
    """

    def __init__(
        self,
        topology: Topology,
        config: Configuration,
        ingresses: Mapping[TrafficClass, Sequence[NodeId]],
    ):
        self.topology = topology
        self._config = config
        self._ingresses: Dict[TrafficClass, Tuple[NodeId, ...]] = {
            tc: tuple(hosts) for tc, hosts in ingresses.items()
        }
        self._succ: Dict[KState, Tuple[KState, ...]] = {}
        self._preds: Dict[KState, Set[KState]] = {}
        self._rank: Dict[KState, int] = {}
        # loc states per switch, in creation order
        self._at: Dict[NodeId, List[KState]] = {}
        self._initial: List[KState] = []
        for tc, hosts in self._ingresses.items():
            for host in hosts:
                sw, pt = topology.attachment(host)
                state = _loc(sw, pt, tc)
                self._initial.append(state)
        self._build_from(self._initial, [])
        self._count_reach()

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    @property
    def config(self) -> Configuration:
        return self._config

    @property
    def initial_states(self) -> Tuple[KState, ...]:
        return tuple(self._initial)

    @property
    def traffic_classes(self) -> Tuple[TrafficClass, ...]:
        return tuple(self._ingresses)

    def states(self) -> Iterable[KState]:
        return self._succ.keys()

    def num_states(self) -> int:
        return len(self._succ)

    def succ(self, state: KState) -> Tuple[KState, ...]:
        return self._succ[state]

    def preds(self, state: KState) -> FrozenSet[KState]:
        return frozenset(self._preds.get(state, ()))

    def rank(self, state: KState) -> int:
        return self._rank[state]

    def is_sink(self, state: KState) -> bool:
        return self._succ[state] == (state,)

    def __contains__(self, state: KState) -> bool:
        return state in self._succ

    # ------------------------------------------------------------------
    # transition computation
    # ------------------------------------------------------------------
    def _compute_succ(self, state: KState) -> Tuple[KState, ...]:
        """Successors of ``state`` under the current configuration."""
        if state.is_sink:
            return (state,)
        hops = next_hops(self.topology, self._config, state.node, state.tc, state.port)
        if not hops:
            return (_drop(state.node, state.port, state.tc),)
        out: List[KState] = []
        for node, port, out_tc in hops:
            if out_tc.fields != state.tc.fields:
                raise ConfigurationError(
                    "packet rewrites across traffic classes are not supported "
                    f"(rule on {state.node!r} rewrites {state.tc} to {out_tc})"
                )
            if self.topology.is_host(node):
                out.append(_host(node, state.tc))
            else:
                out.append(_loc(node, port, state.tc))
        return tuple(out)

    def _build_from(self, seeds: Iterable[KState], created: List[KState]) -> None:
        """Create all states reachable from ``seeds`` that do not exist yet.

        Iterative DFS with cycle detection; newly created states get ranks
        computed post-order.  Created states are appended to ``created``,
        also when a loop aborts the walk, so the caller can forget them.
        """
        on_stack: Set[KState] = set()
        # stack entries: (state, child_index); succ computed on first visit
        stack: List[List] = []
        order: List[KState] = []  # post-order of created states

        def enter(state: KState) -> None:
            if state in self._succ:
                return
            succ = self._compute_succ(state)
            self._succ[state] = succ
            created.append(state)
            if state.kind == "loc":
                self._at.setdefault(state.node, []).append(state)
            self._preds.setdefault(state, set())
            for child in succ:
                self._preds.setdefault(child, set()).add(state)
            on_stack.add(state)
            stack.append([state, 0])

        for seed in seeds:
            if seed in self._succ:
                continue
            enter(seed)
            while stack:
                frame = stack[-1]
                state, child_index = frame
                succ = self._succ[state]
                if child_index < len(succ):
                    frame[1] += 1
                    child = succ[child_index]
                    if child is state:
                        continue  # sink self-loop
                    if child in on_stack:
                        cycle = self._extract_cycle(stack, child)
                        raise ForwardingLoopError(
                            f"forwarding loop for class {state.tc.name}", cycle
                        )
                    if child not in self._succ:
                        enter(child)
                else:
                    stack.pop()
                    on_stack.discard(state)
                    order.append(state)
        for state in order:
            self._recompute_rank(state)

    @staticmethod
    def _extract_cycle(stack: List[List], entry: KState) -> List[KState]:
        cycle = [entry]
        for frame in reversed(stack):
            cycle.append(frame[0])
            if frame[0] is entry or frame[0] == entry:
                break
        cycle.reverse()
        return cycle

    def _recompute_rank(self, state: KState) -> bool:
        """Recompute ``state``'s rank; True if it changed."""
        succ = self._succ[state]
        if succ == (state,):
            new_rank = 0
        else:
            new_rank = 1 + max(self._rank[s] for s in succ)
        if self._rank.get(state) == new_rank:
            return False
        self._rank[state] = new_rank
        return True

    def _propagate_ranks(self, seeds: Iterable[KState]) -> None:
        worklist = list(seeds)
        seen_rounds = 0
        limit = 4 * (len(self._succ) + 1) * (len(self._succ) + 1)
        while worklist:
            seen_rounds += 1
            if seen_rounds > limit:  # pragma: no cover - defensive
                raise ForwardingLoopError("rank propagation did not converge")
            state = worklist.pop()
            if self._recompute_rank(state):
                worklist.extend(self._preds.get(state, ()))

    # ------------------------------------------------------------------
    # cycle detection after an update
    # ------------------------------------------------------------------
    def _check_acyclic_from(self, seeds: Iterable[KState]) -> None:
        """DFS from ``seeds``; raise ForwardingLoopError on a cycle."""
        color: Dict[KState, int] = {}  # 1 = on stack, 2 = done
        for seed in seeds:
            if color.get(seed) == 2:
                continue
            stack: List[List] = [[seed, 0]]
            color[seed] = 1
            while stack:
                frame = stack[-1]
                state, child_index = frame
                succ = self._succ[state]
                if child_index < len(succ):
                    frame[1] += 1
                    child = succ[child_index]
                    if child == state:
                        continue
                    child_color = color.get(child, 0)
                    if child_color == 1:
                        cycle = [child] + [f[0] for f in stack[[f[0] for f in stack].index(child):]]
                        raise ForwardingLoopError(
                            f"forwarding loop for class {state.tc.name}", cycle
                        )
                    if child_color == 0:
                        color[child] = 1
                        stack.append([child, 0])
                else:
                    stack.pop()
                    color[state] = 2

    # ------------------------------------------------------------------
    # updates (the paper's swUpdate)
    # ------------------------------------------------------------------
    def update_switch(self, switch: NodeId, table: Table) -> List[KState]:
        """Replace ``switch``'s table; return the dirty states.

        Dirty states are the existing ``loc`` states of ``switch`` whose
        outgoing transitions changed, plus any newly created states.  If the
        new configuration contains a forwarding loop, the update is rolled
        back (configuration, transitions, ranks, created states) and
        :class:`ForwardingLoopError` is raised; reverting to the old table
        afterwards is then a no-op.
        """
        previous = self._config
        self._config = previous.with_table(switch, table)
        return self._retarget(list(self._at.get(switch, ())), previous)

    def update_class_rules(
        self, switch: NodeId, tc: TrafficClass, class_table: Table
    ) -> List[KState]:
        """Rule-granularity update: replace only ``tc``'s rules on ``switch``.

        ``class_table`` supplies the new rules for the class; rules of other
        classes on the switch are kept.
        """
        previous = self._config
        old = previous.table(switch)
        kept = old.restrict(lambda r: not rule_covers_class(r, tc))
        new_rules = [r for r in class_table if rule_covers_class(r, tc)]
        merged = Table(tuple(kept) + tuple(new_rules))
        self._config = previous.with_table(switch, merged)
        affected = [s for s in self._at.get(switch, ()) if s.tc == tc]
        return self._retarget(affected, previous)

    def _retarget(
        self, affected: Sequence[KState], previous: Configuration
    ) -> List[KState]:
        """Recompute transitions of ``affected``; return dirty states.

        If the update fails (a forwarding loop, or a rewrite across classes)
        the structure is restored, configuration ``previous`` included,
        before the error propagates.
        """
        dirty: List[KState] = []
        changed: List[Tuple[KState, Tuple[KState, ...]]] = []  # (state, old succ)
        created: List[KState] = []
        try:
            for state in affected:
                new_succ = self._compute_succ(state)
                old_succ = self._succ[state]
                if new_succ == old_succ:
                    continue
                self._relink(state, old_succ, new_succ)
                changed.append((state, old_succ))
                dirty.append(state)
                start = len(created)
                self._build_from([c for c in new_succ if c not in self._succ], created)
                dirty.extend(created[start:])
            if changed:
                # a loop, if any, must pass through a changed state
                self._check_acyclic_from([state for state, _ in changed])
        except (ConfigurationError, ForwardingLoopError):
            for state, old_succ in reversed(changed):
                self._relink(state, self._succ[state], old_succ)
            self._forget(created)
            self._config = previous
            raise
        if changed:
            self._propagate_ranks([state for state, _ in changed])
            self._recount(changed)
        return dirty

    def _relink(
        self, state: KState, old: Tuple[KState, ...], new: Tuple[KState, ...]
    ) -> None:
        """Point ``state`` at ``new`` instead of ``old`` (succ and preds)."""
        for child in old:
            if child != state:
                self._unlink(state, child)
        self._succ[state] = new
        for child in new:
            if child != state:
                self._preds.setdefault(child, set()).add(state)

    def _unlink(self, parent: KState, child: KState) -> None:
        preds = self._preds.get(child)
        if preds is None:
            return
        preds.discard(parent)
        if not preds and child not in self._succ:
            del self._preds[child]  # a successor a failed build never entered

    def _forget(self, created: Sequence[KState]) -> None:
        """Remove states created by a failed update, with their edges."""
        for state in created:
            for child in self._succ.pop(state):
                self._unlink(state, child)
        for state in created:
            self._preds.pop(state, None)
            self._rank.pop(state, None)
            if state.kind == "loc":
                at = self._at[state.node]
                at.remove(state)
                if not at:
                    del self._at[state.node]

    # ------------------------------------------------------------------
    # reachability by reference count
    # ------------------------------------------------------------------
    def _count_reach(self) -> None:
        """Count every state's reachable predecessors from scratch.

        Construction is the only caller: updates move the counts in
        :meth:`_recount`, and a failed update never touches them.
        """
        # reachable states -> reachable predecessors + ingress entries
        self._refs: Dict[KState, int] = {}
        # per class: switch -> number of its reachable loc states
        self._reach: Dict[TrafficClass, Dict[NodeId, int]] = {
            tc: {} for tc in self._ingresses
        }
        for state in self._initial:
            self._shift(state, 1)

    def _recount(self, changed: Sequence[Tuple[KState, Tuple[KState, ...]]]) -> None:
        """Move the reach counts from the old transitions to the new ones.

        Edges change one at a time: ``edges`` holds a retargeted state's
        successors as counted so far, so propagation through a state whose
        turn has not come (or is under way) follows what its count reflects.
        """
        edges = {state: list(old) for state, old in changed}
        for state, old in changed:
            counted = edges[state]
            for child in self._succ[state]:
                counted.append(child)
                if state in self._refs:
                    self._shift(child, 1, edges)
            for child in old:
                counted.remove(child)
                if state in self._refs:
                    self._shift(child, -1, edges)
            del edges[state]

    def _shift(
        self,
        state: KState,
        delta: int,
        edges: Optional[Mapping[KState, List[KState]]] = None,
    ) -> None:
        """Add ``delta`` (+1 or -1) to ``state``'s reach count.

        A 0<->1 transition (the state becomes reachable or unreachable)
        carries on to its successors.
        """
        refs = self._refs
        turn = 1 if delta > 0 else 0
        stack = [state]
        while stack:
            state = stack.pop()
            count = refs.get(state, 0) + delta
            if count:
                refs[state] = count
            else:
                del refs[state]
            if count != turn:
                continue
            if state.kind == "loc":
                per_switch = self._reach[state.tc]
                held = per_switch.get(state.node, 0) + delta
                if held:
                    per_switch[state.node] = held
                else:
                    del per_switch[state.node]
            succ = edges[state] if edges and state in edges else self._succ[state]
            stack.extend(child for child in succ if child is not state)

    # ------------------------------------------------------------------
    # path enumeration (for the reference semantics and tests)
    # ------------------------------------------------------------------
    def maximal_paths(self, limit: int = 100000) -> List[List[KState]]:
        """All maximal simple paths from initial states to sinks.

        Exponential in general; intended for tests and small examples only.
        """
        paths: List[List[KState]] = []

        def walk(state: KState, acc: List[KState]) -> None:
            if len(paths) >= limit:
                return
            acc.append(state)
            if self.is_sink(state):
                paths.append(list(acc))
            else:
                for child in self._succ[state]:
                    walk(child, acc)
            acc.pop()

        for init in self._initial:
            walk(init, [])
        return paths

    def reachable_switches(self, tc: TrafficClass) -> FrozenSet[NodeId]:
        """Switches reachable by class ``tc`` in the current configuration."""
        return frozenset(self._reach.get(tc, ()))

    def __str__(self) -> str:
        return (
            f"KripkeStructure({self.num_states()} states, "
            f"{len(self._initial)} initial, {len(self._ingresses)} classes)"
        )


def rule_covers_class(rule, tc: TrafficClass) -> bool:
    """Does ``rule`` apply to packets of class ``tc``?

    A rule covers a class when its field constraints are consistent with the
    class's fields (field-wildcard rules cover every class).
    """
    tc_fields = tc.field_map()
    for key, value in rule.pattern.fields:
        if key in tc_fields and tc_fields[key] != value:
            return False
    return True
