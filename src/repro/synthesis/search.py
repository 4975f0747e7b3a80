"""The ORDERUPDATE synthesis algorithm (§4.1, Figure 4).

Depth-first search over simple update sequences (each unit updated at most
once), model checking every intermediate configuration with a pluggable
backend, and pruning with:

* ``V`` — configurations already visited (memoized subsets);
* ``W`` — wrong-configuration patterns learned from counterexamples
  (:mod:`repro.synthesis.pruning`, §4.2.A);
* early termination — ordering constraints checked after every
  counterexample against a witness order, with an incremental SAT solver
  behind it (:mod:`repro.synthesis.ordering`, §4.2.B);
* a reachability heuristic that tries currently-unreachable switches first
  (they can never break a trace-based property);
* the cross-candidate verdict memo (:mod:`repro.perf`) — model-checker
  verdicts keyed by reached-state fingerprint, shared across sibling
  branches (and, via the batch service, across jobs on the same topology
  and spec), plus dominance pruning that replays stored refuted
  counterexample traces to skip provably-violating candidates without a
  checker call.

Backtracking re-applies the previous table, which is just another
incremental update, so the checker's labeling stays warm in both directions.
The algorithm is sound (Theorem 1) and complete for simple careful sequences
(Theorem 2); both are exercised by the test suite.  All pruning — including
the memo — only ever rejects configurations an exact checker would also
reject, so the accepted unit sequence (and hence the plan) is identical
with and without memoization.

The search attributes its wall time to phases (labeling, SAT ordering, memo
probes) in :class:`~repro.synthesis.plan.SearchStats`; the ``repro profile``
harness aggregates these per suite.

The order space can also be *sharded* (:class:`SearchShard`): each shard
explores only the orders starting with its round-robin slice of the unit
list, so the batch service can race disjoint slices of one hard job across
its worker pool (``repro batch --shards N``) and take the first plan found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ForwardingLoopError, SynthesisTimeout, UpdateInfeasibleError
from repro.kripke.structure import KripkeStructure, rule_covers_class
from repro.ltl.syntax import Formula
from repro.mc.incremental import IncrementalChecker
from repro.mc.interface import make_checker
from repro.mc.labeling import LabelEngine
from repro.net.commands import Command, RuleGranUpdate, SwitchUpdate, Wait
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Table
from repro.net.topology import NodeId, Topology
from repro.perf.fingerprint import reached_class_component, reached_state_key
from repro.perf.memo import VerdictMemo
from repro.synthesis.ordering import OrderingConstraints
from repro.synthesis.plan import SearchStats, UpdatePlan
from repro.synthesis.pruning import WrongConfigs, make_formula

Unit = Hashable


@dataclass(frozen=True)
class SearchShard:
    """One disjoint slice of the command-order search space.

    Every simple update sequence is determined by its first unit, so
    partitioning the deterministic unit list by first unit partitions the
    whole space: shard ``index`` of ``total`` owns exactly the orders whose
    first unit is ``units[index::total]``.  Shards are raced on the batch
    service's worker pool (``repro batch --shards N``): any shard finding a
    plan settles the job, while "my slice is exhausted" (an
    :class:`~repro.errors.UpdateInfeasibleError` with ``reason="shard"``)
    proves global infeasibility only once *every* shard reports it.
    Endpoint violations and SAT early termination (``reason="sat"``) remain
    global proofs and settle the race immediately.

    >>> sorted(SearchShard(1, 2).first_units(["a", "b", "c", "d"]))
    ['b', 'd']
    >>> left = SearchShard(0, 2).first_units(["a", "b", "c", "d"])
    >>> right = SearchShard(1, 2).first_units(["a", "b", "c", "d"])
    >>> left & right
    set()
    """

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"shard total must be >= 1, got {self.total}")
        if not 0 <= self.index < self.total:
            raise ValueError(
                f"shard index must be in [0, {self.total}), got {self.index}"
            )

    def first_units(self, units: Sequence[Unit]) -> Set[Unit]:
        """The first-step units this shard owns (round-robin slice)."""
        return set(units[self.index :: self.total])


@dataclass
class Handover:
    """What one search passes to the next on the same problem stream: the
    paper's incremental checking (§5) carried across jobs.

    The structures travel inside their :class:`IncrementalChecker`, which
    holds the structure, every state's label, and the engine that computed
    them; a checker handed over has labeled all of its structure, with a
    verdict of ``ok``.

    In: ``engine`` is a :class:`LabelEngine` built for the *same* spec
    object, reused with its closure program and its atom and mask memos.
    ``start`` is the initial configuration's checker; the search runs on
    it instead of building and labeling ``init``.  The search mutates it, so
    one ``start`` serves one search, and it needs the ``incremental``
    checker.

    Out: the search sets ``final`` to the final configuration's checker
    once the endpoint check has verified it.  It stays ``None`` when a
    memoized verdict answered that check, since nothing was labeled.
    """

    engine: Optional[LabelEngine] = None
    start: Optional[IncrementalChecker] = None
    final: Optional[IncrementalChecker] = None


def _class_table(table: Table, tc: TrafficClass) -> Table:
    return table.restrict(lambda r: rule_covers_class(r, tc))


def _compute_units(
    init: Configuration,
    final: Configuration,
    classes: Sequence[TrafficClass],
    granularity: str,
) -> List[Unit]:
    diff = sorted(init.diff_switches(final))
    if granularity == "switch":
        return list(diff)
    if granularity != "rule":
        raise ValueError(f"unknown granularity {granularity!r}")
    units: List[Unit] = []
    for switch in diff:
        for tc in classes:
            if _class_table(init.table(switch), tc) != _class_table(
                final.table(switch), tc
            ):
                units.append((switch, tc.name))
    return units


def _infeasible(message: str, stats: SearchStats, reason: str = "search"):
    err = UpdateInfeasibleError(message, reason=reason)
    err.stats = stats  # let harnesses (repro profile) read the phase timers
    return err


def order_update(
    topology: Topology,
    init: Configuration,
    final: Configuration,
    ingresses: Mapping[TrafficClass, Sequence[NodeId]],
    spec: Formula,
    *,
    checker: str = "incremental",
    granularity: str = "switch",
    use_counterexamples: bool = True,
    use_early_termination: bool = True,
    use_reachability_heuristic: bool = True,
    timeout: Optional[float] = None,
    memo: Optional[VerdictMemo] = None,
    shard: Optional[SearchShard] = None,
    warm_order: Optional[Sequence[Unit]] = None,
    handover: Optional[Handover] = None,
) -> UpdatePlan:
    """Synthesize a careful update sequence from ``init`` to ``final``.

    Returns an :class:`UpdatePlan` whose commands transform ``init`` into
    ``final`` such that every intermediate configuration satisfies ``spec``.
    Raises :class:`UpdateInfeasibleError` if no simple careful sequence
    exists, :class:`SynthesisTimeout` on budget exhaustion.

    ``memo`` is an optional :class:`~repro.perf.memo.VerdictMemo` scoped to
    this (topology, ingresses, spec); passing one memo to several searches
    shares verdicts across them.  Memoization is verdict-preserving: the
    synthesized plan is identical with ``memo=None``.

    ``shard`` restricts the search to one :class:`SearchShard` slice of the
    order space (first-unit partition).  A sharded search that exhausts its
    slice raises :class:`UpdateInfeasibleError` with ``reason="shard"`` —
    *not* a global infeasibility proof; endpoint violations and SAT early
    termination keep their global reasons.

    ``warm_order`` warm-starts the search from a previous plan's unit order
    (see :meth:`~repro.synthesis.plan.UpdatePlan.unit_order`): while the
    DFS path still follows the warm prefix, the base plan's next unit is
    tried first in each candidate frame.  Units the current problem does
    not update are skipped, and the moment the path deviates — the hinted
    unit is refuted, pruned, or absent — the ordinary heuristic order takes
    over with all learned state intact, so a stale hint degrades to a cold
    search rather than failing.  Warm starting only changes the order
    candidates are *tried* in; every accepted sequence is still verified
    step by step, so the plan is correct regardless of the hint's quality.

    ``handover`` lends the search a label engine and a labeled start
    structure from an earlier search, and receives this search's labeled
    final structure (see :class:`Handover`).  A start structure must hold
    exactly ``init`` under this ``topology`` and ``ingresses``; it skips
    one Kripke build and one full check, and the search that follows is
    the one a fresh structure would get.
    """
    start = time.monotonic()
    stats = SearchStats()
    classes = list(ingresses)
    class_by_name: Dict[str, TrafficClass] = {tc.name: tc for tc in classes}

    def check_deadline() -> None:
        if timeout is not None and time.monotonic() - start > timeout:
            err = SynthesisTimeout(f"synthesis exceeded {timeout}s budget")
            err.stats = stats
            raise err

    units = _compute_units(init, final, classes, granularity)
    all_units: FrozenSet[Unit] = frozenset(units)
    # _compute_units is deterministic (sorted diff), so every shard of a
    # race computes the same list and the first-unit slices are disjoint
    shard_first: Optional[Set[Unit]] = (
        shard.first_units(units) if shard is not None else None
    )
    if shard is not None:
        stats.shards = shard.total

    # warm start: the base plan's order, restricted to units this problem
    # actually updates (a patch may have added or removed some)
    warm_units: List[Unit] = []
    if warm_order:
        seen_warm: Set[Unit] = set()
        for warm_unit in warm_order:
            if isinstance(warm_unit, list):  # wire form of a rule-gran unit
                warm_unit = tuple(warm_unit)
            if warm_unit in all_units and warm_unit not in seen_warm:
                warm_units.append(warm_unit)
                seen_warm.add(warm_unit)
        stats.warm_units = len(warm_units)

    # one labeling engine for both endpoint checks and the whole search:
    # engines are structure-independent and carry the atom/mask memos
    labeled_init = handover.start if handover is not None else None
    if labeled_init is not None and checker != "incremental":
        raise ValueError(
            f"a labeled start structure needs the incremental checker, not {checker!r}"
        )
    if handover is not None and handover.engine is not None:
        engine = handover.engine
    else:
        engine = LabelEngine(spec)

    # the final configuration must itself satisfy the spec
    try:
        final_structure = KripkeStructure(topology, final, ingresses)
    except ForwardingLoopError as exc:
        raise _infeasible(
            f"final configuration has a forwarding loop: {exc}", stats
        ) from exc
    final_ok: Optional[bool] = None
    final_checker = None
    final_key = None
    # endpoint verdicts only pay off for pooled memos: a private memo dies
    # with this search, before any sibling could re-reach the endpoint keys
    memo_endpoints = memo is not None and memo.shared
    if memo_endpoints:
        probe_start = time.perf_counter()
        final_key = reached_state_key(final_structure)
        entry = memo.lookup(final_key)
        stats.memo_probes += 1
        stats.memo_seconds += time.perf_counter() - probe_start
        if entry is not None:
            stats.memo_hits += 1
            final_ok = entry.ok
    if final_ok is None:
        final_checker = make_checker("incremental", final_structure, spec, engine=engine)
        stats.model_checks += 1
        phase_start = time.perf_counter()
        final_ok = final_checker.full_check().ok
        stats.labeling_seconds += time.perf_counter() - phase_start
        if memo_endpoints:
            memo.record(final_key, final_ok)
    if not final_ok:
        raise _infeasible("final configuration violates the specification", stats)
    if handover is not None and final_checker is not None:
        handover.final = final_checker

    if labeled_init is not None:
        # init is already built, labeled and verified
        structure, backend = labeled_init.structure, labeled_init
    else:
        try:
            structure = KripkeStructure(topology, init, ingresses)
        except ForwardingLoopError as exc:
            raise _infeasible(
                f"initial configuration has a forwarding loop: {exc}", stats
            ) from exc
        # `checker` is a backend name, or a factory (structure, spec) ->
        # checker (used by the benchmarks to instrument two backends on one
        # query stream)
        if isinstance(checker, str):
            backend = make_checker(checker, structure, spec, engine=engine)
        else:
            backend = checker(structure, spec)
        stats.model_checks += 1
        phase_start = time.perf_counter()
        init_ok = backend.full_check().ok
        stats.labeling_seconds += time.perf_counter() - phase_start
        if not init_ok:
            raise _infeasible("initial configuration violates the specification", stats)

    if not units:
        stats.synthesis_seconds = time.monotonic() - start
        return UpdatePlan([], granularity, stats)

    wrong = WrongConfigs()
    ordering = OrderingConstraints()
    visited: Set[FrozenSet[Unit]] = set()
    updated: Set[Unit] = set()
    path: List[Unit] = []
    rule_gran = granularity == "rule"
    # the memo's pruning path reverts an update without the checker seeing
    # it, which is only coherent for backends exposing the note_states hook
    memo_active = memo is not None and hasattr(backend, "note_states")

    # per-class reachability, shared by the candidate heuristic and the
    # reached-state memo key; an entry is dropped whenever an update dirties
    # a state of that class (no other update can change the class's walk)
    reach_cache: Dict[str, FrozenSet[NodeId]] = {}
    # per-class reached-state key components (same shape as
    # reached_state_key produces); invalidated when the class's reach can
    # change *or* a reachable switch's table changes
    key_cache: Dict[str, Tuple[str, FrozenSet]] = {}

    def reachable(tc: TrafficClass) -> FrozenSet[NodeId]:
        reach = reach_cache.get(tc.name)
        if reach is None:
            reach = structure.reachable_switches(tc)
            reach_cache[tc.name] = reach
        return reach

    def current_state_key():
        config = structure.config
        parts = []
        for tc in classes:
            component = key_cache.get(tc.name)
            if component is None:
                component = reached_class_component(
                    tc.name, reachable(tc), config
                )
                key_cache[tc.name] = component
            parts.append(component)
        return tuple(parts)

    def record_init_verdict() -> None:
        if not memo_endpoints:
            return
        probe_start = time.perf_counter()
        memo.record(current_state_key(), True)
        stats.memo_seconds += time.perf_counter() - probe_start

    record_init_verdict()

    # ------------------------------------------------------------------
    def apply_unit(unit: Unit, target: Configuration) -> List:
        """Move ``unit`` to its table in ``target``; return dirty states."""
        switch = unit[0] if rule_gran else unit
        # a class's key component survives the update only if the class
        # provably cannot reach the switch and none of its states moved
        fresh = {
            name for name, reach in reach_cache.items() if switch not in reach
        }
        if rule_gran:
            _, tc_name = unit
            tc = class_by_name[tc_name]
            dirty = structure.update_class_rules(switch, tc, target.table(switch))
        else:
            dirty = structure.update_switch(unit, target.table(unit))
        for state in dirty:
            fresh.discard(state.tc.name)
            reach_cache.pop(state.tc.name, None)
        for name in list(key_cache):
            if name not in fresh:
                key_cache.pop(name)
        return dirty

    def handle_violation(cex, key: FrozenSet[Unit]) -> None:
        if cex is None or not use_counterexamples:
            return
        stats.counterexamples += 1
        pattern = make_formula(cex, key, all_units, rule_gran)
        wrong.add(pattern)
        if use_early_termination:
            phase_start = time.perf_counter()
            try:
                ordering.add_counterexample(
                    [u for u, flag in pattern if flag],
                    [u for u, flag in pattern if not flag],
                )
                if not ordering.feasible():
                    stats.sat_terminated = True
                    raise _infeasible(
                        "ordering constraints are unsatisfiable: no simple "
                        "update sequence exists",
                        stats,
                        reason="sat",
                    )
            finally:
                stats.sat_seconds += time.perf_counter() - phase_start

    # the heuristic frame order is (hot, str(unit)): sort by str once, then
    # each frame is the stable partition cold-then-hot of what remains
    by_name = sorted(units, key=str)

    def candidates() -> List[Unit]:
        if not use_reachability_heuristic:
            return [u for u in units if u not in updated]
        remaining = [u for u in by_name if u not in updated]
        if rule_gran:
            reach_by_name = {tc.name: reachable(tc) for tc in classes}
            hot = {u for u in remaining if u[0] in reach_by_name[u[1]]}
        else:
            hot = set().union(*(reachable(tc) for tc in classes))
        return [u for u in remaining if u not in hot] + [
            u for u in remaining if u in hot
        ]

    def prefer_warm(frame: List[Unit]) -> List[Unit]:
        """Front-load the warm hint while the path still follows it.

        The frame for depth ``d`` is built right after the ``d``-th unit is
        accepted, so ``path`` is exactly the prefix the frame extends; once
        the path has deviated from the warm order (or outrun it) the frame
        is returned untouched and the heuristic order stands.
        """
        depth = len(path)
        if depth >= len(warm_units) or path != warm_units[:depth]:
            return frame
        hint = warm_units[depth]
        if hint in frame:
            stats.warm_hits += 1
            frame.remove(hint)
            frame.insert(0, hint)
        return frame

    def probe_memo():
        """Probe the memo for a refutation of the just-updated structure.

        Returns ``(refuted, trace_or_None)``: ``refuted`` means the
        candidate is settled as violating without a model-checker call
        (``trace`` feeds counterexample learning when available).  Only
        called once the memo holds refutation knowledge — ``ok`` hits
        cannot skip work, so probing earlier is pure overhead.
        """
        probe_start = time.perf_counter()
        try:
            key = current_state_key()
            stats.memo_probes += 1
            entry = memo.lookup(key)
            if entry is not None:
                stats.memo_hits += 1
                if not entry.ok:
                    return True, entry.trace or memo.find_refuting_trace(structure)
                return False, None
            # dominance: does a previously refuted trace still carry over?
            trace = memo.find_refuting_trace(structure)
            if trace is not None:
                memo.record(key, False, trace)
                return True, trace
            return False, None
        finally:
            stats.memo_seconds += time.perf_counter() - probe_start

    def record_refutation(cex) -> None:
        """Memoize a checker refutation under the current state key."""
        record_start = time.perf_counter()
        memo.record(current_state_key(), False, cex)
        stats.memo_seconds += time.perf_counter() - record_start

    # ------------------------------------------------------------------
    root = candidates()
    if shard_first is not None:
        # the shard owns only the orders starting inside its slice; the
        # heuristic ordering within the slice is preserved
        root = [u for u in root if u in shard_first]
    stack: List[List[Unit]] = [prefer_warm(root)]
    while stack:
        check_deadline()
        frame = stack[-1]
        if not frame:
            stack.pop()
            if path:
                unit = path.pop()
                updated.discard(unit)
                dirty = apply_unit(unit, init)
                phase_start = time.perf_counter()
                backend.apply_update(dirty)
                stats.labeling_seconds += time.perf_counter() - phase_start
                stats.backtracks += 1
            continue
        unit = frame.pop(0)
        key = frozenset(updated | {unit})
        if key in visited:
            stats.pruned_visited += 1
            continue
        if wrong.matches(key):
            stats.pruned_wrong += 1
            continue
        try:
            dirty = apply_unit(unit, final)
        except ForwardingLoopError as exc:
            stats.loops_rejected += 1
            visited.add(key)
            handle_violation(exc.cycle, key)
            revert_dirty = apply_unit(unit, init)
            phase_start = time.perf_counter()
            backend.apply_update(revert_dirty)
            stats.labeling_seconds += time.perf_counter() - phase_start
            continue
        if memo_active and memo.has_refutations:
            refuted, refuting_trace = probe_memo()
            if refuted:
                # settled without the checker: learn from the stored trace,
                # revert, and only label any states the probe created
                stats.memo_pruned += 1
                visited.add(key)
                handle_violation(refuting_trace, key)
                revert_dirty = apply_unit(unit, init)
                phase_start = time.perf_counter()
                backend.note_states(dirty)
                backend.note_states(revert_dirty)
                stats.labeling_seconds += time.perf_counter() - phase_start
                continue
        phase_start = time.perf_counter()
        result = backend.apply_update(dirty)
        stats.labeling_seconds += time.perf_counter() - phase_start
        stats.model_checks += 1
        visited.add(key)
        if not result.ok:
            if memo_active:
                record_refutation(result.counterexample)
            handle_violation(result.counterexample, key)
            revert_dirty = apply_unit(unit, init)
            phase_start = time.perf_counter()
            backend.apply_update(revert_dirty)
            stats.labeling_seconds += time.perf_counter() - phase_start
            continue
        updated.add(unit)
        path.append(unit)
        if len(updated) == len(all_units):
            stats.synthesis_seconds = time.monotonic() - start
            return UpdatePlan(_build_commands(path, final, class_by_name, rule_gran), granularity, stats)
        stack.append(prefer_warm(candidates()))

    stats.synthesis_seconds = time.monotonic() - start
    if shard is not None and shard.total > 1:
        raise _infeasible(
            f"shard {shard.index + 1}/{shard.total} exhausted its slice of "
            "the order space (not a global infeasibility proof)",
            stats,
            reason="shard",
        )
    raise _infeasible(
        "exhausted the space of simple careful update sequences", stats
    )


def _build_commands(
    order: Sequence[Unit],
    final: Configuration,
    class_by_name: Mapping[str, TrafficClass],
    rule_gran: bool,
) -> List[Command]:
    """A careful command sequence realizing ``order`` (wait between updates)."""
    commands: List[Command] = []
    for i, unit in enumerate(order):
        if i > 0:
            commands.append(Wait())
        if rule_gran:
            switch, tc_name = unit
            commands.append(
                RuleGranUpdate(switch, class_by_name[tc_name], final.table(switch))
            )
        else:
            commands.append(SwitchUpdate(unit, final.table(unit)))
    return commands
