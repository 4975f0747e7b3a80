"""The ORDERUPDATE synthesis algorithm (§4.1, Figure 4).

Depth-first search over simple update sequences (each unit updated at most
once), model checking every intermediate configuration with a pluggable
backend, and pruning with:

* ``V`` — configurations already visited;
* ``W`` — wrong-configuration patterns learned from counterexamples
  (:mod:`repro.synthesis.pruning`, §4.2.A);
* early termination — ordering constraints checked after every
  counterexample against a witness order, with an incremental SAT solver
  behind it (:mod:`repro.synthesis.ordering`, §4.2.B);
* a reachability heuristic that tries currently-unreachable switches first
  (they can never break a trace-based property).

Each step costs what it changes, not the number of units.  The units are
numbered once, in ``str`` order (in update-list order when the heuristic is
off), and a configuration is the int bitmask of the units it has updated:
that is the key of ``V`` and ``W``.  A DFS frame
is a hint and a mask of the units it has tried.  It draws the lowest free
bit among the cold units, else among the hot ones, so it yields the
``(hot, str)`` order without building a list.  Hotness is kept as a mask,
moved by the reach flips the Kripke structure records
(:attr:`~repro.kripke.structure.KripkeStructure.reach_flips`).

Backtracking re-applies the previous table, which is just another
incremental update, so the checker's labeling stays warm in both directions.
The algorithm is sound (Theorem 1) and complete for simple careful sequences
(Theorem 2); both are exercised by the test suite.

The search attributes its wall time to phases (labeling, SAT ordering) in
:class:`~repro.synthesis.plan.SearchStats`; the ``repro profile`` harness
aggregates these per suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set

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
from repro.synthesis.ordering import OrderingConstraints
from repro.synthesis.plan import SearchStats, UpdatePlan
from repro.synthesis.pruning import WrongConfigs, make_formula

Unit = Hashable


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
    once the endpoint check has verified it.
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
    warm_order: Optional[Sequence[Unit]] = None,
    handover: Optional[Handover] = None,
) -> UpdatePlan:
    """Synthesize a careful update sequence from ``init`` to ``final``.

    Returns an :class:`UpdatePlan` whose commands transform ``init`` into
    ``final`` such that every intermediate configuration satisfies ``spec``.
    Raises :class:`UpdateInfeasibleError` if no simple careful sequence
    exists, :class:`SynthesisTimeout` on budget exhaustion.

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
    # number the units in frame order; a configuration key is the mask of
    # the units it has updated, and a frame draws the lowest free bit
    order = sorted(units, key=str) if use_reachability_heuristic else units
    index: Dict[Unit, int] = {unit: i for i, unit in enumerate(order)}
    full = (1 << len(order)) - 1

    # warm start: the base plan's order, restricted to units this problem
    # actually updates (a patch may have added or removed some)
    warm_bits: List[int] = []
    if warm_order:
        seen_warm: Set[int] = set()
        for warm_unit in warm_order:
            if isinstance(warm_unit, list):  # wire form of a rule-gran unit
                warm_unit = tuple(warm_unit)
            i = index.get(warm_unit)
            if i is not None and i not in seen_warm:
                warm_bits.append(1 << i)
                seen_warm.add(i)
        stats.warm_units = len(warm_bits)

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
    final_checker = make_checker("incremental", final_structure, spec, engine=engine)
    stats.model_checks += 1
    phase_start = time.perf_counter()
    final_ok = final_checker.full_check().ok
    stats.labeling_seconds += time.perf_counter() - phase_start
    if not final_ok:
        raise _infeasible("final configuration violates the specification", stats)
    if handover is not None:
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
    visited: Set[int] = set()
    updated = 0
    path: List[Unit] = []
    warm_depth = 0  # length of the prefix of `path` that follows `warm_bits`
    rule_gran = granularity == "rule"

    # hot units: the switch is reachable (at rule granularity, by the unit's
    # class) in the current configuration.  `holders[i]` counts the classes
    # that make unit i hot; the structure's reach-flip record keeps them
    # current, and a handed-over structure's stale record is replaced here.
    holders = [0] * len(order)
    hot = 0
    flips = structure.reach_flips
    flips.clear()
    if use_reachability_heuristic:
        for tc in classes:
            for node in structure.reachable_switches(tc):
                i = index.get((node, tc.name) if rule_gran else node)
                if i is not None:
                    holders[i] += 1
                    hot |= 1 << i

    # ------------------------------------------------------------------
    def apply_unit(unit: Unit, target: Configuration) -> List:
        """Move ``unit`` to its table in ``target``; return dirty states."""
        if rule_gran:
            switch, tc_name = unit
            tc = class_by_name[tc_name]
            return structure.update_class_rules(switch, tc, target.table(switch))
        return structure.update_switch(unit, target.table(unit))

    def handle_violation(cex, key: int) -> None:
        if cex is None or not use_counterexamples:
            return
        stats.counterexamples += 1
        pattern = make_formula(cex, key, index, rule_gran)
        wrong.add(pattern)
        if use_early_termination:
            phase_start = time.perf_counter()
            try:
                ordering.add_counterexample(
                    _units_of(pattern[0], order), _units_of(pattern[1], order)
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

    def new_frame() -> List[int]:
        """A frame ``[hint, tried]`` for the configuration just reached.

        While the path still follows the warm order, the base plan's next
        unit is the hint and is drawn first; after it, the frame draws its
        untried free units cold before hot, each part in ``str`` order.
        """
        depth = len(path)
        if warm_depth == depth < len(warm_bits):
            stats.warm_hits += 1
            return [warm_bits[depth], 0]
        return [0, 0]

    # ------------------------------------------------------------------
    # A frame draws only while the structure holds its configuration (every
    # deeper unit has been reverted), so its hot units are read live.
    stack: List[List[int]] = [new_frame()]
    while stack:
        check_deadline()
        frame = stack[-1]
        bit, tried = frame
        if bit:
            frame[0] = 0
        else:
            free = full & ~updated & ~tried
            if not free:
                stack.pop()
                if path:
                    unit = path.pop()
                    updated &= ~(1 << index[unit])
                    warm_depth = min(warm_depth, len(path))
                    dirty = apply_unit(unit, init)
                    phase_start = time.perf_counter()
                    backend.apply_update(dirty)
                    stats.labeling_seconds += time.perf_counter() - phase_start
                    stats.backtracks += 1
                continue
            if flips and use_reachability_heuristic:
                for flip, on in flips.items():
                    i = index.get(flip if rule_gran else flip[0])
                    if i is None:
                        continue
                    if on:
                        holders[i] += 1
                        if holders[i] == 1:
                            hot |= 1 << i
                    else:
                        holders[i] -= 1
                        if not holders[i]:
                            hot &= ~(1 << i)
                flips.clear()
            pick = free & ~hot or free
            bit = pick & -pick
        frame[1] = tried | bit
        unit = order[bit.bit_length() - 1]
        key = updated | bit
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
        phase_start = time.perf_counter()
        result = backend.apply_update(dirty)
        stats.labeling_seconds += time.perf_counter() - phase_start
        stats.model_checks += 1
        visited.add(key)
        if not result.ok:
            handle_violation(result.counterexample, key)
            revert_dirty = apply_unit(unit, init)
            phase_start = time.perf_counter()
            backend.apply_update(revert_dirty)
            stats.labeling_seconds += time.perf_counter() - phase_start
            continue
        if warm_depth == len(path) < len(warm_bits) and warm_bits[warm_depth] == bit:
            warm_depth += 1
        updated = key
        path.append(unit)
        if updated == full:
            stats.synthesis_seconds = time.monotonic() - start
            return UpdatePlan(_build_commands(path, final, class_by_name, rule_gran), granularity, stats)
        stack.append(new_frame())

    stats.synthesis_seconds = time.monotonic() - start
    raise _infeasible(
        "exhausted the space of simple careful update sequences", stats
    )


def _units_of(mask: int, order: Sequence[Unit]) -> List[Unit]:
    """The units whose bits are set in ``mask``, in numbering order."""
    out: List[Unit] = []
    while mask:
        low = mask & -mask
        out.append(order[low.bit_length() - 1])
        mask ^= low
    return out


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
