"""The incremental LTL model checker (§5.2, ``incrModelCheck``).

The checker keeps one label (a set of assignments, see
:mod:`repro.mc.labeling`) per Kripke state.  After ``swUpdate`` changes the
outgoing transitions of a small set ``U`` of states, only ``U`` and those of
its ancestors whose labels actually change are relabeled (``relbl``): the
worklist is ordered by the structure's sink-distance rank, so every state is
relabeled after its successors, and propagation stops as soon as a label is
unchanged — the early-cutoff that gives the paper its speedups.

Paper mapping: §5.2 (incremental relabeling) over the labeling engine of
§5.1; this is the default backend the §4.1 search drives.  A checker that
has labeled its whole structure also outlives its search: the batch service
hands a verified final structure to the next delta job on the same stream
(:class:`~repro.synthesis.search.Handover`).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, List, Optional, Sequence, Set

from repro.kripke.structure import KState, KripkeStructure
from repro.ltl.syntax import Formula
from repro.mc.interface import CheckResult
from repro.mc.labeling import Label, LabelEngine, label_node


class IncrementalChecker:
    """Incremental relabeling checker (the paper's main backend)."""

    name = "incremental"

    def __init__(
        self,
        structure: KripkeStructure,
        formula: Formula,
        engine: Optional[LabelEngine] = None,
    ):
        self.structure = structure
        # engines are stateless with respect to the structure, so callers
        # checking several structures against one formula (the search checks
        # both endpoint configurations) share one engine — and with it the
        # engine's atom and mask memos
        self.engine = engine if engine is not None else LabelEngine(formula)
        self.labels: Dict[KState, Label] = {}
        self._ready = False
        # statistics
        self.relabel_count = 0
        self.check_count = 0

    # ------------------------------------------------------------------
    def full_check(self) -> CheckResult:
        """Label every state (sinks first) and check the initial states."""
        self.labels.clear()
        order = sorted(self.structure.states(), key=self.structure.rank)
        for state in order:
            self.labels[state] = label_node(self.engine, self.structure, state, self.labels)
            self.relabel_count += 1
        self._ready = True
        return self._verdict()

    def apply_update(self, dirty: Sequence[KState]) -> CheckResult:
        """``incrModelCheck``: relabel dirty states and their ancestors."""
        if not self._ready:
            return self.full_check()
        heap: List = []
        counter = count()
        queued: Set[KState] = set()

        def push(state: KState) -> None:
            if state not in queued:
                queued.add(state)
                heapq.heappush(heap, (self.structure.rank(state), next(counter), state))

        for state in dirty:
            self._ensure_labeled_down(state)
            push(state)
        while heap:
            _, _, state = heapq.heappop(heap)
            queued.discard(state)
            new_label = label_node(self.engine, self.structure, state, self.labels)
            self.relabel_count += 1
            if self.labels.get(state) != new_label:
                self.labels[state] = new_label
                for pred in self.structure.preds(state):
                    if pred != state:
                        push(pred)
        return self._verdict()

    def _ensure_labeled_down(self, state: KState) -> None:
        """Label ``state``'s (transitive) successors that have no label yet.

        Freshly created states arrive unlabeled; their successors may also be
        new.  Iterative post-order over the unlabeled region.
        """
        if state in self.labels:
            return
        stack: List[List] = [[state, 0]]
        on_stack = {state}
        while stack:
            frame = stack[-1]
            node, child_index = frame
            succ = self.structure.succ(node)
            if child_index < len(succ):
                frame[1] += 1
                child = succ[child_index]
                if child == node or child in self.labels or child in on_stack:
                    continue
                on_stack.add(child)
                stack.append([child, 0])
            else:
                stack.pop()
                on_stack.discard(node)
                self.labels[node] = label_node(self.engine, self.structure, node, self.labels)
                self.relabel_count += 1

    # ------------------------------------------------------------------
    def _verdict(self) -> CheckResult:
        self.check_count += 1
        for init in self.structure.initial_states:
            label = self.labels.get(init)
            if label is None:
                self._ensure_labeled_down(init)
                label = self.labels[init]
            for mask in label:
                if not self.engine.satisfies_root(mask):
                    return CheckResult(False, self._extract_trace(init, mask))
        return CheckResult(True, None)

    def _extract_trace(self, state: KState, mask: int) -> List[KState]:
        """Reconstruct a trace witnessing assignment ``mask`` from ``state``.

        At each step pick a successor whose label contains an assignment that
        ``extend``s to the current one (such a child exists by construction
        of ``label_node``).
        """
        trace = [state]
        current, current_mask = state, mask
        guard = self.structure.num_states() + 1
        while not self.structure.is_sink(current) and guard > 0:
            guard -= 1
            stepped = False
            for child in self.structure.succ(current):
                for child_mask in self.labels.get(child, ()):
                    if self.engine.extend_mask(current, child_mask) == current_mask:
                        trace.append(child)
                        current, current_mask = child, child_mask
                        stepped = True
                        break
                if stepped:
                    break
            if not stepped:  # pragma: no cover - defensive
                break
        return trace
