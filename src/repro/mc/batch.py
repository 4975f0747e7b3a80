"""The batch (monolithic) labeling checker.

Identical labeling algorithm to :class:`~repro.mc.incremental.IncrementalChecker`
but with no reuse: every query relabels the whole structure from scratch.
This is the paper's "Batch" backend, the control against which the value of
incrementality is measured (§6: Incremental beats Batch by ~4-12x).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.kripke.structure import KState, KripkeStructure
from repro.ltl.syntax import Formula
from repro.mc.interface import CheckResult
from repro.mc.labeling import Label, LabelEngine, label_node


class BatchChecker:
    """Relabels the entire Kripke structure on every query."""

    name = "batch"

    def __init__(
        self,
        structure: KripkeStructure,
        formula: Formula,
        engine: Optional[LabelEngine] = None,
    ):
        self.structure = structure
        self.engine = engine if engine is not None else LabelEngine(formula)
        self.relabel_count = 0
        self.check_count = 0

    def full_check(self) -> CheckResult:
        labels: Dict[KState, Label] = {}
        for state in sorted(self.structure.states(), key=self.structure.rank):
            labels[state] = label_node(self.engine, self.structure, state, labels)
            self.relabel_count += 1
        self.check_count += 1
        for init in self.structure.initial_states:
            for mask in labels[init]:
                if not self.engine.satisfies_root(mask):
                    return CheckResult(False, self._extract_trace(labels, init, mask))
        return CheckResult(True, None)

    def apply_update(self, dirty: Sequence[KState]) -> CheckResult:
        """Batch mode ignores the dirty set and recomputes everything."""
        return self.full_check()

    def _extract_trace(self, labels: Dict[KState, Label], state: KState, mask: int) -> List[KState]:
        trace = [state]
        current, current_mask = state, mask
        guard = self.structure.num_states() + 1
        while not self.structure.is_sink(current) and guard > 0:
            guard -= 1
            stepped = False
            for child in self.structure.succ(current):
                for child_mask in labels.get(child, ()):
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
