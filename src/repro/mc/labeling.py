"""The WVS-style labeling engine (§5.1), compiled to bitmask operations.

Paper mapping: §5.1 (``Holds0``/``follows``, Figure 5) over the §3 LTL
fragment; shared by the §5.2 incremental checker and the batch baseline.

A maximally-consistent subset of the extended closure ``ecl(phi)`` contains,
for every subformula ``psi``, exactly one of ``psi`` / ``!psi`` — i.e. it is a
*truth assignment* over the positive closure ``cl(phi)``.  We represent an
assignment as an integer bitmask indexed by :class:`~repro.ltl.closure.Closure`
order (children before parents), and a node's *label* as a frozenset of such
masks: ``M`` is in the label of ``q`` iff some trace from ``q`` satisfies
exactly the formulas set in ``M`` (Lemma 3).

Two facts make this efficient:

* For a **sink** state the label is the single assignment computed by the
  paper's ``Holds0`` (:meth:`LabelEngine.sink_mask`).
* For a **non-sink** state, given a successor assignment ``M'``, the
  ``follows`` relation plus the state's atom valuation determine the
  predecessor assignment *uniquely* (:meth:`LabelEngine.extend_mask`), so
  labels are computed bottom-up without enumerating ``2^|ecl|`` candidates.

Note on ``R``: the paper's Figure 5 gives ``Holds0(q, f1 R f2) = f1 | f2``
and a matching ``follows`` clause; standard LTL release semantics require
``f2`` at the release point (``f1 R f2  ==  f2 W (f1 & f2)``), so we use
``Holds0(q, f1 R f2) = f2`` and
``f1 R f2 in M1  iff  f2 in M1 and (f1 in M1 or f1 R f2 in M2)``.
This matches ``G phi == false R phi`` and the reference trace semantics in
:mod:`repro.ltl.semantics`; we treat the paper's version as a typo.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ltl.closure import Closure
from repro.ltl.syntax import (
    And,
    Ff,
    Formula,
    Next,
    NotProp,
    Or,
    Prop,
    Release,
    Tt,
    Until,
)

Assignment = int  # bitmask over Closure.order
Label = FrozenSet[Assignment]

# compiled opcode tags
_OP_TRUE = 0
_OP_FALSE = 1
_OP_ATOM = 2
_OP_NATOM = 3
_OP_AND = 4
_OP_OR = 5
_OP_NEXT = 6
_OP_UNTIL = 7
_OP_RELEASE = 8


class LabelEngine:
    """Compiles a formula's closure into a straight-line evaluation program.

    The engine is stateless with respect to the Kripke structure; checkers
    own the per-state labels and call :meth:`sink_mask` / :meth:`extend_mask`.
    Per-state atom valuations are memoized here because every extend call
    needs them and states are shared across many calls.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        self.closure = Closure(formula)
        order = self.closure.order
        index = self.closure.index
        self.root_bit = 1 << index[formula]
        self.size = len(order)
        self._atoms: List[object] = []
        atom_index: Dict[object, int] = {}
        program: List[Tuple[int, int, int]] = []
        for f in order:
            if isinstance(f, Tt):
                program.append((_OP_TRUE, 0, 0))
            elif isinstance(f, Ff):
                program.append((_OP_FALSE, 0, 0))
            elif isinstance(f, (Prop, NotProp)):
                atom = f.atom
                if atom not in atom_index:
                    atom_index[atom] = len(self._atoms)
                    self._atoms.append(atom)
                op = _OP_ATOM if isinstance(f, Prop) else _OP_NATOM
                program.append((op, atom_index[atom], 0))
            elif isinstance(f, And):
                program.append((_OP_AND, index[f.left], index[f.right]))
            elif isinstance(f, Or):
                program.append((_OP_OR, index[f.left], index[f.right]))
            elif isinstance(f, Next):
                program.append((_OP_NEXT, index[f.sub], 0))
            elif isinstance(f, Until):
                program.append((_OP_UNTIL, index[f.left], index[f.right]))
            elif isinstance(f, Release):
                program.append((_OP_RELEASE, index[f.left], index[f.right]))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown formula {f!r}")
        self._program: Tuple[Tuple[int, int, int], ...] = tuple(program)
        # per-state atom valuations.  An engine outlives one structure (the
        # service hands it from a job to its deltas), so this is bounded
        # like the mask memo below: a clear costs only recompute.
        self._atom_cache: Dict[object, Tuple[bool, ...]] = {}
        self._atom_cache_max = 1 << 16
        # cross-candidate mask memo: the program is a pure function of the
        # state's atom valuation and the successor mask, and the search
        # presents the same (valuation, mask) pairs over and over as it
        # relabels sibling configurations — one dict probe replaces a full
        # program run.  Bounded so adversarial formulas cannot grow it
        # without limit (a clear restarts the memo, costing only recompute).
        self._mask_cache: Dict[Tuple[Tuple[bool, ...], Optional[int]], int] = {}
        self._mask_cache_max = 1 << 16
        # statistics: number of mask evaluations performed (work measure)
        # and how many were answered from the memo instead
        self.evals = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    def atom_valuation(self, state) -> Tuple[bool, ...]:
        """Truth of each mentioned atom at ``state`` (memoized per state)."""
        cached = self._atom_cache.get(state)
        if cached is None:
            cached = tuple(atom.holds(state) for atom in self._atoms)
            if len(self._atom_cache) >= self._atom_cache_max:
                self._atom_cache.clear()
            self._atom_cache[state] = cached
        return cached

    def _run(self, state, succ_mask: Optional[Assignment]) -> Assignment:
        """Evaluate the program; ``succ_mask=None`` means sink (self-loop)."""
        atoms = self.atom_valuation(state)
        memo_key = (atoms, succ_mask)
        cached = self._mask_cache.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.evals += 1
        mask = 0
        bit = 1
        for op, a, b in self._program:
            if op == _OP_TRUE:
                value = True
            elif op == _OP_FALSE:
                value = False
            elif op == _OP_ATOM:
                value = atoms[a]
            elif op == _OP_NATOM:
                value = not atoms[a]
            elif op == _OP_AND:
                value = bool(mask & (1 << a)) and bool(mask & (1 << b))
            elif op == _OP_OR:
                value = bool(mask & (1 << a)) or bool(mask & (1 << b))
            elif op == _OP_NEXT:
                source = mask if succ_mask is None else succ_mask
                value = bool(source & (1 << a))
            elif op == _OP_UNTIL:
                right_now = bool(mask & (1 << b))
                if succ_mask is None:
                    value = right_now
                else:
                    left_now = bool(mask & (1 << a))
                    value = right_now or (left_now and bool(succ_mask & bit))
            else:  # _OP_RELEASE
                right_now = bool(mask & (1 << b))
                if succ_mask is None:
                    value = right_now
                else:
                    left_now = bool(mask & (1 << a))
                    value = right_now and (left_now or bool(succ_mask & bit))
            if value:
                mask |= bit
            bit <<= 1
        if len(self._mask_cache) >= self._mask_cache_max:
            self._mask_cache.clear()
        self._mask_cache[memo_key] = mask
        return mask

    def sink_mask(self, state) -> Assignment:
        """``Holds0``: the unique assignment of the sink's self-loop trace."""
        return self._run(state, None)

    def extend_mask(self, state, succ_mask: Assignment) -> Assignment:
        """The unique assignment at ``state`` whose successor satisfies
        ``succ_mask`` (the inverse image of the ``follows`` relation)."""
        return self._run(state, succ_mask)

    # ------------------------------------------------------------------
    def satisfies_root(self, mask: Assignment) -> bool:
        return bool(mask & self.root_bit)

    def holds(self, mask: Assignment, formula: Formula) -> bool:
        """Is ``formula`` (a member of the closure) true in ``mask``?"""
        return bool(mask & (1 << self.closure.index[formula]))

    def describe(self, mask: Assignment) -> List[str]:
        """Human-readable list of closure formulas true in ``mask``."""
        return [
            str(f)
            for i, f in enumerate(self.closure.order)
            if mask & (1 << i)
        ]


def label_node(
    engine: LabelEngine,
    structure,
    state,
    labels: Dict[object, Label],
) -> Label:
    """The paper's ``labelNode``: label of ``state`` from successor labels."""
    if structure.is_sink(state):
        return frozenset((engine.sink_mask(state),))
    masks = set()
    for child in structure.succ(state):
        for succ_mask in labels[child]:
            masks.add(engine.extend_mask(state, succ_mask))
    return frozenset(masks)
