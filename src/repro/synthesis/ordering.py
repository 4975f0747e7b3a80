"""Early search termination via ordering constraints (§4.2.B).

Every counterexample with updated units ``U`` and not-yet-updated units ``D``
implies: in any correct simple order, by the moment the last unit of ``U``
has been applied, some unit of ``D`` must already have been applied — i.e.
``OR_{d in D, u in U} before(d, u)``.  When no total order of the units
satisfies all recorded constraints, no simple update order can avoid every
known counterexample and the search stops immediately — this is what makes
the infeasible instances of Figure 8(h) terminate quickly instead of
exhausting the DFS.

The store answers that question mostly without a solver:

* **Witness order.**  It keeps one total order of the interned units that
  satisfies every recorded constraint; ``(U, D)`` holds in it iff
  ``min pos(D) < max pos(U)``.  Units new to a constraint go to the front
  if they are in ``D`` and to the back if they are in ``U``: older
  constraints do not mention them, so they stay satisfied, and the new one
  usually holds at once.  While the witness satisfies everything,
  :meth:`OrderingConstraints.feasible` answers ``True`` with no SAT call.
* **Deferred encoding.**  Constraints are kept in a list and turned into
  pairwise ``before`` clauses only when the witness breaks and a solve is
  needed, and each only once.
* **Lazy transitivity.**  No order axioms are instantiated up front.  After
  each SAT model, the true ``before`` edges are sorted topologically.  If
  they contain a cycle ``v0 -> ... -> vk-1 -> v0``, the chord clauses that
  walk it from ``v0`` (``before(v0,vi) & before(vi,vi+1) -> before(v0,vi+1)``
  for each step, then ``not (before(v0,vk-1) & before(vk-1,v0))``) are
  added, and likewise from every other node of the cycle, and the solver
  runs again.  Walking from one node only leaves the solver to rediscover
  the same cycle from its other nodes: on Figure 8(h) that is about ten
  times the rounds.  Without a cycle, the sort, kept stable with respect
  to the old witness, becomes the new witness.

The answer is exact.  ``True`` is only ever returned alongside a witness,
i.e. an order satisfying every constraint.  Every chord clause is an
instance of transitivity or antisymmetry, which every order satisfies, so
``False`` (UNSAT) means that no order exists.  The loop ends because each
round blocks its model with axiom clauses not yet present, and there are
finitely many of them.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.sat.solver import SatSolver

Unit = Hashable


class OrderingConstraints:
    """Incremental precedence-constraint store backed by a witness order
    and, when the witness breaks, the CDCL solver."""

    def __init__(self) -> None:
        self._solver = SatSolver()
        self._vars: Dict[Tuple[Unit, Unit], int] = {}
        self._pairs: List[Tuple[Unit, Unit]] = []  # var - 1 -> (a, b)
        # witness positions; front/back insertions extend the key range
        self._pos: Dict[Unit, int] = {}
        self._front = 0
        self._back = -1
        self._constraints: List[Tuple[List[Unit], List[Unit]]] = []
        self._encoded = 0  # constraints already turned into clauses
        self._witness_ok = True
        self._unsat = False
        self.constraints_added = 0

    def _before(self, a: Unit, b: Unit) -> int:
        """The variable for ``a`` updated strictly before ``b``."""
        key = (a, b)
        var = self._vars.get(key)
        if var is None:
            self._pairs.append(key)
            var = len(self._pairs)
            self._vars[key] = var
        return var

    def _holds(self, updated: Sequence[Unit], not_updated: Sequence[Unit]) -> bool:
        pos = self._pos
        return min(pos[d] for d in not_updated) < max(pos[u] for u in updated)

    def add_counterexample(self, updated: Iterable[Unit], not_updated: Iterable[Unit]) -> None:
        """Record ``OR_{d,u} before(d, u)`` for a violating configuration."""
        updated = list(dict.fromkeys(updated))
        not_updated = list(dict.fromkeys(not_updated))
        self.constraints_added += 1
        if not updated or not not_updated:
            # the violating configuration is unavoidable (it is the initial
            # or final configuration restricted to the mentioned units)
            self._unsat = True
            return
        for unit in not_updated:
            if unit not in self._pos:
                self._front -= 1
                self._pos[unit] = self._front
        for unit in updated:
            if unit not in self._pos:
                self._back += 1
                self._pos[unit] = self._back
        self._constraints.append((updated, not_updated))
        if self._witness_ok and not self._holds(updated, not_updated):
            self._witness_ok = False

    def feasible(self) -> bool:
        """Can some update order still satisfy all recorded constraints?"""
        if self._unsat:
            return False
        if self._witness_ok:
            return True
        solver = self._solver
        for updated, not_updated in self._constraints[self._encoded:]:
            clause = [
                self._before(d, u) for d in not_updated for u in updated if d != u
            ]
            if not solver.add_clause(clause):
                self._unsat = True
                return False
        self._encoded = len(self._constraints)
        while True:
            if not solver.solve():
                self._unsat = True
                return False
            edges = [
                pair for var, pair in enumerate(self._pairs, 1) if solver.value(var)
            ]
            order, cycle = self._sort(edges)
            if cycle is None:
                self._pos = {unit: index for index, unit in enumerate(order)}
                self._front, self._back = 0, len(order) - 1
                self._witness_ok = True
                return True
            if not self._add_chords(cycle):
                self._unsat = True
                return False

    def _sort(self, edges: List[Tuple[Unit, Unit]]):
        """Topological order of the units under ``edges``, ties broken by
        witness position, as ``(order, None)``; ``(None, cycle)`` when the
        edges contain a cycle."""
        pos = self._pos
        successors: Dict[Unit, List[Unit]] = {unit: [] for unit in pos}
        predecessors: Dict[Unit, List[Unit]] = {unit: [] for unit in pos}
        indegree = dict.fromkeys(pos, 0)
        for a, b in edges:
            successors[a].append(b)
            predecessors[b].append(a)
            indegree[b] += 1
        ready = [(p, unit) for unit, p in pos.items() if not indegree[unit]]
        heapq.heapify(ready)
        order: List[Unit] = []
        while ready:
            _, unit = heapq.heappop(ready)
            order.append(unit)
            for succ in successors[unit]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    heapq.heappush(ready, (pos[succ], succ))
        if len(order) == len(pos):
            return order, None
        # every unsorted unit keeps an unsorted predecessor: walk backwards
        # until a unit repeats, and read the cycle forwards
        unit = next(u for u in pos if indegree[u])
        seen: Dict[Unit, int] = {}
        walk: List[Unit] = []
        while unit not in seen:
            seen[unit] = len(walk)
            walk.append(unit)
            unit = next(p for p in predecessors[unit] if indegree[p])
        cycle = walk[seen[unit]:]
        cycle.reverse()
        return None, cycle

    def _add_chords(self, cycle: List[Unit]) -> bool:
        """Block ``cycle`` with the chords that walk it from each of its
        nodes in turn; False if the formula became UNSAT."""
        before, solver = self._before, self._solver
        size = len(cycle)
        for start, first in enumerate(cycle):
            for step in range(start + 1, start + size - 1):
                here, there = cycle[step % size], cycle[(step + 1) % size]
                if not solver.add_clause(
                    [-before(first, here), -before(here, there), before(first, there)]
                ):
                    return False
            last = cycle[start - 1]
            if not solver.add_clause([-before(first, last), -before(last, first)]):
                return False
        return True

    @property
    def witness(self) -> List[Unit]:
        """The interned units in an order that satisfies every recorded
        constraint whenever :meth:`feasible` has just answered ``True``."""
        return sorted(self._pos, key=self._pos.__getitem__)

    @property
    def num_units(self) -> int:
        return len(self._pos)
