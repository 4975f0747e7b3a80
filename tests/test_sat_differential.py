"""Randomized differential test: CDCL solver vs brute-force enumeration.

Small random CNFs (≤8 variables, so ≤256 assignments) are decided both by
:class:`repro.sat.solver.SatSolver` and by exhaustive enumeration; every
divergence is a solver soundness bug.  The instances are generated from
explicit seeds — a failure reproduces from the seed in the assertion
message, never from a lost RNG state.

Covers the incremental surface too: clauses added *between* ``solve()``
calls (learned clauses and saved phases from earlier calls must not leak
wrong answers into later ones) and assumption solving, where an
UNSAT-under-assumptions answer must ship a valid core — a subset of the
assumptions that brute-force confirms is jointly inconsistent with the
formula.

The ordering-constraint store (§4.2.B) gets the same treatment: seeded
random streams of precedence constraints over at most 7 units, where after
every addition ``feasible()`` must agree with enumerating every permutation,
and every ``True`` must come with a witness order satisfying all recorded
constraints.
"""

import itertools
import random
from typing import Dict, List, Sequence

from repro.sat.solver import SatSolver
from repro.synthesis.ordering import OrderingConstraints

MAX_VARS = 8
MAX_UNITS = 7


def _random_cnf(rng: random.Random, *, num_vars: int, num_clauses: int):
    """A random CNF: clause width 1-3, no tautological clauses."""
    clauses: List[List[int]] = []
    while len(clauses) < num_clauses:
        width = rng.randint(1, 3)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clause = [var if rng.random() < 0.5 else -var for var in variables]
        clauses.append(clause)
    return clauses


def _brute_force_sat(
    clauses: Sequence[Sequence[int]], num_vars: int
) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {var: bits[var - 1] for var in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def _model_satisfies(
    clauses: Sequence[Sequence[int]], model: Dict[int, bool]
) -> bool:
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


class TestDifferentialSolve:
    def test_verdicts_match_brute_force(self):
        for seed in range(200):
            rng = random.Random(seed)
            num_vars = rng.randint(2, MAX_VARS)
            # ~4.3 clauses/var straddles the random-3-SAT phase transition,
            # so both verdicts appear often
            num_clauses = rng.randint(1, num_vars * 5)
            clauses = _random_cnf(rng, num_vars=num_vars, num_clauses=num_clauses)
            expected = _brute_force_sat(clauses, num_vars)

            solver = SatSolver()
            trivially_sat = True
            for clause in clauses:
                trivially_sat = solver.add_clause(clause) and trivially_sat
            verdict = solver.solve()
            assert verdict == expected, (seed, clauses)
            if not trivially_sat:
                assert not expected, (seed, clauses)
            if verdict:
                assert _model_satisfies(clauses, solver.model()), (
                    seed,
                    clauses,
                    solver.model(),
                )

    def test_incremental_clause_adds_between_solves(self):
        """One long-lived solver vs a fresh solver + brute force per prefix."""
        for seed in range(60):
            rng = random.Random(1000 + seed)
            num_vars = rng.randint(3, MAX_VARS)
            clauses = _random_cnf(
                rng, num_vars=num_vars, num_clauses=num_vars * 5
            )
            incremental = SatSolver()
            prefix: List[List[int]] = []
            position = 0
            while position < len(clauses):
                chunk = clauses[position : position + rng.randint(1, 4)]
                position += len(chunk)
                prefix.extend(chunk)
                for clause in chunk:
                    incremental.add_clause(clause)
                expected = _brute_force_sat(prefix, num_vars)
                assert incremental.solve() == expected, (seed, prefix)

                fresh = SatSolver()
                for clause in prefix:
                    fresh.add_clause(clause)
                assert fresh.solve() == expected, (seed, prefix)
                if not expected:
                    break  # adding clauses can never revive an UNSAT formula

    def test_unsat_stays_unsat_after_more_clauses(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.solve()
        solver.add_clause([2, 3])
        assert not solver.solve()


class TestDifferentialAssumptions:
    def test_assumption_verdicts_and_cores(self):
        cores_checked = 0
        for seed in range(200):
            rng = random.Random(2000 + seed)
            num_vars = rng.randint(2, MAX_VARS)
            clauses = _random_cnf(
                rng, num_vars=num_vars, num_clauses=num_vars * 3
            )
            assumed_vars = rng.sample(
                range(1, num_vars + 1), rng.randint(1, num_vars)
            )
            assumptions = [
                var if rng.random() < 0.5 else -var for var in assumed_vars
            ]
            # assumptions are exactly extra unit clauses, semantically
            expected = _brute_force_sat(
                list(clauses) + [[lit] for lit in assumptions], num_vars
            )

            solver = SatSolver()
            for clause in clauses:
                solver.add_clause(clause)
            verdict = solver.solve(assumptions)
            assert verdict == expected, (seed, clauses, assumptions)

            if verdict:
                model = solver.model()
                assert _model_satisfies(clauses, model), (seed, clauses)
                for lit in assumptions:
                    assert model.get(abs(lit)) == (lit > 0), (seed, assumptions)
            else:
                core = solver.last_core  # before solve() resets it
                if not solver.solve():
                    continue  # the formula alone is UNSAT; no core promised
                # the formula alone is SAT, so the assumptions did it
                assert core, (seed, clauses, assumptions)
                assert set(core) <= set(assumptions), (seed, core, assumptions)
                assert not _brute_force_sat(
                    list(clauses) + [[lit] for lit in core], num_vars
                ), (seed, clauses, core)
                cores_checked += 1
        assert cores_checked >= 10  # the sweep genuinely exercised cores

    def test_solver_reusable_after_assumption_unsat(self):
        """Failed assumptions must not poison later assumption-free solves."""
        for seed in range(40):
            rng = random.Random(3000 + seed)
            num_vars = rng.randint(2, MAX_VARS)
            clauses = _random_cnf(
                rng, num_vars=num_vars, num_clauses=num_vars * 2
            )
            expected = _brute_force_sat(clauses, num_vars)
            solver = SatSolver()
            for clause in clauses:
                solver.add_clause(clause)
            for _ in range(3):
                variable = rng.randint(1, num_vars)
                solver.solve([variable])
                solver.solve([-variable])
                assert solver.solve() == expected, (seed, clauses)


def _order_satisfies(order: Sequence[str], constraints) -> bool:
    """Some unit of ``D`` precedes some unit of ``U``, for every ``(U, D)``."""
    pos = {unit: index for index, unit in enumerate(order)}
    return all(
        min(pos[d] for d in not_updated) < max(pos[u] for u in updated)
        for updated, not_updated in constraints
    )


def _brute_force_order(units: Sequence[str], constraints) -> bool:
    return any(
        _order_satisfies(order, constraints)
        for order in itertools.permutations(units)
    )


class TestDifferentialOrdering:
    def test_feasibility_matches_permutation_enumeration(self):
        verdicts = {True: 0, False: 0}
        repaired = 0  # feasible, but the solver had to reorder the witness
        for seed in range(150):
            rng = random.Random(4000 + seed)
            units = [f"u{i}" for i in range(rng.randint(2, MAX_UNITS))]
            store = OrderingConstraints()
            recorded = []
            for _ in range(rng.randint(1, 3 * len(units))):
                updated = rng.sample(units, rng.randint(1, len(units) - 1))
                rest = [u for u in units if u not in updated]
                not_updated = rng.sample(rest, rng.randint(1, len(rest)))
                if rng.random() < 0.1:
                    # overlapping sides: a unit never precedes itself
                    not_updated.append(updated[0])
                before = store.witness
                store.add_counterexample(updated, not_updated)
                recorded.append((updated, not_updated))
                interned = sorted({u for pair in recorded for side in pair for u in side})
                expected = _brute_force_order(interned, recorded)
                verdict = store.feasible()
                assert verdict == expected, (seed, recorded)
                verdicts[verdict] += 1
                if not verdict:
                    break  # more constraints can never revive an infeasible store
                assert sorted(store.witness) == interned, (seed, store.witness)
                assert _order_satisfies(store.witness, recorded), (
                    seed,
                    recorded,
                    store.witness,
                )
                # inserting new units never reorders old ones; a solve may
                repaired += [u for u in store.witness if u in before] != before
        assert verdicts[True] >= 50 and verdicts[False] >= 20, verdicts
        assert repaired >= 20, repaired  # the solver path was exercised

    def test_cycle_beyond_sixty_units_is_infeasible(self):
        """A 70-unit precedence cycle: transitivity must hold at any size."""
        units = [f"a{i}" for i in range(70)]
        store = OrderingConstraints()
        for index, unit in enumerate(units):
            store.add_counterexample([units[(index + 1) % 70]], [unit])
        assert not store.feasible()
