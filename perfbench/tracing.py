"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer (and
three engine internals whose time would otherwise be unattributed) with
timing wrappers, and returns the function that restores the originals.
Nothing under ``src/`` knows it is being traced.

A span's *self time* is its duration minus the time of the spans it
caused.  Span stacks are kept per thread, because the client thread parses
and renders while the service's scheduler thread runs the job; every span
is charged to the job the client is currently waiting on
(:attr:`Tracer.job`), since one client and a serial service never overlap
two jobs.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.net.serialize as serialize_module
import repro.service.engine as engine_module
import repro.synthesis.synthesizer as synthesizer_module
from repro.api.schema import SynthesisDelta, SynthesisRequest, SynthesisResponse
from repro.kripke.structure import KripkeStructure
from repro.mc.incremental import IncrementalChecker
from repro.net.delta import ProblemPatch
from repro.perf.memo import VerdictMemo
from repro.sat.solver import SatSolver
from repro.service.engine import SynthesisService
from repro.synthesis.ordering import OrderingConstraints


class Tracer:
    """Per-job self times (seconds) and counts, keyed by layer name."""

    def __init__(self) -> None:
        self.job: Optional[str] = None
        self.seconds: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[self.job][name] += amount

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, result_or_exception)``
        records counts once the call has returned or raised."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)  # time of child spans
            job = self.job
            start = time.perf_counter()
            outcome: Any = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as err:
                outcome = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.seconds[job][name] += elapsed - children
                if after is not None:
                    after(args, outcome)

        return traced


def _search_counts(tracer: Tracer) -> Callable:
    def after(args: Tuple, outcome: Any) -> None:
        # a plan and the search's infeasible/timeout errors all carry stats
        stats = getattr(outcome, "stats", None)
        if stats is None:
            return
        tracer.count("synthesis.model_checks", stats.model_checks)
        tracer.count("synthesis.counterexamples", stats.counterexamples)
        tracer.count("synthesis.pruned_wrong", stats.pruned_wrong)
        tracer.count("synthesis.warm_hits", stats.warm_hits)

    return after


def _solver_counts(tracer: Tracer, solve: Callable) -> Callable:
    """``SatSolver.solve`` reporting its decision/conflict counter deltas
    (not a span: ``OrderingConstraints.feasible`` already times it)."""

    @functools.wraps(solve)
    def counted(self: SatSolver, *args: Any, **kwargs: Any) -> Any:
        decisions, conflicts = self.decisions, self.conflicts
        try:
            return solve(self, *args, **kwargs)
        finally:
            tracer.count("sat.decisions", self.decisions - decisions)
            tracer.count("sat.conflicts", self.conflicts - conflicts)

    return counted


def _encode(tracer: Tracer, add: Callable) -> Callable:
    """``add_counterexample`` as a span that counts |D|·|U| literals."""
    span = tracer.span("sat.encode", add)

    @functools.wraps(add)
    def encoded(self: OrderingConstraints, updated: Any, not_updated: Any) -> Any:
        updated, not_updated = list(updated), list(not_updated)
        tracer.count("sat.clause_literals", len(set(updated)) * len(set(not_updated)))
        return span(self, updated, not_updated)

    return encoded


def _counter(tracer: Tracer, name: str) -> Callable:
    return lambda args, outcome: tracer.count(name)


def _memo_lookup(tracer: Tracer) -> Callable:
    def after(args: Tuple, outcome: Any) -> None:
        tracer.count("perf.memo_probes")
        if outcome is not None and not isinstance(outcome, BaseException):
            tracer.count("perf.memo_hits")

    return after


def _targets(tracer: Tracer) -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, layer, after-hook or None) for every span.

    Owners are classes or modules; module-level functions are patched in
    the module that *calls* them, since callers bind them at import time.
    """
    return [
        (SynthesisRequest, "from_dict", "api.parse", None),
        (SynthesisDelta, "from_dict", "api.parse", None),
        (SynthesisResponse, "from_result", "api.render", None),
        (SynthesisResponse, "to_dict", "api.render", None),
        (SynthesisService, "submit", "service.submit", None),
        (SynthesisService, "submit_delta", "service.submit", None),
        (SynthesisService, "_plan_batch", "service.schedule", None),
        (SynthesisService, "_settle_group", "service.schedule", None),
        (engine_module, "_execute_payload", "service.execute", None),
        (ProblemPatch, "apply_to", "net.delta_apply", None),
        (engine_module, "problem_to_dict", "net.serialize", None),
        (engine_module, "problem_from_dict", "net.serialize", None),
        (engine_module, "plan_from_dict", "net.serialize", None),
        (serialize_module, "plan_to_dict", "net.serialize", None),
        (synthesizer_module, "order_update", "synthesis.search_self", _search_counts(tracer)),
        (synthesizer_module, "remove_waits", "synthesis.waits", None),
        (OrderingConstraints, "feasible", "sat.solve", _counter(tracer, "sat.solve_calls")),
        (IncrementalChecker, "full_check", "mc.check", _counter(tracer, "mc.checks")),
        (IncrementalChecker, "apply_update", "mc.check", _counter(tracer, "mc.checks")),
        (KripkeStructure, "__init__", "kripke.build", None),
        (KripkeStructure, "update_switch", "kripke.update", None),
        (VerdictMemo, "lookup", "perf.memo", _memo_lookup(tracer)),
        (VerdictMemo, "find_refuting_trace", "perf.memo", None),
        (VerdictMemo, "record", "perf.memo", None),
    ]


def install(tracer: Tracer) -> Tuple[Callable[[], None], List[str]]:
    """Patch every target; returns the function that restores them and the
    targets that no longer exist (skipped, so their layer reads 0)."""
    saved: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []

    def patch(owner: Any, attr: str, replacement: Callable) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for owner, attr, layer, after in _targets(tracer):
        raw = owner.__dict__.get(attr)
        if raw is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        if isinstance(raw, classmethod):
            patch(owner, attr, classmethod(tracer.span(layer, raw.__func__, after)))
        else:
            patch(owner, attr, tracer.span(layer, raw, after))
    for owner, attr, wrap in (
        (OrderingConstraints, "add_counterexample", _encode),
        (SatSolver, "solve", _solver_counts),
    ):
        if attr in owner.__dict__:
            patch(owner, attr, wrap(tracer, owner.__dict__[attr]))
        else:
            missing.append(f"{owner.__name__}.{attr}")

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall, missing
