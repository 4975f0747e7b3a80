"""Jobs and results for the batch synthesis service.

A :class:`SynthesisJob` pairs a :class:`~repro.net.serialize.Problem` with
the :class:`SynthesisOptions` it should be solved under; the service tracks
it through the :class:`JobStatus` lifecycle ``queued → running →
done | infeasible | timeout | error`` and produces a structured
:class:`JobResult` that serializes to one JSON line of the ``batch``
subcommand's output stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.net.delta import ProblemPatch
from repro.net.serialize import Problem, plan_to_dict
from repro.service.fingerprint import problem_fingerprint
from repro.synthesis.plan import UpdatePlan


class JobStatus(str, Enum):
    """Lifecycle of a synthesis job.

    ``cancelled`` is reachable only from ``queued`` (via
    :meth:`~repro.service.engine.SynthesisService.cancel`): once a job is
    running its execution is shared with every job coalesced onto the same
    fingerprint, so in-flight work is never torn down.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"
    ERROR = "error"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self not in (JobStatus.QUEUED, JobStatus.RUNNING)


@dataclass(frozen=True)
class SynthesisOptions:
    """Synthesizer configuration for one job.

    ``portfolio`` names checker backends to race against each other; when
    non-empty it supersedes ``checker`` and the first backend to produce a
    definitive verdict (a plan, or a proof of infeasibility) wins.
    ``timeout`` is a per-job budget in seconds; it is *not* part of the
    cache identity (see :mod:`repro.service.fingerprint`).  ``memoize``
    toggles the cross-candidate verdict memo (:mod:`repro.perf`); it is
    also excluded from the identity because memoization is
    verdict-preserving — the same plan is synthesized either way.
    ``shards`` > 1 splits the order search space into that many disjoint
    slices (:class:`~repro.synthesis.search.SearchShard`) raced on the
    worker pool; it is likewise excluded from the identity — every shard's
    plan is a correct plan for the same problem, so cached plans remain
    interchangeable (which plan wins a race is not deterministic).
    Sharding needs the pool: serial execution runs unsharded.
    ``use_plan_cache`` gates the *plan cache* lookup (not the verdict
    memo): load generators turn it off to force real synthesis on repeat
    traffic.  Excluded from the identity for the same reason as
    ``memoize`` — it changes how a plan is obtained, never which plan.
    ``preflight`` runs the static problem linter
    (:func:`repro.analysis.static_infeasibility`) on cache-miss groups
    before scheduling any search: a statically-*proven* infeasible job
    settles immediately with the certificate as its message and zero model
    checks.  Excluded from the identity because the linter is sound —
    it only fast-fails jobs the solver would also report infeasible, so
    verdicts (and cached plans) are identical either way.
    """

    checker: str = "incremental"
    granularity: str = "switch"
    remove_waits: bool = True
    use_counterexamples: bool = True
    use_early_termination: bool = True
    use_reachability_heuristic: bool = True
    timeout: Optional[float] = None
    portfolio: Tuple[str, ...] = ()
    memoize: bool = True
    shards: int = 1
    use_plan_cache: bool = True
    preflight: bool = False

    def backends(self) -> Tuple[str, ...]:
        """The checker backends this job will try (portfolio or singleton)."""
        return self.portfolio if self.portfolio else (self.checker,)

    def with_timeout(self, timeout: Optional[float]) -> "SynthesisOptions":
        return replace(self, timeout=timeout)

    def identity_dict(self) -> Dict[str, Any]:
        """The option fields that participate in the cache fingerprint."""
        return {
            "checker": self.checker,
            "granularity": self.granularity,
            "remove_waits": self.remove_waits,
            "use_counterexamples": self.use_counterexamples,
            "use_early_termination": self.use_early_termination,
            "use_reachability_heuristic": self.use_reachability_heuristic,
            "portfolio": list(self.portfolio),
        }


@dataclass
class SynthesisJob:
    """One unit of work queued on the service.

    ``warm_order`` is the delta path's hint: a previous plan's unit order
    (:meth:`~repro.synthesis.plan.UpdatePlan.unit_order`) to seed the
    search with.  It is *not* part of the fingerprint — a warm and a cold
    submission of the same problem are the same job (warm start is
    verdict-preserving), so they coalesce and share the plan cache.

    A job submitted as a delta also records the fingerprint of its ``base``
    job and the ``patch`` applied to it; the engine uses them to start the
    search from the base's verified final structure.  Neither is part of
    the fingerprint either.
    """

    job_id: str
    problem: Problem
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    status: JobStatus = JobStatus.QUEUED
    warm_order: Optional[Tuple[Any, ...]] = field(default=None, repr=False)
    base: Optional[str] = field(default=None, repr=False)
    patch: Optional[ProblemPatch] = field(default=None, repr=False)
    _fingerprint: Optional[str] = field(default=None, repr=False)

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = problem_fingerprint(
                self.problem, self.options.identity_dict()
            )
        return self._fingerprint


@dataclass
class JobResult:
    """Structured outcome of one job.

    ``plan`` is set only for ``done`` results; ``backend`` records which
    checker produced the verdict (useful in portfolio mode); ``cached``
    marks plans served from the plan cache without running the synthesizer.
    """

    job_id: str
    status: JobStatus
    plan: Optional[UpdatePlan] = None
    seconds: float = 0.0
    cached: bool = False
    backend: Optional[str] = None
    message: str = ""
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    def to_dict(self, *, include_plan: bool = True) -> Dict[str, Any]:
        """JSON-safe dict, one line of the ``batch`` JSONL output stream."""
        out: Dict[str, Any] = {
            "id": self.job_id,
            "status": self.status.value,
            "seconds": round(self.seconds, 6),
            "cached": self.cached,
            "fingerprint": self.fingerprint,
        }
        if self.backend is not None:
            out["backend"] = self.backend
        if self.message:
            out["message"] = self.message
        if include_plan and self.plan is not None:
            out["plan"] = plan_to_dict(self.plan)
        return out
