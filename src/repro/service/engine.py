"""The synthesis scheduler: a persistent, cache-first core that runs each
job in process.

:class:`SynthesisService` turns the one-shot
:class:`~repro.synthesis.UpdateSynthesizer` into a long-lived scheduler.
Jobs flow through three stages:

1. **fingerprint** — every submitted problem is content-hashed
   (:mod:`repro.service.fingerprint`); identical problems submitted twice —
   whether in one batch or by *independent* callers while the first is in
   flight — are *coalesced* onto a single execution;
2. **cache** — the :class:`~repro.service.cache.PlanCache` is consulted
   first, so re-submitted problems are answered without synthesis;
3. **execute** — each cache-miss group runs one ORDERUPDATE search on the
   scheduler thread (:func:`_execute_problem`), with the job's checker
   backend.

Scheduling is **continuous**: :meth:`SynthesisService.submit` is legal at
any time, including while execution is in flight.  A single scheduler
thread drains the submission queue in micro-batches; it starts lazily on
the first consumer call (:meth:`as_completed`, :meth:`result`,
:meth:`drain`) and exits once the queue runs dry, or is started
explicitly via :meth:`start` (what the HTTP server does) and then stays
resident until :meth:`close`.  While no scheduler is running,
submissions simply queue — which keeps the ``submit`` → ``as_completed``
batch idiom fully deterministic: every job is pending when the scheduler
starts, so duplicates coalesce the same way on every run, and a dropped
batch-style service leaks no thread.  :meth:`as_completed` yields the
listed jobs' results as they settle, :meth:`result` waits on one job,
:meth:`jobs_snapshot` lists every job with its result, :meth:`cancel`
withdraws a still-queued job, and :meth:`drain` blocks until the service
is idle.

Execution passes objects end to end: the job's
:class:`~repro.net.serialize.Problem` goes to the synthesizer and its
:class:`~repro.synthesis.plan.UpdatePlan` comes back, with no dict
conversion on the way.  Per-job timeouts are enforced cooperatively by
the synthesizer's own deadline checks.

Streaming callers can submit **deltas** instead of full problems:
:meth:`SynthesisService.submit_delta` resolves a
:class:`~repro.net.delta.ProblemPatch` against a retained base problem
(every submission is kept, LRU-bounded by :data:`BASE_RETENTION`) and
warm-starts the search from the base plan's unit order — the churn path
of the ``repro-api/1`` delta extension (see ``docs/API.md``).  A delta
also starts from what its base's search verified: the base's label
engine, and when the delta only moves rules on from the base's final
configuration, the labeled final structure itself
(:meth:`SynthesisService._handover`, :data:`START_RETENTION`).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import replace
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError, SynthesisTimeout, UpdateInfeasibleError
from repro.mc.incremental import IncrementalChecker
from repro.net.delta import ProblemPatch
from repro.net.serialize import Problem
from repro.service.cache import PlanCache
from repro.service.jobs import JobResult, JobStatus, SynthesisJob, SynthesisOptions
from repro.service.metrics import ServiceMetrics
from repro.synthesis import UpdateSynthesizer
from repro.synthesis.search import Handover

#: Jobs coalesce onto one execution only when both the problem fingerprint
#: and the time budget agree (a "timeout" verdict is budget-specific).
_GroupKey = Tuple[str, Optional[float]]

#: Settled results retained for ``result()``/``GET /v1/jobs/{id}`` lookups.
#: A long-lived server must not grow memory with every job ever served;
#: beyond this many known jobs, the oldest settled results nobody is
#: waiting on are evicted (a later lookup of an evicted id raises
#: ``KeyError``).
RESULT_RETENTION = 4096

#: Base problems retained for delta resolution (:meth:`SynthesisService.
#: submit_delta`), LRU by fingerprint.  A delta against an evicted base is
#: a missing resource (``KeyError`` / HTTP 404), and clients that still
#: hold the base problem fall back to a cold full submission.
BASE_RETENTION = 1024

#: Checkers of verified final structures, retained for delta jobs to
#: start from (see :meth:`SynthesisService._handover`), LRU by
#: fingerprint.  Each holds a whole Kripke structure with its labels, and a
#: churn stream only ever starts from its latest job, so a few suffice.
START_RETENTION = 4


def _execute_problem(job: SynthesisJob, handover: Handover) -> JobResult:
    """Run one synthesis attempt for ``job``; never raises.

    A ``done`` result carries the :class:`~repro.synthesis.plan.UpdatePlan`
    object; errors become ``status="error"``.  The job's ``warm_order``
    (the delta path's base-plan hint) seeds the search and degrades to cold
    when stale; ``handover`` lends and collects labeled structures (see
    :class:`~repro.synthesis.search.Handover`).
    """
    options = job.options
    start = time.perf_counter()
    plan = None
    message = ""
    try:
        synth = UpdateSynthesizer(
            job.problem.topology,
            checker=options.checker,
            granularity=options.granularity,
            remove_waits=options.remove_waits,
        )
        plan = synth.synthesize(
            job.problem.init,
            job.problem.final,
            job.problem.spec,
            job.problem.ingresses,
            timeout=options.timeout,
            warm_order=job.warm_order,
            handover=handover,
        )
        status = JobStatus.DONE
    except UpdateInfeasibleError as err:
        status, message = JobStatus.INFEASIBLE, f"({err.reason}) {err}"
    except SynthesisTimeout as err:
        status, message = JobStatus.TIMEOUT, str(err)
    except Exception as err:  # noqa: BLE001 — a job's failure is its result
        status, message = JobStatus.ERROR, f"{type(err).__name__}: {err}"
    return JobResult(
        job_id=job.job_id,
        status=status,
        plan=plan,
        seconds=time.perf_counter() - start,
        backend=options.checker,
        message=message,
        fingerprint=job.fingerprint,
    )


class SynthesisService:
    """Schedules synthesis jobs behind a plan cache.

    Args:
        workers: accepted only as ``0`` (in-process execution, the one
            path); any other value raises ``ValueError``.
        cache: a :class:`PlanCache` to share between services, or ``None`` to
            create one.
        default_options: :class:`SynthesisOptions` applied to ``submit``
            calls that don't bring their own.

    All public methods are thread-safe; the HTTP front-end
    (:mod:`repro.service.server`) calls them from handler threads while the
    scheduler thread executes.  The service is a context manager —
    ``with SynthesisService() as service: ...`` closes it on exit.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        cache: Optional[PlanCache] = None,
        default_options: Optional[SynthesisOptions] = None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        if workers != 0:
            raise ValueError(f"workers={workers!r}: jobs run in process only")
        self.cache = cache if cache is not None else PlanCache()
        self.default_options = default_options or SynthesisOptions()
        self.metrics = metrics or ServiceMetrics()
        self._ids = itertools.count(1)
        # scheduler state, all guarded by the condition's lock.  The cv is
        # notified on every publication and queue append.
        self._cv = threading.Condition()
        self._queue: Deque[SynthesisJob] = deque()
        self._jobs: Dict[str, SynthesisJob] = {}
        self._results: Dict[str, JobResult] = {}
        self._order: List[str] = []
        # ids a result() or as_completed() caller is waiting on
        # (refcounted): never evicted, or the waiter could hang on a result
        # that vanished under it
        self._watchers: Dict[str, int] = {}
        # (fingerprint, timeout) groups currently executing; submissions
        # matching one attach to it instead of queueing a second execution
        self._active: Dict[_GroupKey, List[SynthesisJob]] = {}
        # delta support: every submitted problem is retained (LRU, bounded
        # by BASE_RETENTION) under its job fingerprint so a later
        # submit_delta can resolve a patch against it without the client
        # resending the problem
        self._bases: "OrderedDict[str, Tuple[Problem, SynthesisOptions]]" = (
            OrderedDict()
        )
        # the checkers of recent jobs' verified final structures
        # (START_RETENTION), by fingerprint; scheduler thread only
        self._starts: "OrderedDict[str, IncrementalChecker]" = OrderedDict()
        self._thread: Optional[threading.Thread] = None
        # explicit start() makes the scheduler resident (server mode);
        # consumer-auto-started threads exit once the queue runs dry, so a
        # dropped batch-style service leaks no parked thread
        self._persistent = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, *, persistent: bool = True) -> "SynthesisService":
        """Start the scheduler thread (idempotent).

        ``as_completed``/``result``/``drain`` call this implicitly with
        ``persistent=False`` — the thread then parks only while work is
        pending and exits once the queue runs dry (so classic batch users
        leak nothing).  An explicit ``start()`` (the HTTP server at boot)
        keeps the scheduler resident until :meth:`close`, executing
        submissions with no consumer attached.
        """
        with self._cv:
            if self._closed:
                raise ReproError("service is closed")
            self._persistent = self._persistent or persistent
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._scheduler_loop,
                    name="repro-scheduler",
                    daemon=True,
                )
                self._thread.start()
        return self

    def close(self, *, timeout: Optional[float] = 30.0) -> None:
        """Stop the scheduler: cancel queued jobs, finish in-flight work.

        Jobs still queued settle as ``cancelled``; the micro-batch being
        executed (if any) runs to completion so no job is left ``running``.
        Idempotent.
        """
        with self._cv:
            if self._closed:
                thread = self._thread
            else:
                self._closed = True
                while self._queue:
                    job = self._queue.popleft()
                    self._settle_cancelled_locked(job, "cancelled: service closing")
                thread = self._thread
                self._cv.notify_all()
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: Problem,
        *,
        options: Optional[SynthesisOptions] = None,
        job_id: Optional[str] = None,
        timeout: Optional[float] = None,
        warm_order: Optional[Sequence[Any]] = None,
        watch: bool = False,
    ) -> SynthesisJob:
        """Register one problem with the scheduler; returns the job handle.

        Legal at any time, including while execution is in flight.  If an
        identical problem under the same budget is *currently executing*,
        the new job attaches to that execution (fingerprint coalescing
        across independent submissions) and settles with it.

        Job ids identify jobs: re-using the id of a *settled* job starts a
        new generation (the old result is forgotten — a re-submitted batch
        against a warm server answers from the plan cache), while re-using
        the id of a still-open job raises
        :class:`~repro.errors.ReproError`.

        ``warm_order`` seeds the search with a previous plan's unit order
        (the delta path passes the base plan's); it does not change the
        job's identity — warm start is verdict-preserving.  The submitted
        problem is also retained (LRU) as a possible *base* for later
        :meth:`submit_delta` calls against its fingerprint.

        ``watch=True`` protects the job's result from retention eviction
        from the moment it is registered until the caller releases it with
        :meth:`unwatch`.
        """
        return self._enqueue(
            SynthesisJob(
                job_id=job_id or self._next_id(),
                problem=problem,
                options=self._options(options, timeout),
                warm_order=tuple(warm_order) if warm_order is not None else None,
            ),
            watch,
        )

    def _next_id(self) -> str:
        # ``auto-`` keeps assigned ids apart from ``repro batch``'s default
        # line ids (``job-<lineno>``), which share one server's namespace
        return f"auto-{next(self._ids)}"

    def _options(
        self, options: Optional[SynthesisOptions], timeout: Optional[float]
    ) -> SynthesisOptions:
        opts = options or self.default_options
        return opts if timeout is None else opts.with_timeout(timeout)

    def _enqueue(self, job: SynthesisJob, watch: bool) -> SynthesisJob:
        """Register a built job: retain it as a base, coalesce or queue it,
        and protect it from eviction if asked."""
        opts = job.options
        problem = job.problem
        fingerprint = job.fingerprint  # content hash, computed outside the lock
        with self._cv:
            if self._closed:
                raise ReproError("service is closed")
            self._bases[fingerprint] = (problem, opts)
            self._bases.move_to_end(fingerprint)
            while len(self._bases) > BASE_RETENTION:
                self._bases.popitem(last=False)
            if job.job_id in self._jobs:
                if job.job_id not in self._results:
                    raise ReproError(
                        f"duplicate job id {job.job_id!r} (still open)"
                    )
                self._forget_locked(job.job_id)
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            if watch:
                self._watchers[job.job_id] = self._watchers.get(job.job_id, 0) + 1
            self.metrics.submitted += 1
            group = self._active.get((fingerprint, opts.timeout))
            if group is not None:
                # attach to the in-flight execution; settles with the group
                job.status = JobStatus.RUNNING
                group.append(job)
            else:
                self._queue.append(job)
                self._cv.notify_all()
            self._evict_locked()
        return job

    def submit_delta(
        self,
        base: str,
        patch: ProblemPatch,
        *,
        options: Optional[SynthesisOptions] = None,
        job_id: Optional[str] = None,
        timeout: Optional[float] = None,
        watch: bool = False,
    ) -> SynthesisJob:
        """Register an *edit* of a retained base problem (a delta).

        ``base`` is the fingerprint of a previously submitted job; the
        patch is resolved against the retained base incrementally
        (:meth:`~repro.net.delta.ProblemPatch.apply_to` — structural
        sharing keeps the content-hash and label caches warm) and, when
        the base's plan is still in the plan cache, its unit order
        warm-starts the new search.  The search may also start from the
        base's verified final structure (see :meth:`_handover`).  The
        resolved job is an ordinary submission: it coalesces, caches, and
        is itself retained as a base, so a churn stream can chain deltas
        indefinitely.

        Raises ``KeyError`` when the base fingerprint is unknown or has
        been evicted (HTTP 404 at the server — *not* a parse error;
        clients holding the base problem fall back to a cold submission),
        and :class:`~repro.errors.ParseError` when the patch does not
        apply to the base.  When ``options`` is ``None`` the delta
        inherits the retained base's options, keeping granularity and
        checker aligned with the plan whose order seeds the search.
        ``watch`` is as for :meth:`submit`.
        """
        with self._cv:
            entry = self._bases.get(base)
            if entry is not None:
                self._bases.move_to_end(base)
        if entry is None:
            raise KeyError(f"unknown base fingerprint {base!r}")
        base_problem, base_options = entry
        problem = patch.apply_to(base_problem)
        warm_order: Optional[Tuple[Any, ...]] = None
        # not a job's cache lookup: leave the hit/miss counters alone
        base_plan = self.cache.peek(base)
        if base_plan is not None:
            warm_order = tuple(base_plan.unit_order())
        return self._enqueue(
            SynthesisJob(
                job_id=job_id or self._next_id(),
                problem=problem,
                options=self._options(options or base_options, timeout),
                warm_order=warm_order,
                base=base,
                patch=patch,
            ),
            watch,
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> SynthesisJob:
        """The job handle for ``job_id`` (``KeyError`` if unknown/expired)."""
        with self._cv:
            return self._jobs[job_id]

    def try_result(self, job_id: str) -> Optional[JobResult]:
        """The settled result for ``job_id``, or ``None`` while it is open.

        ``KeyError`` if the id was never submitted (or has been evicted).
        """
        with self._cv:
            if job_id not in self._jobs:
                raise KeyError(job_id)
            return self._results.get(job_id)

    def result(self, job_id: str, *, timeout: Optional[float] = None) -> JobResult:
        """Block until ``job_id`` settles and return its result.

        Starts the scheduler if needed.  Raises ``KeyError`` for unknown
        (or meanwhile-evicted) ids and ``TimeoutError`` when ``timeout``
        seconds elapse first.  While a caller waits here, the job's result
        is protected from retention eviction.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # Register the watcher BEFORE starting the scheduler: a started
        # scheduler may settle the job and evict its result in the gap,
        # and the watcher is what makes the result eviction-proof.
        self._watch([job_id])
        try:
            self.start(persistent=False)
            with self._cv:
                while job_id not in self._results:
                    if job_id not in self._jobs:
                        raise KeyError(f"{job_id}: evicted while waiting")
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError(f"job {job_id!r} still open")
                    self._cv.wait(remaining)
                return self._results[job_id]
        finally:
            self.unwatch([job_id])

    def as_completed(self, job_ids: Iterable[str]) -> Iterator[JobResult]:
        """Yield each listed job's result (each id once) as it settles.

        Results already settled come first, in the given order; the rest
        follow in completion order.  Raises ``KeyError`` for an id that
        was never submitted (or has been evicted).  Every id not yet
        yielded is watched, like a blocked :meth:`result`, so its result
        cannot be evicted; closing the iterator early releases the rest.
        Starts the scheduler if needed.
        """
        held = dict.fromkeys(job_ids)  # watched and not yet yielded, in order
        self._watch(held)
        try:
            self.start(persistent=False)
            while held:
                with self._cv:
                    while not any(job_id in self._results for job_id in held):
                        self._cv.wait()
                    ready = [
                        (job_id, self._results[job_id])
                        for job_id in held
                        if job_id in self._results
                    ]
                for job_id, result in ready:
                    del held[job_id]
                    self.unwatch([job_id])
                    yield result
        finally:
            self.unwatch(held)

    def _watch(self, job_ids: Iterable[str]) -> None:
        """Protect ``job_ids`` from eviction (``KeyError`` if any is
        unknown, before any is watched)."""
        with self._cv:
            job_ids = list(job_ids)
            for job_id in job_ids:
                if job_id not in self._jobs:
                    raise KeyError(job_id)
            for job_id in job_ids:
                self._watchers[job_id] = self._watchers.get(job_id, 0) + 1

    def unwatch(self, job_ids: Iterable[str]) -> None:
        """Release one hold on each of ``job_ids``: a ``watch=True``
        submission's, or a waiter's.  Holds are counted, so they nest."""
        with self._cv:
            for job_id in job_ids:
                count = self._watchers.get(job_id, 0) - 1
                if count <= 0:
                    self._watchers.pop(job_id, None)
                else:
                    self._watchers[job_id] = count

    def jobs_snapshot(self) -> List[Tuple[SynthesisJob, Optional[JobResult]]]:
        """Every remembered job with its settled result (or ``None``)."""
        with self._cv:
            return [
                (self._jobs[job_id], self._results.get(job_id))
                for job_id in self._order
                if job_id in self._jobs
            ]

    def cancel(self, job_id: str) -> bool:
        """Withdraw a still-queued job; returns whether it was cancelled.

        Only ``queued`` jobs can be cancelled: a running execution is
        shared with every coalesced sibling, and a settled job already has
        its result.  Raises ``KeyError`` for unknown ids.
        """
        with self._cv:
            job = self._jobs[job_id]
            if job.status is not JobStatus.QUEUED or job not in self._queue:
                return False
            self._queue.remove(job)
            self._settle_cancelled_locked(job, "cancelled while queued")
            return True

    def wait_idle(self, *, timeout: Optional[float] = None) -> None:
        """Block until no job is queued or running.

        Raises ``TimeoutError`` when ``timeout`` seconds elapse first.
        """
        self.start(persistent=False)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while any(
                job_id not in self._results
                for job_id in self._order
                if job_id in self._jobs
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("wait_idle: jobs still open")
                self._cv.wait(remaining)

    def drain(self, *, timeout: Optional[float] = None) -> List[JobResult]:
        """Block until no job is queued or running; return all retained
        results in submission order.

        Jobs submitted *while* draining extend the wait — the method
        returns only when the service is momentarily idle.  Raises
        ``TimeoutError`` when ``timeout`` seconds elapse first.
        """
        self.wait_idle(timeout=timeout)
        with self._cv:
            return [
                self._results[job_id]
                for job_id in self._order
                if job_id in self._results
            ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        stats = self.cache.stats.as_dict()
        stats["entries"] = len(self.cache)
        return stats

    def metrics_dict(self) -> Dict[str, Any]:
        out = self.metrics.as_dict()
        out["cache"] = self.cache_stats()
        with self._cv:
            queue_depth = len(self._queue)
            in_flight = sum(
                1
                for job in self._jobs.values()
                if job.status is JobStatus.RUNNING
            )
        out["gauges"] = self.metrics.gauges_dict(
            queue_depth=queue_depth, in_flight=in_flight
        )
        return out

    # ------------------------------------------------------------------
    # scheduler internals
    # ------------------------------------------------------------------
    def _publish_locked(self, result: JobResult) -> None:
        """Record a settled result and wake every waiter (cv held)."""
        self._results[result.job_id] = result
        self._evict_locked()
        self._cv.notify_all()

    def _settle_cancelled_locked(self, job: SynthesisJob, message: str) -> None:
        job.status = JobStatus.CANCELLED
        result = JobResult(
            job_id=job.job_id,
            status=JobStatus.CANCELLED,
            message=message,
            fingerprint=job.fingerprint,
        )
        self.metrics.observe(result)
        self._publish_locked(result)

    def _forget_locked(self, job_id: str) -> None:
        """Drop every trace of a settled job (id re-use, eviction)."""
        self._jobs.pop(job_id, None)
        self._results.pop(job_id, None)
        self._order.remove(job_id)

    def _evict_locked(self) -> None:
        """Bound memory: beyond :data:`RESULT_RETENTION` remembered jobs,
        forget the oldest settled results that nobody watches (a blocked
        ``result()`` or an ``as_completed()`` that has not yielded them).
        """
        if len(self._order) <= RESULT_RETENTION:
            return
        kept: List[str] = []
        excess = len(self._order) - RESULT_RETENTION
        for job_id in self._order:
            evictable = job_id in self._results and job_id not in self._watchers
            if excess > 0 and evictable:
                del self._results[job_id]
                self._jobs.pop(job_id, None)
                excess -= 1
            else:
                kept.append(job_id)
        self._order = kept

    def _scheduler_loop(self) -> None:
        """The scheduler thread: drain → micro-batch → publish.

        A persistent scheduler parks on the condition variable between
        micro-batches; a consumer-auto-started one returns once the queue
        is empty (``start()`` respawns it on the next call).
        """
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    if not self._persistent and self._thread is threading.current_thread():
                        self._thread = None
                        return
                    self._cv.wait()
                if self._closed and not self._queue:
                    return
                batch: List[SynthesisJob] = []
                while self._queue:
                    job = self._queue.popleft()
                    if not job.status.terminal:  # cancel races settle jobs
                        batch.append(job)
            try:
                groups = self._plan_batch(batch)
            except BaseException as err:  # noqa: BLE001 — must not die
                # e.g. a cache lookup that raised: the popped batch must
                # still settle or its waiters would hang forever
                crashed: Dict[_GroupKey, List[SynthesisJob]] = {}
                for job in batch:
                    key = (job.fingerprint, job.options.timeout)
                    crashed.setdefault(key, []).append(job)
                self._settle_crashed(crashed, err)
                continue
            if groups:
                try:
                    self._execute_groups(groups)
                except BaseException as err:  # noqa: BLE001 — must not die
                    self._settle_crashed(groups, err)

    def _plan_batch(
        self, batch: List[SynthesisJob]
    ) -> Dict[_GroupKey, List[SynthesisJob]]:
        """Sort drained jobs into cache hits and fingerprint groups.

        Cache lookups (a plan copy per hit) run *outside* the scheduler
        lock so handler threads are never stalled behind them; hits
        publish and miss groups register as *active* — so later
        submissions attach instead of re-executing — under one short
        critical section.  The group key
        includes the timeout (the fingerprint deliberately does not): a
        non-definitive verdict like "timeout" only holds for jobs that ran
        under the same budget.
        """
        hits: List[Tuple[SynthesisJob, Any]] = []
        groups: Dict[_GroupKey, List[SynthesisJob]] = {}
        for job in batch:
            plan = self.cache.get(job.fingerprint)
            if plan is not None:
                hits.append((job, plan))
                continue
            key = (job.fingerprint, job.options.timeout)
            groups.setdefault(key, []).append(job)
        for group in groups.values():
            # the group executes as group[0]: adopt the first
            # warm hint any coalesced sibling brought (they are the same
            # problem, so any base plan's order is an equally valid seed)
            if group[0].warm_order is None:
                group[0].warm_order = next(
                    (j.warm_order for j in group if j.warm_order is not None),
                    None,
                )
        with self._cv:
            for job, plan in hits:
                job.status = JobStatus.DONE
                result = JobResult(
                    job_id=job.job_id,
                    status=JobStatus.DONE,
                    plan=plan,
                    cached=True,
                    fingerprint=job.fingerprint,
                )
                self.metrics.observe(result)
                self._publish_locked(result)
            for key, group in groups.items():
                self._active[key] = group
        return groups

    def _execute_groups(self, groups: Dict[_GroupKey, List[SynthesisJob]]) -> None:
        """Run one micro-batch of cache-miss groups, one search per group
        on this thread, and publish each group's verdicts as it settles."""
        with self.metrics.time_batch() as timer:
            for key, group in groups.items():
                for job in group:  # every coalesced sibling is executing
                    job.status = JobStatus.RUNNING
                handover = self._handover(group[0])
                lead = _execute_problem(group[0], handover)
                if handover.final is not None:
                    self._retain_start(key[0], handover.final)
                self._settle_group(key, group, lead, timer)

    def _settle_group(
        self,
        key: _GroupKey,
        group: List[SynthesisJob],
        lead: JobResult,
        timer: Any,
    ) -> None:
        """Fan the search's result out to every job coalesced on it, then
        publish them all.

        ``lead`` is ``group[0]``'s result; each sibling gets a copy of its
        plan.  ``group`` is the list ``_active`` holds, so jobs that
        attached while the search ran settle here too.
        """
        with self._cv:
            # retire the group: submissions from here on queue for the
            # next micro-batch (and hit the cache)
            group = self._active.pop(key, group)
        # cache.put (a plan copy) stays outside the lock, like the cache
        # lookups in _plan_batch
        if lead.plan is not None:
            self.cache.put(lead.fingerprint, lead.plan)
        note = f": {lead.message}" if lead.message else ""
        results = [lead] + [
            replace(
                lead,
                job_id=job.job_id,
                plan=None if lead.plan is None else lead.plan.copy(),
                seconds=0.0,
                message=f"coalesced with {lead.job_id}{note}",
            )
            for job in group[1:]
        ]
        with self._cv:
            # credit the wall time before waking readers: one woken by the
            # batch's last result must read the whole batch
            timer.lap()
            self.metrics.coalesced += len(group) - 1
            for job, result in zip(group, results):
                job.status = result.status
                self.metrics.observe(result)
                self._publish_locked(result)

    def _settle_crashed(
        self, groups: Dict[_GroupKey, List[SynthesisJob]], err: BaseException
    ) -> None:
        """Planning or executing a micro-batch raised (say, a cache lookup
        or write failed): settle every open job of ``groups`` as ``error``,
        so no waiter hangs."""
        message = f"scheduler error: {type(err).__name__}: {err}"
        with self._cv:
            for key, group in groups.items():
                self._active.pop(key, None)
                for job in group:
                    if job.job_id in self._results:
                        continue
                    job.status = JobStatus.ERROR
                    result = JobResult(
                        job_id=job.job_id,
                        status=JobStatus.ERROR,
                        message=message,
                        fingerprint=job.fingerprint,
                    )
                    self.metrics.observe(result)
                    self._publish_locked(result)

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _handover(self, job: SynthesisJob) -> Handover:
        """What ``job``'s search may take over from its delta base's.

        Only a delta (``job.base``) whose base left a verified final
        structure qualifies.  If the delta keeps the base's spec object,
        its search reuses the base's label engine.  It also starts from the
        base's final structure itself when all of these hold: the patch
        edits no link, ingress or spec; the backend is ``incremental``; and
        the delta's ``init`` equals the base's ``final``.  That structure
        is popped, since the search mutates it.  Every search hands its own
        verified final structure back through the returned object.
        """
        base = self._starts.get(job.base) if job.base is not None else None
        if base is None or job.problem.spec is not base.engine.formula:
            return Handover()
        handover = Handover(engine=base.engine)
        if (
            job.options.checker == "incremental"
            and job.patch is not None
            and not job.patch.touches_scope()
            and base.structure.has_config(job.problem.init)
        ):
            handover.start = self._starts.pop(job.base)
        return handover

    def _retain_start(self, fingerprint: str, checker: IncrementalChecker) -> None:
        self._starts[fingerprint] = checker
        self._starts.move_to_end(fingerprint)
        while len(self._starts) > START_RETENTION:
            self._starts.popitem(last=False)
