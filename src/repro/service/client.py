"""Thin client: the :class:`SynthesisService` surface over HTTP.

:class:`ReproClient` mirrors the in-process scheduler API —
``submit`` / ``submit_many`` / ``result`` / ``as_completed`` / ``poll`` /
``cancel`` / ``drain`` plus the introspection calls — against a
running ``repro serve`` instance, speaking ``repro-api/1``
(:mod:`repro.api`) over stdlib :mod:`urllib`.  Results come back as the
same :class:`~repro.service.jobs.JobResult` objects the local service
produces (plans rehydrated through
:func:`~repro.net.serialize.plan_from_dict` with the submitted problem's
traffic classes), so callers — the ``batch --server`` CLI in particular —
are byte-compatible with the in-process path.

Server-side error envelopes are re-raised as the exception family they
encode (``parse`` → :class:`~repro.errors.ParseError`, ``not_found`` →
``KeyError``, anything else → :class:`~repro.errors.ReproError`), which
keeps the CLI exit codes identical with and without ``--server``.

Idempotent GETs transparently retry transient transport failures with
bounded exponential backoff and jitter (``max_retries`` /
``retry_backoff``).
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence
from urllib.parse import quote

from repro.api import (
    ErrorEnvelope,
    JobView,
    SynthesisDelta,
    SynthesisRequest,
    SynthesisResponse,
)
from repro.errors import ParseError, ReproError
from repro.net.delta import ProblemPatch
from repro.net.fields import TrafficClass
from repro.net.serialize import Problem
from repro.service.jobs import JobResult, JobStatus, SynthesisOptions

#: Seconds of ``?wait=`` asked of the server per long-poll round trip.
_POLL_CHUNK_SECONDS = 10.0


class ReproClient:
    """Talks ``repro-api/1`` to a ``repro serve`` instance.

    Args:
        base_url: e.g. ``http://127.0.0.1:8421`` (trailing slash optional).
        request_timeout: socket-level timeout per HTTP exchange; long-poll
            requests get the poll chunk added on top.
        default_options: applied to ``submit`` calls without options, like
            the in-process service's ``default_options``.  ``None`` (the
            default) sends requests *without* options, so the server's own
            ``default_options`` (``repro serve --timeout ...``) apply.
        max_retries: transparent re-attempts of **GET** requests that fail
            with a *transport* error (connection refused/reset, DNS) —
            polls are idempotent, so a blip mid-long-poll costs a retry,
            not the batch.  POSTs never retry: a resubmitted job is a
            duplicate, not a repeat.  ``0`` disables.
        retry_backoff: base seconds of the bounded exponential backoff
            between retries; each attempt doubles it and adds jitter so
            many clients do not reconnect in lockstep.
    """

    def __init__(
        self,
        base_url: str,
        *,
        request_timeout: float = 30.0,
        default_options: Optional[SynthesisOptions] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
    ):
        self.base_url = base_url.rstrip("/")
        self.request_timeout = request_timeout
        self.default_options = default_options
        self.max_retries = max(0, max_retries)
        self.retry_backoff = max(0.0, retry_backoff)
        # per submitted job: the traffic classes needed to rehydrate plans,
        # and the submission order backing drain().  _base_problems
        # keeps each submitted problem by its server-side fingerprint so
        # submit_delta can fall back to a cold submission when the server
        # no longer retains the base.
        self._classes: Dict[str, Dict[str, TrafficClass]] = {}
        self._base_problems: Dict[str, Problem] = {}
        self._order: List[str] = []

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        # only idempotent GETs survive a transport blip transparently; an
        # HTTP *response* (even 5xx) is the server speaking, never retried
        retries_left = self.max_retries if method == "GET" else 0
        attempt = 0
        while True:
            try:
                with urllib.request.urlopen(
                    request, timeout=timeout or self.request_timeout
                ) as response:
                    payload = response.read()
                break
            except urllib.error.HTTPError as err:
                payload = err.read()
                self._raise_envelope(payload, err.code)
                raise  # unreachable: _raise_envelope always raises
            except urllib.error.URLError as err:
                if retries_left <= 0:
                    raise ReproError(
                        f"server unreachable at {url}: {err.reason}"
                    ) from err
                retries_left -= 1
                time.sleep(self._retry_delay(attempt))
                attempt += 1
        try:
            document = json.loads(payload)
        except json.JSONDecodeError as err:
            raise ReproError(f"bad response from {url}: {err}") from err
        if not isinstance(document, dict):
            raise ReproError(f"bad response from {url}: expected an object")
        return document

    def _retry_delay(self, attempt: int) -> float:
        """Bounded exponential backoff with full jitter (capped at 2 s)."""
        ceiling = min(2.0, self.retry_backoff * (2.0**attempt))
        return random.uniform(0.0, ceiling)

    @staticmethod
    def _raise_envelope(payload: bytes, http_status: int) -> None:
        """Re-raise a server error as the exception family it encodes."""
        try:
            envelope = ErrorEnvelope.from_dict(json.loads(payload))
        except (json.JSONDecodeError, ParseError, ValueError):
            raise ReproError(
                f"server error (HTTP {http_status}): {payload[:200]!r}"
            ) from None
        envelope.raise_()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: Problem,
        *,
        options: Optional[SynthesisOptions] = None,
        options_data: Optional[Dict[str, Any]] = None,
        job_id: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> JobView:
        """Submit one problem; returns the server's job view.

        ``options`` sends a fully-specified option set; ``options_data``
        sends a *sparse* options document (only the listed fields — the
        rest fall back to the server's defaults).  They are mutually
        exclusive.
        """
        opts = self._resolve_options(options, options_data, timeout)
        request = SynthesisRequest(problem=problem, options=opts, job_id=job_id)
        document = self._request("POST", "/v1/jobs", body=request.to_dict())
        views = [JobView.from_dict(entry) for entry in document.get("jobs", [])]
        if len(views) != 1:
            raise ReproError(f"expected one job view, got {len(views)}")
        view = views[0]
        self._remember(view.job_id, problem, fingerprint=view.fingerprint)
        return view

    def submit_delta(
        self,
        base: str,
        patch: ProblemPatch,
        *,
        options: Optional[SynthesisOptions] = None,
        options_data: Optional[Dict[str, Any]] = None,
        job_id: Optional[str] = None,
        timeout: Optional[float] = None,
        base_problem: Optional[Problem] = None,
        fallback: bool = True,
    ) -> JobView:
        """Submit a delta: a patch against an already-submitted base.

        ``base`` is the base job's fingerprint (the ``fingerprint`` field
        of its :class:`~repro.api.JobView` or result).  The server resolves
        the patch against its retained copy and warm-starts the search
        from the base plan's order — the streaming path: only the edit
        crosses the wire.

        If the server answers 404 (the base was never submitted there, or
        was evicted) and ``fallback`` is true, the client applies the
        patch locally and re-submits the full problem cold — using
        ``base_problem`` if given, else the problem this client remembers
        submitting under that fingerprint.  With no base problem at hand
        the 404 surfaces as ``KeyError``.
        """
        opts = self._resolve_options(options, options_data, timeout)
        delta = SynthesisDelta(base=base, patch=patch, options=opts, job_id=job_id)
        known_base = (
            base_problem
            if base_problem is not None
            else self._base_problems.get(base)
        )
        try:
            document = self._request("POST", "/v1/jobs", body=delta.to_dict())
        except KeyError:
            if not fallback or known_base is None:
                raise
            return self.submit(
                patch.apply_to(known_base),
                options=options,
                options_data=options_data,
                job_id=job_id,
                timeout=timeout,
            )
        views = [JobView.from_dict(entry) for entry in document.get("jobs", [])]
        if len(views) != 1:
            raise ReproError(f"expected one job view, got {len(views)}")
        view = views[0]
        resolved = patch.apply_to(known_base) if known_base is not None else None
        self._remember(view.job_id, resolved, fingerprint=view.fingerprint, base=base)
        return view

    def submit_requests(
        self, requests: Sequence[Any]
    ) -> List[JobView]:
        """Submit pre-built :class:`~repro.api.SynthesisRequest` /
        :class:`~repro.api.SynthesisDelta` documents in one ``POST /v1/jobs``."""
        document = self._request(
            "POST",
            "/v1/jobs",
            body={"jobs": [request.to_dict() for request in requests]},
        )
        views = [JobView.from_dict(entry) for entry in document.get("jobs", [])]
        if len(views) != len(requests):
            raise ReproError(
                f"expected {len(requests)} job views, got {len(views)}"
            )
        for view, request in zip(views, requests):
            if isinstance(request, SynthesisDelta):
                known_base = self._base_problems.get(request.base)
                resolved = (
                    request.patch.apply_to(known_base)
                    if known_base is not None
                    else None
                )
                self._remember(
                    view.job_id,
                    resolved,
                    fingerprint=view.fingerprint,
                    base=request.base,
                )
            else:
                self._remember(
                    view.job_id, request.problem, fingerprint=view.fingerprint
                )
        return views

    def submit_many(
        self, problems: List[Problem], **kwargs: Any
    ) -> List[JobView]:
        """Submit a batch in one ``POST /v1/jobs`` round trip."""
        options = kwargs.pop("options", None)
        options_data = kwargs.pop("options_data", None)
        timeout = kwargs.pop("timeout", None)
        if kwargs:
            raise TypeError(f"unexpected arguments {sorted(kwargs)}")
        opts = self._resolve_options(options, options_data, timeout)
        return self.submit_requests(
            [SynthesisRequest(problem=problem, options=opts) for problem in problems]
        )

    def _resolve_options(self, options, options_data, timeout):
        """The options payload for a submission — sparse unless the caller
        (or the client default) specified a full option set.

        A bare ``timeout=`` rides as a sparse ``{"timeout": ...}`` so the
        server's other defaults (checker, granularity...) still apply.
        """
        if options is not None and options_data is not None:
            raise TypeError("pass either options or options_data, not both")
        opts = options if options is not None else options_data
        if opts is None:
            opts = self.default_options
        if timeout is not None:
            if isinstance(opts, SynthesisOptions):
                opts = opts.with_timeout(timeout)
            elif opts is None:
                opts = {"timeout": timeout}
            else:
                opts = dict(opts, timeout=timeout)
        return opts

    def _remember(
        self,
        job_id: str,
        problem: Optional[Problem],
        *,
        fingerprint: str = "",
        base: Optional[str] = None,
    ) -> None:
        """Track a submission: classes for plan rehydration, order for
        ``drain``, and the problem under its fingerprint for delta
        fallback.  A delta whose base problem the client never saw has
        ``problem=None`` — its plan rehydrates with name-only classes
        inherited from the base's record when available."""
        if problem is not None:
            self._classes[job_id] = {tc.name: tc for tc in problem.classes}
            if fingerprint:
                self._base_problems[fingerprint] = problem
        elif base is not None and base in self._base_problems:
            self._classes[job_id] = {
                tc.name: tc for tc in self._base_problems[base].classes
            }
        self._order.append(job_id)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def _fetch(self, job_id: str, *, wait: float = 0.0) -> Optional[JobResult]:
        """One ``GET /v1/jobs/{id}`` exchange; ``None`` while the job is open."""
        # job ids may contain slashes (scenario ids do) — escape them so
        # the id stays a single path segment
        path = f"/v1/jobs/{quote(job_id, safe='')}"
        if wait > 0:
            path += f"?wait={wait:g}"
        document = self._request(
            "GET", path, timeout=self.request_timeout + wait
        )
        status = str(document.get("status", ""))
        if status and not JobStatus(status).terminal:
            return None
        response = SynthesisResponse.from_dict(
            document, self._classes.get(job_id)
        )
        return response.to_result()

    def try_result(self, job_id: str) -> Optional[JobResult]:
        """The settled result, or ``None`` while the job is open."""
        return self._fetch(job_id)

    def result(self, job_id: str, *, timeout: Optional[float] = None) -> JobResult:
        """Block (long-polling the server) until ``job_id`` settles.

        Always makes at least one exchange, so an already-settled job is
        returned even under ``timeout=0``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            chunk = _POLL_CHUNK_SECONDS
            if deadline is not None:
                chunk = min(chunk, max(0.0, deadline - time.monotonic()))
            result = self._fetch(job_id, wait=chunk)
            if result is not None:
                return result
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id!r} still open")

    def as_completed(self, job_ids: Iterable[str]) -> Iterator[JobResult]:
        """Yield each listed job's result (each id once) as it settles,
        mirroring :meth:`SynthesisService.as_completed`."""
        remaining = list(dict.fromkeys(job_ids))
        while remaining:
            still_open: List[str] = []
            for index, job_id in enumerate(remaining):
                # long-poll only the first open job; siblings get a quick
                # look so whichever settles first is surfaced promptly
                wait = _POLL_CHUNK_SECONDS if index == 0 else 0.0
                result = self._fetch(job_id, wait=wait)
                if result is not None:
                    yield result
                else:
                    still_open.append(job_id)
            remaining = still_open

    def poll(self) -> Dict[str, JobStatus]:
        """Status snapshot of every job the server remembers."""
        document = self._request("GET", "/v1/jobs")
        views = [JobView.from_dict(entry) for entry in document.get("jobs", [])]
        return {view.job_id: JobStatus(view.status) for view in views}

    def cancel(self, job_id: str) -> bool:
        """Withdraw a still-queued job; ``False`` once running or settled."""
        document = self._request("DELETE", f"/v1/jobs/{quote(job_id, safe='')}")
        return bool(document.get("cancelled", False))

    def drain(self, *, timeout: Optional[float] = None) -> List[JobResult]:
        """Settle every job this client submitted; submission order.

        ``timeout`` is an overall deadline across all jobs (mirroring
        :meth:`SynthesisService.drain`), not a per-job budget.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for job_id in self._order:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            results.append(self.result(job_id, timeout=remaining))
        return results

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def metrics_dict(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def cache_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/cache/stats")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")
