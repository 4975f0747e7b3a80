"""The ``repro-api/1`` wire schema: typed request/response documents.

Every document that crosses the process boundary between a front-end (the
HTTP server, the thin clients, the CLI's ``--server`` mode) and the
scheduler core is one of the dataclasses here, round-tripped through plain
JSON-safe dicts:

* :class:`SynthesisRequest` — a problem plus the options to solve it
  under, built on :func:`~repro.net.serialize.problem_to_dict`;
* :class:`SynthesisDelta` — a *delta* submission for streaming workloads:
  the fingerprint of a previously submitted base problem plus a
  structured :class:`~repro.net.delta.ProblemPatch` (link add/remove,
  rule change, ingress change, spec swap).  The scheduler resolves it
  against the retained base and warm-starts the search from the base
  plan's order; see :meth:`SynthesisDelta.from_dict`;
* :class:`JobView` — the lightweight lifecycle view of a submitted job
  (what ``GET /v1/jobs`` lists);
* :class:`SynthesisResponse` — a settled job's verdict, carrying the plan
  via :func:`~repro.net.serialize.plan_to_dict`; its :meth:`to_dict` emits
  exactly the ``batch`` subcommand's JSONL record shape, so remote and
  in-process runs are diffable line-for-line;
* :class:`ErrorEnvelope` — the machine-readable error document, built on
  the CLI exit-code taxonomy in :mod:`repro.errors` (2 infeasible,
  3 timeout, 4 parse), so a thin client can reconstruct the same exit
  status a local run would have produced;

Documents carry ``"api": "repro-api/1"``; parsers accept a missing marker
(hand-written requests) but refuse a mismatched one with
:class:`~repro.errors.ParseError` — a ``repro-api/2`` server will keep
rejecting v1 clients loudly instead of mis-parsing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import ParseError, ReproError, error_code, exit_code_for
from repro.mc.interface import CHECKER_NAMES
from repro.net.delta import ProblemPatch
from repro.net.serialize import (
    Problem,
    plan_from_dict,
    problem_from_dict,
    problem_to_dict,
)
from repro.net.fields import TrafficClass
from repro.service.jobs import JobResult, JobStatus, SynthesisJob, SynthesisOptions
from repro.synthesis.plan import UpdatePlan

#: The wire-protocol version every document in this module speaks.
API_VERSION = "repro-api/1"

_STATUS_VALUES = frozenset(status.value for status in JobStatus)


def check_api_version(data: Mapping[str, Any], *, where: str = "document") -> None:
    """Refuse a document marked with a different protocol version."""
    version = data.get("api")
    if version is not None and version != API_VERSION:
        raise ParseError(
            f"{where}: unsupported api version {version!r} "
            f"(this build speaks {API_VERSION})"
        )


def _require_str(data: Mapping[str, Any], key: str, *, where: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}: missing or empty {key!r}")
    return value


def _optional_id(data: Mapping[str, Any], *, where: str) -> Optional[str]:
    """The caller-chosen job id, if any; only a JSON string names a job."""
    job_id = data.get("id")
    if job_id is not None and not isinstance(job_id, str):
        raise ParseError(f"{where}: 'id' must be a string, got {job_id!r}")
    return job_id


# ----------------------------------------------------------------------
# options
# ----------------------------------------------------------------------
def options_to_dict(options: SynthesisOptions) -> Dict[str, Any]:
    """All :class:`SynthesisOptions` fields as a JSON-safe dict."""
    return {
        "checker": options.checker,
        "granularity": options.granularity,
        "remove_waits": options.remove_waits,
        "use_counterexamples": options.use_counterexamples,
        "use_early_termination": options.use_early_termination,
        "use_reachability_heuristic": options.use_reachability_heuristic,
        "timeout": options.timeout,
        "portfolio": list(options.portfolio),
        "use_plan_cache": options.use_plan_cache,
        "preflight": options.preflight,
    }


def _require_bool(data: Mapping[str, Any], key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"options.{key}: expected a boolean, got {value!r}")
    return value


def options_from_dict(
    data: Mapping[str, Any], base: Optional[SynthesisOptions] = None
) -> SynthesisOptions:
    """Inverse of :func:`options_to_dict`; validates every field.

    The options document is *sparse*: fields the request does not set fall
    back to ``base`` (the receiving scheduler's ``default_options`` — how
    ``repro serve --timeout 30`` still bounds a request that only picks a
    checker) or, without a base, to the :class:`SynthesisOptions`
    defaults.  Unknown keys, unknown checker names, and timeouts that are
    not a finite number >= 0 all raise :class:`~repro.errors.ParseError`
    (the ``parse`` family, wire code 4 / HTTP 400).  A timeout of ``0``
    is valid: the job times out at once.
    """
    if not isinstance(data, Mapping):
        raise ParseError(f"options: expected an object, got {data!r}")
    base = base or SynthesisOptions()
    known = {
        "checker", "granularity", "remove_waits", "use_counterexamples",
        "use_early_termination", "use_reachability_heuristic", "timeout",
        "portfolio", "use_plan_cache", "preflight",
    }
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"options: unknown fields {sorted(unknown)}")
    checker = str(data.get("checker", base.checker))
    portfolio = data.get("portfolio", list(base.portfolio))
    if not isinstance(portfolio, (list, tuple)):
        raise ParseError(f"options.portfolio: expected a list, got {portfolio!r}")
    portfolio = tuple(str(backend) for backend in portfolio)
    for backend in (checker, *portfolio):
        if backend not in CHECKER_NAMES:
            raise ParseError(
                f"options: unknown checker backend {backend!r} "
                f"(choose from {', '.join(CHECKER_NAMES)})"
            )
    granularity = str(data.get("granularity", base.granularity))
    if granularity not in ("switch", "rule"):
        raise ParseError(
            f"options.granularity: expected 'switch' or 'rule', got {granularity!r}"
        )
    timeout = data.get("timeout", base.timeout)
    if timeout is not None:
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 <= timeout < math.inf  # also false for NaN
        ):
            raise ParseError(
                f"options.timeout: expected a finite number >= 0, got {timeout!r}"
            )
        timeout = float(timeout)
    return SynthesisOptions(
        checker=checker,
        granularity=granularity,
        remove_waits=_require_bool(data, "remove_waits", base.remove_waits),
        use_counterexamples=_require_bool(
            data, "use_counterexamples", base.use_counterexamples
        ),
        use_early_termination=_require_bool(
            data, "use_early_termination", base.use_early_termination
        ),
        use_reachability_heuristic=_require_bool(
            data, "use_reachability_heuristic", base.use_reachability_heuristic
        ),
        timeout=timeout,
        portfolio=portfolio,
        use_plan_cache=_require_bool(data, "use_plan_cache", base.use_plan_cache),
        preflight=_require_bool(data, "preflight", base.preflight),
    )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SynthesisRequest:
    """One job submission: a problem plus the options to solve it under.

    ``options`` is either a full :class:`SynthesisOptions`, a *sparse*
    mapping of only the fields the sender chose (the rest merge onto the
    receiving scheduler's defaults), or ``None`` — the request does not
    choose at all and the scheduler applies its own ``default_options``
    wholesale (how ``repro serve --timeout 30`` reaches clients that send
    bare problems).  Parsing always resolves to a full
    :class:`SynthesisOptions` or ``None``.
    """

    problem: Problem
    options: Union[SynthesisOptions, Mapping[str, Any], None] = None
    job_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "api": API_VERSION,
            "problem": problem_to_dict(self.problem),
        }
        if isinstance(self.options, SynthesisOptions):
            out["options"] = options_to_dict(self.options)
        elif self.options is not None:
            out["options"] = dict(self.options)
        if self.job_id is not None:
            out["id"] = self.job_id
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        *,
        option_defaults: Optional[SynthesisOptions] = None,
    ) -> "SynthesisRequest":
        """Parse a request document.

        ``option_defaults`` is the receiving scheduler's default options:
        a request's (sparse) options merge onto it, and a request without
        any options resolves to ``options=None`` (the scheduler applies
        its defaults wholesale).
        """
        if not isinstance(data, Mapping):
            raise ParseError(f"request: expected an object, got {data!r}")
        check_api_version(data, where="request")
        problem_data = data.get("problem")
        if not isinstance(problem_data, Mapping):
            raise ParseError("request: missing 'problem' object")
        try:
            problem = problem_from_dict(problem_data)
        except ParseError:
            raise
        except (ReproError, KeyError, TypeError, ValueError, AttributeError) as err:
            raise ParseError(f"request: bad problem: {err!r}") from err
        options = (
            options_from_dict(data["options"], option_defaults)
            if "options" in data
            else None
        )
        job_id = _optional_id(data, where="request")
        return cls(problem=problem, options=options, job_id=job_id)


@dataclass(frozen=True)
class SynthesisDelta:
    """A delta submission: edit a retained base problem instead of
    resending it.

    ``base`` is the fingerprint of a previously submitted problem (the
    ``fingerprint`` field of its :class:`JobView` / :class:`SynthesisResponse`);
    ``patch`` is the structured edit.  The scheduler resolves the patch
    against its retained copy of the base, reuses the base's warm caches,
    and seeds the search with the base plan's unit order.  A delta whose
    base the scheduler no longer retains is *not* a parse error — it is a
    missing resource (HTTP 404 / ``not_found`` envelope), and clients that
    still hold the base problem fall back to a cold full submission.

    ``options`` follows the same sparse-merge contract as
    :class:`SynthesisRequest`; when omitted, the delta inherits the
    *retained base job's* options (not the scheduler's defaults), so the
    granularity and checker match the base plan whose unit order seeds the
    warm start.

    >>> delta = SynthesisDelta.from_dict(
    ...     {"api": "repro-api/1", "base": "fp123", "patch": {"spec": "true"}}
    ... )
    >>> delta.base
    'fp123'
    >>> delta.patch.spec
    'true'
    >>> sorted(delta.to_dict())
    ['api', 'base', 'patch']
    >>> SynthesisDelta.from_dict({"patch": {}})
    Traceback (most recent call last):
        ...
    repro.errors.ParseError: delta: missing or empty 'base'
    """

    base: str
    patch: ProblemPatch
    options: Union[SynthesisOptions, Mapping[str, Any], None] = None
    job_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "api": API_VERSION,
            "base": self.base,
            "patch": self.patch.to_dict(),
        }
        if isinstance(self.options, SynthesisOptions):
            out["options"] = options_to_dict(self.options)
        elif self.options is not None:
            out["options"] = dict(self.options)
        if self.job_id is not None:
            out["id"] = self.job_id
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        *,
        option_defaults: Optional[SynthesisOptions] = None,
    ) -> "SynthesisDelta":
        """Parse a delta document; malformed patches raise
        :class:`~repro.errors.ParseError` (HTTP 400)."""
        if not isinstance(data, Mapping):
            raise ParseError(f"delta: expected an object, got {data!r}")
        check_api_version(data, where="delta")
        base = _require_str(data, "base", where="delta")
        patch_data = data.get("patch")
        if not isinstance(patch_data, Mapping):
            raise ParseError("delta: missing 'patch' object")
        patch = ProblemPatch.from_dict(patch_data)
        options = (
            options_from_dict(data["options"], option_defaults)
            if "options" in data
            else None
        )
        job_id = _optional_id(data, where="delta")
        return cls(base=base, patch=patch, options=options, job_id=job_id)


def is_delta_document(data: Mapping[str, Any]) -> bool:
    """True when a ``POST /v1/jobs`` entry is a delta (has a ``base`` key)
    rather than a full :class:`SynthesisRequest` (has a ``problem`` key)."""
    return isinstance(data, Mapping) and "base" in data


# ----------------------------------------------------------------------
# job views and responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobView:
    """Lifecycle view of one submitted job (``GET /v1/jobs`` listing)."""

    job_id: str
    status: str
    fingerprint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "id": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobView":
        if not isinstance(data, Mapping):
            raise ParseError(f"job view: expected an object, got {data!r}")
        check_api_version(data, where="job view")
        status = str(data.get("status", ""))
        if status not in _STATUS_VALUES:
            raise ParseError(f"job view: unknown status {status!r}")
        return cls(
            job_id=str(data.get("id", "")),
            status=status,
            fingerprint=str(data.get("fingerprint", "")),
        )

    @classmethod
    def from_job(cls, job: SynthesisJob) -> "JobView":
        return cls(
            job_id=job.job_id,
            status=job.status.value,
            fingerprint=job.fingerprint,
        )


@dataclass(frozen=True)
class SynthesisResponse:
    """A settled job's verdict as it crosses the wire.

    :meth:`to_dict` produces the exact record shape of
    :meth:`repro.service.jobs.JobResult.to_dict` (plus the ``api`` marker),
    so the ``batch --server`` JSONL stream diffs cleanly against an
    in-process run.
    """

    job_id: str
    status: str
    plan: Optional[UpdatePlan] = None
    seconds: float = 0.0
    cached: bool = False
    backend: Optional[str] = None
    message: str = ""
    fingerprint: str = ""

    def to_dict(self, *, include_plan: bool = True) -> Dict[str, Any]:
        out = self.to_result().to_dict(include_plan=include_plan)
        out["api"] = API_VERSION
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        classes: Optional[Mapping[str, TrafficClass]] = None,
    ) -> "SynthesisResponse":
        """Parse a response document; ``classes`` rehydrates the plan's
        rule-granularity commands (unknown names fall back to name-only
        classes, exactly like the plan cache)."""
        if not isinstance(data, Mapping):
            raise ParseError(f"response: expected an object, got {data!r}")
        check_api_version(data, where="response")
        status = str(data.get("status", ""))
        if status not in _STATUS_VALUES:
            raise ParseError(f"response: unknown status {status!r}")
        plan = None
        plan_data = data.get("plan")
        if plan_data is not None:
            if not isinstance(plan_data, Mapping):
                raise ParseError(f"response: bad plan {plan_data!r}")
            plan = plan_from_dict(plan_data, classes)
        seconds = data.get("seconds", 0.0)
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ParseError(f"response: bad seconds {seconds!r}")
        return cls(
            job_id=str(data.get("id", "")),
            status=status,
            plan=plan,
            seconds=float(seconds),
            cached=bool(data.get("cached", False)),
            backend=data.get("backend"),
            message=str(data.get("message", "")),
            fingerprint=str(data.get("fingerprint", "")),
        )

    @classmethod
    def from_result(cls, result: JobResult) -> "SynthesisResponse":
        return cls(
            job_id=result.job_id,
            status=result.status.value,
            plan=result.plan,
            seconds=result.seconds,
            cached=result.cached,
            backend=result.backend,
            message=result.message,
            fingerprint=result.fingerprint,
        )

    def to_result(self) -> JobResult:
        """The :class:`JobResult` this response describes — what the thin
        client hands back so remote and in-process callers share one type."""
        return JobResult(
            job_id=self.job_id,
            status=JobStatus(self.status),
            plan=self.plan,
            seconds=self.seconds,
            cached=self.cached,
            backend=self.backend,
            message=self.message,
            fingerprint=self.fingerprint,
        )


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorEnvelope:
    """Machine-readable error document, aligned with the CLI exit codes.

    ``code`` is the family name (``parse``, ``infeasible``, ``timeout``,
    ``failure``, ``not_found``) and ``exit_code`` the process exit status a
    local CLI run would have produced for the same failure — a thin client
    exits with it directly.
    """

    code: str
    message: str
    exit_code: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "error": {
                "code": self.code,
                "message": self.message,
                "exit_code": self.exit_code,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorEnvelope":
        if not isinstance(data, Mapping):
            raise ParseError(f"error envelope: expected an object, got {data!r}")
        check_api_version(data, where="error envelope")
        body = data.get("error")
        if not isinstance(body, Mapping):
            raise ParseError("error envelope: missing 'error' object")
        exit_code = body.get("exit_code", exit_code_for(str(body.get("code", ""))))
        if isinstance(exit_code, bool) or not isinstance(exit_code, int):
            raise ParseError(f"error envelope: bad exit_code {exit_code!r}")
        return cls(
            code=str(body.get("code", "failure")),
            message=str(body.get("message", "")),
            exit_code=exit_code,
        )

    @classmethod
    def from_exception(cls, err: BaseException) -> "ErrorEnvelope":
        exit_code = exit_code_for(err)
        return cls(
            code=error_code(exit_code),
            message=str(err) or type(err).__name__,
            exit_code=exit_code,
        )

    @classmethod
    def not_found(cls, what: str) -> "ErrorEnvelope":
        """A missing resource (unknown or expired job id); exit family 1."""
        return cls(code="not_found", message=what, exit_code=exit_code_for("failure"))

    def raise_(self) -> None:
        """Re-raise this envelope as the exception family it encodes."""
        if self.code == "parse":
            raise ParseError(self.message)
        if self.code == "not_found":
            raise KeyError(self.message)
        raise ReproError(self.message)
