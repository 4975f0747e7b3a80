"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single type at the API boundary while tests can assert on the precise
subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(ReproError):
    """Raised for malformed topologies (duplicate links, unknown nodes...)."""


class ConfigurationError(ReproError):
    """Raised for malformed configurations (rules on unknown switches...)."""


class ParseError(ReproError):
    """Raised when parsing LTL formulas or wire documents fails."""


class ModelCheckError(ReproError):
    """Raised when a model checker is used incorrectly (e.g. stale labels)."""


class ForwardingLoopError(ReproError):
    """Raised when a configuration contains a forwarding loop.

    The offending cycle is available as the ``cycle`` attribute (a list of
    Kripke states or switch identifiers, depending on where it was detected).
    """

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else []


class UpdateInfeasibleError(ReproError):
    """Raised when no correct update sequence exists for a synthesis problem.

    ``reason`` distinguishes exhaustive-search failure (``"search"``) from the
    early-termination optimization proving unsatisfiability (``"sat"``).
    """

    def __init__(self, message: str, reason: str = "search"):
        super().__init__(message)
        self.reason = reason


class SynthesisTimeout(ReproError):
    """Raised when synthesis exceeds its time budget."""


class SimulationError(ReproError):
    """Raised by the operational network machine / discrete-event simulator."""


# ----------------------------------------------------------------------
# exit-code taxonomy
# ----------------------------------------------------------------------
# The four status families shared by every front-end: CLI subcommands
# (``synthesize``, ``batch``, ``submit``, ``serve``), the HTTP error
# envelope (:class:`repro.api.ErrorEnvelope`), and the thin clients.
# Centralized here so the mapping cannot drift between surfaces.

#: success (for ``batch``: every job settled without an ``error`` status).
EXIT_OK = 0
#: generic failure (library error, ``check`` violation, errored batch job).
EXIT_FAILURE = 1
#: the synthesis problem is infeasible.
EXIT_INFEASIBLE = 2
#: synthesis exceeded its time budget.
EXIT_TIMEOUT = 3
#: input could not be parsed (bad problem file, LTL syntax, bad request).
EXIT_PARSE_ERROR = 4

#: Job statuses (:class:`repro.service.jobs.JobStatus` values) → exit codes.
#: ``infeasible``/``timeout`` verdicts are *results* for a batch stream but
#: map to their own codes when a single job's verdict decides the process
#: exit status (``synthesize``, ``submit``).
_STATUS_EXIT_CODES = {
    "ok": EXIT_OK,
    "done": EXIT_OK,
    "failure": EXIT_FAILURE,
    "error": EXIT_FAILURE,
    "cancelled": EXIT_FAILURE,
    "infeasible": EXIT_INFEASIBLE,
    "timeout": EXIT_TIMEOUT,
    "parse": EXIT_PARSE_ERROR,
}

#: Exit codes → machine-readable error-family names (the ``code`` field of
#: the wire error envelope).
_EXIT_CODE_NAMES = {
    EXIT_OK: "ok",
    EXIT_FAILURE: "failure",
    EXIT_INFEASIBLE: "infeasible",
    EXIT_TIMEOUT: "timeout",
    EXIT_PARSE_ERROR: "parse",
}


def exit_code_for(verdict) -> int:
    """Map an exception or a status-family name to the CLI exit code.

    ``verdict`` is either an exception instance (classified by type:
    :class:`ParseError` → 4, :class:`UpdateInfeasibleError` → 2,
    :class:`SynthesisTimeout` → 3, any other error → 1) or a status string
    (a :class:`~repro.service.jobs.JobStatus` value or a family name from
    :func:`error_code`).  Unknown strings map to :data:`EXIT_FAILURE`.
    """
    if isinstance(verdict, BaseException):
        if isinstance(verdict, ParseError):
            return EXIT_PARSE_ERROR
        if isinstance(verdict, UpdateInfeasibleError):
            return EXIT_INFEASIBLE
        if isinstance(verdict, SynthesisTimeout):
            return EXIT_TIMEOUT
        return EXIT_FAILURE
    return _STATUS_EXIT_CODES.get(str(verdict), EXIT_FAILURE)


def error_code(exit_code: int) -> str:
    """The machine-readable family name of an exit code (inverse mapping)."""
    return _EXIT_CODE_NAMES.get(exit_code, "failure")
