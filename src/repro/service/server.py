"""HTTP front-end: the ``repro-api/1`` JSON API over the scheduler core.

:class:`ReproServer` wraps a continuously-scheduling
:class:`~repro.service.engine.SynthesisService` in a stdlib
:class:`~http.server.ThreadingHTTPServer`.  Handler threads only parse
documents (:mod:`repro.api`) and call the thread-safe service surface; all
synthesis work stays on the scheduler thread and its worker pool, so the
plan cache stays hot across requests from independent clients.

Endpoints (see ``docs/ARCHITECTURE.md`` for the full table):

========================  ====================================================
``POST /v1/jobs``         submit one request document, or ``{"jobs": [...]}``
                          for a batch; returns ``202`` with the job views.
                          Entries carrying ``"base"`` are *delta* documents
                          (:class:`~repro.api.SynthesisDelta`): a patch
                          against a retained base problem, resolved and
                          warm-started server-side
``GET /v1/jobs``          list every remembered job; ``?wait=SECONDS`` blocks
                          until the service drains (or the deadline passes)
``GET /v1/jobs/{id}``     one job: its result document once settled, its
                          lifecycle view before; ``?wait=SECONDS`` long-polls
``DELETE /v1/jobs/{id}``  cancel a still-queued job
``GET /v1/metrics``       cumulative counters + live gauges
``GET /v1/cache/stats``   plan-cache counters
``GET /v1/healthz``       liveness: ``{"ok": true, "api": "repro-api/1"}``
========================  ====================================================

Failures use the machine-readable :class:`~repro.api.ErrorEnvelope` —
``parse`` → 400, ``not_found`` → 404, anything else → 500 — carrying the
same exit code the local CLI would have produced, so thin clients exit
identically to in-process runs.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.api import (
    API_VERSION,
    ErrorEnvelope,
    JobView,
    SynthesisDelta,
    SynthesisRequest,
    SynthesisResponse,
    is_delta_document,
)
from repro.errors import ParseError, ReproError
from repro.service.engine import SynthesisService

#: Cap on request bodies; a batch of problem documents is generous at 64 MiB.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Cap on a single ``?wait=`` long-poll so handler threads cannot be pinned
#: forever by one client; clients loop to wait longer.
MAX_WAIT_SECONDS = 60.0


class _ApiError(Exception):
    """Internal: an error envelope plus the HTTP status to send it with."""

    def __init__(self, http_status: int, envelope: ErrorEnvelope):
        super().__init__(envelope.message)
        self.http_status = http_status
        self.envelope = envelope


#: ``wait=`` values above this are requests nobody means (days of long-poll
#: on one HTTP exchange) — rejected rather than silently clamped, so a
#: client with a units bug (milliseconds as seconds) hears about it.
ABSURD_WAIT_SECONDS = 1e6


def _parse_wait(query: Dict[str, List[str]]) -> Optional[float]:
    """The validated ``?wait=`` long-poll budget, or ``None`` if absent.

    Non-numeric, NaN, infinite, negative, and absurdly large values are a
    400 (``min``/``max`` clamping used to let NaN through as the *maximum*
    wait); merely-large finite values clamp to :data:`MAX_WAIT_SECONDS`,
    which looping clients already rely on.
    """
    values = query.get("wait")
    if not values:
        return None

    def _bad(detail: str) -> _ApiError:
        return _ApiError(
            400,
            ErrorEnvelope.from_exception(
                ParseError(f"wait: {detail}, got {values[-1]!r}")
            ),
        )

    try:
        wait = float(values[-1])
    except ValueError as err:
        raise _bad("expected a number") from err
    if not math.isfinite(wait):
        raise _bad("expected a finite number")
    if wait < 0:
        raise _bad("expected a non-negative number")
    if wait > ABSURD_WAIT_SECONDS:
        raise _bad(f"expected at most {ABSURD_WAIT_SECONDS:g} seconds")
    return min(MAX_WAIT_SECONDS, wait)


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP exchange onto the service; never raises outward."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # the ReproServer pins itself onto the stdlib server object
    @property
    def service(self) -> SynthesisService:
        return self.server.repro_service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "repro_verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, document: Dict[str, Any]) -> None:
        self._drain_request_body()
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _drain_request_body(self) -> None:
        """Consume an unread request body before responding.

        The connection is keep-alive (HTTP/1.1): an error response sent
        with body bytes still unread would desync the next request on the
        same connection.  Oversized bodies are not read — the connection
        is closed instead.
        """
        if self._body_read:
            return
        self._body_read = True
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        self.rfile.read(length)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            self._body_read = True
            raise _ApiError(
                400,
                ErrorEnvelope.from_exception(ParseError("empty request body")),
            )
        if length > MAX_BODY_BYTES:
            raise _ApiError(
                400,
                ErrorEnvelope.from_exception(
                    ParseError(f"request body over {MAX_BODY_BYTES} bytes")
                ),
            )
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as err:
            raise _ApiError(
                400,
                ErrorEnvelope.from_exception(ParseError(f"bad JSON: {err}")),
            ) from err
        if not isinstance(data, dict):
            raise _ApiError(
                400,
                ErrorEnvelope.from_exception(
                    ParseError("request body must be a JSON object")
                ),
            )
        return data

    def _route(self, method: str) -> None:
        self._body_read = False
        try:
            split = urlsplit(self.path)
            parts = [part for part in split.path.split("/") if part]
            query = parse_qs(split.query)
            self._dispatch(method, parts, query)
        except _ApiError as err:
            self._send_json(err.http_status, err.envelope.to_dict())
        except ParseError as err:
            self._send_json(400, ErrorEnvelope.from_exception(err).to_dict())
        except KeyError as err:
            missing = str(err.args[0]) if err.args else str(err)
            envelope = ErrorEnvelope.not_found(f"unknown job {missing!r}")
            self._send_json(404, envelope.to_dict())
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as err:  # noqa: BLE001 — handler must not die
            self._send_json(500, ErrorEnvelope.from_exception(err).to_dict())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._route("POST")

    def do_GET(self) -> None:  # noqa: N802
        self._route("GET")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    def _dispatch(
        self, method: str, parts: List[str], query: Dict[str, List[str]]
    ) -> None:
        if len(parts) >= 1 and parts[0] == "v1":
            if parts[1:] == ["jobs"]:
                if method == "POST":
                    return self._post_jobs()
                if method == "GET":
                    return self._get_jobs(query)
            elif len(parts) == 3 and parts[1] == "jobs":
                # ids arrive percent-encoded (they may contain slashes)
                if method == "GET":
                    return self._get_job(unquote(parts[2]), query)
                if method == "DELETE":
                    return self._delete_job(unquote(parts[2]))
            elif parts[1:] == ["metrics"] and method == "GET":
                return self._send_json(200, dict(
                    self.service.metrics_dict(), api=API_VERSION
                ))
            elif parts[1:] == ["cache", "stats"] and method == "GET":
                return self._send_json(200, dict(
                    self.service.cache_stats(), api=API_VERSION
                ))
            elif parts[1:] == ["healthz"] and method == "GET":
                gauges = self.service.metrics_dict()["gauges"]
                return self._send_json(
                    200, {"ok": True, "api": API_VERSION, "gauges": gauges}
                )
        raise _ApiError(
            404,
            ErrorEnvelope.not_found(f"{method} {self.path}: no such endpoint"),
        )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _post_jobs(self) -> None:
        data = self._read_body()
        if "jobs" in data:
            entries = data["jobs"]
            if not isinstance(entries, list):
                raise ParseError("'jobs' must be a list of request documents")
        else:
            entries = [data]
        # parse the whole batch before submitting anything, so a malformed
        # later entry cannot leave earlier entries half-submitted; sparse
        # request options merge onto this server's defaults.  Entries with
        # a "base" key are delta documents, resolved against retained bases
        requests = [
            SynthesisDelta.from_dict(
                entry, option_defaults=self.service.default_options
            )
            if is_delta_document(entry)
            else SynthesisRequest.from_dict(
                entry, option_defaults=self.service.default_options
            )
            for entry in entries
        ]
        views: List[Dict[str, Any]] = []

        def _partial(message: str) -> str:
            accepted = [view["id"] for view in views]
            return message + (f" (already accepted: {accepted})" if accepted else "")

        for request in requests:
            try:
                if isinstance(request, SynthesisDelta):
                    job = self.service.submit_delta(
                        request.base,
                        request.patch,
                        options=request.options,
                        job_id=request.job_id,
                    )
                else:
                    job = self.service.submit(
                        request.problem,
                        options=request.options,
                        job_id=request.job_id,
                    )
            except KeyError as err:
                # the delta's base is not retained here — a missing
                # resource, not a malformed document: clients that still
                # hold the base problem fall back to a cold submission
                missing = str(err.args[0]) if err.args else str(err)
                raise _ApiError(
                    404, ErrorEnvelope.not_found(_partial(missing))
                ) from err
            except ParseError as err:
                # the patch parsed but does not apply to its base
                raise _ApiError(
                    400,
                    ErrorEnvelope.from_exception(ParseError(_partial(str(err)))),
                ) from err
            except ReproError as err:
                # a duplicate open id is the client's conflict, not a
                # server failure; name the entries already accepted so the
                # caller can retrieve or cancel them
                raise _ApiError(
                    409,
                    ErrorEnvelope.from_exception(ReproError(_partial(str(err)))),
                ) from err
            views.append(JobView.from_job(job).to_dict())
        self._send_json(202, {"api": API_VERSION, "jobs": views})

    def _get_jobs(self, query: Dict[str, List[str]]) -> None:
        wait = _parse_wait(query)
        if wait is not None:
            try:
                # read-only wait: must not touch delivery/eviction state
                self.service.wait_idle(timeout=wait)
            except TimeoutError:
                pass  # report whatever has settled so far
        views = [
            JobView.from_job(job).to_dict()
            for job, _ in self.service.jobs_snapshot()
        ]
        self._send_json(200, {"api": API_VERSION, "jobs": views})

    def _get_job(self, job_id: str, query: Dict[str, List[str]]) -> None:
        wait = _parse_wait(query)
        result = None
        if wait:
            try:
                result = self.service.result(job_id, timeout=wait)
            except TimeoutError:
                result = None
        if result is None:
            result = self.service.try_result(job_id)
        if result is not None:
            return self._send_json(
                200, SynthesisResponse.from_result(result).to_dict()
            )
        job = self.service.job(job_id)
        self._send_json(200, JobView.from_job(job).to_dict())

    def _delete_job(self, job_id: str) -> None:
        cancelled = self.service.cancel(job_id)
        job = self.service.job(job_id)
        # always 200: "already running/settled" is an answer, not an error
        self._send_json(
            200,
            {
                "api": API_VERSION,
                "id": job_id,
                "cancelled": cancelled,
                "status": job.status.value,
            },
        )


class ReproServer:
    """A long-lived synthesis server: scheduler core + HTTP front-end.

    Binds immediately (``port=0`` picks an ephemeral port — useful for
    tests); :meth:`serve_forever` blocks, :meth:`start` serves from a
    background thread.  Closing the server shuts the listener down and, if
    the server *owns* its service (one was not passed in), closes the
    service too.

    Example::

        with ReproServer(port=0) as server:
            client = ReproClient(server.url)
            ...
    """

    def __init__(
        self,
        *,
        service: Optional[SynthesisService] = None,
        host: str = "127.0.0.1",
        port: int = 8421,
        verbose: bool = False,
        **service_kwargs: Any,
    ):
        self._owns_service = service is None
        self.service = service or SynthesisService(**service_kwargs)
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as err:
            # bind failure (port in use, bad address): clean up the owned
            # service and surface a catchable library error, not a traceback
            if self._owns_service:
                self.service.close()
            raise ReproError(f"cannot bind {host}:{port}: {err}") from err
        self.service.start()
        self._httpd.daemon_threads = True
        self._httpd.repro_service = self.service  # type: ignore[attr-defined]
        self._httpd.repro_verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ReproServer":
        """Serve from a daemon thread; returns immediately."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-http", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting requests; close the owned service cleanly."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=10.0)
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
