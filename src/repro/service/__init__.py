"""The synthesis service: persistent scheduler core plus front-ends.

This subsystem turns the one-shot :class:`~repro.synthesis.UpdateSynthesizer`
into a long-lived scheduler serving many update-synthesis requests:

* :mod:`repro.service.fingerprint` — canonical, order-insensitive content
  hashing of synthesis problems;
* :mod:`repro.service.cache` — the in-memory LRU plan cache keyed by
  fingerprint;
* :mod:`repro.service.jobs` — job/result dataclasses and the job lifecycle;
* :mod:`repro.service.engine` — the :class:`SynthesisService` scheduler
  core (continuous submission, cache-first, in-process execution,
  cross-submission coalescing, delta handover);
* :mod:`repro.service.metrics` — throughput/latency/cache-rate counters
  plus the live gauges the HTTP metrics endpoint reports;
* :mod:`repro.service.server` — :class:`ReproServer`, the ``repro-api/1``
  HTTP front-end (:mod:`repro.api` defines the wire documents);
* :mod:`repro.service.client` — :class:`ReproClient`, the thin client
  ``repro batch --server`` drives over HTTP.

Quickstart (in-process batch)::

    from repro.service import SynthesisService, SynthesisOptions

    service = SynthesisService()
    options = SynthesisOptions(timeout=30.0)
    jobs = [service.submit(problem, options=options) for problem in problems]
    for result in service.as_completed(job.job_id for job in jobs):
        print(result.job_id, result.status.value, result.cached)
    print(service.metrics_dict())

Quickstart (server + thin client)::

    from repro.api import SynthesisRequest
    from repro.service import ReproClient, ReproServer

    with ReproServer(port=0) as server:
        client = ReproClient(server.url)
        [view] = client.submit_requests(
            [SynthesisRequest(problem, options={"timeout": 30.0})]
        )
        result = client.result(view.job_id)

The ``python -m repro synthesize`` / ``batch`` / ``serve`` subcommands are
thin CLI wrappers around this package.
"""

from repro.service.cache import CacheStats, PlanCache
from repro.service.client import ReproClient
from repro.service.engine import SynthesisService
from repro.service.fingerprint import problem_fingerprint
from repro.service.jobs import (
    JobResult,
    JobStatus,
    SynthesisJob,
    SynthesisOptions,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import ReproServer

__all__ = [
    "CacheStats",
    "JobResult",
    "JobStatus",
    "PlanCache",
    "ReproClient",
    "ReproServer",
    "ServiceMetrics",
    "SynthesisJob",
    "SynthesisOptions",
    "SynthesisService",
    "problem_fingerprint",
]
