"""The synthesis service: persistent scheduler core plus front-ends.

This subsystem turns the one-shot :class:`~repro.synthesis.UpdateSynthesizer`
into a long-lived scheduler serving many update-synthesis requests:

* :mod:`repro.service.fingerprint` — canonical, order-insensitive content
  hashing of synthesis problems;
* :mod:`repro.service.cache` — in-memory LRU + optional on-disk plan cache
  keyed by fingerprint;
* :mod:`repro.service.jobs` — job/result dataclasses and the job lifecycle;
* :mod:`repro.service.engine` — the :class:`SynthesisService` scheduler
  core (continuous submission, cache-first, multiprocessing pool with
  serial fallback, portfolio mode, cross-submission coalescing);
* :mod:`repro.service.metrics` — throughput/latency/cache-rate counters
  plus the live gauges the HTTP metrics endpoint reports;
* :mod:`repro.service.server` — :class:`ReproServer`, the ``repro-api/1``
  HTTP front-end (:mod:`repro.api` defines the wire documents);
* :mod:`repro.service.client` — :class:`ReproClient`, the thin client
  mirroring the :class:`SynthesisService` surface over HTTP.

Quickstart (in-process batch)::

    from repro.service import SynthesisService, SynthesisOptions

    service = SynthesisService(workers=4, cache_dir=".plan-cache")
    jobs = service.submit_many(problems, options=SynthesisOptions(timeout=30.0))
    for result in service.as_completed(job.job_id for job in jobs):
        print(result.job_id, result.status.value, result.cached)
    print(service.metrics_dict())

Quickstart (server + thin client)::

    from repro.service import ReproClient, ReproServer

    with ReproServer(port=0, workers=4) as server:
        client = ReproClient(server.url)
        view = client.submit(problem, timeout=30.0)
        result = client.result(view.job_id)

The ``python -m repro batch`` / ``serve`` / ``submit`` subcommands are
thin CLI wrappers around this package.
"""

from repro.service.cache import CacheStats, PlanCache, disk_cache_summary
from repro.service.client import ReproClient
from repro.service.engine import SynthesisService, default_worker_count
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
    "default_worker_count",
    "disk_cache_summary",
    "problem_fingerprint",
]
