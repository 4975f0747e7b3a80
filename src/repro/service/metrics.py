"""Throughput / latency / cache-rate counters for the synthesis service.

One :class:`ServiceMetrics` instance accumulates over the lifetime of a
:class:`~repro.service.engine.SynthesisService`; :meth:`ServiceMetrics.as_dict`
is the flat summary surfaced by ``python -m repro batch --stats`` and the
throughput benchmark.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List

from repro.service.jobs import JobResult

#: Latency samples kept for the percentile fields; a long-lived service must
#: not grow memory with every job served.
LATENCY_WINDOW = 4096


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


@dataclass
class ServiceMetrics:
    """Cumulative service-level counters (all times in seconds).

    Counts and sums are all-time; ``latencies`` is a bounded window of the
    most recent :data:`LATENCY_WINDOW` samples, so the percentile fields
    describe recent behavior while memory stays constant.
    """

    submitted: int = 0
    completed: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    #: executed verdicts per checker backend
    by_backend: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    coalesced: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    #: Monotonic birth time; drives the ``uptime_seconds`` gauge a
    #: long-lived server reports on ``GET /v1/metrics``.
    started_monotonic: float = field(default_factory=time.monotonic)

    def observe(self, result: JobResult) -> None:
        """Record one finished job."""
        self.completed += 1
        self.by_status[result.status.value] = (
            self.by_status.get(result.status.value, 0) + 1
        )
        if result.backend:
            self.by_backend[result.backend] = (
                self.by_backend.get(result.backend, 0) + 1
            )
        if result.cached:
            self.cache_hits += 1
        self.busy_seconds += result.seconds
        self.latencies.append(result.seconds)

    def time_batch(self) -> "_BatchTimer":
        """Context manager accumulating wall time into ``wall_seconds``."""
        return _BatchTimer(self)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.completed if self.completed else 0.0

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this metrics instance (≈ the service) was born."""
        return time.monotonic() - self.started_monotonic

    def gauges_dict(
        self,
        *,
        queue_depth: int = 0,
        in_flight: int = 0,
    ) -> Dict[str, Any]:
        """Live point-in-time gauges for the HTTP ``/v1/metrics`` endpoint.

        Counters in :meth:`as_dict` are cumulative; these describe *now*:
        jobs waiting for the scheduler, jobs currently executing, and how
        long the service has been up.  The
        caller (the service) supplies the scheduler-state readings.
        """
        return {
            "queue_depth": int(queue_depth),
            "in_flight": int(in_flight),
            "uptime_seconds": round(self.uptime_seconds, 3),
        }

    @property
    def throughput(self) -> float:
        """Completed jobs per wall-clock second (0 before any timed batch)."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        ordered = sorted(self.latencies)
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "by_status": dict(sorted(self.by_status.items())),
            "by_backend": dict(sorted(self.by_backend.items())),
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "coalesced": self.coalesced,
            "wall_seconds": round(self.wall_seconds, 6),
            "busy_seconds": round(self.busy_seconds, 6),
            "throughput_jobs_per_s": round(self.throughput, 3),
            # mean over all-time busy seconds, percentiles over the window
            "latency_mean_s": round(
                self.busy_seconds / self.completed if self.completed else 0.0, 6
            ),
            "latency_p50_s": round(_percentile(ordered, 0.50), 6),
            "latency_p95_s": round(_percentile(ordered, 0.95), 6),
            "latency_max_s": round(ordered[-1] if ordered else 0.0, 6),
        }


class _BatchTimer:
    def __init__(self, metrics: ServiceMetrics):
        self._metrics = metrics
        self._start = 0.0

    def __enter__(self) -> "_BatchTimer":
        self._start = time.perf_counter()
        return self

    def lap(self) -> None:
        """Credit the time since entry or the last lap to ``wall_seconds``."""
        now = time.perf_counter()
        self._metrics.wall_seconds += now - self._start
        self._start = now

    def __exit__(self, *exc_info: Any) -> None:
        self.lap()
