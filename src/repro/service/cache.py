"""Content-addressed plan cache: one in-memory LRU.

The cache stores *successful* plans keyed by the problem fingerprint
(:mod:`repro.service.fingerprint`) as
:class:`~repro.synthesis.plan.UpdatePlan` objects.  A plan is copied on the
way in and on the way out (:meth:`~repro.synthesis.plan.UpdatePlan.copy`),
so a cached plan never aliases one a job handed to its caller.  The cache
lives and dies with its :class:`~repro.service.engine.SynthesisService`;
``GET /v1/cache/stats`` reports a running server's counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.synthesis.plan import UpdatePlan

#: Entries a :class:`PlanCache` holds before evicting the least recently used.
CACHE_CAPACITY = 1024


@dataclass
class CacheStats:
    """Cumulative hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """LRU plan cache keyed by content fingerprint.

    Args:
        capacity: maximum number of entries; least-recently-used entries
            are evicted beyond it.
    """

    def __init__(self, capacity: int = CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, UpdatePlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> Optional[UpdatePlan]:
        """The cached plan for ``fingerprint``, or ``None`` on a miss.

        Returns a fresh :class:`UpdatePlan` on every hit.
        """
        plan = self._entries.get(fingerprint)
        if plan is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return plan.copy()

    def peek(self, fingerprint: str) -> Optional[UpdatePlan]:
        """Like :meth:`get`, but leaves the counters and the LRU order alone.

        For reads that serve no job, such as fetching a delta base's unit
        order, so the hit rate counts only jobs answered from the cache.
        """
        plan = self._entries.get(fingerprint)
        return None if plan is None else plan.copy()

    def put(self, fingerprint: str, plan: UpdatePlan) -> None:
        """Store a copy of ``plan`` under ``fingerprint``."""
        self._entries[fingerprint] = plan.copy()
        self._entries.move_to_end(fingerprint)
        self.stats.puts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
