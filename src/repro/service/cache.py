"""Content-addressed plan cache: in-memory LRU with optional disk tier.

The cache stores *successful* plans keyed by the problem fingerprint
(:mod:`repro.service.fingerprint`).  The memory tier holds
:class:`~repro.synthesis.plan.UpdatePlan` objects; a plan is copied on the
way in and on the way out (:meth:`~repro.synthesis.plan.UpdatePlan.copy`),
so a cached plan never aliases one a job handed to its caller.

With a ``directory``, every stored plan is also written to
``<directory>/<fingerprint>.json`` in its
:func:`~repro.net.serialize.plan_to_dict` form; lookups that miss in
memory fall back to disk (and promote the plan back into memory).
``persist_stats`` dumps the cumulative counters to
``<directory>/stats.json`` for the ``cache-stats`` CLI subcommand.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.net.fields import TrafficClass
from repro.net.serialize import plan_from_dict, plan_to_dict
from repro.synthesis.plan import UpdatePlan

STATS_FILENAME = "stats.json"

#: one warning per process when stats merging falls back to lockless mode
#: (concurrent writers may then lose each other's increments)
_warned_lockless = False


def _warn_lockless_once() -> None:
    global _warned_lockless
    if _warned_lockless:
        return
    _warned_lockless = True
    warnings.warn(
        "cache stats: file locking unavailable; falling back to a lockless "
        "merge (concurrent batch runs may lose counter increments)",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class CacheStats:
    """Cumulative hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
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
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """LRU plan cache keyed by content fingerprint.

    Args:
        capacity: maximum number of in-memory entries; least-recently-used
            entries are evicted beyond it (they survive on disk when a
            ``directory`` is configured).
        directory: optional on-disk tier; created on first use.
    """

    def __init__(self, capacity: int = 1024, directory: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.directory = directory
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, UpdatePlan]" = OrderedDict()

    def __len__(self) -> int:
        """Number of *in-memory* entries (the disk tier may hold more)."""
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        """Membership in the *in-memory* tier only.

        A ``False`` here does not mean :meth:`get` will miss — the entry may
        still be served (and promoted) from the disk tier.  Use :meth:`get`
        to answer "is a plan available".
        """
        return fingerprint in self._entries

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(
        self,
        fingerprint: str,
        classes: Optional[Mapping[str, TrafficClass]] = None,
    ) -> Optional[UpdatePlan]:
        """The cached plan for ``fingerprint``, or ``None`` on a miss.

        ``classes`` rehydrates rule-granularity commands read from disk
        (pass the problem's traffic classes by name).  Returns a fresh
        :class:`UpdatePlan` on every hit.
        """
        plan = self._entries.get(fingerprint)
        if plan is None and self.directory is not None:
            plan = self._read_disk(fingerprint, classes)
            if plan is not None:
                self.stats.disk_hits += 1
                self._insert(fingerprint, plan)
        if plan is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return plan.copy()

    def peek(
        self,
        fingerprint: str,
        classes: Optional[Mapping[str, TrafficClass]] = None,
    ) -> Optional[UpdatePlan]:
        """Like :meth:`get`, but leaves the counters and the LRU order alone.

        For reads that serve no job, such as fetching a delta base's unit
        order, so the hit rate counts only jobs answered from the cache.
        """
        plan = self._entries.get(fingerprint)
        if plan is None and self.directory is not None:
            return self._read_disk(fingerprint, classes)
        return None if plan is None else plan.copy()

    def put(self, fingerprint: str, plan: UpdatePlan) -> None:
        """Store ``plan`` under ``fingerprint`` (memory, and disk if configured)."""
        self._insert(fingerprint, plan.copy())
        self.stats.puts += 1
        if self.directory is not None:
            self._write_disk(fingerprint, plan_to_dict(plan))

    def clear(self) -> None:
        """Drop all in-memory entries (the disk tier is left untouched)."""
        self._entries.clear()

    def _insert(self, fingerprint: str, plan: UpdatePlan) -> None:
        self._entries[fingerprint] = plan
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _path(self, fingerprint: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{fingerprint}.json")

    def _read_disk(
        self, fingerprint: str, classes: Optional[Mapping[str, TrafficClass]]
    ) -> Optional[UpdatePlan]:
        try:
            with open(self._path(fingerprint)) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return plan_from_dict(entry, classes)

    def _write_disk(self, fingerprint: str, entry: Dict[str, Any]) -> None:
        assert self.directory is not None
        os.makedirs(self.directory, exist_ok=True)
        tmp = self._path(fingerprint) + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(entry, handle)
        os.replace(tmp, self._path(fingerprint))

    def persist_stats(self) -> None:
        """Merge this instance's counters into ``<directory>/stats.json``.

        The read-modify-write is serialized across processes with an
        advisory ``flock`` on a sidecar lock file, so concurrent batch runs
        sharing a cache directory don't lose each other's increments.  On
        platforms without ``fcntl`` (or when locking fails) it degrades to
        a lockless merge and warns once per process.
        """
        if self.directory is None:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, STATS_FILENAME)
        lock_handle = None
        try:
            import fcntl

            lock_handle = open(path + ".lock", "w")
            fcntl.flock(lock_handle, fcntl.LOCK_EX)
        except (ImportError, OSError):
            # close the handle if open succeeded but flock refused — losing
            # the lock must not also leak the descriptor
            if lock_handle is not None:
                lock_handle.close()
            lock_handle = None
            _warn_lockless_once()
        try:
            merged = dict.fromkeys(
                ("hits", "misses", "evictions", "disk_hits", "puts"), 0
            )
            try:
                with open(path) as handle:
                    for key, value in json.load(handle).items():
                        if key in merged:
                            merged[key] = int(value)
            except (OSError, json.JSONDecodeError, ValueError):
                pass
            for key in merged:
                merged[key] += getattr(self.stats, key)
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(merged, handle, indent=2)
                handle.write("\n")
            os.replace(tmp, path)
        finally:
            if lock_handle is not None:
                lock_handle.close()


def disk_cache_summary(directory: str) -> Dict[str, Any]:
    """Summarize an on-disk cache directory for the ``cache-stats`` command."""
    entries = 0
    total_bytes = 0
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if name == STATS_FILENAME or not name.endswith(".json"):
            continue
        entries += 1
        try:
            total_bytes += os.path.getsize(os.path.join(directory, name))
        except OSError:
            pass
    out: Dict[str, Any] = {
        "directory": directory,
        "entries": entries,
        "total_bytes": total_bytes,
    }
    stats_path = os.path.join(directory, STATS_FILENAME)
    try:
        with open(stats_path) as handle:
            out["counters"] = json.load(handle)
    except (OSError, json.JSONDecodeError):
        pass
    return out
