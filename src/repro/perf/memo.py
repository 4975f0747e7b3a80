"""The cross-candidate verdict memo and dominance pruning.

The search loop (:func:`repro.synthesis.search.order_update`) model-checks
one intermediate configuration per candidate step.  Verdicts are pure
functions of the reached network state
(:func:`repro.perf.fingerprint.reached_state_key`), so a
:class:`VerdictMemo` shares them across every candidate that reaches the
same state — sibling branches of the search tree, and (via
:class:`SharedVerdictMemo` in the batch service) sibling jobs on the same
topology, ingress map, and specification.

Two mechanisms, both *sound* (they only ever reject configurations a
model checker would also reject, so memo-on and memo-off searches accept
the identical sequence of units and synthesize identical plans):

* **verdict memoization** — ``record``/``lookup`` keyed by reached-state
  key.  A refuted hit replays the stored counterexample instead of
  relabeling; the checker call is skipped entirely.
* **dominance pruning** — refuted counterexample *traces* are kept (most
  recent first).  A candidate whose reached state still embeds a stored
  refuted trace is dominated by the already-refuted state: the violating
  trace is present, so the verdict must again be "violated".  This is the
  cheap sufficient condition for state-set subsumption — checking that one
  concrete witness carries over costs ``O(len(trace))`` instead of a
  subset test over whole state sets.

>>> memo = VerdictMemo()
>>> memo.record(("key",), ok=True)
>>> memo.lookup(("key",)).ok
True
>>> memo.lookup(("other",)) is None
True
>>> memo.stats.probes, memo.stats.hits
(2, 1)
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, Hashable, Iterable, Optional, Sequence, Set, Tuple

from repro.errors import MemoMergeError
from repro.perf.fingerprint import scope_fingerprint

#: bound on stored refuted traces per memo (dominance replay scans these)
MAX_REFUTED_TRACES = 64

#: how many stored traces one probe replays (most recent first); keeps the
#: probe O(small) even when the trace store is full
REPLAY_SCAN_LIMIT = 8

#: bound on memoized verdict entries per memo
MAX_VERDICTS = 65536

#: bound on verdict entries per scope in a :meth:`SharedVerdictMemo.snapshot`
#: — snapshots are pickled per pool dispatch, so they must stay cheap even
#: when the scope memo itself has grown toward MAX_VERDICTS; the memo is an
#: optimization channel, and omitted (oldest) entries only cost re-deriving
MAX_SNAPSHOT_ENTRIES = 4096


@dataclass
class MemoStats:
    """Cumulative counters for one verdict memo (or a whole shared pool)."""

    probes: int = 0
    hits: int = 0
    refuted_hits: int = 0
    trace_prunes: int = 0
    inserts: int = 0
    merged: int = 0

    @property
    def checks_skipped(self) -> int:
        """Model-checker calls avoided (refuted hits + dominance prunes)."""
        return self.refuted_hits + self.trace_prunes

    def as_dict(self) -> Dict[str, int]:
        return {
            "probes": self.probes,
            "hits": self.hits,
            "refuted_hits": self.refuted_hits,
            "trace_prunes": self.trace_prunes,
            "inserts": self.inserts,
            "merged": self.merged,
            "checks_skipped": self.checks_skipped,
        }

    def absorb(self, other: "MemoStats") -> None:
        self.probes += other.probes
        self.hits += other.hits
        self.refuted_hits += other.refuted_hits
        self.trace_prunes += other.trace_prunes
        self.inserts += other.inserts
        self.merged += other.merged


@dataclass(frozen=True)
class MemoVerdict:
    """One memoized model-checking verdict.

    ``trace`` is the counterexample witnessing a refutation (a tuple of
    Kripke states ending at a sink), kept so a refuted hit can feed the
    search's counterexample learning exactly like a live checker verdict.
    """

    ok: bool
    trace: Optional[Tuple[Any, ...]] = None


@dataclass(frozen=True)
class MemoDelta:
    """Learned verdict-memo state of one scope, in transferable form.

    ``entries`` are ``(reached-state key, verdict)`` pairs; ``traces`` are
    refuted sink-ending counterexample traces for the dominance store (kept
    separately because a trace can outlive its evicted verdict entry).
    Everything here crosses process boundaries by pickling — keys hold
    :class:`~repro.net.rules.Table` values and traces hold Kripke states,
    both plain picklable value types.  ``stats`` carries the counters the
    producing process accumulated, so a merging pool can absorb them.
    """

    scope: str
    entries: Tuple[Tuple[Hashable, MemoVerdict], ...]
    traces: Tuple[Tuple[Any, ...], ...] = ()
    stats: Optional[MemoStats] = None


@dataclass(frozen=True)
class MemoSnapshot:
    """A picklable bundle of :class:`MemoDelta` — one per memo scope.

    Produced by :meth:`SharedVerdictMemo.snapshot` (full pool contents, sent
    *to* workers) and :meth:`SharedVerdictMemo.drain_deltas` (entries learned
    since seeding, sent *back* from workers); consumed by
    :meth:`SharedVerdictMemo.from_snapshot` and
    :meth:`SharedVerdictMemo.merge`.
    """

    deltas: Tuple[MemoDelta, ...] = ()

    def __len__(self) -> int:
        """Total verdict entries across every scope."""
        return sum(len(delta.entries) for delta in self.deltas)


class VerdictMemo:
    """Model-checker verdicts memoized by reached-state key.

    One memo covers one *scope*: a fixed topology, ingress map, and
    specification (see :func:`repro.perf.fingerprint.scope_fingerprint`).
    Within a scope, reached-state keys fully determine verdicts.

    Invalidation is structural: mutating the network (``apply_update``)
    changes the reached-state key, so stale entries are simply never looked
    up again — there is nothing to evict eagerly, and reverted
    configurations re-hit their old entries for free.
    """

    def __init__(
        self,
        *,
        max_verdicts: int = MAX_VERDICTS,
        max_traces: int = MAX_REFUTED_TRACES,
        shared: bool = False,
        track_delta: bool = False,
    ):
        #: whether this memo outlives one search (a pool hands it to many
        #: jobs); endpoint-configuration verdicts are only worth recording
        #: and probing when they can be seen again by a sibling job
        self.shared = shared
        self._verdicts: "OrderedDict[Hashable, MemoVerdict]" = OrderedDict()
        self._refuted_traces: Deque[Tuple[Any, ...]] = deque(maxlen=max_traces)
        self._trace_set: Set[Tuple[Any, ...]] = set()
        self._max_verdicts = max_verdicts
        self._refuted_recorded = 0
        self.stats = MemoStats()
        # with track_delta, record() journals what this process learned so
        # drain_delta can report it (worker-side pools only; seeded and
        # absorbed entries never join the journal).  Bounded like snapshots:
        # deltas are pickled back through the result channel, so a hard job
        # must not ship an arbitrarily large journal — the oldest entries
        # are dropped first, mirroring the snapshot cap
        self._journal: Optional[Deque[Tuple[Hashable, MemoVerdict]]] = (
            deque(maxlen=MAX_SNAPSHOT_ENTRIES) if track_delta else None
        )

    def __len__(self) -> int:
        return len(self._verdicts)

    @property
    def has_refutations(self) -> bool:
        """Whether probing can possibly skip a model-checker call.

        Only refuted verdicts and stored traces ever settle a candidate
        without the checker (an ``ok`` hit still needs the relabel to keep
        the incremental labels warm), so callers skip the probe — and its
        key-building cost — until the first refutation is recorded.
        """
        return self._refuted_recorded > 0 or bool(self._refuted_traces)

    # ------------------------------------------------------------------
    # verdict memoization
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable) -> Optional[MemoVerdict]:
        """The memoized verdict for ``key``, or ``None`` on a miss."""
        self.stats.probes += 1
        verdict = self._verdicts.get(key)
        if verdict is None:
            return None
        self._verdicts.move_to_end(key)
        self.stats.hits += 1
        if not verdict.ok:
            self.stats.refuted_hits += 1
        return verdict

    def record(
        self, key: Hashable, ok: bool, trace: Optional[Sequence[Any]] = None
    ) -> None:
        """Memoize a verdict; refuting traces also join the dominance store.

        Only complete violating traces (ending at a sink state) are kept for
        replay — forwarding-loop cycles are rejected before the checker runs
        and never produce a maximal trace.
        """
        stored: Optional[Tuple[Any, ...]] = None
        if not ok:
            self._refuted_recorded += 1
            if trace:
                stored = tuple(trace)
                if getattr(stored[-1], "is_sink", False):
                    self._remember_trace(stored)
                else:
                    stored = None
        verdict = MemoVerdict(ok, stored)
        self._verdicts[key] = verdict
        self._verdicts.move_to_end(key)
        self.stats.inserts += 1
        if self._journal is not None:
            self._journal.append((key, verdict))
        while len(self._verdicts) > self._max_verdicts:
            self._verdicts.popitem(last=False)

    # ------------------------------------------------------------------
    # snapshot / merge (process-shareable deltas)
    # ------------------------------------------------------------------
    def export_delta(
        self, scope: str, max_entries: Optional[int] = None
    ) -> MemoDelta:
        """This memo's learned state as a :class:`MemoDelta`.

        ``max_entries`` keeps the export bounded by taking the *most
        recently used* entries (the ``_verdicts`` map is in LRU order);
        ``None`` exports everything.
        """
        entries = tuple(self._verdicts.items())
        if max_entries is not None and len(entries) > max_entries:
            entries = entries[-max_entries:]
        return MemoDelta(
            scope=scope,
            entries=entries,
            traces=tuple(self._refuted_traces),
        )

    def drain_delta(self, scope: str) -> MemoDelta:
        """Entries recorded since construction (or the last drain).

        Only meaningful on ``track_delta`` memos.  Both the journal and the
        counters are drained — repeated drains never resend an entry or
        double-report a stat, so the merging side can absorb every delta
        it receives without bookkeeping.  The journal is bounded at
        :data:`MAX_SNAPSHOT_ENTRIES` (most recent kept), so the delta
        pickled back through the result channel stays cheap.
        """
        delta = MemoDelta(
            scope=scope,
            entries=tuple(self._journal or ()),
            stats=replace(self.stats),
        )
        if self._journal is not None:
            self._journal.clear()
        self.stats = MemoStats()
        return delta

    def absorb_delta(self, delta: MemoDelta) -> int:
        """Merge ``delta`` into this memo; returns how many entries were new.

        Idempotent — re-absorbing a delta (or overlapping deltas from racing
        workers) changes nothing.  Conflict-checked *before* anything is
        applied (:meth:`check_delta`): an entry whose verdict contradicts
        one already present raises :class:`~repro.errors.MemoMergeError`
        and the whole delta is refused (verdicts are pure functions of the
        key, so a conflict means a collision or a checker bug — none of
        that worker's entries can be trusted).  Absorbed entries bypass the
        ``inserts`` counter: they represent a *sibling's* work, counted
        under ``merged``, and never join the delta journal: a drain reports
        only what this process recorded itself.
        """
        self.check_delta(delta)
        added = 0
        for key, verdict in delta.entries:
            if key in self._verdicts:
                continue
            self._verdicts[key] = verdict
            self._verdicts.move_to_end(key)
            if not verdict.ok:
                self._refuted_recorded += 1
                if verdict.trace:
                    self._remember_trace(verdict.trace)
            added += 1
            self.stats.merged += 1
            while len(self._verdicts) > self._max_verdicts:
                self._verdicts.popitem(last=False)
        for trace in delta.traces:
            if trace and getattr(trace[-1], "is_sink", False):
                self._remember_trace(trace)
        return added

    def check_delta(self, delta: MemoDelta) -> None:
        """Raise :class:`~repro.errors.MemoMergeError` if ``delta`` holds a
        verdict contradicting one already in this memo; mutates nothing."""
        for key, verdict in delta.entries:
            existing = self._verdicts.get(key)
            if existing is not None and existing.ok != verdict.ok:
                raise MemoMergeError(
                    f"conflicting memo verdicts for one reached-state key "
                    f"in scope {delta.scope}: "
                    f"ok={existing.ok} (ours) vs ok={verdict.ok} (theirs)"
                )

    # ------------------------------------------------------------------
    # dominance pruning
    # ------------------------------------------------------------------
    def _remember_trace(self, trace: Tuple[Any, ...]) -> None:
        if trace in self._trace_set:
            return
        if len(self._refuted_traces) == self._refuted_traces.maxlen:
            # appendleft evicts from the *right* end — drop the oldest
            # trace's dedup entry, not the most recent one's
            self._trace_set.discard(self._refuted_traces[-1])
        self._refuted_traces.appendleft(trace)
        self._trace_set.add(trace)

    def find_refuting_trace(self, structure) -> Optional[Tuple[Any, ...]]:
        """A stored refuted trace embedded in ``structure``, if any.

        A trace carries over when its start is still an initial state and
        every step is still a transition; the trace then violates the
        specification in the current configuration too (atoms are intrinsic
        to states and the trace stays maximal — it ends at a sink, and
        sinks keep their self-loop).  Most recently learned traces are
        tried first: the search refutes runs of similar siblings.
        """
        for scanned, trace in enumerate(self._refuted_traces):
            if scanned >= REPLAY_SCAN_LIMIT:
                break
            if self._trace_embedded(structure, trace):
                self.stats.trace_prunes += 1
                return trace
        return None

    @staticmethod
    def _trace_embedded(structure, trace: Tuple[Any, ...]) -> bool:
        if not trace or trace[0] not in structure.initial_states:
            return False
        for a, b in zip(trace, trace[1:]):
            if a not in structure or b not in structure.succ(a):
                return False
        return True


class SharedVerdictMemo:
    """A pool of :class:`VerdictMemo` instances keyed by memo scope.

    The batch service holds one pool per service instance; jobs that agree
    on topology, ingresses, and specification share a memo, so refuted
    traces learned by one job prune candidates in the next.  In-memory
    state is process-local, but the pool travels: :meth:`snapshot` captures
    its contents as a picklable :class:`MemoSnapshot` a worker process can
    rebuild with :meth:`from_snapshot`, and the worker's learned entries
    come back as a :meth:`drain_deltas` snapshot the engine folds in with
    :meth:`merge` — clause sharing between parallel solvers, in the CDCL
    framing.
    """

    def __init__(self, *, max_scopes: int = 256, track_deltas: bool = False):
        self._scopes: "OrderedDict[str, VerdictMemo]" = OrderedDict()
        self._max_scopes = max_scopes
        self._track_deltas = track_deltas

    def __len__(self) -> int:
        return len(self._scopes)

    def memo_for(self, topology, spec, ingresses) -> VerdictMemo:
        """The (created-on-demand) memo for one scope."""
        return self._scope_memo(scope_fingerprint(topology, spec, ingresses))

    def _scope_memo(self, scope: str) -> VerdictMemo:
        memo = self._scopes.get(scope)
        if memo is None:
            memo = VerdictMemo(shared=True, track_delta=self._track_deltas)
            self._scopes[scope] = memo
            while len(self._scopes) > self._max_scopes:
                self._scopes.popitem(last=False)
        self._scopes.move_to_end(scope)
        return memo

    # ------------------------------------------------------------------
    # snapshot / merge protocol (engine <-> worker processes)
    # ------------------------------------------------------------------
    def snapshot(
        self,
        scopes: Optional[Iterable[str]] = None,
        *,
        max_entries_per_scope: Optional[int] = MAX_SNAPSHOT_ENTRIES,
    ) -> MemoSnapshot:
        """The pool's current contents as a picklable :class:`MemoSnapshot`.

        ``scopes`` restricts the snapshot to the named scope fingerprints
        (the engine sends a worker only the scope its job belongs to);
        ``None`` captures every scope.  Unknown scopes are simply absent —
        the receiving side creates empty memos on demand.  Snapshots are
        taken once per pool dispatch, so each scope's export is capped at
        the ``max_entries_per_scope`` most recently used entries (``None``
        disables the cap); the memo is an optimization channel and omitted
        entries only cost a worker re-deriving them.
        """
        if scopes is None:
            wanted = list(self._scopes)
        else:
            wanted = [scope for scope in scopes if scope in self._scopes]
        return MemoSnapshot(
            deltas=tuple(
                self._scopes[scope].export_delta(
                    scope, max_entries=max_entries_per_scope
                )
                for scope in wanted
            )
        )

    @classmethod
    def from_snapshot(
        cls, snapshot: MemoSnapshot, *, track_deltas: bool = False
    ) -> "SharedVerdictMemo":
        """A fresh pool seeded with ``snapshot``'s verdicts and traces.

        Seeded entries carry no stats and never join the delta journal, so
        a ``track_deltas`` pool built this way drains exactly what *this*
        process records on top of the seed.
        """
        pool = cls(track_deltas=track_deltas)
        for delta in snapshot.deltas:
            memo = pool._scope_memo(delta.scope)
            memo.absorb_delta(delta)
            # the seed is context, not learning: don't let it inflate the
            # counters this pool reports back
            memo.stats = MemoStats()
        return pool

    def drain_deltas(self) -> MemoSnapshot:
        """Everything recorded since seeding (or the previous drain)."""
        deltas = []
        for scope, memo in self._scopes.items():
            delta = memo.drain_delta(scope)
            if delta.entries or (delta.stats and delta.stats.probes):
                deltas.append(delta)
        return MemoSnapshot(deltas=tuple(deltas))

    def merge(self, snapshot: MemoSnapshot) -> int:
        """Fold a worker's learned deltas in; returns new-entry count.

        Idempotent across overlapping deltas from racing workers, and
        conflict-checked *before* anything is applied: a conflict anywhere
        in the snapshot raises :class:`~repro.errors.MemoMergeError` and
        refuses the whole snapshot — the producing worker's verdicts are
        suspect as a group.  Each delta's ``stats`` are absorbed so
        pool-level counters reflect worker-side probes and hits.
        """
        for delta in snapshot.deltas:
            self._scope_memo(delta.scope).check_delta(delta)
        added = 0
        for delta in snapshot.deltas:
            memo = self._scope_memo(delta.scope)
            added += memo.absorb_delta(delta)
            if delta.stats is not None:
                memo.stats.absorb(delta.stats)
        return added

    def stats(self) -> MemoStats:
        """Aggregated counters over every scope in the pool."""
        total = MemoStats()
        for memo in self._scopes.values():
            total.absorb(memo.stats)
        return total
