"""Network-state fingerprints for cross-candidate verdict memoization.

:mod:`repro.service.fingerprint` canonicalizes *whole problems* so the plan
cache can address them by content.  This module extends the same
canonicalization rules down to the granularity the search loop needs:
individual tables, individual configurations, and — the key abstraction —
the **reached state** of a configuration.

Two intermediate configurations explored by the search are
verdict-equivalent when the sub-Kripke-structure reachable from the initial
states is the same, even if unreached parts of the network differ (updating
a switch no packet can reach cannot change any trace-based verdict).
:func:`reached_state_key` captures exactly that: per traffic class, the set
of reachable switches paired with their (content-addressed) tables.  Sibling
branches of the search tree that differ only in unreachable updates collapse
onto one memo entry.

Fingerprint properties (shared with the service layer):

* rule *listing* order never matters — :class:`~repro.net.rules.Table`
  canonically orders its rules, and digests sort canonical rule encodings;
* traffic-class field order never matters — fields are sorted;
* the digests are stable across processes (no salted ``hash()``).

>>> from repro.net.rules import Forward, Pattern, Rule, Table
>>> a = Rule(5, Pattern.make(dst="H1"), (Forward(1),))
>>> b = Rule(7, Pattern.make(dst="H2"), (Forward(2),))
>>> table_fingerprint(Table([a, b])) == table_fingerprint(Table([b, a]))
True
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.net.config import Configuration
from repro.net.rules import Table
from repro.net.topology import NodeId, Topology

#: Per-class component of a reached-state key: the class name and the
#: frozenset of ``(switch, table)`` pairs the class can currently reach.
#: Tables are hashable by content, so the key is value-based and shared
#: across configurations that agree on the reached sub-network.
ReachedStateKey = Tuple[Tuple[str, FrozenSet[Tuple[NodeId, Table]]], ...]

_DIGEST_SIZE = 16  # 128-bit blake2b: collision-safe at any realistic scale


def _digest(payload: Any) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(data.encode("utf-8"), digest_size=_DIGEST_SIZE).hexdigest()


def table_fingerprint(table: Table) -> str:
    """Content digest of one forwarding table (rule order never matters).

    The hot in-memory memo keys use raw :class:`~repro.net.rules.Table`
    objects (hashable, content-equal) — this digest is the stable form for
    serialization boundaries, built on the same ``rule_to_dict`` canonical
    rule encoding the service layer uses.
    """
    # lazy: repro.net.serialize round-trips plans, so it imports the
    # synthesis package, which imports the search, which imports this module
    from repro.net.serialize import rule_to_dict

    canonical = sorted(
        json.dumps(rule_to_dict(rule), sort_keys=True, separators=(",", ":"))
        for rule in table
    )
    return _digest(canonical)


def config_fingerprint(config: Configuration) -> str:
    """Content digest of a whole configuration.

    Equal for configurations that list switches or rules in different
    orders.  The in-memory memo keys use raw ``(switch, Table)`` pairs
    (:func:`reached_class_component`) — these digests are the stable,
    process-independent form for anything that must cross a serialization
    boundary (logs, future disk-persisted memo tiers) and for tests
    asserting permutation collisions.
    """
    return _digest(
        {switch: table_fingerprint(config.table(switch)) for switch in config.switches()}
    )


def reached_class_component(
    tc_name: str, reach: FrozenSet[NodeId], config: Configuration
) -> Tuple[str, FrozenSet[Tuple[NodeId, Table]]]:
    """One class's component of a :data:`ReachedStateKey`.

    The single definition of the key shape: both :func:`reached_state_key`
    and the search loop's incremental key cache build components through
    this function, so memo keys recorded by one can never drift out of sync
    with keys probed by the other.
    """
    return (tc_name, frozenset((sw, config.table(sw)) for sw in reach))


def reached_state_key(
    structure,
    reachable_by_class: Optional[Mapping[str, FrozenSet[NodeId]]] = None,
) -> ReachedStateKey:
    """The reached-state memo key of ``structure``'s current configuration.

    For each traffic class (in the structure's declared order): the class
    name and the frozenset of ``(switch, table)`` pairs over the switches the
    class can currently reach.  The reachable sub-Kripke-structure — and
    therefore any trace-based model-checking verdict — is a function of this
    key, so verdicts memoized under it transfer to every configuration that
    produces the same key, including sibling search branches that differ
    only in updates to unreachable switches.

    ``reachable_by_class`` (class name → switch set) lets callers that
    already track reachability (the search's heuristic cache) avoid
    recomputing it; missing classes are computed from the structure.
    """
    config = structure.config
    parts = []
    for tc in structure.traffic_classes:
        reach = None
        if reachable_by_class is not None:
            reach = reachable_by_class.get(tc.name)
        if reach is None:
            reach = structure.reachable_switches(tc)
        parts.append(reached_class_component(tc.name, reach, config))
    return tuple(parts)


def scope_fingerprint(
    topology: Topology,
    spec,
    ingresses: Mapping[Any, Sequence[NodeId]],
) -> str:
    """Digest of the memo *scope*: what a verdict memo may be shared across.

    A model-checking verdict depends on the topology, the specification, and
    where each class's packets enter the network — but not on the checker
    backend, granularity, or synthesizer options.  Jobs agreeing on this
    fingerprint can safely share one :class:`~repro.perf.memo.VerdictMemo`
    (the batch service keys its cross-job memo pool this way).
    """
    # imported lazily: repro.service.engine imports repro.perf.memo at module
    # load, so a top-level import here would close an import cycle
    from repro.service.fingerprint import canonical_classes, canonical_topology

    return _digest(
        {
            "topology": canonical_topology(topology),
            "classes": canonical_classes(ingresses),
            "spec": str(spec),
        }
    )
