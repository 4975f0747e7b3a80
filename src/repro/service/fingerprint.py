"""Content-addressed fingerprints for synthesis problems.

The batch service memoizes plans by *content*, not by file path or object
identity: two problems that denote the same network, configurations,
specification, and synthesizer options hash to the same fingerprint even if
their links, rules, or traffic classes were listed in a different order.

Canonicalization rules (on top of :mod:`repro.net.serialize`):

* topology — switches and hosts sorted; each link oriented so its
  lexicographically smaller ``(node, port)`` endpoint comes first, then the
  link list sorted;
* traffic classes — sorted by name, with field pairs and ingress lists
  sorted;
* configurations — switches sorted; rules within a table sorted by their
  canonical JSON encoding (table semantics are priority-driven, so rule
  *listing* order is irrelevant);
* specification — the parsed formula's canonical printed form, so
  whitespace/formatting differences in the concrete syntax don't matter;
* options — the synthesizer-option mapping with keys sorted.  The *timeout*
  option is deliberately excluded from the identity: a plan is the same plan
  regardless of how long we were willing to wait for it.

The fingerprint is the SHA-256 hex digest of the compact, key-sorted
canonical JSON.  Each table's share of it is cached on the table
(:meth:`~repro.net.rules.Table.canonical_json`), and the topology's on the
topology (:meth:`~repro.net.topology.Topology.canonical_json`), so a
problem that shares tables with one fingerprinted before (a delta and its
base), or with another switch of the same problem, encodes only its new
tables.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.serialize import Problem
from repro.net.topology import NodeId


#: compact, key-sorted JSON (one encoder: ``json.dumps`` with options
#: builds a new one per call)
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_classes(
    ingresses: Mapping[TrafficClass, Sequence[NodeId]],
) -> List[Dict[str, Any]]:
    """Order-insensitive list form of the traffic classes and their ingresses."""
    return sorted(
        (
            {
                "name": tc.name,
                "fields": sorted(tc.field_map().items()),
                "ingress": sorted(str(h) for h in hosts),
            }
            for tc, hosts in ingresses.items()
        ),
        key=lambda entry: entry["name"],
    )


def _config_json(config: Configuration) -> str:
    """Canonical JSON of a configuration: switches sorted, each table's
    cached :meth:`~repro.net.rules.Table.canonical_json`."""
    return (
        "{"
        + ",".join(
            f"{_canonical_json(str(switch))}:{config.table(switch).canonical_json()}"
            for switch in sorted(config.switches())
        )
        + "}"
    )


def problem_fingerprint(
    problem: Problem, options: Optional[Mapping[str, Any]] = None
) -> str:
    """SHA-256 fingerprint of ``problem`` (and optionally synthesizer options).

    ``options`` is any JSON-serializable mapping describing the synthesizer
    configuration that influences the *content* of the resulting plan
    (checker backend, granularity, optimization switches).  A ``timeout``
    key, if present, is ignored.
    """
    # the canonical JSON of one object, assembled key by key in sorted
    # order so each configuration reuses its tables' cached encodings
    members = [
        ("classes", _canonical_json(canonical_classes(problem.ingresses))),
        ("final", _config_json(problem.final)),
        ("init", _config_json(problem.init)),
    ]
    if options:
        members.append(
            (
                "options",
                _canonical_json(
                    {str(k): v for k, v in options.items() if k != "timeout"}
                ),
            )
        )
    # the parsed formula's printed form, not the raw text: immune to
    # whitespace/parenthesization differences in the input
    members.append(("spec", _canonical_json(str(problem.spec))))
    members.append(("topology", problem.topology.canonical_json()))
    text = "{" + ",".join(f'"{key}":{value}' for key, value in members) + "}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
