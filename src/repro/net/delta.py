"""Problem patches: the structured edits behind ``repro-api/1`` deltas.

A streaming controller rarely submits unrelated problems — it submits the
*same* problem with one link flapped, one switch's rules changed, or the
spec swapped.  :class:`ProblemPatch` is that edit as a first-class,
wire-serializable document, and :meth:`ProblemPatch.apply_to` resolves it
against a retained base :class:`~repro.net.serialize.Problem`
*incrementally*:

* link edits propagate through :meth:`~repro.net.topology.Topology.copy`
  (index dicts duplicated, nothing re-derived) plus per-edge
  :meth:`~repro.net.topology.Topology.add_link` /
  :meth:`~repro.net.topology.Topology.remove_link` — no adjacency
  recompute;
* table edits go through
  :meth:`~repro.net.config.Configuration.with_table`, which shares every
  untouched :class:`~repro.net.rules.Table` by reference, so the hashes and
  canonical encodings cached on those tables stay warm;
* ingress and spec edits replace only the named pieces.

The resulting problem is an ordinary full problem — downstream layers
(fingerprinting, scheduling) need no special cases — while the
engine pairs it with the base plan's unit order to warm-start the search
(:func:`repro.synthesis.search.order_update` ``warm_order=``).

Example — flap a link and touch one switch's final table::

    >>> from repro.net.delta import ProblemPatch
    >>> patch = ProblemPatch.from_dict({
    ...     "links_remove": [["S1", "S2"]],
    ...     "links_add": [["S1", "S3"]],
    ...     "final_tables": {"S1": []},
    ... })
    >>> sorted(patch.to_dict())
    ['final_tables', 'links_add', 'links_remove']
    >>> patch.is_empty()
    False
    >>> ProblemPatch.from_dict({}).is_empty()
    True

A patch document with an unknown key (or a malformed edit) is refused with
:class:`~repro.errors.ParseError` — the server surfaces that as a 400
parse envelope::

    >>> ProblemPatch.from_dict({"linkz": []})
    Traceback (most recent call last):
        ...
    repro.errors.ParseError: unknown patch key 'linkz' (expected one of final_tables, ingresses, init_tables, links_add, links_remove, spec)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ParseError, TopologyError
from repro.ltl.parser import parse
from repro.net.rules import Table
from repro.net.serialize import Problem, link_from_dict, rule_to_dict, table_from_dict
from repro.net.topology import NodeId

#: The editable pieces of a problem, in the wire document's vocabulary.
PATCH_KEYS = (
    "links_add",
    "links_remove",
    "init_tables",
    "final_tables",
    "ingresses",
    "spec",
)


def _parse_link(entry: Any, *, key: str) -> Tuple:
    if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 4):
        raise ParseError(
            f"patch {key!r} entries must be [node_a, node_b] or "
            f"[node_a, node_b, port_a, port_b], got {entry!r}"
        )
    return link_from_dict(entry, where=f"patch {key!r}")


def _parse_tables(
    data: Any, memo: Dict[bytes, Table], *, key: str
) -> Dict[NodeId, Table]:
    if not isinstance(data, Mapping):
        raise ParseError(f"patch {key!r} must be an object of switch tables")
    tables: Dict[NodeId, Table] = {}
    for switch, rules in data.items():
        if not isinstance(rules, list):
            raise ParseError(
                f"patch {key!r}[{switch!r}] must be a list of rules"
            )
        try:
            tables[str(switch)] = table_from_dict(rules, memo)
        except (ParseError, TypeError, ValueError, AttributeError) as err:
            raise ParseError(
                f"patch {key!r}[{switch!r}] has a bad rule: {err}"
            ) from err
    return tables


@dataclass
class ProblemPatch:
    """A structured edit against a retained base problem.

    Every field is optional; an all-default patch is a no-op (the delta
    degenerates to resubmitting the base, which the plan cache answers).

    Attributes:
        links_add: links to wire, as ``(node_a, node_b, port_a, port_b)``
            with ``None`` ports meaning auto-assign.
        links_remove: ``(node_a, node_b)`` pairs to unwire.
        init_tables / final_tables: per-switch table *replacements* for the
            initial/final configuration (an empty rule list clears the
            switch).
        ingresses: per-class ingress-host replacements; the class must
            already exist on the base problem.
        spec: replacement LTL specification (concrete syntax), or ``None``
            to keep the base spec.
    """

    links_add: List[Tuple] = field(default_factory=list)
    links_remove: List[Tuple] = field(default_factory=list)
    init_tables: Dict[NodeId, Table] = field(default_factory=dict)
    final_tables: Dict[NodeId, Table] = field(default_factory=dict)
    ingresses: Dict[str, List[NodeId]] = field(default_factory=dict)
    spec: Optional[str] = None

    def is_empty(self) -> bool:
        """True when the patch edits nothing."""
        return not (
            self.links_add
            or self.links_remove
            or self.init_tables
            or self.final_tables
            or self.ingresses
            or self.spec is not None
        )

    def touches_scope(self) -> bool:
        """True when the patch edits a link, an ingress or the spec.

        Only a patch that swaps rules and nothing else lets a delta job
        start its search from its base's verified final structure (see
        :meth:`repro.service.engine.SynthesisService._handover`): the
        structure's states and transitions depend on the topology and the
        ingresses, and its labels on the spec.
        """
        return bool(
            self.links_add
            or self.links_remove
            or self.ingresses
            or self.spec is not None
        )

    # ------------------------------------------------------------------
    # wire round-trip
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProblemPatch":
        """Parse a patch document; malformed documents raise ParseError."""
        if not isinstance(data, Mapping):
            raise ParseError(f"patch must be an object, got {type(data).__name__}")
        for key in data:
            if key not in PATCH_KEYS:
                raise ParseError(
                    f"unknown patch key {key!r} (expected one of "
                    f"{', '.join(sorted(PATCH_KEYS))})"
                )
        links_add = [
            _parse_link(entry, key="links_add")
            for entry in _require_list(data, "links_add")
        ]
        links_remove = [
            _parse_link(entry, key="links_remove")[:2]
            for entry in _require_list(data, "links_remove")
        ]
        ingresses: Dict[str, List[NodeId]] = {}
        raw_ingresses = data.get("ingresses", {})
        if not isinstance(raw_ingresses, Mapping):
            raise ParseError("patch 'ingresses' must be an object")
        for name, hosts in raw_ingresses.items():
            if not isinstance(hosts, list):
                raise ParseError(
                    f"patch 'ingresses'[{name!r}] must be a list of hosts"
                )
            ingresses[str(name)] = [str(h) for h in hosts]
        spec = data.get("spec")
        if spec is not None and not isinstance(spec, str):
            raise ParseError(f"patch 'spec' must be a string, got {spec!r}")
        tables: Dict[bytes, Table] = {}  # both sides share their equal tables
        return cls(
            links_add=links_add,
            links_remove=links_remove,
            init_tables=_parse_tables(
                data.get("init_tables", {}), tables, key="init_tables"
            ),
            final_tables=_parse_tables(
                data.get("final_tables", {}), tables, key="final_tables"
            ),
            ingresses=ingresses,
            spec=spec,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The patch as a JSON-safe document (inverse of :meth:`from_dict`);
        untouched pieces are omitted, so the document stays minimal."""
        out: Dict[str, Any] = {}
        if self.links_add:
            out["links_add"] = [
                [a, b] if pa is None and pb is None else [a, b, pa, pb]
                for a, b, pa, pb in self.links_add
            ]
        if self.links_remove:
            out["links_remove"] = [[a, b] for a, b in self.links_remove]
        if self.init_tables:
            out["init_tables"] = {
                switch: [rule_to_dict(r) for r in table]
                for switch, table in self.init_tables.items()
            }
        if self.final_tables:
            out["final_tables"] = {
                switch: [rule_to_dict(r) for r in table]
                for switch, table in self.final_tables.items()
            }
        if self.ingresses:
            out["ingresses"] = {
                name: list(hosts) for name, hosts in self.ingresses.items()
            }
        if self.spec is not None:
            out["spec"] = self.spec
        return out

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def apply_to(self, base: Problem) -> Problem:
        """Resolve the patch against ``base``, returning a new problem.

        The base is never mutated.  Unchanged pieces are shared by
        reference (tables, the topology when no link moves), so downstream
        content-hash caches keep their warm entries.  An edit that does not
        apply — removing an absent link, re-wiring an occupied port,
        retargeting an unknown class, an unparsable spec — raises
        :class:`~repro.errors.ParseError`: the delta is *malformed with
        respect to its base*, which front-ends report as a parse failure.
        """
        topology = base.topology
        if self.links_add or self.links_remove:
            topology = topology.copy()
            try:
                for a, b in self.links_remove:
                    topology.remove_link(a, b)
                for a, b, pa, pb in self.links_add:
                    topology.add_link(a, b, port_a=pa, port_b=pb)
            except TopologyError as err:
                raise ParseError(f"patch does not apply to base: {err}") from err
        init = base.init
        for switch, table in self.init_tables.items():
            init = init.with_table(switch, table)
        final = base.final
        for switch, table in self.final_tables.items():
            final = final.with_table(switch, table)
        ingresses = {tc: list(hosts) for tc, hosts in base.ingresses.items()}
        if self.ingresses:
            by_name = {tc.name: tc for tc in ingresses}
            for name, hosts in self.ingresses.items():
                tc = by_name.get(name)
                if tc is None:
                    raise ParseError(
                        f"patch retargets unknown traffic class {name!r} "
                        f"(base classes: {', '.join(sorted(by_name)) or 'none'})"
                    )
                ingresses[tc] = list(hosts)
        spec, spec_text = base.spec, base.spec_text
        if self.spec is not None:
            try:
                spec = parse(self.spec)
            except ParseError as err:
                raise ParseError(f"patch spec does not parse: {err}") from err
            spec_text = self.spec
        return Problem(
            topology=topology,
            ingresses=ingresses,
            init=init,
            final=final,
            spec=spec,
            spec_text=spec_text,
        )


def _require_list(data: Mapping[str, Any], key: str) -> List[Any]:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"patch {key!r} must be a list")
    return value
