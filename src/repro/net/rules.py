"""Forwarding rules and tables, with the paper's ``[[tbl]]`` semantics.

A rule is ``{pri; pat; acts}``: a priority, a pattern over an optional
in-port and optional header fields, and a list of actions that either forward
the packet out a port (``fwd pt``) or rewrite a header field (``f := n``).
A table is a set of such rules; its semantics maps a ``(packet, port)`` pair
to the multiset of ``(packet', port')`` pairs produced by the
highest-priority matching rule (§3.1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.net.fields import FieldName, FieldValue, Packet


#: compact, key-sorted JSON (one encoder: ``json.dumps`` with options
#: builds a new one per call)
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Action:
    """Base class for rule actions."""

    __slots__ = ()


@dataclass(frozen=True)
class Forward(Action):
    """Forward the packet out of port ``port`` (the paper's ``fwd pt``)."""

    port: int

    def __str__(self) -> str:
        return f"fwd({self.port})"


@dataclass(frozen=True)
class SetField(Action):
    """Rewrite header field ``field`` to ``value`` (the paper's ``f := n``)."""

    field: FieldName
    value: FieldValue

    def __str__(self) -> str:
        return f"{self.field}:={self.value}"


@dataclass(frozen=True)
class Pattern:
    """A match pattern: an optional in-port plus optional field constraints.

    ``None`` components are wildcards, mirroring the option types in the
    paper's ``{pt?; f1?; ..; fk?}``.
    """

    in_port: Optional[int] = None
    fields: Tuple[Tuple[FieldName, FieldValue], ...] = ()

    @staticmethod
    def make(in_port: Optional[int] = None, **fields: FieldValue) -> "Pattern":
        return Pattern(in_port, tuple(sorted(fields.items())))

    def field_map(self) -> Dict[FieldName, FieldValue]:
        return dict(self.fields)

    def matches(self, packet: Packet, port: int) -> bool:
        if self.in_port is not None and self.in_port != port:
            return False
        return all(packet.get(k) == v for k, v in self.fields)

    def is_wildcard(self) -> bool:
        return self.in_port is None and not self.fields

    def __str__(self) -> str:
        parts = [] if self.in_port is None else [f"pt={self.in_port}"]
        parts.extend(f"{k}={v}" for k, v in self.fields)
        return "{" + ",".join(parts) + "}" if parts else "{*}"


@dataclass(frozen=True)
class Rule:
    """A prioritized forwarding rule ``{pri; pat; acts}``."""

    priority: int
    pattern: Pattern
    actions: Tuple[Action, ...]

    @staticmethod
    def make(priority: int, pattern: Pattern, actions: Sequence[Action]) -> "Rule":
        return Rule(priority, pattern, tuple(actions))

    def apply(self, packet: Packet, port: int) -> List[Tuple[Packet, int]]:
        """Apply this rule's action list to ``(packet, port)``.

        Field rewrites accumulate left to right; each ``Forward`` action emits
        the packet as rewritten so far, so ``[f:=v, fwd 1, g:=w, fwd 2]``
        emits two (different) packets, as in OpenFlow action lists.
        """
        out: List[Tuple[Packet, int]] = []
        current = packet
        for action in self.actions:
            if isinstance(action, SetField):
                current = current.with_field(action.field, action.value)
            elif isinstance(action, Forward):
                out.append((current, action.port))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action {action!r}")
        return out

    def __str__(self) -> str:
        acts = ";".join(str(a) for a in self.actions) or "drop"
        return f"[{self.priority}] {self.pattern} -> {acts}"


class Table:
    """An immutable forwarding table: a prioritized set of rules.

    The semantic function :meth:`process` implements the paper's ``[[tbl]]``:
    find the highest-priority rule whose pattern matches, apply its actions,
    drop if no rule matches.  Ties are broken deterministically by the rule's
    position so that simulation runs are reproducible (the paper allows any
    choice among equal-priority matches).
    """

    __slots__ = ("_rules", "_hash", "_json")

    def __init__(self, rules: Iterable[Rule] = ()):
        # canonical order: priority descending, then a deterministic
        # structural tiebreak, so tables are equal as rule *sets* and the
        # equal-priority choice (which the paper leaves free) is stable.
        # Most tables hold one rule, whose sort key (two str() renderings)
        # would cost more than building the rest of the table.
        ordered = tuple(rules)
        if len(ordered) > 1:
            ordered = tuple(
                sorted(ordered, key=lambda r: (-r.priority, str(r.pattern), str(r)))
            )
        self._rules: Tuple[Rule, ...] = ordered
        self._hash: Optional[int] = None
        self._json: Optional[str] = None

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._rules == other._rules

    def __hash__(self) -> int:
        # tables key the reached-state memo and the wait-removal edge cache;
        # the rule tuple never changes, so hash once
        if self._hash is None:
            self._hash = hash(self._rules)
        return self._hash

    def canonical_json(self) -> str:
        """The rules as a JSON list, order-insensitive: each rule's compact,
        key-sorted wire encoding, sorted by that encoding.

        This is the table's share of a problem fingerprint
        (:mod:`repro.service.fingerprint`).  It is computed once per table,
        so a delta that shares untouched tables with its base re-encodes
        only the tables it patched.
        """
        if self._json is None:
            # serialize imports this module, so bind it on first use
            from repro.net.serialize import rule_to_dict

            encoded = sorted(_CANONICAL.encode(rule_to_dict(rule)) for rule in self._rules)
            self._json = "[" + ",".join(encoded) + "]"
        return self._json

    def __getstate__(self):
        # never ship the caches across a process boundary: str hashes are
        # salted per process, so a pickled hash would disagree with hashes
        # the receiving process computes for equal tables
        return self._rules

    def __setstate__(self, state) -> None:
        self._rules = state
        self._hash = None
        self._json = None

    def lookup(self, packet: Packet, port: int) -> Optional[Rule]:
        """The highest-priority rule matching ``(packet, port)``, if any."""
        for rule in self._rules:
            if rule.pattern.matches(packet, port):
                return rule
        return None

    def process(self, packet: Packet, port: int) -> List[Tuple[Packet, int]]:
        """``[[tbl]](pkt, pt)``: the multiset of output (packet, port) pairs."""
        rule = self.lookup(packet, port)
        if rule is None:
            return []
        return rule.apply(packet, port)

    def with_rule(self, rule: Rule) -> "Table":
        """A new table with ``rule`` added."""
        return Table(self._rules + (rule,))

    def without_rule(self, rule: Rule) -> "Table":
        """A new table with the first occurrence of ``rule`` removed."""
        rules = list(self._rules)
        rules.remove(rule)
        return Table(rules)

    def restrict(self, predicate) -> "Table":
        """A new table keeping only rules for which ``predicate(rule)``."""
        return Table(r for r in self._rules if predicate(r))

    def merge(self, other: "Table") -> "Table":
        """A new table containing the rules of both tables."""
        return Table(self._rules + other.rules)

    def __str__(self) -> str:
        return "Table[" + "; ".join(str(r) for r in self._rules) + "]"

    def __repr__(self) -> str:
        return str(self)


EMPTY_TABLE = Table()
