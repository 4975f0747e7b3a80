"""Packets and traffic classes.

The paper models a packet as a record of header fields (§3.1) and groups
packets that agree on the fields tested by the specification into *traffic
classes* (elements of ``2^AP``).  We represent both as immutable field
mappings; a :class:`TrafficClass` is the symbolic object the Kripke builder
and the specifications work with, while :class:`Packet` instances flow through
the operational machine and the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

FieldName = str
FieldValue = str

#: Conventional header fields, mirroring the paper's ``src | dst | typ | ..``.
STANDARD_FIELDS: Tuple[FieldName, ...] = ("src", "dst", "typ")


def _freeze(fields: Mapping[FieldName, FieldValue]) -> Tuple[Tuple[FieldName, FieldValue], ...]:
    return tuple(sorted(fields.items()))


@dataclass(frozen=True)
class TrafficClass:
    """A set of packets that agree on particular header-field values.

    ``name`` is a human-readable identifier (used in Kripke states and
    counterexample printing); ``fields`` are the header values shared by all
    packets in the class, e.g. ``{"src": "H1", "dst": "H3"}``.
    """

    name: str
    fields: Tuple[Tuple[FieldName, FieldValue], ...] = ()

    def __hash__(self) -> int:
        # nested inside every Kripke-state hash; cache the immutable value
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.fields))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # drop the cached hash: salted str hashes differ between processes
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    @staticmethod
    def make(name: str, **fields: FieldValue) -> "TrafficClass":
        return TrafficClass(name, _freeze(fields))

    def field_map(self) -> Dict[FieldName, FieldValue]:
        return dict(self.fields)

    def get(self, name: FieldName) -> Optional[FieldValue]:
        for key, value in self.fields:
            if key == name:
                return value
        return None

    def matches_packet(self, packet: "Packet") -> bool:
        """True if ``packet`` belongs to this traffic class."""
        return all(packet.get(k) == v for k, v in self.fields)

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.name}[{inner}]"


@dataclass(frozen=True)
class Packet:
    """An immutable packet: a record of header fields (§3.1).

    The optional ``epoch`` annotation is attached by the operational machine
    when the packet enters the network (rule IN); it never influences
    forwarding, only the ``flush`` synchronization command.
    """

    fields: Tuple[Tuple[FieldName, FieldValue], ...]
    epoch: int = 0

    @staticmethod
    def make(epoch: int = 0, **fields: FieldValue) -> "Packet":
        return Packet(_freeze(fields), epoch)

    def get(self, name: FieldName) -> Optional[FieldValue]:
        for key, value in self.fields:
            if key == name:
                return value
        return None

    def field_map(self) -> Dict[FieldName, FieldValue]:
        return dict(self.fields)

    def with_field(self, name: FieldName, value: FieldValue) -> "Packet":
        """Functional field update, the paper's ``{r with f = v}``."""
        updated = self.field_map()
        updated[name] = value
        return Packet(_freeze(updated), self.epoch)

    def with_epoch(self, epoch: int) -> "Packet":
        return Packet(self.fields, epoch)

    def header_key(self) -> Tuple[Tuple[FieldName, FieldValue], ...]:
        """The packet identity ignoring the epoch annotation."""
        return self.fields

    def __iter__(self) -> Iterator[Tuple[FieldName, FieldValue]]:
        return iter(self.fields)

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.fields)
        return f"pkt[{inner}]@{self.epoch}"


def packet_for_class(tc: TrafficClass, epoch: int = 0) -> Packet:
    """A canonical concrete packet belonging to traffic class ``tc``."""
    return Packet(tc.fields, epoch)
