"""Counterexample-based pruning (§4.2.A): the ``V`` and ``W`` formula sets.

Paper mapping: §4.2.A (``makeFormula``, wrong-configuration learning) used
by the §4.1 search.

A *configuration key* identifies an intermediate configuration by the set of
update units already applied (a unit is a switch at switch granularity, or a
``(switch, class)`` pair at rule granularity).

``makeFormula(cex)`` abstracts a counterexample trace into the set of units
it mentions, each flagged with whether it was updated at the time: any future
configuration agreeing on those flags would reproduce the same violating
trace, so it can be pruned without a model-checker call.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Sequence, Set, Tuple

from repro.kripke.structure import KState

# a unit is a switch id (switch granularity) or (switch, class name)
Unit = Hashable
ConfigKey = FrozenSet[Unit]

#: a wrong-configuration pattern: (unit, was_updated) flags
Pattern = FrozenSet[Tuple[Unit, bool]]


def make_formula(
    cex: Sequence[KState],
    updated: ConfigKey,
    units: FrozenSet[Unit],
    rule_granularity: bool,
) -> Pattern:
    """Abstract counterexample ``cex`` into a wrong-configuration pattern.

    Only units that *can still change* (members of ``units``) are included:
    switches the update never touches contribute nothing to pruning.
    """
    flags: Set[Tuple[Unit, bool]] = set()
    for state in cex:
        if state.kind not in ("loc", "drop"):
            continue
        if rule_granularity:
            unit: Unit = (state.node, state.tc.name)
        else:
            unit = state.node
        if unit in units:
            flags.add((unit, unit in updated))
    return frozenset(flags)


class WrongConfigs:
    """The ``W`` set: patterns of configurations known to violate the spec.

    Each pattern is stored once, as the units it requires to be updated and
    the units it requires not to be, so matching is two set operations.
    """

    def __init__(self) -> None:
        self._patterns: Set[Tuple[ConfigKey, ConfigKey]] = set()

    def add(self, pattern: Pattern) -> None:
        if not pattern:
            return
        self._patterns.add((
            frozenset(unit for unit, flag in pattern if flag),
            frozenset(unit for unit, flag in pattern if not flag),
        ))

    def matches(self, config: ConfigKey) -> bool:
        """Would ``config`` reproduce a known-violating trace?"""
        return any(
            required <= config and forbidden.isdisjoint(config)
            for required, forbidden in self._patterns
        )

    def __len__(self) -> int:
        return len(self._patterns)
