"""Counterexample-based pruning (§4.2.A): the ``V`` and ``W`` formula sets.

Paper mapping: §4.2.A (``makeFormula``, wrong-configuration learning) used
by the §4.1 search.

A *configuration key* identifies an intermediate configuration by the set of
update units already applied (a unit is a switch at switch granularity, or a
``(switch, class)`` pair at rule granularity).  The search numbers its units
once, so a key is an int bitmask: bit ``i`` is set iff unit ``i`` has been
updated.

``makeFormula(cex)`` abstracts a counterexample trace into the set of units
it mentions, each flagged with whether it was updated at the time: any future
configuration agreeing on those flags would reproduce the same violating
trace, so it can be pruned without a model-checker call.  The flags are kept
as two masks, the units required to be updated and the units required not
to be, so matching a key is two int operations.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence, Set, Tuple

from repro.kripke.structure import KState

# a unit is a switch id (switch granularity) or (switch, class name)
Unit = Hashable
#: bitmask over the search's unit numbering
ConfigKey = int

#: a wrong-configuration pattern: (required-updated mask, required-not mask)
Pattern = Tuple[ConfigKey, ConfigKey]


def make_formula(
    cex: Sequence[KState],
    updated: ConfigKey,
    index: Mapping[Unit, int],
    rule_granularity: bool,
) -> Pattern:
    """Abstract counterexample ``cex`` into a wrong-configuration pattern.

    ``index`` numbers the units that *can still change*; only those are
    included: switches the update never touches contribute nothing to
    pruning.
    """
    required = forbidden = 0
    for state in cex:
        if state.kind not in ("loc", "drop"):
            continue
        if rule_granularity:
            unit: Unit = (state.node, state.tc.name)
        else:
            unit = state.node
        position = index.get(unit)
        if position is None:
            continue
        bit = 1 << position
        if updated & bit:
            required |= bit
        else:
            forbidden |= bit
    return required, forbidden


class WrongConfigs:
    """The ``W`` set: patterns of configurations known to violate the spec."""

    def __init__(self) -> None:
        self._patterns: Set[Pattern] = set()

    def add(self, pattern: Pattern) -> None:
        if pattern[0] or pattern[1]:
            self._patterns.add(pattern)

    def matches(self, config: ConfigKey) -> bool:
        """Would ``config`` reproduce a known-violating trace?"""
        return any(
            config & required == required and not config & forbidden
            for required, forbidden in self._patterns
        )

    def __len__(self) -> int:
        return len(self._patterns)
