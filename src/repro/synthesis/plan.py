"""Update plans: the output of synthesis.

Paper mapping: the command sequences of §2/§4 (updates interleaved with
``wait``), plus the work counters the §6 evaluation reports
(``benchmarks/bench_fig*.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

from repro.net.commands import (
    Command,
    RuleGranUpdate,
    SwitchUpdate,
    Wait,
    count_waits,
    updates_of,
)


@dataclass
class SearchStats:
    """Work counters for one synthesis run (used by the benchmarks)."""

    model_checks: int = 0
    counterexamples: int = 0
    pruned_visited: int = 0
    pruned_wrong: int = 0
    loops_rejected: int = 0
    backtracks: int = 0
    sat_terminated: bool = False
    waits_before_removal: int = 0
    waits_after_removal: int = 0
    wait_removal_seconds: float = 0.0
    synthesis_seconds: float = 0.0
    # delta warm start (repro.net.delta): length of the base plan's unit
    # order the search was seeded with, and how many candidate frames it
    # actually steered before the path left the warm prefix
    warm_units: int = 0
    warm_hits: int = 0
    # per-phase wall time, attributed by the search loop (perfbench's
    # `--trace 1` runs time every layer at paper scale)
    labeling_seconds: float = 0.0
    sat_seconds: float = 0.0


@dataclass
class UpdatePlan:
    """A synthesized command sequence plus bookkeeping.

    ``commands`` is the executable sequence (updates interleaved with
    ``Wait``); ``granularity`` records whether it was synthesized at switch
    or rule granularity.
    """

    commands: List[Command]
    granularity: str = "switch"
    stats: SearchStats = field(default_factory=SearchStats)

    def copy(self) -> "UpdatePlan":
        """A plan of its own: the command list and the stats are copied;
        the commands, which are immutable, are shared."""
        return UpdatePlan(list(self.commands), self.granularity, replace(self.stats))

    def updates(self) -> List[Command]:
        return updates_of(self.commands)

    def num_updates(self) -> int:
        return len(self.updates())

    def num_waits(self) -> int:
        return count_waits(self.commands)

    def unit_order(self) -> List:
        """The search-unit order this plan realizes.

        Switch-granularity updates yield the switch id, rule-granularity
        updates a ``(switch, class_name)`` pair — exactly the unit
        vocabulary of :func:`repro.synthesis.search.order_update`, so a
        plan's order can warm-start a follow-up search on a patched
        problem (``warm_order=``).
        """
        order: List = []
        for command in self.updates():
            if isinstance(command, SwitchUpdate):
                order.append(command.switch)
            elif isinstance(command, RuleGranUpdate):
                order.append((command.switch, command.tc.name))
        return order

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def __str__(self) -> str:
        return " ; ".join(str(c) for c in self.commands)

    def summary(self) -> str:
        return (
            f"UpdatePlan({self.num_updates()} updates, {self.num_waits()} waits, "
            f"granularity={self.granularity})"
        )
