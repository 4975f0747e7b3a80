"""Named scenario suites: which families, sizes, templates, perturbations.

A :class:`Suite` is a declarative recipe the corpus generator
(:func:`repro.scenarios.corpus.generate_corpus`) expands into concrete
problems.  Every suite carries both full-size and ``--quick`` parameters so
the same suite scales between a laptop sweep and a CI smoke run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.errors import ReproError

#: perturbations the generator understands
PERTURBATIONS = ("baseline", "linkfail", "rulegran")


@dataclass(frozen=True)
class FamilyBlock:
    """One family × sizes × templates × perturbations sub-grid of a suite.

    ``params`` semantics per family:

    * ``fattree`` — fat-tree arities ``k``;
    * ``zoo`` — a single entry: how many synthetic WANs to add to the
      builtin zoo (every pool topology yields scenarios);
    * ``smallworld`` — ring sizes ``n``;
    * ``diamond`` with ``kind="chained"`` — ``(segments, segment_length)``
      pairs; with ``kind="double"`` — ring sizes ``n``.
    """

    family: str
    params: Tuple[Any, ...]
    quick_params: Tuple[Any, ...]
    templates: Tuple[str, ...]
    perturbations: Tuple[str, ...] = ("baseline",)
    kind: str = ""

    def sized_params(self, quick: bool) -> Tuple[Any, ...]:
        return self.quick_params if quick else self.params


@dataclass(frozen=True)
class Suite:
    name: str
    description: str
    blocks: Tuple[FamilyBlock, ...] = field(default_factory=tuple)


_PATH_TEMPLATES = ("reachability", "waypoint", "isolation", "blackhole")

SMOKE = Suite(
    name="smoke",
    description="CI-sized sweep: every family, every template, minutes of work",
    blocks=(
        FamilyBlock(
            family="fattree",
            params=(4, 6),
            quick_params=(4,),
            templates=_PATH_TEMPLATES,
            perturbations=("baseline", "linkfail"),
        ),
        FamilyBlock(
            family="zoo",
            params=(4,),
            quick_params=(2,),
            templates=("reachability", "waypoint"),
        ),
        FamilyBlock(
            family="smallworld",
            params=(20, 40),
            quick_params=(10, 20),
            templates=("reachability", "blackhole"),
        ),
        FamilyBlock(
            family="diamond",
            kind="chained",
            params=((2, 3),),
            quick_params=((2, 2),),
            templates=("chain",),
        ),
        FamilyBlock(
            family="diamond",
            kind="double",
            params=(12,),
            quick_params=(8,),
            templates=("reachability",),
            perturbations=("baseline", "rulegran"),
        ),
    ),
)

FULL = Suite(
    name="full",
    description="the paper-scale sweep (Figures 7-8 shapes) across all families",
    blocks=(
        FamilyBlock(
            family="fattree",
            params=(4, 6, 8),
            quick_params=(4, 6),
            templates=_PATH_TEMPLATES,
            perturbations=("baseline", "linkfail", "rulegran"),
        ),
        FamilyBlock(
            family="zoo",
            params=(8,),
            quick_params=(4,),
            templates=_PATH_TEMPLATES,
            perturbations=("baseline", "linkfail"),
        ),
        FamilyBlock(
            family="smallworld",
            params=(40, 80, 160),
            quick_params=(20, 40),
            templates=("reachability", "waypoint", "blackhole"),
        ),
        FamilyBlock(
            family="diamond",
            kind="chained",
            params=((2, 4), (4, 4)),
            quick_params=((2, 3),),
            templates=("chain", "waypoint"),
        ),
        FamilyBlock(
            family="diamond",
            kind="double",
            params=(16, 32),
            quick_params=(8, 16),
            templates=("reachability",),
            perturbations=("baseline", "rulegran"),
        ),
    ),
)

ZOO = Suite(
    name="zoo",
    description="wide WAN sweep: builtin + synthetic Topology Zoo, all templates",
    blocks=(
        FamilyBlock(
            family="zoo",
            params=(12,),
            quick_params=(4,),
            templates=_PATH_TEMPLATES,
            perturbations=("baseline", "linkfail"),
        ),
    ),
)

CHURN = Suite(
    name="churn",
    description=(
        "streaming delta traces: rolling onboarding waves plus link-flap "
        "noise, one base problem then chained patches per trace"
    ),
    # churn is expanded by repro.scenarios.churn, not the family-grid
    # generator, so it declares no blocks
    blocks=(),
)

#: the suite registry, in display order
SUITES: Dict[str, Suite] = {
    suite.name: suite for suite in (SMOKE, FULL, ZOO, CHURN)
}


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise ReproError(
            f"unknown suite {name!r} (choose from {', '.join(SUITES)})"
        ) from None
