"""Scenario builders shared by the corpus, the paper-figure experiment
drivers, and the benchmark scripts.

These used to live as private helpers inside :mod:`repro.bench.experiments`;
they are the single source of update-synthesis workloads now, so every
consumer (corpus generator, ``benchmarks/bench_fig*``) draws from the same
scenario pool.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.topo import (
    DiamondScenario,
    builtin_zoo,
    chained_diamond,
    diamond_on_topology,
    double_diamond,
    fat_tree,
    ring_diamond,
    synthetic_zoo,
)

#: the topology families of the paper's evaluation (§6)
FAMILIES = ("zoo", "fattree", "smallworld", "diamond")


def family_scenarios(
    family: str, sizes: Sequence[int], seed: int = 0
) -> List[DiamondScenario]:
    """Diamond scenarios for one topology family.

    ``sizes`` means: fat-tree arities for ``fattree``, ring sizes for
    ``smallworld``, and the number of synthetic WANs to add to the builtin
    zoo for ``zoo`` (one entry per extra topology).
    """
    scenarios: List[DiamondScenario] = []
    if family == "zoo":
        pool = builtin_zoo() + synthetic_zoo(max(0, len(sizes)), seed=seed)
        for index, (name, topo) in enumerate(pool):
            sc = diamond_on_topology(topo, seed=seed + index, name=name)
            if sc is not None:
                scenarios.append(sc)
    elif family == "fattree":
        for k in sizes:
            sc = diamond_on_topology(fat_tree(k), seed=seed, name=f"fattree{k}")
            if sc is not None:
                scenarios.append(sc)
    elif family == "smallworld":
        for n in sizes:
            scenarios.append(ring_diamond(n, seed=seed))
    else:
        raise ValueError(f"unknown topology family {family!r}")
    return scenarios


def scenario_for_prop(prop: str, n: int) -> DiamondScenario:
    """The Figure 8(g) workload: a scenario of ~``n`` switches for ``prop``."""
    if prop == "reachability":
        return ring_diamond(n, seed=2)
    # waypoint / chain need shared articulation points: chained diamonds
    segment_length = 4
    segments = max(1, n // (2 * segment_length + 1))
    return chained_diamond(segments, segment_length, prop=prop)


def zoo_pool(extra: int, seed: int = 0) -> List[tuple]:
    """The builtin WANs plus ``extra`` synthetic ones, as (name, topology)."""
    return builtin_zoo() + synthetic_zoo(max(0, extra), seed=seed)


def double_diamond_scenario(n: int, seed: int = 0) -> DiamondScenario:
    """Re-exported for corpus use (two opposing flows over shared arcs)."""
    return double_diamond(n, seed=seed)


def chained_diamond_scenario(
    segments: int, segment_length: int, prop: str = "chain", name: Optional[str] = None
) -> DiamondScenario:
    """Re-exported for corpus use (articulation-waypoint chains)."""
    return chained_diamond(segments, segment_length, prop=prop, name=name)
