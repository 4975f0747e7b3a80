"""Topology generators and experiment workloads.

Provides the three topology families of the paper's evaluation (§6) —
Topology Zoo WANs (a builtin set plus synthetic look-alikes), k-ary
fat-trees, and small-world graphs — together with the diamond update
scenarios the experiments are built from.
"""

from repro.topo.fattree import fat_tree, mini_datacenter
from repro.topo.smallworld import small_world
from repro.topo.zoo import builtin_zoo, synthetic_zoo, zoo_topology
from repro.topo.diamond import (
    DiamondScenario,
    fan_diamond,
    chained_diamond,
    diamond_on_topology,
    double_diamond,
    ring_diamond,
)

__all__ = [
    "fat_tree",
    "mini_datacenter",
    "small_world",
    "builtin_zoo",
    "synthetic_zoo",
    "zoo_topology",
    "DiamondScenario",
    "fan_diamond",
    "chained_diamond",
    "diamond_on_topology",
    "ring_diamond",
    "double_diamond",
]
