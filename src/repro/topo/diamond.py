"""Diamond update scenarios — the workloads of the paper's evaluation (§6).

A *diamond* connects a source/destination pair via two disjoint paths: the
initial configuration routes along one, the final along the other, and the
synthesizer must find the order in which the affected switches can be
updated.  The module provides:

* :func:`diamond_on_topology` — a diamond over a random (or given) switch
  pair of an existing topology (Topology Zoo / fat-tree experiments);
* :func:`ring_diamond` — a large diamond over the two ring arcs of a
  small-world topology (the Figure 8(g) scaling workload: nearly all
  switches update);
* :func:`chained_diamond` — a chain of diamonds glued at articulation
  waypoints, giving non-trivial waypointing and service-chaining properties
  that hold in every configuration of the update;
* :func:`double_diamond` — two flows routed in opposite directions over the
  same two arcs: switch-granularity updates are provably impossible
  (Figure 8(h)) while rule-granularity updates succeed (Figure 8(i));
* :func:`fan_diamond` — ``n`` per-class diamonds whose flips all wait on
  one shared enabler, with naming adversarial to the search's tie-break
  (a hard search without the reachability heuristic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ltl import specs
from repro.ltl.syntax import Formula
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.topology import NodeId, Topology
from repro.topo.smallworld import small_world


@dataclass
class DiamondScenario:
    """A complete synthesis problem instance.

    ``init_paths``/``final_paths`` record the per-class node paths the two
    configurations were built from (when known): downstream consumers such
    as the scenario corpus (:mod:`repro.scenarios`) derive waypoint and
    isolation specifications from them.
    """

    name: str
    topology: Topology
    init: Configuration
    final: Configuration
    spec: Formula
    ingresses: Dict[TrafficClass, List[NodeId]]
    prop: str = "reachability"
    expected_feasible: bool = True
    init_paths: Dict[TrafficClass, List[NodeId]] = field(default_factory=dict)
    final_paths: Dict[TrafficClass, List[NodeId]] = field(default_factory=dict)

    @property
    def classes(self) -> List[TrafficClass]:
        return list(self.ingresses)

    def units_updating(self) -> int:
        """Number of switches whose tables differ between init and final."""
        return len(self.init.diff_switches(self.final))

    def total_rules(self) -> int:
        return self.init.total_rules() + self.final.total_rules()


def _attach_host(topo: Topology, switch: NodeId, host: NodeId) -> NodeId:
    if not topo.has_node(host):
        topo.add_host(host)
        topo.add_link(switch, host)
    return host


def diamond_on_topology(
    topo: Topology,
    src: Optional[NodeId] = None,
    dst: Optional[NodeId] = None,
    prop: str = "reachability",
    seed: int = 0,
    name: str = "diamond",
) -> Optional[DiamondScenario]:
    """A diamond over ``topo`` between ``src`` and ``dst`` switches.

    Picks a random pair with two switch-disjoint paths when not given;
    returns ``None`` if no such pair exists.  Hosts are attached in place.
    """
    rng = random.Random(seed)
    switches = sorted(topo.switches)
    pairs: List[Tuple[NodeId, NodeId]]
    if src is not None and dst is not None:
        pairs = [(src, dst)]
    else:
        pairs = []
        for _ in range(200):
            a, b = rng.sample(switches, 2)
            pairs.append((a, b))
    for a, b in pairs:
        host_a = _attach_host(topo, a, f"H_{a}")
        host_b = _attach_host(topo, b, f"H_{b}")
        paths = topo.disjoint_paths(host_a, host_b)
        if len(paths) == 2 and len(paths[0]) > 3 and len(paths[1]) > 3:
            return _scenario_from_paths(
                topo, host_a, host_b, paths[0], paths[1], prop, name
            )
    return None


def _scenario_from_paths(
    topo: Topology,
    host_a: NodeId,
    host_b: NodeId,
    init_path: Sequence[NodeId],
    final_path: Sequence[NodeId],
    prop: str,
    name: str,
) -> DiamondScenario:
    tc = TrafficClass.make(f"f_{host_a}_{host_b}", src=host_a, dst=host_b)
    init = Configuration.from_paths(topo, {tc: list(init_path)})
    final = Configuration.from_paths(topo, {tc: list(final_path)})
    if prop == "reachability":
        spec = specs.reachability(tc, host_b)
    elif prop == "waypoint":
        # the destination-side switch lies on both paths
        spec = specs.waypoint(tc, final_path[-2], host_b)
    else:
        raise ValueError(f"property {prop!r} needs a chained diamond")
    return DiamondScenario(
        name=name,
        topology=topo,
        init=init,
        final=final,
        spec=spec,
        ingresses={tc: [host_a]},
        prop=prop,
        init_paths={tc: list(init_path)},
        final_paths={tc: list(final_path)},
    )


# ----------------------------------------------------------------------
def ring_diamond(
    n: int,
    prop: str = "reachability",
    seed: int = 0,
    rewire_probability: float = 0.1,
) -> DiamondScenario:
    """A large diamond over the two ring arcs of a small-world topology.

    ``init`` routes clockwise from S0 to S(n/2), ``final`` counterclockwise;
    nearly ``n`` switches must update, matching the Figure 8(g) workload.
    """
    topo = small_world(n, rewire_probability=rewire_probability, seed=seed)
    src_switch, dst_switch = "S0", f"S{n // 2}"
    host_a = _attach_host(topo, src_switch, "Hsrc")
    host_b = _attach_host(topo, dst_switch, "Hdst")
    clockwise = [host_a] + [f"S{i}" for i in range(0, n // 2 + 1)] + [host_b]
    counter = [host_a] + ["S0"] + [f"S{i}" for i in range(n - 1, n // 2 - 1, -1)] + [host_b]
    return _scenario_from_paths(
        topo, host_a, host_b, clockwise, counter,
        prop if prop == "reachability" else "reachability",
        f"ring_diamond_{n}",
    )


def chained_diamond(
    segments: int,
    segment_length: int,
    prop: str = "chain",
    name: Optional[str] = None,
) -> DiamondScenario:
    """A chain of ``segments`` diamonds glued at articulation waypoints.

    Topology: waypoint switches ``W0..Wk`` (k = segments); between ``Wi`` and
    ``Wi+1`` run two disjoint switch chains (``Ti_j`` on top, ``Bi_j`` on the
    bottom) of ``segment_length`` interior switches each.  The initial
    configuration routes along all top chains, the final along all bottom
    chains.  Every configuration of any update order passes through all the
    ``Wi``, so waypointing and service-chaining specs are non-trivially
    preserved while roughly ``2 * segments * segment_length`` switches update.
    """
    if segments < 1 or segment_length < 1:
        raise ValueError("need at least one segment of length one")
    topo = Topology()
    waypoints = [f"W{i}" for i in range(segments + 1)]
    for w in waypoints:
        topo.add_switch(w)
    top_path: List[NodeId] = []
    bottom_path: List[NodeId] = []
    for i in range(segments):
        tops = [f"T{i}_{j}" for j in range(segment_length)]
        bottoms = [f"B{i}_{j}" for j in range(segment_length)]
        for s in tops + bottoms:
            topo.add_switch(s)
        chain_top = [waypoints[i]] + tops + [waypoints[i + 1]]
        chain_bottom = [waypoints[i]] + bottoms + [waypoints[i + 1]]
        for a, b in zip(chain_top, chain_top[1:]):
            topo.add_link(a, b)
        for a, b in zip(chain_bottom, chain_bottom[1:]):
            topo.add_link(a, b)
        top_path.extend(chain_top[:-1])
        bottom_path.extend(chain_bottom[:-1])
    top_path.append(waypoints[-1])
    bottom_path.append(waypoints[-1])
    host_a = _attach_host(topo, waypoints[0], "Hsrc")
    host_b = _attach_host(topo, waypoints[-1], "Hdst")
    init_path = [host_a] + top_path + [host_b]
    final_path = [host_a] + bottom_path + [host_b]
    tc = TrafficClass.make("f_chain", src=host_a, dst=host_b)
    init = Configuration.from_paths(topo, {tc: init_path})
    final = Configuration.from_paths(topo, {tc: final_path})
    if prop == "reachability":
        spec = specs.reachability(tc, host_b)
    elif prop == "waypoint":
        spec = specs.waypoint(tc, waypoints[len(waypoints) // 2], host_b)
    elif prop == "chain":
        spec = specs.service_chain(tc, waypoints[1:-1] or [waypoints[0]], host_b)
    else:
        raise ValueError(f"unknown property {prop!r}")
    return DiamondScenario(
        name=name or f"chained_diamond_{segments}x{segment_length}_{prop}",
        topology=topo,
        init=init,
        final=final,
        spec=spec,
        ingresses={tc: [host_a]},
        prop=prop,
        init_paths={tc: init_path},
        final_paths={tc: final_path},
    )


def fan_diamond(n: int) -> DiamondScenario:
    """``n`` diamonds whose flips all wait on one shared enabler switch.

    Class ``c_i`` moves from ``Hs_i → A_i → Xstat → Hd_i`` to
    ``Hs_i → A_i → Zall → Hd_i``: every flip ``A_i`` blackholes its class
    until the shared enabler ``Zall`` (empty in the initial configuration)
    carries the new rules, so the safe orders are exactly "``Zall`` first,
    then the flips in any order".

    The naming is deliberately adversarial to the search's alphabetical
    tie-break (flips sort first, the enabler last): with the reachability
    heuristic disabled, the search pays one refuted model check per flip
    before it reaches ``Zall``.  With the heuristic on, the cold enabler is tried first and the instance is easy — the point is a
    hard *search*, not a hard network.
    """
    if n < 2:
        raise ValueError("need at least two fanned diamonds")
    topo = Topology()
    flips = [f"A{i:02d}" for i in range(n)]
    enabler = "Zall"
    static = "Xstat"
    for switch in flips + [enabler, static]:
        topo.add_switch(switch)
    sources = [f"Hs{i:02d}" for i in range(n)]
    sinks = [f"Hd{i:02d}" for i in range(n)]
    for i in range(n):
        topo.add_host(sources[i])
        topo.add_link(sources[i], flips[i])
        topo.add_host(sinks[i])
        topo.add_link(flips[i], static)
        topo.add_link(static, sinks[i])
        topo.add_link(flips[i], enabler)
        topo.add_link(enabler, sinks[i])
    classes = [
        TrafficClass.make(f"c{i:02d}", dst=sinks[i]) for i in range(n)
    ]
    init_paths: Dict[TrafficClass, List[NodeId]] = {}
    final_paths: Dict[TrafficClass, List[NodeId]] = {}
    for i, tc in enumerate(classes):
        init_paths[tc] = [sources[i], flips[i], static, sinks[i]]
        final_paths[tc] = [sources[i], flips[i], enabler, sinks[i]]
    init = Configuration.from_paths(topo, init_paths)
    final = Configuration.from_paths(topo, final_paths)
    # the old shared segment keeps its rules: Xstat is static scenery, so
    # the diff is exactly the n flips plus the one shared enabler
    final = final.with_table(static, init.table(static))
    spec = specs.all_of(
        [specs.reachability(tc, sinks[i]) for i, tc in enumerate(classes)]
    )
    return DiamondScenario(
        name=f"fan_diamond_{n}",
        topology=topo,
        init=init,
        final=final,
        spec=spec,
        ingresses={tc: [init_paths[tc][0]] for tc in classes},
        prop="reachability",
        init_paths={tc: list(p) for tc, p in init_paths.items()},
        final_paths={tc: list(p) for tc, p in final_paths.items()},
    )


def double_diamond(n: int, seed: int = 0) -> DiamondScenario:
    """Two flows in opposite directions over the same ring arcs.

    Flow ``ab`` moves from arc-1 to arc-2 while flow ``ba`` moves from arc-2
    to arc-1.  At switch granularity the ordering constraints form a cycle,
    so no simple careful sequence exists (Figure 8(h)); at rule granularity
    the per-flow updates decouple and synthesis succeeds (Figure 8(i)).
    """
    topo = small_world(n, rewire_probability=0.0, seed=seed)
    mid = n // 2
    host_a = _attach_host(topo, "S0", "Ha")
    host_b = _attach_host(topo, f"S{mid}", "Hb")
    arc1 = [f"S{i}" for i in range(0, mid + 1)]                  # S0 .. Smid
    arc2 = [f"S{i}" for i in [0] + list(range(n - 1, mid - 1, -1))]  # S0, Sn-1 .. Smid
    tc_ab = TrafficClass.make("f_ab", src=host_a, dst=host_b)
    tc_ba = TrafficClass.make("f_ba", src=host_b, dst=host_a)
    init_paths = {
        tc_ab: [host_a] + arc1 + [host_b],
        tc_ba: [host_b] + list(reversed(arc2)) + [host_a],
    }
    final_paths = {
        tc_ab: [host_a] + arc2 + [host_b],
        tc_ba: [host_b] + list(reversed(arc1)) + [host_a],
    }
    init = Configuration.from_paths(topo, init_paths)
    final = Configuration.from_paths(topo, final_paths)
    spec = specs.all_of(
        [specs.reachability(tc_ab, host_b), specs.reachability(tc_ba, host_a)]
    )
    return DiamondScenario(
        name=f"double_diamond_{n}",
        topology=topo,
        init=init,
        final=final,
        spec=spec,
        ingresses={tc_ab: [host_a], tc_ba: [host_b]},
        prop="reachability",
        expected_feasible=False,
        init_paths={tc: list(p) for tc, p in init_paths.items()},
        final_paths={tc: list(p) for tc, p in final_paths.items()},
    )
