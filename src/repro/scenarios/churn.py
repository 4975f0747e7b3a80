"""Churn traces: streaming delta workloads for the synthesis service.

A churn trace models what a long-lived controller actually sends the
server: one full base problem, then a stream of
:class:`~repro.net.delta.ProblemPatch` edits, each applied to the
previous step's problem (see ``docs/API.md`` for the wire form).  The
generator is deterministic, so ``repro corpus --suite churn`` emits a
byte-stable JSONL corpus whose delta lines reference earlier lines by
id, and ``repro bench --suite churn`` replays every trace twice — once
submitting each step as a full cold problem, once as a chained delta —
to measure the warm-start payoff honestly.

The workload is a **rolling onboarding fan**: ``groups`` waves of
``flips`` flows migrate, one wave per step, from private bypass switches
onto a shared service chain of ``enablers`` switches.

* Every wave must update the *whole* chain before any of its flip
  switches may move (a flip that moves early blackholes its flow at the
  first chain switch still missing its rules).
* The chain switches carry all previously onboarded waves, so the
  search's reachability heuristic ranks them *hot* (tried last), while
  the wave's flip and bypass switches sort first — a cold search pays
  roughly ``flips x enablers`` refuted model checks per step before it
  discovers the chain-first order.
* A delta submission inherits the previous step's accepted plan order
  (chain first), which remains exactly right for the next wave, so the
  warm-started search accepts every unit on the first try.

Each step genuinely changes forwarding (a new wave, new chain rules), so
the cold pass cannot shortcut the refutations — the measured gap is the
warm start's alone.

>>> traces = generate_churn(quick=True)
>>> [len(t.records) - 1 for t in traces]  # delta steps per trace
[2, 2]
>>> trace = traces[0]
>>> trace.records[0].patch is None  # the base is a full problem
True
>>> all(r.patch is not None for r in trace.records[1:])
True
>>> step = trace.records[1]
>>> step.base_id == trace.records[0].scenario_id
True
>>> from repro.net.serialize import problem_to_dict
>>> resolved = step.patch.apply_to(trace.records[0].problem)
>>> problem_to_dict(step.problem) == problem_to_dict(resolved)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError
from repro.ltl.parser import parse
from repro.net.config import Configuration
from repro.net.delta import ProblemPatch
from repro.net.fields import TrafficClass
from repro.net.serialize import Problem
from repro.net.topology import NodeId, Topology
from repro.scenarios.templates import reachability_text

__all__ = [
    "ChurnTrace",
    "generate_churn",
    "churn_records",
    "onboarding_fan_problems",
    "patch_between",
]


# ----------------------------------------------------------------------
# generic problem diffing
# ----------------------------------------------------------------------
def patch_between(prev: Problem, cur: Problem) -> ProblemPatch:
    """The structured edit turning ``prev`` into ``cur``.

    Diffs the two problems piecewise — link set, per-switch init/final
    tables, per-class ingresses, spec text — and returns the minimal
    :class:`~repro.net.delta.ProblemPatch` such that
    ``patch.apply_to(prev)`` is semantically ``cur``.  The traffic-class
    sets must match: patches edit a retained base, they cannot introduce
    or drop classes.

    Link edits are emitted without explicit ports (``apply_to``
    auto-assigns), so the patched topology may number a re-added link's
    ports differently from ``cur`` — semantically equivalent as long as
    no forwarding rule references the flapped link, which is the only
    kind of link churn a patch stream can express anyway.
    """
    prev_classes = {tc.name for tc in prev.classes}
    cur_classes = {tc.name for tc in cur.classes}
    if prev_classes != cur_classes:
        raise ReproError(
            "cannot diff problems with different traffic classes: "
            f"{sorted(prev_classes ^ cur_classes)}"
        )
    prev_links = {frozenset((l.node_a, l.node_b)) for l in prev.topology.links}
    cur_links = {frozenset((l.node_a, l.node_b)) for l in cur.topology.links}
    links_add = [
        (a, b, None, None)
        for a, b in sorted(tuple(sorted(pair)) for pair in cur_links - prev_links)
    ]
    links_remove = [
        (a, b) for a, b in sorted(tuple(sorted(pair)) for pair in prev_links - cur_links)
    ]
    init_tables = {
        sw: cur.init.table(sw) for sw in sorted(prev.init.diff_switches(cur.init))
    }
    final_tables = {
        sw: cur.final.table(sw) for sw in sorted(prev.final.diff_switches(cur.final))
    }
    prev_ingress = {tc.name: list(hosts) for tc, hosts in prev.ingresses.items()}
    ingresses = {
        tc.name: list(hosts)
        for tc, hosts in cur.ingresses.items()
        if list(hosts) != prev_ingress[tc.name]
    }
    return ProblemPatch(
        links_add=links_add,
        links_remove=links_remove,
        init_tables=init_tables,
        final_tables=final_tables,
        ingresses=ingresses,
        spec=cur.spec_text if cur.spec_text != prev.spec_text else None,
    )


# ----------------------------------------------------------------------
# the rolling onboarding fan
# ----------------------------------------------------------------------
def _fan_topology(
    groups: int, flips: int, enablers: int, *, decoy_link: bool
) -> Topology:
    topo = Topology()
    for j in range(enablers):
        topo.add_switch(f"Z{j:02d}")
    topo.add_switch("Xtail")
    for g in range(groups):
        for i in range(flips):
            flip, bypass = f"A{g:02d}x{i:02d}", f"B{g:02d}x{i:02d}"
            src, dst = f"Hs{g:02d}x{i:02d}", f"Hd{g:02d}x{i:02d}"
            topo.add_switch(flip)
            topo.add_switch(bypass)
            topo.add_host(src)
            topo.add_host(dst)
            topo.add_link(src, flip)
            topo.add_link(flip, bypass)
            topo.add_link(bypass, "Xtail")
            topo.add_link(flip, "Z00")
            topo.add_link("Xtail", dst)
    for j in range(enablers - 1):
        topo.add_link(f"Z{j:02d}", f"Z{j + 1:02d}")
    topo.add_link(f"Z{enablers - 1:02d}", "Xtail")
    # a traffic-free stub pair whose link the flap variant churns; the
    # stubs never carry rules, so they are never search units and the
    # flap stays pure topology noise
    topo.add_switch("D00")
    topo.add_switch("D01")
    if decoy_link:
        topo.add_link("D00", "D01")
    return topo


def _fan_config(
    topo: Topology,
    classes: Sequence[TrafficClass],
    flips: int,
    enablers: int,
    migrated_groups: int,
) -> Configuration:
    """The configuration with the first ``migrated_groups`` waves onboarded."""
    chain = [f"Z{j:02d}" for j in range(enablers)]
    paths: Dict[TrafficClass, List[NodeId]] = {}
    for index, tc in enumerate(classes):
        g, i = divmod(index, flips)
        flip, bypass = f"A{g:02d}x{i:02d}", f"B{g:02d}x{i:02d}"
        src, dst = f"Hs{g:02d}x{i:02d}", f"Hd{g:02d}x{i:02d}"
        if g < migrated_groups:
            paths[tc] = [src, flip, *chain, "Xtail", dst]
        else:
            paths[tc] = [src, flip, bypass, "Xtail", dst]
    return Configuration.from_paths(topo, paths)


def onboarding_fan_problems(
    groups: int, flips: int, enablers: int, *, decoy_flap: bool = False
) -> List[Problem]:
    """The step problems of one rolling onboarding fan, in stream order.

    Problem ``s`` onboards wave ``s``: its initial configuration has
    waves ``0..s-1`` on the chain (the previous step's final
    configuration), its final configuration adds wave ``s``.  With
    ``decoy_flap`` the trace also flaps an unused stub link every step,
    so the patch stream exercises topology edits on top of the rule
    churn.
    """
    if groups < 2 or flips < 1 or enablers < 1:
        raise ReproError("onboarding fan needs >= 2 waves and >= 1 flip/enabler")
    classes = [
        TrafficClass.make(f"c{g:02d}x{i:02d}", dst=f"Hd{g:02d}x{i:02d}")
        for g in range(groups)
        for i in range(flips)
    ]
    spec_text = " & ".join(
        f"({reachability_text(tc, f'Hd{tc.name[1:]}')})" for tc in classes
    )
    spec = parse(spec_text)
    problems: List[Problem] = []
    for step in range(groups):
        # the flap variant drops the decoy link on odd steps
        topo = _fan_topology(
            groups,
            flips,
            enablers,
            decoy_link=not decoy_flap or step % 2 == 0,
        )
        problems.append(
            Problem(
                topology=topo,
                ingresses={tc: [f"Hs{tc.name[1:]}"] for tc in classes},
                init=_fan_config(topo, classes, flips, enablers, step),
                final=_fan_config(topo, classes, flips, enablers, step + 1),
                spec=spec,
                spec_text=spec_text,
            )
        )
    return problems


# ----------------------------------------------------------------------
# traces and records
# ----------------------------------------------------------------------
@dataclass
class ChurnTrace:
    """One base record plus its chained delta-step records.

    ``records[0]`` is the full base problem; ``records[s]`` (``s >= 1``)
    carries both the wire patch (``record.patch`` against
    ``record.base_id``) and the fully resolved problem — exactly what the
    engine reconstructs server-side — so the cold pass of the churn bench
    and the plan-equivalence tests replay identical problems.
    """

    trace_id: str
    records: List  # List[ScenarioRecord]; untyped to avoid an import cycle

    @property
    def patches(self) -> List[ProblemPatch]:
        return [record.patch for record in self.records[1:]]


#: (tag, groups, flips, enablers, decoy_flap) per trace, full and quick
_FULL_TRACES: Tuple[Tuple[str, int, int, int, bool], ...] = (
    ("fan-g4f4e6", 4, 4, 6, False),
    ("fan-g4f6e8", 4, 6, 8, False),
    ("flap-g4f4e6", 4, 4, 6, True),
)
_QUICK_TRACES: Tuple[Tuple[str, int, int, int, bool], ...] = (
    ("fan-g3f4e6", 3, 4, 6, False),
    ("flap-g3f4e6", 3, 4, 6, True),
)


def generate_churn(quick: bool = False, base_seed: int = 0) -> List[ChurnTrace]:
    """Expand the churn suite into traces, deterministically.

    Generation is structurally deterministic; ``base_seed`` is recorded
    on the records (for provenance symmetry with the other suites) but
    does not perturb the topologies — churn hardness comes from the
    onboarding structure, not from sampling.
    """
    from repro.scenarios.corpus import ScenarioRecord, _mix, _tier

    traces: List[ChurnTrace] = []
    for tag, groups, flips, enablers, decoy_flap in (
        _QUICK_TRACES if quick else _FULL_TRACES
    ):
        template = "flap" if decoy_flap else "onboarding"
        perturbation = "linkflap" if decoy_flap else "baseline"
        targets = onboarding_fan_problems(
            groups, flips, enablers, decoy_flap=decoy_flap
        )
        # chain the resolved problems exactly as the engine will: each
        # step's problem is the patch applied to the *previous resolved*
        # problem, so fingerprints agree between the cold and delta paths
        records: List[ScenarioRecord] = []
        resolved = targets[0]
        for step, target in enumerate(targets):
            patch = None
            if step > 0:
                patch = patch_between(targets[step - 1], target)
                resolved = patch.apply_to(resolved)
            switches = len(resolved.topology.switches)
            records.append(
                ScenarioRecord(
                    scenario_id=f"churn/{tag}/{template}/{perturbation}/step{step:02d}",
                    suite="churn",
                    family="churn",
                    template=template,
                    perturbation=perturbation,
                    granularity="switch",
                    tier=_tier(switches),
                    seed=_mix(base_seed, "churn", tag, template, str(step)),
                    expected="feasible",
                    problem=resolved,
                    switches=switches,
                    updating=len(resolved.init.diff_switches(resolved.final)),
                    base_id=records[-1].scenario_id if records else None,
                    patch=patch,
                )
            )
        traces.append(ChurnTrace(trace_id=f"churn/{tag}/{template}", records=records))
    return traces


def churn_records(quick: bool = False, base_seed: int = 0) -> List:
    """The churn suite flattened to corpus records (base then steps, per
    trace, in stream order) — what ``generate_corpus("churn")`` returns
    and ``repro corpus --suite churn`` serializes."""
    return [
        record
        for trace in generate_churn(quick=quick, base_seed=base_seed)
        for record in trace.records
    ]
