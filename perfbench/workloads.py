"""Seeded job generators for the three benchmark workloads.

A workload yields *traces*: lists of :class:`Step` documents that one
closed-loop client sends in order.  Two workloads send one full
``repro-api/1`` request per trace; ``churn-deltas`` sends a base request
followed by chained ``SynthesisDelta`` documents.

Each trace is built from a *key* of the workload's small finite pool; the
key fixes the problem.  ``digests.json`` records the expected verdict or
normalized-plan digest of every key, so the benchmark can check its outputs
against the plans this commit produced.  Every trace is sent to a fresh
service, so no job is served from another trace's plan-cache entry or memo
scope.  The pools are small, so every run of a given length sends nearly
the same mix of problems.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from repro.api.schema import API_VERSION
from repro.ltl.parser import parse
from repro.net.serialize import Problem, problem_to_dict
from repro.scenarios.churn import onboarding_fan_problems, patch_between
from repro.scenarios.templates import reachability_text, waypoint_text
from repro.topo.diamond import DiamondScenario, chained_diamond, ring_diamond


@dataclass
class Step:
    """One job: a request document, or a delta document whose ``base`` the
    client fills in from the previous step's response."""

    key: str  # digest key in digests.json
    document: dict
    delta: bool
    expected: str  # "done" or "infeasible"
    problem: Problem  # the resolved problem, for the plan audit


@dataclass(frozen=True)
class Workload:
    name: str
    keys: Sequence[str]  # the finite pool of trace keys
    build: Callable[[str], List[Step]]  # key -> trace
    warmup_key: str  # a small instance of the same kind, run untimed
    trace_s: float  # nominal seconds per trace, sizes the traced run


def _problem(scenario: DiamondScenario, spec_text: str) -> Problem:
    return Problem(
        topology=scenario.topology,
        ingresses={tc: list(hosts) for tc, hosts in scenario.ingresses.items()},
        init=scenario.init,
        final=scenario.final,
        spec=parse(spec_text),
        spec_text=spec_text,
    )


def _request(problem: Problem) -> dict:
    return {"api": API_VERSION, "problem": problem_to_dict(problem)}


def _single(key: str, problem: Problem, expected: str) -> List[Step]:
    return [Step(key, _request(problem), False, expected, problem)]


# ----------------------------------------------------------------------
# fig8g-waypoint: Fig 8(g) chained diamonds, waypoint spec
# ----------------------------------------------------------------------
#: 6 segments of 4 switches per arm: 7 waypoints + 48 arm switches = 55
WAYPOINT_SEGMENTS, WAYPOINT_ARM = 6, 4


def _waypoint(key: str) -> List[Step]:
    # key "w<k>" names articulation waypoint W<k>; "warm" is a 2-segment chain
    segments = 2 if key == "warm" else WAYPOINT_SEGMENTS
    way = "W1" if key == "warm" else f"W{key[1:]}"
    scenario = chained_diamond(segments, WAYPOINT_ARM, prop="waypoint")
    (tc,) = scenario.classes
    problem = _problem(scenario, waypoint_text(tc, way, "Hdst"))
    return _single(key, problem, "done")


# ----------------------------------------------------------------------
# fig8g-ring: Fig 8(g) ring-diamond reachability with seeded rewiring
# ----------------------------------------------------------------------
RING_SWITCHES = 640
RING_REWIRINGS = 4


def _ring(key: str) -> List[Step]:
    if key == "warm":
        scenario = ring_diamond(64, seed=0)
    else:
        scenario = ring_diamond(RING_SWITCHES, seed=int(key[1:]))
    (tc,) = scenario.classes
    return _single(key, _problem(scenario, reachability_text(tc, "Hdst")), "done")


# ----------------------------------------------------------------------
# churn-deltas: onboarding-fan churn traces sent as chained deltas
# ----------------------------------------------------------------------
#: the narrow band trace shapes are drawn from: waves, flips per wave,
#: enabler-chain length, and whether an unused stub link flaps every step
CHURN_GROUPS = (3, 4)
CHURN_FLIPS = (3, 5)
CHURN_ENABLERS = (6,)
CHURN_FLAP = (False, True)


def _churn_key(groups: int, flips: int, enablers: int, flap: bool) -> str:
    return f"g{groups}f{flips}e{enablers}" + ("-flap" if flap else "")


def _churn(key: str) -> List[Step]:
    groups, flips, enablers, flap = re.fullmatch(r"g(\d+)f(\d+)e(\d+)(-flap)?", key).groups()
    problems = onboarding_fan_problems(
        int(groups), int(flips), int(enablers), decoy_flap=flap is not None
    )
    steps = [Step(f"{key}/s0", _request(problems[0]), False, "done", problems[0])]
    resolved = problems[0]
    for index in range(1, len(problems)):
        patch = patch_between(problems[index - 1], problems[index])
        # the engine resolves the patch against its retained base, so the
        # audit checks the plan against the same resolved problem
        resolved = patch.apply_to(resolved)
        document = {"api": API_VERSION, "patch": patch.to_dict()}
        steps.append(Step(f"{key}/s{index}", document, True, "done", resolved))
    return steps


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig8g-waypoint",
            [f"w{k}" for k in range(1, WAYPOINT_SEGMENTS)],
            _waypoint,
            "warm",
            trace_s=1.0,
        ),
        Workload(
            "fig8g-ring",
            [f"r{seed}" for seed in range(RING_REWIRINGS)],
            _ring,
            "warm",
            trace_s=0.8,
        ),
        Workload(
            "churn-deltas",
            [
                _churn_key(g, f, e, flap)
                for g in CHURN_GROUPS
                for f in CHURN_FLIPS
                for e in CHURN_ENABLERS
                for flap in CHURN_FLAP
            ],
            _churn,
            "g2f2e2",
            trace_s=0.1,
        ),
    )
}


def traces(workload: Workload, seed: int) -> Iterator[List[Step]]:
    """The workload's endless trace stream for ``seed``: rounds of the
    whole key pool, each round in a seeded order, so every run of a given
    length draws nearly the same mix of keys.  Every key's trace is built
    before the first one is yielded and is sent again in later rounds, so
    the heap holds the same inputs from the first timed job to the last."""
    rng = random.Random(f"{workload.name}/{seed}")
    built = {key: workload.build(key) for key in workload.keys}
    while True:
        keys = list(workload.keys)
        rng.shuffle(keys)
        for key in keys:
            yield built[key]
