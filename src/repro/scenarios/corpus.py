"""Deterministic scenario-corpus generation.

Expands a named :class:`~repro.scenarios.suites.Suite` into concrete
update-synthesis problems: topology families × spec templates ×
perturbations × size tiers.  Generation is a pure function of
``(suite, quick, base_seed)`` — per-scenario seeds are derived with CRC32
(never ``hash()``, which is salted per process), so the same inputs always
produce a byte-identical JSONL corpus.

Each record serializes to one line of the batch service's JSONL problem
format (see ``repro batch``): the problem document plus ``id``,
``granularity`` and a ``meta`` object the parsers ignore.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.ltl.parser import parse
from repro.net.delta import ProblemPatch
from repro.net.failures import fail_link, links_used
from repro.net.serialize import Problem, problem_to_dict
from repro.net.topology import Topology
from repro.scenarios import builders
from repro.scenarios.suites import Suite, get_suite
from repro.scenarios.templates import apply_template
from repro.topo.diamond import DiamondScenario

#: bump when the JSONL record layout changes
CORPUS_SCHEMA = "repro-corpus/1"


def _mix(base_seed: int, *parts: str) -> int:
    """A stable small seed from a base seed and identity strings."""
    return (zlib.crc32(":".join(parts).encode("utf-8")) ^ (base_seed * 2654435761)) & 0x7FFFFFFF


def _tier(switches: int) -> str:
    if switches < 15:
        return "tiny"
    if switches < 40:
        return "small"
    if switches < 100:
        return "medium"
    return "large"


@dataclass
class ScenarioRecord:
    """One generated problem plus the metadata the bench runner reports on.

    Churn-suite step records additionally carry ``base_id`` (the
    scenario id of the record this step edits) and ``patch`` (the
    structured edit); their JSONL line is then a **delta document** —
    ``base``/``patch`` instead of the full problem — while ``problem``
    still holds the resolved step problem for in-process replay.
    """

    scenario_id: str
    suite: str
    family: str
    template: str
    perturbation: str
    granularity: str
    tier: str
    seed: int
    expected: str  # "feasible" | "infeasible" | "unknown"
    problem: Problem
    switches: int
    updating: int
    base_id: Optional[str] = None
    patch: Optional["ProblemPatch"] = None

    def to_jobs_dict(self) -> Dict[str, Any]:
        """One line of the batch-service JSONL problem format.

        Full records serialize the whole problem document; delta records
        (``patch`` set) serialize ``{"base": <scenario id>, "patch":
        {...}}`` — the batch front-ends resolve ``base`` to the referenced
        job's fingerprint at submission time (see ``docs/API.md``).
        """
        if self.patch is not None:
            doc: Dict[str, Any] = {
                "base": self.base_id,
                "patch": self.patch.to_dict(),
            }
        else:
            doc = problem_to_dict(self.problem)
        doc["id"] = self.scenario_id
        doc["granularity"] = self.granularity
        doc["meta"] = {
            "schema": CORPUS_SCHEMA,
            "suite": self.suite,
            "family": self.family,
            "template": self.template,
            "perturbation": self.perturbation,
            "tier": self.tier,
            "seed": self.seed,
            "expected": self.expected,
            "switches": self.switches,
            "updating": self.updating,
        }
        return doc


def corpus_to_jsonl(records: Iterable[ScenarioRecord]) -> str:
    """Byte-stable JSONL: sorted keys, compact separators, one trailing NL."""
    lines = [
        json.dumps(record.to_jobs_dict(), sort_keys=True, separators=(",", ":"))
        for record in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_corpus(records: Iterable[ScenarioRecord], path: str) -> None:
    with open(path, "w") as handle:
        handle.write(corpus_to_jsonl(records))


# ----------------------------------------------------------------------
# perturbations
# ----------------------------------------------------------------------
def _fail_unused_link(scenario: DiamondScenario, seed: int) -> Optional[Topology]:
    """A topology view with one unused switch-switch link failed.

    Only links no configuration forwards across are candidates, so the
    problem stays exactly as solvable as before — the checkers simply face
    a degraded graph (the paper's §8 failure extension).
    """
    used = {frozenset(pair) for pair in links_used(scenario.topology, scenario.init)}
    used |= {frozenset(pair) for pair in links_used(scenario.topology, scenario.final)}
    candidates = sorted(
        (link.node_a, link.node_b)
        for link in scenario.topology.links
        if scenario.topology.is_switch(link.node_a)
        and scenario.topology.is_switch(link.node_b)
        and frozenset((link.node_a, link.node_b)) not in used
    )
    if not candidates:
        return None
    return fail_link(scenario.topology, candidates[seed % len(candidates)])


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _base_scenarios(
    block, params: Tuple[Any, ...], seed_for: Callable[[str], int]
) -> List[Tuple[str, Callable[[], Optional[DiamondScenario]]]]:
    """(size tag, fresh-scenario builder) pairs for one suite block.

    Builders construct a *new* scenario per call so records never share
    mutable topologies (the linkfail perturbation derives views per record).
    """
    out: List[Tuple[str, Callable[[], Optional[DiamondScenario]]]] = []
    family = block.family
    if family == "fattree":
        for k in params:
            tag = f"k{k}"
            out.append(
                (
                    tag,
                    lambda k=k, tag=tag: builders.diamond_on_topology(
                        builders.fat_tree(k), seed=seed_for(tag), name=f"fattree-{tag}"
                    ),
                )
            )
    elif family == "zoo":
        extra = params[0] if params else 0
        pool = builders.zoo_pool(extra, seed=seed_for("pool"))
        # sharing one pool topology across a tag's records is safe: the same
        # derived seed attaches the same hosts (idempotently) on every build,
        # and the linkfail perturbation works on a fail_link copy
        for index, (name, topo) in enumerate(pool):
            out.append(
                (
                    name,
                    lambda index=index, name=name, topo=topo: builders.diamond_on_topology(
                        topo, seed=seed_for(name) + index, name=name
                    ),
                )
            )
    elif family == "smallworld":
        for n in params:
            tag = f"n{n}"
            out.append(
                (tag, lambda n=n, tag=tag: builders.ring_diamond(n, seed=seed_for(tag)))
            )
    elif family == "diamond" and block.kind == "chained":
        for segments, length in params:
            tag = f"chained{segments}x{length}"
            out.append(
                (
                    tag,
                    lambda s=segments, sl=length: builders.chained_diamond_scenario(
                        s, sl, prop="chain"
                    ),
                )
            )
    elif family == "diamond" and block.kind == "double":
        for n in params:
            tag = f"double{n}"
            out.append(
                (
                    tag,
                    lambda n=n, tag=tag: builders.double_diamond_scenario(
                        n, seed=seed_for(tag)
                    ),
                )
            )
    else:
        raise ValueError(f"unknown family block {family!r}/{block.kind!r}")
    return out


def _make_record(
    suite: Suite,
    family: str,
    tag: str,
    template: str,
    perturbation: str,
    scenario: DiamondScenario,
    seed: int,
) -> Optional[ScenarioRecord]:
    spec_text = apply_template(template, scenario)
    if spec_text is None:
        return None
    topology = scenario.topology
    if perturbation == "linkfail":
        degraded = _fail_unused_link(scenario, seed)
        if degraded is None:
            return None
        topology = degraded
    granularity = "rule" if perturbation == "rulegran" else "switch"
    if granularity == "switch" and not scenario.expected_feasible:
        expected = "infeasible"
    elif granularity == "rule" and not scenario.expected_feasible:
        expected = "feasible"  # rule granularity decouples the flows (§6, Fig 8i)
    else:
        expected = "feasible"
    problem = Problem(
        topology=topology,
        ingresses={tc: list(hosts) for tc, hosts in scenario.ingresses.items()},
        init=scenario.init,
        final=scenario.final,
        spec=parse(spec_text),
        spec_text=spec_text,
    )
    switches = len(topology.switches)
    return ScenarioRecord(
        scenario_id=f"{family}/{tag}/{template}/{perturbation}",
        suite=suite.name,
        family=family,
        template=template,
        perturbation=perturbation,
        granularity=granularity,
        tier=_tier(switches),
        seed=seed,
        expected=expected,
        problem=problem,
        switches=switches,
        updating=scenario.units_updating(),
    )


def generate_corpus(
    suite: "Suite | str", quick: bool = False, base_seed: int = 0
) -> List[ScenarioRecord]:
    """Expand ``suite`` into scenario records, deterministically.

    The same ``(suite, quick, base_seed)`` triple always yields the same
    records in the same order; distinct ``base_seed`` values choose
    different diamond endpoints, rewirings, and failed links.
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    if suite.name == "churn":
        # churn is a *trace* suite — chained delta steps, not a family
        # grid — so it has its own expansion (repro.scenarios.churn)
        from repro.scenarios.churn import churn_records

        return churn_records(quick=quick, base_seed=base_seed)
    records: List[ScenarioRecord] = []
    for block in suite.blocks:
        params = block.sized_params(quick)

        def seed_for(tag: str, _family: str = block.family) -> int:
            return _mix(base_seed, suite.name, _family, block.kind, tag)

        for tag, build in _base_scenarios(block, params, seed_for):
            for template in block.templates:
                for perturbation in block.perturbations:
                    scenario = build()
                    if scenario is None:
                        continue
                    record = _make_record(
                        suite,
                        block.family,
                        tag,
                        template,
                        perturbation,
                        scenario,
                        _mix(base_seed, suite.name, block.family, tag, template, perturbation),
                    )
                    if record is not None:
                        records.append(record)
    return records


def sample_records(
    records: List[ScenarioRecord], limit: Optional[int]
) -> List[ScenarioRecord]:
    """A deterministic, diversity-preserving subsample of ``limit`` records.

    Records are ordered by scenario id and picked at an even stride, so a
    small sample still spans the suite's families and templates instead of
    exhausting one family block first.  ``limit`` of ``None`` (or anything
    at least the corpus size) returns every record; the result order is
    id-sorted either way, so callers get a stable replay order.
    """
    ordered = sorted(records, key=lambda record: record.scenario_id)
    if limit is None or limit >= len(ordered):
        return ordered
    if limit <= 0:
        raise ReproError(f"sample limit must be positive, got {limit}")
    return [ordered[(index * len(ordered)) // limit] for index in range(limit)]


def corpus_summary(records: List[ScenarioRecord]) -> Dict[str, Any]:
    """Coverage counters (families/templates/tiers) for reports and tests."""

    def count_by(key: Callable[[ScenarioRecord], str]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in records:
            out[key(record)] = out.get(key(record), 0) + 1
        return dict(sorted(out.items()))

    return {
        "scenarios": len(records),
        "families": count_by(lambda r: r.family),
        "templates": count_by(lambda r: r.template),
        "perturbations": count_by(lambda r: r.perturbation),
        "tiers": count_by(lambda r: r.tier),
        "granularities": count_by(lambda r: r.granularity),
    }
