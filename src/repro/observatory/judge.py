"""``repro judge`` — the cross-backend differential soundness judge.

Replays a scenario suite across several checker backends and demands
they *agree*: every backend must reach the same verdict (plan found /
infeasible / timeout) and, when a plan is found, the same normalized plan
(granularity + command sequence — the search is deterministic given
checker verdicts, so any divergence means a checker answered a query
wrong).  This is the multi-reviewer/judge pattern: no single backend is
trusted; the *consensus* is the oracle, and a lone dissenter is a
soundness bug surfaced before a user hits it.

Backends legitimately differ in *expressiveness* — the NetPlumber-style
backend recognizes only the ``repro.ltl.specs`` shapes and raises
:class:`~repro.errors.ModelCheckError` on anything else.  Such scenarios
count as ``unsupported`` for that backend and are excluded from the
agreement check (reported, never failed).

The judge also watches the *portfolio race*: each scenario is replayed
once with ``portfolio=<backends>`` through the batch service, and the
race's recorded winner is compared against the judge's own fair solo
timings.  A pick measurably slower than a losing backend (beyond both a
ratio and an absolute gap, so timing noise cannot flake) is flagged —
advisory, because racing is inherently scheduling-dependent, but visible,
because a systematically wrong pick wastes the whole portfolio budget.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import collect_meta
from repro.errors import (
    ModelCheckError,
    ReproError,
    SynthesisTimeout,
    UpdateInfeasibleError,
)
from repro.net.serialize import plan_to_dict
from repro.scenarios import generate_corpus, sample_records
from repro.scenarios.corpus import ScenarioRecord
from repro.synthesis import UpdateSynthesizer

#: bump on any incompatible change to the judge document layout
JUDGE_SCHEMA = "repro-judge/1"

#: the backends a bare ``repro judge`` cross-examines
DEFAULT_BACKENDS: Tuple[str, ...] = (
    "incremental",
    "batch",
    "netplumber",
    "symbolic",
)

#: a race pick is flagged only when the winner's fair solo time exceeds
#: the best backend's by BOTH this factor and this absolute gap — two
#: independent noise guards so CI timing variance cannot flake the judge
RACE_SLACK_RATIO = 1.5
RACE_MIN_GAP_SECONDS = 0.05


def _execute_one(
    record: ScenarioRecord, backend: str, *, timeout: Optional[float]
) -> Dict[str, Any]:
    """One scenario on one backend, solo and cold: the judge's testimony.

    Runs the synthesizer directly (no service, no plan
    cache) so every backend faces the identical cold search and the
    timings are comparable.  Module-level on purpose: the disagreement
    tests monkeypatch this to inject a lying backend.
    """
    problem = record.problem
    start = time.perf_counter()
    try:
        synth = UpdateSynthesizer(
            problem.topology, checker=backend, granularity=record.granularity
        )
        plan = synth.synthesize(
            problem.init,
            problem.final,
            problem.spec,
            problem.ingresses,
            timeout=timeout,
        )
    except ModelCheckError as err:
        # the backend cannot express this spec — a capability gap, not a
        # wrong answer; excluded from the agreement check
        return {
            "status": "unsupported",
            "seconds": round(time.perf_counter() - start, 6),
            "message": str(err),
        }
    except UpdateInfeasibleError as err:
        return {
            "status": "infeasible",
            "seconds": round(time.perf_counter() - start, 6),
            "reason": err.reason,
        }
    except SynthesisTimeout:
        return {
            "status": "timeout",
            "seconds": round(time.perf_counter() - start, 6),
        }
    except ReproError as err:
        return {
            "status": "error",
            "seconds": round(time.perf_counter() - start, 6),
            "message": str(err),
        }
    data = plan_to_dict(plan)
    return {
        "status": "done",
        "seconds": round(time.perf_counter() - start, 6),
        "model_checks": plan.stats.model_checks,
        "plan": {
            "granularity": data["granularity"],
            "commands": data["commands"],
        },
    }


def _judge_agreement(
    scenario_id: str, outcomes: Dict[str, Dict[str, Any]]
) -> List[str]:
    """Disagreement descriptions for one scenario (empty = consensus)."""
    disagreements: List[str] = []
    voting = {
        backend: outcome
        for backend, outcome in outcomes.items()
        if outcome["status"] != "unsupported"
    }
    if not voting:
        return disagreements
    statuses = {backend: outcome["status"] for backend, outcome in voting.items()}
    if len(set(statuses.values())) > 1:
        votes = ", ".join(
            f"{backend}={status}" for backend, status in sorted(statuses.items())
        )
        disagreements.append(f"{scenario_id}: verdict split — {votes}")
        return disagreements  # plan comparison is meaningless across verdicts
    for backend, outcome in sorted(voting.items()):
        if outcome["status"] == "error":
            disagreements.append(
                f"{scenario_id}: {backend} errored — {outcome.get('message')}"
            )
    plans = {
        backend: outcome["plan"]
        for backend, outcome in voting.items()
        if outcome["status"] == "done"
    }
    if len(plans) > 1:
        backends = sorted(plans)
        reference_backend = backends[0]
        reference = plans[reference_backend]
        for backend in backends[1:]:
            if plans[backend] != reference:
                disagreements.append(
                    f"{scenario_id}: normalized plan differs — "
                    f"{backend} vs {reference_backend}"
                )
    return disagreements


def _race_suite(
    records: Sequence[ScenarioRecord],
    backends: Sequence[str],
    *,
    timeout: Optional[float],
    workers: int = 2,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Replay every record once as a portfolio race; (picks by id, metrics).

    Runs through the batch service so the race uses the production
    portfolio path (pool racing when the environment allows a pool,
    in-order fallback otherwise).  The service's metrics — including the
    ``by_backend`` win counters and the live gauges — ride back for the
    judge document.
    """
    from repro.service import SynthesisOptions, SynthesisService

    service = SynthesisService(workers=workers)
    for record in records:
        service.submit(
            record.problem,
            job_id=record.scenario_id,
            options=SynthesisOptions(
                portfolio=tuple(backends),
                granularity=record.granularity,
                timeout=timeout,
            ),
        )
    picks: Dict[str, Dict[str, Any]] = {}
    for result in service.as_completed([r.scenario_id for r in records]):
        picks[result.job_id] = {
            "status": result.status.value,
            "winner": result.backend,
            "seconds": round(result.seconds, 6),
        }
    return picks, service.metrics_dict()


def _judge_race(
    scenario_id: str,
    pick: Optional[Dict[str, Any]],
    outcomes: Dict[str, Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Compare the race's pick against the fair solo timings."""
    if pick is None or pick.get("winner") is None:
        return None
    winner = pick["winner"]
    solo = {
        backend: outcome
        for backend, outcome in outcomes.items()
        if outcome["status"] == pick["status"]
    }
    if winner not in solo or len(solo) < 2:
        return None
    best_backend = min(solo, key=lambda backend: solo[backend]["seconds"])
    winner_seconds = solo[winner]["seconds"]
    best_seconds = solo[best_backend]["seconds"]
    flagged = (
        winner != best_backend
        and winner_seconds > best_seconds * RACE_SLACK_RATIO
        and winner_seconds - best_seconds > RACE_MIN_GAP_SECONDS
    )
    return {
        "winner": winner,
        "winner_solo_seconds": winner_seconds,
        "best_backend": best_backend,
        "best_solo_seconds": best_seconds,
        "flagged": flagged,
    }


def run_judge(
    suite: str,
    *,
    quick: bool = False,
    base_seed: int = 0,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    timeout: Optional[float] = 60.0,
    max_scenarios: Optional[int] = None,
    race: bool = True,
) -> Dict[str, Any]:
    """Judge ``suite`` across ``backends``; returns the judge document.

    ``max_scenarios`` subsamples the suite deterministically
    (:func:`repro.scenarios.sample_records`) for CI-sized runs.  The
    document's ``totals.ok`` is False exactly when some scenario's
    backends disagree on verdict or normalized plan; race flags are
    advisory and never fail the judge.
    """
    backends = tuple(backends)
    if len(backends) < 2:
        raise ReproError(
            f"judging needs at least two backends to compare, got {backends!r}"
        )
    records = sample_records(
        generate_corpus(suite, quick=quick, base_seed=base_seed), max_scenarios
    )
    if not records:
        raise ReproError(f"suite {suite!r} produced no scenarios")

    picks: Dict[str, Dict[str, Any]] = {}
    race_metrics: Optional[Dict[str, Any]] = None
    if race:
        picks, race_metrics = _race_suite(records, backends, timeout=timeout)

    rows: List[Dict[str, Any]] = []
    disagreements: List[str] = []
    race_flags: List[str] = []
    unsupported: Dict[str, int] = {}
    backend_totals: Dict[str, Dict[str, Any]] = {
        backend: {"statuses": {}, "seconds": 0.0, "model_checks": 0}
        for backend in backends
    }
    for record in records:
        outcomes = {
            backend: _execute_one(record, backend, timeout=timeout)
            for backend in backends
        }
        for backend, outcome in outcomes.items():
            totals = backend_totals[backend]
            totals["statuses"][outcome["status"]] = (
                totals["statuses"].get(outcome["status"], 0) + 1
            )
            totals["seconds"] += outcome["seconds"]
            totals["model_checks"] += outcome.get("model_checks", 0)
            if outcome["status"] == "unsupported":
                unsupported[backend] = unsupported.get(backend, 0) + 1
        scenario_disagreements = _judge_agreement(record.scenario_id, outcomes)
        disagreements.extend(scenario_disagreements)
        verdict_race = _judge_race(
            record.scenario_id, picks.get(record.scenario_id), outcomes
        )
        if verdict_race and verdict_race["flagged"]:
            race_flags.append(
                f"{record.scenario_id}: race picked {verdict_race['winner']} "
                f"({verdict_race['winner_solo_seconds']:.3f}s solo) over "
                f"{verdict_race['best_backend']} "
                f"({verdict_race['best_solo_seconds']:.3f}s solo)"
            )
        rows.append(
            {
                "id": record.scenario_id,
                "family": record.family,
                "template": record.template,
                "granularity": record.granularity,
                "expected": record.expected,
                "backends": outcomes,
                "disagreements": scenario_disagreements,
                "race": verdict_race,
            }
        )

    for totals in backend_totals.values():
        totals["seconds"] = round(totals["seconds"], 6)
    document: Dict[str, Any] = {
        "schema": JUDGE_SCHEMA,
        "suite": suite,
        "quick": quick,
        "base_seed": base_seed,
        "backends": list(backends),
        "timeout": timeout,
        "meta": collect_meta(),
        "scenarios": rows,
        "by_backend": backend_totals,
        "totals": {
            "scenarios": len(rows),
            "disagreements": disagreements,
            "race_flags": race_flags,
            "unsupported": dict(sorted(unsupported.items())),
            "ok": not disagreements,
        },
    }
    if race_metrics is not None:
        document["race_service"] = {
            "by_backend": race_metrics.get("by_backend", {}),
            "gauges": race_metrics.get("gauges", {}),
            "cache_hits": race_metrics.get("cache_hits", 0),
        }
    return document


def format_judge_summary(document: Dict[str, Any]) -> str:
    """Human-readable recap of one judge document."""
    totals = document["totals"]
    lines = [
        f"judge: suite {document.get('suite')!r} (quick={document.get('quick')}), "
        f"{totals['scenarios']} scenarios x {len(document['backends'])} backends",
        "  backend       statuses                                    "
        "solo_s   model_checks",
    ]
    for backend in document["backends"]:
        row = document["by_backend"][backend]
        statuses = ", ".join(
            f"{status}:{count}" for status, count in sorted(row["statuses"].items())
        )
        lines.append(
            f"  {backend:<12}  {statuses:<42}  {row['seconds']:>7.3f}  "
            f"{row['model_checks']:>8}"
        )
    if totals["unsupported"]:
        lines.append(f"  unsupported (excluded from consensus): {totals['unsupported']}")
    race_service = document.get("race_service")
    if race_service is not None and race_service.get("by_backend"):
        lines.append(f"  race wins by backend: {race_service['by_backend']}")
    for flag in totals["race_flags"]:
        lines.append(f"  RACE FLAG: {flag}")
    for disagreement in totals["disagreements"]:
        lines.append(f"  DISAGREEMENT: {disagreement}")
    lines.append(
        "OK: all backends agree"
        if totals["ok"]
        else f"DISAGREED: {len(totals['disagreements'])} scenario verdict/plan split(s)"
    )
    return "\n".join(lines)
