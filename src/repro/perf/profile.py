"""The ``repro profile`` harness: per-phase wall-time attribution.

Runs a scenario suite (:mod:`repro.scenarios`) through the synthesizer
in-process and attributes each scenario's wall time to the phases the
search instruments in :class:`~repro.synthesis.plan.SearchStats`:

* ``labeling`` — model-checker work (full checks + incremental relabels);
* ``sat_ordering`` — the §4.2.B early-termination SAT solver;
* ``wait_removal`` — the §4.2.C post-pass;
* ``other`` — everything else (Kripke construction, search bookkeeping).

The result is a schema-versioned ``PROFILE_<suite>.json`` written next to
the ``BENCH_<suite>.json`` documents, so perf investigations can diff *where
time went*, not just how much of it.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError, SynthesisTimeout, UpdateInfeasibleError
from repro.scenarios import generate_corpus
from repro.synthesis import UpdateSynthesizer
from repro.synthesis.plan import SearchStats

#: bump on any incompatible change to the PROFILE document layout
PROFILE_SCHEMA = "repro-profile/2"

PHASES = ("labeling", "sat_ordering", "wait_removal", "other")


def _phases_of(stats: SearchStats, wall: float) -> Dict[str, float]:
    attributed = (
        stats.labeling_seconds
        + stats.sat_seconds
        + stats.wait_removal_seconds
    )
    return {
        "labeling": round(stats.labeling_seconds, 6),
        "sat_ordering": round(stats.sat_seconds, 6),
        "wait_removal": round(stats.wait_removal_seconds, 6),
        "other": round(max(wall - attributed, 0.0), 6),
    }


def run_profile(
    suite: str,
    *,
    quick: bool = False,
    base_seed: int = 0,
    timeout: Optional[float] = 120.0,
) -> Dict[str, Any]:
    """Profile every scenario of ``suite``; return the PROFILE document.

    Scenarios run serially in-process (pool scheduling would perturb the
    phase timings).
    """
    records = generate_corpus(suite, quick=quick, base_seed=base_seed)
    if not records:
        raise ReproError(f"suite {suite!r} produced no scenarios")
    rows: List[Dict[str, Any]] = []
    totals = dict.fromkeys(PHASES, 0.0)
    wall_total = 0.0
    for record in records:
        problem = record.problem
        synth = UpdateSynthesizer(problem.topology, granularity=record.granularity)
        start = time.perf_counter()
        stats: Optional[SearchStats] = None
        try:
            plan = synth.synthesize(
                problem.init,
                problem.final,
                problem.spec,
                problem.ingresses,
                timeout=timeout,
            )
            status = "done"
            stats = plan.stats
        except UpdateInfeasibleError as err:
            status = "infeasible"
            stats = getattr(err, "stats", None)
        except SynthesisTimeout as err:
            status = "timeout"
            stats = getattr(err, "stats", None)
        wall = time.perf_counter() - start
        wall_total += wall
        row: Dict[str, Any] = {
            "id": record.scenario_id,
            "status": status,
            "seconds": round(wall, 6),
        }
        if stats is not None:
            row["phases"] = _phases_of(stats, wall)
            row["model_checks"] = stats.model_checks
            for phase in PHASES:
                totals[phase] += row["phases"][phase]
        rows.append(row)
    rows.sort(key=lambda row: row["id"])
    return {
        "schema": PROFILE_SCHEMA,
        "suite": suite,
        "quick": quick,
        "base_seed": base_seed,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "totals": {
            "scenarios": len(rows),
            "wall_seconds": round(wall_total, 6),
            "phases": {phase: round(totals[phase], 6) for phase in PHASES},
        },
        "scenarios": rows,
    }


def write_profile(document: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_profile_summary(document: Dict[str, Any]) -> str:
    """A short human-readable recap of one PROFILE document."""
    totals = document.get("totals", {})
    phases = totals.get("phases", {})
    wall = totals.get("wall_seconds") or 0.0
    lines = [
        f"suite {document.get('suite')!r} (quick={document.get('quick')}, "
        f"schema {document.get('schema')})",
        f"  scenarios: {totals.get('scenarios')}  wall: {wall:.3f}s",
    ]
    for phase in PHASES:
        seconds = phases.get(phase, 0.0)
        share = (seconds / wall * 100.0) if wall else 0.0
        lines.append(f"  {phase:>12}: {seconds:8.3f}s  ({share:5.1f}%)")
    return "\n".join(lines)
