"""The ``repro bench`` regression harness.

Runs a named scenario suite (:mod:`repro.scenarios`) through the batch
:class:`~repro.service.engine.SynthesisService` and writes a
schema-versioned, machine-readable benchmark document
(``BENCH_<suite>.json``): per-scenario wall time, model-checker calls,
cache hits, and plan shape, plus service-level totals.

:func:`compare_runs` diffs two such documents and flags regressions —
per-scenario slowdowns beyond a threshold, model-checking work blow-ups,
status flips, and scenarios that disappeared — so CI can gate on a
committed baseline (see the ``bench-smoke`` workflow job).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from repro.errors import ParseError, ReproError
from repro.scenarios import corpus_summary, generate_corpus
from repro.service import SynthesisOptions, SynthesisService

#: bump on any incompatible change to the BENCH document layout
BENCH_SCHEMA = "repro-bench/1"

#: per-scenario times below this floor are treated as noise when comparing
MIN_COMPARE_SECONDS = 0.02

#: timing-resolution floor for the (informational) median-speedup metric:
#: scenarios where both runs are below it are excluded as signal-free
SPEEDUP_FLOOR_SECONDS = 0.0005


def collect_meta() -> Dict[str, Any]:
    """Provenance stamped into every ``repro-bench/1`` document.

    ``generated_at`` is UTC (ISO 8601, second resolution); ``git_sha`` is
    the full HEAD commit of the working tree the run executed in (``None``
    outside a git checkout); ``hostname`` identifies the machine, which
    matters because cross-machine wall-clock comparisons measure hardware,
    not code.
    """
    sha: Optional[str] = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "generated_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": sha,
        "hostname": platform.node(),
    }


def run_suite(
    suite: str,
    *,
    quick: bool = False,
    base_seed: int = 0,
    timeout: Optional[float] = 120.0,
    checker: str = "incremental",
) -> Dict[str, Any]:
    """Execute every scenario of ``suite`` and return the BENCH document."""
    records = generate_corpus(suite, quick=quick, base_seed=base_seed)
    if not records:
        raise ReproError(f"suite {suite!r} produced no scenarios")
    by_id = {record.scenario_id: record for record in records}
    service = SynthesisService()
    for record in records:
        service.submit(
            record.problem,
            job_id=record.scenario_id,
            options=SynthesisOptions(
                checker=checker,
                granularity=record.granularity,
                timeout=timeout,
            ),
        )
    start = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    for result in service.as_completed([r.scenario_id for r in records]):
        record = by_id[result.job_id]
        row: Dict[str, Any] = {
            "id": record.scenario_id,
            "family": record.family,
            "template": record.template,
            "perturbation": record.perturbation,
            "granularity": record.granularity,
            "tier": record.tier,
            "switches": record.switches,
            "updating": record.updating,
            "expected": record.expected,
            "status": result.status.value,
            "seconds": round(result.seconds, 6),
            "cached": result.cached,
        }
        if result.backend:
            row["backend"] = result.backend
        if result.plan is not None:
            stats = result.plan.stats
            row.update(
                model_checks=stats.model_checks,
                counterexamples=stats.counterexamples,
                backtracks=stats.backtracks,
                plan_commands=len(result.plan),
                plan_updates=result.plan.num_updates(),
                plan_waits=result.plan.num_waits(),
            )
        rows.append(row)
    wall = time.perf_counter() - start
    rows.sort(key=lambda row: row["id"])

    statuses: Dict[str, int] = {}
    for row in rows:
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    mismatches = [
        row["id"]
        for row in rows
        if (row["expected"] == "feasible" and row["status"] not in ("done",))
        or (row["expected"] == "infeasible" and row["status"] != "infeasible")
    ]
    document = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "quick": quick,
        "base_seed": base_seed,
        "checker": checker,
        "meta": collect_meta(),
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "corpus": corpus_summary(records),
        "totals": {
            "scenarios": len(rows),
            "statuses": dict(sorted(statuses.items())),
            "expected_mismatches": mismatches,
            "wall_seconds": round(wall, 6),
            "busy_seconds": round(sum(row["seconds"] for row in rows), 6),
            "cache_hits": sum(1 for row in rows if row["cached"]),
            "model_checks": sum(row.get("model_checks", 0) for row in rows),
        },
        "service": service.metrics_dict(),
        "scenarios": rows,
    }
    return document


def write_bench(document: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, Any]:
    if not os.path.exists(path):
        # the common CI mistake — comparing against a baseline nobody has
        # committed yet — deserves a recipe, not a stack trace
        raise ReproError(
            f"no BENCH baseline at {path} — generate one with "
            f"`repro bench --suite <name> --out {path}` and commit it"
        )
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as err:
        raise ParseError(f"{path}: cannot read BENCH document: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: bad JSON: {err}") from err
    schema = document.get("schema", "") if isinstance(document, dict) else ""
    if not str(schema).startswith("repro-bench/"):
        raise ReproError(f"{path}: not a BENCH document (schema={schema!r})")
    return document


@dataclass
class Comparison:
    """The verdict of diffing a current BENCH run against a baseline.

    ``median_speedup`` is the median over matched scenarios of
    ``baseline_seconds / current_seconds`` — above 1.0 means the current
    run is faster.  It is informational (never a regression by itself) and
    is how perf PRs demonstrate their wins against the committed baseline.
    """

    regressions: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    median_speedup: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "regressions": self.regressions,
            "notes": self.notes,
            "median_speedup": self.median_speedup,
        }


def compare_runs(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    *,
    threshold: float = 2.0,
    min_seconds: float = MIN_COMPARE_SECONDS,
) -> Comparison:
    """Flag scenarios where ``current`` regressed beyond ``threshold``.

    A regression is: a per-scenario (or total) wall-time ratio above
    ``threshold`` once both sides are floored at ``min_seconds`` (sub-floor
    timings are measurement noise); a model-checker-call blow-up beyond the
    same factor; a status flip; or a baseline scenario missing from the
    current run.  New scenarios are reported as notes, not failures.
    """
    if threshold <= 1.0:
        raise ReproError(f"threshold must exceed 1.0, got {threshold}")
    comparison = Comparison()
    base_rows = {row["id"]: row for row in baseline.get("scenarios", [])}
    cur_rows = {row["id"]: row for row in current.get("scenarios", [])}

    # Median speedup over *informative* rows only: matching status, and at
    # least one side above the timing-resolution floor (rows where both
    # sides are sub-floor carry no signal and would dilute the median with
    # fake 1.0x entries; a zero-second row must never mint a 1e9x ratio).
    # Same-machine comparisons only — cross-machine ratios measure hardware.
    ratios = []
    for sid in set(base_rows) & set(cur_rows):
        base_row, cur_row = base_rows[sid], cur_rows[sid]
        if base_row.get("status") != cur_row.get("status"):
            continue
        base_s = float(base_row.get("seconds", 0.0))
        cur_s = float(cur_row.get("seconds", 0.0))
        if base_s < SPEEDUP_FLOOR_SECONDS and cur_s < SPEEDUP_FLOOR_SECONDS:
            continue
        ratios.append(
            max(base_s, SPEEDUP_FLOOR_SECONDS) / max(cur_s, SPEEDUP_FLOOR_SECONDS)
        )
    ratios.sort()
    if ratios:
        mid = len(ratios) // 2
        median = (
            ratios[mid]
            if len(ratios) % 2
            else (ratios[mid - 1] + ratios[mid]) / 2.0
        )
        comparison.median_speedup = round(median, 4)
        comparison.notes.append(
            f"median per-scenario speedup {median:.2f}x vs baseline "
            f"(over {len(ratios)} timed scenarios)"
        )

    for scenario_id in sorted(set(base_rows) - set(cur_rows)):
        comparison.regressions.append(f"{scenario_id}: missing from current run")
    for scenario_id in sorted(set(cur_rows) - set(base_rows)):
        comparison.notes.append(f"{scenario_id}: new scenario (no baseline)")

    for scenario_id in sorted(set(base_rows) & set(cur_rows)):
        base, cur = base_rows[scenario_id], cur_rows[scenario_id]
        if base["status"] != cur["status"]:
            comparison.regressions.append(
                f"{scenario_id}: status changed {base['status']} -> {cur['status']}"
            )
            continue
        base_s = max(float(base.get("seconds", 0.0)), min_seconds)
        cur_s = max(float(cur.get("seconds", 0.0)), min_seconds)
        if cur_s > base_s * threshold:
            comparison.regressions.append(
                f"{scenario_id}: {cur_s / base_s:.2f}x slower "
                f"({base_s:.3f}s -> {cur_s:.3f}s)"
            )
        base_mc, cur_mc = base.get("model_checks"), cur.get("model_checks")
        if base_mc and cur_mc and cur_mc > max(base_mc, 10) * threshold:
            comparison.regressions.append(
                f"{scenario_id}: model checks {base_mc} -> {cur_mc} "
                f"({cur_mc / base_mc:.2f}x)"
            )

    base_total = max(
        float(baseline.get("totals", {}).get("busy_seconds", 0.0)), min_seconds
    )
    cur_total = max(
        float(current.get("totals", {}).get("busy_seconds", 0.0)), min_seconds
    )
    if cur_total > base_total * threshold:
        comparison.regressions.append(
            f"TOTAL: {cur_total / base_total:.2f}x slower "
            f"({base_total:.3f}s -> {cur_total:.3f}s)"
        )
    else:
        comparison.notes.append(
            f"total busy seconds {base_total:.3f} -> {cur_total:.3f} "
            f"({cur_total / base_total:.2f}x, threshold {threshold}x)"
        )
    return comparison


def format_bench_summary(document: Dict[str, Any]) -> str:
    """A short human-readable recap of one BENCH document."""
    totals = document.get("totals", {})
    corpus = document.get("corpus", {})
    lines = [
        f"suite {document.get('suite')!r} (quick={document.get('quick')}, "
        f"checker={document.get('checker')}, schema {document.get('schema')})",
        f"  scenarios: {totals.get('scenarios')}  "
        f"families: {corpus.get('families')}",
        f"  templates: {corpus.get('templates')}",
        f"  statuses: {totals.get('statuses')}  "
        f"cache hits: {totals.get('cache_hits')}",
        f"  busy {totals.get('busy_seconds')}s, wall {totals.get('wall_seconds')}s, "
        f"model checks {totals.get('model_checks')}",
    ]
    mismatches = totals.get("expected_mismatches") or []
    if mismatches:
        lines.append(f"  UNEXPECTED verdicts: {', '.join(mismatches)}")
    slowest = sorted(
        document.get("scenarios", []), key=lambda row: -row.get("seconds", 0.0)
    )[:5]
    for row in slowest:
        lines.append(
            f"  {row['seconds']:8.3f}s  {row['status']:10} "
            f"mc={row.get('model_checks', '-'):>5}  {row['id']}"
        )
    return "\n".join(lines)
