"""``repro report`` — trend tables and regression verdicts from a history.

Reads a ``repro-bench-history/1`` trajectory (:mod:`.history`) and builds
a ``repro-report/1`` document:

* **runs** — one row per recorded run: provenance, status counts,
  wall/busy seconds and the plan-cache hit rate;
* **trends** — per-scenario seconds across runs, and per-family scaling
  (busy seconds / model checks / mean seconds per scenario per run);
* **regressions** — :func:`repro.bench.runner.compare_runs` between a
  chosen *anchor* run and the latest run, with the same noise floor the
  CI bench gate uses.  ``ok`` is False exactly when that comparison
  regressed, and the CLI exits non-zero on it.

The anchor defaults to the oldest run; ``--anchor N`` picks by index
(negative counts from the end) and ``--anchor-sha`` picks the most recent
run of a given commit, so "did my branch regress against main's nightly?"
is one flag.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.runner import MIN_COMPARE_SECONDS, compare_runs
from repro.errors import ReproError

#: bump on any incompatible change to the report document layout
REPORT_SCHEMA = "repro-report/1"

#: fields that must match between anchor and latest for a comparison to
#: measure *code*, not configuration; mismatches become warning notes
_CONFIG_FIELDS = ("suite", "quick", "base_seed", "options")


def resolve_anchor(
    entries: List[Dict[str, Any]],
    *,
    anchor: int = 0,
    anchor_sha: Optional[str] = None,
) -> int:
    """The index of the anchor run in ``entries`` (oldest first)."""
    if anchor_sha is not None:
        for index in range(len(entries) - 1, -1, -1):
            sha = entries[index].get("git_sha") or ""
            if sha.startswith(anchor_sha):
                return index
        raise ReproError(f"no run with git sha {anchor_sha!r} in history")
    if not -len(entries) <= anchor < len(entries):
        raise ReproError(
            f"anchor {anchor} out of range for {len(entries)} recorded runs"
        )
    return anchor % len(entries)


def _run_row(index: int, entry: Dict[str, Any]) -> Dict[str, Any]:
    bench = entry["bench"]
    totals = bench.get("totals", {})
    rows = bench.get("scenarios", [])
    scenarios = totals.get("scenarios", len(rows))
    return {
        "index": index,
        "recorded_at": entry.get("recorded_at"),
        "git_sha": entry.get("git_sha"),
        "hostname": entry.get("hostname"),
        "suite": entry.get("suite"),
        "quick": entry.get("quick"),
        "options": entry.get("options", {}),
        "scenarios": scenarios,
        "statuses": totals.get("statuses", {}),
        "expected_mismatches": totals.get("expected_mismatches", []),
        "wall_seconds": totals.get("wall_seconds"),
        "busy_seconds": totals.get("busy_seconds"),
        "model_checks": totals.get("model_checks"),
        "cache_hit_rate": round(
            totals.get("cache_hits", 0) / scenarios if scenarios else 0.0, 4
        ),
    }


def _scenario_trends(
    entries: List[Dict[str, Any]]
) -> Dict[str, Dict[str, List[Any]]]:
    """Per-scenario ``seconds`` / ``status`` series, one slot per run."""
    ids: List[str] = []
    seen = set()
    for entry in entries:
        for row in entry["bench"].get("scenarios", []):
            if row["id"] not in seen:
                seen.add(row["id"])
                ids.append(row["id"])
    trends: Dict[str, Dict[str, List[Any]]] = {
        sid: {"seconds": [], "status": []} for sid in sorted(ids)
    }
    for entry in entries:
        by_id = {row["id"]: row for row in entry["bench"].get("scenarios", [])}
        for sid, series in trends.items():
            row = by_id.get(sid)
            series["seconds"].append(
                round(float(row["seconds"]), 6) if row else None
            )
            series["status"].append(row["status"] if row else None)
    return trends


def _family_trends(
    entries: List[Dict[str, Any]]
) -> Dict[str, Dict[str, List[Any]]]:
    """Per-family scaling: scenarios / busy seconds / model checks per run."""
    families = sorted(
        {
            row.get("family", "?")
            for entry in entries
            for row in entry["bench"].get("scenarios", [])
        }
    )
    trends: Dict[str, Dict[str, List[Any]]] = {
        family: {
            "scenarios": [],
            "busy_seconds": [],
            "model_checks": [],
            "mean_seconds": [],
        }
        for family in families
    }
    for entry in entries:
        rows = entry["bench"].get("scenarios", [])
        for family, series in trends.items():
            mine = [row for row in rows if row.get("family", "?") == family]
            busy = sum(float(row.get("seconds", 0.0)) for row in mine)
            series["scenarios"].append(len(mine))
            series["busy_seconds"].append(round(busy, 6))
            series["model_checks"].append(
                sum(row.get("model_checks", 0) for row in mine)
            )
            series["mean_seconds"].append(
                round(busy / len(mine), 6) if mine else None
            )
    return trends


def build_report(
    entries: List[Dict[str, Any]],
    *,
    anchor: int = 0,
    anchor_sha: Optional[str] = None,
    threshold: float = 2.0,
    min_seconds: float = MIN_COMPARE_SECONDS,
) -> Dict[str, Any]:
    """Build the ``repro-report/1`` document from history ``entries``.

    ``entries`` come from :func:`.history.load_history` (oldest first).
    With a single recorded run the trends still render and the regression
    block is vacuously ok; from two runs on, the anchor-vs-latest
    comparison decides the document's ``ok``.
    """
    if not entries:
        raise ReproError("history holds no runs to report on")
    anchor_index = resolve_anchor(entries, anchor=anchor, anchor_sha=anchor_sha)
    latest_index = len(entries) - 1
    runs = [_run_row(index, entry) for index, entry in enumerate(entries)]

    notes: List[str] = []
    anchor_entry, latest_entry = entries[anchor_index], entries[latest_index]
    for field in _CONFIG_FIELDS:
        if anchor_entry.get(field) != latest_entry.get(field):
            notes.append(
                f"anchor/latest configuration differs on {field}: "
                f"{anchor_entry.get(field)!r} vs {latest_entry.get(field)!r}"
            )
    if anchor_entry.get("hostname") != latest_entry.get("hostname"):
        notes.append(
            "anchor and latest ran on different hosts — wall-clock ratios "
            "measure hardware as much as code"
        )

    if anchor_index == latest_index:
        regressions: Dict[str, Any] = {
            "anchor": anchor_index,
            "latest": latest_index,
            "ok": True,
            "regressions": [],
            "notes": notes + ["single run: nothing to compare against yet"],
            "median_speedup": None,
        }
    else:
        comparison = compare_runs(
            anchor_entry["bench"],
            latest_entry["bench"],
            threshold=threshold,
            min_seconds=min_seconds,
        )
        regressions = {
            "anchor": anchor_index,
            "latest": latest_index,
            "ok": comparison.ok,
            "regressions": comparison.regressions,
            "notes": notes + comparison.notes,
            "median_speedup": comparison.median_speedup,
        }

    return {
        "schema": REPORT_SCHEMA,
        "suite": latest_entry.get("suite"),
        "runs": runs,
        "threshold": threshold,
        "min_seconds": min_seconds,
        "trends": {
            "scenarios": _scenario_trends(entries),
            "families": _family_trends(entries),
        },
        "regressions": regressions,
        "ok": regressions["ok"],
    }


def _short_sha(sha: Optional[str]) -> str:
    return (sha or "-")[:9]


def format_report(document: Dict[str, Any], *, slowest: int = 8) -> str:
    """Human-readable trend tables + regression summary for one report."""
    runs = document["runs"]
    regressions = document["regressions"]
    lines = [
        f"bench history: {len(runs)} run(s) of suite "
        f"{document.get('suite')!r} (schema {document.get('schema')})",
        "  run  recorded             git        scen  busy_s    wall_s"
        "    cache  statuses",
    ]
    for run in runs:
        mark = (
            "a" if run["index"] == regressions["anchor"] else " "
        ) + ("*" if run["index"] == regressions["latest"] else " ")
        lines.append(
            f"  {mark}{run['index']:>2}  {str(run['recorded_at'] or '-'):<20} "
            f"{_short_sha(run['git_sha']):<9}  {run['scenarios']:>4}  "
            f"{run['busy_seconds'] or 0.0:>7.3f}  {run['wall_seconds'] or 0.0:>7.3f}"
            f"  {run['cache_hit_rate']:>5.2f}  {run['statuses']}"
        )

    families = document["trends"]["families"]
    if families:
        lines.append("per-family mean seconds per scenario (anchor -> latest):")
        a, z = regressions["anchor"], regressions["latest"]
        for family, series in sorted(families.items()):
            first, last = series["mean_seconds"][a], series["mean_seconds"][z]
            if first is None or last is None:
                continue
            ratio = last / first if first > 0 else float("inf")
            lines.append(
                f"  {family:<12} {first:8.4f}s -> {last:8.4f}s "
                f"({ratio:5.2f}x over {series['scenarios'][z]} scenarios, "
                f"mc {series['model_checks'][a]} -> {series['model_checks'][z]})"
            )

    trends = document["trends"]["scenarios"]
    a, z = regressions["anchor"], regressions["latest"]
    timed = [
        (sid, series)
        for sid, series in trends.items()
        if series["seconds"][z] is not None
    ]
    timed.sort(key=lambda item: -(item[1]["seconds"][z] or 0.0))
    if timed:
        lines.append("slowest scenarios, latest run (anchor -> latest):")
        for sid, series in timed[:slowest]:
            first, last = series["seconds"][a], series["seconds"][z]
            first_text = f"{first:8.3f}s" if first is not None else "       —"
            lines.append(
                f"  {first_text} -> {last:8.3f}s  "
                f"{series['status'][z]:<10} {sid}"
            )

    lines.append(
        f"regression summary: run {regressions['anchor']} (anchor) vs "
        f"run {regressions['latest']} (latest), threshold "
        f"{document['threshold']}x, floor {document['min_seconds']}s"
    )
    for note in regressions["notes"]:
        lines.append(f"  note: {note}")
    for regression in regressions["regressions"]:
        lines.append(f"  REGRESSION: {regression}")
    lines.append("OK" if document["ok"] else "REGRESSED")
    return "\n".join(lines)
