#!/usr/bin/env python3
"""Diff two `repro batch` JSONL result streams for semantic equality.

Used by the CI ``server-smoke`` job to assert that a batch routed through
``repro batch --server`` (the HTTP thin client against ``repro serve``)
produces the same verdicts and plans as an in-process run.

Records are keyed by job id; volatile fields that legitimately differ
between runs are normalized away before comparison:

* ``seconds`` / ``cached`` / ``backend`` — timing, cache temperature and
  portfolio-race winners are run-specific;
* ``message`` — may carry coalescing attribution ("coalesced with ...");
* plan ``stats`` — timings and search counters vary with scheduling order
  and warm starts; the plan's *content* (granularity + command sequence)
  is what must match.

Exit status: 0 when equivalent, 1 on any mismatch (differences printed).

Usage::

    python tools/diff_batch_jsonl.py LOCAL.jsonl REMOTE.jsonl
    python tools/diff_batch_jsonl.py A.jsonl B.jsonl --expect-cached

``--expect-cached`` additionally requires every ``done`` record of the
*second* file to be a plan-cache hit (``cached: true``) — how CI asserts
that a repeat batch against a warm server never re-synthesizes a plan.
(Failure verdicts are never cached, so non-``done`` records are exempt.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict


def load_records(path: str) -> Dict[str, Dict[str, Any]]:
    records: Dict[str, Dict[str, Any]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{lineno}: bad JSON: {err}") from err
            job_id = record.get("id", f"line-{lineno}")
            if job_id in records:
                raise SystemExit(f"{path}:{lineno}: duplicate job id {job_id!r}")
            records[job_id] = record
    return records


def normalize(record: Dict[str, Any]) -> Dict[str, Any]:
    out = {
        "id": record.get("id"),
        "status": record.get("status"),
        "fingerprint": record.get("fingerprint"),
    }
    plan = record.get("plan")
    if plan is not None:
        out["plan"] = {
            "granularity": plan.get("granularity"),
            "commands": plan.get("commands"),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="reference JSONL (e.g. in-process run)")
    parser.add_argument("candidate", help="JSONL to compare (e.g. --server run)")
    parser.add_argument(
        "--expect-cached",
        action="store_true",
        help="require every candidate record to be a plan-cache hit",
    )
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    candidate = load_records(args.candidate)
    failures = 0

    for job_id in sorted(set(baseline) | set(candidate)):
        if job_id not in baseline:
            print(f"MISMATCH {job_id}: only in {args.candidate}")
            failures += 1
            continue
        if job_id not in candidate:
            print(f"MISMATCH {job_id}: only in {args.baseline}")
            failures += 1
            continue
        left = normalize(baseline[job_id])
        right = normalize(candidate[job_id])
        if left != right:
            print(f"MISMATCH {job_id}:")
            print(f"  {args.baseline}: {json.dumps(left, sort_keys=True)[:400]}")
            print(f"  {args.candidate}: {json.dumps(right, sort_keys=True)[:400]}")
            failures += 1
        if (
            args.expect_cached
            and candidate[job_id].get("status") == "done"
            and not candidate[job_id].get("cached", False)
        ):
            print(f"NOT CACHED {job_id}: expected a warm-cache hit")
            failures += 1

    if failures:
        print(f"FAIL: {failures} difference(s) across {len(baseline)} records")
        return 1
    print(
        f"OK: {len(baseline)} records equivalent"
        + (" (all cached)" if args.expect_cached else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
