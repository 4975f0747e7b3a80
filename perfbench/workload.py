"""One workload run, in its own process: a closed-loop client driving an
in-process serial ``SynthesisService`` with ``repro-api/1`` documents.

``run.py`` starts this script with ``PYTHONHASHSEED`` pinned and reads the
JSON object it prints as its last line.  Each job is timed from the
request (or delta) document to the rendered response document:
``from_dict`` -> ``submit``/``submit_delta`` -> ``result`` ->
``SynthesisResponse.to_dict``.  Input generation, ``gc.collect()``, the
reference loop timed on each side of a job and the output check of each
job all run outside that window.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.plan_audit import audit_plan
from repro.api.schema import SynthesisDelta, SynthesisRequest, SynthesisResponse
from repro.service.engine import SynthesisService
from repro.service.jobs import SynthesisOptions

import tracing
from reference import reference
from workloads import WORKLOADS, Step, traces

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: a job that runs longer than this settles as ``timeout`` and counts as failed
JOB_TIMEOUT_S = 60.0


@dataclass
class Job:
    step: Step
    job_id: str
    latency: float  # seconds, request document to rendered response
    ref: float  # seconds, the mean of the reference loop before and after it
    response: Optional[dict]
    error: str = ""


def run_trace(
    steps: List[Step],
    prefix: str,
    tracer: Optional[tracing.Tracer] = None,
    more: Callable[[], bool] = lambda: True,
) -> Iterator[Job]:
    """Send a trace's documents to a fresh service in order, each after the
    previous one settled.

    A delta document gets the previous response's fingerprint as its base.
    ``more()`` is asked before every job; the trace stops when it says no.
    Each trace gets its own service, like one ``repro batch`` invocation, so
    every job meets the same heap however many jobs ran before it.  The
    reference loop timed after a job is also the one before the next.
    """
    base: Optional[str] = None
    before = reference()
    options = SynthesisOptions(timeout=JOB_TIMEOUT_S)
    with SynthesisService(workers=0, default_options=options) as service:
        for index, step in enumerate(steps):
            if not more():
                return
            job_id = f"{prefix}.{index}"
            document = dict(step.document, id=job_id)
            if step.delta:
                if base is None:
                    yield Job(step, job_id, 0.0, 0.0, None, "no base response to patch")
                    continue
                document["base"] = base
            gc.collect()
            if tracer is not None:
                tracer.job = job_id
            response, error = None, ""
            start = time.perf_counter()
            try:
                if step.delta:
                    delta = SynthesisDelta.from_dict(document)
                    job = service.submit_delta(
                        delta.base, delta.patch, options=delta.options, job_id=delta.job_id
                    )
                else:
                    request = SynthesisRequest.from_dict(document)
                    job = service.submit(
                        request.problem, options=request.options, job_id=request.job_id
                    )
                result = service.result(job.job_id)
                response = SynthesisResponse.from_result(result).to_dict()
            except Exception as err:  # noqa: BLE001 — a failed job is counted, not fatal
                error = f"{type(err).__name__}: {err}"
            latency = time.perf_counter() - start
            after = reference()
            ref, before = (before + after) / 2, after
            base = response["fingerprint"] if response is not None else None
            yield Job(step, job_id, latency, ref, response, error)


# ----------------------------------------------------------------------
# output checks (outside the timed window)
# ----------------------------------------------------------------------
def infeasible_reason(response: dict) -> str:
    match = re.match(r"\((\w+)\)", response.get("message", ""))
    return match.group(1) if match else "unknown"


def plan_digest(response: dict) -> str:
    """The normalized-plan digest: unit order plus wait positions, or the
    verdict and its reason when there is no plan."""
    if response["status"] != "done":
        return f"{response['status']}:{infeasible_reason(response)}"
    units, waits = [], []
    for position, command in enumerate(response["plan"]["commands"]):
        if command["op"] == "wait":
            waits.append(position)
        elif command["op"] == "update-class":
            units.append([command["switch"], command["class"]])
        else:
            units.append(command["switch"])
    return hashlib.sha256(json.dumps([units, waits]).encode()).hexdigest()[:16]


#: (key, digest) -> plan-audit failure; the digest fixes the plan of a key,
#: so a plan is audited once however often it comes back
AUDITED: Dict[Tuple[str, str], str] = {}


def audit(step: Step, response: dict) -> str:
    classes = {tc.name: tc for tc in step.problem.classes}
    plan = SynthesisResponse.from_dict(response, classes).plan
    codes = [d.code for d in audit_plan(step.problem, plan).diagnostics]
    return f"plan audit: {codes}" if any(code.startswith("RA2") for code in codes) else ""


def failure(job: Job, digests: Dict[str, str]) -> str:
    """Why ``job`` failed its output check, or ``""`` when it passed."""
    if job.response is None:
        return job.error or "no response"
    status = job.response["status"]
    if status != job.step.expected:
        return f"status {status} ({job.response.get('message', '')}), expected {job.step.expected}"
    digest = plan_digest(job.response)
    if digests.get(job.step.key) != digest:
        return f"digest {digest} != recorded {digests.get(job.step.key)} for {job.step.key}"
    if status == "done":
        if (job.step.key, digest) not in AUDITED:
            AUDITED[job.step.key, digest] = audit(job.step, job.response)
        return AUDITED[job.step.key, digest]
    return ""


@dataclass
class Record:
    """What the metrics need of one checked job (its response is dropped,
    so the benchmark's own heap does not grow with the run)."""

    job_id: str
    latency: float
    ref: float
    answered: bool
    failed: bool
    executed: float = 0.0  # JobResult.seconds
    cached: bool = False
    waits: int = 0
    waits_before_removal: int = 0


def settle(job: Job, digests: Dict[str, str]) -> Record:
    why = failure(job, digests)
    if why:
        print(f"check failed: {job.job_id}: {why}", file=sys.stderr)
    response = job.response
    if response is None:
        return Record(job.job_id, job.latency, job.ref, False, True)
    record = Record(
        job.job_id,
        job.latency,
        job.ref,
        True,
        bool(why),
        response["seconds"],
        response["cached"],
    )
    plan = response.get("plan")
    if plan is not None:
        record.waits = sum(1 for command in plan["commands"] if command["op"] == "wait")
        record.waits_before_removal = plan["stats"]["waits_before_removal"]
    return record


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it; the median when there are too few jobs for that."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else (len(ordered) - 1) // 2
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(records: List[Record]) -> Dict[str, float]:
    """The ``*_refs`` figures are gated; the rest is reported beside them."""
    answered = [record for record in records if record.answered]
    costs = [record.latency / record.ref for record in answered]
    latencies = [record.latency for record in answered]
    tail_refs, tail_pct = tail(costs)
    return {
        "job_p50_refs": statistics.median(costs),
        "job_tail_refs": tail_refs,
        "tail_percentile": tail_pct,
        "ref_p50_ms": statistics.median(record.ref for record in answered) * 1e3,
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail(latencies)[0] * 1e3,
        "jobs": len(latencies),
        "jobs_per_s": len(latencies) / sum(latencies),
        "waits_kept": sum(record.waits for record in records),
    }


def per_layer(untraced: List[Record], traced: List[Record], tracer: tracing.Tracer) -> Dict[str, float]:
    """Per-job layer self times (ms) and counts, and the ratios, of the
    traced run."""
    n = len(traced)
    seconds: Counter = Counter()
    counts: Counter = Counter()
    for record in traced:
        seconds.update(tracer.seconds.get(record.job_id, {}))
        counts.update(tracer.counts.get(record.job_id, {}))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    latency = sum(record.latency for record in traced)
    executed = sum(record.executed for record in traced)
    api = seconds["api.parse"] + seconds["api.render"]
    kept = sum(record.waits for record in traced)
    before = sum(record.waits_before_removal for record in traced)
    untraced_p50, traced_p50 = (
        statistics.median(record.latency / record.ref for record in side)
        for side in (untraced, traced)
    )
    out = {
        f"{span}_ms": seconds[span] * 1e3 / n
        for span in (
            "api.parse",
            "api.render",
            "service.submit",
            "service.schedule",
            "service.execute",
            "net.delta_apply",
            "net.serialize",
            "synthesis.search_self",
            "synthesis.waits",
            "sat.encode",
            "sat.solve",
            "mc.check",
            "kripke.build",
            "kripke.update",
            "perf.memo",
        )
    }
    out.update(
        {
            name: counts[name] / n
            for name in (
                "synthesis.model_checks",
                "synthesis.counterexamples",
                "synthesis.pruned_wrong",
                "synthesis.warm_hits",
                "sat.solve_calls",
                "sat.clause_literals",
                "sat.decisions",
                "sat.conflicts",
                "mc.checks",
                "perf.memo_probes",
            )
        }
    )
    out.update(
        {
            "service.overhead_ms": (latency - executed - api) * 1e3 / n,
            "service.cache_hit_ratio": ratio(sum(record.cached for record in traced), n),
            "synthesis.waits_kept": kept,
            "synthesis.waits_removed_ratio": ratio(before - kept, before),
            "perf.memo_hit_ratio": ratio(counts["perf.memo_hits"], counts["perf.memo_probes"]),
            "trace.unattributed_share": ratio(latency - sum(seconds.values()), latency),
            "trace.overhead_share": (traced_p50 - untraced_p50) / untraced_p50,
        }
    )
    return out


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--hash-seed", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != args.hash_seed:
        print(
            f"refusing to run: PYTHONHASHSEED is {os.environ.get('PYTHONHASHSEED')!r}, "
            f"expected the pinned {args.hash_seed!r}",
            file=sys.stderr,
        )
        return 3
    workload = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text()).get(workload.name, {})

    start = time.perf_counter()
    warmup = workload.build(workload.warmup_key)
    stream = traces(workload, args.seed)
    batch = [next(stream)]
    gen_s = time.perf_counter() - start

    for _ in run_trace(warmup, "warmup"):
        pass
    # the benchmark's inputs and the import-time heap move to the permanent
    # generation: the collections run between jobs then take microseconds
    # instead of ~15 ms, and the program's own collections inside a job
    # walk only what the program allocated
    gc.collect()
    gc.freeze()
    ready = {"ready_wall": time.time(), "gen_s": gen_s, "ready_ref": reference()}
    if args.setup_only:
        print(json.dumps(ready))
        return 0

    out: Dict[str, object] = {"setup": ready, "hash_seed": args.hash_seed}
    if args.trace == 0:
        records: List[Record] = []
        timed = 0.0

        def more() -> bool:
            return timed < args.seconds

        index = 0
        while more():
            steps = batch.pop() if batch else next(stream)
            for job in run_trace(steps, f"t{index}", more=more):
                timed += job.latency
                records.append(settle(job, digests))
            index += 1
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(end_to_end(records))
    else:
        # every trace twice, untraced and traced, side by side (first side
        # alternating) so host drift and warm-up hit both sides alike: the
        # per-job counts repeat exactly at a given seed and the difference
        # of the median job costs is the tracing overhead
        count = max(4, round(args.seconds / 2 / workload.trace_s))
        batch += [next(stream) for _ in range(count - 1)]
        untraced: List[Record] = []
        traced: List[Record] = []
        tracer = tracing.Tracer()
        for index, steps in enumerate(batch):
            for side in (index % 2, 1 - index % 2):
                if not side:
                    untraced += [settle(job, digests) for job in run_trace(steps, f"u{index}")]
                    continue
                uninstall, missing = tracing.install(tracer)
                try:
                    jobs = list(run_trace(steps, f"t{index}", tracer))
                finally:
                    uninstall()
                traced += [settle(job, digests) for job in jobs]
        out["layers"] = per_layer(untraced, traced, tracer)
        out["unpatched"] = missing
        records = untraced + traced
    out["attempted"] = len(records)
    out["failed"] = sum(record.failed for record in records)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
