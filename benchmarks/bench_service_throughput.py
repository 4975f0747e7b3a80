"""Batch service throughput: cold vs. warm-cache vs. parallel runs.

Builds a batch of ring-diamond problems of increasing size and pushes it
through :class:`repro.service.SynthesisService` three ways:

* **cold-serial** — empty cache, in-process execution (the baseline: what a
  loop over ``UpdateSynthesizer.synthesize`` would cost);
* **warm-serial** — the same batch resubmitted to the same service: every
  feasible job should be answered from the content-addressed plan cache;
* **cold-pool** — empty cache, multiprocessing worker pool.

Expected shape: the warm run reports a >=90% cache-hit rate and a much
lower wall time than the cold run; the pool run beats cold-serial once the
per-problem synthesis time dwarfs process-pool overhead (larger batches).

Pass ``--quick`` to shrink the workload for CI.
"""

import time

from repro.bench.report import format_table
from repro.net.serialize import Problem
from repro.service import SynthesisService, default_worker_count
from repro.topo import chained_diamond, ring_diamond


def _as_problem(scenario):
    return Problem(
        topology=scenario.topology,
        ingresses={tc: list(h) for tc, h in scenario.ingresses.items()},
        init=scenario.init,
        final=scenario.final,
        spec=scenario.spec,
        spec_text=str(scenario.spec),
    )


def _problems(quick):
    if quick:
        return [_as_problem(ring_diamond(n, seed=n)) for n in range(6, 12)]
    # chained diamonds are the heavy workload: hundreds of milliseconds of
    # synthesis each, enough to amortize worker-pool startup
    scenarios = [chained_diamond(2, length) for length in range(6, 14)]
    scenarios += [chained_diamond(3, length) for length in range(6, 14)]
    scenarios += [ring_diamond(n, seed=n) for n in (24, 32, 40, 48)]
    return [_as_problem(s) for s in scenarios]


def _run(service, problems):
    start = time.perf_counter()
    jobs = service.submit_many(problems)
    results = list(service.as_completed(job.job_id for job in jobs))
    seconds = time.perf_counter() - start
    hits = sum(1 for r in results if r.cached)
    return seconds, hits / len(results), results


def test_service_throughput(quick):
    problems = _problems(quick)

    serial = SynthesisService(workers=0)
    cold_s, cold_rate, cold_results = _run(serial, problems)
    warm_s, warm_rate, _ = _run(serial, problems)
    workers = max(2, default_worker_count())
    pool = SynthesisService(workers=workers)
    pool_s, pool_rate, _ = _run(pool, problems)

    jobs = len(problems)
    print()
    print(
        format_table(
            "Batch service throughput",
            ["mode", "jobs", "seconds", "jobs/s", "cache hit rate"],
            [
                ("cold-serial", jobs, cold_s, jobs / cold_s, cold_rate),
                ("warm-serial", jobs, warm_s, jobs / warm_s, warm_rate),
                (f"cold-pool({workers})", jobs, pool_s, jobs / pool_s, pool_rate),
            ],
        )
    )
    print("service metrics:", serial.metrics_dict())

    assert all(r.ok for r in cold_results)
    assert warm_rate >= 0.9, f"warm cache hit rate {warm_rate:.0%} below 90%"
    assert warm_s < cold_s, "warm-cache run should be faster than the cold run"
