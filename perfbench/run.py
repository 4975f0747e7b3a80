"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig8g-waypoint --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in its own process
(``workload.py``) with ``PYTHONHASHSEED`` derived from the workload name
alone, because the hash seed sets the literal order of the SAT encoding and
so the solver's work: runs with different seeds then differ only in the
order their problems are sent.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced run.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is run metadata (hash seed, the median and tail
latency in ms with the tail percentile and job count, the raw set-up
times, a host-noise probe) that is reported but not gated.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, Tuple

from reference import NOMINAL_S, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: set-up is measured in this many extra processes before the workload's
#: own and as many after it, so the median spans the run's host speeds
SETUP_PROBES = 4
#: the whole run must end well inside three minutes
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "job_p50_refs": "refs",
    "job_tail_refs": "refs",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def hash_seed(workload: str) -> str:
    return str(zlib.crc32(workload.encode()))


def spin() -> float:
    """Milliseconds for a fixed pure-Python loop: a host-noise probe."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def run_child(
    args: argparse.Namespace, extra: List[str], deadline: float
) -> Tuple[dict, float, float]:
    """Run ``workload.py`` once; returns its result, its set-up seconds
    (process start to the first timed job, minus input generation) and the
    mean reference-loop time just before the start and at the first job."""
    pinned = hash_seed(args.workload)
    command = [
        sys.executable,
        str(BENCH / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--hash-seed", pinned,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED=pinned, PYTHONPATH=str(SRC))
    before = reference()
    spawned = time.time()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"workload process timed out: {' '.join(command)}") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(command)}")
    result = json.loads(lines[-1])
    ready = result.get("setup", result)
    setup = ready["ready_wall"] - spawned - ready["gen_s"]
    return result, setup, (before + ready["ready_ref"]) / 2


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, help="a workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # one CPU for this process and the workload processes it starts: the
    # client and the service's scheduler thread take turns on it, and the
    # reference loop runs where the job ran (the vCPUs of a shared VM change
    # speed independently)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # compile once up front so no measured process pays for .pyc writes
    for directory in (SRC, BENCH):
        if not compileall.compile_dir(str(directory), quiet=1):
            print(f"perfbench: could not compile {directory}", file=sys.stderr)
            return 2

    noise_start = spin()
    probes = SETUP_PROBES if args.trace == 0 else 0
    try:
        runs = [run_child(args, ["--setup-only"], deadline) for _ in range(probes)]
        runs.append(run_child(args, [], deadline))
        result = runs[-1][0]
        runs += [run_child(args, ["--setup-only"], deadline) for _ in range(probes)]
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    noise_end = spin()

    if args.trace:
        metrics = {name: metric(value, layer_unit(name)) for name, value in result["layers"].items()}
    else:
        # set-up seconds on a host that runs the reference loop in NOMINAL_S
        scaled = statistics.median(setup / ref for _, setup, ref in runs) * NOMINAL_S
        metrics = {"setup_s": metric(scaled, "s")}
        metrics.update({name: metric(result[name], unit) for name, unit in END_TO_END_UNITS.items()})
    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": result["hash_seed"],
        "failed_share": failed / attempted,
        "noise_probe_ms": {"start": noise_start, "end": noise_end},
    }
    if args.trace:
        meta["unpatched"] = result["unpatched"]
    else:
        meta.update(
            {
                name: result[name]
                for name in (
                    "tail_percentile",
                    "ref_p50_ms",
                    "job_p50_ms",
                    "job_tail_ms",
                    "jobs",
                    "jobs_per_s",
                    "waits_kept",
                )
            },
            setup_samples_s=[setup for _, setup, _ in runs],
        )
    for name, entry in metrics.items():
        print(f"{name:32} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
