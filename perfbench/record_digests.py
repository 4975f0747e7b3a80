"""Record the expected output of every problem key into ``digests.json``.

Run from the repository root after a change that is *meant* to change
plans or verdicts::

    PYTHONPATH=src python3 perfbench/record_digests.py

Each key of each workload's pool is solved once through the same service
path the benchmark drives, and its normalized-plan digest (or verdict and
infeasibility reason) is written out.  The benchmark fails every job whose
output differs from the recorded digest.
"""

from __future__ import annotations

import json
import sys

from workload import DIGESTS, plan_digest, run_trace
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        recorded = digests[name] = {}
        for key in workload.keys:
            for job in run_trace(workload.build(key), key):
                if job.response is None:
                    print(f"{name} {job.step.key}: {job.error}", file=sys.stderr)
                    return 1
                recorded[job.step.key] = plan_digest(job.response)
        print(f"{name}: {len(recorded)} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
