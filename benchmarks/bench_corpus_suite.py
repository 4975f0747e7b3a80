"""The scenario-corpus smoke suite as a pytest-benchmark target.

Runs the same ``repro bench --suite smoke`` sweep the CI perf gate uses
(quick sizes under ``--quick``) and asserts the corpus coverage contract:
at least 20 scenarios spanning at least 3 topology families and 3 spec
templates, with every verdict matching the scenario's expectation.
"""

from repro.bench.runner import run_suite


def test_bench_smoke_suite(once, quick):
    document = run_suite("smoke", quick=quick)
    totals = document["totals"]
    corpus = document["corpus"]
    print()
    print(
        f"smoke suite: {totals['scenarios']} scenarios, "
        f"busy {totals['busy_seconds']:.3f}s, "
        f"model checks {totals['model_checks']}"
    )
    assert document["schema"].startswith("repro-bench/")
    assert totals["scenarios"] >= 20
    assert len(corpus["families"]) >= 3
    assert len(corpus["templates"]) >= 3
    assert totals["expected_mismatches"] == []
    assert totals["statuses"].get("error", 0) == 0
    once(run_suite, "smoke", quick=quick)
