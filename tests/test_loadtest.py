"""Tests for the ``repro loadtest`` harness (repro.service.loadtest) and
the plan-cache gate it relies on."""

from repro.service import ReproServer, SynthesisOptions
from repro.service.jobs import SynthesisJob
from repro.service.loadtest import LOADTEST_SCHEMA, run_loadtest
from test_server import fig1_problem


class TestPlanCacheGate:
    def test_gate_is_not_identity(self):
        # bypassing the plan cache must not change what the job *is*:
        # coalescing still keys on the same fingerprint
        on = SynthesisJob(
            job_id="a", problem=fig1_problem(),
            options=SynthesisOptions(use_plan_cache=True),
        )
        off = SynthesisJob(
            job_id="b", problem=fig1_problem(),
            options=SynthesisOptions(use_plan_cache=False),
        )
        assert on.fingerprint == off.fingerprint


class TestLoadtest:
    def test_report_schema(self):
        report = run_loadtest(suite="smoke", clients=3, rounds=2, max_jobs=6)
        assert report["schema"] == LOADTEST_SCHEMA == "repro-loadtest/1"
        assert report["ok"], report["failures"]
        assert report["self_hosted"] is True
        assert len(report["rounds"]) == 2
        for entry in report["rounds"]:
            assert entry["completed"] == report["jobs_per_round"]
            for key in (
                "latency_p50_s",
                "latency_p99_s",
                "throughput_jobs_per_s",
                "plan_cache",
            ):
                assert key in entry

    def test_targets_a_running_server(self):
        with ReproServer(port=0, workers=0) as srv:
            report = run_loadtest(
                server_url=srv.url, clients=2, rounds=1, max_jobs=2
            )
        assert report["ok"], report["failures"]
        assert report["self_hosted"] is False
        assert report["server"] == srv.url
        assert report["rounds"][0]["completed"] == 2
