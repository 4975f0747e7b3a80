"""Delta synthesis end to end: churn-trace generation, warm-start vs cold
equivalence, the wire/CLI/bench plumbing, and the docs/API.md contract."""

import dataclasses
import inspect
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ParseError, ReproError
from repro.net.delta import ProblemPatch
from repro.net.serialize import plan_to_dict, problem_to_dict
from repro.scenarios.churn import (
    churn_records,
    generate_churn,
    onboarding_fan_problems,
    patch_between,
)
from repro.scenarios.corpus import corpus_to_jsonl, generate_corpus, write_corpus
from repro.service import ReproClient, ReproServer, SynthesisService

REPO = Path(__file__).resolve().parent.parent


def normalized_plan(plan) -> dict:
    """plan_to_dict without stats: cold and delta searches agree on the
    *plan* (granularity + command sequence); their search counters differ
    by design (that difference is the whole point)."""
    data = plan_to_dict(plan)
    data.pop("stats", None)
    return data


def run_cold(trace):
    service = SynthesisService(workers=0)
    try:
        results = []
        for record in trace.records:
            job = service.submit(record.problem, job_id=record.scenario_id)
            results.append(service.result(job.job_id))
        return results
    finally:
        service.close()


def run_delta(trace):
    service = SynthesisService(workers=0)
    try:
        job = service.submit(trace.records[0].problem)
        results = [service.result(job.job_id)]
        fingerprint = job.fingerprint
        for record in trace.records[1:]:
            job = service.submit_delta(fingerprint, record.patch)
            results.append(service.result(job.job_id))
            fingerprint = job.fingerprint
        return results
    finally:
        service.close()


class TestChurnGeneration:
    def test_generation_is_deterministic(self):
        first = corpus_to_jsonl(churn_records(quick=True))
        second = corpus_to_jsonl(churn_records(quick=True))
        assert first == second

    def test_full_and_quick_trace_shapes(self):
        full = generate_churn(quick=False)
        quick = generate_churn(quick=True)
        assert [len(t.records) for t in full] == [4, 4, 4]
        assert [len(t.records) for t in quick] == [3, 3]
        for trace in full + quick:
            assert trace.records[0].patch is None
            assert all(r.patch is not None for r in trace.records[1:])
            for prev, cur in zip(trace.records, trace.records[1:]):
                assert cur.base_id == prev.scenario_id

    def test_patch_between_reproduces_rule_churn_exactly(self):
        # no link churn in the plain fan, so the diff round-trips bit-for-bit
        targets = onboarding_fan_problems(3, 2, 3)
        for prev, cur in zip(targets, targets[1:]):
            patched = patch_between(prev, cur).apply_to(prev)
            assert problem_to_dict(patched) == problem_to_dict(cur)

    def test_flap_patches_carry_link_edits(self):
        targets = onboarding_fan_problems(3, 2, 3, decoy_flap=True)
        first = patch_between(targets[0], targets[1])
        second = patch_between(targets[1], targets[2])
        assert first.links_remove == [("D00", "D01")]
        assert [entry[:2] for entry in second.links_add] == [("D00", "D01")]
        assert first.touches_scope() and second.touches_scope()

    def test_patch_between_rejects_class_set_changes(self):
        small = onboarding_fan_problems(2, 1, 2)[0]
        big = onboarding_fan_problems(2, 2, 2)[0]
        with pytest.raises(ReproError, match="different traffic classes"):
            patch_between(small, big)

    def test_registered_suite_emits_delta_lines(self):
        records = generate_corpus("churn", quick=True)
        lines = [json.loads(line) for line in corpus_to_jsonl(records).splitlines()]
        bases = [line for line in lines if "base" not in line]
        deltas = [line for line in lines if "base" in line]
        assert len(bases) == 2 and len(deltas) == 4
        for line in deltas:
            assert "patch" in line and "classes" not in line
            assert line["meta"]["suite"] == "churn"
            ProblemPatch.from_dict(line["patch"])  # wire-parseable


class TestDeltaVsColdEquivalence:
    """The acceptance criteria: identical plans, strictly less search."""

    @pytest.fixture(scope="class")
    def passes(self):
        return [
            (trace, run_cold(trace), run_delta(trace))
            for trace in generate_churn(quick=True)
        ]

    def test_every_step_settles_done_on_both_paths(self, passes):
        for _, cold, delta in passes:
            assert all(r.status.value == "done" for r in cold)
            assert all(r.status.value == "done" for r in delta)

    def test_normalized_plans_identical_on_every_scenario(self, passes):
        for trace, cold, delta in passes:
            for record, c, d in zip(trace.records, cold, delta):
                assert normalized_plan(c.plan) == normalized_plan(d.plan), (
                    record.scenario_id
                )

    def test_delta_steps_warm_start_and_halve_model_checks(self, passes):
        for trace, cold, delta in passes:
            for record, c, d in zip(
                trace.records[1:], cold[1:], delta[1:]
            ):
                assert d.plan.stats.warm_units > 0, record.scenario_id
                assert d.plan.stats.warm_hits > 0, record.scenario_id
                # the >=2x bar of the bench gate, in deterministic units
                assert c.plan.stats.model_checks >= 2 * d.plan.stats.model_checks, (
                    record.scenario_id
                )
                assert d.plan.stats.counterexamples == 0, record.scenario_id

    def test_fingerprints_agree_between_generator_and_engine(self, passes):
        # the delta pass chains engine-resolved problems; the cold pass
        # submits the generator's resolved problems — same fingerprints
        for _, cold, delta in passes:
            assert [r.fingerprint for r in cold] == [r.fingerprint for r in delta]


class TestEngineAndClientFallbacks:
    def test_unknown_base_fingerprint_raises_keyerror(self):
        service = SynthesisService(workers=0)
        try:
            assert not service.has_base("f" * 16)
            with pytest.raises(KeyError):
                service.submit_delta("f" * 16, ProblemPatch())
        finally:
            service.close()

    def test_client_falls_back_to_cold_when_server_lacks_base(self):
        trace = generate_churn(quick=True)[0]
        base, step = trace.records[0], trace.records[1]
        with ReproServer(port=0, workers=0) as srv:
            client = ReproClient(srv.url)
            # the server never saw the base; the client holds the problem
            view = client.submit_delta(
                "deadbeef" * 8, step.patch, base_problem=base.problem
            )
            result = client.result(view.job_id, timeout=60)
            assert result.status.value == "done"
            assert problem_to_dict(step.problem) == problem_to_dict(
                step.patch.apply_to(base.problem)
            )

    def test_wire_delta_without_fallback_surfaces_404(self):
        with ReproServer(port=0, workers=0) as srv:
            client = ReproClient(srv.url)
            with pytest.raises(KeyError):
                client.submit_delta("deadbeef" * 8, ProblemPatch(), fallback=False)

    def post(self, server, body: bytes):
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return urllib.request.urlopen(request)

    def test_malformed_patch_is_400_parse_envelope(self):
        trace = generate_churn(quick=True)[0]
        with ReproServer(port=0, workers=0) as srv:
            client = ReproClient(srv.url)
            view = client.submit(trace.records[0].problem)
            client.result(view.job_id, timeout=60)
            body = json.dumps(
                {"base": view.fingerprint, "patch": {"linkz": []}}
            ).encode()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(srv, body)
            assert excinfo.value.code == 400
            envelope = json.loads(excinfo.value.read())
            assert envelope["error"]["code"] == "parse"
            assert envelope["error"]["exit_code"] == 4

    def test_inapplicable_patch_is_400_parse_envelope(self):
        trace = generate_churn(quick=True)[0]
        with ReproServer(port=0, workers=0) as srv:
            client = ReproClient(srv.url)
            view = client.submit(trace.records[0].problem)
            client.result(view.job_id, timeout=60)
            body = json.dumps(
                {
                    "base": view.fingerprint,
                    "patch": {"links_remove": [["NOPE-A", "NOPE-B"]]},
                }
            ).encode()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(srv, body)
            assert excinfo.value.code == 400
            assert json.loads(excinfo.value.read())["error"]["code"] == "parse"


class TestBatchCliDeltas:
    def test_batch_runs_a_churn_corpus_in_process(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "churn.jsonl"
        write_corpus(generate_corpus("churn", quick=True), str(path))
        assert main(["batch", str(path), "--serial", "--no-plans"]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(rows) == 6
        assert {row["status"] for row in rows} == {"done"}

    def test_batch_rejects_delta_before_its_base(self, tmp_path):
        from repro.cli import main

        records = generate_corpus("churn", quick=True)
        step = next(r for r in records if r.patch is not None)
        path = tmp_path / "orphan.jsonl"
        path.write_text(json.dumps(step.to_jobs_dict()) + "\n")
        assert main(["batch", str(path), "--serial"]) == 4  # parse error

    def test_loader_rejects_delta_without_patch_object(self, tmp_path):
        from repro.cli import _load_batch_jobs

        path = tmp_path / "bad.jsonl"
        path.write_text('{"base": "some-id", "id": "x"}\n')
        with pytest.raises(ParseError, match="'patch' object"):
            _load_batch_jobs(str(path))


class TestChurnBench:
    def test_two_pass_document_shape_and_search_gap(self):
        from repro.bench.churn import run_churn_suite

        document = run_churn_suite(quick=True)
        churn = document["totals"]["churn"]
        assert document["schema"].startswith("repro-bench/")
        assert document["suite"] == "churn"
        assert churn["traces"] == 2 and churn["delta_steps"] == 4
        assert churn["plans_match"] is True
        delta_rows = [row for row in document["scenarios"] if row["delta"]]
        assert len(delta_rows) == 4
        for row in delta_rows:
            assert row["status"] == "done" and row["cold_status"] == "done"
            assert row["warm_hits"] > 0
            # deterministic form of the >=2x gate (wall time is gated in CI)
            assert row["cold_model_checks"] >= 2 * row["model_checks"]

    def test_compare_against_missing_baseline_is_a_clear_error(self, tmp_path):
        from repro.bench.runner import load_bench

        missing = tmp_path / "BENCH_never_committed.json"
        with pytest.raises(ReproError, match="no BENCH baseline"):
            load_bench(str(missing))

    def test_committed_churn_baseline_is_loadable_and_gated(self):
        from repro.bench.runner import load_bench

        document = load_bench(str(REPO / "benchmarks/baselines/BENCH_churn.json"))
        assert document["suite"] == "churn"
        assert document["totals"]["churn"]["ok"] is True
        assert document["totals"]["churn"]["speedup_target"] == 2.0


class TestApiReferenceDoc:
    """docs/API.md must cover every wire document and live endpoint."""

    @pytest.fixture(scope="class")
    def DOC(self):
        return (REPO / "docs" / "API.md").read_text()

    def test_every_schema_document_class_is_documented(self, DOC):
        import repro.api.schema as schema

        classes = [
            name
            for name, obj in inspect.getmembers(schema, inspect.isclass)
            if dataclasses.is_dataclass(obj) and obj.__module__ == schema.__name__
        ]
        assert len(classes) >= 5  # the repro-api/1 document set
        for name in classes:
            assert name in DOC, f"docs/API.md does not mention {name}"

    def test_every_live_endpoint_is_documented(self, DOC):
        for endpoint in (
            "POST /v1/jobs",
            "GET /v1/jobs",
            "GET /v1/jobs/{id}",
            "DELETE /v1/jobs/{id}",
            "GET /v1/metrics",
            "GET /v1/cache/stats",
            "GET /v1/healthz",
        ):
            assert endpoint in DOC, f"docs/API.md does not document {endpoint}"

    def test_error_taxonomy_and_wait_semantics_are_documented(self, DOC):
        for needle in ("exit_code", "wait=", "ErrorEnvelope", "SynthesisDelta"):
            assert needle in DOC
