"""Client↔server integration tests: the ``repro-api/1`` HTTP front-end
(repro.service.server) driven through the thin client
(repro.service.client), checked against the in-process scheduler."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import API_VERSION, SynthesisRequest
from repro.ltl.parser import parse
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.serialize import Problem, plan_to_dict
from repro.service import (
    JobStatus,
    ReproClient,
    ReproServer,
    SynthesisOptions,
    SynthesisService,
)
from repro.topo import mini_datacenter

TC = TrafficClass.make("h1_to_h3", src="H1", dst="H3")
SPEC = "dst=H3 => F at(H3)"


def fig1_problem() -> Problem:
    topo = mini_datacenter()
    red = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
    green = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
    return Problem(
        topology=topo,
        ingresses={TC: ["H1"]},
        init=Configuration.from_paths(topo, {TC: red}),
        final=Configuration.from_paths(topo, {TC: green}),
        spec=parse(SPEC),
        spec_text=SPEC,
    )


BLOCKER_TC = TrafficClass.make("blocker", src="H1", dst="H3")


def blocker_problem() -> Problem:
    """Same shape as fig1, but its class name marks it for the gate."""
    topo = mini_datacenter()
    red = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
    green = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
    return Problem(
        topology=topo,
        ingresses={BLOCKER_TC: ["H1"]},
        init=Configuration.from_paths(topo, {BLOCKER_TC: red}),
        final=Configuration.from_paths(topo, {BLOCKER_TC: green}),
        spec=parse(SPEC),
        spec_text=SPEC,
    )


def normalized_plan(plan) -> dict:
    """plan_to_dict with run-specific timing stats zeroed (search counters
    stay — those must match between remote and in-process runs)."""
    data = plan_to_dict(plan)
    for key in list(data["stats"]):
        if key.endswith("_seconds"):
            data["stats"][key] = 0.0
    return data


def smoke_subset(count=4):
    from repro.scenarios import generate_corpus

    records = [
        record
        for record in generate_corpus("smoke", quick=True)
        if record.expected == "feasible"
    ]
    return records[:count]


@pytest.fixture()
def server():
    with ReproServer(port=0) as srv:
        yield srv


@pytest.fixture()
def gated_server(monkeypatch):
    """A serial server whose scheduler blocks on :func:`blocker_problem`
    executions until the gate is set — the deterministic way to keep later
    submissions queued (every real scenario solves in milliseconds)."""
    import repro.service.engine as engine_module

    gate = threading.Event()
    original = engine_module._execute_problem

    def gated(job, *args):
        if any(tc.name == "blocker" for tc in job.problem.ingresses):
            gate.wait(timeout=60)
        return original(job, *args)

    monkeypatch.setattr(engine_module, "_execute_problem", gated)
    with ReproServer(port=0) as srv:
        try:
            yield srv, gate
        finally:
            gate.set()  # never leave the scheduler thread blocked


def submit(client, problem, **kwargs):
    """Submit one request (``options``/``job_id`` as in
    :class:`SynthesisRequest`); returns its job view."""
    [view] = client.submit_requests([SynthesisRequest(problem, **kwargs)])
    return view


def job_statuses(client):
    """``GET /v1/jobs``: every job the server remembers, by id."""
    document = client._request("GET", "/v1/jobs")
    return {entry["id"]: JobStatus(entry["status"]) for entry in document["jobs"]}


def cancel(client, job_id):
    """``DELETE /v1/jobs/{id}``: whether the queued job was withdrawn."""
    return client._request("DELETE", f"/v1/jobs/{job_id}")["cancelled"]


def wait_for_status(client, job_id, status, attempts=200):
    import time

    for _ in range(attempts):
        if job_statuses(client).get(job_id) is status:
            return True
        time.sleep(0.01)
    return False


class TestRoundTrip:
    def test_plans_identical_to_in_process_service(self, server):
        """Acceptance: a job via ReproClient against `repro serve` returns
        a plan identical (same plan_to_dict) to the in-process result."""
        records = smoke_subset()
        assert records, "smoke corpus has no feasible scenarios?"
        local = SynthesisService()
        for record in records:
            local.submit(
                record.problem,
                job_id=record.scenario_id,
                options=SynthesisOptions(granularity=record.granularity),
            )
        ids = [record.scenario_id for record in records]
        local_results = {res.job_id: res for res in local.as_completed(ids)}

        client = ReproClient(server.url)
        client.submit_requests(
            [
                SynthesisRequest(
                    record.problem,
                    options=SynthesisOptions(granularity=record.granularity),
                    job_id=record.scenario_id,
                )
                for record in records
            ]
        )
        remote_results = {res.job_id: res for res in client.as_completed(ids)}

        assert set(remote_results) == set(local_results)
        for job_id, local_res in local_results.items():
            remote_res = remote_results[job_id]
            assert remote_res.status is JobStatus.DONE
            assert remote_res.fingerprint == local_res.fingerprint
            assert normalized_plan(remote_res.plan) == normalized_plan(
                local_res.plan
            )

    def test_second_client_is_answered_from_warm_cache(self, server):
        """Acceptance: a repeat submission from a second client is a
        plan-cache hit (cached=true) with the identical plan."""
        problem = fig1_problem()
        first = ReproClient(server.url)
        cold = first.result(submit(first, problem).job_id, timeout=60)
        assert cold.status is JobStatus.DONE and not cold.cached

        second = ReproClient(server.url)
        warm = second.result(submit(second, problem).job_id, timeout=60)
        assert warm.status is JobStatus.DONE
        assert warm.cached
        assert plan_to_dict(warm.plan) == plan_to_dict(cold.plan)

    def test_submit_many_single_post(self, server):
        client = ReproClient(server.url)
        views = client.submit_requests(
            [SynthesisRequest(fig1_problem()), SynthesisRequest(fig1_problem())]
        )
        assert len(views) == 2
        results = list(client.as_completed(view.job_id for view in views))
        assert [r.status for r in results] == [JobStatus.DONE] * 2
        # identical problems: one execution, the sibling coalesced or cached
        real = [
            r for r in results if not r.cached and "coalesced" not in r.message
        ]
        assert len(real) == 1


class TestConcurrency:
    def test_two_threads_coalesce_on_one_fingerprint(self, gated_server):
        """Two clients submitting the same problem while the scheduler is
        busy coalesce onto a single execution."""
        server, gate = gated_server
        blocker = ReproClient(server.url)
        submit(blocker, blocker_problem(), job_id="blocker")
        assert wait_for_status(blocker, "blocker", JobStatus.RUNNING)

        results = {}

        def submit_and_wait(name):
            client = ReproClient(server.url)
            view = submit(client, fig1_problem(), job_id=name)
            results[name] = client.result(view.job_id, timeout=120)

        threads = [
            threading.Thread(target=submit_and_wait, args=(f"twin-{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        # both twins are queued behind the gated blocker before it opens
        poll = ReproClient(server.url)
        assert wait_for_status(poll, "twin-0", JobStatus.QUEUED)
        assert wait_for_status(poll, "twin-1", JobStatus.QUEUED)
        gate.set()
        for thread in threads:
            thread.join(timeout=120)
        assert set(results) == {"twin-0", "twin-1"}
        for res in results.values():
            assert res.status is JobStatus.DONE
        assert (
            plan_to_dict(results["twin-0"].plan)
            == plan_to_dict(results["twin-1"].plan)
        )
        # exactly one real synthesis: the twins share one fingerprint group
        real = [
            r
            for r in results.values()
            if not r.cached and "coalesced" not in r.message
        ]
        assert len(real) == 1
        assert sum("coalesced" in r.message for r in results.values()) == 1
        blocker.result("blocker", timeout=120)  # settle before teardown

    def test_cancel_queued_job(self, gated_server):
        server, gate = gated_server
        client = ReproClient(server.url)
        submit(client, blocker_problem(), job_id="busy")
        assert wait_for_status(client, "busy", JobStatus.RUNNING)
        submit(client, fig1_problem(), job_id="victim")
        assert cancel(client, "victim") is True
        result = client.result("victim", timeout=60)
        assert result.status is JobStatus.CANCELLED
        gate.set()
        # the busy job is untouched and still settles
        busy = client.result("busy", timeout=120)
        assert busy.status is JobStatus.DONE
        # cancelling a settled job is a no-op answer, not an error
        assert cancel(client, "victim") is False


class TestProtocolErrors:
    def post(self, server, body: bytes, path="/v1/jobs"):
        request = urllib.request.Request(
            server.url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return urllib.request.urlopen(request)

    def test_malformed_request_is_400_parse_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, b'{"problem": {"spec": "F ("}}')
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["api"] == API_VERSION
        assert envelope["error"]["code"] == "parse"
        assert envelope["error"]["exit_code"] == 4

    def test_bad_json_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, b"{not json")
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "parse"

    def test_wrong_api_version_is_400(self, server):
        from repro.api import SynthesisRequest

        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        data["api"] = "repro-api/99"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, json.dumps(data).encode())
        assert excinfo.value.code == 400

    def test_non_string_job_id_is_400(self, server):
        from repro.api import SynthesisRequest

        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        data["id"] = {"a": 1}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, json.dumps(data).encode())
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "parse"

    def test_nan_timeout_is_400(self, server):
        # Python's json reads NaN; a NaN budget must not run unbounded
        from repro.api import SynthesisRequest

        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        data["options"] = {"timeout": float("nan")}
        body = json.dumps(data).encode()
        assert b"NaN" in body
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, body)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "parse"

    def test_portfolio_option_is_400_parse_envelope(self, server):
        # portfolio racing is retired: the field is unknown, a client
        # error and never a 500
        from repro.api import SynthesisRequest

        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        data["options"] = {"portfolio": ["incremental", "batch"]}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, json.dumps(data).encode())
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["code"] == "parse"
        assert "portfolio" in envelope["error"]["message"]

    def test_unknown_job_is_404_envelope(self, server):
        client = ReproClient(server.url)
        with pytest.raises(KeyError):
            client.result("never-submitted")

    def test_server_default_options_apply_to_bare_requests(self):
        # repro serve --timeout 0 must reach clients that send no options
        with ReproServer(
            port=0, default_options=SynthesisOptions(timeout=0.0)
        ) as srv:
            client = ReproClient(srv.url)  # sends no options
            view = submit(client, blocker_problem())
            result = client.result(view.job_id, timeout=60)
            assert result.status is JobStatus.TIMEOUT

    def test_sparse_options_merge_onto_server_defaults(self):
        # picking a checker must not silently drop the server's timeout
        with ReproServer(
            port=0, default_options=SynthesisOptions(timeout=0.0)
        ) as srv:
            client = ReproClient(srv.url)
            view = submit(client, blocker_problem(), options={"checker": "batch"})
            result = client.result(view.job_id, timeout=60)
            assert result.status is JobStatus.TIMEOUT

    def test_timeout_kwarg_rides_sparse(self):
        # a sparse {"timeout": ...} must not clobber the server's other
        # defaults
        with ReproServer(
            port=0,
            default_options=SynthesisOptions(checker="batch"),
        ) as srv:
            client = ReproClient(srv.url)
            view = submit(client, fig1_problem(), options={"timeout": 60.0})
            result = client.result(view.job_id, timeout=60)
            assert result.status is JobStatus.DONE
            assert result.backend == "batch"  # server default survived

    def test_bind_conflict_raises_clean_error_and_leaks_nothing(self, server):
        import threading

        from repro.errors import ReproError

        def scheduler_threads():
            return sum(
                1
                for thread in threading.enumerate()
                if thread.name == "repro-scheduler" and thread.is_alive()
            )

        before = scheduler_threads()
        host, port = server.address
        with pytest.raises(ReproError, match="cannot bind"):
            ReproServer(host=host, port=port)
        # the aborted server's owned scheduler thread must not linger
        assert scheduler_threads() == before

    def test_duplicate_open_id_is_409_with_accepted_ids(self, gated_server):
        server, gate = gated_server
        client = ReproClient(server.url)
        submit(client, blocker_problem(), job_id="dup")
        from repro.net.serialize import problem_to_dict

        request = {"problem": problem_to_dict(fig1_problem()), "id": "dup"}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, json.dumps({"jobs": [
                dict(request, id="fresh"), request,
            ]}).encode())
        assert excinfo.value.code == 409
        envelope = json.loads(excinfo.value.read())
        assert "duplicate" in envelope["error"]["message"]
        assert "fresh" in envelope["error"]["message"]
        gate.set()
        # the accepted entry is live and settles
        assert client.result("fresh", timeout=60).status is JobStatus.DONE

    def test_keepalive_survives_error_with_unread_body(self, server):
        # an error response must drain the request body, or the next
        # request on the same keep-alive connection reads garbage
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/nope", body=b'{"some": "body"}',
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 404
            first.read()
            # same socket: a valid request must still parse cleanly
            conn.request("GET", "/v1/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["ok"] is True
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "value", ["soon", "-1", "-0.5", "nan", "inf", "-inf", "1e300", "1e7"]
    )
    def test_bad_wait_is_400_parse_envelope(self, server, value):
        """Regression: negative, non-numeric, NaN/inf, and absurdly large
        wait= used to clamp silently (NaN clamped to the *maximum* wait)."""
        client = ReproClient(server.url)
        view = submit(client, fig1_problem())
        client.result(view.job_id, timeout=60)
        for path in ("/v1/jobs", f"/v1/jobs/{view.job_id}"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}{path}?wait={value}")
            assert excinfo.value.code == 400
            envelope = json.loads(excinfo.value.read())
            assert envelope["error"]["code"] == "parse"
            assert "wait" in envelope["error"]["message"]

    @pytest.mark.parametrize("value", ["0", "0.05", "100000"])
    def test_valid_wait_values_accepted(self, server, value):
        # merely-large finite values clamp to MAX_WAIT_SECONDS, they are
        # not an error (looping clients rely on the clamp)
        client = ReproClient(server.url)
        view = submit(client, fig1_problem())
        client.result(view.job_id, timeout=60)
        reply = urllib.request.urlopen(
            f"{server.url}/v1/jobs/{view.job_id}?wait={value}"
        )
        assert reply.status == 200

    def test_unknown_endpoint_is_404(self, server):
        # an unknown API version, and an unknown route under /v1
        for method, path in (("GET", "/v2/jobs"), ("POST", "/v1/fleet/lease")):
            request = urllib.request.Request(
                server.url + path,
                data=b"{}" if method == "POST" else None,
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 404
            envelope = json.loads(excinfo.value.read())
            assert envelope["error"]["code"] == "not_found"

    def test_healthz_metrics_cache_stats(self, server):
        client = ReproClient(server.url)
        health = client._request("GET", "/v1/healthz")
        assert health["ok"] is True and health["api"] == API_VERSION
        metrics = client.metrics_dict()
        assert "workers" not in metrics
        for gauge in ("queue_depth", "in_flight", "uptime_seconds"):
            assert gauge in metrics["gauges"]
        client.result(submit(client, fig1_problem()).job_id, timeout=60)
        client.result(submit(client, fig1_problem()).job_id, timeout=60)
        stats = client._request("GET", "/v1/cache/stats")
        assert stats["api"] == API_VERSION
        assert stats["entries"] == 1 and stats["puts"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert "disk_hits" not in stats


class TestClientRetry:
    """Idempotent GETs ride out transient transport failures; POSTs and
    HTTP-level errors never retry."""

    def flaky_urlopen(self, monkeypatch, failures):
        """Patch urlopen to raise URLError ``failures`` times, then pass
        through; returns the call counter."""
        real = urllib.request.urlopen
        calls = {"n": 0}

        def flaky(request, timeout=None):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise urllib.error.URLError(ConnectionResetError("flaky"))
            return real(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", flaky)
        return calls

    def test_get_retries_transient_transport_errors(self, server, monkeypatch):
        client = ReproClient(server.url, max_retries=2, retry_backoff=0.0)
        calls = self.flaky_urlopen(monkeypatch, failures=2)
        assert client._request("GET", "/v1/healthz")["ok"] is True
        assert calls["n"] == 3

    def test_retries_exhausted_surface_the_transport_error(
        self, server, monkeypatch
    ):
        from repro.errors import ReproError

        client = ReproClient(server.url, max_retries=2, retry_backoff=0.0)
        calls = self.flaky_urlopen(monkeypatch, failures=10)
        with pytest.raises(ReproError, match="unreachable"):
            client._request("GET", "/v1/healthz")
        assert calls["n"] == 3  # first attempt + max_retries

    def test_post_never_retries(self, server, monkeypatch):
        from repro.errors import ReproError

        client = ReproClient(server.url, max_retries=5, retry_backoff=0.0)
        calls = self.flaky_urlopen(monkeypatch, failures=10)
        with pytest.raises(ReproError, match="unreachable"):
            submit(client, fig1_problem())
        assert calls["n"] == 1  # a resubmitted job would be a duplicate

    def test_http_error_responses_are_not_retried(self, server, monkeypatch):
        client = ReproClient(server.url, max_retries=5, retry_backoff=0.0)
        calls = self.flaky_urlopen(monkeypatch, failures=0)
        with pytest.raises(KeyError):
            client.result("never-submitted")  # 404: the server spoke
        assert calls["n"] == 1

    def test_retries_disabled_by_default_zero(self, server, monkeypatch):
        from repro.errors import ReproError

        client = ReproClient(server.url, max_retries=0)
        calls = self.flaky_urlopen(monkeypatch, failures=1)
        with pytest.raises(ReproError, match="unreachable"):
            client._request("GET", "/v1/healthz")
        assert calls["n"] == 1


class TestCliFrontEnds:
    """`repro batch --server` must keep the CLI's exit codes and output
    shapes — a thin client, not a different tool.  A one-line file (such
    as a `repro demo` file) submits one job."""

    def write_problem(self, tmp_path, problem) -> str:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(SynthesisRequest(problem).to_dict()) + "\n")
        return str(path)

    def run_one(self, capsys, path, *flags) -> tuple:
        from repro.cli import main

        code = main(["batch", path, *flags])
        lines = capsys.readouterr().out.splitlines()
        return code, [json.loads(line) for line in lines]

    def test_submit_done_exit_zero(self, server, tmp_path, capsys):
        path = self.write_problem(tmp_path, fig1_problem())
        code, records = self.run_one(capsys, path, "--server", server.url)
        assert code == 0
        assert [record["status"] for record in records] == ["done"]

    def test_submit_json_document(self, server, tmp_path, capsys):
        path = self.write_problem(tmp_path, fig1_problem())
        code, (document,) = self.run_one(capsys, path, "--server", server.url)
        assert code == 0
        assert document["id"] == "job-1"
        assert document["fingerprint"]
        assert document["plan"]["commands"]

    def test_submit_infeasible_is_a_result(self, server, tmp_path, capsys):
        from repro.topo import double_diamond

        scenario = double_diamond(8, seed=1)
        problem = Problem(
            topology=scenario.topology,
            ingresses={tc: list(h) for tc, h in scenario.ingresses.items()},
            init=scenario.init,
            final=scenario.final,
            spec=scenario.spec,
            spec_text=str(scenario.spec),
        )
        path = self.write_problem(tmp_path, problem)
        code, (document,) = self.run_one(capsys, path, "--server", server.url)
        assert code == 0
        assert document["status"] == "infeasible"

    def test_submit_timeout_is_a_result(self, server, tmp_path, capsys):
        path = self.write_problem(tmp_path, fig1_problem())
        code, (document,) = self.run_one(
            capsys, path, "--server", server.url, "--timeout", "0.0"
        )
        assert code == 0
        assert document["status"] == "timeout"

    def test_submit_parse_error_exit_four(self, server, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"problem": {"topology": {}, "spec": "F ("}}\n')
        assert main(["batch", str(path), "--server", server.url]) == 4
        assert f"{path}:1: " in capsys.readouterr().err

    def test_submit_unreachable_server_exit_one(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_problem(tmp_path, fig1_problem())
        code = main(["batch", path, "--server", "http://127.0.0.1:1/"])
        assert code == 1

    def test_batch_server_matches_in_process(self, server, tmp_path, capsys):
        from repro.cli import main

        docs = [record.to_jobs_dict() for record in smoke_subset(3)]
        path = tmp_path / "batch.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))

        assert main(["batch", str(path)]) == 0
        local = {
            json.loads(line)["id"]: json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        }
        assert (
            main(["batch", str(path), "--server", server.url]) == 0
        )
        remote = {
            json.loads(line)["id"]: json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        }
        assert set(remote) == set(local)
        for job_id, local_record in local.items():
            remote_record = remote[job_id]
            assert remote_record["status"] == local_record["status"]
            assert remote_record["fingerprint"] == local_record["fingerprint"]
            assert (
                remote_record["plan"]["commands"]
                == local_record["plan"]["commands"]
            )
