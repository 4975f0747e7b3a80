"""Tests for the ``repro-api/1`` wire schema (repro.api) and the shared
exit-code taxonomy (repro.errors)."""

import pytest

from repro.api import (
    API_VERSION,
    ErrorEnvelope,
    JobView,
    SynthesisDelta,
    SynthesisRequest,
    SynthesisResponse,
    options_from_dict,
    options_to_dict,
)
from repro.errors import (
    EXIT_FAILURE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_TIMEOUT,
    ParseError,
    ReproError,
    SynthesisTimeout,
    UpdateInfeasibleError,
    error_code,
    exit_code_for,
)
from repro.ltl.parser import parse
from repro.net.commands import SwitchUpdate, Wait
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, Table
from repro.net.serialize import Problem, plan_to_dict, problem_to_dict
from repro.service import JobResult, JobStatus, SynthesisJob, SynthesisOptions
from repro.synthesis.plan import UpdatePlan
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


def make_plan() -> UpdatePlan:
    table = Table([Rule(100, Pattern.make(dst="H3"), (Forward(2),))])
    return UpdatePlan([SwitchUpdate("T1", table), Wait()])


# ----------------------------------------------------------------------
# exit-code taxonomy
# ----------------------------------------------------------------------
class TestExitCodes:
    def test_exception_families(self):
        assert exit_code_for(ParseError("x")) == EXIT_PARSE_ERROR
        assert exit_code_for(UpdateInfeasibleError("x")) == EXIT_INFEASIBLE
        assert exit_code_for(SynthesisTimeout("x")) == EXIT_TIMEOUT
        assert exit_code_for(ReproError("x")) == EXIT_FAILURE
        assert exit_code_for(ValueError("x")) == EXIT_FAILURE

    def test_status_families(self):
        assert exit_code_for("done") == EXIT_OK
        assert exit_code_for("infeasible") == EXIT_INFEASIBLE
        assert exit_code_for("timeout") == EXIT_TIMEOUT
        assert exit_code_for("error") == EXIT_FAILURE
        assert exit_code_for("cancelled") == EXIT_FAILURE
        assert exit_code_for("anything-else") == EXIT_FAILURE

    def test_every_job_status_maps(self):
        # the server envelope and `submit` exit with these — no status may
        # fall through to a surprising family when new statuses are added
        for status in JobStatus:
            if status.terminal:
                assert exit_code_for(status.value) in (
                    EXIT_OK, EXIT_FAILURE, EXIT_INFEASIBLE, EXIT_TIMEOUT,
                )

    def test_error_code_inverse(self):
        for code in (EXIT_OK, EXIT_FAILURE, EXIT_INFEASIBLE, EXIT_TIMEOUT,
                     EXIT_PARSE_ERROR):
            assert exit_code_for(error_code(code)) == code

    def test_cli_reexports_same_values(self):
        from repro import cli

        assert (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_INFEASIBLE,
                cli.EXIT_TIMEOUT, cli.EXIT_PARSE_ERROR) == (0, 1, 2, 3, 4)


# ----------------------------------------------------------------------
# options
# ----------------------------------------------------------------------
class TestOptionsRoundTrip:
    def test_round_trip_non_defaults(self):
        options = SynthesisOptions(
            checker="batch",
            granularity="rule",
            remove_waits=False,
            timeout=12.5,
        )
        assert options_from_dict(options_to_dict(options)) == options

    def test_defaults_from_empty(self):
        assert options_from_dict({}) == SynthesisOptions()

    @pytest.mark.parametrize(
        "bad",
        [
            {"checker": "no-such-backend"},
            # retired fields are unknown fields
            {"portfolio": ["incremental", "batch"]},
            {"workers": 2},
            {"granularity": "packet"},
            {"timeout": "fast"},
            {"timeout": True},
            {"shards": 0},
            {"shards": 1.5},
            {"memoize": "yes"},
            {"use_plan_cache": False},
            {"preflight": True},
            {"use_counterexamples": False},
            {"use_early_termination": False},
            {"use_reachability_heuristic": False},
            {"surprise": 1},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"timeout": -1},
        ],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ParseError):
            options_from_dict(bad)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
class TestSynthesisRequest:
    def test_round_trip(self):
        request = SynthesisRequest(
            problem=fig1_problem(),
            options=SynthesisOptions(timeout=5.0, granularity="rule"),
            job_id="job-x",
        )
        data = request.to_dict()
        assert data["api"] == API_VERSION
        parsed = SynthesisRequest.from_dict(data)
        assert parsed.job_id == "job-x"
        assert parsed.options == request.options
        assert problem_to_dict(parsed.problem) == problem_to_dict(request.problem)

    def test_rejects_wrong_api_version(self):
        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        data["api"] = "repro-api/2"
        with pytest.raises(ParseError, match="api version"):
            SynthesisRequest.from_dict(data)

    def test_accepts_missing_api_marker(self):
        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        del data["api"]
        SynthesisRequest.from_dict(data)

    def test_no_options_round_trips_to_none(self):
        # options=None means "the server's defaults apply" — the document
        # must not materialize schema defaults on either side
        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        assert "options" not in data
        assert SynthesisRequest.from_dict(data).options is None
        assert SynthesisRequest.from_dict({"problem": data["problem"],
                                           "options": {}}).options == (
            SynthesisOptions()
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("problem"),
            lambda d: d.__setitem__("problem", 5),
            lambda d: d["problem"].__setitem__("spec", "F ("),
            lambda d: d.__setitem__("options", {"shards": -1}),
            # a job id is a JSON string, never the repr of another value
            lambda d: d.__setitem__("id", {"a": 1}),
            lambda d: d.__setitem__("id", True),
            lambda d: d.__setitem__("id", 7),
            lambda d: d.__setitem__("id", ["job-1"]),
        ],
    )
    def test_rejects_malformed(self, mutate):
        data = SynthesisRequest(problem=fig1_problem()).to_dict()
        mutate(data)
        with pytest.raises(ParseError):
            SynthesisRequest.from_dict(data)

    @pytest.mark.parametrize("job_id", [{"a": 1}, True, 7])
    def test_delta_rejects_non_string_id(self, job_id):
        data = {"base": "fp123", "patch": {"spec": "true"}, "id": job_id}
        with pytest.raises(ParseError, match="'id' must be a string"):
            SynthesisDelta.from_dict(data)


# ----------------------------------------------------------------------
# job views and responses
# ----------------------------------------------------------------------
class TestJobView:
    def test_round_trip_from_job(self):
        job = SynthesisJob(job_id="j1", problem=fig1_problem())
        view = JobView.from_job(job)
        parsed = JobView.from_dict(view.to_dict())
        assert parsed == view
        assert parsed.status == "queued"
        assert parsed.fingerprint == job.fingerprint

    def test_rejects_unknown_status(self):
        with pytest.raises(ParseError, match="status"):
            JobView.from_dict({"id": "x", "status": "exploded"})


class TestSynthesisResponse:
    def test_round_trip_with_plan(self):
        result = JobResult(
            job_id="j1",
            status=JobStatus.DONE,
            plan=make_plan(),
            seconds=0.25,
            backend="incremental",
            fingerprint="abc",
        )
        response = SynthesisResponse.from_result(result)
        data = response.to_dict()
        assert data["api"] == API_VERSION
        assert data["status"] == "done"
        parsed = SynthesisResponse.from_dict(data)
        assert plan_to_dict(parsed.plan) == plan_to_dict(result.plan)
        back = parsed.to_result()
        assert back.status is JobStatus.DONE
        assert back.backend == "incremental"
        assert back.fingerprint == "abc"
        assert back.seconds == pytest.approx(0.25)

    def test_matches_batch_jsonl_record_shape(self):
        # the `batch --server` stream must diff cleanly against in-process
        # runs: same keys, same values, plus only the api marker
        result = JobResult(
            job_id="j1", status=JobStatus.DONE, plan=make_plan(),
            fingerprint="abc",
        )
        local = result.to_dict()
        wire = SynthesisResponse.from_result(result).to_dict()
        assert wire.pop("api") == API_VERSION
        assert wire == local

    def test_failure_without_plan(self):
        result = JobResult(
            job_id="j2", status=JobStatus.INFEASIBLE, message="(sat) no"
        )
        parsed = SynthesisResponse.from_dict(
            SynthesisResponse.from_result(result).to_dict()
        )
        assert parsed.plan is None
        assert parsed.to_result().status is JobStatus.INFEASIBLE
        assert parsed.message == "(sat) no"


# ----------------------------------------------------------------------
# error envelope
# ----------------------------------------------------------------------
class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "err, code, exit_code",
        [
            (ParseError("bad spec"), "parse", EXIT_PARSE_ERROR),
            (UpdateInfeasibleError("no"), "infeasible", EXIT_INFEASIBLE),
            (SynthesisTimeout("slow"), "timeout", EXIT_TIMEOUT),
            (ReproError("boom"), "failure", EXIT_FAILURE),
        ],
    )
    def test_from_exception_families(self, err, code, exit_code):
        envelope = ErrorEnvelope.from_exception(err)
        assert envelope.code == code
        assert envelope.exit_code == exit_code
        parsed = ErrorEnvelope.from_dict(envelope.to_dict())
        assert parsed == envelope

    def test_raise_reconstructs_exception_family(self):
        with pytest.raises(ParseError, match="bad spec"):
            ErrorEnvelope.from_exception(ParseError("bad spec")).raise_()
        with pytest.raises(KeyError):
            ErrorEnvelope.not_found("job gone").raise_()
        with pytest.raises(ReproError, match="boom"):
            ErrorEnvelope.from_exception(ReproError("boom")).raise_()

    def test_rejects_missing_error_object(self):
        with pytest.raises(ParseError):
            ErrorEnvelope.from_dict({"api": API_VERSION})
