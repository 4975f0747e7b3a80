"""Tests for ``repro judge``: cross-backend consensus, injected liars, CLI.

``_execute_one`` is module-level in :mod:`repro.observatory.judge` exactly
so these tests can monkeypatch it and inject a backend that answers
wrong — the acceptance criterion for the judge is that such a dissenter
is detected, named, and turned into a non-zero exit.
"""

import json

import pytest

import repro.observatory.judge as judge_mod
from repro.cli import main
from repro.errors import ReproError
from repro.observatory import DEFAULT_BACKENDS, JUDGE_SCHEMA, run_judge
from repro.observatory.judge import _judge_agreement
from repro.scenarios import generate_corpus, sample_records

_real_execute_one = judge_mod._execute_one

BACKENDS = "incremental,batch"


def _lying_execute_one(record, backend, *, timeout):
    """The ``batch`` backend claims everything is infeasible."""
    if backend == "batch":
        return {"status": "infeasible", "seconds": 0.001, "reason": "injected lie"}
    return _real_execute_one(record, backend, timeout=timeout)


class TestAgreement:
    def test_honest_backends_agree(self):
        document = run_judge(
            "smoke",
            quick=True,
            backends=("incremental", "batch"),
            max_scenarios=6,
        )
        assert document["schema"] == JUDGE_SCHEMA
        assert document["totals"]["ok"] is True
        assert document["totals"]["disagreements"] == []
        assert document["totals"]["scenarios"] == 6
        assert set(document["by_backend"]) == {"incremental", "batch"}
        assert document["meta"]["generated_at"].endswith("Z")
        for row in document["scenarios"]:
            assert set(row["backends"]) == {"incremental", "batch"}
            assert row["disagreements"] == []

    def test_unsupported_backend_excluded_from_consensus(self, monkeypatch):
        def partial(record, backend, *, timeout):
            if backend == "batch":
                return {
                    "status": "unsupported",
                    "seconds": 0.0,
                    "message": "cannot express this spec",
                }
            return _real_execute_one(record, backend, timeout=timeout)

        monkeypatch.setattr(judge_mod, "_execute_one", partial)
        document = run_judge(
            "smoke",
            quick=True,
            backends=("incremental", "batch"),
            max_scenarios=3,
        )
        # a capability gap is reported, never failed
        assert document["totals"]["ok"] is True
        assert document["totals"]["unsupported"] == {"batch": 3}

    def test_lying_backend_caught(self, monkeypatch):
        monkeypatch.setattr(judge_mod, "_execute_one", _lying_execute_one)
        document = run_judge(
            "smoke",
            quick=True,
            backends=("incremental", "batch"),
            max_scenarios=3,
        )
        assert document["totals"]["ok"] is False
        assert any(
            "verdict split" in d for d in document["totals"]["disagreements"]
        )

    def test_fewer_than_two_backends_rejected(self):
        with pytest.raises(ReproError, match="at least two backends"):
            run_judge("smoke", quick=True, backends=("incremental",))

    def test_unknown_suite_raises(self):
        with pytest.raises(ReproError):
            run_judge("no-such-suite", backends=DEFAULT_BACKENDS)


class TestJudgeAgreementUnit:
    def test_consensus_is_silent(self):
        plan = {"granularity": "switch", "commands": [["update", "s1"]]}
        outcomes = {
            "incremental": {"status": "done", "seconds": 0.1, "plan": plan},
            "batch": {"status": "done", "seconds": 0.2, "plan": dict(plan)},
        }
        assert _judge_agreement("s", outcomes) == []

    def test_verdict_split_names_every_vote(self):
        outcomes = {
            "incremental": {"status": "done", "seconds": 0.1, "plan": {}},
            "symbolic": {"status": "infeasible", "seconds": 0.1},
        }
        (message,) = _judge_agreement("zoo/x/y", outcomes)
        assert "zoo/x/y: verdict split" in message
        assert "incremental=done" in message and "symbolic=infeasible" in message

    def test_plan_mismatch_flagged(self):
        outcomes = {
            "incremental": {
                "status": "done",
                "seconds": 0.1,
                "plan": {"granularity": "switch", "commands": [["update", "s1"]]},
            },
            "batch": {
                "status": "done",
                "seconds": 0.1,
                "plan": {"granularity": "switch", "commands": [["update", "s2"]]},
            },
        }
        (message,) = _judge_agreement("s", outcomes)
        assert "normalized plan differs" in message

    def test_shared_error_status_is_reported(self):
        outcomes = {
            "incremental": {"status": "error", "seconds": 0.0, "message": "boom"},
            "batch": {"status": "error", "seconds": 0.0, "message": "boom"},
        }
        messages = _judge_agreement("s", outcomes)
        assert len(messages) == 2
        assert all("errored" in m for m in messages)

    def test_unsupported_lone_voter_is_consensus(self):
        outcomes = {
            "netplumber": {"status": "unsupported", "seconds": 0.0, "message": "-"},
            "batch": {"status": "done", "seconds": 0.1, "plan": {}},
        }
        assert _judge_agreement("s", outcomes) == []


class TestCli:
    def test_honest_judge_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "JUDGE.json"
        code = main(
            ["judge", "--suite", "smoke", "--quick",
             "--backends", BACKENDS, "--max-scenarios", "4",
             "--out", str(out)]
        )
        assert code == 0
        assert "OK: all backends agree" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["schema"] == JUDGE_SCHEMA
        assert document["totals"]["ok"] is True

    def test_injected_disagreement_exits_nonzero_and_names_scenario(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(judge_mod, "_execute_one", _lying_execute_one)
        code = main(
            ["judge", "--suite", "smoke", "--quick",
             "--backends", BACKENDS, "--max-scenarios", "3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DISAGREED" in out
        assert "verdict split" in out
        # the dissenting scenario is named, verbatim, in the summary
        sampled = sample_records(generate_corpus("smoke", quick=True), 3)
        assert any(record.scenario_id in out for record in sampled)

    def test_judge_json_output(self, capsys):
        code = main(
            ["judge", "--suite", "smoke", "--quick",
             "--backends", BACKENDS, "--max-scenarios", "2",
             "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == JUDGE_SCHEMA
        assert document["backends"] == ["incremental", "batch"]

    def test_backends_accept_spaces(self, capsys):
        code = main(
            ["judge", "--suite", "smoke", "--quick",
             "--backends", "incremental, batch", "--max-scenarios", "1", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backends"] == ["incremental", "batch"]

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["judge", "--suite", "smoke", "--backends", "incremental,increnemtal"])
        assert exc.value.code == 4
        assert "unknown backend" in capsys.readouterr().err

    def test_single_backend_rejected(self, capsys):
        code = main(
            ["judge", "--suite", "smoke", "--quick", "--backends", "incremental"]
        )
        assert code == 1
        assert "at least two backends" in capsys.readouterr().err
