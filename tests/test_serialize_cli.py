"""Tests for JSON serialization and the command-line interface."""

import json

import pytest

from repro.api import SynthesisRequest
from repro.cli import DEMOS, main
from repro.errors import ParseError, exit_code_for
from repro.net.commands import SwitchUpdate, Wait
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, SetField, Table
from repro.net.serialize import (
    Problem,
    config_from_dict,
    config_to_dict,
    plan_to_dict,
    rule_from_dict,
    rule_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.synthesis.plan import UpdatePlan
from repro.topo import mini_datacenter

TC = TrafficClass.make("f13", src="H1", dst="H3")
RED = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]


class TestRoundTrips:
    def test_topology_roundtrip(self):
        topo = mini_datacenter()
        clone = topology_from_dict(topology_to_dict(topo))
        assert clone.switches == topo.switches
        assert clone.hosts == topo.hosts
        # ports preserved exactly
        for link in topo.links:
            assert clone.peer(link.node_a, link.port_a) == (link.node_b, link.port_b)

    def test_rule_roundtrip(self):
        rule = Rule(
            7,
            Pattern.make(in_port=2, dst="H3"),
            (SetField("ver", "2"), Forward(4)),
        )
        assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_config_roundtrip(self):
        topo = mini_datacenter()
        config = Configuration.from_paths(topo, {TC: RED})
        assert config_from_dict(config_to_dict(config)) == config

    def test_problem_roundtrip(self, tmp_path):
        topo = mini_datacenter()
        problem = Problem(
            topology=topo,
            ingresses={TC: ["H1"]},
            init=Configuration.from_paths(topo, {TC: RED}),
            final=Configuration.from_paths(
                topo, {TC: ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]}
            ),
            spec=__import__("repro.ltl.parser", fromlist=["parse"]).parse(
                "dst=H3 => F at(H3)"
            ),
            spec_text="dst=H3 => F at(H3)",
        )
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(SynthesisRequest(problem).to_dict(), indent=2))
        loaded = SynthesisRequest.from_dict(json.loads(path.read_text())).problem
        assert loaded.init == problem.init
        assert loaded.final == problem.final
        assert loaded.spec == problem.spec
        assert loaded.classes == problem.classes
        assert loaded.ingresses[TC] == ["H1"]

    def test_plan_serialization(self):
        table = Table([Rule(1, Pattern.make(dst="H3"), (Forward(1),))])
        plan = UpdatePlan([SwitchUpdate("A", table), Wait(), SwitchUpdate("B", table)])
        data = plan_to_dict(plan)
        assert data["commands"][1] == {"op": "wait"}
        assert data["commands"][0]["switch"] == "A"

    def test_bad_action_rejected(self):
        with pytest.raises(ParseError):
            rule_from_dict({"priority": 1, "match": {}, "actions": [{"zap": 1}]})

    def test_bad_link_rejected(self):
        with pytest.raises(ParseError):
            topology_from_dict({"switches": ["A"], "links": [["A"]]})


class TestCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_demo_emits_valid_problem(self, capsys, tmp_path):
        code, out = self.run_cli(capsys, "demo", "fig1-green")
        assert code == 0
        assert out.count("\n") == 1  # one compact line: a one-line batch file
        request = SynthesisRequest.from_dict(json.loads(out))
        assert request.options is None and request.job_id is None
        assert request.problem.topology.is_switch("C2")

    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_runs_alike_under_synthesize_and_batch(self, capsys, tmp_path, name):
        _, out = self.run_cli(capsys, "demo", name)
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "synthesize", str(path), "--json")
        batch_code, batch_out = self.run_cli(capsys, "batch", str(path))
        assert batch_code == 0
        (record,) = [json.loads(line) for line in batch_out.splitlines()]
        assert code == exit_code_for(record["status"])
        if record["status"] == "done":
            assert json.loads(out)["commands"] == record["plan"]["commands"]
        else:
            assert out.startswith(record["status"].upper())

    def test_flat_problem_file_is_a_parse_error(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-green")
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(json.loads(out)["problem"]))
        for command in ("synthesize", "check"):
            assert main([command, str(path)]) == 4
            assert f"{path}: request: missing 'problem'" in capsys.readouterr().err
        code, out = self.run_cli(capsys, "analyze", str(path))
        assert code == 4
        assert f"RA000 error: {path}: request: missing 'problem'" in out

    def test_document_options_override_flag_defaults(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "double-diamond")
        data = json.loads(out)
        data["options"] = {"granularity": "rule"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data, indent=2))
        code, out = self.run_cli(capsys, "synthesize", str(path), "--granularity", "switch")
        assert code == 0, out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["synthesize", "p.json", "--checker", "nope"], "--checker"),
            (["synthesize", "p.json", "--timeout", "-1"], "--timeout"),
            (["synthesize", "p.json", "--timeout", "nan"], "--timeout"),
            (["batch", "p.json", "--timeout", "abc"], "--timeout"),
            (["batch", "p.json", "--timeout", "nan"], "--timeout"),
            (["serve", "--timeout", "nan"], "--timeout"),
            (["bench", "--suite", "smoke", "--timeout", "inf"], "--timeout"),
            (["judge", "--suite", "smoke", "--timeout", "-1"], "--timeout"),
            (["submit", "p.json", "--server", "http://127.0.0.1:1"], "command"),
        ],
        ids=[
            "synthesize-checker", "synthesize-timeout-negative",
            "synthesize-timeout-nan", "batch-timeout-string", "batch-timeout-nan",
            "serve-timeout-nan", "bench-timeout-inf", "judge-timeout-negative",
            "submit-retired",
        ],
    )
    def test_usage_error_exits_four(self, capsys, argv, flag):
        # argparse's own usage code (2) is this CLI's "infeasible"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_synthesize_from_file(self, capsys, tmp_path):
        code, out = self.run_cli(capsys, "demo", "fig1-green")
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "synthesize", str(path))
        assert code == 0
        assert "update(C2)" in out

    def test_synthesize_json_output(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-blue")
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "synthesize", str(path), "--json")
        assert code == 0
        plan = json.loads(out)
        assert plan["granularity"] == "switch"
        assert any(c["op"] == "wait" for c in plan["commands"])

    def test_synthesize_infeasible_exit_code(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "double-diamond")
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "synthesize", str(path))
        assert code == 2
        assert "INFEASIBLE" in out
        # rule granularity solves it
        code, out = self.run_cli(
            capsys, "synthesize", str(path), "--granularity", "rule"
        )
        assert code == 0

    def test_check_initial_and_final(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-green")
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "check", str(path))
        assert code == 0 and "OK" in out
        code, out = self.run_cli(capsys, "check", str(path), "--final")
        assert code == 0

    def test_check_violation_reports_counterexample(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-green")
        data = json.loads(out)
        data["problem"]["init"] = {}  # empty initial config: blackhole
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        code, out = self.run_cli(capsys, "check", str(path))
        assert code == 1
        assert "VIOLATION" in out
        assert "DROP" in out

    def test_check_json_verdict(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-green")
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "check", str(path), "--json")
        assert code == 0
        document = json.loads(out)
        assert document["ok"] is True
        assert document["configuration"] == "initial"
        assert document["checker"] == "incremental"
        assert document["counterexample"] is None
        assert document["timings"]["total_seconds"] >= 0.0

    def test_check_json_violation_carries_trace(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-green")
        data = json.loads(out)
        data["problem"]["init"] = {}  # empty initial config: blackhole
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        code, out = self.run_cli(capsys, "check", str(path), "--json")
        assert code == 1
        document = json.loads(out)
        assert document["ok"] is False
        assert document["counterexample"], "expected a violating trace"
        assert any("DROP" in state for state in document["counterexample"])

    def test_check_robust_flag(self, capsys, tmp_path):
        _, out = self.run_cli(capsys, "demo", "fig1-green")
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out = self.run_cli(capsys, "check", str(path), "--robust", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["robustness"]["probes"] >= 1
        code, out = self.run_cli(capsys, "check", str(path), "--robust")
        assert code == 0
        assert "robustness:" in out

    def test_unknown_demo(self, capsys):
        code = main(["demo", "nope"])
        assert code == 1
