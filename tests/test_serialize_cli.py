"""Tests for JSON serialization and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.errors import ParseError
from repro.net.commands import SwitchUpdate, Wait
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, SetField, Table
from repro.net.serialize import (
    Problem,
    config_from_dict,
    config_to_dict,
    load_problem,
    plan_to_dict,
    problem_from_dict,
    rule_from_dict,
    rule_to_dict,
    save_problem,
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
        save_problem(problem, str(path))
        loaded = load_problem(str(path))
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
        problem = problem_from_dict(json.loads(out))
        assert problem.topology.is_switch("C2")

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
        data["init"] = {}  # empty initial config: blackhole
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
        data["init"] = {}  # empty initial config: blackhole
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
