"""Static analysis subsystem: linter soundness and plan audits.

The load-bearing property is *soundness*: every ``infeasible``-family
diagnostic the problem linter emits must match the solver's verdict
(static-infeasible ⇒ solver-infeasible), and the linter must never flag a
solver-feasible corpus problem as an error.  Both directions are enforced
differentially here on seeded diamond/ring corpora.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ANALYSIS_SCHEMA,
    DIAGNOSTIC_CODES,
    AnalysisReport,
    Diagnostic,
    TargetReport,
    analyze_problem,
    audit_plan,
    class_closure,
)
from repro.errors import UpdateInfeasibleError
from repro.ltl.parser import parse
from repro.net.rules import Forward, Pattern, Rule, Table
from repro.api import SynthesisRequest
from repro.net.serialize import Problem
from repro.scenarios.corpus import generate_corpus, sample_records
from repro.synthesis import UpdateSynthesizer
from repro.synthesis.plan import UpdatePlan
from repro.topo import ring_diamond

REPO = Path(__file__).resolve().parent.parent


def problem_of(scenario, spec_text: str) -> Problem:
    return Problem(
        topology=scenario.topology,
        ingresses={tc: list(h) for tc, h in scenario.ingresses.items()},
        init=scenario.init,
        final=scenario.final,
        spec=parse(spec_text),
        spec_text=spec_text,
    )


def guard_of(tc) -> str:
    return " & ".join(f"{f}={v}" for f, v in sorted(tc.field_map().items()))


def solver_verdict(problem: Problem, granularity: str = "switch") -> str:
    synth = UpdateSynthesizer(problem.topology, granularity=granularity)
    try:
        synth.synthesize(problem.init, problem.final, problem.spec, problem.ingresses)
        return "feasible"
    except UpdateInfeasibleError:
        return "infeasible"


def unreached_switch(problem: Problem) -> str:
    """A switch some endpoint configuration's closures never reach.

    Infeasibility only needs *one* endpoint to miss a required node: the
    solver model-checks the initial and final configurations separately, so
    ``F at(w)`` with ``w`` off the initial paths is already unsatisfiable.
    """
    for config in (problem.init, problem.final):
        reached = set()
        for tc, hosts in problem.ingresses.items():
            reached |= class_closure(problem.topology, config, tc, hosts).nodes
        spare = sorted(str(sw) for sw in set(problem.topology.switches) - reached)
        if spare:
            return spare[0]
    raise AssertionError("every switch is on some path; pick a bigger topology")


def infeasibility(problem: Problem):
    """The linter's first ``infeasible``-family error, or ``None``."""
    return next(
        (d for d in analyze_problem(problem).errors if d.family == "infeasible"),
        None,
    )


# ----------------------------------------------------------------------
# diagnostics format
# ----------------------------------------------------------------------
class TestDiagnosticsFormat:
    def test_diagnostic_round_trip(self):
        diag = Diagnostic(
            "RA010", "error", "w unreachable", family="infeasible", certificate="path"
        )
        assert Diagnostic.from_dict(diag.to_dict()) == diag

    def test_unknown_code_and_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("RA999", "error", "nope")
        with pytest.raises(ValueError):
            Diagnostic("RA010", "fatal", "nope")

    def test_report_round_trip_and_schema(self):
        report = AnalysisReport(
            targets=[
                TargetReport(
                    "t1", "problem", [Diagnostic("RA002", "warn", "absent node")]
                )
            ]
        )
        doc = report.to_dict()
        assert doc["schema"] == ANALYSIS_SCHEMA
        back = AnalysisReport.from_dict(doc)
        assert back.to_dict() == doc

    def test_exit_codes_map_onto_shared_taxonomy(self):
        def report_with(*diags):
            return AnalysisReport(targets=[TargetReport("t", "problem", list(diags))])

        assert report_with().exit_code() == 0
        assert report_with(Diagnostic("RA002", "warn", "m")).exit_code() == 0
        assert (
            report_with(Diagnostic("RA001", "error", "m", family="parse")).exit_code()
            == 4
        )
        # infeasible outranks parse
        assert (
            report_with(
                Diagnostic("RA001", "error", "m", family="parse"),
                Diagnostic("RA010", "error", "m", family="infeasible"),
            ).exit_code()
            == 2
        )

    def test_every_code_is_described(self):
        for code, description in DIAGNOSTIC_CODES.items():
            assert code.startswith("RA") and len(code) == 5
            assert description


# ----------------------------------------------------------------------
# reachability closure
# ----------------------------------------------------------------------
class TestClassClosure:
    def test_closure_covers_the_forwarding_path(self):
        scenario = ring_diamond(8, seed=1)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        tc = next(iter(problem.ingresses))
        closure = class_closure(problem.topology, problem.init, tc, ["Hsrc"])
        assert "Hdst" in closure.delivered
        assert closure.loop is None
        known_path = scenario.init_paths[tc]
        switches = [n for n in known_path if problem.topology.is_switch(n)]
        assert set(switches) <= closure.nodes
        witness = closure.path_to(switches[-1])
        assert witness is not None and witness[0] == switches[0]

    def test_drop_detected_on_empty_table(self):
        scenario = ring_diamond(8, seed=1)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        tc = next(iter(problem.ingresses))
        from repro.net.config import Configuration

        closure = class_closure(problem.topology, Configuration.empty(), tc, ["Hsrc"])
        assert closure.dropped
        assert not closure.delivered

    def test_forwarding_loop_detected(self):
        scenario = ring_diamond(8, seed=1)
        topo = scenario.topology
        tc = next(iter(scenario.ingresses))
        # S0 -> S1 -> S0: a two-switch loop
        bounce = Rule.make(
            100, Pattern.make(**tc.field_map()), [Forward(topo.port_to("S1", "S0"))]
        )
        loop_config = scenario.init.with_table("S1", Table([bounce]))
        closure = class_closure(topo, loop_config, tc, ["Hsrc"])
        assert closure.loop is not None
        assert set(closure.loop) <= set(closure.nodes)


# ----------------------------------------------------------------------
# problem linter: hygiene diagnostics
# ----------------------------------------------------------------------
class TestProblemLinter:
    @pytest.fixture(scope="class")
    def scenario(self):
        return ring_diamond(8, seed=3)

    def test_clean_problem_has_no_diagnostics(self, scenario):
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        report = analyze_problem(problem)
        assert report.diagnostics == []
        assert not report.statically_infeasible

    def test_absent_spec_node_warns_vacuity(self, scenario):
        problem = problem_of(scenario, "dst=Hdst => F at(NOWHERE)")
        codes = {d.code for d in analyze_problem(problem).diagnostics}
        assert "RA002" in codes

    def test_unmatched_guard_warns_vacuity(self, scenario):
        problem = problem_of(scenario, "dst=NOSUCH => F at(Hdst)")
        codes = {d.code for d in analyze_problem(problem).diagnostics}
        assert "RA003" in codes

    def test_unknown_ingress_is_parse_family(self, scenario):
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        tc = next(iter(problem.ingresses))
        problem.ingresses[tc] = ["GHOST"]
        report = analyze_problem(problem)
        errors = [d for d in report.errors if d.code == "RA001"]
        assert errors and all(d.family == "parse" for d in errors)
        wrapped = AnalysisReport(targets=[report])
        assert wrapped.exit_code() == 4

    def test_dead_rule_warns(self, scenario):
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        dead = Rule.make(50, Pattern.make(dst="NOBODY"), [Forward(1)])
        switch = sorted(problem.init.switches())[0]
        table = Table(list(problem.init.table(switch).rules) + [dead])
        problem = Problem(
            topology=problem.topology,
            ingresses=problem.ingresses,
            init=problem.init.with_table(switch, table),
            final=problem.final,
            spec=problem.spec,
            spec_text=problem.spec_text,
        )
        codes = {d.code for d in analyze_problem(problem).diagnostics}
        assert "RA020" in codes

    def test_unreachable_configured_switch_warns(self, scenario):
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        spare = unreached_switch(problem)
        tc = next(iter(problem.ingresses))
        stray = Table([Rule.make(10, Pattern.make(**tc.field_map()), [Forward(1)])])
        problem = Problem(
            topology=problem.topology,
            ingresses=problem.ingresses,
            init=problem.init.with_table(spare, stray),
            final=problem.final,
            spec=problem.spec,
            spec_text=problem.spec_text,
        )
        codes = {d.code for d in analyze_problem(problem).diagnostics}
        assert "RA021" in codes


# ----------------------------------------------------------------------
# problem linter: differential soundness
# ----------------------------------------------------------------------
class TestDifferentialSoundness:
    """static-infeasible ⇒ solver-infeasible; feasible corpus ⇒ no errors."""

    def test_smoke_corpus_is_error_free(self):
        for record in generate_corpus("smoke", quick=True):
            report = analyze_problem(record.problem, target=record.scenario_id)
            assert report.errors == [], (
                f"{record.scenario_id}: linter flagged a corpus problem: "
                f"{[d.render() for d in report.errors]}"
            )

    def test_churn_corpus_is_error_free(self):
        for record in generate_corpus("churn", quick=True):
            report = analyze_problem(record.problem, target=record.scenario_id)
            assert report.errors == []

    @pytest.mark.parametrize("seed", [1, 5])
    def test_unreachable_waypoint_matches_solver(self, seed):
        scenario = ring_diamond(8, seed=seed)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        spare = unreached_switch(problem)
        tc = next(iter(problem.ingresses))
        bad = problem_of(scenario, f"({guard_of(tc)}) => F at({spare})")
        diag = infeasibility(bad)
        assert diag is not None and diag.code == "RA010"
        assert diag.certificate
        assert solver_verdict(bad) == "infeasible"

    def test_forbidden_node_matches_solver(self):
        scenario = ring_diamond(8, seed=2)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        tc = next(iter(problem.ingresses))
        hosts = problem.ingresses[tc]
        on_path = class_closure(problem.topology, problem.init, tc, hosts)
        transit = sorted(
            n for n in on_path.nodes if problem.topology.is_switch(n) and n != "S0"
        )[0]
        bad = problem_of(
            scenario, f"({guard_of(tc)}) => (G !at({transit}) & F at(Hdst))"
        )
        diag = infeasibility(bad)
        assert diag is not None and diag.code == "RA011"
        assert "witness path" in diag.certificate
        assert solver_verdict(bad) == "infeasible"

    def test_blackhole_drop_matches_solver(self):
        scenario = ring_diamond(8, seed=4)
        tc = next(iter(scenario.ingresses))
        # cut the init path at its second switch: traffic drops mid-way
        problem = problem_of(scenario, f"({guard_of(tc)}) => G !dropped")
        hosts = problem.ingresses[tc]
        closure = class_closure(problem.topology, problem.init, tc, hosts)
        transit = sorted(
            n for n in closure.nodes if problem.topology.is_switch(n) and n != "S0"
        )[0]
        from repro.net.rules import EMPTY_TABLE

        cut = Problem(
            topology=problem.topology,
            ingresses=problem.ingresses,
            init=problem.init.with_table(transit, EMPTY_TABLE),
            final=problem.final,
            spec=problem.spec,
            spec_text=problem.spec_text,
        )
        diag = infeasibility(cut)
        assert diag is not None and diag.code == "RA012"
        assert solver_verdict(cut) == "infeasible"

    def test_false_spec_matches_solver(self):
        scenario = ring_diamond(8, seed=0)
        tc = next(iter(scenario.ingresses))
        guard = guard_of(tc)
        # header fields are immutable per class, so demanding a different
        # dst specializes the whole spec to FALSE for this class
        bad = problem_of(scenario, f"({guard}) => dst=NOWHERE")
        diag = infeasibility(bad)
        assert diag is not None and diag.code == "RA014"
        assert solver_verdict(bad) == "infeasible"

    def test_loop_matches_solver(self):
        scenario = ring_diamond(8, seed=1)
        tc = next(iter(scenario.ingresses))
        topo = scenario.topology
        bounce = Rule.make(
            100, Pattern.make(**tc.field_map()), [Forward(topo.port_to("S1", "S0"))]
        )
        loop_config = scenario.init.with_table("S1", Table([bounce]))
        looped = Problem(
            topology=topo,
            ingresses={tc: list(h) for tc, h in scenario.ingresses.items()},
            init=loop_config,
            final=scenario.final,
            spec=parse("dst=Hdst => F at(Hdst)"),
            spec_text="dst=Hdst => F at(Hdst)",
        )
        diag = infeasibility(looped)
        assert diag is not None and diag.code == "RA013"
        assert solver_verdict(looped) == "infeasible"


# ----------------------------------------------------------------------
# plan auditor
# ----------------------------------------------------------------------
class TestPlanAuditor:
    def test_every_smoke_plan_audits_clean(self):
        records = sample_records(generate_corpus("smoke", quick=True), 10)
        audited = 0
        for record in records:
            problem = record.problem
            synth = UpdateSynthesizer(problem.topology, granularity=record.granularity)
            try:
                plan = synth.synthesize(
                    problem.init, problem.final, problem.spec, problem.ingresses
                )
            except UpdateInfeasibleError:
                continue
            report = audit_plan(problem, plan, target=record.scenario_id)
            assert report.diagnostics == [], (
                f"{record.scenario_id}: {[d.render() for d in report.diagnostics]}"
            )
            audited += 1
        assert audited >= 5

    @pytest.fixture(scope="class")
    def solved(self):
        scenario = ring_diamond(8, seed=1)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        synth = UpdateSynthesizer(problem.topology)
        plan = synth.synthesize(
            problem.init, problem.final, problem.spec, problem.ingresses
        )
        return problem, plan

    def test_missing_update_is_flagged(self, solved):
        problem, plan = solved
        from repro.net.commands import is_update

        updates = [c for c in plan.commands if is_update(c)]
        assert len(updates) >= 2
        dropped_one = UpdatePlan(
            [c for c in plan.commands if c is not updates[-1]],
            plan.granularity,
            plan.stats,
        )
        report = audit_plan(problem, dropped_one)
        assert any(d.code == "RA205" for d in report.errors)

    def test_duplicate_update_is_flagged(self, solved):
        problem, plan = solved
        from repro.net.commands import is_update

        first = next(c for c in plan.commands if is_update(c))
        doubled = UpdatePlan(
            list(plan.commands) + [first], plan.granularity, plan.stats
        )
        report = audit_plan(problem, doubled)
        assert any(d.code == "RA204" for d in report.errors)

    def test_foreign_switch_is_flagged(self, solved):
        problem, plan = solved
        from repro.net.commands import SwitchUpdate
        from repro.net.rules import EMPTY_TABLE

        alien = UpdatePlan(
            list(plan.commands) + [SwitchUpdate("MARS", EMPTY_TABLE)],
            plan.granularity,
            plan.stats,
        )
        report = audit_plan(problem, alien)
        assert any(d.code == "RA201" for d in report.errors)

    def test_granularity_mismatch_is_flagged(self, solved):
        problem, plan = solved
        mismatched = UpdatePlan(list(plan.commands), "rule", plan.stats)
        report = audit_plan(problem, mismatched)
        assert any(d.code == "RA203" for d in report.errors)

    def test_leading_wait_warns(self, solved):
        problem, plan = solved
        from repro.net.commands import Wait

        padded = UpdatePlan([Wait()] + list(plan.commands), plan.granularity, plan.stats)
        report = audit_plan(problem, padded)
        assert any(d.code == "RA206" and d.severity == "warn" for d in report.diagnostics)
        assert not report.errors


# ----------------------------------------------------------------------
# CLI + docs + repo invariants
# ----------------------------------------------------------------------
class TestAnalyzeCli:
    def test_clean_problem_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        scenario = ring_diamond(8, seed=1)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(SynthesisRequest(problem).to_dict()))
        assert main(["analyze", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_statically_infeasible_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        scenario = ring_diamond(8, seed=1)
        problem = problem_of(scenario, "dst=Hdst => F at(Hdst)")
        spare = unreached_switch(problem)
        tc = next(iter(problem.ingresses))
        bad = problem_of(scenario, f"({guard_of(tc)}) => F at({spare})")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(SynthesisRequest(bad).to_dict()))
        assert main(["analyze", str(path), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == ANALYSIS_SCHEMA
        assert doc["targets"][0]["statically_infeasible"] is True

    def test_unreadable_file_exits_four(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 4
        assert "RA000" in capsys.readouterr().out

    def test_suite_smoke_is_clean(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--suite", "smoke", "--quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["ok"] is True
        assert doc["totals"]["targets"] > 0

    def test_no_input_is_parse_error(self):
        from repro.cli import main

        assert main(["analyze"]) == 4

    def test_batch_unknown_base_names_path_and_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"base": "missing", "patch": {}, "id": "delta-1"}\n'
        )
        code = main(["batch", str(path)])
        assert code == 4
        err = capsys.readouterr().err
        assert f"{path}:1:" in err


class TestDocsAndInvariants:
    def test_analysis_schema_documented_in_api_md(self):
        doc = (REPO / "docs" / "API.md").read_text()
        assert ANALYSIS_SCHEMA in doc
        for name in ("Diagnostic", "TargetReport", "AnalysisReport"):
            assert name in doc

    def test_readme_documents_every_diagnostic_code(self):
        readme = (REPO / "README.md").read_text()
        assert "repro analyze" in readme
        for code in DIAGNOSTIC_CODES:
            assert code in readme, f"README.md does not document {code}"

    def test_architecture_documents_analysis_flow(self):
        doc = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "repro.analysis" in doc
        assert "repro analyze" in doc and "analyze_problem" in doc

    def test_check_invariants_passes_on_this_tree(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_invariants.py")],
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
