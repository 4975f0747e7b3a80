"""A delta's search starts from its base job's verified final structure.

The engine retains the ``IncrementalChecker`` of each recent job's final
structure (with its labels and ``LabelEngine``); a delta that edits no
link, ingress or spec, runs the ``incremental`` checker, and whose
``init`` is its base's ``final`` searches from that structure.  These
tests pin the contract: plans are the ones a cold structure gives, the
reuse really happens (and skips one build and one labeling), every
ineligible delta falls back cold, and the retained state stays bounded.
"""

import dataclasses

import pytest

import repro.kripke.structure as structure_module
import repro.mc.labeling as labeling_module
import repro.service.engine as engine_module
from repro.net.commands import Wait
from repro.net.serialize import Problem
from repro.scenarios.churn import generate_churn, onboarding_fan_problems, patch_between
from repro.service import JobStatus, PlanCache, SynthesisOptions, SynthesisService
from repro.synthesis import UpdateSynthesizer
from repro.synthesis.search import Handover


def shape(plan):
    """What a plan digest fixes: the unit order and the wait positions."""
    waits = [i for i, command in enumerate(plan.commands) if isinstance(command, Wait)]
    return plan.unit_order(), waits


def chain(groups, flips, enablers, *, flap=False):
    """(base problem, patches, resolved problems) of one onboarding fan,
    chained through ``apply_to`` exactly as the engine resolves them."""
    targets = onboarding_fan_problems(groups, flips, enablers, decoy_flap=flap)
    resolved = [targets[0]]
    patches = []
    for prev, cur in zip(targets, targets[1:]):
        patch = patch_between(prev, cur)
        patches.append(patch)
        resolved.append(patch.apply_to(resolved[-1]))
    return targets[0], patches, resolved


def cold_shape(problem, granularity="switch", checker="incremental"):
    synth = UpdateSynthesizer(problem.topology, granularity=granularity, checker=checker)
    plan = synth.synthesize(problem.init, problem.final, problem.spec, problem.ingresses)
    return shape(plan)


@pytest.fixture()
def handovers(monkeypatch):
    """Records, per executed job id, whether its search got a labeled start
    structure and a reused engine."""
    seen = {}
    original = SynthesisService._handover

    def spy(self, job):
        handover = original(self, job)
        seen[job.job_id] = (handover.start is not None, handover.engine is not None)
        return handover

    monkeypatch.setattr(SynthesisService, "_handover", spy)
    return seen


def run_chain(base, patches, *, options=None, service=None):
    """Submit ``base`` then each patch as a delta of the previous job."""
    own = service is None
    service = service or SynthesisService(default_options=options)
    try:
        job = service.submit(base, job_id="step00")
        results = [service.result(job.job_id)]
        for step, patch in enumerate(patches, 1):
            job = service.submit_delta(job.fingerprint, patch, job_id=f"step{step:02d}")
            results.append(service.result(job.job_id))
        return results
    finally:
        if own:
            service.close()


class TestDifferential:
    @pytest.mark.parametrize("granularity", ["switch", "rule"])
    @pytest.mark.parametrize("flap", [False, True])
    def test_chain_plans_match_cold_solves(self, handovers, granularity, flap):
        base, patches, resolved = chain(4, 3, 4, flap=flap)
        results = run_chain(
            base, patches, options=SynthesisOptions(granularity=granularity)
        )
        for step, (result, problem) in enumerate(zip(results, resolved)):
            assert result.status is JobStatus.DONE, (step, result.message)
            assert shape(result.plan) == cold_shape(problem, granularity), step
        # reuse really happened: a flap chain edits links every step, so
        # only the engine carries over; otherwise every delta starts warm
        deltas = [handovers[f"step{step:02d}"] for step in range(1, len(results))]
        assert deltas == [(not flap, True)] * len(patches)

    def test_churn_suite_traces_match_cold_solves(self, handovers):
        for trace in generate_churn(quick=True):
            base = trace.records[0].problem
            results = run_chain(base, trace.patches)
            for record, result in zip(trace.records, results):
                assert shape(result.plan) == cold_shape(record.problem), record.scenario_id

    def test_warm_delta_skips_exactly_the_init_check(self, monkeypatch):
        """Same search, one model check fewer: the reused structure's
        verdict is the base's final check."""
        base, patches, _ = chain(3, 3, 4)
        warm = run_chain(base, patches)
        monkeypatch.setattr(
            SynthesisService, "_handover", lambda self, job: Handover()
        )
        plain = run_chain(base, patches)
        assert [shape(r.plan) for r in warm] == [shape(r.plan) for r in plain]
        assert warm[0].plan.stats.model_checks == plain[0].plan.stats.model_checks
        for w, p in zip(warm[1:], plain[1:]):
            assert w.plan.stats.model_checks == p.plan.stats.model_checks - 1
            assert w.plan.stats.counterexamples == p.plan.stats.counterexamples
            assert w.plan.stats.waits_after_removal == p.plan.stats.waits_after_removal


class TestOpCounts:
    def test_each_delta_builds_one_structure_and_the_chain_one_engine(self, monkeypatch):
        builds = {"kripke": 0, "engine": 0}
        kripke_init = structure_module.KripkeStructure.__init__
        engine_init = labeling_module.LabelEngine.__init__

        def counting_kripke(self, *args, **kwargs):
            builds["kripke"] += 1
            kripke_init(self, *args, **kwargs)

        def counting_engine(self, *args, **kwargs):
            builds["engine"] += 1
            engine_init(self, *args, **kwargs)

        monkeypatch.setattr(structure_module.KripkeStructure, "__init__", counting_kripke)
        monkeypatch.setattr(labeling_module.LabelEngine, "__init__", counting_engine)
        base, patches, _ = chain(5, 2, 3)
        with SynthesisService() as service:
            job = service.submit(base)
            assert service.result(job.job_id).ok
            assert builds == {"kripke": 2, "engine": 1}  # final + init, cold
            for patch in patches:
                builds["kripke"] = 0
                job = service.submit_delta(job.fingerprint, patch)
                assert service.result(job.job_id).ok
                assert builds == {"kripke": 1, "engine": 1}


class TestColdFallbacks:
    """Every ineligible delta searches from a fresh structure, and its plan
    is the plan of the same delta with reuse switched off entirely."""

    def base_and_patch(self):
        base, patches, _ = chain(3, 3, 4)
        return base, patches[0]

    def run(self, base, patch, *, delta_options=None, between=()):
        service = SynthesisService()
        try:
            job = service.submit(base, job_id="base")
            assert service.result(job.job_id).ok
            for index, problem in enumerate(between):
                other = service.submit(problem, job_id=f"other{index}")
                service.result(other.job_id)
            delta = service.submit_delta(
                job.fingerprint, patch, options=delta_options, job_id="delta"
            )
            return service.result(delta.job_id)
        finally:
            service.close()

    def check(self, monkeypatch, handovers, base, patch, *, engine, **kwargs):
        result = self.run(base, patch, **kwargs)
        assert handovers["delta"] == (False, engine)
        with monkeypatch.context() as patched:
            patched.setattr(
                SynthesisService, "_handover", lambda self, job: Handover()
            )
            reference = self.run(base, patch, **kwargs)
        assert result.status is reference.status
        if reference.plan is not None:
            assert shape(result.plan) == shape(reference.plan)
            assert result.plan.stats.model_checks == reference.plan.stats.model_checks

    def test_eligible_control(self, handovers):
        base, patch = self.base_and_patch()
        assert self.run(base, patch).ok
        assert handovers["delta"] == (True, True)

    def test_link_edit(self, monkeypatch, handovers):
        base, patch = self.base_and_patch()
        link = base.topology.links[0]
        relinked = dataclasses.replace(
            patch,
            links_remove=[(link.node_a, link.node_b)],
            links_add=[(link.node_a, link.node_b, link.port_a, link.port_b)],
        )
        self.check(monkeypatch, handovers, base, relinked, engine=True)

    def test_spec_patch(self, monkeypatch, handovers):
        base, patch = self.base_and_patch()
        respecced = dataclasses.replace(patch, spec=base.spec_text)
        self.check(monkeypatch, handovers, base, respecced, engine=False)

    def test_ingress_patch(self, monkeypatch, handovers):
        base, patch = self.base_and_patch()
        tc, hosts = next(iter(base.ingresses.items()))
        retargeted = dataclasses.replace(patch, ingresses={tc.name: list(hosts)})
        self.check(monkeypatch, handovers, base, retargeted, engine=True)

    def test_non_incremental_checker(self, monkeypatch, handovers):
        base, patch = self.base_and_patch()
        self.check(
            monkeypatch,
            handovers,
            base,
            patch,
            engine=True,
            delta_options=SynthesisOptions(checker="batch"),
        )

    def test_init_is_not_the_base_final(self, monkeypatch, handovers):
        base, patch = self.base_and_patch()
        final_only = dataclasses.replace(patch, init_tables={})
        self.check(monkeypatch, handovers, base, final_only, engine=True)

    def test_base_evicted_past_the_retention_bound(self, monkeypatch, handovers):
        base, patch = self.base_and_patch()
        _, _, others = chain(3, 2, 3)
        _, _, more = chain(3, 1, 3)
        between = (others + more)[: engine_module.START_RETENTION]
        assert len(between) == engine_module.START_RETENTION
        self.check(monkeypatch, handovers, base, patch, engine=False, between=between)


class _MissingPlanCache(PlanCache):
    def get(self, key):
        return None


class TestBoundedState:
    def test_two_hundred_step_chain(self, handovers):
        """Flip one fan back and forth 200 times: the retained state stays
        within its bound, as does the one engine's atom cache."""
        first = onboarding_fan_problems(2, 1, 2)[0]
        # every step executes: the plan cache misses on every lookup, but
        # a delta still finds its base plan's unit order through peek
        service = SynthesisService(cache=_MissingPlanCache())
        try:
            job = service.submit(first, job_id="step000")
            assert service.result(job.job_id).ok
            engine = service._starts[job.fingerprint].engine
            engine._atom_cache_max = 8  # small enough that the bound bites
            problem = first
            cold = {}
            for step in range(1, 201):
                reverse = Problem(
                    topology=problem.topology,
                    ingresses=problem.ingresses,
                    init=problem.final,
                    final=problem.init,
                    spec=problem.spec,
                    spec_text=problem.spec_text,
                )
                patch = patch_between(problem, reverse)
                job = service.submit_delta(job.fingerprint, patch, job_id=f"step{step:03d}")
                result = service.result(job.job_id)
                problem = job.problem
                assert result.ok, (step, result.message)
                assert handovers[job.job_id] == (True, True), step
                key = step % 2
                if key not in cold:
                    cold[key] = cold_shape(problem)
                assert shape(result.plan) == cold[key], step
                assert len(service._starts) <= engine_module.START_RETENTION
                assert len(engine._atom_cache) <= 8
                assert all(state.engine is engine for state in service._starts.values())
        finally:
            service.close()
