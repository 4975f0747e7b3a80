"""Tests for the batch synthesis service (repro.service)."""

import json

import pytest

from repro.cli import main
from repro.errors import ParseError, ReproError
from repro.net.commands import RuleGranUpdate, SwitchUpdate, Wait
from repro.net.fields import TrafficClass
from repro.net.rules import Forward, Pattern, Rule, Table
from repro.net.serialize import (
    Problem,
    command_from_dict,
    command_to_dict,
    plan_from_dict,
    plan_to_dict,
    problem_from_dict,
    problem_to_dict,
)
from repro.service import (
    JobStatus,
    PlanCache,
    SynthesisOptions,
    SynthesisService,
    disk_cache_summary,
    problem_fingerprint,
)
from repro.synthesis.plan import UpdatePlan
from repro.topo import double_diamond, mini_datacenter, ring_diamond

TC = TrafficClass.make("h1_to_h3", src="H1", dst="H3")
RED = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
GREEN = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
SPEC = "dst=H3 => F at(H3)"


def fig1_problem(spec_text=SPEC):
    from repro.ltl.parser import parse
    from repro.net.config import Configuration

    topo = mini_datacenter()
    return Problem(
        topology=topo,
        ingresses={TC: ["H1"]},
        init=Configuration.from_paths(topo, {TC: RED}),
        final=Configuration.from_paths(topo, {TC: GREEN}),
        spec=parse(spec_text),
        spec_text=spec_text,
    )


def scenario_problem(scenario):
    return Problem(
        topology=scenario.topology,
        ingresses={tc: list(h) for tc, h in scenario.ingresses.items()},
        init=scenario.init,
        final=scenario.final,
        spec=scenario.spec,
        spec_text=str(scenario.spec),
    )


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_object_identity(self):
        assert problem_fingerprint(fig1_problem()) == problem_fingerprint(
            fig1_problem()
        )

    def test_insensitive_to_link_rule_and_class_order(self):
        data = problem_to_dict(fig1_problem())
        shuffled = json.loads(json.dumps(data))
        shuffled["topology"]["links"] = list(reversed(shuffled["topology"]["links"]))
        # flip one link's endpoint orientation too
        a, b, pa, pb = shuffled["topology"]["links"][0]
        shuffled["topology"]["links"][0] = [b, a, pb, pa]
        shuffled["topology"]["switches"] = list(
            reversed(shuffled["topology"]["switches"])
        )
        for table in shuffled["init"].values():
            table.reverse()
        shuffled["classes"] = list(reversed(shuffled["classes"]))
        assert problem_fingerprint(problem_from_dict(data)) == problem_fingerprint(
            problem_from_dict(shuffled)
        )

    def test_insensitive_to_spec_formatting(self):
        assert problem_fingerprint(
            fig1_problem("dst=H3 => F at(H3)")
        ) == problem_fingerprint(fig1_problem("dst=H3   =>  (F at(H3))"))

    def test_sensitive_to_content(self):
        base = problem_fingerprint(fig1_problem())
        assert problem_fingerprint(fig1_problem("dst=H3 => F at(A1)")) != base

    def test_options_change_fingerprint_but_timeout_does_not(self):
        problem = fig1_problem()
        a = problem_fingerprint(problem, {"granularity": "switch", "timeout": 1})
        b = problem_fingerprint(problem, {"granularity": "switch", "timeout": 99})
        c = problem_fingerprint(problem, {"granularity": "rule"})
        assert a == b
        assert a != c


def reference_fingerprint(problem, options=None):
    """The fingerprint as first written: one canonical dict for the whole
    problem, serialized in one ``json.dumps`` call.  ``problem_fingerprint``
    now assembles the same bytes from per-table cached encodings."""
    import hashlib

    from repro.net.serialize import rule_to_dict

    def canonical_json(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    def canonical_topology(topology):
        links = []
        for link in topology.links:
            a = [link.node_a, link.port_a]
            b = [link.node_b, link.port_b]
            links.append(a + b if a <= b else b + a)
        return {
            "switches": sorted(topology.switches),
            "hosts": sorted(topology.hosts),
            "links": sorted(links),
        }

    def canonical_config(config):
        return {
            switch: sorted(
                (rule_to_dict(rule) for rule in config.table(switch)),
                key=canonical_json,
            )
            for switch in sorted(config.switches())
        }

    classes = sorted(
        (
            {
                "name": tc.name,
                "fields": sorted(tc.field_map().items()),
                "ingress": sorted(str(h) for h in hosts),
            }
            for tc, hosts in problem.ingresses.items()
        ),
        key=lambda entry: entry["name"],
    )
    payload = {
        "topology": canonical_topology(problem.topology),
        "classes": classes,
        "init": canonical_config(problem.init),
        "final": canonical_config(problem.final),
        "spec": str(problem.spec),
    }
    if options:
        payload["options"] = {str(k): v for k, v in options.items() if k != "timeout"}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class TestFingerprintIdentity:
    """Byte-identical to the single-dict encoding, on every corpus suite
    and along delta chains that share tables with their bases, for
    problems built in process and for the same problems decoded from
    their wire documents (whose equal tables are one object)."""

    @pytest.mark.parametrize("suite", ["smoke", "full", "zoo", "churn"])
    def test_every_corpus_suite(self, suite):
        from repro.scenarios.corpus import generate_corpus

        for record in generate_corpus(suite):
            options = SynthesisOptions(granularity=record.granularity).identity_dict()
            parsed = problem_from_dict(json.loads(json.dumps(problem_to_dict(record.problem))))
            for opts in (None, options, {"timeout": 5}):
                expected = reference_fingerprint(record.problem, opts)
                assert problem_fingerprint(record.problem, opts) == expected, record.scenario_id
                assert problem_fingerprint(parsed, opts) == expected, record.scenario_id
                assert reference_fingerprint(parsed, opts) == expected, record.scenario_id

    def test_delta_chain(self):
        from repro.net.delta import ProblemPatch
        from repro.scenarios.churn import generate_churn

        for trace in generate_churn():
            problem = trace.records[0].problem
            parsed = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
            problem_fingerprint(problem)  # warm the base's table encodings
            problem_fingerprint(parsed)
            for patch in trace.patches:
                problem = patch.apply_to(problem)
                wire = json.loads(json.dumps(patch.to_dict()))
                parsed = ProblemPatch.from_dict(wire).apply_to(parsed)
                expected = reference_fingerprint(problem)
                assert problem_fingerprint(problem) == expected
                assert problem_fingerprint(parsed) == expected

    def test_cached_table_encoding_does_not_cross_pickle(self):
        import pickle

        table = Table(
            [
                Rule(1, Pattern.make(dst="H3"), (Forward(2),)),
                Rule(1, Pattern.make(1, dst="H1"), (Forward(3),)),
            ]
        )
        encoded = table.canonical_json()
        clone = pickle.loads(pickle.dumps(table))
        assert clone._json is None
        assert clone.canonical_json() == encoded

    def test_pickling_strips_cached_hashes(self):
        """Cached hashes are process-salt-specific; pickles must drop them
        so the receiving process rehashes equal objects consistently.
        Kripke states cache nothing: they are interned, so a round trip
        yields the interned object itself."""
        import pickle

        from repro.kripke.structure import KripkeStructure

        problem = fig1_problem()
        table = problem.init.table("T1")
        hash(table)  # populate the cache
        clone = pickle.loads(pickle.dumps(table))
        assert clone._hash is None
        assert clone == table and hash(clone) == hash(table)
        structure = KripkeStructure(problem.topology, problem.init, problem.ingresses)
        state = structure.initial_states[0]
        state_clone = pickle.loads(pickle.dumps(state))
        assert state_clone is state
        assert state_clone == state and hash(state_clone) == hash(state)


# ----------------------------------------------------------------------
# plan (de)serialization
# ----------------------------------------------------------------------
class TestPlanRoundTrip:
    def make_plan(self):
        table = Table([Rule(1, Pattern.make(dst="H3"), (Forward(2),))])
        return UpdatePlan(
            [
                SwitchUpdate("T1", table),
                Wait(),
                RuleGranUpdate("A1", TC, table),
            ],
            granularity="rule",
        )

    def test_plan_roundtrip(self):
        plan = self.make_plan()
        plan.stats.warm_units = 4
        clone = plan_from_dict(plan_to_dict(plan), {TC.name: TC})
        assert clone.granularity == "rule"
        assert clone.commands == plan.commands
        assert clone.stats.warm_units == 4

    def test_unknown_class_falls_back_to_nameonly(self):
        data = command_to_dict(RuleGranUpdate("A1", TC, Table([])))
        command = command_from_dict(data)
        assert isinstance(command, RuleGranUpdate)
        assert command.tc.name == TC.name
        assert command.tc.fields == ()

    def test_bad_command_rejected(self):
        with pytest.raises(ParseError):
            command_from_dict({"op": "noop"})


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        plans = {k: UpdatePlan([]) for k in "abc"}
        for key, plan in plans.items():
            cache.put(key, plan)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None  # evicted
        assert cache.get("c") is not None

    def test_get_returns_fresh_objects(self):
        cache = PlanCache()
        cache.put("k", UpdatePlan([Wait()]))
        first = cache.get("k")
        second = cache.get("k")
        assert first is not second
        assert first.commands == second.commands

    def test_disk_tier_survives_new_instance(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = PlanCache(capacity=4, directory=directory)
        cache.put("deadbeef", UpdatePlan([Wait()]))
        cache.persist_stats()

        fresh = PlanCache(capacity=4, directory=directory)
        plan = fresh.get("deadbeef")
        assert plan is not None
        assert fresh.stats.disk_hits == 1

        summary = disk_cache_summary(directory)
        assert summary["entries"] == 1
        assert summary["total_bytes"] > 0
        assert summary["counters"]["puts"] == 1

    def test_persist_stats_accumulates(self, tmp_path):
        directory = str(tmp_path / "cache")
        for _ in range(2):
            cache = PlanCache(directory=directory)
            cache.put("k", UpdatePlan([]))
            cache.persist_stats()
        assert disk_cache_summary(directory)["counters"]["puts"] == 2

    def test_persist_stats_closes_lock_handle_when_flock_fails(
        self, tmp_path, monkeypatch
    ):
        """Regression: a lock file opened successfully must be closed when
        flock itself refuses — the lockless fallback used to leak the fd.
        The fallback also warns (once per process), instead of silently
        risking lost increments."""
        import builtins
        import fcntl

        from repro.service import cache as cache_module

        def refuse_flock(handle, flags):
            raise OSError("locks not supported here")

        opened = []
        real_open = builtins.open

        def tracking_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if str(path).endswith(".lock"):
                opened.append(handle)
            return handle

        monkeypatch.setattr(fcntl, "flock", refuse_flock)
        monkeypatch.setattr(builtins, "open", tracking_open)
        monkeypatch.setattr(cache_module, "_warned_lockless", False)
        cache = PlanCache(directory=str(tmp_path / "cache"))
        cache.put("k", UpdatePlan([]))
        with pytest.warns(RuntimeWarning, match="lockless"):
            cache.persist_stats()
        assert len(opened) == 1 and opened[0].closed
        # the stats still merged, and the warning fires only once
        assert disk_cache_summary(str(tmp_path / "cache"))["counters"]["puts"] == 1
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            cache.persist_stats()


# ----------------------------------------------------------------------
# the service engine
# ----------------------------------------------------------------------
class TestServiceSerial:
    def test_cache_hit_on_identical_problem_different_identity(self):
        service = SynthesisService(workers=0)
        first = service.run_problems([fig1_problem()])[0]
        assert first.status is JobStatus.DONE and not first.cached
        # an equal problem rebuilt from scratch (different object identity)
        clone = problem_from_dict(problem_to_dict(fig1_problem()))
        second = service.run_problems([clone])[0]
        assert second.status is JobStatus.DONE and second.cached
        assert second.fingerprint == first.fingerprint
        assert plan_to_dict(second.plan) == plan_to_dict(first.plan)
        assert service.cache.stats.hits == 1

    def test_batch_with_infeasible_and_timeout(self):
        service = SynthesisService(workers=0)
        ok_job = service.submit(fig1_problem(), job_id="ok")
        service.submit(
            scenario_problem(double_diamond(8, seed=1)), job_id="impossible"
        )
        service.submit(
            scenario_problem(ring_diamond(8, seed=2)), job_id="slow", timeout=0.0
        )
        results = {r.job_id: r for r in service.stream()}
        assert results["ok"].status is JobStatus.DONE
        assert results["impossible"].status is JobStatus.INFEASIBLE
        assert results["slow"].status is JobStatus.TIMEOUT
        assert ok_job.status is JobStatus.DONE
        # failures are never cached
        assert len(service.cache) == 1
        metrics = service.metrics_dict()
        assert metrics["completed"] == 3
        assert metrics["by_status"] == {"done": 1, "infeasible": 1, "timeout": 1}

    def test_duplicate_jobs_coalesce(self):
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="a")
        service.submit(fig1_problem(), job_id="b")
        results = {r.job_id: r for r in service.stream()}
        assert results["a"].status is JobStatus.DONE
        assert results["b"].status is JobStatus.DONE
        assert service.metrics.coalesced == 1
        assert "coalesced" in results["b"].message

    def test_different_timeouts_do_not_coalesce(self):
        # a "timeout" verdict under a tiny budget must not be fanned out to
        # an identical job submitted with a generous (or absent) budget
        service = SynthesisService(workers=0)
        problem = scenario_problem(ring_diamond(8, seed=2))
        service.submit(problem, job_id="tiny", timeout=0.0)
        service.submit(problem, job_id="patient")
        results = {r.job_id: r for r in service.stream()}
        assert results["tiny"].status is JobStatus.TIMEOUT
        assert results["patient"].status is JobStatus.DONE
        assert service.metrics.coalesced == 0

    def test_portfolio_takes_first_definitive(self):
        service = SynthesisService(workers=0)
        service.submit(
            fig1_problem(),
            options=SynthesisOptions(portfolio=("incremental", "batch")),
        )
        result = service.run()[0]
        assert result.status is JobStatus.DONE
        assert result.backend in ("incremental", "batch")

    def test_run_preserves_submission_order(self):
        service = SynthesisService(workers=0)
        service.submit(scenario_problem(ring_diamond(6, seed=1)), job_id="one")
        service.submit(fig1_problem(), job_id="two")
        assert [r.job_id for r in service.run()] == ["one", "two"]

    def test_use_plan_cache_false_forces_resynthesis(self):
        service = SynthesisService(workers=0)
        options = SynthesisOptions(use_plan_cache=False)
        first = service.submit(fig1_problem(), options=options)
        second = service.submit(fig1_problem(), options=options)
        results = {res.job_id: res for res in service.stream()}
        assert results[first.job_id].status is JobStatus.DONE
        repeat = results[second.job_id]
        assert repeat.status is JobStatus.DONE
        # without the gate the repeat would be served from the plan cache
        assert not repeat.cached


class TestServicePool:
    def test_pool_batch_over_examples(self):
        service = SynthesisService(workers=2)
        service.submit(fig1_problem(), job_id="ok")
        service.submit(
            scenario_problem(ring_diamond(6, seed=3)), job_id="ring"
        )
        service.submit(
            scenario_problem(double_diamond(8, seed=1)), job_id="impossible"
        )
        service.submit(
            scenario_problem(ring_diamond(10, seed=4)), job_id="slow", timeout=0.0
        )
        results = {r.job_id: r for r in service.stream()}
        assert results["ok"].status is JobStatus.DONE
        assert results["ring"].status is JobStatus.DONE
        assert results["impossible"].status is JobStatus.INFEASIBLE
        assert results["slow"].status is JobStatus.TIMEOUT
        assert results["ok"].plan is not None
        assert results["ok"].plan.num_updates() > 0

    def test_pool_portfolio_race(self):
        service = SynthesisService(workers=2)
        service.submit(
            scenario_problem(double_diamond(8, seed=1)),
            options=SynthesisOptions(portfolio=("incremental", "batch")),
        )
        result = service.run()[0]
        assert result.status is JobStatus.INFEASIBLE

    def test_pool_plans_match_serial(self):
        """A 2-job batch on one topology, ingress map and spec (forward
        and reverse updates) must report the same plans whether it runs
        serially or on the pool."""
        from repro.scenarios import generate_corpus

        records = generate_corpus("smoke", quick=True)
        record = next(
            r for r in records if r.scenario_id == "diamond/chained2x2/chain/baseline"
        )
        forward = record.problem
        reverse = Problem(
            topology=forward.topology,
            ingresses=forward.ingresses,
            init=forward.final,
            final=forward.init,
            spec=forward.spec,
            spec_text=forward.spec_text,
        )
        plans = {}
        for workers in (0, 2):
            service = SynthesisService(workers=workers)
            opts = SynthesisOptions(granularity=record.granularity)
            service.submit(forward, job_id="fwd", options=opts)
            service.submit(reverse, job_id="rev", options=opts)
            results = {r.job_id: r for r in service.stream()}
            for result in results.values():
                assert result.status is JobStatus.DONE
            plans[workers] = {
                job_id: (result.plan.granularity, list(result.plan.commands))
                for job_id, result in results.items()
            }
        assert plans[0] == plans[2]


class TestServicePoolFailures:
    """The pool path must settle every job — no job left RUNNING — under
    worker errors, race cancellations, and a breaking pool."""

    def assert_all_settled(self, jobs, results):
        assert set(results) == {job.job_id for job in jobs}
        for job in jobs:
            assert job.status.terminal, f"{job.job_id} left {job.status}"

    def test_worker_error_settles_the_job(self):
        service = SynthesisService(workers=2)
        jobs = [
            service.submit(
                fig1_problem(),
                job_id="boom",
                options=SynthesisOptions(checker="no-such-backend"),
            ),
            service.submit(fig1_problem(), job_id="ok"),
        ]
        results = {r.job_id: r for r in service.stream()}
        self.assert_all_settled(jobs, results)
        assert results["boom"].status is JobStatus.ERROR
        assert results["ok"].status is JobStatus.DONE

    def test_portfolio_cancellation_across_groups(self):
        # two portfolio groups on two workers: each group's first definitive
        # verdict cancels (or skips) the sibling backend's payload
        service = SynthesisService(workers=2)
        opts = SynthesisOptions(portfolio=("incremental", "batch"))
        jobs = [
            service.submit(fig1_problem(), job_id="feasible", options=opts),
            service.submit(
                scenario_problem(double_diamond(8, seed=1)),
                job_id="impossible",
                options=opts,
            ),
        ]
        results = {r.job_id: r for r in service.stream()}
        self.assert_all_settled(jobs, results)
        assert results["feasible"].status is JobStatus.DONE
        assert results["impossible"].status is JobStatus.INFEASIBLE

    def test_broken_process_pool_mid_batch_degrades_inline(self, monkeypatch):
        """First submission's worker dies, the next submission raises
        BrokenProcessPool: remaining payloads must run inline and every job
        must still settle."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.service import engine as engine_module

        class BreakingExecutor:
            def __init__(self, max_workers):
                self.calls = 0

            def submit(self, fn, *args, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    future = Future()
                    future.set_exception(BrokenProcessPool("worker died"))
                    return future
                raise BrokenProcessPool("pool is dead")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", BreakingExecutor)
        service = SynthesisService(workers=2)
        jobs = [
            service.submit(fig1_problem(), job_id="first"),
            service.submit(
                scenario_problem(ring_diamond(6, seed=3)), job_id="second"
            ),
            service.submit(
                scenario_problem(double_diamond(8, seed=1)), job_id="third"
            ),
        ]
        results = {r.job_id: r for r in service.stream()}
        self.assert_all_settled(jobs, results)
        assert results["first"].status is JobStatus.ERROR
        assert "BrokenProcessPool" in results["first"].message
        assert results["second"].status is JobStatus.DONE
        assert results["third"].status is JobStatus.INFEASIBLE


# ----------------------------------------------------------------------
# the continuous scheduler
# ----------------------------------------------------------------------
class TestContinuousScheduler:
    def test_submit_during_active_stream_settles_every_job(self):
        """Acceptance: submit() while a stream is consuming is legal; the
        late job is executed by the running scheduler and nothing is left
        RUNNING (or QUEUED) after a drain."""
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="early-1")
        service.submit(
            scenario_problem(ring_diamond(6, seed=1)), job_id="early-2"
        )
        stream = service.stream()
        first = next(stream)  # the scheduler is live now
        late = service.submit(
            scenario_problem(ring_diamond(8, seed=2)), job_id="late"
        )
        streamed = [first] + list(stream)
        # the stream claimed only the jobs present when it started
        assert {r.job_id for r in streamed} == {"early-1", "early-2"}
        late_result = service.result("late", timeout=60)
        assert late_result.status is JobStatus.DONE
        assert late.status is JobStatus.DONE
        assert all(status.terminal for status in service.poll().values())

    def test_result_poll_and_drain(self):
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="a")
        service.submit(
            scenario_problem(double_diamond(8, seed=1)), job_id="b"
        )
        assert service.poll() == {
            "a": JobStatus.QUEUED, "b": JobStatus.QUEUED,
        }
        assert service.result("a", timeout=60).status is JobStatus.DONE
        results = service.drain(timeout=60)
        assert [r.job_id for r in results] == ["a", "b"]
        assert results[1].status is JobStatus.INFEASIBLE
        assert all(status.terminal for status in service.poll().values())
        with pytest.raises(KeyError):
            service.result("nonexistent")

    def test_cancel_queued_job_before_scheduler_starts(self):
        service = SynthesisService(workers=0)
        job = service.submit(fig1_problem(), job_id="victim")
        assert service.cancel("victim") is True
        assert job.status is JobStatus.CANCELLED
        result = service.try_result("victim")
        assert result is not None and result.status is JobStatus.CANCELLED
        # a settled job cannot be cancelled again
        assert service.cancel("victim") is False
        # the stream delivers the cancellation like any other verdict
        assert [r.status for r in service.stream()] == [JobStatus.CANCELLED]

    def test_duplicate_open_id_rejected_settled_id_replaced(self):
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="j")
        with pytest.raises(ReproError, match="duplicate"):
            service.submit(fig1_problem(), job_id="j")
        first = service.result("j", timeout=60)
        assert first.status is JobStatus.DONE and not first.cached
        # a settled id starts a new generation — served from the warm cache
        service.submit(fig1_problem(), job_id="j")
        second = service.result("j", timeout=60)
        assert second.status is JobStatus.DONE and second.cached

    def test_close_cancels_queued_jobs(self):
        service = SynthesisService(workers=0)
        job = service.submit(fig1_problem(), job_id="doomed")
        service.close()
        assert job.status is JobStatus.CANCELLED
        with pytest.raises(ReproError, match="closed"):
            service.submit(fig1_problem())

    def test_context_manager_runs_then_closes(self):
        with SynthesisService(workers=0) as service:
            result = service.result(
                service.submit(fig1_problem()).job_id, timeout=60
            )
            assert result.status is JobStatus.DONE
        with pytest.raises(ReproError, match="closed"):
            service.start()

    def test_metrics_gauges_serialize(self):
        service = SynthesisService(workers=0)
        service.run_problems([fig1_problem()])
        metrics = service.metrics_dict()
        gauges = metrics["gauges"]
        assert gauges["queue_depth"] == 0
        assert gauges["in_flight"] == 0
        assert gauges["uptime_seconds"] >= 0.0
        json.dumps(metrics)  # the whole document must be JSON-safe

    def test_eviction_forgets_unclaimed_settled_results(self, monkeypatch):
        """Fire-and-forget submissions (settled, never claimed) must be
        evictable, or a long-lived server grows without bound."""
        import repro.service.engine as engine_module

        monkeypatch.setattr(engine_module, "RESULT_RETENTION", 2)
        service = SynthesisService(workers=0)
        service.start()
        for index in range(5):
            service.submit(fig1_problem(), job_id=f"forgotten-{index}")
        service.wait_idle(timeout=60)
        service.submit(fig1_problem(), job_id="last")
        service.result("last", timeout=60)
        known = service.poll()
        assert len(known) <= 3  # retention bound (+ the in-flight margin)
        assert "last" in known
        assert "forgotten-0" not in known
        with pytest.raises(KeyError):
            service.try_result("forgotten-0")
        service.close()

    def test_crash_during_cache_lookup_settles_the_batch(self, monkeypatch):
        """A corrupt cache entry (lookup raises) must settle the drained
        jobs as errors, not kill the scheduler with waiters blocked."""
        service = SynthesisService(workers=0)

        def broken_get(fingerprint, classes=None):
            raise TypeError("corrupt cache entry")

        monkeypatch.setattr(service.cache, "get", broken_get)
        service.submit(fig1_problem(), job_id="victim")
        result = service.result("victim", timeout=60)
        assert result.status is JobStatus.ERROR
        assert "corrupt cache entry" in result.message
        service.close()

    def test_coalesced_siblings_report_running(self, monkeypatch):
        """Every job of an executing fingerprint group must show RUNNING —
        a 'queued' sibling of a running execution misleads monitoring."""
        import threading

        import repro.service.engine as engine_module

        gate = threading.Event()
        entered = threading.Event()
        original = engine_module._execute_problem

        def gated(problem, options_data, backend, *args):
            entered.set()
            gate.wait(timeout=60)
            return original(problem, options_data, backend, *args)

        monkeypatch.setattr(engine_module, "_execute_problem", gated)
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="a")
        service.submit(fig1_problem(), job_id="b")  # same fingerprint
        service.start()
        assert entered.wait(timeout=60)
        statuses = service.poll()
        assert statuses["a"] is JobStatus.RUNNING
        assert statuses["b"] is JobStatus.RUNNING
        gate.set()
        service.drain(timeout=60)
        service.close()

    def test_consumer_started_scheduler_exits_when_idle(self):
        """Batch-style use must not leak a parked scheduler thread."""
        import threading
        import time

        def scheduler_threads():
            return [
                thread
                for thread in threading.enumerate()
                if thread.name == "repro-scheduler" and thread.is_alive()
            ]

        before = len(scheduler_threads())
        service = SynthesisService(workers=0)
        service.run_problems([fig1_problem()])
        for _ in range(100):  # the thread exits asynchronously
            if len(scheduler_threads()) <= before:
                break
            time.sleep(0.02)
        assert len(scheduler_threads()) <= before
        # ...and a later consumer transparently restarts it
        service.submit(fig1_problem(), job_id="again")
        assert service.result("again", timeout=60).status is JobStatus.DONE

    def test_result_waiter_protected_from_eviction(self, monkeypatch):
        """A result() caller blocked on a job must receive its result even
        under the most aggressive retention pressure."""
        import repro.service.engine as engine_module

        monkeypatch.setattr(engine_module, "RESULT_RETENTION", 0)
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="watched")
        result = service.result("watched", timeout=60)
        assert result.status is JobStatus.DONE
        service.close()

    def test_in_flight_attach_coalesces_independent_submissions(self, monkeypatch):
        """A submission matching a currently-executing fingerprint attaches
        to that execution instead of running again."""
        import threading

        import repro.service.engine as engine_module

        gate = threading.Event()
        entered = threading.Event()
        original = engine_module._execute_problem

        def gated(problem, options_data, backend, *args):
            entered.set()
            gate.wait(timeout=60)
            return original(problem, options_data, backend, *args)

        monkeypatch.setattr(engine_module, "_execute_problem", gated)
        service = SynthesisService(workers=0)
        service.submit(fig1_problem(), job_id="first")
        service.start()
        assert entered.wait(timeout=60)
        # the scheduler is inside "first"'s execution: this submission
        # attaches to the in-flight group
        attached = service.submit(fig1_problem(), job_id="attached")
        assert attached.status is JobStatus.RUNNING
        gate.set()
        results = {r.job_id: r for r in service.drain(timeout=60)}
        assert results["first"].status is JobStatus.DONE
        assert results["attached"].status is JobStatus.DONE
        assert "coalesced" in results["attached"].message
        assert service.metrics.coalesced == 1
        service.close()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestBatchCli:
    def write_jsonl(self, tmp_path, docs):
        path = tmp_path / "problems.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        return str(path)

    def batch_docs(self):
        ok = problem_to_dict(fig1_problem())
        ok["id"] = "ok"
        bad = problem_to_dict(scenario_problem(double_diamond(8, seed=1)))
        bad["id"] = "impossible"
        slow = problem_to_dict(scenario_problem(ring_diamond(8, seed=2)))
        slow["id"] = "slow"
        slow["timeout"] = 0.0
        return [ok, bad, slow]

    def test_batch_streams_jsonl(self, tmp_path, capsys):
        path = self.write_jsonl(tmp_path, self.batch_docs())
        assert main(["batch", path, "--serial", "--no-plans"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        by_id = {entry["id"]: entry for entry in lines}
        assert by_id["ok"]["status"] == "done"
        assert by_id["impossible"]["status"] == "infeasible"
        assert by_id["slow"]["status"] == "timeout"
        assert all("plan" not in entry for entry in lines)

    @pytest.mark.parametrize("mode", [["--serial"], ["--workers", "2"]])
    def test_batch_stats_count_the_finished_batch(self, tmp_path, capsys, mode):
        # the last result is published inside the batch timer; the stats
        # read after the stream must still include the batch's wall time
        path = self.write_jsonl(tmp_path, self.batch_docs()[:2])
        assert main(["batch", path, *mode, "--no-plans", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err)
        assert stats["completed"] == 2
        assert stats["wall_seconds"] > 0
        assert stats["throughput_jobs_per_s"] > 0

    def test_batch_includes_plans_and_warm_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        path = self.write_jsonl(tmp_path, self.batch_docs()[:1])
        assert main(["batch", path, "--serial", "--cache-dir", cache_dir]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first["cached"] is False
        assert first["plan"]["commands"]

        assert main(["batch", path, "--serial", "--cache-dir", cache_dir]) == 0
        second = json.loads(capsys.readouterr().out.splitlines()[0])
        assert second["cached"] is True
        assert second["plan"] == first["plan"]

    def test_cache_stats_subcommand(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        path = self.write_jsonl(tmp_path, self.batch_docs()[:1])
        main(["batch", path, "--serial", "--cache-dir", cache_dir, "--no-plans"])
        capsys.readouterr()
        assert main(["cache-stats", cache_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] == 1
        assert summary["counters"]["puts"] == 1

    def test_batch_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        assert main(["batch", str(path)]) == 4

    def test_batch_rejects_non_numeric_timeout(self, tmp_path, capsys):
        doc = problem_to_dict(fig1_problem())
        doc["timeout"] = "5"
        path = self.write_jsonl(tmp_path, [doc])
        assert main(["batch", path]) == 4
        assert "'timeout' must be a number" in capsys.readouterr().err

    def test_batch_rejects_unknown_portfolio_backend(self, tmp_path, capsys):
        path = self.write_jsonl(tmp_path, self.batch_docs()[:1])
        with pytest.raises(SystemExit):
            main(["batch", path, "--portfolio", "increnemtal"])
        assert "unknown backend" in capsys.readouterr().err

    def test_batch_portfolio_accepts_spaces(self, tmp_path, capsys):
        path = self.write_jsonl(tmp_path, self.batch_docs()[:1])
        assert main(["batch", path, "--serial", "--no-plans",
                     "--portfolio", "incremental, batch"]) == 0
        entry = json.loads(capsys.readouterr().out.splitlines()[0])
        assert entry["status"] == "done"

    def test_synthesize_exit_codes(self, tmp_path, capsys):
        from repro.net.serialize import save_problem

        infeasible = tmp_path / "infeasible.json"
        save_problem(scenario_problem(double_diamond(8, seed=1)), str(infeasible))
        assert main(["synthesize", str(infeasible)]) == 2

        feasible = tmp_path / "feasible.json"
        save_problem(fig1_problem(), str(feasible))
        assert main(["synthesize", str(feasible), "--timeout", "0"]) == 3

        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["synthesize", str(bad)]) == 4
