"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``synthesize PROBLEM.json`` — run the synthesizer on a problem file (see
  :mod:`repro.net.serialize` for the format) and print the plan (or the
  infeasibility verdict).  ``--json`` emits the plan machine-readably.
* ``check PROBLEM.json`` — model check the problem's *initial* (or, with
  ``--final``, final) configuration against its specification.  ``--json``
  emits the verdict machine-readably (ok flag, counterexample trace,
  checker backend, build/check timings), mirroring ``synthesize --json``.
* ``serve`` — run the long-lived synthesis server: the continuous
  scheduler core behind the ``repro-api/1`` HTTP JSON API
  (:mod:`repro.service.server`).  ``POST /v1/jobs`` accepts single and
  batch submissions; jobs from independent clients share the plan cache,
  the verdict-memo pool, and fingerprint coalescing.
* ``loadtest --suite NAME`` — replay a scenario corpus against a server
  from N concurrent clients for several rounds and write a
  ``repro-loadtest/1`` JSON report (p50/p99 latency, throughput, memo and
  plan-cache hit rates per round).  Without ``--server`` it self-hosts
  one.
* ``submit PROBLEM.json --server URL`` — submit one problem to a running
  server and (by default) wait for the verdict; exit codes match
  ``synthesize`` exactly (0 plan, 2 infeasible, 3 timeout, 4 parse).
* ``demo NAME`` — write a ready-made problem file (``fig1-green``,
  ``fig1-blue``, ``double-diamond``) to stdout, for experimenting with the
  other subcommands.
* ``experiment NAME`` — run one of the paper-figure experiment drivers
  (``fig2a``, ``fig2b``, ``fig7-zoo``, ``fig7-fattree``, ``fig7-smallworld``,
  ``fig7-netplumber``, ``fig8g``, ``fig8h``, ``fig8i``, ``ablations``) and
  print its table.
* ``batch PROBLEMS.jsonl`` — run many problems through the
  :mod:`repro.service` batch engine (worker pool + content-addressed plan
  cache + cross-job verdict-memo sharing) and stream one JSON result object
  per line to stdout.  Each input line is a problem document (the
  ``synthesize`` format), optionally with extra ``"id"``, ``"timeout"`` and
  ``"granularity"`` keys; a line with ``"base"``/``"patch"`` keys instead
  is a *delta* against an earlier line's job (``repro corpus --suite
  churn`` emits such streams) — the batch front-end settles the base
  first, then submits the patch so the base plan warm-starts the search.
  ``--shards N`` races N disjoint slices of each
  job's search space across the worker pool.  An empty (or comment-only)
  file is a valid empty batch: the result stream is empty and the exit
  status is 0.  With ``--server URL`` the batch routes through
  :class:`~repro.service.client.ReproClient` to a running ``repro serve``
  instead of an in-process engine — same JSONL output, same exit codes.
* ``analyze [PROBLEM.json ...] [--suite NAME]`` — statically lint problems
  (:mod:`repro.analysis`): per-class reachability over both endpoint
  configurations, spec vacuity, dead rules, unreachable switches, and
  sound infeasibility certificates — no model checking.  ``--json`` emits
  the ``repro-analysis/1`` document; error-level diagnostics map onto the
  shared exit-code taxonomy (statically-proven infeasible → 2, parse
  problems → 4, other errors → 1).
* ``corpus --suite NAME`` — generate a deterministic scenario corpus
  (:mod:`repro.scenarios`) in the ``batch`` JSONL format.  ``--suite
  dataset:DIR`` replays a built dataset directory instead.
* ``dataset build|list|verify`` — the versioned dataset registry
  (:mod:`repro.datasets`): ``build`` ingests topology sources (builtin
  zoo, synthetic zoo-scale WANs, ``--gml-dir`` directories of Topology
  Zoo GML), derives role-keyed specs validated with the static analyzer,
  and writes ``problems.jsonl`` plus a sealed ``repro-dataset/1``
  manifest; ``verify`` recomputes every content hash and fails on drift;
  ``list`` summarizes the datasets under a directory.  Built datasets run
  through ``batch``/``bench``/``analyze``/``judge`` as ``dataset:DIR``
  suites, and their ``robust``-perturbation rows carry a single-link
  failure robustness summary on the result line.
* ``bench --suite NAME`` — run a scenario suite through the service engine
  and write a schema-versioned ``BENCH_<suite>.json`` (per-scenario wall
  time, model-checker calls, cache hits, plan shape, verdict-memo
  counters); ``bench --compare BASELINE CURRENT`` diffs two such documents
  (reporting the median per-scenario speedup) and exits non-zero when a
  regression exceeds ``--threshold``.  ``--no-memo`` disables the
  cross-candidate verdict memo for A/B runs.  ``--suite churn`` runs the
  two-pass delta benchmark (:mod:`repro.bench.churn`): every churn trace
  replayed cold and as chained deltas, self-gated on the median delta
  speedup (exit 1 below target).
  ``--history PATH`` additionally appends the finished run to a
  ``repro-bench-history/1`` JSONL trajectory, so runs accumulate instead
  of overwriting each other.
* ``report HISTORY`` — read a bench history file and render trend tables
  (per-scenario seconds, plan-cache/verdict-memo hit rates, per-family
  scaling) plus a regression summary of the latest run against an anchor
  run (``--anchor`` / ``--anchor-sha``); exits non-zero when the latest
  run regressed past the noise floor.  ``--json`` emits the
  ``repro-report/1`` document.
* ``judge --suite NAME`` — replay a scenario suite across checker
  backends (default: incremental, batch, netplumber, symbolic) and fail
  (non-zero exit, scenario named) if any backends disagree on the verdict
  or the normalized plan; also flags portfolio-race picks that were
  measurably slower than a losing backend.  ``--json`` emits the
  ``repro-judge/1`` document.
* ``profile --suite NAME`` — run a suite in-process and write a
  schema-versioned ``PROFILE_<suite>.json`` attributing wall time to
  phases (labeling, SAT ordering, wait removal, memo probes).
* ``cache-stats DIR`` — summarize an on-disk plan cache directory
  (entry count, bytes, cumulative hit/miss counters).  With
  ``--server URL`` it asks a running server instead.

Exit status codes (the shared taxonomy lives in :mod:`repro.errors` —
:func:`repro.errors.exit_code_for` — and is also what the server's error
envelope carries, so every front-end agrees):

* ``0`` — success (for ``batch``: every job settled without an ``error``
  status; individual ``infeasible``/``timeout`` verdicts are *results*, not
  failures, and are reported in the output stream);
* ``1`` — generic failure (library error, violation found by ``check``,
  some ``batch`` job errored);
* ``2`` — the synthesis problem is infeasible (``synthesize``, ``submit``);
* ``3`` — synthesis exceeded its time budget (``synthesize``, ``submit``);
* ``4`` — input could not be parsed (bad problem file, LTL syntax error,
  malformed JSONL line, bad request document).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type names for BatchJob only
    from repro.net.delta import ProblemPatch

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
    exit_code_for,
)
from repro.kripke.structure import KripkeStructure
from repro.mc.interface import CHECKER_NAMES, make_checker
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.serialize import (
    Problem,
    load_problem,
    plan_to_dict,
    problem_from_dict,
    problem_to_dict,
)
from repro.synthesis import UpdateSynthesizer
from repro.topo import double_diamond, mini_datacenter

# Exit codes and checker names are re-exported here for backwards
# compatibility; the canonical definitions live in repro.errors (shared
# with the wire-API error envelope) and repro.mc.interface.
__all__ = [
    "EXIT_OK", "EXIT_FAILURE", "EXIT_INFEASIBLE", "EXIT_TIMEOUT",
    "EXIT_PARSE_ERROR", "CHECKERS", "build_parser", "main",
]

CHECKERS = list(CHECKER_NAMES)


def _demo_problem(name: str) -> Problem:
    if name in ("fig1-green", "fig1-blue"):
        topo = mini_datacenter()
        tc = TrafficClass.make("h1_to_h3", src="H1", dst="H3")
        red = ["H1", "T1", "A1", "C1", "A3", "T3", "H3"]
        if name == "fig1-green":
            final_path = ["H1", "T1", "A1", "C2", "A3", "T3", "H3"]
            spec_text = "dst=H3 => F at(H3)"
        else:
            final_path = ["H1", "T1", "A2", "C1", "A4", "T3", "H3"]
            spec_text = "dst=H3 => ((F at(A2) | F at(A3)) & F at(H3))"
        from repro.ltl.parser import parse

        return Problem(
            topology=topo,
            ingresses={tc: ["H1"]},
            init=Configuration.from_paths(topo, {tc: red}),
            final=Configuration.from_paths(topo, {tc: final_path}),
            spec=parse(spec_text),
            spec_text=spec_text,
        )
    if name == "double-diamond":
        scenario = double_diamond(12, seed=1)
        guard_ab = "dst=Hb => F at(Hb)"
        guard_ba = "dst=Ha => F at(Ha)"
        spec_text = f"({guard_ab}) & ({guard_ba})"
        from repro.ltl.parser import parse

        return Problem(
            topology=scenario.topology,
            ingresses={tc: list(h) for tc, h in scenario.ingresses.items()},
            init=scenario.init,
            final=scenario.final,
            spec=parse(spec_text),
            spec_text=spec_text,
        )
    raise ReproError(f"unknown demo {name!r} (try fig1-green, fig1-blue, double-diamond)")


def _cmd_demo(args: argparse.Namespace) -> int:
    problem = _demo_problem(args.name)
    json.dump(problem_to_dict(problem), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    synth = UpdateSynthesizer(
        problem.topology,
        checker=args.checker,
        granularity=args.granularity,
        remove_waits=not args.keep_waits,
    )
    try:
        plan = synth.synthesize(
            problem.init,
            problem.final,
            problem.spec,
            problem.ingresses,
            timeout=args.timeout,
        )
    except UpdateInfeasibleError as err:
        print(f"INFEASIBLE ({err.reason}): {err}")
        return exit_code_for(err)
    except SynthesisTimeout as err:
        print(f"TIMEOUT: {err}")
        return exit_code_for(err)
    if args.json:
        json.dump(plan_to_dict(plan), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(plan.summary())
        for command in plan.commands:
            print(f"  {command}")
        stats = plan.stats
        print(
            f"model checks: {stats.model_checks}, counterexamples: "
            f"{stats.counterexamples}, waits kept: {stats.waits_after_removal}"
            f"/{stats.waits_before_removal}"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import time as time_module

    problem = load_problem(args.problem)
    config = problem.final if args.final else problem.init
    build_start = time_module.perf_counter()
    structure = KripkeStructure(problem.topology, config, problem.ingresses)
    checker = make_checker(args.checker, structure, problem.spec)
    build_seconds = time_module.perf_counter() - build_start
    check_start = time_module.perf_counter()
    result = checker.full_check()
    check_seconds = time_module.perf_counter() - check_start
    which = "final" if args.final else "initial"
    robustness = None
    if args.robust:
        # probe the checked configuration under every single-link failure
        # (an empty plan has exactly one stage: the configuration itself)
        from repro.synthesis.plan import UpdatePlan
        from repro.synthesis.robust import robustness_report

        robustness = robustness_report(
            problem.topology,
            config,
            UpdatePlan(commands=[]),
            problem.ingresses,
            problem.spec,
        )
    if args.json:
        # machine-readable verdict, mirroring what `synthesize --json`
        # emits for plans (used by the CI server smoke test)
        document = {
            "ok": result.ok,
            "configuration": which,
            "spec": problem.spec_text,
            "checker": getattr(checker, "name", args.checker),
            "counterexample": (
                [str(state) for state in result.counterexample]
                if result.counterexample
                else None
            ),
            "timings": {
                "build_seconds": round(build_seconds, 6),
                "check_seconds": round(check_seconds, 6),
                "total_seconds": round(build_seconds + check_seconds, 6),
            },
        }
        if robustness is not None:
            document["robustness"] = robustness.summary()
            document["robustness"]["findings"] = [
                {
                    "link": list(finding.link),
                    "ok": finding.ok,
                }
                for finding in robustness.findings
            ]
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK if result.ok else EXIT_FAILURE

    def _print_robustness() -> None:
        if robustness is None:
            return
        digest = robustness.summary()
        print(
            f"robustness: {digest['probes']} single-link probe(s), "
            f"survival {digest['survival_rate'] * 100:.1f}%, "
            f"{digest['fragile_links']} fragile link(s)"
        )
        for finding in robustness.findings:
            if not finding.ok:
                print(f"  fail {finding.link[0]}-{finding.link[1]} -> VIOLATES")

    if result.ok:
        print(f"OK: the {which} configuration satisfies {problem.spec_text!r}")
        _print_robustness()
        return EXIT_OK
    print(f"VIOLATION: the {which} configuration violates {problem.spec_text!r}")
    if result.counterexample:
        print("counterexample trace:")
        for state in result.counterexample:
            print(f"  {state}")
    _print_robustness()
    return EXIT_FAILURE


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench import experiments
    from repro.bench.report import format_series, format_table

    name = args.name
    if name == "fig2a":
        for strategy, series in experiments.fig2a_probe_series().items():
            print(format_series(f"Fig 2(a) — {strategy}", series))
    elif name == "fig2b":
        overhead = experiments.fig2b_rule_overhead()
        switches = sorted(set().union(*overhead.values()))
        print(
            format_table(
                "Fig 2(b) rule overhead",
                ["switch"] + list(overhead),
                [
                    [sw] + [overhead[s].get(sw, 0.0) for s in overhead]
                    for sw in switches
                ],
            )
        )
    elif name in ("fig7-zoo", "fig7-fattree", "fig7-smallworld"):
        family = name.split("-", 1)[1]
        rows, means = experiments.fig7_solvers(family)
        print(
            format_table(
                f"Fig 7 ({family})",
                ["scenario", "switches", "incremental", "batch", "automaton", "symbolic"],
                [
                    (
                        r.name,
                        r.switches,
                        r.seconds.get("incremental"),
                        r.seconds.get("batch"),
                        r.seconds.get("automaton"),
                        r.seconds.get("symbolic"),
                    )
                    for r in rows
                ],
            )
        )
        print("geomean speedups:", means)
    elif name == "fig7-netplumber":
        rows, means = experiments.fig7_netplumber()
        print(
            format_table(
                "Fig 7(d-f)",
                ["scenario", "switches", "incremental", "netplumber"],
                [
                    (r.name, r.switches, r.seconds["incremental"], r.seconds["netplumber"])
                    for r in rows
                ],
            )
        )
        print("geomean speedups:", means)
    elif name == "fig8g":
        rows = experiments.fig8g_scaling()
        print(
            format_table(
                "Fig 8(g)",
                ["property", "switches", "updates", "seconds", "waits"],
                [(r.prop, r.switches, r.updates, r.seconds, r.waits_after) for r in rows],
            )
        )
    elif name == "fig8h":
        rows = experiments.fig8h_infeasible()
        print(
            format_table(
                "Fig 8(h)",
                ["switches", "updating", "seconds", "feasible", "reason"],
                [(r.switches, r.updates, r.seconds, r.feasible, r.reason) for r in rows],
            )
        )
    elif name == "ablations":
        rows = experiments.ablation_optimizations()
        print(
            format_table(
                "Ablation: search optimizations",
                ["variant", "seconds", "model checks", "cex", "backtracks"],
                [
                    (r.variant, r.seconds, r.model_checks, r.counterexamples, r.backtracks)
                    for r in rows
                ],
            )
        )
    elif name == "fig8i":
        rows = experiments.fig8i_rule_granularity()
        print(
            format_table(
                "Fig 8(i)",
                ["switches", "updates", "seconds", "waits"],
                [(r.switches, r.updates, r.seconds, r.waits_after) for r in rows],
            )
        )
        print("waits summary:", experiments.waits_summary(rows))
    else:
        raise ReproError(f"unknown experiment {name!r}")
    return 0


def _portfolio_arg(value: str):
    """argparse type for ``--portfolio``: comma-separated checker backends."""
    backends = tuple(entry.strip() for entry in value.split(",") if entry.strip())
    if not backends:
        raise argparse.ArgumentTypeError("expected at least one backend name")
    for backend in backends:
        if backend not in CHECKERS:
            raise argparse.ArgumentTypeError(
                f"unknown backend {backend!r} (choose from {', '.join(CHECKERS)})"
            )
    return backends


@dataclass
class BatchJob:
    """One parsed line of the batch JSONL format.

    A full line carries ``problem``; a delta line instead carries
    ``base_id`` (the ``id`` of an earlier line in the same file) and
    ``patch`` — the front-end resolves the base id to that job's
    fingerprint at submission time, waiting out the base's verdict first
    so its plan can warm-start the delta (see ``docs/API.md``).
    """

    job_id: str
    timeout: Optional[float]
    granularity: Optional[str]
    problem: Optional["Problem"] = None
    base_id: Optional[str] = None
    patch: Optional["ProblemPatch"] = None
    lineno: int = 0  # 1-based source line, for path:lineno error messages
    # lines tagged robust (a top-level "robust": true, or dataset rows with
    # meta.perturbation == "robust") get a RobustnessReport summary attached
    # to their result line after synthesis
    robust: bool = False


def _load_batch_jobs(path: str) -> "List[BatchJob]":
    """Parse a JSONL problems file into :class:`BatchJob` entries.

    Blank and ``#``-comment lines are skipped, so an empty file is a valid
    empty batch (zero jobs, empty result stream, exit status 0).  Lines
    with a ``base`` key are delta documents (``repro corpus --suite
    churn`` emits them); everything else is a full problem document.
    """
    from repro.net.delta import ProblemPatch

    jobs: List[BatchJob] = []
    handle = sys.stdin if path == "-" else open(path, encoding="utf-8-sig")
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"{path}:{lineno}: bad JSON: {err}") from err
            if not isinstance(data, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object")
            job_id = str(data.get("id", f"job-{lineno}"))
            timeout = data.get("timeout")
            if timeout is not None:
                if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
                    raise ParseError(
                        f"{path}:{lineno}: 'timeout' must be a number, "
                        f"got {timeout!r}"
                    )
                timeout = float(timeout)
            granularity = data.get("granularity")
            if granularity is not None and granularity not in ("switch", "rule"):
                raise ParseError(
                    f"{path}:{lineno}: 'granularity' must be 'switch' or "
                    f"'rule', got {granularity!r}"
                )
            meta = data.get("meta")
            robust = bool(data.get("robust")) or (
                isinstance(meta, dict) and meta.get("perturbation") == "robust"
            )
            if "base" in data:
                base_id = data.get("base")
                if not isinstance(base_id, str) or not base_id:
                    raise ParseError(
                        f"{path}:{lineno}: delta 'base' must be the id of an "
                        f"earlier line, got {base_id!r}"
                    )
                patch_data = data.get("patch")
                if not isinstance(patch_data, dict):
                    raise ParseError(
                        f"{path}:{lineno}: delta line needs a 'patch' object"
                    )
                try:
                    patch = ProblemPatch.from_dict(patch_data)
                except ReproError as err:
                    raise ParseError(f"{path}:{lineno}: {err}") from err
                jobs.append(
                    BatchJob(
                        job_id,
                        timeout,
                        granularity,
                        base_id=base_id,
                        patch=patch,
                        lineno=lineno,
                    )
                )
                continue
            try:
                problem = problem_from_dict(data)
            except (ReproError, KeyError, TypeError, ValueError) as err:
                raise ParseError(f"{path}:{lineno}: bad problem: {err}") from err
            jobs.append(
                BatchJob(
                    job_id,
                    timeout,
                    granularity,
                    problem=problem,
                    lineno=lineno,
                    robust=robust,
                )
            )
    finally:
        if handle is not sys.stdin:
            handle.close()
    return jobs


def _cmd_batch(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.service import SynthesisOptions, SynthesisService

    jobs = _load_batch_jobs(args.problems)
    if args.shards < 1:
        raise ParseError(f"--shards must be >= 1, got {args.shards}")
    options = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        timeout=args.timeout,
        portfolio=args.portfolio or (),
        memoize=not args.no_memo,
        shards=args.shards,
        preflight=args.preflight,
    )
    if args.server:
        # thin-client mode: the scheduler (and its --workers/--cache-dir
        # style configuration) lives in the `repro serve` process
        from repro.api import SynthesisRequest
        from repro.service import ReproClient

        for flag, name in (
            (args.workers is not None, "--workers"),
            (args.serial, "--serial"),
            (args.cache_dir is not None, "--cache-dir"),
        ):
            if flag:
                print(
                    f"warning: {name} is ignored with --server "
                    "(configure `repro serve` instead)",
                    file=sys.stderr,
                )
        engine = ReproClient(args.server, default_options=options)
        views = {}
        pending = []

        def flush() -> None:
            if pending:
                for view in engine.submit_requests(list(pending)):
                    views[view.job_id] = view
                pending.clear()

        for job in jobs:
            opts = (
                options
                if job.granularity is None
                else replace(options, granularity=job.granularity)
            )
            if job.timeout is not None:
                opts = opts.with_timeout(job.timeout)
            if job.patch is None:
                pending.append(
                    SynthesisRequest(
                        problem=job.problem, options=opts, job_id=job.job_id
                    )
                )
                continue
            # a delta line: settle its base first so the server has the
            # base plan cached to warm-start the patched search from
            flush()
            base_view = views.get(job.base_id)
            if base_view is None:
                raise ParseError(
                    f"{args.problems}:{job.lineno}: batch delta {job.job_id!r} "
                    f"references unknown base id {job.base_id!r} "
                    "(deltas must follow their base line)"
                )
            engine.result(base_view.job_id)
            views[job.job_id] = engine.submit_delta(
                base_view.fingerprint, job.patch, options=opts, job_id=job.job_id
            )
        flush()  # deltas aside, the whole batch is one POST
    else:
        engine = SynthesisService(
            workers=0 if args.serial else args.workers,
            cache_dir=args.cache_dir,
            default_options=options,
        )
        if args.shards > 1 and engine.workers <= 1:
            print(
                f"warning: --shards {args.shards} needs a worker pool "
                f"(resolved workers: {engine.workers}); running unsharded",
                file=sys.stderr,
            )
        submitted = {}
        for job in jobs:
            opts = (
                options
                if job.granularity is None
                else replace(options, granularity=job.granularity)
            )
            if job.patch is None:
                submitted[job.job_id] = engine.submit(
                    job.problem, job_id=job.job_id, timeout=job.timeout, options=opts
                )
                continue
            base_job = submitted.get(job.base_id)
            if base_job is None:
                raise ParseError(
                    f"{args.problems}:{job.lineno}: batch delta {job.job_id!r} "
                    f"references unknown base id {job.base_id!r} "
                    "(deltas must follow their base line)"
                )
            engine.result(base_job.job_id)  # cache the base plan first
            submitted[job.job_id] = engine.submit_delta(
                base_job.fingerprint,
                job.patch,
                options=opts,
                job_id=job.job_id,
                timeout=job.timeout,
            )
    robust_jobs = {
        job.job_id: job for job in jobs if job.robust and job.problem is not None
    }
    errored = False
    for result in engine.stream():
        errored = errored or result.status.value == "error"
        doc = result.to_dict(include_plan=not args.no_plans)
        robust_job = robust_jobs.get(result.job_id)
        if robust_job is not None and result.ok and result.plan is not None:
            # the robustness axis: quantify the plan's single-link-failure
            # blast radius and carry the digest on the result line
            from repro.synthesis.robust import robustness_report

            problem = robust_job.problem
            doc["robustness"] = robustness_report(
                problem.topology,
                problem.init,
                result.plan,
                problem.ingresses,
                problem.spec,
            ).summary()
        json.dump(doc, sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
    if not args.server:
        engine.cache.persist_stats()
    if args.stats:
        json.dump(engine.metrics_dict(), sys.stderr, indent=2)
        sys.stderr.write("\n")
    return EXIT_FAILURE if errored else EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisReport, Diagnostic, TargetReport, analyze_problem

    if not args.problems and not args.suite:
        raise ParseError("analyze needs problem files or --suite NAME")
    report = AnalysisReport()
    if args.suite:
        from repro.scenarios.corpus import generate_corpus, sample_records

        records = sample_records(
            generate_corpus(args.suite, quick=args.quick, base_seed=args.seed),
            args.limit,
        )
        for record in records:
            report.targets.append(
                analyze_problem(record.problem, target=record.scenario_id)
            )
    for path in args.problems:
        try:
            problem = load_problem(path)
        except (OSError, ReproError) as err:
            # keep analyzing the remaining targets; the load failure is
            # itself a parse-family diagnostic on this one
            report.targets.append(
                TargetReport(
                    target=path,
                    kind="problem",
                    diagnostics=[
                        Diagnostic("RA000", "error", str(err), family="parse")
                    ],
                )
            )
            continue
        report.targets.append(analyze_problem(problem, target=path))
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for target in report.targets:
            if not target.diagnostics:
                print(f"{target.target}: ok")
                continue
            for diag in target.diagnostics:
                print(f"{target.target}: {diag.render()}")
        totals = report.totals()
        print(
            f"{totals['targets']} target(s): {totals['error']} error(s), "
            f"{totals['warn']} warning(s), {totals['info']} info"
        )
    return report.exit_code()


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import ReproServer, SynthesisOptions

    if args.shards < 1:
        raise ParseError(f"--shards must be >= 1, got {args.shards}")
    options = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        timeout=args.timeout,
        portfolio=args.portfolio or (),
        memoize=not args.no_memo,
        shards=args.shards,
    )
    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=0 if args.serial else args.workers,
        cache_dir=args.cache_dir,
        default_options=options,
        verbose=args.verbose,
    )

    def _sigterm(signum, frame):  # noqa: ARG001 — signal handler signature
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(
        f"repro-api/1 serving on {server.url} "
        f"(workers: {server.service.workers})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down: draining in-flight work...", flush=True)
        server.close()
        server.service.cache.persist_stats()
    return EXIT_OK


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.service.loadtest import run_loadtest

    report = run_loadtest(
        suite=args.suite,
        clients=args.clients,
        rounds=args.rounds,
        server_url=args.server,
        use_plan_cache=args.use_plan_cache,
        quick=not args.full,
        job_timeout=args.job_timeout,
        max_jobs=args.max_jobs,
        base_seed=args.seed,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json or not args.out:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    for entry in report["rounds"]:
        print(
            f"round {entry['round']}: {entry['completed']}/{entry['jobs']} jobs "
            f"in {entry['wall_seconds']:.2f}s "
            f"({entry['throughput_jobs_per_s']:.1f} jobs/s), "
            f"p50 {entry['latency_p50_s'] * 1000:.1f}ms "
            f"p99 {entry['latency_p99_s'] * 1000:.1f}ms, "
            f"memo hit rate {entry['memo']['hit_rate']:.2f}",
            file=sys.stderr,
        )
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_FAILURE


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ReproClient

    problem = load_problem(args.problem)
    # send only the options the user chose (a sparse document): the rest —
    # including a bare `repro submit` — defer to the server's defaults
    options_data = {}
    if args.checker is not None:
        options_data["checker"] = args.checker
    if args.granularity is not None:
        options_data["granularity"] = args.granularity
    if args.timeout is not None:
        options_data["timeout"] = args.timeout
    if args.portfolio is not None:
        options_data["portfolio"] = list(args.portfolio)
    client = ReproClient(args.server)
    view = client.submit(
        problem, job_id=args.id, options_data=options_data or None
    )
    if args.no_wait:
        json.dump(view.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    result = client.result(view.job_id)
    if args.json or result.status.value != "done":
        json.dump(result.to_dict(include_plan=not args.no_plans), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        plan = result.plan
        print(plan.summary())
        for command in plan.commands:
            print(f"  {command}")
        origin = "plan cache" if result.cached else f"backend {result.backend}"
        print(f"served by {args.server} ({origin}) in {result.seconds:.3f}s")
    # one job's verdict decides the process exit status, like `synthesize`
    return exit_code_for(result.status.value)


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        corpus_summary,
        corpus_to_jsonl,
        generate_corpus,
        write_corpus,
    )

    records = generate_corpus(args.suite, quick=args.quick, base_seed=args.seed)
    if args.out:
        write_corpus(records, args.out)
    else:
        sys.stdout.write(corpus_to_jsonl(records))
    if args.summary:
        json.dump(corpus_summary(records), sys.stderr, indent=2)
        sys.stderr.write("\n")
    return EXIT_OK


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets import (
        build_dataset,
        dataset_suite_name,
        list_datasets,
        verify_dataset,
    )

    if args.dataset_cmd == "build":
        sources = args.source or ["builtin", "synthetic"]
        out_dir = args.out or os.path.join("datasets", args.name)
        result = build_dataset(
            args.name,
            sources,
            out_dir,
            gml_dir=args.gml_dir or "",
            synthetic_count=args.synthetic_count,
            seed=args.seed,
            quick=args.quick,
        )
        manifest = result.manifest
        if args.json:
            json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return EXIT_OK
        counts = manifest["counts"]
        print(f"dataset {manifest['name']!r} v{manifest['version']} -> {out_dir}")
        print(
            f"  topologies: {counts['topologies_ingested']} ingested, "
            f"{counts['topologies_covered']} covered"
        )
        perturbations = manifest["distributions"]["perturbations"]
        pert_text = ", ".join(f"{k} {v}" for k, v in sorted(perturbations.items()))
        print(f"  problems: {counts['problems']} ({pert_text})")
        for stage in ("ingest", "derivation"):
            dropped = manifest["drops"][stage]
            total = sum(dropped.values())
            detail = ", ".join(f"{k} {v}" for k, v in sorted(dropped.items()) if v)
            print(f"  {stage} drops: {total}" + (f" ({detail})" if detail else ""))
        print(f"  manifest_hash: {manifest['manifest_hash']}")
        print(f"  run it: repro batch <(repro corpus --suite {dataset_suite_name(out_dir)})")
        return EXIT_OK
    if args.dataset_cmd == "list":
        rows = list_datasets(args.root)
        if args.json:
            json.dump(rows, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return EXIT_OK
        if not rows:
            print(f"no datasets under {args.root!r}")
            return EXIT_OK
        for row in rows:
            if "error" in row:
                print(f"{row['directory']}: ERROR {row['error']}")
            else:
                print(
                    f"{row['directory']}: {row['name']} v{row['version']} — "
                    f"{row['problems']} problems over {row['topologies']} "
                    f"topologies [{row['manifest_hash']}]"
                )
        return EXIT_OK
    # verify: recompute content hashes and report drift
    findings = verify_dataset(args.directory)
    if args.json:
        json.dump(
            {"directory": args.directory, "ok": not findings, "findings": findings},
            sys.stdout,
            indent=2,
            sort_keys=True,
        )
        sys.stdout.write("\n")
    elif findings:
        for finding in findings:
            print(f"{args.directory}: {finding}")
    else:
        print(f"{args.directory}: ok")
    return EXIT_OK if not findings else EXIT_FAILURE


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.runner import (
        compare_runs,
        format_bench_summary,
        load_bench,
        run_suite,
        write_bench,
    )

    if args.compare:
        baseline_path, current_path = args.compare
        comparison = compare_runs(
            load_bench(baseline_path),
            load_bench(current_path),
            threshold=args.threshold,
            min_seconds=args.min_seconds,
        )
        if args.json:
            json.dump(comparison.as_dict(), sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            for note in comparison.notes:
                print(f"note: {note}")
            for regression in comparison.regressions:
                print(f"REGRESSION: {regression}")
            verdict = "OK" if comparison.ok else "REGRESSED"
            print(f"{verdict}: {current_path} vs baseline {baseline_path}")
        return EXIT_OK if comparison.ok else EXIT_FAILURE
    if not args.suite:
        raise ReproError("bench needs --suite NAME (or --compare BASELINE CURRENT)")
    if args.shards < 1:
        raise ParseError(f"--shards must be >= 1, got {args.shards}")
    if args.suite == "churn":
        # the churn suite is a two-pass delta benchmark with its own
        # (always serial) runner and a self-gated speedup target
        from repro.bench.churn import format_churn_summary, run_churn_suite

        for flag, name in (
            (bool(args.workers), "--workers"),
            (args.shards > 1, "--shards"),
        ):
            if flag:
                print(
                    f"warning: {name} is ignored for the churn suite "
                    "(both passes run serially for fair timing)",
                    file=sys.stderr,
                )
        document = run_churn_suite(
            quick=args.quick,
            base_seed=args.seed,
            timeout=args.timeout,
            checker=args.checker,
            memoize=not args.no_memo,
        )
        out_path = args.out or "BENCH_churn.json"
        write_bench(document, out_path)
        _append_bench_history(args, document)
        if args.json:
            json.dump(document, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            print(format_churn_summary(document))
            print(f"wrote {out_path}")
        return EXIT_OK if document["totals"]["churn"]["ok"] else EXIT_FAILURE
    document = run_suite(
        args.suite,
        quick=args.quick,
        base_seed=args.seed,
        workers=0 if args.serial else args.workers,
        timeout=args.timeout,
        checker=args.checker,
        memoize=not args.no_memo,
        shards=args.shards,
    )
    out_path = args.out or f"BENCH_{args.suite}.json"
    write_bench(document, out_path)
    _append_bench_history(args, document)
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(format_bench_summary(document))
        print(f"wrote {out_path}")
    if document["totals"]["statuses"].get("error"):
        return EXIT_FAILURE
    return EXIT_OK


def _append_bench_history(args: argparse.Namespace, document) -> None:
    """Record a completed bench run in the observatory trajectory file."""
    if not args.history:
        return
    from repro.observatory import append_history

    append_history(document, args.history)
    print(f"appended to history {args.history}", file=sys.stderr)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.observatory import build_report, format_report, load_history

    entries = load_history(args.history, suite=args.suite)
    document = build_report(
        entries,
        anchor=args.anchor,
        anchor_sha=args.anchor_sha,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(format_report(document))
        if args.out:
            print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK if document["ok"] else EXIT_FAILURE


def _cmd_judge(args: argparse.Namespace) -> int:
    from repro.observatory import (
        DEFAULT_BACKENDS,
        format_judge_summary,
        run_judge,
    )

    document = run_judge(
        args.suite,
        quick=args.quick,
        base_seed=args.seed,
        backends=args.backends or DEFAULT_BACKENDS,
        timeout=args.timeout,
        max_scenarios=args.max_scenarios,
        race=not args.no_race,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(format_judge_summary(document))
        if args.out:
            print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK if document["totals"]["ok"] else EXIT_FAILURE


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf.profile import format_profile_summary, run_profile, write_profile

    document = run_profile(
        args.suite,
        quick=args.quick,
        base_seed=args.seed,
        memoize=not args.no_memo,
        timeout=args.timeout,
    )
    out_path = args.out or f"PROFILE_{args.suite}.json"
    write_profile(document, out_path)
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(format_profile_summary(document))
        print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    if args.server:
        if args.directory:
            raise ReproError("pass a cache directory or --server, not both")
        from repro.service import ReproClient

        client = ReproClient(args.server)
        json.dump(client.cache_stats(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    if not args.directory:
        raise ReproError("cache-stats needs a directory (or --server URL)")
    from repro.service import disk_cache_summary

    json.dump(disk_cache_summary(args.directory), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient Synthesis of Network Updates (PLDI 2015) — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synthesize", help="synthesize an update plan")
    p_synth.add_argument("problem", help="path to a problem JSON file")
    p_synth.add_argument("--checker", default="incremental", choices=CHECKERS)
    p_synth.add_argument("--granularity", default="switch", choices=["switch", "rule"])
    p_synth.add_argument("--keep-waits", action="store_true",
                         help="skip the wait-removal post-pass")
    p_synth.add_argument("--timeout", type=float, default=None)
    p_synth.add_argument("--json", action="store_true", help="emit the plan as JSON")
    p_synth.set_defaults(fn=_cmd_synthesize)

    p_check = sub.add_parser("check", help="model check a configuration")
    p_check.add_argument("problem")
    p_check.add_argument("--final", action="store_true",
                         help="check the final instead of the initial configuration")
    p_check.add_argument("--checker", default="incremental", choices=CHECKERS)
    p_check.add_argument("--robust", action="store_true",
                         help="additionally probe the checked configuration "
                              "under every single-link failure and report "
                              "the robustness summary")
    p_check.add_argument("--json", action="store_true",
                         help="emit the verdict (ok flag, counterexample "
                              "trace, backend, timings) as JSON")
    p_check.set_defaults(fn=_cmd_check)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived synthesis server (repro-api/1)"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8421,
                         help="bind port (default 8421; 0 picks a free port)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker pool size (default: one per core, capped at 8)")
    p_serve.add_argument("--serial", action="store_true",
                         help="run jobs in-process instead of on the worker pool")
    p_serve.add_argument("--checker", default="incremental", choices=CHECKERS,
                         help="default checker for requests that don't choose one")
    p_serve.add_argument("--granularity", default="switch", choices=["switch", "rule"])
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="default per-job timeout in seconds")
    p_serve.add_argument("--portfolio", default=None, metavar="B1,B2",
                         type=_portfolio_arg,
                         help="default backend portfolio raced per job")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="default search-shard count per job")
    p_serve.add_argument("--no-memo", action="store_true",
                         help="disable the cross-candidate verdict memo")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persist the plan cache to this directory")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each HTTP request to stderr")
    p_serve.set_defaults(fn=_cmd_serve)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="replay a scenario corpus from N concurrent clients "
             "(repro-loadtest/1 report)",
    )
    p_loadtest.add_argument("--suite", default="smoke",
                            help="scenario suite to replay (default smoke)")
    p_loadtest.add_argument("--clients", type=int, default=8,
                            help="concurrent synthetic clients (default 8)")
    p_loadtest.add_argument("--rounds", type=int, default=2,
                            help="passes over the corpus (default 2; round "
                                 "2+ measures warm-memo behaviour)")
    p_loadtest.add_argument("--server", default=None, metavar="URL",
                            help="target a running server (default: self-host "
                                 "one for the duration of the run)")
    p_loadtest.add_argument("--use-plan-cache", action="store_true",
                            help="let repeat rounds hit the plan cache "
                                 "(default: bypass it so every round "
                                 "re-synthesizes against the warm memo)")
    p_loadtest.add_argument("--full", action="store_true",
                            help="use the suite's full sizes instead of the "
                                 "scaled-down quick ones")
    p_loadtest.add_argument("--job-timeout", type=float, default=None,
                            metavar="S", help="per-job client-side deadline")
    p_loadtest.add_argument("--max-jobs", type=int, default=None, metavar="N",
                            help="truncate the corpus to its first N scenarios")
    p_loadtest.add_argument("--seed", type=int, default=0,
                            help="base seed for scenario generation (default 0)")
    p_loadtest.add_argument("--out", "-o", default=None,
                            help="write the report here (default: stdout)")
    p_loadtest.add_argument("--json", action="store_true",
                            help="also print the report to stdout with --out")
    p_loadtest.set_defaults(fn=_cmd_loadtest)

    p_submit = sub.add_parser(
        "submit", help="submit one problem to a running repro serve"
    )
    p_submit.add_argument("problem", help="path to a problem JSON file")
    p_submit.add_argument("--server", required=True, metavar="URL",
                          help="base URL of a running server "
                               "(e.g. http://127.0.0.1:8421)")
    p_submit.add_argument("--id", default=None, help="job id (default: server-assigned)")
    p_submit.add_argument("--checker", default=None, choices=CHECKERS,
                          help="checker backend (default: the server's)")
    p_submit.add_argument("--granularity", default=None,
                          choices=["switch", "rule"],
                          help="update granularity (default: the server's)")
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="per-job budget in seconds (default: the server's)")
    p_submit.add_argument("--portfolio", default=None, metavar="B1,B2",
                          type=_portfolio_arg,
                          help="race these comma-separated checker backends")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the queued job view and return immediately")
    p_submit.add_argument("--no-plans", action="store_true",
                          help="omit the plan body from the result document")
    p_submit.add_argument("--json", action="store_true",
                          help="emit the full result document as JSON")
    p_submit.set_defaults(fn=_cmd_submit)

    p_batch = sub.add_parser(
        "batch", help="run a JSONL file of problems through the batch service"
    )
    p_batch.add_argument(
        "problems", help="path to a JSONL problems file ('-' for stdin)"
    )
    p_batch.add_argument("--server", default=None, metavar="URL",
                         help="route the batch through a running `repro serve` "
                              "at this base URL instead of an in-process engine")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="worker pool size (default: one per core, capped at 8)")
    p_batch.add_argument("--serial", action="store_true",
                         help="run in-process instead of on the worker pool")
    p_batch.add_argument("--checker", default="incremental", choices=CHECKERS)
    p_batch.add_argument("--granularity", default="switch", choices=["switch", "rule"])
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="default per-job timeout in seconds")
    p_batch.add_argument("--portfolio", default=None, metavar="B1,B2",
                         type=_portfolio_arg,
                         help="race these comma-separated checker backends per job")
    p_batch.add_argument("--shards", type=int, default=1,
                         help="split each job's order search space into N "
                              "disjoint slices raced on the worker pool "
                              "(default 1: unsharded; needs --workers >= 2)")
    p_batch.add_argument("--cache-dir", default=None,
                         help="persist the plan cache to this directory")
    p_batch.add_argument("--no-memo", action="store_true",
                         help="disable the cross-candidate verdict memo")
    p_batch.add_argument("--preflight", action="store_true",
                         help="statically fast-fail provably-infeasible jobs "
                              "before search (repro.analysis; verdict-preserving)")
    p_batch.add_argument("--no-plans", action="store_true",
                         help="omit plan bodies from the output stream")
    p_batch.add_argument("--stats", action="store_true",
                         help="print service metrics to stderr when done")
    p_batch.set_defaults(fn=_cmd_batch)

    p_analyze = sub.add_parser(
        "analyze",
        help="statically lint problems (reachability, spec vacuity, dead rules)",
    )
    p_analyze.add_argument(
        "problems", nargs="*", help="problem JSON files (synthesize format)"
    )
    p_analyze.add_argument(
        "--suite", help="analyze a scenario corpus instead of files"
    )
    p_analyze.add_argument(
        "--quick", action="store_true", help="shrink suite parameters (smoke-sized)"
    )
    p_analyze.add_argument(
        "--seed", type=int, default=0, help="corpus base seed (default 0)"
    )
    p_analyze.add_argument(
        "--limit", type=int, default=None, help="analyze at most N suite scenarios"
    )
    p_analyze.add_argument(
        "--json", action="store_true", help="emit the repro-analysis/1 document"
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_corpus = sub.add_parser(
        "corpus", help="generate a scenario corpus in the batch JSONL format"
    )
    p_corpus.add_argument("--suite", required=True,
                          help="suite name (see repro.scenarios.suites: "
                               "smoke, full, zoo, churn)")
    p_corpus.add_argument("--quick", action="store_true",
                          help="use the suite's scaled-down CI sizes")
    p_corpus.add_argument("--seed", type=int, default=0,
                          help="base seed for scenario generation (default 0)")
    p_corpus.add_argument("--out", "-o", default=None,
                          help="write the JSONL here instead of stdout")
    p_corpus.add_argument("--summary", action="store_true",
                          help="print a coverage summary to stderr")
    p_corpus.set_defaults(fn=_cmd_corpus)

    p_dataset = sub.add_parser(
        "dataset",
        help="build, list, and verify reproducible benchmark datasets "
             "(repro-dataset/1)",
    )
    dsub = p_dataset.add_subparsers(dest="dataset_cmd", required=True)
    d_build = dsub.add_parser(
        "build", help="ingest topology sources and build a sealed dataset"
    )
    d_build.add_argument("--name", default="zoo",
                         help="dataset name recorded in the manifest "
                              "(default zoo)")
    d_build.add_argument("--out", "-o", default=None, metavar="DIR",
                         help="dataset directory (default datasets/<name>)")
    d_build.add_argument("--source", action="append", default=None,
                         choices=["builtin", "synthetic", "gml"],
                         help="topology source; repeatable (default: "
                              "builtin + synthetic)")
    d_build.add_argument("--gml-dir", default=None, metavar="DIR",
                         help="directory of Topology Zoo .gml files "
                              "(needed by --source gml)")
    d_build.add_argument("--synthetic-count", type=int, default=64,
                         help="synthetic zoo size (default 64; quick caps "
                              "it at 12)")
    d_build.add_argument("--seed", type=int, default=0,
                         help="derivation base seed (default 0)")
    d_build.add_argument("--quick", action="store_true",
                         help="CI-sized build (small synthetic zoo)")
    d_build.add_argument("--json", action="store_true",
                         help="emit the manifest to stdout")
    d_build.set_defaults(fn=_cmd_dataset)
    d_list = dsub.add_parser("list", help="summarize datasets under a directory")
    d_list.add_argument("root", nargs="?", default="datasets",
                        help="registry root to scan (default datasets)")
    d_list.add_argument("--json", action="store_true",
                        help="emit the summaries as JSON")
    d_list.set_defaults(fn=_cmd_dataset)
    d_verify = dsub.add_parser(
        "verify", help="recompute a dataset's content hashes and fail on drift"
    )
    d_verify.add_argument("directory", help="dataset directory to verify")
    d_verify.add_argument("--json", action="store_true",
                          help="emit the findings as JSON")
    d_verify.set_defaults(fn=_cmd_dataset)

    p_bench = sub.add_parser(
        "bench", help="run a scenario-suite benchmark / compare two BENCH runs"
    )
    p_bench.add_argument("--suite", default=None,
                         help="suite to run (smoke, full, zoo, or churn — "
                              "the two-pass delta benchmark)")
    p_bench.add_argument("--quick", action="store_true",
                         help="use the suite's scaled-down CI sizes")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="base seed for scenario generation (default 0)")
    p_bench.add_argument("--checker", default="incremental", choices=CHECKERS)
    p_bench.add_argument("--workers", type=int, default=0,
                         help="service worker pool size (default 0: in-process, "
                              "keeps timings comparable)")
    p_bench.add_argument("--serial", action="store_true",
                         help="force in-process execution")
    p_bench.add_argument("--timeout", type=float, default=120.0,
                         help="per-scenario timeout in seconds (default 120)")
    p_bench.add_argument("--out", default=None,
                         help="output path (default BENCH_<suite>.json)")
    p_bench.add_argument("--compare", nargs=2, metavar=("BASELINE", "CURRENT"),
                         default=None,
                         help="diff two BENCH documents instead of running")
    p_bench.add_argument("--threshold", type=float, default=2.0,
                         help="regression factor for --compare (default 2.0)")
    p_bench.add_argument("--min-seconds", type=float, default=0.02,
                         help="noise floor for --compare timings (default 0.02)")
    p_bench.add_argument("--no-memo", action="store_true",
                         help="disable the cross-candidate verdict memo "
                              "(for memo A/B comparisons)")
    p_bench.add_argument("--shards", type=int, default=1,
                         help="race each scenario's search across N shards "
                              "(default 1; needs --workers >= 2)")
    p_bench.add_argument("--json", action="store_true",
                         help="emit the document/comparison as JSON to stdout")
    p_bench.add_argument("--history", default=None, metavar="PATH",
                         help="append this run to a repro-bench-history/1 "
                              "JSONL trajectory (read by `repro report`)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_report = sub.add_parser(
        "report",
        help="render trend tables + a regression summary from a bench history",
    )
    p_report.add_argument("history",
                          help="path to a repro-bench-history/1 JSONL file "
                               "(grow one with `repro bench --history`)")
    p_report.add_argument("--suite", default=None,
                          help="report only this suite's runs (a shared "
                               "history file may interleave several)")
    p_report.add_argument("--anchor", type=int, default=0,
                          help="index of the run to compare the latest run "
                               "against (default 0: the oldest; negative "
                               "counts from the end)")
    p_report.add_argument("--anchor-sha", default=None, metavar="SHA",
                          help="anchor on the most recent run of this git "
                               "commit (prefix match) instead of an index")
    p_report.add_argument("--threshold", type=float, default=2.0,
                          help="regression factor vs the anchor (default 2.0)")
    p_report.add_argument("--min-seconds", type=float, default=0.02,
                          help="noise floor for timing comparisons (default 0.02)")
    p_report.add_argument("--out", "-o", default=None,
                          help="also write the repro-report/1 document here")
    p_report.add_argument("--json", action="store_true",
                          help="emit the repro-report/1 document to stdout")
    p_report.set_defaults(fn=_cmd_report)

    p_judge = sub.add_parser(
        "judge",
        help="replay a suite across checker backends and fail on disagreement",
    )
    p_judge.add_argument("--suite", required=True,
                         help="scenario suite to judge (smoke, full, zoo, churn)")
    p_judge.add_argument("--quick", action="store_true",
                         help="use the suite's scaled-down CI sizes")
    p_judge.add_argument("--seed", type=int, default=0,
                         help="base seed for scenario generation (default 0)")
    p_judge.add_argument("--backends", default=None, metavar="B1,B2",
                         type=_portfolio_arg,
                         help="backends to cross-examine (default "
                              "incremental,batch,netplumber,symbolic)")
    p_judge.add_argument("--timeout", type=float, default=60.0,
                         help="per-scenario-per-backend budget in seconds "
                              "(default 60)")
    p_judge.add_argument("--max-scenarios", type=int, default=None, metavar="N",
                         help="judge a deterministic N-scenario subsample "
                              "of the suite")
    p_judge.add_argument("--no-race", action="store_true",
                         help="skip the portfolio-race pass (solo agreement "
                              "checks only)")
    p_judge.add_argument("--out", "-o", default=None,
                         help="also write the repro-judge/1 document here")
    p_judge.add_argument("--json", action="store_true",
                         help="emit the repro-judge/1 document to stdout")
    p_judge.set_defaults(fn=_cmd_judge)

    p_profile = sub.add_parser(
        "profile", help="attribute a suite's wall time to synthesis phases"
    )
    p_profile.add_argument("--suite", required=True,
                           help="suite to profile (smoke, full, zoo)")
    p_profile.add_argument("--quick", action="store_true",
                           help="use the suite's scaled-down CI sizes")
    p_profile.add_argument("--seed", type=int, default=0,
                           help="base seed for scenario generation (default 0)")
    p_profile.add_argument("--timeout", type=float, default=120.0,
                           help="per-scenario timeout in seconds (default 120)")
    p_profile.add_argument("--no-memo", action="store_true",
                           help="profile with the verdict memo disabled")
    p_profile.add_argument("--out", default=None,
                           help="output path (default PROFILE_<suite>.json)")
    p_profile.add_argument("--json", action="store_true",
                           help="emit the document as JSON to stdout")
    p_profile.set_defaults(fn=_cmd_profile)

    p_cache = sub.add_parser(
        "cache-stats",
        help="summarize an on-disk plan cache directory (or a live server's)",
    )
    p_cache.add_argument("directory", nargs="?", default=None,
                         help="cache directory (see batch --cache-dir)")
    p_cache.add_argument("--server", default=None, metavar="URL",
                         help="ask a running `repro serve` instead")
    p_cache.set_defaults(fn=_cmd_cache_stats)

    p_demo = sub.add_parser("demo", help="emit a ready-made problem file")
    p_demo.add_argument("name", help="fig1-green | fig1-blue | double-diamond")
    p_demo.set_defaults(fn=_cmd_demo)

    p_exp = sub.add_parser("experiment", help="run a paper-figure experiment")
    p_exp.add_argument("name", help="fig2a | fig2b | fig7-* | fig8g | fig8h | fig8i")
    p_exp.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. `... | head`); exit quietly like a good filter
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return EXIT_OK
    except KeyboardInterrupt:
        return EXIT_FAILURE
    except ReproError as err:
        # one shared mapping (repro.errors.exit_code_for) classifies every
        # library error into the four exit-code families
        labels = {
            EXIT_PARSE_ERROR: "parse error",
            EXIT_INFEASIBLE: "infeasible",
            EXIT_TIMEOUT: "timeout",
            EXIT_FAILURE: "error",
        }
        code = exit_code_for(err)
        print(f"{labels[code]}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
