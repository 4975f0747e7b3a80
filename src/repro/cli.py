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
  batch submissions; jobs from independent clients share the plan cache
  and fingerprint coalescing.
* ``loadtest --suite NAME`` — replay a scenario corpus against a server
  from N concurrent clients for several rounds and write a
  ``repro-loadtest/1`` JSON report (p50/p99 latency, throughput, and
  plan-cache hit rate per round).  Without ``--server`` it self-hosts
  one.
* ``submit PROBLEM.json --server URL`` — submit one problem to a running
  server and (by default) wait for the verdict; exit codes match
  ``synthesize`` exactly (0 plan, 2 infeasible, 3 timeout, 4 parse).
* ``demo NAME`` — write a ready-made problem file (``fig1-green``,
  ``fig1-blue``, ``double-diamond``) to stdout, for experimenting with the
  other subcommands.
* ``batch PROBLEMS.jsonl`` — run many problems through the
  :mod:`repro.service` batch engine (worker pool + content-addressed plan
  cache) and stream one JSON result object
  per line to stdout.  Each input line is a problem document (the
  ``synthesize`` format), optionally with extra ``"id"``, ``"timeout"`` and
  ``"granularity"`` keys; a line with ``"base"``/``"patch"`` keys instead
  is a *delta* against an earlier line's job (``repro corpus --suite
  churn`` emits such streams) — the batch front-end settles the base
  first, then submits the patch so the base plan warm-starts the search.
  An empty (or comment-only)
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
  (:mod:`repro.scenarios`) in the ``batch`` JSONL format.
* ``bench --suite NAME`` — run a scenario suite through the service engine
  and write a schema-versioned ``BENCH_<suite>.json`` (per-scenario wall
  time, model-checker calls, cache hits, plan shape);
  ``bench --compare BASELINE CURRENT`` diffs two such documents
  (reporting the median per-scenario speedup) and exits non-zero when a
  regression exceeds ``--threshold``.  ``--suite churn`` runs the
  two-pass delta benchmark (:mod:`repro.bench.churn`): every churn trace
  replayed cold and as chained deltas, self-gated on the median delta
  speedup (exit 1 below target).
* ``judge --suite NAME`` — replay a scenario suite across checker
  backends (default: incremental, batch, netplumber, symbolic) and fail
  (non-zero exit, scenario named) if any backends disagree on the verdict
  or the normalized plan; also flags portfolio-race picks that were
  measurably slower than a losing backend.  ``--json`` emits the
  ``repro-judge/1`` document.
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
    options = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        timeout=args.timeout,
        portfolio=args.portfolio or (),
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
    errored = False
    # ids in line order; each result prints as it settles
    for result in engine.as_completed(job.job_id for job in jobs):
        errored = errored or result.status.value == "error"
        json.dump(result.to_dict(include_plan=not args.no_plans), sys.stdout)
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

    options = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        timeout=args.timeout,
        portfolio=args.portfolio or (),
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
            f"plan-cache hit rate {entry['plan_cache']['hit_rate']:.2f}",
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
    if args.suite == "churn":
        # the churn suite is a two-pass delta benchmark with its own
        # (always serial) runner and a self-gated speedup target
        from repro.bench.churn import format_churn_summary, run_churn_suite

        if args.workers:
            print(
                "warning: --workers is ignored for the churn suite "
                "(both passes run serially for fair timing)",
                file=sys.stderr,
            )
        document = run_churn_suite(
            quick=args.quick,
            base_seed=args.seed,
            timeout=args.timeout,
            checker=args.checker,
        )
        out_path = args.out or "BENCH_churn.json"
        write_bench(document, out_path)
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
    )
    out_path = args.out or f"BENCH_{args.suite}.json"
    write_bench(document, out_path)
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(format_bench_summary(document))
        print(f"wrote {out_path}")
    if document["totals"]["statuses"].get("error"):
        return EXIT_FAILURE
    return EXIT_OK


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
                            help="passes over the corpus (default 2)")
    p_loadtest.add_argument("--server", default=None, metavar="URL",
                            help="target a running server (default: self-host "
                                 "one for the duration of the run)")
    p_loadtest.add_argument("--use-plan-cache", action="store_true",
                            help="let repeat rounds hit the plan cache "
                                 "(default: bypass it so every round "
                                 "re-synthesizes)")
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
    p_batch.add_argument("--cache-dir", default=None,
                         help="persist the plan cache to this directory")
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
    p_bench.add_argument("--json", action="store_true",
                         help="emit the document/comparison as JSON to stdout")
    p_bench.set_defaults(fn=_cmd_bench)

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
