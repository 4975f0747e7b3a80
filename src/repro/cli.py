"""Command-line interface: ``python -m repro <subcommand>``.

Every command that reads a problem file (``synthesize``, ``check``,
``analyze``) reads one ``repro-api/1`` request document
(:class:`~repro.api.SynthesisRequest`: ``{"api", "problem", "options",
"id"}``), on one line or pretty-printed, decoded exactly as ``batch``
decodes each of its lines and as ``POST /v1/jobs`` decodes its body.  The
command-line flags are option defaults: the document's sparse ``options``
merge onto them, and a document without ``options`` takes them whole.
Flat problem files from older releases (a bare ``problem`` object) are a
parse error; regenerate them with ``repro demo`` or ``repro corpus``.

Subcommands:

* ``synthesize PROBLEM.json`` — solve the problem as a one-job
  :class:`~repro.service.SynthesisService` batch and print the plan (or
  the infeasibility verdict).  ``--json`` emits the plan machine-readably.
* ``check PROBLEM.json`` — model check the problem's *initial* (or, with
  ``--final``, final) configuration against its specification.  ``--json``
  emits the verdict machine-readably (ok flag, counterexample trace,
  checker backend, build/check timings), mirroring ``synthesize --json``.
* ``serve`` — run the long-lived synthesis server: the continuous
  scheduler core behind the ``repro-api/1`` HTTP JSON API
  (:mod:`repro.service.server`).  ``POST /v1/jobs`` accepts single and
  batch submissions; jobs from independent clients share the plan cache
  and fingerprint coalescing.
* ``demo NAME`` — write a ready-made problem file (``fig1-green``,
  ``fig1-blue``, ``double-diamond``) to stdout as one compact request
  line: a ``synthesize``/``check``/``analyze`` input, a one-line ``batch``
  file, and a ``POST /v1/jobs`` body alike.
* ``batch PROBLEMS.jsonl`` — run many problems through the
  :mod:`repro.service` batch engine (content-addressed plan cache,
  in-process execution) and stream one JSON result object per line to
  stdout.  Each input line is a ``repro-api/1`` job document, decoded
  as the server decodes it: a ``SynthesisRequest``, or a
  ``SynthesisDelta`` whose ``base`` is the ``id`` of an earlier line
  (``repro corpus --suite churn`` emits such streams) — the front-end
  settles that base first, then submits the patch so the base plan
  warm-starts the search.  An empty (or comment-only) file is a valid
  empty batch: the result stream is empty and the exit status is 0.
  With ``--server URL`` the batch routes through
  :class:`~repro.service.client.ReproClient` to a running ``repro serve``
  instead of an in-process engine — same JSONL output, same exit codes;
  a one-line file (such as a ``demo`` file) submits one remote job.
* ``analyze [PROBLEM.json ...] [--suite NAME]`` — statically lint problems
  (:mod:`repro.analysis`): per-class reachability over both endpoint
  configurations, spec vacuity, dead rules, unreachable switches, and
  sound infeasibility certificates — no model checking.  A file that fails
  to load is an ``RA000`` diagnostic naming its path.  ``--json`` emits
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
  or the normalized plan.  ``--json`` emits the ``repro-judge/2``
  document.

Exit status codes (the shared taxonomy lives in :mod:`repro.errors` —
:func:`repro.errors.exit_code_for` — and is also what the server's error
envelope carries, so every front-end agrees):

* ``0`` — success (for ``batch``: every job settled without an ``error``
  status; individual ``infeasible``/``timeout`` verdicts are *results*, not
  failures, and are reported in the output stream);
* ``1`` — generic failure (library error, violation found by ``check``,
  some ``batch`` job errored);
* ``2`` — the synthesis problem is infeasible (``synthesize``);
* ``3`` — synthesis exceeded its time budget (``synthesize``);
* ``4`` — input could not be parsed (bad problem file, LTL syntax error,
  malformed JSONL line, bad request document, bad command-line usage).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional, Union

from repro.api import (
    SynthesisDelta,
    SynthesisRequest,
    is_delta_document,
    options_from_dict,
)
from repro.errors import (
    EXIT_FAILURE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_TIMEOUT,
    ParseError,
    ReproError,
    exit_code_for,
)
from repro.kripke.structure import KripkeStructure
from repro.mc.interface import CHECKER_NAMES, make_checker
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.serialize import Problem, plan_to_dict
from repro.service.jobs import SynthesisOptions
from repro.topo import double_diamond, mini_datacenter

# Exit codes and checker names are re-exported here for backwards
# compatibility; the canonical definitions live in repro.errors (shared
# with the wire-API error envelope) and repro.mc.interface.
__all__ = [
    "EXIT_OK", "EXIT_FAILURE", "EXIT_INFEASIBLE", "EXIT_TIMEOUT",
    "EXIT_PARSE_ERROR", "CHECKERS", "DEMOS", "build_parser", "main",
]

CHECKERS = list(CHECKER_NAMES)

DEMOS = ("fig1-green", "fig1-blue", "double-diamond")


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
    raise ReproError(f"unknown demo {name!r} (try {', '.join(DEMOS)})")


def _cmd_demo(args: argparse.Namespace) -> int:
    json.dump(SynthesisRequest(_demo_problem(args.name)).to_dict(), sys.stdout)
    sys.stdout.write("\n")
    return 0


def _decode_request(data, defaults: SynthesisOptions) -> SynthesisRequest:
    """Decode one request document; its sparse ``options`` merge onto
    ``defaults`` (the command-line flags), which a request without
    ``options`` takes whole."""
    request = SynthesisRequest.from_dict(data, option_defaults=defaults)
    return replace(request, options=request.options or defaults)


def _read_request(path: str, defaults: SynthesisOptions) -> SynthesisRequest:
    """Read a problem file: one request document (see the module
    docstring).  Every failure is a :class:`~repro.errors.ParseError`
    naming ``path``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return _decode_request(json.load(handle), defaults)
    except (OSError, ValueError, ReproError) as err:
        raise ParseError(f"{path}: {err}") from err


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.service import SynthesisService

    defaults = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        remove_waits=not args.keep_waits,
        timeout=args.timeout,
    )
    request = _read_request(args.problem, defaults)
    with SynthesisService(default_options=defaults) as service:
        job = service.submit(
            request.problem, options=request.options, job_id=request.job_id
        )
        result = service.result(job.job_id)
    status = result.status.value
    if status == "infeasible":
        print(f"INFEASIBLE: {result.message}")
    elif status == "timeout":
        print(f"TIMEOUT: {result.message}")
    elif status != "done":
        print(f"error: {result.message}", file=sys.stderr)
    elif args.json:
        json.dump(plan_to_dict(result.plan), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        plan = result.plan
        print(plan.summary())
        for command in plan.commands:
            print(f"  {command}")
        stats = plan.stats
        print(
            f"model checks: {stats.model_checks}, counterexamples: "
            f"{stats.counterexamples}, waits kept: {stats.waits_after_removal}"
            f"/{stats.waits_before_removal}"
        )
    return exit_code_for(status)


def _cmd_check(args: argparse.Namespace) -> int:
    import time as time_module

    request = _read_request(args.problem, SynthesisOptions(checker=args.checker))
    problem, checker_name = request.problem, request.options.checker
    config = problem.final if args.final else problem.init
    build_start = time_module.perf_counter()
    structure = KripkeStructure(problem.topology, config, problem.ingresses)
    checker = make_checker(checker_name, structure, problem.spec)
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
            "checker": getattr(checker, "name", checker_name),
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


def _backends_arg(value: str):
    """argparse type for ``judge --backends``: comma-separated checker
    backends."""
    backends = tuple(entry.strip() for entry in value.split(",") if entry.strip())
    if not backends:
        raise argparse.ArgumentTypeError("expected at least one backend name")
    for backend in backends:
        if backend not in CHECKERS:
            raise argparse.ArgumentTypeError(
                f"unknown backend {backend!r} (choose from {', '.join(CHECKERS)})"
            )
    return backends


def _timeout_arg(value: str) -> float:
    """argparse type for every ``--timeout``: the wire rule for
    ``options.timeout``, a finite number of seconds >= 0."""
    try:
        return options_from_dict({"timeout": float(value)}).timeout
    except (ValueError, ParseError):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {value!r}"
        ) from None


def _read_batch(
    path: str, defaults: SynthesisOptions
) -> List[Union[SynthesisRequest, SynthesisDelta]]:
    """Decode a JSONL batch file: one ``repro-api/1`` document per line.

    Blank and ``#``-comment lines are skipped, so an empty file is a valid
    empty batch.  A line with a ``base`` key is a :class:`SynthesisDelta`,
    any other a :class:`SynthesisRequest`; sparse ``options`` merge onto
    ``defaults`` (the command-line flags), which a request without options
    takes whole.  A line without an ``id`` is named ``job-<lineno>``, and a
    delta's ``base`` must be the ``id`` of an earlier line.  Every failure
    is a :class:`~repro.errors.ParseError` naming ``path:lineno``.
    """
    docs: List[Union[SynthesisRequest, SynthesisDelta]] = []
    ids = set()
    handle = sys.stdin if path == "-" else open(path, encoding="utf-8-sig")
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                data = json.loads(line)
                if is_delta_document(data):
                    doc = SynthesisDelta.from_dict(data, option_defaults=defaults)
                    if doc.base not in ids:
                        raise ParseError(
                            f"delta base {doc.base!r} is not the id of an "
                            "earlier line (deltas must follow their base line)"
                        )
                else:
                    doc = _decode_request(data, defaults)
            except (json.JSONDecodeError, ReproError) as err:
                raise ParseError(f"{path}:{lineno}: {err}") from err
            docs.append(replace(doc, job_id=doc.job_id or f"job-{lineno}"))
            ids.add(docs[-1].job_id)
    finally:
        if handle is not sys.stdin:
            handle.close()
    return docs


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import ReproClient, SynthesisService

    options = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        timeout=args.timeout,
    )
    docs = _read_batch(args.problems, options)
    if args.server:
        # thin-client mode: the scheduler lives in the `repro serve` process
        engine = ReproClient(args.server)
        hold = {}
    else:
        engine = SynthesisService(default_options=options)
        # every local job is watched from its submission until it prints:
        # a delta line's engine.result(base) runs the scheduler, which may
        # settle earlier lines long before as_completed reads them
        hold = {"watch": True}
    fingerprints = {}  # line id -> job fingerprint, for delta bases
    pending: List[SynthesisRequest] = []

    def flush() -> None:
        if not pending:
            return
        if args.server:  # the full lines since the last delta: one POST
            submitted = engine.submit_requests(pending)
        else:
            submitted = [
                engine.submit(
                    request.problem,
                    options=request.options,
                    job_id=request.job_id,
                    watch=True,
                )
                for request in pending
            ]
        fingerprints.update((job.job_id, job.fingerprint) for job in submitted)
        pending.clear()

    for doc in docs:
        if isinstance(doc, SynthesisRequest):
            pending.append(doc)
            continue
        # a delta line: settle its base first, so the base plan is cached
        # to warm-start the patched search from
        flush()
        engine.result(doc.base)
        job = engine.submit_delta(
            fingerprints[doc.base],
            doc.patch,
            options=doc.options,
            job_id=doc.job_id,
            **hold,
        )
        fingerprints[job.job_id] = job.fingerprint
    flush()
    errored = False
    # ids in line order; each result prints as it settles
    for result in engine.as_completed(doc.job_id for doc in docs):
        if not args.server:
            engine.unwatch([result.job_id])
        errored = errored or result.status.value == "error"
        json.dump(result.to_dict(include_plan=not args.no_plans), sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
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
            problem = _read_request(path, SynthesisOptions()).problem
        except ReproError as err:
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

    from repro.service import ReproServer

    options = SynthesisOptions(
        checker=args.checker,
        granularity=args.granularity,
        timeout=args.timeout,
    )
    server = ReproServer(
        host=args.host,
        port=args.port,
        default_options=options,
        verbose=args.verbose,
    )

    def _sigterm(signum, frame):  # noqa: ARG001 — signal handler signature
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(f"repro-api/1 serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down: draining in-flight work...", flush=True)
        server.close()
    return EXIT_OK


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
        # runner and a self-gated speedup target
        from repro.bench.churn import format_churn_summary, run_churn_suite

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


class _Parser(argparse.ArgumentParser):
    """Exits 4 (parse error) on bad usage, not argparse's 2, which this
    CLI's exit-code taxonomy reserves for "infeasible".  Subparsers
    inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_synth.add_argument("--timeout", type=_timeout_arg, default=None)
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
    p_serve.add_argument("--checker", default="incremental", choices=CHECKERS,
                         help="default checker for requests that don't choose one")
    p_serve.add_argument("--granularity", default="switch", choices=["switch", "rule"])
    p_serve.add_argument("--timeout", type=_timeout_arg, default=None,
                         help="default per-job timeout in seconds")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each HTTP request to stderr")
    p_serve.set_defaults(fn=_cmd_serve)

    p_batch = sub.add_parser(
        "batch", help="run a JSONL file of job documents through the batch service"
    )
    p_batch.add_argument(
        "problems",
        help="path to a JSONL file of repro-api/1 job documents ('-' for stdin)",
    )
    p_batch.add_argument("--server", default=None, metavar="URL",
                         help="route the batch through a running `repro serve` "
                              "at this base URL instead of an in-process engine")
    p_batch.add_argument("--checker", default="incremental", choices=CHECKERS)
    p_batch.add_argument("--granularity", default="switch", choices=["switch", "rule"])
    p_batch.add_argument("--timeout", type=_timeout_arg, default=None,
                         help="default per-job timeout in seconds")
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
        "problems", nargs="*", help="problem files (repro-api/1 request documents)"
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
    p_bench.add_argument("--timeout", type=_timeout_arg, default=120.0,
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
                         type=_backends_arg,
                         help="backends to cross-examine (default "
                              "incremental,batch,netplumber,symbolic)")
    p_judge.add_argument("--timeout", type=_timeout_arg, default=60.0,
                         help="per-scenario-per-backend budget in seconds "
                              "(default 60)")
    p_judge.add_argument("--max-scenarios", type=int, default=None, metavar="N",
                         help="judge a deterministic N-scenario subsample "
                              "of the suite")
    p_judge.add_argument("--out", "-o", default=None,
                         help="also write the repro-judge/2 document here")
    p_judge.add_argument("--json", action="store_true",
                         help="emit the repro-judge/2 document to stdout")
    p_judge.set_defaults(fn=_cmd_judge)

    p_demo = sub.add_parser("demo", help="emit a ready-made problem file")
    p_demo.add_argument("name", help=" | ".join(DEMOS))
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
