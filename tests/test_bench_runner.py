"""Tests for the ``repro bench`` harness: BENCH schema, compare gate, CLI."""

import copy
import json
import subprocess

import pytest

from repro.bench.runner import (
    BENCH_SCHEMA,
    collect_meta,
    compare_runs,
    load_bench,
    run_suite,
    write_bench,
)
from repro.cli import main
from repro.errors import ReproError


@pytest.fixture(scope="module")
def smoke_document():
    return run_suite("smoke", quick=True, timeout=60.0)


class TestRunSuite:
    def test_schema_and_coverage_contract(self, smoke_document):
        doc = smoke_document
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["suite"] == "smoke"
        assert doc["totals"]["scenarios"] >= 20
        assert len(doc["corpus"]["families"]) >= 3
        assert len(doc["corpus"]["templates"]) >= 3
        assert doc["totals"]["expected_mismatches"] == []

    def test_rows_carry_perf_counters(self, smoke_document):
        rows = smoke_document["scenarios"]
        assert rows == sorted(rows, key=lambda r: r["id"])
        done = [r for r in rows if r["status"] == "done"]
        assert done
        for row in done:
            assert row["seconds"] >= 0.0
            assert row["model_checks"] > 0
            assert row["plan_commands"] >= row["plan_updates"]
            assert row["granularity"] in ("switch", "rule")
        infeasible = [r for r in rows if r["status"] == "infeasible"]
        assert infeasible, "the double diamond must prove infeasible"
        assert all("plan_commands" not in r for r in infeasible)

    def test_document_round_trips_to_disk(self, tmp_path, smoke_document):
        path = tmp_path / "BENCH_smoke.json"
        write_bench(smoke_document, str(path))
        assert load_bench(str(path))["totals"] == smoke_document["totals"]

    def test_load_rejects_non_bench_documents(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ReproError):
            load_bench(str(path))

    def test_unknown_suite_raises(self):
        with pytest.raises(ReproError):
            run_suite("no-such-suite")


def _git_head():
    """What ``git rev-parse HEAD`` prints here, or ``None`` if it fails."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


class TestBenchMeta:
    """Every fresh BENCH document carries provenance meta."""

    def test_document_embeds_meta(self, smoke_document):
        meta = smoke_document["meta"]
        # UTC ISO-8601 with the explicit Z suffix
        assert meta["generated_at"].endswith("Z")
        assert "T" in meta["generated_at"]
        assert meta["hostname"]
        # the SHA of the checkout the run executed in; None outside one
        assert meta["git_sha"] == _git_head()

    def test_collect_meta_survives_no_git(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        meta = collect_meta()
        assert meta["git_sha"] is None
        assert meta["generated_at"].endswith("Z")


class TestCompare:
    def test_identical_runs_pass(self, smoke_document):
        comparison = compare_runs(smoke_document, smoke_document, threshold=2.0)
        assert comparison.ok
        assert comparison.regressions == []

    def test_injected_2x_slowdown_flags_regression(self, smoke_document):
        slow = copy.deepcopy(smoke_document)
        for row in slow["scenarios"]:
            row["seconds"] = row["seconds"] * 2.0 + 0.1
        slow["totals"]["busy_seconds"] = sum(r["seconds"] for r in slow["scenarios"])
        comparison = compare_runs(smoke_document, slow, threshold=2.0)
        assert not comparison.ok
        assert any("slower" in r for r in comparison.regressions)

    def test_sub_floor_noise_is_ignored(self, smoke_document):
        noisy = copy.deepcopy(smoke_document)
        for row in noisy["scenarios"]:
            row["seconds"] = 0.019  # below the 0.02 floor: measurement noise
        noisy["totals"]["busy_seconds"] = smoke_document["totals"]["busy_seconds"]
        assert compare_runs(smoke_document, noisy, threshold=2.0).ok

    def test_status_flip_is_a_regression(self, smoke_document):
        flipped = copy.deepcopy(smoke_document)
        flipped["scenarios"][0]["status"] = "error"
        comparison = compare_runs(smoke_document, flipped, threshold=2.0)
        assert any("status changed" in r for r in comparison.regressions)

    def test_missing_scenario_is_a_regression_new_is_a_note(self, smoke_document):
        pruned = copy.deepcopy(smoke_document)
        dropped = pruned["scenarios"].pop(0)
        comparison = compare_runs(smoke_document, pruned, threshold=2.0)
        assert any("missing" in r for r in comparison.regressions)
        grown = copy.deepcopy(smoke_document)
        extra = dict(dropped, id="extra/new/scenario")
        grown["scenarios"].append(extra)
        comparison = compare_runs(smoke_document, grown, threshold=2.0)
        assert comparison.ok
        assert any("new scenario" in n for n in comparison.notes)

    def test_model_check_blowup_is_a_regression(self, smoke_document):
        blown = copy.deepcopy(smoke_document)
        for row in blown["scenarios"]:
            if "model_checks" in row:
                row["model_checks"] = (row["model_checks"] + 20) * 10
        comparison = compare_runs(smoke_document, blown, threshold=2.0)
        assert any("model checks" in r for r in comparison.regressions)

    def test_median_speedup_reported(self, smoke_document):
        baseline = copy.deepcopy(smoke_document)
        current = copy.deepcopy(smoke_document)
        for row in baseline["scenarios"]:
            row["seconds"] = 0.1  # well above the resolution floor
        for row in current["scenarios"]:
            row["seconds"] = 0.05  # uniformly 2x faster
        comparison = compare_runs(baseline, current)
        assert comparison.ok
        assert comparison.median_speedup == pytest.approx(2.0, rel=1e-3)
        assert any("median per-scenario speedup" in n for n in comparison.notes)
        assert comparison.as_dict()["median_speedup"] == comparison.median_speedup

    def test_median_speedup_ignores_noise_and_status_flips(self, smoke_document):
        baseline = copy.deepcopy(smoke_document)
        current = copy.deepcopy(smoke_document)
        # all rows sub-floor on both sides: no signal, no median at all —
        # in particular a 0-second row must not mint an absurd ratio
        for row in baseline["scenarios"]:
            row["seconds"] = 0.0002
        for row in current["scenarios"]:
            row["seconds"] = 0.0
        comparison = compare_runs(baseline, current)
        assert comparison.median_speedup is None

    def test_bad_threshold_rejected(self, smoke_document):
        with pytest.raises(ReproError):
            compare_runs(smoke_document, smoke_document, threshold=1.0)


class TestCli:
    def test_bench_cli_writes_document_and_compares(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "--suite", "smoke", "--quick", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        document = load_bench(str(out))
        assert document["totals"]["scenarios"] >= 20

        # identical runs: exit 0
        assert main(["bench", "--compare", str(out), str(out)]) == 0

        # injected 2x slowdown: exit non-zero
        slow_path = tmp_path / "BENCH_slow.json"
        slow = copy.deepcopy(document)
        for row in slow["scenarios"]:
            row["seconds"] = row["seconds"] * 2.0 + 0.1
        slow["totals"]["busy_seconds"] = sum(r["seconds"] for r in slow["scenarios"])
        write_bench(slow, str(slow_path))
        assert main(["bench", "--compare", str(out), str(slow_path)]) != 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_cli_requires_suite_or_compare(self, capsys):
        assert main(["bench"]) == 1
        assert "needs --suite" in capsys.readouterr().err

    def test_corpus_cli_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert main(["corpus", "--suite", "smoke", "--quick", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) >= 20
        assert all(json.loads(line)["id"] for line in lines)

    def test_corpus_cli_stdout_deterministic(self, capsys):
        assert main(["corpus", "--suite", "smoke", "--quick", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["corpus", "--suite", "smoke", "--quick", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


class TestBatchEmptyInput:
    """Regression: an empty JSONL file is a valid, empty batch."""

    def test_empty_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["batch", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_comments_and_blank_lines_only(self, tmp_path, capsys):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n# nothing but comments\n\n")
        assert main(["batch", str(path), "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"submitted": 0' in captured.err

    def test_utf8_bom_only_file(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf\n")
        assert main(["batch", str(path)]) == 0
