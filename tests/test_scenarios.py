"""Tests for the scenario corpus: determinism, coverage, round-trips."""

import json

import pytest

from repro.api import SynthesisDelta, SynthesisRequest
from repro.cli import _read_batch
from repro.errors import ReproError
from repro.net.serialize import problem_to_dict
from repro.service import SynthesisOptions
from repro.scenarios import (
    SUITES,
    apply_template,
    corpus_summary,
    corpus_to_jsonl,
    generate_corpus,
    get_suite,
    write_corpus,
)
from repro.scenarios.builders import family_scenarios, scenario_for_prop
from repro.topo import chained_diamond, double_diamond, ring_diamond


@pytest.fixture(scope="module")
def smoke_records():
    return generate_corpus("smoke", quick=True, base_seed=0)


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self, smoke_records):
        first = corpus_to_jsonl(smoke_records)
        second = corpus_to_jsonl(generate_corpus("smoke", quick=True, base_seed=0))
        assert first == second

    def test_same_seed_byte_identical_on_disk(self, tmp_path, smoke_records):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(smoke_records, str(a))
        write_corpus(generate_corpus("smoke", quick=True, base_seed=0), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_distinct_seeds_distinct_problems(self, smoke_records):
        other = generate_corpus("smoke", quick=True, base_seed=99)
        assert corpus_to_jsonl(smoke_records) != corpus_to_jsonl(other)
        # seed-sensitive families actually pick different diamonds
        by_id = {r.scenario_id: r for r in smoke_records}
        changed = 0
        for record in other:
            twin = by_id.get(record.scenario_id)
            if twin is None:
                continue
            if problem_to_dict(record.problem) != problem_to_dict(twin.problem):
                changed += 1
        assert changed >= 5

    def test_full_suite_sizes_are_superset_shape(self):
        quick = corpus_summary(generate_corpus("smoke", quick=True))
        full = corpus_summary(generate_corpus("smoke", quick=False))
        assert full["scenarios"] >= quick["scenarios"]


class TestCoverage:
    def test_smoke_quick_meets_corpus_contract(self, smoke_records):
        summary = corpus_summary(smoke_records)
        assert summary["scenarios"] >= 20
        assert len(summary["families"]) >= 3
        assert len(summary["templates"]) >= 3
        assert "linkfail" in summary["perturbations"]
        assert "rule" in summary["granularities"]

    def test_all_registered_suites_generate(self):
        for name in SUITES:
            records = generate_corpus(name, quick=True)
            assert records, f"suite {name} generated no scenarios"
            assert len({r.scenario_id for r in records}) == len(records)

    def test_unknown_suite_and_template_raise(self):
        with pytest.raises(ReproError):
            get_suite("nope")
        with pytest.raises(ReproError):
            apply_template("nope", ring_diamond(8, seed=1))

    def test_expected_verdicts_cover_both(self, smoke_records):
        expected = {r.expected for r in smoke_records}
        assert "feasible" in expected and "infeasible" in expected


class TestRoundTrips:
    def test_problem_roundtrip_through_serializer(self, smoke_records):
        for record in smoke_records:
            clone = SynthesisRequest.from_dict(record.to_jobs_dict()).problem
            assert problem_to_dict(clone) == problem_to_dict(record.problem), (
                record.scenario_id
            )

    def test_jsonl_parses_through_batch_loader(self, tmp_path):
        # every corpus line is a repro-api/1 document the batch reader
        # decodes through the wire schema, under the record's granularity
        for suite in ("smoke", "churn", "full"):
            records = generate_corpus(suite, quick=True)
            path = tmp_path / f"{suite}.jsonl"
            write_corpus(records, str(path))
            docs = _read_batch(str(path), SynthesisOptions())
            assert [doc.job_id for doc in docs] == [r.scenario_id for r in records]
            for doc, record in zip(docs, records):
                assert doc.options.granularity == record.granularity
                assert doc.options.timeout is None
                if record.patch is None:
                    assert isinstance(doc, SynthesisRequest)
                    assert problem_to_dict(doc.problem) == problem_to_dict(
                        record.problem
                    )
                else:
                    assert isinstance(doc, SynthesisDelta)
                    assert doc.base == record.base_id
                    assert doc.patch.to_dict() == record.patch.to_dict()

    def test_jsonl_lines_carry_meta(self, smoke_records):
        for line in corpus_to_jsonl(smoke_records).splitlines():
            doc = json.loads(line)
            meta = doc["meta"]
            assert meta["schema"].startswith("repro-corpus/")
            assert meta["family"] in ("fattree", "zoo", "smallworld", "diamond")
            assert doc["options"]["granularity"] in ("switch", "rule")


class TestBuilders:
    def test_family_scenarios_matches_legacy_families(self):
        assert family_scenarios("fattree", (4,))
        assert family_scenarios("smallworld", (8,))
        assert len(family_scenarios("zoo", ())) >= 4
        with pytest.raises(ValueError):
            family_scenarios("nope", (4,))

    def test_scenario_for_prop_shapes(self):
        assert scenario_for_prop("reachability", 12).prop == "reachability"
        assert scenario_for_prop("chain", 20).prop == "chain"

    def test_diamond_scenarios_record_paths(self):
        for scenario in (
            ring_diamond(8, seed=1),
            chained_diamond(2, 2),
            double_diamond(8, seed=1),
        ):
            assert set(scenario.init_paths) == set(scenario.ingresses)
            for tc, path in scenario.init_paths.items():
                assert path[0] in scenario.ingresses[tc]
                assert scenario.final_paths[tc][-1] == path[-1]
