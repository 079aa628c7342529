"""Traced batches synthesize a tiling span stream, sanitized or not."""

from __future__ import annotations

import math

import pytest

from repro.batch import BatchJob, run_batch
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.obs import NULL_TRACER, Tracer, set_tracer
from repro.obs.io import read_traces
from repro.obs.report import build_report, check_events
from repro.obs.tracer import STATS_FIELDS
from repro.verify import checks_performed
from repro.workloads.generators import uniform_keys

FIT = 4_000


@pytest.fixture(autouse=True)
def _null_tracer():
    previous = set_tracer(NULL_TRACER)
    yield
    set_tracer(previous)


def _jobs(memory, lengths=(120, 1, 0, 60), algo="lsd4"):
    return [
        BatchJob(
            keys=uniform_keys(n, seed=3 + j) if n else [],
            sorter=algo, memory=memory, seed=31 * j, kernels="numpy",
        )
        for j, n in enumerate(lengths)
    ]


def _traced_run(tmp_path, jobs):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(path=path)
    set_tracer(tracer)
    try:
        results = run_batch(jobs)
    finally:
        tracer.close()
        set_tracer(NULL_TRACER)
    return results, read_traces([path])


class TestEngineStaysEngagedUnderTrace:
    def test_precise_lane_emits_batch_spans(self, tmp_path):
        results, events = _traced_run(tmp_path, _jobs(memory=None))
        runs = [
            e for e in events
            if e.get("ev") == "span_end" and e["name"] == "batch.run"
        ]
        assert len(runs) == 1, "engine stood down under the tracer"
        assert runs[0]["attrs"]["jobs"] == len(results)
        assert runs[0]["attrs"]["lane"] == "precise"
        assert check_events(events) == []

    def test_approx_lane_results_match_untraced(self, tmp_path):
        memory = PCMMemoryFactory(MLCParams(t=0.055), fit_samples=FIT)
        untraced = run_batch(_jobs(memory))
        traced, events = _traced_run(tmp_path, _jobs(memory))
        for want, got in zip(untraced, traced):
            assert want.final_keys == got.final_keys
            assert want.final_ids == got.final_ids
            assert want.stats.as_dict() == got.stats.as_dict()
        assert any(
            e.get("ev") == "span_end" and e["name"] == "batch.run"
            for e in events
        )
        assert check_events(events) == []

    def test_segments_tile_the_aggregate_bit_exactly(self, tmp_path):
        memory = PCMMemoryFactory(MLCParams(t=0.055), fit_samples=FIT)
        results, events = _traced_run(tmp_path, _jobs(memory))
        ends = [e for e in events if e.get("ev") == "span_end"]
        (run,) = [e for e in ends if e["name"] == "batch.run"]
        segments = sorted(
            (e for e in ends if e["name"] == "batch.segment"),
            key=lambda e: e["id"],
        )
        assert len(segments) == len(results)
        # Verbatim chain: dict equality, not approximate sums.
        assert segments[0]["cum_start"] == run["cum_start"]
        for before, after in zip(segments, segments[1:]):
            assert after["cum_start"] == before["cum"]
        assert segments[-1]["cum"] == run["cum"]
        for field in STATS_FIELDS:
            for span in segments + [run]:
                assert (
                    span["cum"][field] - span["cum_start"][field]
                    == span["stats"][field]
                )
        # Per-segment stats are the per-job stats (write-units to ulp).
        for segment, result in zip(segments, results):
            want = result.stats.as_dict()
            assert segment["attrs"]["n"] == result.n
            for field, value in want.items():
                if field == "approx_write_units":
                    assert math.isclose(
                        segment["stats"][field], value,
                        rel_tol=1e-9, abs_tol=1e-6,
                    )
                else:
                    assert segment["stats"][field] == value

    def test_wall_clock_apportioned_over_segments(self, tmp_path):
        _, events = _traced_run(tmp_path, _jobs(memory=None))
        ends = [e for e in events if e.get("ev") == "span_end"]
        (run,) = [e for e in ends if e["name"] == "batch.run"]
        segments = [e for e in ends if e["name"] == "batch.segment"]
        assert math.isclose(
            sum(s["wall_s"] for s in segments), run["wall_s"], rel_tol=1e-9
        )

    def test_report_rolls_batch_spans_up(self, tmp_path):
        _, events = _traced_run(tmp_path, _jobs(memory=None))
        report = build_report(events)
        names = {row["name"] for row in report["spans"]}
        assert {"batch.run", "batch.segment"} <= names


class TestSanitizedRunsStayEngaged:
    def test_sanitized_run_emits_tiling_batch_spans(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        checks_before = checks_performed()
        results, events = _traced_run(
            tmp_path, _jobs(memory=None, lengths=(40, 8))
        )
        # The sanitizer really ran inside the engine...
        assert checks_performed() > checks_before
        # ...and the group still reports as one tiling batch.
        ends = [e for e in events if e.get("ev") == "span_end"]
        (run,) = [e for e in ends if e["name"] == "batch.run"]
        segments = [e for e in ends if e["name"] == "batch.segment"]
        assert run["attrs"]["jobs"] == len(segments) == len(results)
        assert check_events(events) == []
