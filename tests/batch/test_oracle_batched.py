"""The ``batched_loop`` oracle class: registration and representative runs."""

from __future__ import annotations

import pytest

from repro.verify.oracle import (
    BIT_CLASSES,
    EQUIVALENCE_CLASSES,
    OracleCase,
    check_batched_loop,
    run_case,
)


class TestBatchedLoopClass:
    def test_registered_and_bit(self):
        assert "batched_loop" in EQUIVALENCE_CLASSES
        assert "batched_loop" in BIT_CLASSES

    @pytest.mark.parametrize("algorithm", ["lsd6", "mergesort", "quicksort"])
    def test_passes_for_representative_sorters(self, algorithm):
        result = run_case(
            OracleCase(algorithm=algorithm, n=120),
            classes=["batched_loop"],
        )
        assert result.passed, [d.describe() for d in result.divergences]

    def test_passes_on_degenerate_workload(self):
        result = run_case(
            OracleCase(algorithm="mergesort", workload="max_word", n=40),
            classes=["batched_loop"],
        )
        assert result.passed, [d.describe() for d in result.divergences]

    def test_detects_an_injected_divergence(self, monkeypatch):
        # Skew one job's stats inside the engine: the oracle must localize
        # the stats divergence rather than pass vacuously.
        from repro.batch import engine

        real = engine.run_precise_baseline
        calls = []

        def skewed(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(result)
            if len(calls) == 1:
                result.stats.record_precise_read(1)
            return result

        monkeypatch.setattr(engine, "run_precise_baseline", skewed)
        divergences = check_batched_loop(OracleCase(algorithm="lsd6", n=60))
        assert calls
        assert divergences
        assert "stats" in divergences[0].field
