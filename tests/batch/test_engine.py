"""Batch engine contracts: batched execution is bit-identical to looped.

The ragged batch used throughout mixes a full-size segment with empty,
singleton and tiny ones, so every test also covers the edge segments the
engine promises to treat as first-class.
"""

from __future__ import annotations

import pytest

from repro.batch import (
    BatchJob,
    SEGMENTED_SORTERS,
    run_approx_refine_batch,
    run_batch,
    run_job_group,
    run_precise_sort_batch,
    tiled_aggregate,
)
from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.errors import ConfigError
from repro.memory.stats import MemoryStats
from repro.sorting.registry import SHARDS_ENV, available_sorters
from repro.verify import SANITIZE_ENV
from repro.workloads.generators import uniform_keys

RAGGED_LENGTHS = (37, 1, 0, 64, 2, 3)


def ragged_keys(seed: int = 0) -> list[list[int]]:
    return [
        uniform_keys(n, seed=seed + j) if n else []
        for j, n in enumerate(RAGGED_LENGTHS)
    ]


def assert_results_equal(looped, batched, approx: bool) -> None:
    assert len(looped) == len(batched)
    for want, got in zip(looped, batched):
        assert want.final_keys == got.final_keys
        assert want.final_ids == got.final_ids
        assert want.stats.as_dict() == got.stats.as_dict()
        if approx:
            assert want.rem_tilde == got.rem_tilde
            assert want.approx_rem_ratio == got.approx_rem_ratio
            assert set(want.stage_stats) == set(got.stage_stats)
            for stage in want.stage_stats:
                assert (
                    want.stage_stats[stage].as_dict()
                    == got.stage_stats[stage].as_dict()
                ), stage


class TestPreciseBitIdentity:
    @pytest.mark.parametrize("algorithm", available_sorters())
    @pytest.mark.parametrize("kernels", ["scalar", "numpy"])
    def test_every_sorter_matches_looped(self, algorithm, kernels):
        keys_list = ragged_keys()
        looped = [
            run_precise_baseline(keys, algorithm, kernels=kernels)
            for keys in keys_list
        ]
        batched = run_precise_sort_batch(keys_list, algorithm, kernels=kernels)
        assert_results_equal(looped, batched, approx=False)

    def test_outputs_are_sorted_permutations(self):
        keys_list = ragged_keys(seed=11)
        for result, keys in zip(
            run_precise_sort_batch(keys_list, "lsd6"), keys_list
        ):
            assert result.final_keys == sorted(keys)
            assert sorted(result.final_ids) == list(range(len(keys)))


class TestApproxBitIdentity:
    @pytest.mark.parametrize("algorithm", ["lsd6", "lsd3", "mergesort",
                                           "msd3", "quicksort"])
    @pytest.mark.parametrize("kernels", ["scalar", "numpy"])
    def test_matches_looped_per_job(self, algorithm, kernels, pcm_sweet):
        keys_list = ragged_keys(seed=5)
        seeds = [101 + 7 * j for j in range(len(keys_list))]
        looped = [
            run_approx_refine(
                keys, algorithm, pcm_sweet, seed=seed, kernels=kernels
            )
            for keys, seed in zip(keys_list, seeds)
        ]
        batched = run_approx_refine_batch(
            keys_list, algorithm, pcm_sweet, seeds=seeds, kernels=kernels
        )
        assert_results_equal(looped, batched, approx=True)

    def test_per_segment_stats_tile_the_aggregate(self, pcm_sweet):
        keys_list = ragged_keys(seed=3)
        seeds = list(range(len(keys_list)))
        batched = run_approx_refine_batch(
            keys_list, "lsd6", pcm_sweet, seeds=seeds, kernels="numpy"
        )
        aggregate = tiled_aggregate([result.stats for result in batched])
        looped_sum = MemoryStats()
        for keys, seed in zip(keys_list, seeds):
            looped_sum.merge(
                run_approx_refine(
                    keys, "lsd6", pcm_sweet, seed=seed, kernels="numpy"
                ).stats
            )
        assert aggregate.as_dict() == looped_sum.as_dict()


class TestRunBatch:
    def test_mixed_groups_return_in_job_order(self, pcm_sweet):
        jobs = [
            BatchJob(keys=uniform_keys(20, seed=1), sorter="lsd6"),
            BatchJob(keys=uniform_keys(16, seed=2), sorter="mergesort",
                     memory=pcm_sweet, seed=9, kernels="numpy"),
            BatchJob(keys=uniform_keys(12, seed=3), sorter="lsd6"),
            BatchJob(keys=[], sorter="quicksort", memory=pcm_sweet),
        ]
        results = run_batch(jobs)
        for job, result in zip(jobs, results):
            assert result.algorithm == job.sorter
            assert result.n == len(job.keys)
            assert result.final_keys == sorted(job.keys)

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_instance_sorter_runs_looped(self, pcm_sweet):
        from repro.sorting.registry import make_base_sorter

        keys = uniform_keys(24, seed=4)
        jobs = [BatchJob(keys=keys, sorter=make_base_sorter("lsd6"))]
        results = run_batch(jobs)
        reference = run_precise_baseline(keys, make_base_sorter("lsd6"))
        assert results[0].final_keys == reference.final_keys
        assert results[0].stats.as_dict() == reference.stats.as_dict()


class TestFallbacks:
    """Observers and non-batchable substrates defer to the looped pipeline."""

    def test_sanitizer_run_matches_looped(self, pcm_sweet, monkeypatch):
        keys_list = ragged_keys(seed=8)
        looped = [
            run_approx_refine(keys, "lsd6", pcm_sweet, seed=j)
            for j, keys in enumerate(keys_list)
        ]
        monkeypatch.setenv(SANITIZE_ENV, "1")
        batched = run_batch([
            BatchJob(keys=keys, sorter="lsd6", memory=pcm_sweet, seed=j)
            for j, keys in enumerate(keys_list)
        ])
        assert_results_equal(looped, batched, approx=True)

    def test_shards_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "3")
        keys = uniform_keys(30, seed=2)
        results = run_batch([BatchJob(keys=keys, sorter="lsd6")])
        monkeypatch.delenv(SHARDS_ENV)
        reference = run_precise_baseline(keys, "lsd6")
        assert results[0].final_keys == reference.final_keys
        assert results[0].stats.as_dict() == reference.stats.as_dict()

    @pytest.mark.parametrize("value", ["abc", "0"])
    @pytest.mark.parametrize("runner", [run_batch, run_job_group])
    def test_malformed_shards_env_rejected(
        self, monkeypatch, pcm_sweet, runner, value
    ):
        # Same verdict as the looped pipeline (run_approx_refine), rather
        # than a silent batched, unsharded run.
        monkeypatch.setenv(SHARDS_ENV, value)
        keys = uniform_keys(30, seed=2)
        with pytest.raises(ConfigError, match=SHARDS_ENV):
            run_approx_refine(keys, "lsd6", pcm_sweet, seed=0)
        with pytest.raises(ConfigError, match=SHARDS_ENV):
            runner([BatchJob(keys=keys, sorter="lsd6", memory=pcm_sweet)])

    def test_spintronic_memory_runs_looped_but_equal(self, stt_33):
        keys_list = [uniform_keys(18, seed=6), uniform_keys(9, seed=7)]
        looped = [
            run_approx_refine(keys, "lsd6", stt_33, seed=j)
            for j, keys in enumerate(keys_list)
        ]
        batched = run_batch([
            BatchJob(keys=keys, sorter="lsd6", memory=stt_33, seed=j)
            for j, keys in enumerate(keys_list)
        ])
        assert_results_equal(looped, batched, approx=True)

    def test_sharded_spec_runs_looped(self):
        keys = uniform_keys(40, seed=9)
        results = run_batch(
            [BatchJob(keys=keys, sorter="sharded:lsd6:2", kernels="numpy")]
        )
        reference = run_precise_baseline(
            keys, "sharded:lsd6:2", kernels="numpy"
        )
        assert results[0].final_keys == reference.final_keys
        assert results[0].stats.as_dict() == reference.stats.as_dict()


class TestSegmentedSortersConstant:
    def test_segmented_set_is_the_stable_closed_form_family(self):
        assert set(SEGMENTED_SORTERS) == {
            "lsd3", "lsd4", "lsd5", "lsd6", "mergesort"
        }
        for name in SEGMENTED_SORTERS:
            assert name in available_sorters()
