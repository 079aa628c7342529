"""ShardedSorter contract tests.

The central claim of DESIGN.md section 12: pooled (forked workers over
shared memory) and in-process executions of the same sharded plan are
bit-identical in output, IDs, *and* aggregate :class:`MemoryStats` — and on
precise memory the sharded result equals the serial base sorter's.
"""

import pytest

from repro.errors import ConfigError
from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.memory.write_combining import WriteCombiningArray
from repro.parallel.pool import fork_available
from repro.parallel.sharded import ShardedSorter
from repro.sorting.registry import make_base_sorter, with_kernels
from repro.workloads.generators import uniform_keys

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pooled path requires fork"
)


def sharded(algorithm, *, shards=3, workers=0, **kwargs):
    kwargs.setdefault("min_n", 2)
    return ShardedSorter(
        make_base_sorter(algorithm), shards=shards, workers=workers, **kwargs
    )


def run_precise(sorter, keys, with_ids=True):
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    ids_stats = MemoryStats()
    ids = (
        PreciseArray(list(range(len(keys))), stats=ids_stats)
        if with_ids
        else None
    )
    sorter.sort(array, ids)
    return (
        array.peek_block_np(0, len(array)).tolist(),
        ids.peek_block_np(0, len(ids)).tolist() if ids is not None else None,
        stats.as_dict(),
        ids_stats.as_dict(),
    )


def run_approx(sorter, factory, keys, seed=0):
    stats = MemoryStats()
    array = factory.make_array(keys, stats=stats, seed=seed)
    sorter.sort(array)
    return array.peek_block_np(0, len(array)).tolist(), stats.as_dict()


class TestPrecise:
    @pytest.mark.parametrize("algorithm", ["mergesort", "lsd3", "quicksort"])
    def test_matches_serial_base(self, algorithm):
        keys = uniform_keys(500, seed=11)
        serial = run_precise(make_base_sorter(algorithm), list(keys))
        result = run_precise(sharded(algorithm), list(keys))
        assert result[0] == serial[0] == sorted(keys)
        assert result[1] == serial[1]

    @needs_fork
    @pytest.mark.parametrize("algorithm", ["mergesort", "quicksort"])
    def test_pooled_equals_in_process(self, algorithm):
        keys = uniform_keys(600, seed=5)
        local = run_precise(sharded(algorithm, workers=0), list(keys))
        pooled = run_precise(sharded(algorithm, workers=2), list(keys))
        assert pooled == local

    def test_numpy_kernels_match_scalar(self):
        keys = uniform_keys(300, seed=2)
        scalar = run_precise(sharded("lsd3", kernels="scalar"), list(keys))
        vector = run_precise(sharded("lsd3", kernels="numpy"), list(keys))
        assert scalar == vector


class TestApprox:
    @needs_fork
    @pytest.mark.parametrize("algorithm", ["mergesort", "lsd3", "quicksort"])
    def test_pooled_equals_in_process_pcm(self, pcm_sweet, algorithm):
        keys = uniform_keys(400, seed=9)
        local = run_approx(
            sharded(algorithm, workers=0), pcm_sweet, list(keys), seed=4
        )
        pooled = run_approx(
            sharded(algorithm, workers=2), pcm_sweet, list(keys), seed=4
        )
        assert pooled == local

    @needs_fork
    def test_pooled_equals_in_process_spintronic(self, stt_33):
        keys = uniform_keys(400, seed=9)
        local = run_approx(
            sharded("mergesort", workers=0), stt_33, list(keys), seed=4
        )
        pooled = run_approx(
            sharded("mergesort", workers=2), stt_33, list(keys), seed=4
        )
        assert pooled == local

    def test_repeat_runs_identical(self, pcm_sweet):
        keys = uniform_keys(300, seed=1)
        first = run_approx(sharded("lsd3"), pcm_sweet, list(keys), seed=7)
        second = run_approx(sharded("lsd3"), pcm_sweet, list(keys), seed=7)
        assert first == second


class TestEdgeCases:
    def test_all_equal_keys_single_live_shard(self):
        keys = [123456] * 200
        sorter = sharded("mergesort", shards=4)
        result = run_precise(sorter, keys, with_ids=False)
        assert result[0] == keys
        assert sorter.last_plan is not None
        counts = sorter.last_plan["counts"]
        assert sum(counts) == 200
        assert sum(1 for count in counts if count) == 1

    def test_more_shards_than_keys(self):
        keys = [5, 3, 9, 1, 7]
        result = run_precise(sharded("mergesort", shards=8), list(keys))
        assert result[0] == sorted(keys)

    def test_sample_partition_balances_skew(self):
        # Keys packed into a narrow range defeat the radix partition but
        # not the sampled splitters.
        keys = [1000 + value for value in uniform_keys(512, seed=3)]
        keys = [value % 2048 for value in keys]
        radix = sharded("mergesort", shards=4, partition="radix")
        sample = sharded("mergesort", shards=4, partition="sample")
        out_radix = run_precise(radix, list(keys), with_ids=False)
        out_sample = run_precise(sample, list(keys), with_ids=False)
        assert out_radix[0] == out_sample[0] == sorted(keys)
        assert max(radix.last_plan["counts"]) == 512  # all in shard 0
        assert max(sample.last_plan["counts"]) < 512

    def test_below_min_n_delegates_to_base(self):
        sorter = ShardedSorter(make_base_sorter("mergesort"), shards=3,
                               workers=0, min_n=64)
        result = run_precise(sorter, uniform_keys(32, seed=0))
        assert result[0] == sorted(uniform_keys(32, seed=0))
        assert sorter.last_plan is None

    def test_wrapped_operand_delegates_to_base(self):
        stats = MemoryStats()
        backing = PreciseArray(uniform_keys(200, seed=0), stats=stats)
        front = WriteCombiningArray(backing, capacity=16)
        sorter = sharded("mergesort")
        sorter.sort(front)
        front.flush()
        assert sorter.last_plan is None
        assert backing.peek_block_np(0, 200).tolist() == sorted(
            uniform_keys(200, seed=0)
        )


class TestPlanIntrospection:
    def test_last_plan_shape(self):
        sorter = sharded("lsd3", shards=3)
        run_precise(sorter, uniform_keys(300, seed=8), with_ids=False)
        plan = sorter.last_plan
        assert plan["n"] == 300
        assert plan["shards"] == 3
        assert sum(plan["counts"]) == 300
        assert plan["pooled"] is False
        assert len(plan["shard_stats"]) == 3
        # Per-shard precise traffic sums below the aggregate (which also
        # includes the partition and merge passes).
        shard_writes = sum(s["precise_writes"] for s in plan["shard_stats"])
        assert shard_writes > 0
        assert plan["flushed_writes"] >= 0

    def test_expected_key_writes_adds_partition_and_merge(self):
        base = make_base_sorter("mergesort")
        sorter = ShardedSorter(make_base_sorter("mergesort"), shards=4,
                               workers=0, min_n=2)
        n = 1000
        per_shard = sum(base.expected_key_writes(250) for _ in range(4))
        assert sorter.expected_key_writes(n) == 2.0 * n + per_shard
        # Below min_n the estimate is the base's.
        small = ShardedSorter(make_base_sorter("mergesort"), shards=4,
                              workers=0, min_n=64)
        assert small.expected_key_writes(10) == base.expected_key_writes(10)


class TestConfiguration:
    def test_nesting_rejected(self):
        inner = sharded("mergesort")
        with pytest.raises(ConfigError, match="nest"):
            ShardedSorter(inner)

    def test_bad_partition_rejected(self):
        with pytest.raises(ConfigError, match="partition"):
            ShardedSorter(make_base_sorter("mergesort"), partition="hash")

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError, match="shards"):
            ShardedSorter(make_base_sorter("mergesort"), shards=0)
        with pytest.raises(ConfigError, match="workers"):
            ShardedSorter(make_base_sorter("mergesort"), workers=-1)

    def test_workers_zero_runs_in_process(self):
        sorter = ShardedSorter(make_base_sorter("mergesort"), shards=3,
                               workers=0, min_n=2)
        run_precise(sorter, uniform_keys(200, seed=0), with_ids=False)
        assert sorter.last_plan["pooled"] is False

    def test_with_kernels_round_trip(self):
        sorter = sharded("lsd4", shards=5, partition="sample",
                         wc_capacity=32)
        copy = with_kernels(sorter, "numpy")
        assert isinstance(copy, ShardedSorter)
        assert copy.shards == 5
        assert copy.partition == "sample"
        assert copy.wc_capacity == 32
        assert copy.base.bits == 4
