"""Tests for the compiled per-T word error model."""

import pickle
import random

import numpy as np
import pytest

from repro.memory.config import CELLS_PER_WORD, MLCParams
from repro.memory.error_model import (
    MODEL_CACHE,
    SMALL_BLOCK_WORDS,
    WordErrorModel,
    block_sum,
    block_sums,
    characterize_cells,
    get_model,
    precise_reference_model,
)

FIT = 8_000


@pytest.fixture(scope="module")
def sweet_model() -> WordErrorModel:
    return get_model(MLCParams(t=0.055), samples_per_level=FIT)


@pytest.fixture(scope="module")
def heavy_model() -> WordErrorModel:
    return get_model(MLCParams(t=0.12), samples_per_level=FIT)


@pytest.fixture(scope="module")
def precise_model() -> WordErrorModel:
    return get_model(MLCParams(t=0.025), samples_per_level=FIT)


class TestCharacterizeCells:
    def test_transition_rows_are_distributions(self, heavy_model):
        transition = heavy_model.characteristics.transition
        assert transition.shape == (4, 4)
        assert np.allclose(transition.sum(axis=1), 1.0)
        assert np.all(transition >= 0)

    def test_top_level_never_errs(self, heavy_model):
        """Unidirectional drift: level 3 has no higher level to reach."""
        assert heavy_model.characteristics.error_rate_by_level[3] == 0.0

    def test_errors_go_upward_only(self, heavy_model):
        transition = heavy_model.characteristics.transition
        lower = np.tril(transition, k=-1)
        assert np.all(lower == 0.0)

    def test_mean_iterations_positive(self, sweet_model):
        assert np.all(sweet_model.characteristics.mean_iterations >= 1.0)

    def test_characterize_standalone(self):
        chars = characterize_cells(MLCParams(t=0.06), samples_per_level=2_000)
        assert 0 <= chars.avg_error_rate < 0.05
        assert 1.0 < chars.avg_iterations < 4.0


class TestWordErrorModelBasics:
    def test_requires_four_levels(self):
        with pytest.raises(ValueError):
            WordErrorModel(MLCParams(levels=8, t=0.05), samples_per_level=500)

    def test_word_error_rate_consistent_with_cell_rate(self, sweet_model):
        p_cell = sweet_model.cell_error_rate
        expected = 1 - (1 - p_cell) ** CELLS_PER_WORD
        # The word rate averages per-level survivals rather than using the
        # mean cell rate, so allow a generous band.
        assert sweet_model.word_error_rate == pytest.approx(expected, rel=0.5)

    def test_p_ratio_against_reference(self, sweet_model, precise_model):
        ratio = sweet_model.p_ratio(precise_model)
        assert 0.6 < ratio < 0.72  # paper: ~33% write-latency reduction

    def test_p_ratio_paper_constant_fallback(self, sweet_model):
        assert sweet_model.p_ratio() == pytest.approx(
            sweet_model.avg_word_iterations / 3.0
        )

    def test_precise_model_is_nearly_error_free(self, precise_model):
        assert precise_model.word_error_rate < 1e-3


class TestWordCost:
    def test_write_cost_positive_and_bounded(self, sweet_model):
        for value in (0, 1, 0xFFFFFFFF, 0xDEADBEEF):
            cost = sweet_model.word_write_cost(value)
            assert 1.0 <= cost <= 10.0

    def test_write_cost_matches_mean_iterations(self, sweet_model):
        """Cost of a word of identical cells equals that level's mean #P."""
        iters = sweet_model.characteristics.mean_iterations
        for level in range(4):
            word = int(sum(level << (2 * k) for k in range(CELLS_PER_WORD)))
            assert sweet_model.word_write_cost(word) == pytest.approx(
                iters[level]
            )

    def test_block_cost_matches_scalar(self, sweet_model):
        values = np.array([0, 123456, 0xFFFFFFFF, 987654321], dtype=np.uint32)
        block = sweet_model.block_write_cost(values)
        scalar = [sweet_model.word_write_cost(int(v)) for v in values]
        assert np.allclose(block, scalar)


class TestCorruption:
    def test_no_error_probability_bounds(self, sweet_model):
        for value in (0, 0xFFFFFFFF, 0x0F0F0F0F):
            p = sweet_model.word_no_error_probability(value)
            assert 0.0 < p <= 1.0

    def test_all_threes_word_never_corrupts(self, heavy_model):
        word = 0xFFFFFFFF  # every cell at level 3 (drift-safe)
        rng = random.Random(0)
        assert all(
            heavy_model.corrupt_word(word, rng) == word for _ in range(2_000)
        )

    def test_corruption_only_increases_cell_levels(self, heavy_model):
        rng = random.Random(1)
        for _ in range(2_000):
            value = rng.getrandbits(32)
            out = heavy_model.corrupt_word(value, random.Random(rng.random()))
            for k in range(CELLS_PER_WORD):
                assert (out >> (2 * k)) & 3 >= (value >> (2 * k)) & 3

    def test_corrupt_word_stays_in_range(self, heavy_model):
        rng = random.Random(2)
        for _ in range(2_000):
            value = rng.getrandbits(32)
            assert 0 <= heavy_model.corrupt_word(value, rng) < 2**32

    def test_empirical_rate_matches_model(self, heavy_model):
        rng = random.Random(3)
        trials = 20_000
        errors = 0
        expected = 0.0
        for _ in range(trials):
            value = rng.getrandbits(32)
            expected += 1.0 - heavy_model.word_no_error_probability(value)
            if heavy_model.corrupt_word(value, rng) != value:
                errors += 1
        assert errors / trials == pytest.approx(expected / trials, rel=0.15)

    def test_block_corruption_rate_matches_scalar(self, heavy_model):
        np_rng = np.random.default_rng(4)
        values = np_rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(
            np.uint32
        )
        out = heavy_model.corrupt_block(values, np_rng)
        block_rate = np.mean(out != values)
        assert block_rate == pytest.approx(heavy_model.word_error_rate, rel=0.2)

    def test_block_corruption_only_increases_levels(self, heavy_model):
        np_rng = np.random.default_rng(5)
        values = np_rng.integers(0, 2**32, size=5_000, dtype=np.uint64).astype(
            np.uint32
        )
        out = heavy_model.corrupt_block(values, np_rng)
        for k in range(CELLS_PER_WORD):
            before = (values >> np.uint32(2 * k)) & np.uint32(3)
            after = (out >> np.uint32(2 * k)) & np.uint32(3)
            assert np.all(after >= before)

    def test_precise_model_rarely_corrupts(self, precise_model):
        rng = random.Random(6)
        count = 0
        for _ in range(5_000):
            value = rng.getrandbits(32)
            if precise_model.corrupt_word(value, rng) != value:
                count += 1
        assert count <= 25


class TestBlockSums:
    """The vectorized per-block sums the planned MSD walk charges units
    with, against :func:`block_sum` on each block as the sampler takes it
    (a list up to ``SMALL_BLOCK_WORDS`` words, an ndarray above)."""

    @staticmethod
    def reference(values, offsets):
        blocks = [values[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        return [
            block_sum(b.tolist() if b.size <= SMALL_BLOCK_WORDS else b.copy())
            for b in blocks
        ]

    def test_every_small_size_with_order_sensitive_terms(self):
        rng = np.random.default_rng(2)
        sizes = np.repeat(np.arange(1, SMALL_BLOCK_WORDS + 2), 30)
        rng.shuffle(sizes)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = rng.random(offsets[-1]) * 10.0 ** rng.integers(-8, 8, offsets[-1])
        assert block_sums(values, offsets).tolist() == self.reference(
            values, offsets
        )

    def test_large_blocks(self):
        rng = np.random.default_rng(3)
        sizes = np.array([33, 128, 129, 1000, 2, 4096])
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = rng.random(offsets[-1]) * 3.0
        assert block_sums(values, offsets).tolist() == self.reference(
            values, offsets
        )


class TestPickling:
    def test_round_trip_after_small_block_writes(self, sweet_model):
        """Shard workers receive the model by pickle.  The small-block
        path's list tables are derived state: they must not travel, and the
        unpickled model must rebuild them and sample identically."""
        values = np.asarray([0x12345678, 0xFFFF0000, 7], dtype=np.uint32)
        sweet_model.block_cost_and_no_error(values)  # builds the lists
        assert sweet_model._half_lists is not None
        clone = pickle.loads(pickle.dumps(sweet_model))
        assert clone._half_lists is None
        assert len(pickle.dumps(sweet_model)) < 2_000_000
        assert clone.block_cost_and_no_error(values) == (
            sweet_model.block_cost_and_no_error(values)
        )
        for seed in range(50):
            assert np.array_equal(
                clone.corrupt_block(values, np.random.default_rng(seed)),
                sweet_model.corrupt_block(values, np.random.default_rng(seed)),
            )


class TestModelCache:
    def test_same_params_share_instance(self):
        a = get_model(MLCParams(t=0.07), samples_per_level=2_000)
        b = get_model(MLCParams(t=0.07), samples_per_level=2_000)
        assert a is b

    def test_different_t_distinct_instances(self):
        a = get_model(MLCParams(t=0.07), samples_per_level=2_000)
        b = get_model(MLCParams(t=0.075), samples_per_level=2_000)
        assert a is not b

    def test_precise_reference_model(self):
        reference = precise_reference_model(
            MLCParams(t=0.09), samples_per_level=2_000
        )
        assert reference.params.t == 0.025

    def test_cache_clear(self):
        a = get_model(MLCParams(t=0.08), samples_per_level=1_000)
        MODEL_CACHE.clear()
        b = get_model(MLCParams(t=0.08), samples_per_level=1_000)
        assert a is not b
