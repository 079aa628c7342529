"""Determinism regression tests for the vectorized ApproxArray backend.

The numpy backing store and the batched corruption RNG must never silently
change the sampled corruption stream: experiment tables are reproduced from
(configuration, seed) pairs, so a drive-by change to RNG consumption order
would invalidate every recorded number.  These tests pin the exact stored
words and accounting of one (T, seed) pair for both the scalar and the
block write path, plus distribution-level agreement between the two paths.

If an intentional change to the corruption streams lands, regenerate the
golden values below and say so loudly in the commit message.
"""

import hashlib

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine
from repro.memory import error_model
from repro.memory.approx_array import ApproxArray, SCALAR_RNG_BATCH
from repro.memory.config import MLCParams
from repro.memory.error_model import (
    SMALL_BLOCK_WORDS,
    get_model,
    pairwise_sum,
)
from repro.memory.factories import PCMMemoryFactory
from repro.workloads.generators import uniform_keys

try:
    from hypothesis import given, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    given = None

#: Golden configuration: T = 0.1 (dense corruption makes the pinned values
#: exercise the error paths), fit of 8_000 samples/level, array seed 11.
GOLDEN_T = 0.1
GOLDEN_FIT = 8_000
GOLDEN_SEED = 11
GOLDEN_KEYS = uniform_keys(64, seed=9)

GOLDEN_SCALAR_STORED = [
    1603362544, 595284394, 27638352, 2159432582, 347096279, 1627876803,
    3114132053, 675247014, 1022271021, 476516009, 2535870938, 1250600339,
    2895821580, 918248465, 1207677876, 3476822005, 3807057864, 3776879099,
    2111885832, 100859404, 2563432515, 2485498850, 872106831, 358645241,
    4290892754, 1804347661, 1709976312, 2490222688, 4115978434, 232672148,
    4286223985, 3029963192, 1016988545, 1759640181, 2509123600, 1938319021,
    1727308313, 78900410, 1412922062, 1878956900, 916663134, 1907027625,
    381464229, 2703725597, 3367678611, 109053898, 3468400067, 2136018677,
    3168039858, 991936988, 1586389040, 2866913749, 1112018821, 741982018,
    4065269031, 4235551146, 2605145270, 51067140, 261609510, 1670221073,
    2895017036, 1522699514, 604063555, 2414532871,
]
GOLDEN_SCALAR_CORRUPTED = 21

GOLDEN_BLOCK_STORED = [
    1603362544, 595022250, 27638352, 2159432582, 347096279, 1628138947,
    3115180629, 675247014, 1022254636, 476516009, 2535870938, 1267377555,
    2895821580, 901733393, 1207677876, 3476821989, 3807057864, 3776879099,
    2111885832, 117636620, 2563432515, 2485498850, 872106831, 358645242,
    3955348434, 1804347661, 1978427900, 2490288288, 4132755650, 232672148,
    4286223921, 3097071992, 1016988545, 1491204725, 2508926992, 1938384301,
    1727308309, 78884026, 1411807950, 1862183780, 916925021, 1907027625,
    381464229, 2720506909, 3367678611, 109053898, 3468400066, 2136018681,
    3168039858, 2065678812, 1586389040, 2866913749, 1112018821, 741982019,
    4065269031, 4235551146, 2605145270, 55261444, 261609510, 1737329937,
    2626581580, 1522699514, 604063555, 2681915655,
]
GOLDEN_BLOCK_CORRUPTED = 22

GOLDEN_WRITE_UNITS = 31.684875


@pytest.fixture(scope="module")
def model():
    return get_model(MLCParams(t=GOLDEN_T), samples_per_level=GOLDEN_FIT)


def fresh_array(model, n=len(GOLDEN_KEYS)):
    return ApproxArray(
        [0] * n, model=model, precise_iterations=3.0, seed=GOLDEN_SEED
    )


class TestGoldenValues:
    def test_scalar_write_stream_pinned(self, model):
        array = fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            array.write(index, key)
        assert array.to_list() == GOLDEN_SCALAR_STORED
        assert array.stats.approx_writes == len(GOLDEN_KEYS)
        assert array.stats.corrupted_writes == GOLDEN_SCALAR_CORRUPTED
        assert array.stats.approx_write_units == pytest.approx(
            GOLDEN_WRITE_UNITS, rel=1e-12
        )

    def test_block_write_stream_pinned(self, model):
        array = fresh_array(model)
        array.write_block(0, GOLDEN_KEYS)
        assert array.to_list() == GOLDEN_BLOCK_STORED
        assert array.stats.approx_writes == len(GOLDEN_KEYS)
        assert array.stats.corrupted_writes == GOLDEN_BLOCK_CORRUPTED
        assert array.stats.approx_write_units == pytest.approx(
            GOLDEN_WRITE_UNITS, rel=1e-12
        )

    def test_same_seed_same_stream(self, model):
        """Two arrays with the same seed replay identical corruption."""
        a, b = fresh_array(model), fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            a.write(index, key)
            b.write(index, key)
        assert a.to_list() == b.to_list()

    def test_streams_independent_of_batch_boundary(self, model):
        """Interleaving scalar and block writes must not couple the two
        streams: the block path draws from its own generator."""
        a = fresh_array(model, n=2 * len(GOLDEN_KEYS))
        b = fresh_array(model, n=2 * len(GOLDEN_KEYS))
        # a: all scalar writes first, then the block; b: block first.
        for index, key in enumerate(GOLDEN_KEYS):
            a.write(index, key)
        a.write_block(len(GOLDEN_KEYS), GOLDEN_KEYS)
        b.write_block(len(GOLDEN_KEYS), GOLDEN_KEYS)
        for index, key in enumerate(GOLDEN_KEYS):
            b.write(index, key)
        assert a.to_list() == b.to_list()

    def test_write_cost_identical_across_paths(self, model):
        """Write-unit accounting depends only on values, never on the path."""
        scalar, block = fresh_array(model), fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            scalar.write(index, key)
        block.write_block(0, GOLDEN_KEYS)
        assert scalar.stats.approx_write_units == pytest.approx(
            block.stats.approx_write_units, rel=1e-12
        )


class TestPathAgreement:
    """Scalar, sparse-block and dense-block corruption sample the same
    per-word distribution; check their observed rates against the model's
    exact expectation with a binomial tolerance."""

    @pytest.mark.parametrize("t,n", [(0.1, 20_000), (0.055, 50_000)])
    def test_corruption_rate_matches_expectation(self, t, n):
        model = get_model(MLCParams(t=t), samples_per_level=GOLDEN_FIT)
        keys = uniform_keys(n, seed=17)
        vals = np.asarray(keys, dtype=np.uint32)
        p_err = 1.0 - model.block_no_error_probability(vals)
        expected = float(p_err.sum())
        sigma = float(np.sqrt((p_err * (1.0 - p_err)).sum()))

        block = ApproxArray([0] * n, model=model, precise_iterations=3.0,
                            seed=23)
        block.write_block(0, keys)
        assert abs(block.stats.corrupted_writes - expected) < 5 * sigma + 1

        scalar = ApproxArray([0] * n, model=model, precise_iterations=3.0,
                             seed=29)
        for index, key in enumerate(keys):
            scalar.write(index, key)
        assert abs(scalar.stats.corrupted_writes - expected) < 5 * sigma + 1

    def test_scalar_batch_refill_preserves_distribution(self, model):
        """Crossing the uniform-batch boundary must not skew rates: write
        more words than SCALAR_RNG_BATCH and compare halves."""
        n = 4 * SCALAR_RNG_BATCH
        keys = uniform_keys(n, seed=31)
        array = ApproxArray([0] * n, model=model, precise_iterations=3.0,
                            seed=37)
        for index, key in enumerate(keys):
            array.write(index, key)
        stored = array.to_numpy()
        vals = np.asarray(keys, dtype=np.uint32)
        corrupted = stored != vals
        half = n // 2
        rate_lo = corrupted[:half].mean()
        rate_hi = corrupted[half:].mean()
        # Both halves straddle refills; rates must agree loosely.
        assert abs(rate_lo - rate_hi) < 0.1


# --------------------------------------------------------------------------- #
# Small-block sampler path
#
# Blocks of at most SMALL_BLOCK_WORDS words are sampled in plain Python.  The
# scalar/numpy kernel oracles cannot see a drift there (both kernel modes
# call the same write_block), so the goldens below were recorded from the
# all-numpy sampler that preceded the small-block path and pin it to that
# stream bit for bit: stored words (sha256 prefix of the array bytes), the
# exact approx_write_units float and the corrupted count, for every block
# size on both sides of the cut-over.
# --------------------------------------------------------------------------- #

#: Words written per (T, block size) golden: consecutive blocks of the
#: size over uniform keys (seed 19), array seed = block size.
SMALL_BLOCK_WORDS_WRITTEN = 4096

#: T -> [(block size, stored sha256[:16], approx_write_units, corrupted)].
#: T = 0.055 runs the sparse regime (rare slow-path words); T = 0.1 sends
#: every small block to the dense per-cell regime.
SMALL_BLOCK_GOLDENS = {
    0.055: [
        (1, 'b7da717a96e65a84', 2722.97731510416, 1),
        (2, '7e9eb7f5ad859ad0', 2722.9773151041704, 1),
        (3, '85d13154b5c14466', 2722.3157656249955, 1),
        (4, '0c6b2ba1bd4b50a3', 2722.977315104164, 3),
        (5, '9c10bc9e7e6da413', 2722.3157656250064, 1),
        (6, '241b2bb184360329', 2720.3244322916703, 1),
        (7, '1f966ad350dc20de', 2722.315765625002, 1),
        (8, 'cd9e6bd21d2964aa', 2722.9773151041672, 4),
        (9, 'bccdddb2ea05fbd5', 2722.3157656249978, 2),
        (10, 'c973873847eb335d', 2718.9539270833325, 1),
        (11, '99473e16d1994744', 2720.3244322916657, 2),
        (12, 'a0959b05d949dec3', 2720.324432291667, 2),
        (13, '5c18a17facaea55f', 2722.3157656250005, 2),
        (14, 'd99388cb1e6d92a2', 2717.646822916665, 3),
        (15, '66b13b3b360454bf', 2722.3157656250014, 1),
        (16, 'ea871ff4e48c31f9', 2722.9773151041654, 4),
        (17, '3e041202afa4aa4e', 2712.3827526041664, 0),
        (18, '40de7bfeb06486a0', 2716.3428880208335, 3),
        (19, '967a70e5414dcec1', 2715.6981093749996, 5),
        (20, 'c96c605a867bafb2', 2712.3827526041673, 2),
        (21, '3d66225c0076a8f3', 2722.3157656250005, 2),
        (22, '68df5b7ee4368faa', 2720.3244322916676, 4),
        (23, '7758ab12c282c924', 2721.634705729168, 2),
        (24, '3e041202afa4aa4e', 2712.3827526041673, 0),
        (25, '6a42f36ff198d8b8', 2709.0529036458315, 1),
        (26, 'f990ded3ac1b1cb6', 2713.699018229166, 7),
        (27, '8f413791f8d5a70c', 2710.390643229167, 1),
        (28, '1627a3870cb1d911', 2717.6468229166667, 2),
        (29, '8f87fc6a4da54a13', 2718.297593749999, 1),
        (30, 'e407cd4fc83533c9', 2712.3827526041678, 1),
        (31, '2a82a2f7847e472a', 2720.3244322916667, 1),
        (32, 'a6ae840da3839f85', 2722.977315104166, 3),
        (33, '8dd4083c571a02ce', 2720.324432291666, 1),
    ],
    0.1: [
        (1, 'f4aab39a83afed98', 2033.4660807291777, 1438),
        (2, 'dbff388ee4dfe4e9', 2033.4660807291652, 1433),
        (3, '664a0dd0f366e260', 2032.973242187499, 1463),
        (4, '040be7a8c154f098', 2033.4660807291666, 1455),
        (5, '1703d0fca04ff0ab', 2032.9732421875012, 1441),
        (6, 'cf0beda3792466b4', 2031.4852291666678, 1412),
        (7, '02a7446734c24aae', 2032.9732421874971, 1510),
        (8, '438dc2a6d4afd8d5', 2033.4660807291662, 1484),
        (9, 'b9ac40e9e5405181', 2032.9732421875005, 1386),
        (10, '27ab3bd09823b6f5', 2030.4586119791643, 1427),
        (11, '9a65abc5d7105fc5', 2031.485229166666, 1477),
        (12, 'f4bb8e90ab3c34b3', 2031.4852291666673, 1388),
        (13, '228c0a44f1cdcd5a', 2032.9732421874999, 1429),
        (14, 'd04669b33a40a0b1', 2029.4842005208334, 1438),
        (15, '3b20474f3c77aa91', 2032.9732421875008, 1493),
        (16, '3834fbd21fbdd792', 2033.4660807291682, 1400),
        (17, 'e4b5272b0bdb5b77', 2025.5644166666677, 1460),
        (18, '7075f3e9495fcae3', 2028.5133151041666, 1462),
        (19, '677bf40b742440da', 2028.0334088541667, 1463),
        (20, '0ac8d19068687b48', 2025.5644166666664, 1455),
        (21, '2a78471e0bf926c1', 2032.9732421875, 1455),
        (22, '14b054536fc61bdb', 2031.4852291666673, 1424),
        (23, '06992186055b7142', 2032.4631666666658, 1455),
        (24, 'd61cdde619ce9cda', 2025.5644166666668, 1512),
        (25, '349c53e9d923eb48', 2023.0723177083341, 1485),
        (26, '5323635ad583ebde', 2026.5469609374995, 1456),
        (27, '750c797ed27f2fea', 2024.0747369791661, 1412),
        (28, '630ecc35aec30d33', 2029.4842005208334, 1454),
        (29, '5003d3d6e3a6040f', 2029.9687135416673, 1417),
        (30, 'f12163e285ba7dd8', 2025.564416666667, 1482),
        (31, '7d7611b4be9bbdb2', 2031.4852291666668, 1430),
        (32, 'bf2c8a8dca3d0ce8', 2033.4660807291662, 1436),
        (33, '7eb740551f025dbb', 2031.4852291666668, 1476),
    ],
}

#: approx-refine at n = 16,000, T = 0.055 (fit 8,000), seed 5, numpy
#: kernels: sorter -> (sha256[:16] of final ids + stats + stage stats +
#: Rem~, Rem~, corrupted writes).
REFINE_GOLDENS = {
    'msd3': ('807231e93d0db5af', 25, 109),
    'msd6': ('28a1df99011bbc71', 6, 53),
    'hmsd4': ('68050b10207e78f5', 8, 43),
}

#: The same digests at the error rates where the planned MSD walk falls
#: back to the per-segment partition most often, recorded before it
#: existed: (T, sorter) -> (sha256[:16], Rem~, corrupted writes).
FALLBACK_REFINE_GOLDENS = {
    (0.07, 'msd3'): ('9cc26df0704f4cbc', 1261, 4085),
    (0.07, 'msd6'): ('16ae5cbb4656811a', 609, 2384),
    (0.07, 'hmsd4'): ('eb29da0b8f2bbb22', 586, 1841),
    (0.1, 'msd3'): ('4c1b6797382adfd3', 13150, 63635),
    (0.1, 'msd6'): ('40b2edb9bf8b6a3a', 8274, 38986),
    (0.1, 'hmsd4'): ('f562751eef4e41c9', 8104, 28919),
}


def refine_digest(sorter: str, t: float) -> tuple:
    """``(sha256[:16], Rem~, corrupted writes)`` of one approx-refine run
    at n = 16,000 (keys seed 21, run seed 5, numpy kernels)."""
    keys = uniform_keys(16_000, seed=21)
    memory = PCMMemoryFactory(MLCParams(t=t), fit_samples=GOLDEN_FIT)
    result = run_approx_refine(keys, sorter, memory, seed=5, kernels="numpy")
    blob = repr((
        result.final_ids, result.stats.as_dict(),
        {k: v.as_dict() for k, v in sorted(result.stage_stats.items())},
        result.rem_tilde,
    )).encode()
    assert result.final_keys == sorted(keys)
    return (
        hashlib.sha256(blob).hexdigest()[:16], result.rem_tilde,
        result.stats.corrupted_writes,
    )


def small_block_write_stream(t: float, size: int) -> ApproxArray:
    model = get_model(MLCParams(t=t), samples_per_level=GOLDEN_FIT)
    words = SMALL_BLOCK_WORDS_WRITTEN
    keys = np.asarray(uniform_keys(words, seed=19), dtype=np.uint32)
    array = ApproxArray(
        np.zeros(words, dtype=np.uint32), model=model,
        precise_iterations=3.0, seed=size,
    )
    for start in range(0, words - size + 1, size):
        array.write_block(start, keys[start:start + size])
    return array


class TestSmallBlockGoldens:
    def test_goldens_straddle_the_cut_over(self):
        for rows in SMALL_BLOCK_GOLDENS.values():
            assert [row[0] for row in rows] == list(
                range(1, SMALL_BLOCK_WORDS + 2)
            )

    @pytest.mark.parametrize("t", sorted(SMALL_BLOCK_GOLDENS))
    def test_write_stream_pinned(self, t):
        observed = []
        for size, *_ in SMALL_BLOCK_GOLDENS[t]:
            array = small_block_write_stream(t, size)
            digest = hashlib.sha256(array.to_numpy().tobytes()).hexdigest()
            observed.append((
                size, digest[:16], array.stats.approx_write_units,
                array.stats.corrupted_writes,
            ))
        assert observed == SMALL_BLOCK_GOLDENS[t]

    @pytest.mark.parametrize("sorter", sorted(REFINE_GOLDENS))
    def test_msd_approx_refine_pinned(self, sorter):
        assert refine_digest(sorter, 0.055) == REFINE_GOLDENS[sorter]

    @pytest.mark.parametrize(
        "t, sorter", sorted(FALLBACK_REFINE_GOLDENS),
        ids=[f"{t}-{name}" for t, name in sorted(FALLBACK_REFINE_GOLDENS)],
    )
    def test_msd_approx_refine_pinned_fallback_heavy(self, t, sorter):
        assert refine_digest(sorter, t) == FALLBACK_REFINE_GOLDENS[(t, sorter)]


class TestSmallBlockMatchesVectorized:
    """The small-block path against the vectorized path it replaces, on
    the same values, ``p_ok`` and generator state."""

    @staticmethod
    def both_paths(model, values, seed, p_ok, monkeypatch):
        small = model.corrupt_block(
            values, np.random.default_rng(seed), p_ok=p_ok
        )
        with monkeypatch.context() as patch:
            patch.setattr(error_model, "SMALL_BLOCK_WORDS", 0)
            wide = model.corrupt_block(
                values, np.random.default_rng(seed), p_ok=np.asarray(p_ok)
            )
        return small, wide

    @pytest.mark.parametrize("t", [0.055, 0.07, 0.1])
    def test_model_probabilities(self, t, monkeypatch):
        model = get_model(MLCParams(t=t), samples_per_level=GOLDEN_FIT)
        for seed in range(200):
            size = 1 + seed % SMALL_BLOCK_WORDS
            values = np.asarray(uniform_keys(size, seed=seed), dtype=np.uint32)
            cost, p_ok = model.block_cost_and_no_error(values)
            with monkeypatch.context() as patch:
                patch.setattr(error_model, "SMALL_BLOCK_WORDS", 0)
                wide_cost, wide_p_ok = model.block_cost_and_no_error(values)
            assert cost == wide_cost.tolist()
            assert p_ok == wide_p_ok.tolist()
            small, wide = self.both_paths(model, values, seed, p_ok,
                                          monkeypatch)
            assert np.array_equal(small, wide)

    def test_many_erring_words_in_the_sparse_regime(self, model, monkeypatch):
        """``p_ok`` just above the dense cut-off: the sparse regime with
        five or more erring words takes the batched slow path."""
        size = SMALL_BLOCK_WORDS
        values = np.asarray(uniform_keys(size, seed=3), dtype=np.uint32)
        p_ok = [1.0 - 0.0399] * size
        batched = 0
        for seed in range(300):
            u = np.random.default_rng(seed).random(size)
            batched += int(np.count_nonzero(u >= p_ok[0]) > 4)
            small, wide = self.both_paths(model, values, seed, p_ok,
                                          monkeypatch)
            assert np.array_equal(small, wide)
        assert batched >= 3

    def test_unchanged_block_is_returned_uncopied(self, monkeypatch):
        model = get_model(MLCParams(t=0.04), samples_per_level=GOLDEN_FIT)
        for size in (1, SMALL_BLOCK_WORDS, SMALL_BLOCK_WORDS + 1):
            values = np.asarray(uniform_keys(size, seed=1), dtype=np.uint32)
            p_ok = model.block_cost_and_no_error(values)[1]
            assert min(p_ok) == 1.0  # no cell errs at T = 0.04
            small, wide = self.both_paths(model, values, 0, p_ok, monkeypatch)
            assert small is values and wide is values


if given is not None:

    class TestPairwiseSum:
        @given(st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
            | st.floats(min_value=0.0, max_value=1e-6),
            max_size=SMALL_BLOCK_WORDS,
        ))
        def test_equals_numpy_add_reduce(self, values):
            expected = float(np.add.reduce(np.asarray(values, dtype=np.float64)))
            assert pairwise_sum(values) == expected

        def test_every_size_with_order_sensitive_terms(self):
            rng = np.random.default_rng(4)
            for size in range(SMALL_BLOCK_WORDS + 1):
                for _ in range(50):
                    terms = rng.random(size) * 10.0 ** rng.integers(-8, 8, size)
                    assert pairwise_sum(terms.tolist()) == float(
                        np.add.reduce(terms)
                    )
