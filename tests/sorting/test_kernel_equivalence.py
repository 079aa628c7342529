"""Scalar-vs-numpy kernel equivalence (DESIGN.md section 8).

The scalar path is the reference semantics; the numpy kernels must be
observationally identical on precise memory — bit-identical outputs AND
identical accounted ``MemoryStats`` — for every sorter and for the refine
stage.  On approximate memory the kernels draw per-word corruption from the
same batched samplers, so algorithms whose scalar path already writes in
blocks stay bit-identical, and the rest (quicksort's swap scatters) must
agree statistically.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.core.refine import find_rem_ids, merge_refined, sort_rem_ids
from repro.execution import KERNELS_ENV, resolve_kernels
from repro.memory.approx_array import PreciseArray, WORD_LIMIT
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats
from repro.sorting.registry import available_sorters, make_sorter
from repro.workloads.generators import make_keys

ALL_SORTERS = available_sorters()
FAST_SORTERS = [name for name in ALL_SORTERS if name != "insertion"]
FIT = 8_000

key_lists = st.lists(
    st.integers(min_value=0, max_value=WORD_LIMIT - 1), max_size=150
)


def _run_precise(name, keys, mode, with_ids=True):
    stats = MemoryStats()
    key_array = PreciseArray(keys, stats=stats, name="keys")
    id_array = (
        PreciseArray(range(len(keys)), stats=stats, name="ids")
        if with_ids
        else None
    )
    make_sorter(name, kernels=mode).sort(key_array, id_array)
    return (
        key_array.to_list(),
        id_array.to_list() if with_ids else None,
        stats,
    )


def assert_identical(name, keys, with_ids=True):
    out_s = _run_precise(name, keys, "scalar", with_ids)
    out_n = _run_precise(name, keys, "numpy", with_ids)
    assert out_s[0] == out_n[0], f"{name}: key outputs differ"
    assert out_s[1] == out_n[1], f"{name}: id outputs differ"
    assert out_s[2].__dict__ == out_n[2].__dict__, f"{name}: stats differ"


@pytest.mark.parametrize("name", ALL_SORTERS)
class TestPreciseBitIdentical:
    def test_uniform(self, name):
        assert_identical(name, make_keys("uniform", 400, seed=11))

    def test_duplicates(self, name):
        rnd = random.Random(5)
        assert_identical(name, [rnd.randrange(7) for _ in range(300)])

    def test_sorted_and_reversed(self, name):
        keys = make_keys("uniform", 250, seed=3)
        assert_identical(name, sorted(keys))
        assert_identical(name, sorted(keys, reverse=True))

    def test_small_sizes(self, name):
        # Straddles quicksort's vectorized-segment cutoff in both regimes.
        rnd = random.Random(8)
        for n in (0, 1, 2, 3, 5, 63, 64, 65, 130):
            assert_identical(name, [rnd.randrange(WORD_LIMIT) for _ in range(n)])

    def test_without_ids(self, name):
        assert_identical(name, make_keys("uniform", 200, seed=4), with_ids=False)


@pytest.mark.parametrize("name", ["quicksort", "mergesort", "lsd4", "hmsd4"])
@settings(max_examples=25, deadline=None)
@given(keys=key_lists)
def test_kernel_equivalence_property(name, keys):
    assert_identical(name, keys)


class TestRefineEquivalence:
    def _refine_both(self, keys_v, perm, sorter_name):
        results = []
        for mode in ("scalar", "numpy"):
            stats = MemoryStats()
            key0 = PreciseArray(keys_v, stats=stats, name="Key0")
            ids = PreciseArray(perm, stats=stats, name="ID")
            rem = find_rem_ids(ids, key0, kernels=mode)
            sorted_rem = sort_rem_ids(
                rem, key0, make_sorter(sorter_name, kernels=mode), stats,
                kernels=mode,
            )
            n = len(keys_v)
            fk = PreciseArray([0] * n, stats=stats, name="finalKey")
            fi = PreciseArray([0] * n, stats=stats, name="finalID")
            merge_refined(ids, key0, sorted_rem, fk, fi, kernels=mode)
            results.append(
                (rem, sorted_rem, fk.to_list(), fi.to_list(), stats.__dict__)
            )
        return results

    @pytest.mark.parametrize("displacements", [0, 5, 60])
    def test_nearly_sorted_permutations(self, displacements):
        rnd = random.Random(17)
        n = 350
        keys_v = [rnd.randrange(WORD_LIMIT) for _ in range(n)]
        perm = sorted(range(n), key=lambda i: keys_v[i])
        for _ in range(displacements):
            a, b = rnd.randrange(n), rnd.randrange(n)
            perm[a], perm[b] = perm[b], perm[a]
        scalar, vectorized = self._refine_both(keys_v, perm, "mergesort")
        assert scalar == vectorized
        assert scalar[2] == sorted(keys_v)

    def test_reversed_permutation_all_rem(self):
        rnd = random.Random(23)
        n = 200
        keys_v = [rnd.randrange(1000) for _ in range(n)]  # many duplicates
        perm = sorted(range(n), key=lambda i: -keys_v[i])
        scalar, vectorized = self._refine_both(keys_v, perm, "quicksort")
        assert scalar == vectorized
        assert scalar[2] == sorted(keys_v)

    @settings(max_examples=25, deadline=None)
    @given(keys=key_lists, seed=st.integers(min_value=0, max_value=2**20))
    def test_refine_property(self, keys, seed):
        rnd = random.Random(seed)
        perm = list(range(len(keys)))
        rnd.shuffle(perm)
        scalar, vectorized = self._refine_both(keys, perm, "lsd5")
        assert scalar == vectorized
        assert scalar[2] == sorted(keys)


class TestPipelines:
    @pytest.fixture(scope="class")
    def memory(self):
        return PCMMemoryFactory(MLCParams(t=0.055), fit_samples=FIT)

    def test_precise_baseline_identical(self):
        keys = make_keys("uniform", 500, seed=6)
        runs = [
            run_precise_baseline(keys, "mergesort", kernels=mode)
            for mode in ("scalar", "numpy")
        ]
        assert runs[0].final_keys == runs[1].final_keys
        assert runs[0].final_ids == runs[1].final_ids
        assert runs[0].stats.__dict__ == runs[1].stats.__dict__

    @pytest.mark.parametrize("name", ["lsd6", "hmsd6", "natural_merge"])
    def test_approx_refine_block_writers_bit_identical(self, memory, name):
        """Sorters whose numpy path issues the same ``write_block`` calls as
        the scalar path consume the same corruption stream, so even the
        approx stage matches bit for bit."""
        keys = make_keys("uniform", 600, seed=9)
        runs = [
            run_approx_refine(keys, name, memory, seed=13, kernels=mode)
            for mode in ("scalar", "numpy")
        ]
        assert runs[0].final_keys == runs[1].final_keys == sorted(keys)
        assert runs[0].final_ids == runs[1].final_ids
        assert runs[0].rem_tilde == runs[1].rem_tilde
        assert runs[0].stats.__dict__ == runs[1].stats.__dict__

    @pytest.mark.statistical
    @pytest.mark.parametrize("name", ["quicksort", "mergesort"])
    def test_approx_refine_statistical(self, memory, name):
        """Quicksort's swap scatters and mergesort's level-grouped block
        writes corrupt through different (equally distributed) sampler
        streams; outputs stay exact and the corruption rates must agree
        within sampling noise."""
        keys = make_keys("uniform", 800, seed=2)
        rates = {"scalar": [], "numpy": []}
        rem = {"scalar": [], "numpy": []}
        for mode in rates:
            for seed in range(6):
                result = run_approx_refine(
                    keys, name, memory, seed=seed, kernels=mode
                )
                assert result.final_keys == sorted(keys)
                rates[mode].append(
                    result.stats.corrupted_writes
                    / max(1, result.stats.approx_writes)
                )
                rem[mode].append(result.rem_tilde)
        mean_s = sum(rates["scalar"]) / len(rates["scalar"])
        mean_n = sum(rates["numpy"]) / len(rates["numpy"])
        # Word corruption at T=0.055 is a per-write Bernoulli with rate
        # ~1e-3; across 6 runs x ~several thousand writes the means must
        # land within a loose factor of each other.
        assert mean_n == pytest.approx(mean_s, rel=1.0, abs=2e-3)
        assert max(rem["numpy"]) <= 4 * max(1, max(rem["scalar"])) + 8


class TestKernelResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        assert resolve_kernels("scalar") == "scalar"
        assert resolve_kernels(None) == "numpy"

    def test_env_default_scalar(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        assert resolve_kernels(None) == "scalar"

    def test_invalid_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_kernels("simd")
        with pytest.raises(ValueError):
            make_sorter("mergesort", kernels="avx2")
        monkeypatch.setenv(KERNELS_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_kernels(None)

    def test_env_var_drives_sorters(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        keys = make_keys("uniform", 120, seed=1)
        stats = MemoryStats()
        arr = PreciseArray(keys, stats=stats)
        make_sorter("mergesort").sort(arr)
        assert arr.to_list() == sorted(keys)

    def test_trace_forces_scalar_fallback(self):
        sorter = make_sorter("mergesort", kernels="numpy")
        keys = PreciseArray(range(8), trace=lambda op, region, index: None)
        assert not sorter._use_numpy_kernels(keys, None)

    def test_write_combining_forces_scalar_fallback(self):
        from repro.memory.write_combining import WriteCombiningArray

        sorter = make_sorter("mergesort", kernels="numpy")
        backing = PreciseArray(range(8))
        assert not sorter._use_numpy_kernels(
            WriteCombiningArray(backing, capacity=4), None
        )
