"""Mergesort-specific tests: stability, pass structure, write counts,
and the fused precise paths (mergesort, ``lsd*``, ``msd*``, ``hmsd*``)
against their unfused level-by-level paths."""

import io
import json
import math

import pytest

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.obs import Tracer, set_tracer
from repro.sorting.mergesort import Mergesort
from repro.sorting.registry import make_base_sorter
from repro.verify.sanitizer import sanitize
from repro.workloads.generators import uniform_keys

#: Lengths straddling the power-of-two boundaries the mergesort level
#: count depends on.
SHAPES = (2, 3, 17, 100, 1023, 1024, 1025)

#: MSD sorters sharing the fusion gate: queue and histogram walks at the
#: narrowest and widest digit.
MSD_SORTERS = ("msd3", "msd6", "hmsd3", "hmsd6")

#: LSD sorters sharing the fusion gate: every digit width, since each
#: gives a different pass count.
LSD_SORTERS = ("lsd3", "lsd4", "lsd5", "lsd6")

FUSED_SORTERS = ("mergesort", *MSD_SORTERS, *LSD_SORTERS)


def run(keys, with_ids=False):
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    ids = PreciseArray(range(len(keys)), stats=stats) if with_ids else None
    Mergesort().sort(array, ids)
    return array.to_list(), (ids.to_list() if with_ids else None), stats


class TestMergesort:
    def test_name(self):
        assert Mergesort().name == "mergesort"

    def test_sorts(self):
        keys = uniform_keys(1_000, seed=1)
        out, _, _ = run(keys)
        assert out == sorted(keys)

    def test_stability_via_ids(self):
        """Equal keys must keep their input order (merge uses <=)."""
        keys = [5, 3, 5, 3, 5]
        out, ids, _ = run(keys, with_ids=True)
        assert out == [3, 3, 5, 5, 5]
        assert ids == [1, 3, 0, 2, 4]

    def test_write_count_matches_pass_structure(self):
        """Every pass rewrites n keys; odd pass counts add a copy-home."""
        for n in (128, 100, 1000, 2048):
            keys = uniform_keys(n, seed=2)
            _, _, stats = run(keys)
            passes = math.ceil(math.log2(n))
            expected = passes * n + (n if passes % 2 else 0)
            assert stats.precise_writes == expected

    def test_alpha_estimate_matches_measurement(self):
        n = 3_000
        keys = uniform_keys(n, seed=3)
        _, _, stats = run(keys)
        assert stats.precise_writes == Mergesort().expected_key_writes(n)

    def test_power_of_two_lands_in_place_without_copy(self):
        """n = 2^k with even k needs no copy-home pass."""
        n = 4096  # 12 passes (even)
        keys = uniform_keys(n, seed=4)
        _, _, stats = run(keys)
        assert stats.precise_writes == 12 * n

    def test_paper_alpha_reference(self):
        assert Mergesort.paper_alpha(1024) == pytest.approx(1024 * 10)

    @pytest.mark.statistical
    def test_vulnerable_to_corruption(self, pcm_sweet, pcm_precise):
        """The paper's key qualitative claim: mergesort's unsortedness on
        approximate memory dwarfs quicksort's at the same T.

        Mergesort's Rem is heavy-tailed: it is dominated by the occasional
        mid-pass corruption that breaks a run's sortedness and is amplified
        by every later merge, so a single corruption seed rides on
        realization luck.  Averaging over several seeds makes the systematic
        merge >> quick gap testable.
        """
        from repro.metrics.sortedness import rem_ratio
        from repro.sorting.quicksort import Quicksort

        keys = uniform_keys(4_000, seed=5)
        results = {}
        for label, sorter in (("merge", Mergesort()), ("quick", Quicksort())):
            total = 0.0
            for seed in range(7, 15):
                array = pcm_sweet.make_array([0] * len(keys), seed=seed)
                array.write_block(0, keys)
                sorter.sort(array)
                total += rem_ratio(array.to_list())
            results[label] = total / 8
        assert results["merge"] > 3 * results["quick"]


def run_path(keys: list[int], with_ids: bool, sort):
    """Output and per-array stats of ``sort(keys_array, ids_array)``."""
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    ids = None
    ids_stats = MemoryStats()
    if with_ids:
        ids = PreciseArray(list(range(len(keys))), stats=ids_stats)
    sort(array, ids)
    return (
        array.peek_block_np(0, len(array)).tolist(),
        ids.peek_block_np(0, len(ids)).tolist() if ids is not None else None,
        stats.as_dict(),
        ids_stats.as_dict(),
    )


def run_generic(name: str, keys: list[int], with_ids: bool):
    """The level-by-level path (LSD: the pass loop, MSD: the segment
    walk), whatever the fusion gate says."""
    base = make_base_sorter(name, kernels="numpy")
    return run_path(keys, with_ids, base._sort_levels)


def run_gated(name: str, keys: list[int], with_ids: bool, fused: bool):
    """``sort`` after asserting which side of the fusion gate it takes."""
    base = make_base_sorter(name, kernels="numpy")

    def sort(array, ids):
        assert base._fusable(array, ids) is fused
        base.sort(array, ids)

    return run_path(keys, with_ids, sort)


def run_fused(name: str, keys: list[int], with_ids: bool):
    return run_gated(name, keys, with_ids, fused=True)


class TestFusedMatchesGeneric:
    @pytest.mark.parametrize("name", FUSED_SORTERS)
    @pytest.mark.parametrize("n", SHAPES)
    def test_keys_only(self, name, n):
        keys = uniform_keys(n, seed=n)
        assert run_fused(name, keys, False) == run_generic(name, keys, False)

    @pytest.mark.parametrize("name", FUSED_SORTERS)
    def test_with_ids(self, name):
        keys = uniform_keys(257, seed=3)
        assert run_fused(name, keys, True) == run_generic(name, keys, True)

    @pytest.mark.parametrize("name", MSD_SORTERS)
    @pytest.mark.parametrize("shape", ["narrow", "clustered", "duplicates"])
    def test_msd_deep_segments(self, name, shape):
        """Keys that keep segments of two or more alive down to the last
        digit, where the closed-form traffic has the most depths to sum."""
        base = uniform_keys(3000, seed=11)
        keys = {
            "narrow": [k & 0x3FF for k in base],
            "clustered": [(k & 0xFFFF0000) >> 8 | (k & 0x7) for k in base],
            "duplicates": [base[i % 40] for i in range(3000)],
        }[shape]
        assert run_fused(name, keys, True) == run_generic(name, keys, True)

    def test_duplicate_keys_stable(self):
        keys = [5, 1, 5, 1, 5, 1, 2] * 40
        assert run_fused("mergesort", keys, True) == run_generic(
            "mergesort", keys, True
        )
        assert run_fused("lsd4", keys, True) == run_generic(
            "lsd4", keys, True
        )


class TestGating:
    def test_fused_exists_for_mergesort(self):
        keys = PreciseArray(uniform_keys(32, seed=0))
        base = make_base_sorter("mergesort", kernels="numpy")
        assert base._fusable(keys, None)

    def test_scalar_mode_disables_fusion(self):
        keys = PreciseArray(uniform_keys(32, seed=0))
        base = make_base_sorter("mergesort", kernels="scalar")
        assert not base._fusable(keys, None)

    def test_approx_memory_disables_fusion(self, pcm_sweet):
        stats = MemoryStats()
        keys = pcm_sweet.make_array(uniform_keys(32, seed=0), stats=stats)
        base = make_base_sorter("mergesort", kernels="numpy")
        assert not base._fusable(keys, None)

    def test_trace_hook_disables_fusion(self):
        keys = PreciseArray(uniform_keys(32, seed=0))
        keys.trace = lambda *args: None
        base = make_base_sorter("mergesort", kernels="numpy")
        assert not base._fusable(keys, None)

    def test_wrapper_disables_fusion(self):
        keys = PreciseArray(uniform_keys(32, seed=0))
        ids = PreciseArray(list(range(32)))
        base = make_base_sorter("mergesort", kernels="numpy")
        assert not base._fusable(sanitize(keys), None)
        assert not base._fusable(keys, sanitize(ids))

    def test_enabled_tracer_disables_fusion(self):
        keys = uniform_keys(100, seed=6)
        sink = io.StringIO()
        previous = set_tracer(Tracer(sink=sink))
        try:
            out = run_gated("mergesort", keys, True, fused=False)
        finally:
            set_tracer(previous)
        spans = {
            json.loads(line)["name"]
            for line in sink.getvalue().splitlines()
            if json.loads(line)["ev"] == "span_start"
        }
        # ceil(log2 100) = 7 levels, each with its own span.
        assert {f"merge.level{i}" for i in range(7)} <= spans
        assert out == run_generic("mergesort", keys, True)


class _SharedGate:
    """The mergesort gate, shared: every condition that keeps mergesort on
    its level path keeps the parametrized sorter on its unfused path."""

    def test_fused_on_bare_precise_memory(self, name):
        keys = PreciseArray(uniform_keys(32, seed=0))
        assert make_base_sorter(name, kernels="numpy")._fusable(keys, None)

    def test_scalar_mode_disables_fusion(self, name):
        keys = PreciseArray(uniform_keys(32, seed=0))
        base = make_base_sorter(name, kernels="scalar")
        assert not base._fusable(keys, None)

    def test_approx_memory_disables_fusion(self, name, pcm_sweet):
        keys = pcm_sweet.make_array(uniform_keys(32, seed=0))
        base = make_base_sorter(name, kernels="numpy")
        assert not base._fusable(keys, None)

    def test_trace_hook_disables_fusion(self, name):
        keys = PreciseArray(uniform_keys(32, seed=0))
        keys.trace = lambda *args: None
        base = make_base_sorter(name, kernels="numpy")
        assert not base._fusable(keys, None)

    def test_wrapper_disables_fusion(self, name):
        keys = PreciseArray(uniform_keys(32, seed=0))
        ids = PreciseArray(list(range(32)))
        base = make_base_sorter(name, kernels="numpy")
        assert not base._fusable(sanitize(keys), None)
        assert not base._fusable(keys, sanitize(ids))


@pytest.mark.parametrize("name", ["msd4", "hmsd4"])
class TestMSDGating(_SharedGate):
    def test_enabled_tracer_keeps_depth_counters(self, name):
        keys = uniform_keys(2000, seed=6)
        sink = io.StringIO()
        previous = set_tracer(Tracer(sink=sink))
        try:
            out = run_gated(name, keys, True, fused=False)
        finally:
            set_tracer(previous)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        elements = {
            e["attrs"]["depth"]: e["value"]
            for e in events
            if e["ev"] == "counter" and e["name"] == "msd.depth.elements"
        }
        segments = [
            e for e in events
            if e["ev"] == "counter" and e["name"] == "msd.depth.segments"
        ]
        assert elements[0] == len(keys)
        assert len(segments) == len(elements) >= 2
        # Each depth moves every element once per array per partition
        # round trip: the counters account for all of the walk's traffic.
        touches = 2 if name.startswith("msd") else 1
        assert sum(elements.values()) * touches == out[2]["precise_writes"]
        assert out == run_generic(name, keys, True)


@pytest.mark.parametrize("name", LSD_SORTERS)
class TestLSDGating(_SharedGate):
    def test_enabled_tracer_keeps_pass_spans(self, name):
        keys = uniform_keys(500, seed=6)
        sink = io.StringIO()
        previous = set_tracer(Tracer(sink=sink))
        try:
            out = run_gated(name, keys, True, fused=False)
        finally:
            set_tracer(previous)
        passes = len(make_base_sorter(name)._plan)
        spans = {
            json.loads(line)["name"]
            for line in sink.getvalue().splitlines()
            if json.loads(line)["ev"] == "span_start"
        }
        assert {f"radix.pass{i}" for i in range(passes)} <= spans
        # Two writes per element per pass, keys and ids alike.
        assert out[2]["precise_writes"] == 2 * passes * len(keys)
        assert out == run_generic(name, keys, True)
