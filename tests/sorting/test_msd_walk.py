"""The planned MSD walk against the segment-by-segment walk it replaces.

On approximate memory ``msd*`` and ``hmsd*`` run as plan → verify →
commit (:mod:`repro.sorting.msd_walk`).  Every result must be
bit-identical to ``_sort_levels``: keys, ids, ``MemoryStats``, and the
next draw of every random stream the sort touched.
"""

import io

import numpy as np
import pytest

from repro.memory.approx_array import ApproxArray, PreciseArray
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats
from repro.obs import Tracer, set_tracer
from repro.sorting import msd_walk
from repro.sorting.msd_walk import PlannedWalk, prefix_runs
from repro.sorting.radix import _MSDWalkSorter
from repro.sorting.registry import make_base_sorter, make_sorter
from repro.verify.sanitizer import sanitize
from repro.workloads.generators import uniform_keys

SORTERS = tuple(
    f"{family}{bits}" for family in ("msd", "hmsd") for bits in (3, 4, 5, 6)
)
SIZES = (2, 33, 2048, 16_000)
#: No word errs at 0.040; 0.055 is the sweet spot; the planner falls back
#: most at 0.070; at 0.1 nearly every block takes the dense regime.
T_VALUES = (0.040, 0.055, 0.070, 0.1)
FIT = 8_000


def memory(t):
    return PCMMemoryFactory(MLCParams(t=t), fit_samples=FIT)


def sort_and_observe(sort, mem, keys, with_ids, monkeypatch):
    """Sort fresh operands with ``sort(keys, ids)``; return everything the
    planner must reproduce, including the next draw of each stream."""
    stats = MemoryStats()
    array = ApproxArray(keys, mem.model, mem.precise_iterations,
                        stats=stats, seed=7)
    ids = PreciseArray(range(len(keys)), stats=stats) if with_ids else None
    clones = []
    clone_empty = ApproxArray.clone_empty

    def tracked(self, *args, **kwargs):
        clone = clone_empty(self, *args, **kwargs)
        clones.append(clone)
        return clone

    with monkeypatch.context() as patch:
        patch.setattr(ApproxArray, "clone_empty", tracked)
        sort(array, ids)
    streams = [a._np_rng.random() for a in [array, *clones]]
    streams.append(array._rng.random())
    return (
        array.to_list(), ids.to_list() if with_ids else None,
        stats.as_dict(), streams,
    )


def assert_planned_equals_walk(name, t, n, with_ids, monkeypatch):
    keys = uniform_keys(n, seed=n + 3)
    mem = memory(t)
    sorter = make_base_sorter(name, kernels="numpy")
    planned = sort_and_observe(sorter.sort, mem, keys, with_ids, monkeypatch)
    walked = sort_and_observe(
        sorter._sort_levels, mem, keys, with_ids, monkeypatch
    )
    assert planned == walked
    if t == 0.040:  # nothing errs, so the approximate sort is exact
        assert planned[0] == sorted(keys)


class TestPlannedMatchesWalk:
    @pytest.mark.parametrize("t", T_VALUES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", SORTERS)
    def test_with_ids(self, name, n, t, monkeypatch):
        assert_planned_equals_walk(name, t, n, True, monkeypatch)

    @pytest.mark.parametrize("t", T_VALUES)
    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_keys_only(self, name, t, monkeypatch):
        assert_planned_equals_walk(name, t, 2048, False, monkeypatch)

    @pytest.mark.parametrize("t", (0.055, 0.070))
    def test_sharded(self, t, monkeypatch):
        keys = uniform_keys(4096, seed=12)
        mem = memory(t)
        sorter = make_sorter("sharded:msd4:2", kernels="numpy")
        sorter.workers = 0  # shards in-process, where the patch applies
        planned = sort_and_observe(sorter.sort, mem, keys, True, monkeypatch)
        monkeypatch.setattr(
            _MSDWalkSorter, "_plannable", lambda self, keys, ids: False
        )
        walked = sort_and_observe(sorter.sort, mem, keys, True, monkeypatch)
        assert planned == walked

    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_duplicate_heavy_keys(self, name, monkeypatch):
        """Groups that share every digit reach the last depth."""
        keys = [k % 37 * 0x01010101 for k in uniform_keys(3000, seed=4)]
        mem = memory(0.055)
        sorter = make_base_sorter(name, kernels="numpy")
        planned = sort_and_observe(sorter.sort, mem, keys, True, monkeypatch)
        walked = sort_and_observe(
            sorter._sort_levels, mem, keys, True, monkeypatch
        )
        assert planned == walked

    def test_clean_tree_commits_in_one_plan(self, monkeypatch):
        """At T = 0.040 no word errs: one plan, no partition at all."""
        calls = []
        plan = PlannedWalk._plan

        def counted(self, *args):
            calls.append(args)
            return plan(self, *args)

        monkeypatch.setattr(PlannedWalk, "_plan", counted)
        mem = memory(0.040)
        keys = ApproxArray(uniform_keys(16_000, seed=2), mem.model,
                           mem.precise_iterations, seed=1)
        sorter = make_base_sorter("msd3", kernels="numpy")
        partitions = []
        partitioner = sorter._partitioner

        def spy(keys, ids):
            partition, key_regions, id_regions = partitioner(keys, ids)
            return (
                lambda *args: partitions.append(args) or partition(*args),
                key_regions, id_regions,
            )

        monkeypatch.setattr(sorter, "_partitioner", spy)
        sorter.sort(keys)
        assert len(calls) == 1 and partitions == []
        assert keys.to_list() == sorted(keys.to_list())


class TestGating:
    """The planner runs only where it can replay the sampler exactly."""

    @staticmethod
    def approx(n=64):
        mem = memory(0.055)
        return ApproxArray(uniform_keys(n, seed=0), mem.model,
                           mem.precise_iterations, seed=3)

    @pytest.fixture
    def walk_only(self, monkeypatch):
        def refuse(self):
            raise AssertionError("planner engaged")

        monkeypatch.setattr(PlannedWalk, "run", refuse)

    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_planned_on_bare_approx_keys(self, name):
        base = make_base_sorter(name, kernels="numpy")
        keys = self.approx()
        assert base._plannable(keys, None)
        assert base._plannable(keys, PreciseArray(range(64)))

    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_scalar_kernels_walk(self, name, walk_only):
        base = make_base_sorter(name, kernels="scalar")
        keys = self.approx()
        assert not base._plannable(keys, None)
        base.sort(keys)

    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_sanitizer_walks(self, name, walk_only):
        base = make_base_sorter(name, kernels="numpy")
        keys = self.approx()
        ids = PreciseArray(range(64))
        assert not base._plannable(sanitize(keys), None)
        assert not base._plannable(keys, sanitize(ids))
        base.sort(sanitize(keys), ids)

    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_trace_hook_walks(self, name, walk_only):
        base = make_base_sorter(name, kernels="numpy")
        keys = self.approx()
        keys.trace = lambda *args: None
        assert not base._plannable(keys, None)
        base.sort(keys)

    @pytest.mark.parametrize("name", ("msd3", "hmsd6"))
    def test_enabled_tracer_walks(self, name, walk_only):
        base = make_base_sorter(name, kernels="numpy")
        keys = self.approx(2000)
        sink = io.StringIO()
        previous = set_tracer(Tracer(sink=sink))
        try:
            assert not base._plannable(keys, None)
            base.sort(keys)
        finally:
            set_tracer(previous)
        assert "msd.depth.segments" in sink.getvalue()

    def test_other_error_models_walk(self, walk_only):
        """A proxy model (a timing wrapper, say) may sample differently."""

        class Proxy:
            def __init__(self, model):
                self.model = model

            def __getattr__(self, name):
                return getattr(self.model, name)

        keys = self.approx()
        keys.model = Proxy(keys.model)
        base = make_base_sorter("msd4", kernels="numpy")
        assert not base._plannable(keys, None)
        base.sort(keys)

    def test_precise_memory_fuses(self):
        base = make_base_sorter("msd4", kernels="numpy")
        keys = PreciseArray(uniform_keys(64, seed=0))
        assert base._fusable(keys, None)
        assert not base._plannable(keys, None)


class TestPrefixRuns:
    def test_runs_of_two_or_more(self):
        starts, ends = prefix_runs(np.array([1, 2, 2, 3, 4, 4, 4, 5]))
        assert starts.tolist() == [1, 4] and ends.tolist() == [3, 7]

    @pytest.mark.parametrize("values", ([], [7], [1, 2, 3]))
    def test_no_runs(self, values):
        starts, ends = prefix_runs(np.array(values, dtype=np.uint32))
        assert starts.size == ends.size == 0

    def test_whole_array(self):
        starts, ends = prefix_runs(np.zeros(5, dtype=np.uint8))
        assert starts.tolist() == [0] and ends.tolist() == [5]


def test_walk_span_and_plan_limit_keep_results(monkeypatch):
    """The planning heuristics choose only speed: planning every segment,
    however small or error-prone, gives the walk's result too."""
    monkeypatch.setattr(msd_walk, "_WALK_SPAN", 1)
    monkeypatch.setattr(msd_walk, "_PLAN_ERRORS", float("inf"))
    for t in (0.070, 0.1):
        assert_planned_equals_walk("msd4", t, 2048, True, monkeypatch)
