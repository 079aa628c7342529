"""The prefix-max merge kernel against the walks it replaces.

The references below are the scalar merges the sorters' scalar paths run:
a two-pointer walk with the left run winning ties and a ``heapq`` k-way
tournament with the lowest run winning ties.  Neither assumes sorted
input, so feeding them arbitrary (corrupted) runs pins the kernel's exact
interleaving, not just its output on clean runs.  Records carry their
input position, so ties must land in the reference order too.
"""

import heapq

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sorting.merge_kernels import level_order, runs_order

#: Small key ranges force heavy duplicates; the full range exercises the
#: 32-bit packing below the run/group labels.
KEY_LIMITS = st.sampled_from([2, 100, 0xFFFFFFFF])


def walk_reference(left, right):
    """Two-pointer merge of arbitrary runs, left wins ties."""
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i][0] <= right[j][0]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    return out + left[i:] + right[j:]


def heap_reference(runs):
    """k-way min-head merge of arbitrary runs, lowest run wins ties."""
    heap = [(run[0][0], index, 0) for index, run in enumerate(runs) if run]
    heapq.heapify(heap)
    out = []
    while heap:
        _, index, offset = heapq.heappop(heap)
        out.append(runs[index][offset])
        offset += 1
        if offset < len(runs[index]):
            heapq.heappush(heap, (runs[index][offset][0], index, offset))
    return out


def level_reference(records, width, fan_in):
    """One bottom-up level of ``records`` through the scalar merges."""
    out = []
    n = len(records)
    for lo in range(0, n, width * fan_in):
        hi = min(lo + width * fan_in, n)
        runs = [records[s : min(s + width, hi)] for s in range(lo, hi, width)]
        if fan_in == 2:
            out += walk_reference(runs[0], runs[1] if len(runs) > 1 else [])
        else:
            out += heap_reference(runs)
    return out


def keyed(values):
    return [(v, pos) for pos, v in enumerate(values)]


def apply(values, order):
    return [(int(values[i]), int(i)) for i in order]


@st.composite
def key_lists(draw, max_size=80):
    limit = draw(KEY_LIMITS)
    return draw(
        st.lists(st.integers(0, limit), min_size=0, max_size=max_size)
    )


class TestLevelOrder:
    @settings(max_examples=300)
    @given(values=key_lists(), width=st.integers(1, 100))
    def test_two_way_matches_walk(self, values, width):
        # width >= n leaves one lone run; width not dividing n leaves a
        # ragged tail pair — both must come out exactly as the walk's.
        arr = np.asarray(values, dtype=np.uint32)
        expected = level_reference(keyed(values), width, 2)
        assert apply(arr, level_order(arr, width)) == expected

    @settings(max_examples=300)
    @given(
        values=key_lists(),
        width=st.integers(1, 30),
        fan_in=st.integers(2, 17),
    )
    def test_k_way_matches_heap(self, values, width, fan_in):
        arr = np.asarray(values, dtype=np.uint32)
        expected = level_reference(keyed(values), width, fan_in)
        assert apply(arr, level_order(arr, width, fan_in)) == expected

    def test_sorted_runs_give_the_stable_merge(self):
        values = np.asarray([1, 3, 3, 7, 0, 3, 3, 9, 2, 2], dtype=np.uint32)
        order = level_order(values, 4)
        assert order.tolist() == [4, 0, 1, 2, 5, 6, 3, 7, 8, 9]


class TestRunsOrder:
    @settings(max_examples=300)
    @given(
        runs=st.lists(key_lists(max_size=12), min_size=0, max_size=8),
    )
    def test_matches_heap(self, runs):
        # Arbitrary lengths, empty runs among them.
        values = [v for run in runs for v in run]
        records = keyed(values)
        split = []
        start = 0
        for run in runs:
            split.append(records[start : start + len(run)])
            start += len(run)
        arr = np.asarray(values, dtype=np.uint32)
        order = runs_order(arr, [len(run) for run in runs])
        assert apply(arr, order) == heap_reference(split)

    def test_corrupted_run_interleaves_like_the_walk(self):
        # A corrupted high key at the head of the left run holds back the
        # whole left run until the right run's keys pass it.
        records = keyed([9, 1, 2, 3, 4, 10])
        arr = np.asarray([v for v, _ in records], dtype=np.uint32)
        merged = apply(arr, runs_order(arr, (3, 3)))
        assert merged == walk_reference(records[:3], records[3:])
        assert [v for v, _ in merged] == [3, 4, 9, 1, 2, 10]
