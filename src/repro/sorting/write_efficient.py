"""Write-efficient sorters from asymmetric read/write cost theory.

The paper's TEPMW metric prices *writes* — PCM reads are cheap and
effectively unlimited, writes are slow, energy-hungry, and
endurance-limited.  Blelloch et al. ("Sorting with Asymmetric Read and
Write Costs", PAPERS.md) formalize this as the asymmetric RAM: reads cost
1, writes cost omega >> 1, and sorting algorithms should be judged by how
few writes they can get away with.  Every sorter the paper studies was
designed for symmetric-cost RAM; this module ports the two
write-efficient constructions from that theory onto the repo's accounted
memory arrays:

* :class:`WriteEfficientSampleSort` (``wesample``) — read a random sample
  (extra reads, zero writes), sort it off to the side, and use every
  sampled key as a splitter.  Bucket membership is monotone in the key,
  so the concatenation of per-bucket stable sorts *is* the global stable
  sort — each element is written exactly **once**, straight into its
  final bucket region.  Total: ``n + s`` key reads, exactly ``n`` key
  writes (``s`` = sample size).

* :class:`WriteEfficientKWayMergesort` (``wemerge4/8/16``) — bottom-up
  mergesort with fan-in ``k`` instead of 2.  A tournament (min-heap) over
  the k run heads picks each output element; the selection state lives in
  CPU registers (indices into already-read runs), never in memory.  Each
  level rewrites every element once, and there are only ``ceil(log_k n)``
  levels instead of ``ceil(log2 n)`` — the classic reads-for-writes
  trade: ``k``-way comparisons per output element buy a ``log2 k`` factor
  fewer write passes.  The numpy path computes a whole level's
  tournament outcome in one call of the shared merge kernel
  (:mod:`repro.sorting.merge_kernels`), corrupted runs included.

Both sorters expose the closed-form write bound via
:meth:`~repro.sorting.base.BaseSorter.max_key_writes`, which the
``write_budget`` oracle class in :mod:`repro.verify.oracle` checks
against measured ``MemoryStats`` counts — the headline analytic claim is
machine-verified, not asserted.

Kernel equivalence: both kernel paths issue the *same sequence* of
``write_block`` calls (one per non-empty bucket / one per merge group),
so on approximate memory they consume the block-corruption RNG stream
identically and whole runs are bit-exact across kernel modes — these
sorters belong to ``APPROX_KERNEL_EXACT`` alongside the radix family
(DESIGN.md section 8).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.memory.approx_array import InstrumentedArray
from repro.obs import get_tracer

from .base import BaseSorter
from .merge_kernels import level_order


class WriteEfficientSampleSort(BaseSorter):
    """One-write-per-element sample sort (Blelloch et al. style).

    Splitters come from a seeded random sample read with accounted
    ``read``/``gather_np`` accesses; the sample itself is sorted in CPU
    (no memory writes).  Every sampled key becomes a splitter, giving
    ``s + 1`` buckets of expected size ``1 / sample_rate`` — and because
    ``bucket(v) = #{splitters <= v}`` is monotone in ``v``, writing the
    per-bucket stable sorts back in bucket order reproduces the global
    stable sort with exactly one write per element.
    """

    name = "wesample"

    #: Sample-size floor: tiny inputs still get a usable splitter set.
    MIN_SAMPLE = 8

    def __init__(
        self,
        sample_rate: float = 0.05,
        seed: int = 0,
        kernels: Optional[str] = None,
    ) -> None:
        super().__init__(kernels=kernels)
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in (0, 1], got {sample_rate!r}"
            )
        self.sample_rate = sample_rate
        self.seed = seed

    def _sample_positions(self, n: int) -> list[int]:
        """Seeded sample positions, ascending (fresh RNG per sort call)."""
        rng = random.Random(self.seed)
        s = min(n, max(self.MIN_SAMPLE, round(self.sample_rate * n)))
        return sorted(rng.sample(range(n), s))

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        positions = self._sample_positions(n)
        if self._use_numpy_kernels(keys, ids):
            self._sort_numpy(keys, ids, n, positions)
        else:
            self._sort_scalar(keys, ids, n, positions)

    def _sort_scalar(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        n: int,
        positions: list[int],
    ) -> None:
        splitters = sorted(keys.read(p) for p in positions)
        values = keys.read_block(0, n)
        id_values = ids.read_block(0, n) if ids is not None else None

        # Scan-order bucket fill, then a stable per-bucket sort: ties keep
        # scan order, so the concatenation equals the global stable sort.
        buckets: list[list[int]] = [[] for _ in range(len(splitters) + 1)]
        for pos, value in enumerate(values):
            buckets[bisect_right(splitters, value)].append(pos)
        offset = 0
        for bucket in buckets:
            if not bucket:
                continue
            bucket.sort(key=values.__getitem__)
            keys.write_block(offset, [values[p] for p in bucket])
            if ids is not None and id_values is not None:
                ids.write_block(offset, [id_values[p] for p in bucket])
            offset += len(bucket)

    def _sort_numpy(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        n: int,
        positions: list[int],
    ) -> None:
        splitters = np.sort(keys.gather_np(np.asarray(positions, dtype=np.int64)))
        values = keys.read_block_np(0, n)
        order = np.argsort(values, kind="stable")
        svals = values[order]
        sids = (
            ids.read_block_np(0, n)[order] if ids is not None else None
        )
        # Bucket b starts where values stop satisfying bucket(v) < b,
        # i.e. v < splitters[b-1]: a side="left" searchsorted per splitter.
        bounds = [0, *np.searchsorted(svals, splitters, side="left").tolist(), n]
        for start, end in zip(bounds, bounds[1:]):
            if start == end:
                continue
            keys.write_block(start, svals[start:end])
            if ids is not None and sids is not None:
                ids.write_block(start, sids[start:end])

    def expected_key_writes(self, n: int) -> float:
        """Exactly one write per element — the whole point."""
        return 0.0 if n < 2 else float(n)

    def max_key_writes(self, n: int) -> Optional[float]:
        """Worst case equals the expectation: ``n`` writes, always."""
        return self.expected_key_writes(n)


class WriteEfficientKWayMergesort(BaseSorter):
    """Bottom-up k-way mergesort: ``ceil(log_k n)`` write passes.

    Each level merges groups of up to ``k`` adjacent runs through a
    tournament min-heap of ``(value, run, offset)`` indices — the heap
    state never touches memory, only the merged output does.  Relative to
    binary mergesort the write volume drops by a ``log2 k`` factor while
    each output element pays ``log2 k`` extra comparisons: reads traded
    for writes, which TEPMW prices asymmetrically in our favour.
    """

    def __init__(self, k: int = 8, kernels: Optional[str] = None) -> None:
        super().__init__(kernels=kernels)
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise ConfigError(f"k-way fan-in must be an integer >= 2, got {k!r}")
        self.k = k
        self.name = f"wemerge{k}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        src_keys: InstrumentedArray = keys
        dst_keys = keys.clone_empty(name=f"{keys.name}.kmerge-buffer")
        src_ids = ids
        dst_ids = (
            ids.clone_empty(name=f"{ids.name}.kmerge-buffer")
            if ids is not None
            else None
        )
        one_level = (
            self._level_numpy
            if self._use_numpy_kernels(keys, ids)
            else self._level_scalar
        )

        tracer = get_tracer()
        width = 1
        level = 0
        while width < n:
            if tracer.enabled:
                with tracer.span(
                    f"kmerge.level{level}", stats=keys.stats,
                    attrs={"algo": self.name, "width": width, "k": self.k},
                ):
                    one_level(src_keys, src_ids, dst_keys, dst_ids, n, width)
            else:
                one_level(src_keys, src_ids, dst_keys, dst_ids, n, width)
            src_keys, dst_keys = dst_keys, src_keys
            if ids is not None:
                src_ids, dst_ids = dst_ids, src_ids
            width *= self.k
            level += 1

        if src_keys is not keys:
            # Odd pass count left the result in scratch; copy home
            # (accounted — these writes are real on hardware).
            with tracer.span("kmerge.copy_home", stats=keys.stats):
                keys.write_block(0, src_keys.read_block(0, n))
                if ids is not None and src_ids is not None:
                    ids.write_block(0, src_ids.read_block(0, n))

    def _level_scalar(
        self,
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        n: int,
        width: int,
    ) -> None:
        """One level: k-way merge every group of k adjacent runs."""
        group = self.k * width
        for lo in range(0, n, group):
            hi = min(lo + group, n)
            runs = []
            run_ids = [] if src_ids is not None else None
            for start in range(lo, hi, width):
                stop = min(start + width, hi)
                runs.append(src_keys.read_block(start, stop - start))
                if src_ids is not None and run_ids is not None:
                    run_ids.append(src_ids.read_block(start, stop - start))
            merged_keys, merged_ids = _kway_walk(runs, run_ids)
            dst_keys.write_block(lo, merged_keys)
            if dst_ids is not None and merged_ids is not None:
                dst_ids.write_block(lo, merged_ids)

    def _level_numpy(
        self,
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        n: int,
        width: int,
    ) -> None:
        """Vectorized level on the batch primitives.

        One ``read_block_np`` charges the same ``n`` reads the scalar
        per-run blocks do (accounting is grouping-invariant), and one call
        of the merge kernel permutes every group of the level exactly as
        the scalar tournament would, corrupted runs included.  Writes stay
        one ``write_block`` per group in both paths, so approx corruption
        draws are bit-identical across kernel modes.
        """
        values = src_keys.read_block_np(0, n)
        id_values = (
            src_ids.read_block_np(0, n) if src_ids is not None else None
        )
        order = level_order(values, width, fan_in=self.k)
        merged_keys = values[order]
        merged_ids = id_values[order] if id_values is not None else None
        group = self.k * width
        for lo in range(0, n, group):
            hi = min(lo + group, n)
            dst_keys.write_block(lo, merged_keys[lo:hi])
            if dst_ids is not None and merged_ids is not None:
                dst_ids.write_block(lo, merged_ids[lo:hi])

    def passes(self, n: int) -> int:
        """Merge levels to sort ``n`` elements: ``ceil(log_k n)``."""
        count = 0
        width = 1
        while width < n:
            width *= self.k
            count += 1
        return count

    def expected_key_writes(self, n: int) -> float:
        """``n`` writes per level, ``ceil(log_k n)`` levels, plus the
        copy-home pass when the level count is odd."""
        if n < 2:
            return 0.0
        levels = self.passes(n)
        if levels % 2 == 1:
            levels += 1
        return float(levels) * n

    def max_key_writes(self, n: int) -> Optional[float]:
        """The level schedule is value-independent: worst case = expected."""
        return self.expected_key_writes(n)


def _kway_walk(
    runs: list[list[int]],
    run_ids: "list[list[int]] | None",
) -> "tuple[list[int], list[int] | None]":
    """Stable k-way tournament merge on already-read values.

    Heap entries are ``(value, run, offset)`` index tuples — ties go to
    the lower run index, matching the stable left-to-right preference of
    the binary merge (and of a stable argsort over the concatenation,
    when every run is sorted).  No memory accesses happen here; the
    caller has read the runs and will block-write the result.
    """
    merged_keys: list[int] = []
    merged_ids: list[int] | None = [] if run_ids is not None else None
    heap = [
        (run[0], idx, 0) for idx, run in enumerate(runs) if run
    ]
    heapq.heapify(heap)
    while heap:
        value, idx, offset = heapq.heappop(heap)
        merged_keys.append(value)
        if merged_ids is not None and run_ids is not None:
            merged_ids.append(run_ids[idx][offset])
        offset += 1
        run = runs[idx]
        if offset < len(run):
            heapq.heappush(heap, (run[offset], idx, offset))
    return merged_keys, merged_ids
