"""Bottom-up mergesort (paper Section 3.1).

Mergesort is the paper's cautionary tale: because later merge runs involve
ever more elements, an imprecise element keeps participating in comparisons
until the final run, and the unsortedness it causes compounds — mergesort's
output at T = 0.055 has a Rem ratio of 55.8% where quicksort's is 1.9%
(paper Table 3).

A mergesort execution performs about ``n*log2(n)`` key writes
(``alpha_mergesort``): each of the ``ceil(log2 n)`` merge passes rewrites
every element once.  The merge output is assembled run by run and written
with block writes, i.e. the software write-combining the paper adopts from
Balkesen et al. [4].  The paper also sizes first-level chunks to the L2
cache; under the study's write-through cache model this does not change the
memory write stream, so the classic run-size-1 bottom-up schedule is used
(see DESIGN.md).

With numpy kernels each level is one call of the shared merge kernel
(:mod:`repro.sorting.merge_kernels`), which reproduces the scalar walk
exactly even on runs corruption has left unsorted.  On bare precise memory
the whole sort collapses further to one stable argsort plus the
closed-form level traffic (:meth:`Mergesort._sort_fused`).
"""

from __future__ import annotations

from typing import Optional

from repro.memory.approx_array import InstrumentedArray, PreciseArray
from repro.obs import get_tracer

from .base import BaseSorter, nlog2n, stable_order
from .merge_kernels import level_order, runs_order


def merge_passes(n: int) -> int:
    """Rewrite passes over all ``n`` elements a bottom-up mergesort makes:
    ``ceil(log2 n)`` levels, plus the copy-home pass when that is odd."""
    levels = (n - 1).bit_length() if n >= 2 else 0  # == ceil(log2 n)
    return levels + (levels % 2)


class Mergesort(BaseSorter):
    """Bottom-up mergesort with ping-pong buffers over (keys, ids)."""

    name = "mergesort"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        if self._fusable(keys, ids):
            self._sort_fused(keys, ids)
        else:
            self._sort_levels(keys, ids)

    def _sort_fused(
        self, keys: PreciseArray, ids: Optional[PreciseArray]
    ) -> None:
        """Bottom-up mergesort on precise memory, fused.

        A stable bottom-up mergesort's output is the unique stable
        ascending order, so one stable argsort reproduces it bit for bit.
        Accounting replays the level path exactly: :func:`merge_passes`
        reads and rewrites of every element of each array.
        """
        n = len(keys)
        ordered, order = stable_order(keys.peek_block_np(0, n))
        touches = merge_passes(n) * n  # per array: reads == writes
        self._commit_fused(keys, ids, ordered, order, touches)

    def _sort_levels(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        """The level-by-level sort over ping-pong buffers."""
        n = len(keys)
        src_keys: InstrumentedArray = keys
        dst_keys = keys.clone_empty(name=f"{keys.name}.merge-buffer")
        src_ids = ids
        dst_ids = ids.clone_empty(name=f"{ids.name}.merge-buffer") if ids is not None else None
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
                    f"merge.level{level}", stats=keys.stats,
                    attrs={"algo": self.name, "width": width},
                ):
                    one_level(src_keys, src_ids, dst_keys, dst_ids, n, width)
            else:
                one_level(src_keys, src_ids, dst_keys, dst_ids, n, width)
            src_keys, dst_keys = dst_keys, src_keys
            if ids is not None:
                src_ids, dst_ids = dst_ids, src_ids
            width *= 2
            level += 1

        if src_keys is not keys:
            # An odd number of passes left the result in the scratch buffer;
            # copy it home (accounted — these writes are real on hardware).
            with tracer.span("merge.copy_home", stats=keys.stats):
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
        """One bottom-up level: merge every run pair of width ``width``."""
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            self._merge_runs(src_keys, src_ids, dst_keys, dst_ids, lo, mid, hi)

    def _level_numpy(
        self,
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        n: int,
        width: int,
    ) -> None:
        """One vectorized bottom-up level on the batch primitives.

        A scalar level performs exactly ``n`` reads and ``n`` writes (every
        element is read once and rewritten once across its pair merges), so
        reading the whole array with one ``read_block_np`` and writing the
        merged level with one ``write_block`` charges identical counts —
        ``MemoryStats`` accounting is grouping-invariant.  The merge kernel
        permutes every pair of the level at once, corrupted runs included,
        exactly as the scalar walks would.  On precise memory the level
        output is bit-identical to the scalar pass; on approximate memory
        the corruption stream regroups (one block draw per level instead of
        one per pair merge), so runs agree statistically, not bit for bit.
        """
        values = src_keys.read_block_np(0, n)
        id_values = (
            src_ids.read_block_np(0, n) if src_ids is not None else None
        )
        order = level_order(values, width)
        dst_keys.write_block(0, values[order])
        if dst_ids is not None and id_values is not None:
            dst_ids.write_block(0, id_values[order])

    @staticmethod
    def _merge_runs(
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        lo: int,
        mid: int,
        hi: int,
    ) -> None:
        """Merge ``src[lo:mid]`` and ``src[mid:hi]`` into ``dst[lo:hi]``."""
        left = src_keys.read_block(lo, mid - lo)
        right = src_keys.read_block(mid, hi - mid)
        left_ids = src_ids.read_block(lo, mid - lo) if src_ids is not None else None
        right_ids = src_ids.read_block(mid, hi - mid) if src_ids is not None else None

        merged_keys: list[int] = []
        merged_ids: list[int] = []
        i = j = 0
        while i < len(left) and j < len(right):
            # `<=` keeps the merge stable.
            if left[i] <= right[j]:
                merged_keys.append(left[i])
                if left_ids is not None:
                    merged_ids.append(left_ids[i])
                i += 1
            else:
                merged_keys.append(right[j])
                if right_ids is not None:
                    merged_ids.append(right_ids[j])
                j += 1
        merged_keys.extend(left[i:])
        merged_keys.extend(right[j:])
        if left_ids is not None and right_ids is not None:
            merged_ids.extend(left_ids[i:])
            merged_ids.extend(right_ids[j:])

        dst_keys.write_block(lo, merged_keys)
        if dst_ids is not None:
            dst_ids.write_block(lo, merged_ids)

    @staticmethod
    def _merge_runs_np(
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        lo: int,
        mid: int,
        hi: int,
    ) -> None:
        """Vectorized merge of ``src[lo:mid]`` and ``src[mid:hi]``.

        The merge kernel reproduces the scalar ``<=`` walk exactly, for
        sorted and corruption-unsorted runs alike; one block read and one
        block write per array charge what the scalar merge charges.
        """
        values = src_keys.read_block_np(lo, hi - lo)
        id_values = (
            src_ids.read_block_np(lo, hi - lo) if src_ids is not None else None
        )
        order = runs_order(values, (mid - lo, hi - mid))
        dst_keys.write_block(lo, values[order])
        if dst_ids is not None and id_values is not None:
            dst_ids.write_block(lo, id_values[order])

    def expected_key_writes(self, n: int) -> float:
        """alpha_mergesort(n) ~ n*log2(n) (paper Section 4.3)."""
        return float(merge_passes(n) * n)

    def max_key_writes(self, n: int) -> "float | None":
        """The pass schedule is value-independent: worst case = expected."""
        return self.expected_key_writes(n)

    # Kept for reference against the paper's closed form.
    @staticmethod
    def paper_alpha(n: int) -> float:
        """The paper's approximation ``alpha_mergesort(n) = n*log2(n)``."""
        return nlog2n(n)

