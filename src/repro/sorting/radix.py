"""Queue-bucket radix sorts: LSD and MSD (paper Section 3.1).

The paper implements "a simple version of LSD and MSD using queues as
buckets" with multi-pass partitioning, evaluating 3-, 4-, 5- and 6-bit
digits (8–64 buckets).  Each pass of the queue-based scheme moves every
element twice through memory:

1. the element is appended to its bucket queue (one key write into the
   bucket region), then
2. the concatenated queues are copied back into the array for the next pass
   (a second key write).

The Appendix-B histogram-based scheme (see
:mod:`repro.sorting.radix_histogram`) eliminates the second write, which is
the write-volume difference the paper measures in Figure 15.

LSD is far more imprecision-tolerant than its write count suggests: an error
in an already-processed low digit never changes a later pass's bucket
assignment (paper Section 3.5).  MSD shares quicksort's divide structure and
degrades smoothly.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.memory.approx_array import ApproxArray, InstrumentedArray, PreciseArray
from repro.memory.error_model import WordErrorModel
from repro.obs import get_tracer

from .base import BaseSorter, stable_order
from .msd_walk import PlannedWalk, prefix_runs, walk_segments

#: Key width the digit plans cover (the paper's 32-bit integer keys).
KEY_BITS = 32


def lsd_digit_plan(bits: int) -> list[tuple[int, int]]:
    """Digit schedule for LSD: ``(shift, mask)`` pairs from least significant.

    Chunks are ``bits`` wide; the final chunk narrows to the bits remaining
    below 32 (e.g. 6-bit digits give five 6-bit passes plus one 2-bit pass,
    matching the paper's pass counts: 11/8/7/6 passes for 3/4/5/6 bits).
    """
    if not 1 <= bits <= KEY_BITS:
        raise ValueError(f"digit width must be in [1, {KEY_BITS}], got {bits}")
    plan = []
    shift = 0
    while shift < KEY_BITS:
        width = min(bits, KEY_BITS - shift)
        plan.append((shift, (1 << width) - 1))
        shift += width
    return plan


def msd_digit_plan(bits: int) -> list[tuple[int, int]]:
    """Digit schedule for MSD: ``(shift, mask)`` pairs from most significant.

    Chunks are taken greedily from the top of the key, so the *last* (least
    significant) chunk is the narrow one.
    """
    if not 1 <= bits <= KEY_BITS:
        raise ValueError(f"digit width must be in [1, {KEY_BITS}], got {bits}")
    plan = []
    top = KEY_BITS
    while top > 0:
        width = min(bits, top)
        shift = top - width
        plan.append((shift, (1 << width) - 1))
        top = shift
    return plan


def _digits_np(values: np.ndarray, shift: int, mask: int) -> np.ndarray:
    """Extract one digit column, narrowed for the stable argsort.

    ``np.argsort(kind="stable")`` on uint8/uint16 input runs in its radix
    regime — several times faster than comparison sorting the same digits
    held in a uint32 array.
    """
    digits = (values >> np.uint32(shift)) & np.uint32(mask)
    if mask <= 0xFF:
        return digits.astype(np.uint8)
    if mask <= 0xFFFF:
        return digits.astype(np.uint16)
    return digits


class LSDRadixSort(BaseSorter):
    """Least-significant-digit radix sort with queue buckets.

    Parameters
    ----------
    bits:
        Digit width; the paper evaluates 3, 4, 5 and 6.
    """

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = lsd_digit_plan(bits)
        self.name = f"lsd{bits}"

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
        """LSD radix on precise memory, fused.

        Every pass is a stable distribution and the passes consume the
        whole key, so the output is the stable ascending order: one stable
        argsort.  Accounting replays the pass path exactly: each pass reads
        and rewrites every element of each array twice, into the bucket
        region and back.
        """
        n = len(keys)
        ordered, order = stable_order(keys.peek_block_np(0, n))
        touches = 2 * n * len(self._plan)  # per array: reads == writes
        self._commit_fused(keys, ids, ordered, order, touches)

    def _sort_levels(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        """The pass-by-pass sort through the bucket region."""
        bucket_keys = keys.clone_empty(name=f"{keys.name}.buckets")
        bucket_ids = (
            ids.clone_empty(name=f"{ids.name}.buckets") if ids is not None else None
        )
        one_pass = (
            self._pass_numpy
            if self._use_numpy_kernels(keys, ids)
            else self._pass_scalar
        )
        tracer = get_tracer()
        for index, (shift, mask) in enumerate(self._plan):
            if tracer.enabled:
                with tracer.span(
                    f"radix.pass{index}", stats=keys.stats,
                    attrs={"algo": self.name, "shift": shift},
                ):
                    one_pass(keys, ids, bucket_keys, bucket_ids, shift, mask)
            else:
                one_pass(keys, ids, bucket_keys, bucket_ids, shift, mask)

    def _pass_scalar(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        shift: int,
        mask: int,
    ) -> None:
        """One queue-distribution pass over the whole array."""
        n = len(keys)
        n_buckets = (1 << self.bits)
        values = keys.read_block(0, n)
        id_values = ids.read_block(0, n) if ids is not None else None

        # Stable distribution into queues (bucket contents preserve the
        # incoming order — the property LSD's correctness relies on).
        key_queues: list[list[int]] = [[] for _ in range(n_buckets)]
        id_queues: list[list[int]] = [[] for _ in range(n_buckets)]
        for pos, value in enumerate(values):
            digit = (value >> shift) & mask
            key_queues[digit].append(value)
            if id_values is not None:
                id_queues[digit].append(id_values[pos])

        # Write 1: append every element to its bucket queue.
        concatenated_keys = [v for queue in key_queues for v in queue]
        bucket_keys.write_block(0, concatenated_keys)
        if bucket_ids is not None and id_values is not None:
            concatenated_ids = [v for queue in id_queues for v in queue]
            bucket_ids.write_block(0, concatenated_ids)

        # Write 2: copy the concatenated queues back into the array.
        keys.write_block(0, bucket_keys.read_block(0, n))
        if ids is not None and bucket_ids is not None:
            ids.write_block(0, bucket_ids.read_block(0, n))

    def _pass_numpy(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        shift: int,
        mask: int,
    ) -> None:
        """Vectorized pass: stable argsort over the extracted digits.

        A stable sort by digit value yields exactly the queue-concatenation
        order of the scalar path, so outputs are bit-identical; the block
        reads/writes account the same ``2n`` reads and ``2n`` writes per
        pass as the scalar path.
        """
        n = len(keys)
        values = keys.read_block_np(0, n)
        id_values = ids.read_block_np(0, n) if ids is not None else None

        order = np.argsort(_digits_np(values, shift, mask), kind="stable")

        bucket_keys.write_block(0, values[order])
        if bucket_ids is not None and id_values is not None:
            bucket_ids.write_block(0, id_values[order])

        keys.write_block(0, bucket_keys.read_block_np(0, n))
        if ids is not None and bucket_ids is not None:
            ids.write_block(0, bucket_ids.read_block_np(0, n))

    def expected_key_writes(self, n: int) -> float:
        """alpha_LSD(n): two writes per element per pass."""
        return 2.0 * len(self._plan) * n

    def max_key_writes(self, n: int) -> "float | None":
        """The pass schedule is value-independent: worst case = expected."""
        return 0.0 if n < 2 else self.expected_key_writes(n)


#: ``(partition, key_regions, id_regions)``: an MSD partition callable and
#: the arrays it writes, in write order, keys and ids last.
_Partitioner = tuple[
    Callable[[int, int, int, int], list[int]],
    list[InstrumentedArray],
    list[InstrumentedArray],
]


class _MSDWalkSorter(BaseSorter):
    """Depth-first segment walk shared by the MSD radix sorts.

    Subclasses supply the per-segment partition (:meth:`_partitioner`) and
    its traffic (:attr:`_touches`); the walk, the per-depth trace rollup
    and the fused precise path are common.
    """

    #: Registry-name prefix; the digit width is appended.
    family = "msd"

    #: Reads — and writes — one partition charges per element per array.
    _touches = 2

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = msd_digit_plan(bits)
        self.name = f"{self.family}{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        if self._fusable(keys, ids):
            self._sort_fused(keys, ids)
        elif self._plannable(keys, ids):
            self._sort_planned(keys, ids)
        else:
            self._sort_levels(keys, ids)

    def _partitioner(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> _Partitioner:
        """The partition of one sort of (keys, ids), and what it writes.

        ``partition(lo, hi, shift, mask)`` distributes ``keys[lo:hi]`` by
        one digit and returns the bucket sizes in digit order.
        """
        raise NotImplementedError

    def _plannable(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> bool:
        """Whether the walk may run as plan → verify → commit.

        :meth:`_fusable`'s conditions with approximate keys: numpy
        kernels, keys a bare :class:`ApproxArray` over a
        :class:`WordErrorModel` (whose block sampler the verifier
        replays), ids a bare :class:`PreciseArray` or absent, and a
        disabled tracer, so a traced run keeps its ``msd.depth.*``
        counters.
        """
        return (
            self._use_numpy_kernels(keys, ids)
            and type(keys) is ApproxArray
            and type(keys.model) is WordErrorModel
            and (ids is None or type(ids) is PreciseArray)
            and not get_tracer().enabled
        )

    def _sort_planned(
        self, keys: ApproxArray, ids: Optional[PreciseArray]
    ) -> None:
        """The walk on approximate memory, committed a subtree at a time
        (:mod:`repro.sorting.msd_walk`); bit-identical to
        :meth:`_sort_levels`."""
        partition, key_regions, id_regions = self._partitioner(keys, ids)
        PlannedWalk(self._plan, key_regions, id_regions, partition).run()

    def _sort_levels(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        """The segment-by-segment walk, one partition per segment."""
        partition = self._partitioner(keys, ids)[0]
        tracer = get_tracer()
        # Per-depth rollup (segments partitioned, elements moved) emitted as
        # counters after the walk; only accumulated when tracing is on.
        by_depth: dict[int, list[int]] = {}
        walk_segments(
            partition, self._plan, [(0, len(keys), 0)],
            by_depth if tracer.enabled else None,
        )
        for depth in sorted(by_depth):
            segments, elements = by_depth[depth]
            depth_attrs = {"algo": self.name, "depth": depth}
            tracer.counter("msd.depth.segments", segments, attrs=depth_attrs)
            tracer.counter("msd.depth.elements", elements, attrs=depth_attrs)

    def _sort_fused(
        self, keys: PreciseArray, ids: Optional[PreciseArray]
    ) -> None:
        """The walk on precise memory, fused.

        Every partition is stable and the walk consumes the whole key, so
        the output is the stable ascending order: one stable argsort.  The
        traffic is closed-form.  A segment at depth ``d >= 1`` is a group
        of two or more keys sharing the digits above depth ``d``, and every
        element of a partitioned segment is moved once, so depth ``d``
        charges the elements in such groups (depth 0: all ``n``): the node
        sizes the planned walk finds with the same :func:`prefix_runs`.
        """
        n = len(keys)
        ordered, order = stable_order(keys.peek_block_np(0, n))
        charged = n
        for shift, _ in self._plan[:-1]:
            starts, ends = prefix_runs(ordered >> np.uint32(shift))
            if not starts.size:
                break
            charged += int((ends - starts).sum())
        self._commit_fused(keys, ids, ordered, order, self._touches * charged)


class MSDRadixSort(_MSDWalkSorter):
    """Most-significant-digit radix sort with queue buckets.

    Recursion proceeds bucket by bucket; a segment stops recursing when it
    has at most one element or the digit plan is exhausted.  Like quicksort,
    the divide structure confines an imprecise element's damage to its own
    bucket (paper Section 3.5).
    """

    def _partitioner(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> _Partitioner:
        bucket_keys = keys.clone_empty(name=f"{keys.name}.buckets")
        bucket_ids = (
            ids.clone_empty(name=f"{ids.name}.buckets") if ids is not None else None
        )
        partition = (
            self._partition_segment_np
            if self._use_numpy_kernels(keys, ids)
            else self._partition_segment
        )
        return (
            partial(partition, keys, ids, bucket_keys, bucket_ids),
            [bucket_keys, keys],
            [bucket_ids, ids] if ids is not None else [],
        )

    @staticmethod
    def _partition_segment(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
        shift: int,
        mask: int,
    ) -> list[int]:
        """One queue-distribution pass over ``keys[lo:hi]``.

        Returns the bucket sizes in digit order.
        """
        count = hi - lo
        values = keys.read_block(lo, count)
        id_values = ids.read_block(lo, count) if ids is not None else None

        key_queues: list[list[int]] = [[] for _ in range(mask + 1)]
        id_queues: list[list[int]] = [[] for _ in range(mask + 1)]
        for pos, value in enumerate(values):
            digit = (value >> shift) & mask
            key_queues[digit].append(value)
            if id_values is not None:
                id_queues[digit].append(id_values[pos])

        # Write 1: bucket-queue appends (into the bucket region).
        concatenated_keys = [v for queue in key_queues for v in queue]
        bucket_keys.write_block(lo, concatenated_keys)
        if bucket_ids is not None and id_values is not None:
            concatenated_ids = [v for queue in id_queues for v in queue]
            bucket_ids.write_block(lo, concatenated_ids)

        # Write 2: copy the concatenated queues back into the segment.
        keys.write_block(lo, bucket_keys.read_block(lo, count))
        if ids is not None and bucket_ids is not None:
            ids.write_block(lo, bucket_ids.read_block(lo, count))

        return [len(queue) for queue in key_queues]

    @staticmethod
    def _partition_segment_np(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
        shift: int,
        mask: int,
    ) -> list[int]:
        """Vectorized queue-distribution pass over ``keys[lo:hi]``.

        Stable argsort by digit reproduces the scalar queue concatenation
        bit for bit; ``np.bincount`` gives the bucket sizes.  Accounted
        traffic matches the scalar pass.
        """
        count = hi - lo
        values = keys.read_block_np(lo, count)
        id_values = ids.read_block_np(lo, count) if ids is not None else None

        digits = _digits_np(values, shift, mask)
        order = np.argsort(digits, kind="stable")
        sizes = np.bincount(digits, minlength=mask + 1).tolist()

        bucket_keys.write_block(lo, values[order])
        if bucket_ids is not None and id_values is not None:
            bucket_ids.write_block(lo, id_values[order])

        keys.write_block(lo, bucket_keys.read_block_np(lo, count))
        if ids is not None and bucket_ids is not None:
            ids.write_block(lo, bucket_ids.read_block_np(lo, count))

        return sizes

    def expected_key_writes(self, n: int) -> float:
        """alpha_MSD(n): two writes per element per *touched* level.

        Under uniform keys a segment of size m fans out 2^bits ways, so
        recursion reaches roughly ``log_{2^bits}(n)`` levels (plus the level
        that reduces segments to single elements), capped by the digit-plan
        length.
        """
        if n < 2:
            return 0.0
        levels = min(
            len(self._plan),
            max(1, math.ceil(math.log(n) / math.log(2 ** self.bits))),
        )
        return 2.0 * levels * n
