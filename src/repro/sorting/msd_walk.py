"""The MSD walk, and its plan-and-verify form on approximate memory.

The MSD walk (:func:`walk_segments`, shared by ``msd*`` and ``hmsd*``)
partitions one segment at a time, and on approximate memory every
partition is a couple of small block writes through the error model.
Most of them store their words exactly: at T = 0.040 none err, at
T = 0.055 fewer than one block in a hundred.  And a corrupted word damages
only its own bucket (paper Section 3.5), so an erring write invalidates
only its own segment's subtree.

:class:`PlannedWalk` runs the same walk in bulk where it can:

* **plan** — the subtrees of sibling segments are planned as if no write
  erred: a node at depth ``D`` is a group of two or more keys sharing the
  digits between the siblings' depth and ``D``, and its block is the
  group stably sorted on those digits and digit ``D``, one stable argsort
  per depth.  Nodes are listed in the walk's pop order;
* **verify** — a clean sparse-regime block write of ``m`` words draws
  exactly ``m`` block-stream uniforms, so the peeked uniforms
  (:meth:`ApproxArray.peek_block_uniforms`) show which planned write errs
  first.  A block the sampler could send down its dense regime, under a
  conservative margin, stops the plan too;
* **commit** — every node before the first bad one is committed at once:
  stores, read and write counts, the per-block write units added in the
  walk's order (:meth:`MemoryStats.record_approx_write_blocks`), and each
  block stream advanced past exactly the uniforms those writes drew;
* **fall back** — the bad node runs through the sorter's own partition.
  A child whose words its writes did not corrupt keeps its planned
  subtree; the others are planned again from what was stored.

Segments whose subtrees are expected to see many erring writes, and
spans too small to repay a plan, take the plain walk.  Either way the
result is bit-identical to :func:`walk_segments`: keys, ids,
``MemoryStats`` and the state of every block stream.
"""

from __future__ import annotations

import bisect
from typing import Callable, Sequence

import numpy as np

from repro.memory.approx_array import ApproxArray, InstrumentedArray
from repro.memory.error_model import WordErrorModel, block_sums

#: Sibling spans of at most this many keys are walked, not planned: a
#: plan's fixed numpy cost (about 120 us for a few keys, 160 us for 31,
#: on a 2-CPU host) outweighs the few 30-60 us partitions it could save.
_WALK_SPAN = 64

#: Expected erring writes above which a segment's subtree is walked
#: rather than planned: each one costs a partition and a re-plan.  Of 2,
#: 4, 8, 16 and 32, 8 gave the least msd3..msd6 sort time summed over
#: the fig09 grid's T = 0.040..0.070 on a 2-CPU host (16 was within
#: noise, 2 and 4 about 10% slower, 32 about 25%).
_PLAN_ERRORS = 8.0

#: Words of uniforms the verifier peeks first; the window doubles while
#: the plan stays clean.
_FIRST_WINDOW = 512

#: Slack on the dense-regime test: the planner sums ``p_ok`` in another
#: order than the sampler, so a block within this many expected erring
#: words per word of the cut-off is treated as dense and left to the walk.
_DENSE_MARGIN = 1e-9


def child_segments(
    sizes: list[int], lo: int, depth: int
) -> list[tuple[int, int, int]]:
    """``(start, end, depth)`` of every bucket of two or more elements.

    ``sizes`` are a partition's bucket sizes in digit order, starting at
    ``lo``; the children come back in digit order too, so pushing them on
    the walk's stack pops (and corrupts) them in the same order as ever.
    The sizes arrive as Python ints: for 8 to 64 buckets a plain loop over
    them beats both a numpy cumsum/nonzero pass (5-9 us per call on a
    2-CPU host) and a loop over numpy scalars.
    """
    children = []
    start = lo
    for size in sizes:
        if size > 1:
            children.append((start, start + size, depth))
        start += size
    return children


def walk_segments(
    partition: Callable[[int, int, int, int], list[int]],
    digit_plan: Sequence[tuple[int, int]],
    stack: list[tuple[int, int, int]],
    by_depth: "dict[int, list[int]] | None" = None,
) -> None:
    """The MSD walk: partition segments one at a time, depth first.

    ``stack`` holds ``(lo, hi, depth)`` segments, the next one last; a
    partitioned segment pushes its buckets of two or more elements.
    ``by_depth``, when given, collects ``[segments, elements]`` per depth.
    An explicit stack rather than recursion: segments can be numerous
    (64-way fan-out) and Python's recursion limit is easy to trip.
    """
    last = len(digit_plan) - 1
    while stack:
        lo, hi, depth = stack.pop()
        if hi - lo <= 1:
            continue
        if by_depth is not None:
            rollup = by_depth.setdefault(depth, [0, 0])
            rollup[0] += 1
            rollup[1] += hi - lo
        shift, mask = digit_plan[depth]
        sizes = partition(lo, hi, shift, mask)
        if depth < last:
            stack.extend(child_segments(sizes, lo, depth + 1))


def prefix_runs(ordered: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(starts, ends)`` of the runs of two or more equal values.

    ``ordered`` must hold equal values contiguously.  These runs are the
    MSD segments one level down: for keys sorted on a digit prefix, the
    groups sharing that prefix.
    """
    if ordered.size < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [ordered.size]))
    keep = ends - starts > 1
    return starts[keep], ends[keep]


class _Forest:
    """The planned subtrees of sibling segments, nodes in pop order.

    Node ``k`` at depth ``depths[k]`` covers ``[starts[k], ends[k])`` of
    the span at ``lo``.  Its block is word ``offsets[k]`` to
    ``offsets[k + 1]`` of the plan: word ``w`` is ``values[source[w]]``,
    stored at span position ``positions[w]``, which falls in child node
    ``child[w]`` (the node count when no child holds it); the block costs
    ``units[k]`` write units in all.  ``stops`` lists, ascending, the nodes the plan
    may not commit (dense-regime blocks, and the ``replan`` nodes whose
    input an erring write changed); ``cursor`` is the next node to run.
    """

    __slots__ = (
        "lo", "values", "id_values", "starts", "ends", "depths", "offsets",
        "source", "positions", "child", "p_ok", "units", "stops", "replan",
        "cursor",
    )


class PlannedWalk:
    """One MSD sort run as plan → verify → commit, with walk fallback.

    Parameters
    ----------
    digit_plan:
        The sorter's ``(shift, mask)`` digits, most significant first.
    key_regions:
        Approximate arrays every partition writes, in write order; the
        last one is the keys.  They share the keys' ``MemoryStats`` (as
        :meth:`ApproxArray.clone_empty` arranges).
    id_regions:
        The precise id arrays written alongside (empty without ids).
    partition:
        ``partition(lo, hi, shift, mask) -> sizes``, the walk's own
        partition, run on every node the plan cannot commit.
    """

    def __init__(
        self,
        digit_plan: Sequence[tuple[int, int]],
        key_regions: Sequence[ApproxArray],
        id_regions: Sequence[InstrumentedArray],
        partition: Callable[[int, int, int, int], list[int]],
    ) -> None:
        self.digit_plan = list(digit_plan)
        self.key_regions = list(key_regions)
        self.id_regions = list(id_regions)
        self.partition = partition
        keys = self.key_regions[-1]
        self.keys = keys
        self.ids = self.id_regions[-1] if self.id_regions else None
        self.model: WordErrorModel = keys.model
        self.precise_iterations = keys.precise_iterations
        self.bits = max(mask for _, mask in self.digit_plan).bit_length()
        self.error_rate = self.model.word_error_rate * len(self.key_regions)
        self.plan_limit = self._plan_limit(len(keys))

    def run(self) -> None:
        """Sort ``keys[0:n]`` the way the walk would."""
        last = len(self.digit_plan) - 1
        # The walk's stack, holding planned forests and single segments.
        frames: "list[_Forest | tuple[int, int, int]]" = []
        self._descend(0, [len(self.keys)], 0, frames)
        while frames:
            forest = frames[-1]
            if type(forest) is tuple:
                frames.pop()
                lo, hi, depth = forest
                if hi - lo <= _WALK_SPAN:
                    # Nothing below it is planned either.
                    walk_segments(self.partition, self.digit_plan, [forest])
                    continue
                shift, mask = self.digit_plan[depth]
                sizes = self.partition(lo, hi, shift, mask)
                if depth < last:
                    self._descend(lo, sizes, depth + 1, frames)
                continue
            nodes = forest.starts.size
            bad = self._first_bad(forest)
            self._commit(forest, forest.cursor, bad)
            if bad == nodes:
                frames.pop()
                continue
            start = int(forest.starts[bad])
            lo = forest.lo + start
            hi = forest.lo + int(forest.ends[bad])
            depth = int(forest.depths[bad])
            if bad in forest.replan:
                # Its input differs from the plan: plan its subtree anew.
                # The subtree ends at the first later node lying wholly to
                # its left (nodes are in descending-end order).
                forest.cursor = int(np.searchsorted(
                    -forest.ends, -start, side="left"
                ))
                if forest.cursor == nodes:
                    frames.pop()
                self._descend(lo, [hi - lo], depth, frames)
                continue
            shift, mask = self.digit_plan[depth]
            self.partition(lo, hi, shift, mask)
            forest.cursor = bad + 1
            if bad + 1 == nodes:
                frames.pop()
            else:
                self._replan_damaged(forest, bad)

    def _replan_damaged(self, forest: _Forest, node: int) -> None:
        """Mark the children of a walked ``node`` its erring writes reached.

        The walked node read its planned block, so it cut the planned
        buckets; a child none of whose words was corrupted holds its
        planned input and keeps its planned subtree.  The others are
        planned anew when the cursor reaches them.
        """
        begin, end = forest.offsets[node], forest.offsets[node + 1]
        stored = self.keys.peek_block_np(
            forest.lo + int(forest.starts[node]), int(end - begin)
        )
        damaged = np.flatnonzero(
            stored != forest.values[forest.source[begin:end]]
        )
        nodes = forest.starts.size
        for kid in set(forest.child[begin + damaged].tolist()) - {nodes}:
            forest.replan.add(kid)
            bisect.insort(forest.stops, kid)

    def _descend(
        self,
        lo: int,
        sizes: list[int],
        depth: int,
        frames: "list[_Forest | tuple[int, int, int]]",
    ) -> None:
        """Push the buckets ``sizes`` at ``lo`` of two or more keys.

        A bucket whose subtree would see too many erring writes (more
        than :attr:`plan_limit` keys) goes on the stack as a segment for the
        walk's partition; each run of the others is planned as one
        forest, unless it spans at most :data:`_WALK_SPAN` keys, too few
        nodes to repay a plan's fixed cost.
        """
        limit = self.plan_limit
        run_lo = run_first = None
        start = lo
        for index, size in enumerate(sizes):
            if size > limit:
                if run_first is not None:
                    self._push_run(
                        run_lo, sizes[run_first:index], depth, frames
                    )
                    run_first = None
                frames.append((start, start + size, depth))
            elif size > 1 and run_first is None:
                run_lo, run_first = start, index
            start += size
        if run_first is not None:
            self._push_run(run_lo, sizes[run_first:], depth, frames)

    def _push_run(
        self,
        lo: int,
        sizes: list[int],
        depth: int,
        frames: "list[_Forest | tuple[int, int, int]]",
    ) -> None:
        if sum(sizes) > _WALK_SPAN:
            frames.append(self._plan(lo, sizes, depth))
        else:
            frames.extend(child_segments(sizes, lo, depth))

    def _plan_limit(self, most: int) -> int:
        """The largest segment (up to ``most`` keys) worth planning.

        A segment's subtree is expected to see ``rate * size * levels``
        erring writes: every word is written once per level the subtree
        spans, in every region, at the model's error rate for a uniform
        word.  Above :data:`_PLAN_ERRORS` of them, walking is cheaper.
        """
        def expected_errors(size: int) -> float:
            levels = size.bit_length() / self.bits + 1
            return self.error_rate * size * levels

        low, high = 1, most
        while low < high:
            middle = (low + high + 1) // 2
            if expected_errors(middle) <= _PLAN_ERRORS:
                low = middle
            else:
                high = middle - 1
        return low

    # -- plan ------------------------------------------------------------ #

    def _plan(self, lo: int, sizes: list[int], depth: int) -> _Forest:
        """Plan the subtrees of the buckets ``sizes`` (at ``lo``) of two or
        more keys, at ``depth``, as if no write erred."""
        span = sum(sizes)
        values = self.keys.peek_block_np(lo, span)
        cost, p_ok = self.model.block_cost_and_no_error(values)
        # The digits from ``depth`` down: bits below the segments' top.
        shift, mask = self.digit_plan[depth]
        top = shift + mask.bit_length()
        low = (values & np.uint32((1 << top) - 1)).astype(np.uint64)
        # Keys sort on (bucket, digits), so buckets stay where they are.
        labels = np.repeat(np.arange(len(sizes), dtype=np.uint64), sizes)
        grouped = labels
        orders: list[np.ndarray] = []
        starts: list[np.ndarray] = []
        ends: list[np.ndarray] = []
        depths: list[np.ndarray] = []
        for level in range(depth, len(self.digit_plan)):
            run_starts, run_ends = prefix_runs(grouped)
            if not run_starts.size:
                break
            shift = self.digit_plan[level][0]
            key = (labels << np.uint64(top - shift)) | (
                low >> np.uint64(shift)
            )
            order = np.argsort(key, kind="stable")
            grouped = key[order]
            orders.append(order)
            starts.append(run_starts)
            ends.append(run_ends)
            depths.append(np.full(run_starts.size, level, dtype=np.int64))

        forest = _Forest()
        node_starts = np.concatenate(starts)
        node_ends = np.concatenate(ends)
        node_depths = np.concatenate(depths)
        # Pop order: preorder with children in descending digit order,
        # which is descending end, ancestors (shallower) first.
        preorder = np.lexsort((node_depths, -node_ends))
        node_starts = node_starts[preorder]
        node_ends = node_ends[preorder]
        node_depths = node_depths[preorder]
        lengths = node_ends - node_starts
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        within = np.arange(total) - np.repeat(offsets[:-1], lengths)
        positions = np.repeat(node_starts, lengths) + within
        # Word ``w`` of a depth-``D`` node is its position in the span
        # stably sorted on the digits down to ``D``.
        flat = np.repeat((node_depths - depth) * span, lengths) + positions
        source = np.concatenate(orders)[flat]
        # The child node each word's position falls in (``nodes``: none).
        owner = np.full((len(orders) + 1) * span, lengths.size)
        owner[flat] = np.repeat(np.arange(lengths.size), lengths)
        child = owner[flat + span]

        cost = np.asarray(cost)[source]
        p_ok = np.asarray(p_ok)[source]
        units = block_sums(cost, offsets) / self.precise_iterations
        expected_ok = np.add.reduceat(p_ok, offsets[:-1])
        cutoff = self.model._DENSE_ERROR_CUTOFF - _DENSE_MARGIN
        dense = lengths - expected_ok > lengths * cutoff

        forest.lo = lo
        forest.values = values
        forest.id_values = (
            self.ids.peek_block_np(lo, span) if self.ids is not None else None
        )
        forest.starts = node_starts
        forest.ends = node_ends
        forest.depths = node_depths
        forest.offsets = offsets
        forest.source = source
        forest.positions = positions
        forest.child = child
        forest.p_ok = p_ok
        forest.units = units
        forest.stops = np.flatnonzero(dense).tolist()
        forest.replan = set()
        forest.cursor = 0
        return forest

    # -- verify ---------------------------------------------------------- #

    def _first_bad(self, forest: _Forest) -> int:
        """Index of the first node from the cursor whose writes would err
        or could take the dense regime; the node count if none."""
        nodes = forest.starts.size
        cursor = forest.cursor
        stops = forest.stops
        at = bisect.bisect_left(stops, cursor)
        stop = stops[at] if at < len(stops) else nodes
        offsets = forest.offsets
        base = int(offsets[cursor])
        limit = int(offsets[stop])
        window = _FIRST_WINDOW
        checked = base
        while checked < limit:
            end = min(limit, checked + window)
            erring = None
            for region in self.key_regions:
                uniforms = region.peek_block_uniforms(end - base)
                hits = np.flatnonzero(
                    uniforms[checked - base:] >= forest.p_ok[checked:end]
                )
                if hits.size and (erring is None or hits[0] < erring):
                    erring = int(hits[0])
            if erring is not None:
                stop = int(np.searchsorted(
                    offsets, checked + erring, side="right"
                )) - 1
                break
            checked = end
            window *= 2
        return stop

    # -- commit ---------------------------------------------------------- #

    def _commit(self, forest: _Forest, first: int, stop: int) -> None:
        """Store and charge nodes ``[first, stop)``, as the walk would."""
        if stop <= first:
            return
        offsets = forest.offsets
        begin, end = int(offsets[first]), int(offsets[stop])
        words = end - begin
        regions = self.key_regions
        for region in regions:
            region.advance_block_stream(words)
        stats = self.keys.stats
        stats.record_approx_read(words * len(regions))
        stats.record_approx_write_blocks(
            words * len(regions),
            np.repeat(forest.units[first:stop], len(regions)),
        )
        for region in self.id_regions:
            region.stats.record_precise_read(words)
            region.stats.record_precise_write(words)

        # A word is final unless its child node is committed too.  Only
        # the keys and ids are stored: a partition writes its scratch
        # bucket region before it reads it, so that region's contents
        # never reach a result.
        final = forest.child[begin:end] >= stop
        positions = forest.positions[begin:end][final] + forest.lo
        source = forest.source[begin:end][final]
        self.keys.poke_scatter_np(positions, forest.values[source])
        if forest.id_values is not None:
            self.ids.poke_scatter_np(positions, forest.id_values[source])
