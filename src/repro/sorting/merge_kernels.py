"""The one merge kernel every numpy merge path runs.

A two-pointer merge with the left run winning ties, and a k-way min-head
merge with the lowest run winning ties, interleave *arbitrary* runs —
sorted or left unsorted by corruption — exactly like a stable sort of the
runs' **prefix maxima**: an element that is not a new running maximum of
its run is emitted right after the element that set that maximum, because
it compares at or below every head its predecessor already beat.  So a
whole merge level is two numpy calls over the level's values:

* ``pm = maximum.accumulate((run << 32) | v) & 0xFFFFFFFF`` — the run id
  in the high bits resets the running maximum at every run start;
* ``argsort((group << 32) | pm, kind="stable")`` — the group id in the
  high bits keeps every merge inside its group, and stability gives ties
  to the earlier run (and, within a run, to the earlier position).

Ragged tails, empty runs and dirty (unsorted) runs all go through the
same call.  The kernel only reorders values the caller has already read;
it touches no memory array, so accounting and the corruption stream stay
with the caller's block reads and writes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_LOW32 = np.int64(0xFFFFFFFF)
_SHIFT = np.int64(32)


def merge_order(
    values: np.ndarray, run: np.ndarray, group: Optional[np.ndarray] = None
) -> np.ndarray:
    """Permutation merging the runs of ``values`` within each group.

    ``run`` labels each element's run and ``group`` the merge it belongs
    to (``None``: one merge of every run); both must be non-decreasing
    along the array, with distinct labels for distinct runs.
    """
    pm = np.maximum.accumulate((run << _SHIFT) | values.astype(np.int64))
    pm &= _LOW32
    if group is not None:
        pm |= group << _SHIFT
    return np.argsort(pm, kind="stable")


def level_order(values: np.ndarray, width: int, fan_in: int = 2) -> np.ndarray:
    """Permutation of one bottom-up merge level of run width ``width``.

    Every group of ``fan_in`` adjacent runs merges; the last group may be
    partial (a ragged tail, or a lone run that stays put).
    """
    run = np.arange(values.size, dtype=np.int64) // width
    return merge_order(values, run, run // fan_in)


def runs_order(values: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Permutation of one k-way merge of consecutive runs of ``lengths``."""
    run = np.repeat(
        np.arange(len(lengths), dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )
    return merge_order(values, run)
