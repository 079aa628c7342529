"""The refine stage (paper Section 4.2, Listings 1 and 2).

After the approx stage, ``ID`` is a permutation of record IDs whose key
sequence ``Key0[ID[i]]`` is *nearly* sorted.  The refine stage turns it into
an exactly sorted output with fewer than ``3n`` precise memory writes:

Step 1 (:func:`find_rem_ids`, Listing 1)
    A single O(n) scan extracts an approximate longest increasing
    subsequence (LIS~): an element stays in LIS~ if it is >= the current
    LIS~ tail and <= its right neighbour; everything else goes to ``REMID~``
    (``Rem~`` writes).

Step 2 (:func:`sort_rem_ids`)
    Sort ``REMID~`` by key value with the same algorithm used in the approx
    stage (``alpha_alg(Rem~)`` ID writes; key values are fetched from
    ``Key0`` with reads — the paper trades extra reads for fewer writes).

Step 3 (:func:`merge_refined`, Listing 2)
    Merge LIS~ (rescanned from ``ID``) with the sorted ``REMID~`` into
    ``finalKey``/``finalID`` (``2n + Rem~`` writes, of which ``2n`` are the
    unavoidable output writes).

The output is exactly sorted for *any* input permutation — corruption in the
approx stage only ever increases ``Rem~`` (cost), never correctness.  This
invariant is property-tested.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.execution import resolve_kernels
from repro.memory.approx_array import InstrumentedArray, PreciseArray
from repro.memory.stats import MemoryStats
from repro.obs import get_tracer
from repro.sorting.base import BaseSorter
from repro.verify import maybe_sanitize


def _use_np(kernels: Optional[str], *arrays: InstrumentedArray) -> bool:
    """Kernel gate for the refine functions (mirrors BaseSorter's)."""
    if resolve_kernels(kernels) != "numpy":
        return False
    return all(a.trace is None and a.kernel_safe for a in arrays)


def _account_reads(array: InstrumentedArray, count: int) -> None:
    """Charge ``count`` repeat reads of ``array`` without re-issuing them.

    Reads have no side effects in any memory model here, so for values the
    kernel already holds the scalar path's repeat reads are observationally
    just counters.
    """
    if count <= 0:
        return
    if array.region == "approx":
        array.stats.record_approx_read(count)
    else:
        array.stats.record_precise_read(count)


def find_rem_ids(
    ids: InstrumentedArray,
    key0: InstrumentedArray,
    rem_stats: Optional[MemoryStats] = None,
    kernels: Optional[str] = None,
) -> list[int]:
    """Listing 1: single-scan approximate-LIS split.

    Parameters
    ----------
    ids:
        The record-ID permutation produced by the approx stage (precise).
    key0:
        The original, uncorrupted keys (precise); ``key0[ids[i]]`` is the
        key sequence being examined.
    rem_stats:
        Stats object to charge the ``Rem~`` intermediate writes to; defaults
        to ``ids.stats``.

    Returns
    -------
    The record IDs *not* in LIS~, in their scan order (``REMID~``).
    """
    stats = rem_stats if rem_stats is not None else ids.stats
    n = len(ids)
    rem_ids: list[int] = []
    if n == 0:
        return rem_ids
    if n > 1 and _use_np(kernels, ids, key0):
        rem_ids = _find_rem_ids_np(ids, key0, stats)
        _count_rem(rem_ids, n)
        return rem_ids

    lis_tail = key0.read(ids.read(0))
    for i in range(1, n - 1):
        key_i = key0.read(ids.read(i))
        key_next = key0.read(ids.read(i + 1))
        if lis_tail <= key_i <= key_next:
            # key_i extends LIS~: non-decreasing with both neighbours.
            lis_tail = key_i
        else:
            rem_ids.append(ids.read(i))
            stats.record_precise_write()
    if n > 1:
        last_key = key0.read(ids.read(n - 1))
        if lis_tail > last_key:
            rem_ids.append(ids.read(n - 1))
            stats.record_precise_write()
    _count_rem(rem_ids, n)
    return rem_ids


def _count_rem(rem_ids: list[int], n: int) -> None:
    """Emit the Listing-1 split size (Rem~) when tracing is on."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.counter("refine.rem_count", len(rem_ids), attrs={"n": n})


def _find_rem_ids_np(
    ids: InstrumentedArray,
    key0: InstrumentedArray,
    stats: MemoryStats,
) -> list[int]:
    """Vectorized Listing-1 scan, bit-identical to the scalar loop.

    An interior element is *locally admissible* when ``key_i <= key_next``;
    among those, the scalar acceptance test is ``key_i >= lis_tail`` where
    the tail is the running max of accepted keys.  A rejected admissible
    key is below the tail at its turn, so it never raises the running max —
    the tail therefore equals the running max over *all* admissible keys,
    and acceptance reduces to ``key >= exclusive-cummax``.  Reads are
    re-issued with exactly the scalar multiplicities: every position twice
    except position 0 and 1 (once via the block pass, once via the
    shifted pass), plus one ids re-read per REM element.
    """
    n = len(ids)
    id_vals = ids.read_block_np(0, n)
    ids.read_block_np(2, n - 2)  # the scan's second visit of 2..n-1
    keys = key0.gather_np(id_vals)
    key0.gather_np(id_vals[2:])

    adm_mask = keys[1 : n - 1] <= keys[2:n]
    seeded = np.concatenate((keys[:1], keys[1 : n - 1][adm_mask]))
    cummax = np.maximum.accumulate(seeded)
    accepted = seeded[1:] >= cummax[:-1]

    rem_interior = ~adm_mask
    rem_interior[np.flatnonzero(adm_mask)[~accepted]] = True
    rem_pos = np.flatnonzero(rem_interior) + 1
    if keys[n - 1] < cummax[-1]:
        rem_pos = np.append(rem_pos, n - 1)

    rem_vals = ids.gather_np(rem_pos)  # the scalar path's re-reads
    stats.record_precise_write(rem_vals.size)
    return [int(v) for v in rem_vals]


def sort_rem_ids(
    rem_ids: list[int],
    key0: InstrumentedArray,
    sorter: BaseSorter,
    stats: MemoryStats,
    kernels: Optional[str] = None,
) -> list[int]:
    """Step 2: sort ``REMID~`` in increasing order of key value.

    The paper sorts only the ID array; key values are *read* from ``Key0``
    during comparisons rather than materialized ("it deserves replacing a
    PCM write with a PCM read").  Accordingly the shadow key array used to
    drive the comparison-based sorters contributes its reads — one ``Key0``
    read each — but not its writes to the accounting.
    """
    m = len(rem_ids)
    if m <= 1:
        return list(rem_ids)

    # Fetch the key of every REM element once (accounted reads of Key0).
    if _use_np(kernels, key0):
        rem_keys = key0.gather_np(np.asarray(rem_ids, dtype=np.int64))
    else:
        rem_keys = [key0.read(rid) for rid in rem_ids]

    shadow_stats = MemoryStats()
    shadow_keys = maybe_sanitize(PreciseArray(rem_keys, stats=shadow_stats))
    id_array = maybe_sanitize(PreciseArray(rem_ids, stats=stats))
    sorter.sort(shadow_keys, id_array)
    # Key comparisons during the sort are Key0 reads in the paper's design.
    stats.record_precise_read(shadow_stats.precise_reads)
    return id_array.to_list()


def merge_refined(
    ids: InstrumentedArray,
    key0: InstrumentedArray,
    sorted_rem_ids: list[int],
    final_keys: InstrumentedArray,
    final_ids: InstrumentedArray,
    kernels: Optional[str] = None,
) -> None:
    """Listing 2: merge LIS~ and sorted REMID~ into the final output.

    ``ids`` is rescanned to enumerate LIS~ (skipping IDs present in
    ``REMID~`` via a membership set — ``Rem~`` set-insertion writes); the
    two sorted streams are merged into ``final_keys``/``final_ids``
    (``2n`` unavoidable output writes).
    """
    n = len(ids)
    stats = final_ids.stats
    if n > 0 and _use_np(kernels, ids, key0, final_keys, final_ids):
        _merge_refined_np(ids, key0, sorted_rem_ids, final_keys, final_ids)
        return

    rem_id_set = set()
    for rid in sorted_rem_ids:
        rem_id_set.add(rid)
        stats.record_precise_write()

    lis_ptr = 0
    rem_ptr = 0
    final_ptr = 0
    m = len(sorted_rem_ids)
    while lis_ptr < n:
        # Find the next element of LIS~ in the approx-stage permutation.
        while lis_ptr < n and ids.read(lis_ptr) in rem_id_set:
            lis_ptr += 1
        if lis_ptr >= n:
            break
        lis_id = ids.read(lis_ptr)
        lis_key = key0.read(lis_id)
        if rem_ptr < m and key0.read(sorted_rem_ids[rem_ptr]) < lis_key:
            rem_id = sorted_rem_ids[rem_ptr]
            final_ids.write(final_ptr, rem_id)
            final_keys.write(final_ptr, key0.read(rem_id))
            rem_ptr += 1
        else:
            final_ids.write(final_ptr, lis_id)
            final_keys.write(final_ptr, lis_key)
            lis_ptr += 1
        final_ptr += 1
    while rem_ptr < m:
        rem_id = sorted_rem_ids[rem_ptr]
        final_ids.write(final_ptr, rem_id)
        final_keys.write(final_ptr, key0.read(rem_id))
        rem_ptr += 1
        final_ptr += 1


def _merge_refined_np(
    ids: InstrumentedArray,
    key0: InstrumentedArray,
    sorted_rem_ids: list[int],
    final_keys: InstrumentedArray,
    final_ids: InstrumentedArray,
) -> None:
    """Vectorized Listing-2 merge, bit-identical to the scalar loop.

    Both input streams are always non-decreasing in key — LIS~ by the
    Listing-1 acceptance invariant (corruption only shrinks it, never
    breaks it) and REMID~ because step 2 sorts a precise shadow — so the
    stable two-stream merge (LIS~ first on key ties, matching the scalar
    ``rem < lis`` test) comes from two ``np.searchsorted`` calls.

    The scalar loop's read multiplicities are replayed exactly: each of
    the ``m`` REM-set positions of ``ID`` is read once by the skip scan
    and each LIS~ position ``2*(parked REM emissions + 1)`` times; ``Key0``
    reads are the per-iteration LIS~-head read, the head comparison when
    REM is non-empty, and the double read on each REM emission.  Values
    the kernel already holds are re-charged via stats (reads are
    side-effect-free), keeping counts identical to the scalar path.
    """
    n = len(ids)
    m = len(sorted_rem_ids)
    stats = final_ids.stats
    stats.record_precise_write(m)  # the REM-membership set inserts

    id_vals = ids.read_block_np(0, n)
    rem_arr = np.asarray(sorted_rem_ids, dtype=np.uint32)
    lis_pos = np.flatnonzero(~np.isin(id_vals, rem_arr))
    L = int(lis_pos.size)
    lis_ids_v = id_vals[lis_pos]
    lis_keys = key0.gather_np(lis_ids_v)
    rem_keys = key0.gather_np(rem_arr)

    if m == 0:
        merged_ids, merged_keys = lis_ids_v, lis_keys
        r_before = 0
        iters_with_rem = 0
    elif L == 0:
        merged_ids, merged_keys = rem_arr, rem_keys
        r_before = 0
        iters_with_rem = 0
    else:
        pos_lis = np.arange(L) + np.searchsorted(
            rem_keys, lis_keys, side="left"
        )
        pos_rem = np.arange(m) + np.searchsorted(
            lis_keys, rem_keys, side="right"
        )
        merged_ids = np.empty(n, dtype=np.uint32)
        merged_keys = np.empty(n, dtype=np.uint32)
        merged_ids[pos_lis] = lis_ids_v
        merged_ids[pos_rem] = rem_arr
        merged_keys[pos_lis] = lis_keys
        merged_keys[pos_rem] = rem_keys

        # REM elements emitted before LIS~ runs out, and the number of
        # main-loop iterations whose head comparison read a REM key.
        r_before = int(np.searchsorted(rem_keys, lis_keys[-1], side="left"))
        if r_before < m:
            iters_with_rem = L + r_before
        else:
            t_last = int(np.searchsorted(lis_keys, rem_keys[-1], side="right"))
            iters_with_rem = m + t_last

    _account_reads(ids, L + 2 * r_before)
    _account_reads(key0, r_before + iters_with_rem)

    final_ids.write_block(0, merged_ids)
    final_keys.write_block(0, merged_keys)
