"""Common plumbing of the instrumented sorting algorithms.

Every sorter operates on a *keys* array (precise or approximate memory) and
an optional *ids* array (always precise memory — the paper keeps record IDs
precise so the refine stage can recover exact results).  A sorter must mirror
every key move onto the ID array so that ``ids`` remains the permutation that
the keys underwent.

Sorters are written against :class:`repro.memory.InstrumentedArray` only, so
the same code runs on precise PCM, approximate PCM, and the spintronic model
— the portability property the approx-refine mechanism requires.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Protocol

import numpy as np

from repro.execution import resolve_kernels
from repro.memory.approx_array import InstrumentedArray, PreciseArray
from repro.obs import get_metrics, get_tracer


class Sorter(Protocol):
    """Protocol all sorting algorithms implement."""

    #: Registry name, e.g. ``"quicksort"`` or ``"lsd6"``.
    name: str

    def sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray] = None
    ) -> None:
        """Sort ``keys`` (and the parallel ``ids``) in place, ascending."""
        ...

    def expected_key_writes(self, n: int) -> float:
        """The paper's alpha_alg(n): expected key writes to sort n elements."""
        ...


class BaseSorter:
    """Shared helpers: element swap/move mirrored across keys and IDs.

    Every sorter carries a ``kernels`` mode (``"scalar"``/``"numpy"``, or
    ``None`` to resolve the execution config's mode
    (:func:`repro.execution.current`) at sort time).  The numpy mode
    routes the algorithm through the vectorized kernels built on the
    arrays' accounted batch primitives; on precise memory both modes
    produce bit-identical output and identical accounted counts (see DESIGN.md section 8 and
    ``tests/sorting/test_kernel_equivalence.py``).
    """

    name = "base"

    def __init__(self, kernels: Optional[str] = None) -> None:
        if kernels is not None:
            resolve_kernels(kernels)  # validate eagerly
        self.kernels = kernels

    def _use_numpy_kernels(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> bool:
        """Whether to take the vectorized path for this (keys, ids) pair.

        Falls back to scalar when a trace hook is attached (kernels batch
        accesses, so per-event trace *order* would differ from the scalar
        reference the pcmsim replay is calibrated against) or when either
        array's semantics depend on element access order
        (``kernel_safe = False``, e.g. the write-combining wrapper).
        """
        if resolve_kernels(self.kernels) != "numpy":
            return False
        if keys.trace is not None or not keys.kernel_safe:
            return False
        if ids is not None and (ids.trace is not None or not ids.kernel_safe):
            return False
        return True

    def _fusable(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> bool:
        """Whether a whole sort may collapse to one stable argsort.

        The gate every fused precise path shares (mergesort, ``msd*``,
        ``hmsd*``).  Requires the numpy kernels (no trace hook, no
        order-sensitive operand), bare :class:`PreciseArray` operands —
        approximate memory must draw its corruption pass by pass, and the
        strict type check excludes wrappers such as sanitizer shadows — and
        a disabled tracer, so a traced run still shows its per-level spans
        and counters.
        """
        return (
            self._use_numpy_kernels(keys, ids)
            and type(keys) is PreciseArray
            and (ids is None or type(ids) is PreciseArray)
            and not get_tracer().enabled
        )

    @staticmethod
    def _commit_fused(
        keys: PreciseArray,
        ids: Optional[PreciseArray],
        ordered: np.ndarray,
        order: np.ndarray,
        touches: int,
    ) -> None:
        """Store a fused sort's result and charge its closed-form traffic.

        ``ordered`` is ``keys`` permuted by ``order``; ``ids`` follows the
        same permutation.  Each array is charged ``touches`` reads and as
        many writes — the counts its unfused path would have accounted —
        while the stores themselves stay unaccounted.
        """
        keys.stats.record_precise_read(touches)
        keys.stats.record_precise_write(touches)
        keys.poke_block_np(0, ordered)
        if ids is not None:
            ids.stats.record_precise_read(touches)
            ids.stats.record_precise_write(touches)
            ids.poke_block_np(0, ids.peek_block_np(0, len(ids))[order])

    def sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray] = None
    ) -> None:
        if ids is not None and len(ids) != len(keys):
            raise ValueError(
                f"ids length {len(ids)} does not match keys length {len(keys)}"
            )
        if len(keys) < 2:
            return
        tracer = get_tracer()
        metrics = get_metrics()
        t0 = time.perf_counter() if metrics.enabled else 0.0
        if tracer.enabled:
            with tracer.span(
                f"sort.{self.name}", stats=keys.stats,
                attrs={"algo": self.name, "n": len(keys),
                       "kernels": resolve_kernels(self.kernels),
                       "region": keys.region},
            ):
                self._sort(keys, ids)
        else:
            self._sort(keys, ids)
        if metrics.enabled:
            metrics.observe(
                "sort.wall_s", time.perf_counter() - t0,
                algo=self.name, region=keys.region,
            )

    # Subclasses implement the actual algorithm.
    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        raise NotImplementedError

    def expected_key_writes(self, n: int) -> float:
        raise NotImplementedError

    def max_key_writes(self, n: int) -> Optional[float]:
        """Closed-form worst-case key writes to sort ``n`` elements.

        ``None`` (the default) means the algorithm's write count is
        value-dependent with no useful deterministic bound (quicksort's
        swap count, MSD bucket recursion).  Sorters with a
        value-independent write schedule override this with the exact
        bound; the ``write_budget`` oracle class in
        :mod:`repro.verify.oracle` asserts measured ``MemoryStats`` write
        counts never exceed it, on precise and approximate memory, in
        both kernel modes.
        """
        return None

    @staticmethod
    def _swap(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        i: int,
        j: int,
    ) -> None:
        """Swap positions ``i`` and ``j`` in keys and (if present) IDs."""
        ki = keys.read(i)
        kj = keys.read(j)
        keys.write(i, kj)
        keys.write(j, ki)
        if ids is not None:
            vi = ids.read(i)
            vj = ids.read(j)
            ids.write(i, vj)
            ids.write(j, vi)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def stable_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values[order], order)`` for the stable ascending ``order`` of the
    uint32 ``values`` — ``np.argsort(values, kind="stable")``, faster.

    Packing each key above its position makes every word distinct, so any
    sort of the packed words is stable, and numpy's uint64 sort beats a
    stable argsort of 32-bit keys several times over from a few thousand
    keys up.
    """
    packed = values.astype(np.uint64) << np.uint64(32)
    packed |= np.arange(values.size, dtype=np.uint64)
    packed.sort()
    ordered = (packed >> np.uint64(32)).astype(np.uint32)
    return ordered, (packed & np.uint64(0xFFFFFFFF)).astype(np.intp)


def nlog2n(n: int) -> float:
    """``n * log2(n)`` with the small-n edge handled."""
    if n < 2:
        return 0.0
    return n * math.log2(n)
