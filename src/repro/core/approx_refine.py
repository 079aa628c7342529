"""The approx-refine execution mechanism (paper Section 4).

Five stages on a hybrid precise/approximate memory system:

1. **Warm-up** — the input ``<Key, ID>`` pairs sit in precise memory
   (``Key0`` and ``ID``).
2. **Approx preparation** — ``Key0`` is copied into approximate memory
   (``Key~``); some keys may arrive imprecise.
3. **Approx stage** — any sorting algorithm runs on ``Key~`` with the ID
   array following along in precise memory.  This is the offloaded,
   accelerated bulk of the work.
4. **Refine preparation** — nothing is materialized: the nearly sorted key
   sequence is ``Key0[ID[i]]``, reachable with reads (the paper's
   write-saving trick).
5. **Refine stage** — the Listing-1/Listing-2 heuristics produce
   ``finalKey``/``finalID``, exactly sorted, in precise memory.

:func:`run_approx_refine` executes the mechanism and returns per-stage
accounting; :func:`run_precise_baseline` measures the traditional
precise-only execution the paper compares against (Equation 2);
:func:`run_approx_only` is the Section-3 "Step 1" study (sorting entirely in
approximate memory, imprecise output allowed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.memory.approx_array import PreciseArray
from repro.memory.factories import ApproxMemoryFactory
from repro.memory.stats import MemoryStats
from repro.metrics.sortedness import error_rate_multiset, rem_ratio
from repro.obs import StageRecorder, get_tracer
from repro.sorting.base import BaseSorter
from repro.sorting.registry import make_sorter, with_kernels
from repro.verify import checks_performed, sanitize, sanitizing

from .refine import find_rem_ids, merge_refined, sort_rem_ids
from .report import ApproxRefineResult, BaselineResult


def _resolve_sorter(
    sorter: "BaseSorter | str", kernels: "str | None" = None
) -> BaseSorter:
    if isinstance(sorter, str):
        return make_sorter(sorter, **({} if kernels is None else {"kernels": kernels}))
    if kernels is not None and sorter.kernels != kernels:
        return with_kernels(sorter, kernels)
    return sorter


def run_approx_refine(
    keys: Sequence[int],
    sorter: "BaseSorter | str",
    memory: ApproxMemoryFactory,
    seed: int = 0,
    trace=None,
    kernels: "str | None" = None,
) -> ApproxRefineResult:
    """Sort ``keys`` exactly via the approx-refine mechanism.

    Parameters
    ----------
    keys:
        Input key values (32-bit unsigned integers).
    sorter:
        Sorting algorithm instance or registry name; used for both the
        approx stage and the refine stage's REM sort, as in the paper.
    memory:
        Approximate-memory technology/configuration factory.
    seed:
        Seed for the run's corruption randomness.
    kernels:
        Execution-path override (``"scalar"``/``"numpy"``) applied to the
        sorter and the refine-stage functions; ``None`` keeps the sorter's
        own mode and the execution config's (:mod:`repro.execution`).
    trace:
        Optional :class:`repro.pcmsim.trace.TraceRecorder`: when given,
        every accounted access of the pipeline's main arrays (Key0, ID,
        Key~, finalKey, finalID, and the sorters' scratch buffers) is
        recorded so the whole execution can be replayed through the
        detailed queue-level simulator.  The refine stage's transient
        REM-sort shadow structures are not traced (they carry no writes
        that the accounting does not already charge to the ID array).

    Returns
    -------
    An :class:`ApproxRefineResult` whose ``final_keys`` is exactly
    ``sorted(keys)`` — the mechanism guarantees precise output.
    """
    algorithm = _resolve_sorter(sorter, kernels)
    n = len(keys)
    stats = MemoryStats()
    tracer = get_tracer()
    stages = StageRecorder(stats, tracer)
    # A sanitizing execution config wraps the pipeline arrays in
    # invariant-checking shadows (repro.verify).  Checked only here, at
    # allocation scope — an unsanitized run never sees a wrapper on any
    # access path.
    wrap = sanitize if sanitizing() else (lambda array: array)
    checks_before = checks_performed()

    def hook(name: str, region: str):
        return trace.hook_for(name, region) if trace is not None else None

    with tracer.span(
        "approx_refine", stats=stats,
        attrs={"algorithm": algorithm.name, "n": n,
               "memory": memory.description, "seed": seed},
    ):
        # Stage: warm-up (allocation of the inputs; unaccounted by
        # definition).
        with stages.stage("warm_up"):
            key0 = wrap(PreciseArray(
                keys, stats=stats, name="Key0", trace=hook("Key0", "precise")
            ))
            ids = wrap(PreciseArray(
                range(n), stats=stats, name="ID", trace=hook("ID", "precise")
            ))

        # Stage: approx preparation (accounted copy Key0 -> Key~).
        with stages.stage("approx_preparation"):
            approx_keys = wrap(
                memory.make_array([0] * n, stats=stats, seed=seed)
            )
            approx_keys.trace = hook("Key~", "approx")
            approx_keys.load_from(key0)

        # Stage: approx stage (the offloaded sort).
        with stages.stage("approx_stage"):
            algorithm.sort(approx_keys, ids)
        approx_rem = rem_ratio(approx_keys.to_list())

        # Stage: refine preparation (nothing materialized — see module
        # docs).
        with stages.stage("refine_preparation"):
            pass

        # Refine step 1: find LIS~ / REMID~.
        with stages.stage("refine_find_rem"):
            rem_ids = find_rem_ids(ids, key0, kernels=kernels)

        # Refine step 2: sort REMID~ by key value.
        with stages.stage("refine_sort_rem"):
            sorted_rem_ids = sort_rem_ids(
                rem_ids, key0, algorithm, stats, kernels=kernels
            )

        # Refine step 3: merge into the final precise output.
        with stages.stage("refine_merge"):
            final_keys = wrap(PreciseArray(
                [0] * n, stats=stats, name="finalKey",
                trace=hook("finalKey", "precise"),
            ))
            final_ids = wrap(PreciseArray(
                [0] * n, stats=stats, name="finalID",
                trace=hook("finalID", "precise"),
            ))
            merge_refined(
                ids, key0, sorted_rem_ids, final_keys, final_ids,
                kernels=kernels,
            )

    if tracer.enabled and checks_performed() > checks_before:
        tracer.counter(
            "verify.sanitizer_checks", checks_performed() - checks_before,
            attrs={"algorithm": algorithm.name, "n": n},
        )

    return ApproxRefineResult(
        final_keys=final_keys.to_list(),
        final_ids=final_ids.to_list(),
        stats=stats,
        stage_stats=stages.stage_stats,
        rem_tilde=len(rem_ids),
        approx_rem_ratio=approx_rem,
        algorithm=algorithm.name,
        memory_description=memory.description,
        n=n,
    )


def run_precise_baseline(
    keys: Sequence[int],
    sorter: "BaseSorter | str",
    trace=None,
    kernels: "str | None" = None,
) -> BaselineResult:
    """Traditional sort entirely in precise memory (Equation 2's baseline).

    Keys and IDs both live in precise memory; total cost is
    ``2 * alpha_alg(n)`` writes (keys plus record IDs).  ``trace`` and
    ``kernels`` work as in :func:`run_approx_refine`.
    """
    algorithm = _resolve_sorter(sorter, kernels)
    stats = MemoryStats()
    wrap = sanitize if sanitizing() else (lambda array: array)

    def hook(name: str, region: str):
        return trace.hook_for(name, region) if trace is not None else None

    with get_tracer().span(
        "precise_baseline", stats=stats,
        attrs={"algorithm": algorithm.name, "n": len(keys)},
    ):
        key_array = wrap(PreciseArray(
            keys, stats=stats, name="Key", trace=hook("Key", "precise")
        ))
        id_array = wrap(PreciseArray(
            range(len(keys)), stats=stats, name="ID",
            trace=hook("ID", "precise"),
        ))
        algorithm.sort(key_array, id_array)
    return BaselineResult(
        final_keys=key_array.to_list(),
        final_ids=id_array.to_list(),
        stats=stats,
        algorithm=algorithm.name,
        n=len(keys),
    )


@dataclass
class ApproxOnlyResult:
    """Outcome of the Section-3 study: sorting in approximate memory only.

    Attributes
    ----------
    output_keys:
        The (possibly unsorted, possibly value-corrupted) final sequence.
    stats:
        Accounting of the whole run (initial placement + sort).
    rem_ratio:
        Rem(X)/n of the output (paper Figure 4b / Table 3).
    error_rate:
        Fraction of output values deviating from the input multiset (paper
        Figure 4a).
    algorithm, memory_description, n:
        Run identification.
    """

    output_keys: list[int]
    stats: MemoryStats
    rem_ratio: float
    error_rate: float
    algorithm: str
    memory_description: str
    n: int


def run_approx_only(
    keys: Sequence[int],
    sorter: "BaseSorter | str",
    memory: ApproxMemoryFactory,
    seed: int = 0,
    include_ids: bool = False,
    kernels: "str | None" = None,
) -> ApproxOnlyResult:
    """Sort entirely in approximate memory — the paper's Step-1 study.

    The payload array is not accessed ("our target is to study the
    imprecision rather than to recover the sorted data") unless
    ``include_ids`` is set.  The initial placement of the keys in
    approximate memory is accounted, as is every write of the sort.
    """
    algorithm = _resolve_sorter(sorter, kernels)
    n = len(keys)
    stats = MemoryStats()
    wrap = sanitize if sanitizing() else (lambda array: array)
    approx_keys = wrap(memory.make_array([0] * n, stats=stats, seed=seed))
    approx_keys.write_block(0, list(keys))
    ids = (
        wrap(PreciseArray(range(n), stats=stats, name="ID"))
        if include_ids else None
    )
    algorithm.sort(approx_keys, ids)
    output = approx_keys.to_list()
    return ApproxOnlyResult(
        output_keys=output,
        stats=stats,
        rem_ratio=rem_ratio(output),
        error_rate=error_rate_multiset(list(keys), output),
        algorithm=algorithm.name,
        memory_description=memory.description,
        n=n,
    )
