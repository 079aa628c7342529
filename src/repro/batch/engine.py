"""The batch engine: many small jobs, grouped, run and traced as one.

:func:`run_batch` takes a list of :class:`BatchJob` (sort/refine requests),
groups them by (sorter, kernel mode, memory factory) and runs every job of
a group through the one approx-refine pipeline —
:func:`repro.core.approx_refine.run_approx_refine`, or
:func:`repro.core.approx_refine.run_precise_baseline` for the precise
lane.  There is no second copy of the pipeline, so a batched job is its
looped run by construction: the same keys, IDs, ``MemoryStats`` and stage
stats under every kernel mode, shard count, sanitizer setting and memory
technology (checked by the ``batched_loop`` oracle class).

What the engine adds is the group view: ``batch.*`` metrics per group and,
under an enabled tracer, one synthesized ``batch.run`` span per group with
one ``batch.segment`` child per job whose ``cum_start``/``cum`` counters
tile the group aggregate exactly (the ``batch_span_tiling`` oracle class
and ``report --check``).  Empty, singleton and heterogeneous-length jobs
are first-class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.errors import ConfigError
from repro.memory.stats import MemoryStats
from repro.obs import get_metrics, get_tracer
from repro.obs.tracer import stats_to_dict


@dataclass
class BatchJob:
    """One sort/refine request for the batch engine.

    ``memory=None`` requests the precise baseline sort
    (:func:`repro.core.approx_refine.run_precise_baseline`); a memory
    factory requests the full approx-refine pipeline.  ``sorter`` is a
    registry name, or a sorter instance (grouped by identity).
    """

    keys: Sequence[int]
    sorter: str
    memory: object = None
    seed: int = 0
    kernels: Optional[str] = None


def _run_one(job: BatchJob):
    if job.memory is None:
        return run_precise_baseline(job.keys, job.sorter, kernels=job.kernels)
    return run_approx_refine(
        job.keys, job.sorter, job.memory, seed=job.seed, kernels=job.kernels
    )


def run_batch(jobs: Sequence[BatchJob]) -> list:
    """Execute every job, group by group; results in job order."""
    results: list = [None] * len(jobs)
    tracer = get_tracer()
    metrics = get_metrics()
    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        sorter = job.sorter if isinstance(job.sorter, str) else id(job.sorter)
        groups.setdefault((sorter, job.kernels, id(job.memory)), []).append(i)
    for indices in groups.values():
        first = jobs[indices[0]]
        lane = "precise" if first.memory is None else "approx"
        walls = []
        for i in indices:
            t0 = time.perf_counter()
            results[i] = _run_one(jobs[i])
            walls.append(time.perf_counter() - t0)
        if metrics.enabled:
            metrics.inc("batch.groups")
            metrics.inc("batch.jobs_coalesced", value=len(indices))
            metrics.observe("batch.segments_per_group", len(indices),
                            lane=lane)
        if tracer.enabled:
            _emit_batch_spans(
                tracer, results[indices[0]].algorithm, first.kernels, lane,
                [results[i] for i in indices], walls,
            )
    return results


def run_job_group(jobs: Sequence[BatchJob]) -> list:
    """Execute one *externally assembled* same-config job group.

    The admission scheduler of :mod:`repro.serve` (and any other caller
    that already buckets its requests) assembles coalescing groups itself.
    :func:`run_batch` would accept such a group as-is, but it would also
    silently *re-group* a caller mistake — jobs with mixed configs would
    quietly split into several groups and the caller's batching
    arithmetic (window sizing, fairness accounting) would be wrong without
    any signal.  This entry point makes the contract explicit: every job
    must share the same ``(sorter, kernels)`` and the same ``memory``
    object (``ConfigError`` otherwise), and the validated group then runs
    through the engine as exactly one group — same metrics, same
    synthesized span stream as :func:`run_batch`.

    Results are returned in job order.
    """
    if not jobs:
        return []
    first = jobs[0]
    for job in jobs:
        if (
            job.sorter != first.sorter
            or job.kernels != first.kernels
            or job.memory is not first.memory
        ):
            raise ConfigError(
                "run_job_group requires a same-config group: every job must"
                " share sorter, kernels and the memory factory instance"
                f" (got {job.sorter!r}/{job.kernels!r} vs"
                f" {first.sorter!r}/{first.kernels!r}); use run_batch for"
                " mixed-config batches"
            )
    return run_batch(list(jobs))


def tiled_aggregate(stats_list: Sequence[MemoryStats]) -> MemoryStats:
    """Batch-aggregate stats: the in-order merge of the per-job stats.

    Integer counters sum exactly; the float ``approx_write_units`` field
    accumulates in job order, which is also the order a looped run's
    per-job totals would be summed in — so the aggregate is bit-identical
    to summing the looped per-job stats (checked by the ``batched_loop``
    oracle class).
    """
    total = MemoryStats()
    for stats in stats_list:
        total.merge(stats)
    return total


def _emit_batch_spans(
    tracer, name: str, kernels: Optional[str], lane: str,
    results: Sequence, walls: Sequence[float],
) -> None:
    """Synthesize the span stream for one executed group.

    One ``batch.run`` span carries the group aggregate, and one
    ``batch.segment`` child per job carries that job's stats and wall
    time.  The children's ``cum_start``/``cum`` counters chain verbatim,
    so adjacent segments tile the aggregate by pure dict equality — the
    contract real nested spans satisfy (verified by the
    ``batch_span_tiling`` oracle class and ``report --check``).

    Each segment's ``stats`` field is recomputed as ``cum - cum_start``
    (not copied from the per-job stats), so the report's exactness check
    holds bit-for-bit even for the one float field, where re-summation
    can differ in the last ulp.
    """
    parent = tracer.current_span
    run_id = tracer.allocate_span_id()
    run_attrs = {"algo": name, "kernels": kernels, "lane": lane,
                 "jobs": len(results)}
    tracer.emit({"ev": "span_start", "id": run_id, "parent": parent,
                 "name": "batch.run", "attrs": run_attrs})
    zero = stats_to_dict(MemoryStats())
    cum = dict(zero)
    for result, wall_s in zip(results, walls):
        segment_id = tracer.allocate_span_id()
        attrs = {"algo": name, "n": result.n, "lane": lane}
        tracer.emit({"ev": "span_start", "id": segment_id, "parent": run_id,
                     "name": "batch.segment", "attrs": attrs})
        cum_start = cum
        job_stats = stats_to_dict(result.stats)
        cum = {
            field: cum_start[field] + job_stats[field] for field in cum_start
        }
        delta = {field: cum[field] - cum_start[field] for field in cum}
        tracer.emit({"ev": "span_end", "id": segment_id, "parent": run_id,
                     "name": "batch.segment", "wall_s": wall_s,
                     "stats": delta, "cum_start": cum_start, "cum": cum,
                     "attrs": attrs})
    run_delta = {field: cum[field] - zero[field] for field in cum}
    tracer.emit({"ev": "span_end", "id": run_id, "parent": parent,
                 "name": "batch.run", "wall_s": sum(walls),
                 "stats": run_delta, "cum_start": zero, "cum": dict(cum),
                 "attrs": run_attrs})
