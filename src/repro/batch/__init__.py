"""Batched segmented-sort engine (DESIGN.md section 13, docs/batching.md).

Coalesces many small independent sort/refine jobs into single vectorized
kernel passes over one concatenated buffer — bit-identical per-job results
and stats, per-segment stats tiling the batch aggregate exactly.
"""

from .engine import (
    BatchJob,
    SEGMENTED_SORTERS,
    run_approx_refine_batch,
    run_batch,
    run_job_group,
    run_precise_sort_batch,
)
from .segments import SegmentPlan, tiled_aggregate

__all__ = [
    "BatchJob",
    "SEGMENTED_SORTERS",
    "SegmentPlan",
    "run_approx_refine_batch",
    "run_batch",
    "run_job_group",
    "run_precise_sort_batch",
    "tiled_aggregate",
]
